//! Cross-crate integration: the cross-core Prime+Probe campaign
//! through the shared last-level cache (sca::cross_core on a
//! sim::Machine shared platform) reproduces the §7 partitioning
//! ablation — a deterministic shared LLC leaks a key byte to an enemy
//! core, full per-core way partitions eliminate the channel, and
//! randomized per-process placement (TSCache) defeats it without any
//! partition. Deterministic seeds; the campaign is sequential, so the
//! asserted outcomes are identical under any `RAYON_NUM_THREADS`.

use tscache::core::setup::SetupKind;
use tscache::sca::cross_core::{run_cross_core_prime_probe, CrossCoreConfig, LlcPartition};

const SEED: u64 = 0xDAC18;

#[test]
fn deterministic_shared_llc_recovers_the_key_byte() {
    let out =
        run_cross_core_prime_probe(&CrossCoreConfig::standard(SetupKind::Deterministic, SEED))
            .expect("valid cross-core config");
    assert!(out.top_quartile(), "true byte ranked {:.1}, expected top quartile", out.correct_rank);
    // The channel is line-granular: the true byte ties only with its
    // seven line-mates at the very top.
    assert!(out.correct_rank < 8.0, "rank {:.1}", out.correct_rank);
    assert!(out.cross_core_evictions > 0, "no cross-core evictions — the cores never met");
    assert!(out.evictions_observed > 0, "the probe never fired");
}

#[test]
fn per_core_partitions_eliminate_the_cross_core_channel() {
    let mut cfg = CrossCoreConfig::standard(SetupKind::Deterministic, SEED);
    cfg.partition = LlcPartition::PerCore;
    let out = run_cross_core_prime_probe(&cfg).expect("valid cross-core config");
    assert!(
        !out.top_quartile(),
        "partitioned campaign still ranked the true byte {:.1}",
        out.correct_rank
    );
    assert_eq!(out.cross_core_evictions, 0, "per-core partition violated in the shared level");
}

#[test]
fn per_process_randomization_defeats_the_attack_without_partitions() {
    let out = run_cross_core_prime_probe(&CrossCoreConfig::standard(SetupKind::TsCache, SEED))
        .expect("valid cross-core config");
    assert!(!out.top_quartile(), "TSCache leaked: rank {:.1}", out.correct_rank);
    // The attacker cannot even land its primes on the victim's sets:
    // the probe stays blind.
    assert_eq!(out.evictions_observed, 0);
}

#[test]
fn campaign_is_deterministic_given_seed() {
    let cfg = CrossCoreConfig::standard(SetupKind::Deterministic, 0xABCD);
    let a = run_cross_core_prime_probe(&cfg).expect("valid cross-core config");
    let b = run_cross_core_prime_probe(&cfg).expect("valid cross-core config");
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.correct_rank, b.correct_rank);
    assert_eq!(a.cross_core_evictions, b.cross_core_evictions);
}
