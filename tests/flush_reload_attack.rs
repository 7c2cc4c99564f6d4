//! Cross-crate integration: the Flush+Reload campaign through the
//! coherent shared platform (sca::flush_reload on a sim::Machine with
//! an MSI-tracked shared table segment) reproduces the coherence-era
//! ablation — a deterministic shared platform leaks a key byte to the
//! flushing core, per-core way partitions with per-core table
//! replicas reduce it to exact chance, and per-process randomized
//! placement (TSCache) blinds the reload while the coherence protocol
//! still drains the victim's copies. Deterministic seeds; the
//! campaign is sequential, so the asserted outcomes are identical
//! under any `RAYON_NUM_THREADS`.

use tscache::core::setup::SetupKind;
use tscache::sca::flush_reload::{run_flush_reload, FlushReloadConfig, FlushReloadIsolation};

const SEED: u64 = 0xF1A5;

#[test]
fn deterministic_coherent_platform_recovers_the_key_byte() {
    let out = run_flush_reload(&FlushReloadConfig::standard(SetupKind::Deterministic, SEED))
        .expect("valid flush+reload config");
    assert!(out.top_quartile(), "true byte ranked {:.1}, expected top quartile", out.correct_rank);
    // The channel is line-granular: the true byte ties only with its
    // seven line-mates at the very top.
    assert!(out.correct_rank < 8.0, "rank {:.1}", out.correct_rank);
    assert!(out.reload_hits > 0, "the reload never found a refilled line");
    assert!(
        out.victim_invalidations > 0,
        "the flush broadcasts never drained a victim private copy — coherence is dead"
    );
}

#[test]
fn partitioned_replicas_reduce_flush_reload_to_chance() {
    let mut cfg = FlushReloadConfig::standard(SetupKind::Deterministic, SEED);
    cfg.isolation = FlushReloadIsolation::PartitionedReplicated;
    let out = run_flush_reload(&cfg).expect("valid flush+reload config");
    assert_eq!(out.reload_hits, 0, "the victim touched the attacker's private replica");
    assert_eq!(out.correct_rank, 127.5, "a dead channel ties all 256 candidates");
}

#[test]
fn per_process_randomization_blinds_the_reload_without_partitions() {
    let out = run_flush_reload(&FlushReloadConfig::standard(SetupKind::TsCache, SEED))
        .expect("valid flush+reload config");
    assert!(!out.top_quartile(), "TSCache leaked: rank {:.1}", out.correct_rank);
    // Coherence works by physical address — the victim's copies are
    // still drained — but the attacker reloads under its own seed and
    // probes the wrong sets.
    assert!(out.victim_invalidations > 0, "flush must still drain the victim's copies");
    assert_eq!(out.reload_hits, 0, "the reload must stay blind");
}

#[test]
fn campaign_is_deterministic_given_seed() {
    let cfg = FlushReloadConfig::standard(SetupKind::Deterministic, 0xBEEF);
    let a = run_flush_reload(&cfg).expect("valid flush+reload config");
    let b = run_flush_reload(&cfg).expect("valid flush+reload config");
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.correct_rank, b.correct_rank);
    assert_eq!(a.reload_hits, b.reload_hits);
    assert_eq!(a.victim_invalidations, b.victim_invalidations);
}
