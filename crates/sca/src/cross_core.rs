//! Cross-core Prime+Probe through a **shared last-level cache** — the
//! contention attack the §7 partitioning ablation is about.
//!
//! An enemy core shares the platform's LLC with a victim running AES.
//! Per sample the attacker *primes* the LLC sets covering the victim's
//! TE0 table (filling each monitored set with its own lines), lets the
//! victim encrypt one known plaintext, then *probes* its lines: a
//! missing prime line marks a set the victim refilled, i.e. a table
//! line the first AES round touched — and `TE0[pt[0] ^ k[0]]` ties
//! that line to the key byte. Votes accumulate over samples; on a
//! deterministic shared LLC the true key byte (with its seven
//! line-mates — a 32 B line holds 8 table entries) climbs to the top.
//!
//! Two defenses are modelled, matching the paper's argument:
//!
//! * **per-core way partitions** on the shared level
//!   ([`LlcPartition::PerCore`]): the victim's fills can no longer
//!   evict the attacker's lines, the probe goes blind, and the vote
//!   distribution flattens to chance;
//! * **randomized placement with per-process seeds** (the TSCache
//!   setups): the attacker can neither target the victim's sets nor
//!   interpret its own evictions, degrading the channel without any
//!   partition.
//!
//! The attacker drives the shared level directly (a streaming access
//! pattern whose private cache is bypassed — the strongest-attacker
//! model); the victim runs its full machine: private L1s, trace-batch
//! replay, shared-LLC resolution in op order. The victim's private
//! caches are flushed before each timed encryption (preemption between
//! jobs), so first-round table accesses genuinely reach the shared
//! level.

use crate::{key_rank, random_block, seed_machine, shared_llc, TE0_LINES, VICTIM_KEY};
use tscache_aes::sim_cipher::{AesLayout, SimAes128};
use tscache_core::addr::LineAddr;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::prng::{mix64, SplitMix64};
use tscache_core::seed::ProcessId;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::SystemConfig;
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;

/// Partitioning of the shared LLC between the victim's core and the
/// attacker's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcPartition {
    /// Unpartitioned: every core fills every way (the vulnerable
    /// configuration).
    None,
    /// Full per-core partition: the victim fills ways `0..2`, the
    /// attacker ways `2..4` — the §7 isolation configuration.
    PerCore,
}

/// Parameters of a cross-core Prime+Probe campaign. The victim's secret
/// key is [`VICTIM_KEY`].
#[derive(Debug, Clone, Copy)]
pub struct CrossCoreConfig {
    /// Cache setup of the shared platform (the LLC inherits its
    /// unified policy; `Deterministic` is the classic vulnerable
    /// target).
    pub setup: SetupKind,
    /// Samples (prime → encrypt → probe rounds).
    pub samples: u32,
    /// Master seed; plaintexts and placement seeds derive from it.
    pub master_seed: u64,
    /// Shared-level partitioning.
    pub partition: LlcPartition,
    /// Defense-zoo policy armed on the whole platform. The rotation
    /// defenses act here: the shared level re-keys a core's placement
    /// seed on a fill-count schedule and flushes its lines, so primes
    /// laid under the old seed stop predicting the victim's sets.
    pub defense: DefenseKind,
}

impl CrossCoreConfig {
    /// The standard campaign: 256 samples against `setup`.
    pub fn standard(setup: SetupKind, master_seed: u64) -> Self {
        CrossCoreConfig {
            setup,
            samples: 256,
            master_seed,
            partition: LlcPartition::None,
            defense: DefenseKind::Off,
        }
    }
}

/// Outcome of a cross-core Prime+Probe campaign.
#[derive(Debug, Clone)]
pub struct CrossCoreOutcome {
    /// Samples run.
    pub samples: u32,
    /// Votes per candidate value of key byte 0.
    pub scores: Vec<u32>,
    /// Rank of the true key byte among the candidates (0 = strongest;
    /// ties share their average rank). 8 candidates sharing the true
    /// byte's table line are indistinguishable by construction, so a
    /// perfect attack ranks the true byte ≈ 3.5.
    pub correct_rank: f64,
    /// Prime-line evictions the probe observed over the campaign.
    pub evictions_observed: u64,
    /// Cross-core evictions the shared level recorded.
    pub cross_core_evictions: u64,
}

impl CrossCoreOutcome {
    /// Whether the true key byte ranks in the top quartile of the
    /// candidate list — the pinned "signal recovered" criterion.
    pub fn top_quartile(&self) -> bool {
        self.correct_rank < 64.0
    }
}

/// Attacker prime depth per monitored set (the LLC associativity).
const PRIME_WAYS: u64 = 4;

/// What the campaign is called in its errors.
const CAMPAIGN: &str = "cross-core prime+probe";

/// Runs the campaign; everything derives from `cfg.master_seed`, so
/// outcomes are bit-reproducible.
///
/// # Errors
///
/// Every configuration problem (no samples, a platform without a
/// shared level) surfaces as a [`ConfigError`] instead of an abort.
pub fn run_cross_core_prime_probe(cfg: &CrossCoreConfig) -> Result<CrossCoreOutcome, ConfigError> {
    if cfg.samples == 0 {
        return Err(ConfigError::incompatible("cross-core prime+probe needs samples > 0"));
    }
    let setup = cfg.defense.effective_setup(cfg.setup);
    let victim = ProcessId::new(1);
    let attacker = ProcessId::new(2);

    // The victim node: private hierarchy + shared LLC.
    let mut machine =
        Machine::from_setup_shared(setup, HierarchyDepth::TwoLevel, SystemConfig, cfg.master_seed);
    machine.apply_defense(cfg.defense);
    machine.set_process(victim);
    seed_machine(&mut machine, setup, victim, attacker, cfg.master_seed ^ 0x5eedcc);
    if cfg.partition == LlcPartition::PerCore {
        let llc = shared_llc(&mut machine, CAMPAIGN)?;
        llc.set_way_partition(victim, 0, 2);
        llc.set_way_partition(attacker, 2, 4);
    }

    let mut layout = Layout::new(0x10_0000);
    let aes_layout = AesLayout::install(&mut layout, "victim");
    let aes = SimAes128::new(&VICTIM_KEY, aes_layout);
    let te0_base_line = aes_layout.table(0).base().as_u64() >> 5;
    let llc_sets = shared_llc(&mut machine, CAMPAIGN)?.cache().geometry().sets() as u64;

    // The attacker's prime lines, per monitored TE0 line: PRIME_WAYS
    // own lines that alias the victim line's modulo set, from a
    // disjoint address region (line 0x200_0000 = byte 1 GiB, a
    // multiple of the set count — no accidental data sharing).
    let attacker_base = 0x200_0000u64;
    let prime_lines: Vec<[LineAddr; PRIME_WAYS as usize]> = (0..TE0_LINES as u64)
        .map(|l| {
            let set = (te0_base_line + l) % llc_sets;
            core::array::from_fn(|j| LineAddr::new(attacker_base + set + j as u64 * llc_sets))
        })
        .collect();

    let mut pt_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x971e57));
    let mut scores = vec![0u32; 256];
    let mut evictions_observed = 0u64;
    let mut ops = Vec::with_capacity(256);

    for _ in 0..cfg.samples {
        // Prime: fill every monitored set with attacker lines.
        {
            let llc = shared_llc(&mut machine, CAMPAIGN)?.cache_mut();
            for lines in &prime_lines {
                for &line in lines {
                    llc.access(attacker, line);
                }
            }
        }

        // Victim: preempted in, runs one encryption of a random (but
        // attacker-known) plaintext through its machine. Private
        // caches are cold after preemption; the shared level is where
        // the two cores meet.
        let pt = random_block(&mut pt_rng);
        machine.hierarchy_mut().flush_all();
        aes.encrypt_with(&mut machine, &mut ops, &pt);

        // Probe (non-destructive): a monitored set missing a prime
        // line was refilled by the victim.
        let llc = shared_llc(&mut machine, CAMPAIGN)?;
        let mut evicted = [false; TE0_LINES];
        for (l, lines) in prime_lines.iter().enumerate() {
            evicted[l] = lines.iter().any(|&line| !llc.cache_mut().probe(attacker, line));
            evictions_observed += evicted[l] as u64;
        }
        // Vote: candidate k predicts TE0 line (pt[0] ^ k) / 8.
        let [pt0, ..] = pt;
        for (k, score) in scores.iter_mut().enumerate() {
            let line = ((pt0 ^ k as u8) >> 3) as usize;
            *score += evicted[line] as u32;
        }
    }

    let [key0, ..] = VICTIM_KEY;
    let correct_rank = key_rank(&scores, key0);
    let cross_core_evictions =
        shared_llc(&mut machine, CAMPAIGN)?.cache().stats().cross_process_evictions();
    Ok(CrossCoreOutcome {
        samples: cfg.samples,
        scores,
        correct_rank,
        evictions_observed,
        cross_core_evictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_samples_is_a_config_error() {
        let mut cfg = CrossCoreConfig::standard(SetupKind::Deterministic, 7);
        cfg.samples = 0;
        let err = run_cross_core_prime_probe(&cfg).unwrap_err();
        assert!(err.to_string().contains("samples > 0"), "{err}");
    }

    #[test]
    fn deterministic_shared_llc_leaks_the_key_byte() {
        let out =
            run_cross_core_prime_probe(&CrossCoreConfig::standard(SetupKind::Deterministic, 7))
                .expect("valid config");
        assert!(out.top_quartile(), "rank {} not top-quartile", out.correct_rank);
        assert!(out.correct_rank < 8.0, "line-mates aside, the true byte should lead");
        assert!(out.cross_core_evictions > 0);
    }

    #[test]
    fn per_core_partition_drops_the_attack_to_chance() {
        let mut cfg = CrossCoreConfig::standard(SetupKind::Deterministic, 7);
        cfg.partition = LlcPartition::PerCore;
        let out = run_cross_core_prime_probe(&cfg).expect("valid config");
        assert!(!out.top_quartile(), "rank {} still top-quartile", out.correct_rank);
        assert_eq!(out.cross_core_evictions, 0, "partition violated");
    }

    #[test]
    fn campaign_reproduces_bit_for_bit() {
        let cfg = CrossCoreConfig::standard(SetupKind::Deterministic, 11);
        let a = run_cross_core_prime_probe(&cfg).expect("valid config");
        let b = run_cross_core_prime_probe(&cfg).expect("valid config");
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.correct_rank, b.correct_rank);
    }
}
