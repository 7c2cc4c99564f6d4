//! Cross-core **Flush+Reload** through the coherent shared last-level
//! cache — the shared-line channel that cross-core Prime+Probe's
//! partitioning defense cannot close, opened by the MSI-style
//! invalidation model.
//!
//! The victim's AES T-tables live in a *shared read-only segment*
//! (one crypto library mapped by every core), declared as a coherent
//! region of the platform. Per sample the attacker **flushes** the
//! TE0 lines (the clflush primitive: the coherence protocol drains
//! every tracked copy — the victim's private-level copies, the
//! shared-level copies, and the directory entry), lets the victim
//! encrypt one known plaintext, then **reloads**: probing a monitored
//! line in the shared level. A present line was refilled by the
//! victim after the flush — i.e. the first AES round touched it — and
//! `TE0[pt[0] ^ k[0]]` ties the line to the key byte. Votes
//! accumulate over samples; on a deterministic shared platform the
//! true key byte (with its seven line-mates — a 32 B line holds 8
//! table entries) climbs to the top.
//!
//! Two defenses are modelled, matching the paper's §7 argument:
//!
//! * **per-core way partitions with per-core table replicas**
//!   ([`FlushReloadIsolation::PartitionedReplicated`]): way partitions
//!   alone cannot close a shared-line channel (a flush drains and a
//!   reload finds the line regardless of which way holds it), so the
//!   partitioned configuration also *un-shares* the memory — each
//!   core gets its own table copy, as strict partitioning schemes
//!   require. The attacker can only flush and probe its own replica,
//!   which the victim never touches: the votes flatten to chance.
//! * **per-process randomized placement** (the TSCache setups): the
//!   flush still drains every copy (the directory resolves each
//!   holder's copy under the holder's own seed — coherence works by
//!   physical address), but the attacker's *reload* probes the line
//!   under its own seed, which indexes a different set than the
//!   victim's refill: the probe goes blind and the channel closes
//!   without any partition.

use crate::{key_rank, random_block, seed_machine, shared_llc, TE0_LINES, VICTIM_KEY};
use tscache_aes::sim_cipher::{AesLayout, SimAes128};
use tscache_core::addr::{Addr, LineAddr};
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::prng::{mix64, SplitMix64};
use tscache_core::seed::ProcessId;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::SystemConfig;
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;

/// Isolation configuration of the shared platform under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReloadIsolation {
    /// One table segment shared (and kept coherent) across cores —
    /// the vulnerable configuration Flush+Reload needs.
    SharedOpen,
    /// Full per-core way partitions on the shared level *plus*
    /// per-core table replicas: the victim fills ways `0..2`, the
    /// attacker ways `2..4`, and no line is shared — the §7
    /// partitioning configuration taken to its logical conclusion
    /// (partition isolation is only provable over disjoint data).
    PartitionedReplicated,
}

/// Parameters of a Flush+Reload campaign. The victim's secret
/// key is [`VICTIM_KEY`].
#[derive(Debug, Clone, Copy)]
pub struct FlushReloadConfig {
    /// Cache setup of the shared platform (the LLC inherits its
    /// unified policy; `Deterministic` is the classic vulnerable
    /// target, the TSCache setups blind the reload).
    pub setup: SetupKind,
    /// Samples (flush → encrypt → reload rounds).
    pub samples: u32,
    /// Master seed; plaintexts and placement seeds derive from it.
    pub master_seed: u64,
    /// Sharing/partitioning configuration.
    pub isolation: FlushReloadIsolation,
    /// Defense-zoo policy armed on the whole platform (private levels
    /// and the shared LLC). Normalization closes this channel directly
    /// — the attacker's reload probe reports victim-refilled lines as
    /// absent; the rotation defenses re-key the LLC mid-campaign.
    pub defense: DefenseKind,
}

impl FlushReloadConfig {
    /// Validates the campaign parameters ([`run_flush_reload`] runs it
    /// first).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.samples == 0 {
            return Err(ConfigError::incompatible("flush+reload campaign needs samples > 0"));
        }
        Ok(())
    }

    /// The standard campaign: 256 samples against `setup`.
    pub fn standard(setup: SetupKind, master_seed: u64) -> Self {
        FlushReloadConfig {
            setup,
            samples: 256,
            master_seed,
            isolation: FlushReloadIsolation::SharedOpen,
            defense: DefenseKind::Off,
        }
    }
}

/// Outcome of a Flush+Reload campaign.
#[derive(Debug, Clone)]
pub struct FlushReloadOutcome {
    /// Samples run.
    pub samples: u32,
    /// Votes per candidate value of key byte 0.
    pub scores: Vec<u32>,
    /// Rank of the true key byte among the candidates (0 = strongest;
    /// ties share their average rank). 8 candidates sharing the true
    /// byte's table line are indistinguishable by construction, so a
    /// perfect attack ranks the true byte ≈ 3.5; a dead channel ties
    /// all 256 candidates at 127.5.
    pub correct_rank: f64,
    /// Reload probes that found a monitored line resident in the
    /// shared level over the whole campaign.
    pub reload_hits: u64,
    /// Line copies the flush broadcasts drained from the victim
    /// core's private levels (proof the coherence protocol reached
    /// into the victim's hierarchy).
    pub victim_invalidations: u64,
}

impl FlushReloadOutcome {
    /// Whether the true key byte ranks in the top quartile of the
    /// candidate list — the pinned "signal recovered" criterion.
    pub fn top_quartile(&self) -> bool {
        self.correct_rank < 64.0
    }
}

/// Runs the campaign; everything derives from `cfg.master_seed`, so
/// outcomes are bit-reproducible.
///
/// # Errors
///
/// Every configuration problem ([`FlushReloadConfig::validate`], a
/// platform without a shared level) surfaces as a [`ConfigError`]
/// instead of an abort.
pub fn run_flush_reload(cfg: &FlushReloadConfig) -> Result<FlushReloadOutcome, ConfigError> {
    cfg.validate()?;
    let setup = cfg.defense.effective_setup(cfg.setup);
    let victim = ProcessId::new(1);
    let attacker = ProcessId::new(2);

    // The victim node: private hierarchy + shared LLC, coherence to be
    // armed below.
    let mut machine =
        Machine::from_setup_shared(setup, HierarchyDepth::TwoLevel, SystemConfig, cfg.master_seed);
    machine.apply_defense(cfg.defense);
    machine.set_process(victim);
    seed_machine(&mut machine, setup, victim, attacker, cfg.master_seed ^ 0x000f_1a54);

    let mut layout = Layout::new(0x10_0000);
    let aes_layout = AesLayout::install(&mut layout, "victim");
    let aes = SimAes128::new(&VICTIM_KEY, aes_layout);
    let offset_bits = 5u32; // 32-byte lines on every preset

    // The monitored lines: the shared segment's TE0 in the open
    // configuration, the attacker's private replica when partitioning
    // un-shares the tables.
    let monitored_base = match cfg.isolation {
        FlushReloadIsolation::SharedOpen => {
            // The whole table block (TE0..TE4) is one shared coherent
            // segment — a crypto library every core maps.
            machine.add_coherent_range(aes_layout.table(0).base(), aes_layout.table_bytes());
            aes_layout.table(0).base()
        }
        FlushReloadIsolation::PartitionedReplicated => {
            let replica = AesLayout::install(&mut layout, "attacker-replica");
            machine.add_coherent_range(replica.table(0).base(), replica.table_bytes());
            let llc = shared_llc(&mut machine, "flush+reload")?;
            llc.set_way_partition(victim, 0, 2);
            llc.set_way_partition(attacker, 2, 4);
            replica.table(0).base()
        }
    };
    let monitored: Vec<(Addr, LineAddr)> = (0..TE0_LINES as u64)
        .map(|l| {
            let addr = Addr::new(monitored_base.as_u64() + l * 32);
            (addr, addr.line(offset_bits))
        })
        .collect();

    let mut pt_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x4e10ad));
    let mut scores = vec![0u32; 256];
    let mut reload_hits = 0u64;
    let mut ops = Vec::with_capacity(256);

    for _ in 0..cfg.samples {
        // Flush: the attacker drains every monitored line platform-
        // wide through the coherence protocol (victim private copies,
        // shared-level copies, directory entries).
        for &(addr, _) in &monitored {
            machine.flush_line(addr);
        }

        // Victim: runs one encryption of a random (but attacker-known)
        // plaintext through its machine. Unflushed lines stay warm in
        // its private levels — only the flushed lines generate
        // shared-level refills, which is exactly the Flush+Reload
        // signal.
        let pt = random_block(&mut pt_rng);
        aes.encrypt_with(&mut machine, &mut ops, &pt);

        // Reload (non-destructive): a monitored line present in the
        // shared level was refetched by the victim after the flush.
        let llc = shared_llc(&mut machine, "flush+reload")?;
        let mut reloaded = [false; TE0_LINES];
        for (l, &(_, line)) in monitored.iter().enumerate() {
            reloaded[l] = llc.cache_mut().probe(attacker, line);
            reload_hits = reload_hits.saturating_add(reloaded[l] as u64);
        }
        // Vote: candidate k predicts TE0 line (pt[0] ^ k) / 8.
        let [pt0, ..] = pt;
        for (k, score) in scores.iter_mut().enumerate() {
            let line = ((pt0 ^ k as u8) >> 3) as usize;
            *score += reloaded[line] as u32;
        }
    }

    let [key0, ..] = VICTIM_KEY;
    let correct_rank = key_rank(&scores, key0);
    let victim_invalidations = machine.hierarchy().total_stats().coh_invalidations();
    Ok(FlushReloadOutcome {
        samples: cfg.samples,
        scores,
        correct_rank,
        reload_hits,
        victim_invalidations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_samples_is_a_config_error() {
        let mut cfg = FlushReloadConfig::standard(SetupKind::Deterministic, 7);
        cfg.samples = 0;
        let err = run_flush_reload(&cfg).unwrap_err();
        assert!(err.to_string().contains("samples > 0"), "{err}");
    }

    #[test]
    fn deterministic_shared_platform_leaks_the_key_byte() {
        let out = run_flush_reload(&FlushReloadConfig::standard(SetupKind::Deterministic, 7))
            .expect("valid config");
        assert!(out.top_quartile(), "rank {} not top-quartile", out.correct_rank);
        assert!(out.correct_rank < 8.0, "line-mates aside, the true byte should lead");
        assert!(out.victim_invalidations > 0, "flush never reached the victim's private levels");
        assert!(out.reload_hits > 0, "the reload never fired");
    }

    #[test]
    fn partitioned_replicated_platform_is_chance() {
        let mut cfg = FlushReloadConfig::standard(SetupKind::Deterministic, 7);
        cfg.isolation = FlushReloadIsolation::PartitionedReplicated;
        let out = run_flush_reload(&cfg).expect("valid config");
        assert_eq!(out.reload_hits, 0, "the victim never touches the attacker's replica");
        assert_eq!(out.correct_rank, 127.5, "dead channel must tie all candidates");
    }

    #[test]
    fn per_process_randomization_blinds_the_reload() {
        let out =
            run_flush_reload(&FlushReloadConfig::standard(SetupKind::TsCache, 7)).expect("valid");
        assert!(!out.top_quartile(), "TSCache leaked: rank {}", out.correct_rank);
        assert!(out.victim_invalidations > 0, "coherence must still drain the victim's copies");
        assert_eq!(out.reload_hits, 0, "the attacker's probe must be blind");
    }

    #[test]
    fn campaign_reproduces_bit_for_bit() {
        let cfg = FlushReloadConfig::standard(SetupKind::Deterministic, 11);
        let a = run_flush_reload(&cfg).expect("valid config");
        let b = run_flush_reload(&cfg).expect("valid config");
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.correct_rank, b.correct_rank);
        assert_eq!(a.reload_hits, b.reload_hits);
    }
}
