//! # tscache-sca — cache timing side-channel attacks
//!
//! The attack half of the reproduction: Bernstein's correlation attack
//! on AES (the paper's §6 case study) plus the Prime+Probe and
//! Evict+Time contention primitives used in the generalization
//! argument (§6.2.1).
//!
//! * [`sampling`] — two emulated ECU nodes (attacker with known key,
//!   victim with secret key) timing AES encryptions amid application
//!   and OS cache activity, with seed management per cache setup.
//! * [`profile`] — Bernstein's per-(byte, value) timing profiles
//!   (Fig. 4's data).
//! * [`bernstein`] — shift-correlation analysis, stringent-threshold
//!   candidate reduction, and Fig. 5's effectiveness matrix/metrics.
//! * [`prime_probe`], [`evict_time`] — contention attack primitives.
//! * [`cross_core`] — Prime+Probe mounted from an *enemy core*
//!   through a shared last-level cache, and the §7 per-core
//!   way-partitioning ablation that shuts it down.
//! * [`flush_reload`] — Flush+Reload against a *shared, coherent*
//!   table segment via the MSI invalidation model: the shared-line
//!   channel way partitions alone cannot close (the partitioned
//!   configuration must also un-share the tables), while per-process
//!   randomized placement blinds the reload outright.
//! * [`detect`] — the attacks above run against the RTOS crate's
//!   sliding-window PMU detector: ROC-scored benign-vs-attack
//!   campaigns with a zero-false-positive operating point, detection
//!   latency vs key-recovery progress, and an attacker evasion axis.
//!
//! Every campaign has one entry point that validates its own
//! configuration and returns a [`ConfigError`] for a bad one, so a
//! fleet shard quarantines a bad spec instead of aborting.
//!
//! ```no_run
//! use tscache_core::setup::SetupKind;
//! use tscache_sca::bernstein::run_attack;
//! use tscache_sca::sampling::SamplingConfig;
//!
//! let cfg = SamplingConfig::standard(SetupKind::Deterministic, 100_000, 42);
//! let result = run_attack(cfg).expect("valid sampling config");
//! println!("residual keyspace: 2^{:.0}", result.residual_keyspace_log2());
//! ```

pub mod bernstein;
pub mod cross_core;
pub mod detect;
pub mod evict_time;
pub mod flush_reload;
pub mod prime_probe;
pub mod profile;
pub mod sampling;

pub use bernstein::{analyze, run_attack, AttackResult, ByteAttackResult};
pub use detect::{
    run_detection_campaign, DetectTarget, DetectionCampaignConfig, DetectionOutcome, EvasionMode,
    RocCurve, RocPoint,
};
pub use evict_time::{run_evict_time, EvictTimeOutcome};
pub use flush_reload::{run_flush_reload, FlushReloadConfig, FlushReloadOutcome};
pub use prime_probe::{run_prime_probe, PrimeProbeOutcome};
pub use profile::TimingProfile;
pub use sampling::{collect_pair, CryptoNode, Role, SamplingConfig, TimingSample};

use tscache_core::error::ConfigError;
use tscache_core::hierarchy::SharedLlc;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{SeedSharing, SetupKind};
use tscache_sim::machine::Machine;

/// The FIPS-197 appendix key: the victim secret of every campaign that
/// attacks a fixed key.
pub const VICTIM_KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// TE0 spans 32 cache lines of 8 entries each.
const TE0_LINES: usize = 32;

/// A plaintext block of 16 bytes, one `rng` draw per byte.
fn random_block(rng: &mut SplitMix64) -> [u8; 16] {
    core::array::from_fn(|_| (rng.next_u64() & 0xff) as u8)
}

/// Seeds processes `a` and `b` of a two-process machine per the
/// setup's sharing policy, drawing from `SplitMix64::new(mix64(stream))`.
fn seed_machine(machine: &mut Machine, setup: SetupKind, a: ProcessId, b: ProcessId, stream: u64) {
    let mut seed_rng = SplitMix64::new(mix64(stream));
    let first = Seed::random(&mut seed_rng);
    let (seed_a, seed_b) = match setup.seed_sharing() {
        SeedSharing::Irrelevant => (Seed::ZERO, Seed::ZERO),
        SeedSharing::Shared => (first, first),
        SeedSharing::PerProcess => (first, Seed::random(&mut seed_rng)),
    };
    machine.set_process_seed(a, seed_a);
    machine.set_process_seed(b, seed_b);
}

/// The machine's shared level, or the [`ConfigError`] a campaign
/// executor can quarantine when `campaign` runs without one.
fn shared_llc<'m>(
    machine: &'m mut Machine,
    campaign: &str,
) -> Result<&'m mut SharedLlc, ConfigError> {
    let missing =
        || ConfigError::incompatible(format!("{campaign} requires a shared-LLC platform"));
    machine.shared_llc_mut().ok_or_else(missing)
}

/// Rank of key byte `true_byte` among the 256 candidates by `votes`
/// (0 = strongest; ties share their average rank, so a dead channel
/// that ties every candidate ranks it 127.5).
fn key_rank(votes: &[u32], true_byte: u8) -> f64 {
    let true_score = votes[true_byte as usize];
    let stronger = votes.iter().filter(|&&s| s > true_score).count();
    let ties = votes.iter().filter(|&&s| s == true_score).count();
    stronger as f64 + (ties - 1) as f64 / 2.0
}
