//! # tscache-fleet — crash-safe campaign fleet runner
//!
//! Large measurement campaigns (the paper's million-encryption
//! Bernstein sweeps, the 19-setup pWCET grids) take long enough that
//! crashes, kills, and flaky workers stop being hypothetical. This
//! crate turns a declarative [`SweepSpec`] into a sharded, resumable,
//! fault-isolated campaign whose merged output is **bit-identical** no
//! matter how it got there:
//!
//! * [`spec`] — the sweep lattice (`setup × depth × platform ×
//!   contention × attack`) and its cartesian expansion into shard
//!   jobs, each seeded `mix64(campaign_seed ^ shard)`;
//! * [`job`] — runs one shard against the repo's attack and
//!   measurement subsystems, purely from its seed;
//! * [`executor`] — panic-isolated workers (`catch_unwind` per shard),
//!   bounded retry with deterministic backoff accounting, quarantine,
//!   and the shard-order merge;
//! * [`checkpoint`] — append-only JSON-lines results, group-committed
//!   (fsync'd at each manifest checkpoint), plus an atomically-renamed
//!   manifest, so a `kill -9` at any byte loses at most one torn line
//!   and [`executor::resume`] replays only unfinished shards;
//! * [`fault`] — scripted fault injection (panic-at-shard, I/O error,
//!   torn write, hard kill) so the recovery paths are *tested*, not
//!   trusted;
//! * [`digest`] / [`jsonl`] — the FNV-1a fingerprints and the record
//!   encoding the bit-identity contract is stated in;
//! * [`report`] — plot-ready campaign exports (exceedance / histogram
//!   / ROC curves per scenario, a Chrome trace, and a `digests.txt`
//!   fingerprint), pure functions of the durable records.
//!
//! ```
//! use tscache_fleet::executor::{launch, ExecutorConfig, RunOutcome};
//! use tscache_fleet::fault::FaultPlan;
//! use tscache_fleet::spec::{AttackKind, SweepSpec};
//! use tscache_core::setup::SetupKind;
//!
//! let mut spec = SweepSpec::smoke();
//! spec.attacks = vec![AttackKind::PrimeProbe];
//! spec.setups = vec![SetupKind::TsCache];
//! spec.samples_per_shard = 20;
//! let dir = std::env::temp_dir().join(format!("fleet-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let cfg = ExecutorConfig { workers: 2, ..ExecutorConfig::default() };
//! let outcome = launch(&spec, &dir, &cfg, &FaultPlan::none()).unwrap();
//! match outcome {
//!     RunOutcome::Finished(result) => assert!(result.is_complete()),
//!     RunOutcome::Killed { .. } => unreachable!("no faults were injected"),
//! }
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod checkpoint;
pub mod executor;
pub mod fault;
pub mod job;
pub mod jsonl;
pub mod report;
pub mod spec;

pub use checkpoint::{campaign_digest, CampaignDir, Manifest};
pub use executor::{launch, resume, CampaignResult, ExecutorConfig, RunOutcome};
pub use fault::FaultPlan;
pub use job::{run_shard, run_shard_with, trace_shard, ShardOptions, ShardOutput};
pub use report::write_campaign_report;
pub use spec::{AttackKind, FleetError, PlatformKind, Scenario, ShardJob, SweepSpec};
/// The FNV-1a fingerprints, shared with the trace layer.
pub use tscache_telemetry::digest;
