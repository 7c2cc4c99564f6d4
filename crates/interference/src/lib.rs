//! # tscache-interference — multi-core contention modelling
//!
//! The shared-resource interference layer of the reproduction: in a
//! high-performance multicore, time-predictability is threatened by
//! *contention* on shared hardware as much as by cache layout. This
//! crate models the three mechanisms the paper's setting cares about:
//!
//! * a **shared memory bus** ([`bus`]) serializing every off-chip
//!   transaction first come first served, one 8-cycle service slot
//!   each. The contention model has no setting ([`SystemConfig`] has
//!   no field): a machine contends once a co-runner is attached;
//! * **MSHR files** ([`mshr`]) coalescing a core's repeat misses to a
//!   line whose fill is still in flight, per cache level;
//! * **multi-core execution** ([`multicore`]): one event-merge engine
//!   running finite cores ([`CoreRun`]) and cyclic enemy cores
//!   ([`CoRunner`]) on private
//!   [`Hierarchy`](tscache_core::hierarchy::Hierarchy) instances,
//!   optionally in front of one shared last level. Every op runs one
//!   private walk and one resolve against memory or the shared level,
//!   and finite cores walk op by op at merge time. Only co-runners
//!   pre-execute: [`execute`] walks a co-runner whose private outcomes
//!   do not depend on the interleaving one chunk ahead of the merge.
//!   The chunks stay because they are observable: a flush drops the
//!   walked ops the merge never consumed, and their replacement-RNG
//!   draws stay spent. [`execute_scalar`] walks co-runners op by op
//!   and stays as their reference; a differential suite pins the two
//!   bit-identical. [`solo_op`] runs one op of core 0 through the
//!   same walk and MSI steps without the bus: the simulator machine's
//!   scalar op.
//!
//! With private hierarchies, contention is timing-only by
//! construction: per-core cache contents, statistics and RNG streams
//! are exactly those of a solo run, so every existing
//! differential/property suite keeps its meaning and a contended pWCET
//! curve can never undercut the solo curve of the same workload.
//!
//! With a **shared last level**
//! ([`SharedLlc`](tscache_core::hierarchy::SharedLlc)), contention
//! additionally reaches cache *state*: cores evict each other's
//! shared-level lines — the cross-core Prime+Probe channel of the §7
//! partitioning ablation — unless per-core way partitions on the
//! shared level restore isolation. Coherent ranges on the shared level
//! add MSI invalidations, the Flush+Reload channel. Either way both
//! modes stay deterministic and bit-identical to each other.

pub mod bus;
pub mod mshr;
pub mod multicore;

pub use bus::BusReport;
pub use mshr::MshrFile;
pub use multicore::{
    execute, execute_scalar, solo_op, CoRunner, ContentionConfig, CoreReport, CoreRun,
    EngineScratch, InterferenceOutcome, SystemConfig,
};
