//! # tscache-core — cache models for time-predictable, secure caches
//!
//! Core cache machinery for the reproduction of *"Cache Side-Channel
//! Attacks and Time-Predictability in High-Performance Critical
//! Real-Time Systems"* (Trilla, Hernandez, Abella, Cazorla — DAC 2018).
//!
//! The crate provides:
//!
//! * set-associative [`cache::Cache`]s with pluggable
//!   [`placement`] (modulo, XOR-index, RPCache, HashRP, Random Modulo)
//!   and [`replacement`] (LRU, random) policies;
//! * per-process placement [`seed`]s — the mechanism TSCache uses to
//!   decouple attacker and victim cache layouts;
//! * a three-level [`hierarchy::Hierarchy`] matching the paper's
//!   ARM920T-class platform;
//! * the paper's four experimental [`setup`]s (deterministic, RPCache,
//!   MBPTACache, TSCache);
//! * empirical [`properties`] checkers for the `mbpta-p1/p2/p3` and
//!   `sca-p1` properties.
//!
//! ## Quick start
//!
//! ```
//! use tscache_core::addr::Addr;
//! use tscache_core::hierarchy::AccessKind;
//! use tscache_core::seed::{ProcessId, Seed};
//! use tscache_core::setup::SetupKind;
//!
//! // Build the paper's TSCache platform and time one access.
//! let mut h = SetupKind::TsCache.build(0xfeed);
//! let pid = ProcessId::new(1);
//! h.set_process_seed(pid, Seed::new(2024));
//! let cycles = h.access(pid, AccessKind::Read, Addr::new(0x4000));
//! assert_eq!(cycles, 91); // cold: L1 miss + L2 miss + memory
//! ```

pub mod addr;
pub mod cache;
pub mod defense;
pub mod error;
pub mod geometry;
pub mod hierarchy;
pub mod parallel;
pub mod placement;
pub mod pmu;
pub mod prng;
pub mod properties;
pub mod replacement;
pub mod seed;
pub mod setup;
pub mod stats;

pub use addr::{Addr, LineAddr};
pub use cache::{AccessOutcome, BatchOutcome, Cache, EvictedLine, WritePolicy, Writeback};
pub use defense::DefenseKind;
pub use error::ConfigError;
pub use geometry::CacheGeometry;
pub use hierarchy::{AccessKind, Hierarchy, OpTiming, TraceOp};
pub use placement::{MbptaClass, PlacementEngine, PlacementKind};
pub use pmu::{PmuCounters, PmuDelta, PmuSampler, PmuSnapshot};
pub use replacement::{ReplacementEngine, ReplacementKind};
pub use seed::{ProcessId, Seed, SeedTable};
pub use setup::{HierarchyDepth, SeedSharing, SetupKind};
pub use stats::CacheStats;
