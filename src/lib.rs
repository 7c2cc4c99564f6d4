//! # tscache — time-predictable secure caches
//!
//! A full reproduction of *"Cache Side-Channel Attacks and
//! Time-Predictability in High-Performance Critical Real-Time Systems"*
//! (Trilla, Hernandez, Abella, Cazorla — DAC 2018) as a Rust workspace.
//!
//! This umbrella crate re-exports the subsystem crates:
//!
//! * [`core`] — cache models: randomized placement
//!   (HashRP, Random Modulo, RPCache, XOR-index), replacement policies,
//!   per-process seeds, the ARM920T-class hierarchy and the paper's
//!   four experimental setups.
//! * [`interference`] — multi-core contention: the shared
//!   first-come first-served memory bus, MSHR files, and the
//!   contended multi-core execution engines.
//! * [`sim`] — the execution-driven timing simulator.
//! * [`aes`] — AES-128 (reference + T-tables + simulator-
//!   instrumented).
//! * [`mbpta`] — probabilistic WCET analysis: i.i.d.
//!   tests, EVT, pWCET curves.
//! * [`sca`] — Bernstein's attack, Prime+Probe,
//!   Evict+Time.
//! * [`rtos`] — AUTOSAR-style scheduling and the TSCache
//!   seed-management OS support.
//! * [`fleet`] — the crash-safe campaign runner: declarative
//!   sweep specs sharded into deterministic jobs, panic-isolated
//!   workers, checkpoint/resume with bit-identical merged output, and
//!   a fault-injection harness.
//!
//! ## The paper in one example
//!
//! ```
//! use tscache::core::setup::{SeedSharing, SetupKind};
//!
//! // MBPTACache and TSCache are the same hardware…
//! let mbpta = SetupKind::Mbpta.build(1);
//! let ts = SetupKind::TsCache.build(1);
//! assert_eq!(mbpta.l1d().placement_name(), ts.l1d().placement_name());
//! // …the security comes from the OS seed policy:
//! assert_eq!(SetupKind::Mbpta.seed_sharing(), SeedSharing::Shared);
//! assert_eq!(SetupKind::TsCache.seed_sharing(), SeedSharing::PerProcess);
//! ```

pub use tscache_aes as aes;
pub use tscache_core as core;
pub use tscache_fleet as fleet;
pub use tscache_interference as interference;
pub use tscache_mbpta as mbpta;
pub use tscache_rtos as rtos;
pub use tscache_sca as sca;
pub use tscache_sim as sim;
