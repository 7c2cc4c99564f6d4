//! # tscache-sim — execution-driven timing simulator
//!
//! A lightweight substitute for the paper's SoCLib-based cycle-accurate
//! ARM920T model: workloads drive a [`machine::Machine`] that charges
//! the fixed per-instruction pipeline costs plus exact cache hit/miss
//! latencies from the latency ladder of a
//! [`tscache_core::hierarchy::Hierarchy`]. All input-dependent
//! timing flows through the caches, which is the channel both MBPTA and
//! the side-channel attacks observe.
//!
//! * [`machine`] — the machine: loads/stores/fetches/ALU batches,
//!   cycle accounting, per-process seeds, context switches.
//! * [`pipeline`] — the 5-stage in-order core's costs, as constants.
//! * [`layout`] — linker-style memory maps (and re-linking, for the
//!   time-composability experiments).
//! * [`workload`] — the workload trait and the MBPTA measurement
//!   protocol.
//! * [`synthetic`] — array sweep, pointer chase, matrix multiply and a
//!   multipath control task.
//!
//! ## Example
//!
//! ```
//! use tscache_core::setup::SetupKind;
//! use tscache_sim::layout::Layout;
//! use tscache_sim::machine::Machine;
//! use tscache_sim::synthetic::MultipathTask;
//! use tscache_sim::workload::Workload;
//!
//! let mut layout = Layout::new(0x10_0000);
//! let mut task = MultipathTask::standard(&mut layout);
//! let mut machine = Machine::from_setup(SetupKind::TsCache, 7);
//! task.run(&mut machine);
//! assert!(machine.cycles() > 0);
//! ```

pub mod layout;
pub mod machine;
pub mod pipeline;
pub mod synthetic;
pub mod workload;

pub use layout::{Layout, Region};
pub use machine::{Machine, TraceOp};
pub use workload::{
    collect_execution_times, collect_execution_times_par, MeasurementProtocol, Workload,
};
