//! In-order pipeline cost model.
//!
//! The paper's platform is a 5-stage in-order core (ARM920T-class,
//! §6.1.2). For the experiments reproduced here only the *memory-
//! induced* execution-time variability matters, so the pipeline is
//! modelled as per-instruction base costs plus stall cycles; cache
//! latencies come from the hierarchy's latency ladder.

/// Pipeline depth in stages: the cycles a context switch spends
/// draining it (the TSCache OS empties the pipeline when swapping
/// seeds, §5).
pub const DEPTH: u32 = 5;

/// Base cycles per ALU instruction.
pub const CPI: u32 = 1;

/// Extra cycles on a taken branch (refill bubble).
pub const BRANCH_PENALTY: u32 = 2;

/// Extra cycles between a load and a dependent use.
pub const LOAD_USE_STALL: u32 = 1;
