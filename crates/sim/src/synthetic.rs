//! Synthetic workloads for the pWCET and miss-rate experiments.
//!
//! These are the kind of kernels MBPTA case studies measure: array
//! sweeps (spatial locality), pointer chases (none), a blocked matrix
//! multiply (mixed), and a multipath control task whose paths touch
//! different data (execution-time variability under random layouts).

use crate::layout::{Layout, Region};
use crate::machine::{Machine, TraceOp};
use crate::pipeline::{BRANCH_PENALTY, LOAD_USE_STALL};
use crate::workload::Workload;
use tscache_core::addr::Addr;
use tscache_core::prng::{Prng, SplitMix64};

/// A workload's pre-assembled memory trace, keyed by the I-cache line
/// size it was built for: the fetch stream from
/// [`Machine::push_block_fetches`] depends on that geometry, so
/// replaying the same workload on a machine with a different line size
/// must rebuild instead of silently reusing a stale trace.
#[derive(Debug, Clone, Default)]
struct CachedTrace {
    ops: Vec<TraceOp>,
    /// Line size the ops were built for; 0 = not built yet.
    line_bytes: u32,
}

impl CachedTrace {
    /// Returns the cached ops, rebuilding through `build` when unbuilt
    /// or built for a different I-cache line size.
    fn for_machine(
        &mut self,
        machine: &Machine,
        build: impl FnOnce(&Machine, &mut Vec<TraceOp>),
    ) -> &[TraceOp] {
        let line_bytes = machine.hierarchy().l1i().geometry().line_bytes();
        if self.line_bytes != line_bytes {
            self.ops.clear();
            build(machine, &mut self.ops);
            self.line_bytes = line_bytes;
        }
        &self.ops
    }
}

/// Sequential array sweep: `iters` passes over a region with `stride`.
#[derive(Debug, Clone)]
pub struct ArraySweep {
    code: Region,
    data: Region,
    stride: u64,
    iters: u32,
    /// One pass's memory operations, replayed through the batch API.
    trace: CachedTrace,
}

impl ArraySweep {
    /// Creates a sweep over `data`, fetching loop code from `code`.
    pub fn new(code: Region, data: Region, stride: u64, iters: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        ArraySweep { code, data, stride, iters, trace: CachedTrace::default() }
    }

    /// The standard instance used by the benches: 24 KiB of data (1.5×
    /// the L1 way count), word stride, 4 passes.
    pub fn standard(layout: &mut Layout) -> Self {
        let code = layout.alloc("sweep.code", 256, 32);
        let data = layout.alloc("sweep.data", 24 * 1024, 4096);
        ArraySweep::new(code, data, 32, 4)
    }
}

impl Workload for ArraySweep {
    fn name(&self) -> &str {
        "array-sweep"
    }

    fn run(&mut self, machine: &mut Machine) {
        // Assemble one pass's trace once: the loop body's fetches and
        // the strided loads, in the exact order the scalar path issued
        // them; the instruction retire cost is order-independent and
        // charged per pass.
        let (code, data, stride) = (self.code, self.data, self.stride);
        let ops = self.trace.for_machine(machine, |machine, ops| {
            let mut off = 0;
            while off < data.size() {
                machine.push_block_fetches(ops, code.base(), 4);
                ops.push(TraceOp::read(data.at(off)));
                off += stride;
            }
        });
        let elems = self.data.size().div_ceil(self.stride) as u32;
        for _ in 0..self.iters {
            machine.run_trace(ops);
            machine.execute(4 * elems);
            machine.branch();
        }
    }
}

/// Pointer chase through a pseudo-random permutation of nodes.
#[derive(Debug, Clone)]
pub struct PointerChase {
    code: Region,
    data: Region,
    order: Vec<u64>,
    steps: u32,
    /// The full chase's memory operations, replayed batched.
    trace: CachedTrace,
}

impl PointerChase {
    /// Creates a chase of `steps` hops over `nodes` nodes laid out in
    /// `data` (one node per 32-byte line), visiting them in a
    /// `perm_seed`-shuffled order.
    pub fn new(code: Region, data: Region, nodes: u32, steps: u32, perm_seed: u64) -> Self {
        assert!((nodes as u64) * 32 <= data.size(), "region too small for {nodes} nodes");
        let mut order: Vec<u64> = (0..nodes as u64).collect();
        let mut rng = SplitMix64::new(perm_seed);
        rng.shuffle(&mut order);
        PointerChase { code, data, order, steps, trace: CachedTrace::default() }
    }

    /// The standard instance: 768 nodes (24 KiB — 1.5× the L1 capacity,
    /// so layout decides which nodes conflict), 2048 hops.
    pub fn standard(layout: &mut Layout) -> Self {
        let code = layout.alloc("chase.code", 128, 32);
        let data = layout.alloc("chase.data", 24 * 1024, 4096);
        PointerChase::new(code, data, 768, 2048, 0xc4a5e)
    }
}

impl Workload for PointerChase {
    fn name(&self) -> &str {
        "pointer-chase"
    }

    fn run(&mut self, machine: &mut Machine) {
        let n = self.order.len() as u32;
        let (code, data, steps, order) = (self.code, self.data, self.steps, &self.order);
        let ops = self.trace.for_machine(machine, |machine, ops| {
            for step in 0..steps {
                let node = order[(step % n) as usize];
                machine.push_block_fetches(ops, code.base(), 3);
                ops.push(TraceOp::read(data.at(node * 32)));
            }
        });
        machine.run_trace(ops);
        machine.execute(3 * self.steps);
        // The load-use stall of every dependent load.
        machine.charge_stall(self.steps as u64 * LOAD_USE_STALL as u64);
    }
}

/// Naive `n × n` matrix multiply over three word matrices.
#[derive(Debug, Clone)]
pub struct MatrixMult {
    code: Region,
    a: Region,
    b: Region,
    c: Region,
    n: u64,
    /// The full multiply's memory operations, replayed batched.
    trace: CachedTrace,
}

impl MatrixMult {
    /// Creates an `n × n` multiply; each matrix needs `4n²` bytes.
    pub fn new(code: Region, a: Region, b: Region, c: Region, n: u64) -> Self {
        for (name, r) in [("a", &a), ("b", &b), ("c", &c)] {
            assert!(4 * n * n <= r.size(), "matrix {name} does not fit");
        }
        MatrixMult { code, a, b, c, n, trace: CachedTrace::default() }
    }

    /// The standard instance: 40×40 words per matrix (6.4 KiB each, so
    /// the three matrices overcommit the 16 KiB L1 and the conflict set
    /// depends on the layout).
    pub fn standard(layout: &mut Layout) -> Self {
        let code = layout.alloc("mm.code", 512, 32);
        let a = layout.alloc("mm.a", 4 * 40 * 40, 4096);
        let b = layout.alloc("mm.b", 4 * 40 * 40, 4096);
        let c = layout.alloc("mm.c", 4 * 40 * 40, 4096);
        MatrixMult::new(code, a, b, c, 40)
    }
}

impl Workload for MatrixMult {
    fn name(&self) -> &str {
        "matrix-mult"
    }

    fn run(&mut self, machine: &mut Machine) {
        let n = self.n;
        // Assemble the whole multiply's memory stream once, in the
        // exact order the scalar path issued it: per (i, j) the loop
        // body's fetches, the alternating a/b loads of the k loop,
        // then the c store. Instruction retire, load-use stalls and
        // branch penalties are order-independent constants charged in
        // bulk below.
        let (code, a, b, c) = (self.code, self.a, self.b, self.c);
        let ops = self.trace.for_machine(machine, |machine, ops| {
            for i in 0..n {
                for j in 0..n {
                    machine.push_block_fetches(ops, code.base(), 6);
                    for k in 0..n {
                        ops.push(TraceOp::read(a.at(4 * (i * n + k))));
                        ops.push(TraceOp::read(b.at(4 * (k * n + j))));
                    }
                    ops.push(TraceOp::write(c.at(4 * (i * n + j))));
                }
            }
        });
        machine.run_trace(ops);
        // 6 block instructions per cell plus 2 per multiply-accumulate;
        // totals exceed u32 for large n, so retire in bounded chunks.
        let mut instrs = 6 * n * n + 2 * n * n * n;
        while instrs > 0 {
            let chunk = instrs.min(1 << 20) as u32;
            machine.execute(chunk);
            instrs -= chunk as u64;
        }
        machine.charge_stall((n * n * n) * LOAD_USE_STALL as u64);
        machine.charge_stall((n * n) * BRANCH_PENALTY as u64);
    }
}

/// A multipath control task: per job, a fixed input vector selects one
/// of several data-touching paths per step. Its execution-time
/// variability under random placement is what the pWCET experiment
/// (Fig. 1) analyses.
#[derive(Debug, Clone)]
pub struct MultipathTask {
    code: Region,
    data: Region,
    inputs: Vec<u8>,
    paths: u32,
    /// The job's memory operations (fixed, since the input vector is
    /// fixed), replayed batched.
    trace: CachedTrace,
}

impl MultipathTask {
    /// Creates a task with `steps` decisions over `paths` alternative
    /// paths; the decision vector is drawn once from `input_seed`
    /// (inputs stay fixed across runs — only the cache layout varies).
    pub fn new(code: Region, data: Region, steps: u32, paths: u32, input_seed: u64) -> Self {
        assert!((1..=16).contains(&paths), "1..=16 paths supported");
        assert!(data.size() >= paths as u64 * 4096, "need one page per path");
        let mut rng = SplitMix64::new(input_seed);
        let inputs = (0..steps).map(|_| (rng.below(paths)) as u8).collect();
        MultipathTask { code, data, inputs, paths, trace: CachedTrace::default() }
    }

    /// The standard instance: 256 steps over 6 paths (one 4 KiB page
    /// each — a 24 KiB working set exceeding one L1 way).
    pub fn standard(layout: &mut Layout) -> Self {
        let code = layout.alloc("mp.code", 1024, 32);
        let data = layout.alloc("mp.data", 6 * 4096, 4096);
        MultipathTask::new(code, data, 256, 6, 0x17bc7)
    }
}

impl Workload for MultipathTask {
    fn name(&self) -> &str {
        "multipath"
    }

    fn run(&mut self, machine: &mut Machine) {
        // The decision vector is fixed, so the whole job's memory
        // stream is too: assemble it once (each path has its own code
        // block and data page; each step touches a path-and-step-
        // dependent slice of the page) and replay it batched.
        let (code, data, inputs) = (self.code, self.data, &self.inputs);
        let ops = self.trace.for_machine(machine, |machine, ops| {
            for (step, &path) in inputs.iter().enumerate() {
                machine.push_block_fetches(ops, code.at((path as u64) * 128), 8);
                let page = data.at((path as u64) * 4096);
                let base = ((step as u64 * 5) % 32) * 96;
                for w in 0..12u64 {
                    ops.push(TraceOp::read(Addr::new(page.as_u64() + base + w * 32)));
                }
            }
        });
        machine.run_trace(ops);
        let steps = self.inputs.len() as u32;
        machine.execute((8 + 16) * steps);
        machine.charge_stall(steps as u64 * BRANCH_PENALTY as u64);
        let _ = self.paths;
    }
}

/// EEMBC-like FIR filter: convolves an `n`-sample signal with a
/// `taps`-coefficient kernel, writing one output word per sample. The
/// sliding signal window has strong spatial locality, the coefficient
/// array is hot, and the output stream is write-only — the classic
/// automotive-suite profile, and (via [`trace_ops`](FirFilter::trace_ops))
/// the standard *enemy workload* replayed by co-runner cores in
/// contended campaigns: its steady read+write mix keeps the shared bus
/// busy with both fills and dirty writebacks.
#[derive(Debug, Clone)]
pub struct FirFilter {
    code: Region,
    signal: Region,
    coeffs: Region,
    output: Region,
    samples: u32,
    taps: u32,
    /// The full convolution's memory operations, replayed batched.
    trace: CachedTrace,
}

impl FirFilter {
    /// Creates a FIR filter over `samples` input words and `taps`
    /// coefficients (the signal region needs `4·(samples + taps)`
    /// bytes so the final windows stay in bounds).
    pub fn new(
        code: Region,
        signal: Region,
        coeffs: Region,
        output: Region,
        samples: u32,
        taps: u32,
    ) -> Self {
        assert!(taps > 0, "FIR needs at least one tap");
        assert!(4 * (samples as u64 + taps as u64) <= signal.size(), "signal region too small");
        assert!(4 * taps as u64 <= coeffs.size(), "coefficient region too small");
        assert!(4 * samples as u64 <= output.size(), "output region too small");
        FirFilter { code, signal, coeffs, output, samples, taps, trace: CachedTrace::default() }
    }

    /// The standard instance: 4096 samples, 16 taps — a 16 KiB signal
    /// stream plus a 16 KiB output stream over the 16 KiB L1, so the
    /// convolution continuously evicts (dirty) lines: exactly the
    /// fill + writeback bus pressure an enemy core should generate.
    pub fn standard(layout: &mut Layout) -> Self {
        let code = layout.alloc("fir.code", 256, 32);
        let signal = layout.alloc("fir.signal", 4 * (4096 + 16), 4096);
        let coeffs = layout.alloc("fir.coeffs", 4 * 16, 32);
        let output = layout.alloc("fir.out", 4 * 4096, 4096);
        FirFilter::new(code, signal, coeffs, output, 4096, 16)
    }

    /// Appends the convolution's ops: per sample the loop body's
    /// fetches, the alternating signal/coefficient loads of the tap
    /// loop, then the output store.
    fn build(
        machine: &Machine,
        ops: &mut Vec<TraceOp>,
        (code, signal, coeffs, output): (Region, Region, Region, Region),
        samples: u32,
        taps: u32,
    ) {
        for i in 0..samples as u64 {
            machine.push_block_fetches(ops, code.base(), 6);
            for t in 0..taps as u64 {
                ops.push(TraceOp::read(signal.at(4 * (i + t))));
                ops.push(TraceOp::read(coeffs.at(4 * t)));
            }
            ops.push(TraceOp::write(output.at(4 * i)));
        }
    }

    /// The kernel's pre-assembled memory trace for `machine`'s
    /// geometry — the co-runner enemy-workload hook
    /// ([`CoRunner`](tscache_interference::CoRunner) replays it
    /// cyclically on its own hierarchy).
    pub fn trace_ops(&mut self, machine: &Machine) -> Vec<TraceOp> {
        let regions = (self.code, self.signal, self.coeffs, self.output);
        let (samples, taps) = (self.samples, self.taps);
        self.trace
            .for_machine(machine, |m, ops| Self::build(m, ops, regions, samples, taps))
            .to_vec()
    }
}

impl Workload for FirFilter {
    fn name(&self) -> &str {
        "fir-filter"
    }

    fn run(&mut self, machine: &mut Machine) {
        let regions = (self.code, self.signal, self.coeffs, self.output);
        let (samples, taps) = (self.samples, self.taps);
        let ops =
            self.trace.for_machine(machine, |m, ops| Self::build(m, ops, regions, samples, taps));
        machine.run_trace(ops);
        // 6 block instructions plus 2 per multiply-accumulate per
        // sample; each MAC's signal load feeds the multiplier.
        machine.execute((6 + 2 * self.taps) * self.samples);
        machine.charge_stall(self.samples as u64 * self.taps as u64 * LOAD_USE_STALL as u64);
        machine.charge_stall(self.samples as u64 * BRANCH_PENALTY as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{collect_execution_times, MeasurementProtocol};
    use tscache_core::setup::SetupKind;

    fn layout() -> Layout {
        Layout::new(0x10_0000)
    }

    #[test]
    fn sweep_runs_and_accounts_cycles() {
        let mut l = layout();
        let mut w = ArraySweep::standard(&mut l);
        let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
        w.run(&mut m);
        assert!(m.cycles() > 0);
        assert!(m.hierarchy().l1d().stats().accesses() > 0);
    }

    #[test]
    fn sweep_second_pass_is_warmer() {
        let mut l = layout();
        // One pass over 8 KiB fits L1 entirely.
        let code = l.alloc("c", 256, 32);
        let data = l.alloc("d", 8 * 1024, 4096);
        let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
        let mut first = ArraySweep::new(code, data, 32, 1);
        first.run(&mut m);
        let cold = m.cycles();
        m.reset_counters();
        first.run(&mut m);
        assert!(m.cycles() < cold, "warm {} !< cold {cold}", m.cycles());
    }

    #[test]
    fn chase_visits_every_node() {
        let mut l = layout();
        let code = l.alloc("c", 128, 32);
        let data = l.alloc("d", 4096, 4096);
        let mut w = PointerChase::new(code, data, 128, 128, 7);
        let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
        m.enable_trace();
        w.run(&mut m);
        let trace = m.take_trace();
        let reads: std::collections::BTreeSet<u64> = trace
            .iter()
            .filter(|e| e.kind == tscache_core::hierarchy::AccessKind::Read)
            .map(|e| e.addr.as_u64())
            .collect();
        assert_eq!(reads.len(), 128, "each node visited once per cycle of 128 steps");
    }

    #[test]
    fn matrix_mult_touches_three_matrices() {
        let mut l = layout();
        let mut w = MatrixMult::standard(&mut l);
        let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
        w.run(&mut m);
        let stats = m.hierarchy().l1d().stats();
        // n³ loads ×2 + n² stores.
        assert_eq!(stats.accesses(), 2 * 40 * 40 * 40 + 40 * 40);
    }

    #[test]
    fn multipath_time_varies_across_seeds_on_mbpta_cache() {
        let mut l = layout();
        let mut w = MultipathTask::standard(&mut l);
        let protocol = MeasurementProtocol { runs: 40, ..Default::default() };
        let times = collect_execution_times(SetupKind::Mbpta, &mut w, &protocol, None)
            .expect("valid protocol");
        let distinct: std::collections::BTreeSet<u64> = times.iter().copied().collect();
        assert!(distinct.len() > 10, "only {} distinct times", distinct.len());
    }

    #[test]
    fn multipath_time_constant_on_deterministic_cache() {
        let mut l = layout();
        let mut w = MultipathTask::standard(&mut l);
        let protocol = MeasurementProtocol { runs: 10, ..Default::default() };
        let times = collect_execution_times(SetupKind::Deterministic, &mut w, &protocol, None)
            .expect("valid protocol");
        assert!(times.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn cached_trace_rebuilds_on_different_line_size() {
        use tscache_core::cache::Cache;
        use tscache_core::geometry::CacheGeometry;
        use tscache_core::hierarchy::Hierarchy;
        use tscache_core::placement::PlacementKind;
        use tscache_core::replacement::ReplacementKind;

        let wide_lines = |label: &str, sets: u32| {
            Cache::new(
                label,
                CacheGeometry::new(sets, 4, 64).unwrap(),
                PlacementKind::Modulo,
                ReplacementKind::Lru,
                1,
            )
        };
        let mut l = layout();
        let mut w = ArraySweep::standard(&mut l);
        // First run on the standard 32 B-line machine, then on a
        // 64 B-line machine: the cached fetch stream must be rebuilt,
        // matching a fresh workload's accounting exactly.
        let mut narrow = Machine::from_setup(SetupKind::Deterministic, 1);
        w.run(&mut narrow);
        let mut wide = Machine::new(Hierarchy::from_parts(
            wide_lines("L1I", 64),
            wide_lines("L1D", 64),
            vec![wide_lines("L2", 1024)],
        ));
        w.run(&mut wide);
        let mut l2 = layout();
        let mut fresh = ArraySweep::standard(&mut l2);
        let mut wide_fresh = Machine::new(Hierarchy::from_parts(
            wide_lines("L1I", 64),
            wide_lines("L1D", 64),
            vec![wide_lines("L2", 1024)],
        ));
        fresh.run(&mut wide_fresh);
        assert_eq!(wide.cycles(), wide_fresh.cycles(), "stale trace replayed");
        assert_eq!(
            wide.hierarchy().l1i().stats(),
            wide_fresh.hierarchy().l1i().stats(),
            "fetch stream not rebuilt for 64 B lines"
        );
    }

    #[test]
    fn workload_names() {
        let mut l = layout();
        assert_eq!(ArraySweep::standard(&mut l).name(), "array-sweep");
        assert_eq!(PointerChase::standard(&mut l).name(), "pointer-chase");
        assert_eq!(MatrixMult::standard(&mut l).name(), "matrix-mult");
        assert_eq!(MultipathTask::standard(&mut l).name(), "multipath");
        assert_eq!(FirFilter::standard(&mut l).name(), "fir-filter");
    }

    #[test]
    fn fir_touches_signal_coeffs_and_output() {
        let mut l = layout();
        let mut w = FirFilter::standard(&mut l);
        let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
        w.run(&mut m);
        let stats = m.hierarchy().l1d().stats();
        // 2 loads per MAC + 1 store per sample.
        assert_eq!(stats.accesses(), 2 * 4096 * 16 + 4096);
        assert!(m.cycles() > 0);
    }

    #[test]
    fn fir_trace_ops_matches_workload_accounting() {
        let mut l = layout();
        let mut w = FirFilter::standard(&mut l);
        let m = Machine::from_setup(SetupKind::Deterministic, 1);
        let ops = w.trace_ops(&m);
        let mut replay = Machine::from_setup(SetupKind::Deterministic, 1);
        replay.run_trace(&ops);
        let mut l2 = layout();
        let mut fresh = FirFilter::standard(&mut l2);
        let mut direct = Machine::from_setup(SetupKind::Deterministic, 1);
        fresh.run(&mut direct);
        assert_eq!(
            replay.hierarchy().l1d().stats(),
            direct.hierarchy().l1d().stats(),
            "trace replay and workload run must issue identical memory traffic"
        );
    }

    #[test]
    fn fir_generates_writebacks_under_writeback_policy() {
        use tscache_core::cache::WritePolicy;
        let mut l = layout();
        let mut w = FirFilter::standard(&mut l);
        let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
        m.hierarchy_mut().set_write_policy(WritePolicy::WriteBack);
        w.run(&mut m);
        w.run(&mut m);
        assert!(
            m.hierarchy().l1d().stats().writebacks() > 0,
            "output stream never wrote back a dirty line"
        );
    }
}
