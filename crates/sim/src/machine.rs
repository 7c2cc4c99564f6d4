//! The execution-driven machine: a cache hierarchy plus a pipeline
//! cost model and a cycle counter.
//!
//! Workloads (the instrumented AES cipher, the synthetic kernels) issue
//! loads, stores, instruction fetches and ALU batches; the machine
//! accumulates their cycle cost. This reproduces the timing channel of
//! the paper's cycle-accurate simulator: *all* input-dependent timing
//! variability flows through the cache hierarchy.

use crate::pipeline::PipelineModel;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use tscache_core::addr::Addr;
use tscache_core::cache::WritePolicy;
use tscache_core::defense::DefenseKind;
use tscache_core::hierarchy::{AccessKind, Hierarchy, SharedLlc};
use tscache_core::prng::mix64;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::{
    execute, solo_op, CoRunner, ContentionConfig, CoreRun, EngineScratch, SystemConfig,
};
use tscache_telemetry::{Event, RecorderHandle};

/// One memory operation of a pre-built trace, consumed by
/// [`Machine::run_trace`] (defined in `tscache_core::hierarchy`, whose
/// walk executes it).
pub use tscache_core::hierarchy::TraceOp;

/// Standard enemy traces by (L1I line bytes, address offset), each
/// about 2.5 MB (see [`Machine::attach_standard_enemies`]).
type EnemyTraces = BTreeMap<(u32, u64), Arc<[TraceOp]>>;

/// An execution-driven machine.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::Addr;
/// use tscache_core::seed::{ProcessId, Seed};
/// use tscache_core::setup::SetupKind;
/// use tscache_sim::machine::Machine;
///
/// let mut m = Machine::from_setup(SetupKind::TsCache, 42);
/// let pid = ProcessId::new(1);
/// m.set_process_seed(pid, Seed::new(7));
/// m.set_process(pid);
/// m.load(Addr::new(0x8000));
/// m.execute(10);
/// assert!(m.cycles() > 10);
/// ```
#[derive(Debug)]
pub struct Machine {
    hierarchy: Hierarchy,
    pipeline: PipelineModel,
    pid: ProcessId,
    cycles: u64,
    /// The ops issued since [`enable_trace`](Self::enable_trace), when
    /// tracing is on.
    trace: Option<Vec<TraceOp>>,
    instret: u64,
    /// Enemy cores contending for the shared bus (empty = solo).
    co_runners: Vec<CoRunner>,
    /// Bus/MSHR model; armed by [`set_interference`](Self::set_interference).
    interference: Option<SystemConfig>,
    /// Lifetime cycles lost to bus queuing + MSHR stalls (survives
    /// `reset_counters`; see [`contention_cycles`](Self::contention_cycles)).
    contention_cycles: u64,
    /// The platform's shared last-level cache, when this machine runs
    /// on a shared-LLC multicore (the per-core `hierarchy` then holds
    /// only the private levels).
    shared_llc: Option<SharedLlc>,
    /// Declared coherent regions `(start, size)`, kept so co-runner
    /// cores attached later inherit them.
    coherent_regions: Vec<(Addr, u64)>,
    /// Reused buffers of the multicore engine (the trace's pre-executed
    /// private walk, the shared-LLC scalar ops' writebacks).
    engine_scratch: EngineScratch,
    /// Optional telemetry recorder; observer-only — outcomes are
    /// bit-identical with and without it (see
    /// [`set_recorder`](Self::set_recorder)).
    recorder: Option<RecorderHandle>,
}

impl Machine {
    /// Creates a machine over an explicit hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        Machine {
            hierarchy,
            pipeline: PipelineModel::default(),
            pid: ProcessId::new(1),
            cycles: 0,
            trace: None,
            instret: 0,
            co_runners: Vec::new(),
            interference: None,
            contention_cycles: 0,
            shared_llc: None,
            coherent_regions: Vec::new(),
            engine_scratch: EngineScratch::default(),
            recorder: None,
        }
    }

    /// Attaches a telemetry recorder: [`run_trace`](Self::run_trace)
    /// then emits per-level hit/miss walks, writebacks, bus grants,
    /// MSHR events and per-op spans into it. The recorder is strictly
    /// an observer — cache state, cycle totals and statistics are
    /// bit-identical with and without one attached (the contended and
    /// shared engines thread it through as a side channel; a solo
    /// machine emits the events from the same per-op walk it runs
    /// without one).
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = Some(recorder);
    }

    /// The attached telemetry recorder, if any.
    pub fn recorder(&self) -> Option<&RecorderHandle> {
        self.recorder.as_ref()
    }

    /// Creates a machine on a shared-LLC multicore platform: the
    /// per-core private hierarchy ([`SetupKind::build_private`]) in
    /// front of the platform's shared last level
    /// ([`SetupKind::build_shared_llc`]), with the bus/MSHR model
    /// armed. Co-runner cores attach via
    /// [`attach_standard_enemies`](Self::attach_standard_enemies) or
    /// [`add_co_runner`](Self::add_co_runner) and then contend for the
    /// shared cache *state*, not just the bus.
    pub fn from_setup_shared(
        setup: SetupKind,
        depth: HierarchyDepth,
        system: SystemConfig,
        rng_seed: u64,
    ) -> Self {
        let mut machine = Machine::new(setup.build_private(depth, rng_seed));
        machine.shared_llc = Some(setup.build_shared_llc(depth, rng_seed));
        machine.set_interference(system);
        machine
    }

    /// Creates a machine for one of the paper's four setups (the
    /// classic two-level hierarchy).
    pub fn from_setup(setup: SetupKind, rng_seed: u64) -> Self {
        Machine::new(setup.build(rng_seed))
    }

    /// Creates a machine for a setup at an explicit hierarchy depth
    /// (e.g. the three-level presets with an L3).
    pub fn from_setup_depth(setup: SetupKind, depth: HierarchyDepth, rng_seed: u64) -> Self {
        Machine::new(setup.build_depth(depth, rng_seed))
    }

    /// The pipeline cost model.
    pub fn pipeline(&self) -> PipelineModel {
        self.pipeline
    }

    /// Switches the executing process (does not drain the pipeline; use
    /// [`context_switch`](Machine::context_switch) for the full cost).
    pub fn set_process(&mut self, pid: ProcessId) {
        self.pid = pid;
    }

    /// The currently executing process.
    pub fn process(&self) -> ProcessId {
        self.pid
    }

    /// Performs an OS context switch to `pid`: drains the pipeline
    /// (the seed-swap cost of §5) and charges `extra_cycles` of OS
    /// bookkeeping.
    pub fn context_switch(&mut self, pid: ProcessId, extra_cycles: u32) {
        self.cycles += self.pipeline.drain_cycles() as u64 + extra_cycles as u64;
        self.pid = pid;
    }

    /// Sets the placement seed of `pid` across the hierarchy (and the
    /// shared last level, when this machine runs on one).
    pub fn set_process_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.hierarchy.set_process_seed(pid, seed);
        if let Some(llc) = self.shared_llc.as_mut() {
            llc.set_process_seed(pid, seed);
        }
    }

    /// Arms a defense-zoo policy across this machine: TTL/normalize
    /// knobs on every private level and — when the machine runs on a
    /// shared LLC — the seed-rotation schedule there. Attached enemy
    /// co-runners keep their undefended private hierarchies (the
    /// defense protects the platform under test, not the adversary's
    /// core), matching how the paper evaluates per-core mitigations.
    pub fn apply_defense(&mut self, defense: DefenseKind) {
        self.hierarchy.apply_defense(defense);
        if let Some(llc) = self.shared_llc.as_mut() {
            llc.apply_defense(defense);
        }
    }

    /// The shared last level, when this machine runs on one.
    pub fn shared_llc(&self) -> Option<&SharedLlc> {
        self.shared_llc.as_ref()
    }

    /// Mutably borrows the shared last level (partition and seed
    /// management, attacker probes).
    pub fn shared_llc_mut(&mut self) -> Option<&mut SharedLlc> {
        self.shared_llc.as_mut()
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Retired instruction count (ALU batches + fetched instructions).
    pub fn instructions(&self) -> u64 {
        self.instret
    }

    /// Resets the cycle and instruction counters (cache state remains).
    pub fn reset_counters(&mut self) {
        self.cycles = 0;
        self.instret = 0;
    }

    /// Flushes all caches — the private hierarchy, every co-runner
    /// enemy's private hierarchy, and, on a shared-LLC platform, the
    /// shared level (hyperperiod boundary in the TSCache OS; the OS
    /// owns the whole *node*, enemy cores and shared level included —
    /// leaving enemy caches warm would carry state, and stale copies
    /// of invalidated shared lines, across the flush boundary).
    pub fn flush_caches(&mut self) {
        self.hierarchy.flush_all();
        for co in &mut self.co_runners {
            co.flush();
        }
        if let Some(llc) = self.shared_llc.as_mut() {
            llc.flush();
        }
    }

    /// Declares `size` bytes at `start` as a *coherent region*: a
    /// shared read-mostly segment (e.g. an AES T-table every core
    /// maps) kept coherent by the platform's MSI-style invalidation
    /// protocol. Wired into the private hierarchy, every attached
    /// co-runner (current and future), and the shared level, which
    /// arms its directory. Only meaningful on shared-LLC machines;
    /// on a private-hierarchy machine the region only tags line state.
    ///
    /// Declare coherent regions *before* issuing traffic to them:
    /// copies cached before the declaration are not directory-tracked
    /// (they drain only on flush/eviction, like any untracked line).
    /// Already-attached co-runners are re-classified — their buffered
    /// lookahead is discarded so the next segment re-evaluates whether
    /// their traces are still pre-batchable under the new ranges.
    pub fn add_coherent_range(&mut self, start: Addr, size: u64) {
        self.coherent_regions.push((start, size));
        self.hierarchy.add_coherent_range(start, size);
        for co in &mut self.co_runners {
            co.hierarchy_mut().add_coherent_range(start, size);
            co.reclassify();
        }
        if let Some(llc) = self.shared_llc.as_mut() {
            llc.add_coherent_range(start, size);
        }
    }

    /// Borrows the hierarchy (for statistics inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Mutably borrows the hierarchy (for seed management and flushes).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// Arms the multi-core interference model: once at least one
    /// co-runner is attached, every [`run_trace`](Self::run_trace)
    /// segment contends with the enemies for the shared bus (and pays
    /// MSHR structural stalls). The scalar convenience ops
    /// ([`load`](Self::load), [`store`](Self::store),
    /// [`run_block`](Self::run_block)) stay uncontended — they model
    /// background activity, not the measured trace replay.
    pub fn set_interference(&mut self, cfg: SystemConfig) {
        self.interference = Some(cfg);
    }

    /// Attaches an enemy core. Its cache state and trace position
    /// persist across segments (steady-state interference). The
    /// machine's declared coherent regions are mirrored into the
    /// enemy's hierarchy so its fills carry line state too.
    pub fn add_co_runner(&mut self, mut co: CoRunner) {
        for &(start, size) in &self.coherent_regions {
            co.hierarchy_mut().add_coherent_range(start, size);
        }
        self.co_runners.push(co);
    }

    /// Attaches `con.co_runners` enemy cores, each a fresh hierarchy
    /// of `setup` at `depth` cyclically replaying the FIR enemy kernel
    /// (`crate::synthetic::FirFilter`), arms the bus/MSHR model, and —
    /// when `con.write_back` is set — switches every core (including
    /// this machine) to write-back caches so dirty evictions join the
    /// bus traffic. Everything derives from `seed`, so campaigns stay
    /// reproducible.
    ///
    /// The enemy trace depends only on this machine's L1I line size
    /// and the enemy core's address offset, so it is built once per
    /// process and per such key, on first use, and shared read-only by
    /// every later machine: attaching enemies copies no trace.
    pub fn attach_standard_enemies(
        &mut self,
        setup: SetupKind,
        depth: HierarchyDepth,
        con: &ContentionConfig,
        seed: u64,
    ) {
        let shared = self.shared_llc.is_some();
        if con.write_back {
            self.hierarchy.set_write_policy(WritePolicy::WriteBack);
            if let Some(llc) = self.shared_llc.as_mut() {
                llc.set_write_policy(WritePolicy::WriteBack);
            }
        }
        self.set_interference(con.system);
        for k in 0..con.co_runners {
            let mut enemy = if shared {
                setup.build_private(depth, mix64(seed ^ 0xc0de ^ k as u64))
            } else {
                setup.build_depth(depth, mix64(seed ^ 0xc0de ^ k as u64))
            };
            if con.write_back {
                enemy.set_write_policy(WritePolicy::WriteBack);
            }
            let pid = ProcessId::new(200 + k as u16);
            let enemy_seed = Seed::new(mix64(seed ^ 0xe11e0 ^ (k as u64) << 32));
            enemy.set_process_seed(pid, enemy_seed);
            // On a shared platform the enemies touch per-core disjoint
            // address spaces (the measured node's objects live below
            // 16 MiB): co-runner interference flows through shared-LLC
            // *contention*, not accidental data sharing, and the shared
            // level sees the enemy under its own pid and seed.
            let offset = if shared { (1 + k as u64) << 24 } else { 0 };
            if let Some(llc) = self.shared_llc.as_mut() {
                llc.set_process_seed(pid, enemy_seed);
            }
            let ops = self.enemy_trace(offset);
            self.add_co_runner(CoRunner::new(enemy, pid, ops));
        }
    }

    /// The standard enemy trace for this machine's L1I line size,
    /// shifted by `offset` bytes, from the process-wide memo. A missing
    /// key is built outside the lock, so a panicking build leaves the
    /// memo usable; when two threads build the same key at once, the
    /// first insert wins and both share it.
    fn enemy_trace(&self, offset: u64) -> Arc<[TraceOp]> {
        static TRACES: Mutex<EnemyTraces> = Mutex::new(BTreeMap::new());
        let key = (self.hierarchy.l1i().geometry().line_bytes(), offset);
        let traces = || TRACES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ops) = traces().get(&key) {
            return Arc::clone(ops);
        }
        let ops = self.build_enemy_trace(offset);
        Arc::clone(traces().entry(key).or_insert(ops))
    }

    /// Builds the enemy trace: the FIR kernel with a 512 KiB cyclic
    /// read stream interleaved (one read per eight compute ops), every
    /// address shifted by `offset`. The buffer exceeds every cache
    /// level, so the enemy sustains real memory traffic even once the
    /// FIR working set is L2-resident — the DMA-like bus pressure a
    /// compute-only kernel lacks.
    fn build_enemy_trace(&self, offset: u64) -> Arc<[TraceOp]> {
        let mut layout = crate::layout::Layout::new(0x10_0000);
        let fir_ops = crate::synthetic::FirFilter::standard(&mut layout).trace_ops(self);
        let shift = |kind, addr: u64| TraceOp { kind, addr: Addr::new(addr + offset) };
        let mut ops = Vec::with_capacity(fir_ops.len() + fir_ops.len() / 8 + 1);
        let mut stream = 0u64;
        for (i, op) in fir_ops.iter().enumerate() {
            ops.push(shift(op.kind, op.addr.as_u64()));
            if i % 8 == 7 {
                ops.push(shift(AccessKind::Read, 0x80_0000 + (stream % 16384) * 32));
                stream += 1;
            }
        }
        ops.into()
    }

    /// The attached enemy cores.
    pub fn co_runners(&self) -> &[CoRunner] {
        &self.co_runners
    }

    /// Mutably borrows the enemy cores (seed management at epoch
    /// boundaries).
    pub fn co_runners_mut(&mut self) -> &mut [CoRunner] {
        &mut self.co_runners
    }

    /// Whether trace replay currently contends with enemy cores.
    pub fn is_contended(&self) -> bool {
        self.interference.is_some() && !self.co_runners.is_empty()
    }

    /// Cycles this machine has lost to shared-bus queuing and MSHR
    /// structural stalls over its whole lifetime. Unlike
    /// [`cycles`](Self::cycles) this counter is *not* cleared by
    /// [`reset_counters`](Self::reset_counters), so campaign layers
    /// that reset per job can still difference it across epochs (the
    /// RTOS report does exactly that).
    pub fn contention_cycles(&self) -> u64 {
        self.contention_cycles
    }

    /// Starts recording the memory ops this machine issues: scalar
    /// loads, stores, fetches and flushes, and every op of each
    /// [`run_trace`](Self::run_trace) segment, in issue order. Tracing
    /// is observer-only: it changes no path, cycle count or cache
    /// state. Per-op costs come from the telemetry recorder
    /// ([`set_recorder`](Self::set_recorder)).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the ops captured so far.
    pub fn take_trace(&mut self) -> Vec<TraceOp> {
        self.trace.take().unwrap_or_default()
    }

    /// Issues one scalar op and charges its cost. On a shared-LLC
    /// machine it runs the multicore engine's per-op step
    /// ([`solo_op`]): the private walk, the shared level and, on a
    /// coherent platform, the MSI actions against the co-runners. Like
    /// the other scalar convenience ops it models solo background
    /// activity and never arbitrates for the bus.
    #[inline]
    fn issue(&mut self, kind: AccessKind, addr: Addr) -> u32 {
        let op = TraceOp { kind, addr };
        if let Some(trace) = &mut self.trace {
            trace.push(op);
        }
        let cost = match self.shared_llc.as_mut() {
            Some(llc) => solo_op(
                &mut self.hierarchy,
                self.pid,
                op,
                &mut self.co_runners,
                llc,
                &mut self.engine_scratch,
            ),
            None => self.hierarchy.access(self.pid, kind, addr),
        };
        self.cycles += cost as u64;
        cost
    }

    /// Issues a line flush (the Flush+Reload attacker primitive, the
    /// scalar form of [`TraceOp::flush`]); returns its cycle cost. See
    /// [`AccessKind::Flush`] for the semantics.
    pub fn flush_line(&mut self, addr: Addr) -> u32 {
        self.issue(AccessKind::Flush, addr)
    }

    /// Issues a data load; returns its cycle cost.
    #[inline]
    pub fn load(&mut self, addr: Addr) -> u32 {
        self.issue(AccessKind::Read, addr)
    }

    /// Issues a data load whose value feeds the next instruction,
    /// adding the load-use stall.
    #[inline]
    pub fn load_use(&mut self, addr: Addr) -> u32 {
        let cost = self.load(addr) + self.pipeline.load_use_stall;
        self.cycles += self.pipeline.load_use_stall as u64;
        cost
    }

    /// Issues a data store; returns its cycle cost.
    #[inline]
    pub fn store(&mut self, addr: Addr) -> u32 {
        self.issue(AccessKind::Write, addr)
    }

    /// Retires `n` ALU instructions (no memory traffic).
    #[inline]
    pub fn execute(&mut self, n: u32) {
        self.cycles += (n * self.pipeline.cpi) as u64;
        self.instret += n as u64;
    }

    /// Takes a branch (refill penalty).
    #[inline]
    pub fn branch(&mut self) {
        self.cycles += self.pipeline.branch_penalty as u64;
    }

    /// Charges `cycles` of raw stall time (no instructions retired, no
    /// memory traffic) — the batch-port equivalent of the load-use
    /// stall that [`load_use`](Machine::load_use) folds in.
    #[inline]
    pub fn charge_stall(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Executes a pre-built memory trace and returns the cycles it
    /// cost; a solo machine walks it op by op through
    /// [`Hierarchy::access_batch_cycles`].
    ///
    /// This is the batch interface of the simulator hot path: workloads
    /// that can precompute their access stream (the simulated AES
    /// cipher, the synthetic kernels, the RTOS runnables) assemble a
    /// `Vec<TraceOp>` once and replay it, with exactly the same cache
    /// state and cycle total as issuing the same operations through
    /// [`load`](Machine::load) / [`store`](Machine::store) / per-line
    /// fetches.
    ///
    /// On a shared-LLC or contended machine the trace runs through the
    /// multicore segment engine instead: cache state still matches the
    /// scalar ops exactly (both run the engine's per-op walk and MSI
    /// steps), but trace replay additionally arbitrates for the memory
    /// bus (the scalar convenience ops never do). With no co-runners
    /// and at most one bus transaction per op (write-through) the bus
    /// never queues and the cycle totals agree too; a write-back op
    /// emitting a read *and* writebacks pays the bus occupancy between
    /// its own back-to-back transactions, so solo write-back replay can
    /// exceed the scalar-op total by those service cycles (booked in
    /// [`contention_cycles`](Self::contention_cycles)).
    ///
    /// [`enable_trace`](Self::enable_trace) only records the ops; it
    /// never changes which path runs.
    ///
    /// # Examples
    ///
    /// ```
    /// use tscache_core::addr::Addr;
    /// use tscache_core::setup::SetupKind;
    /// use tscache_sim::machine::{Machine, TraceOp};
    ///
    /// let mut m = Machine::from_setup(SetupKind::Deterministic, 1);
    /// let ops = [TraceOp::read(Addr::new(0x1000)), TraceOp::read(Addr::new(0x1000))];
    /// let cycles = m.run_trace(&ops);
    /// assert_eq!(cycles, 91 + 1); // cold miss then warm hit
    /// ```
    pub fn run_trace(&mut self, ops: &[TraceOp]) -> u64 {
        if let Some(trace) = &mut self.trace {
            trace.extend_from_slice(ops);
        }
        if self.shared_llc.is_some() || self.is_contended() {
            // The trace is the one finite core of a multicore segment
            // against the enemy cores. On a shared-LLC platform every
            // shared-level fill/writeback resolves in merge order
            // against the one shared cache; with no co-runners that
            // degenerates to the solo shared walk — identical cache
            // state; the only residual cost is bus occupancy between
            // one op's own back-to-back transactions (write-back only,
            // see the doc above).
            let out = execute(
                &mut [CoreRun { hierarchy: &mut self.hierarchy, pid: self.pid, ops }],
                &mut self.co_runners,
                self.shared_llc.as_mut(),
                &self.interference.unwrap_or_default(),
                self.recorder.as_ref(),
                &mut self.engine_scratch,
            );
            let primary = out.cores[0];
            self.cycles += primary.cycles;
            self.contention_cycles += primary.bus_wait + primary.mshr_stall_cycles;
            return primary.cycles;
        }
        if let Some(rec) = self.recorder.clone() {
            // Solo private walk, recorded: the same per-op walk as the
            // untimed path, so totals and cache state cannot diverge.
            let depth = self.hierarchy.depth();
            let before = self.cycles;
            let mut r = rec.borrow_mut();
            for op in ops {
                let t = self.hierarchy.access_detailed(self.pid, op.kind, op.addr);
                let ts = self.cycles;
                for level in 0..depth {
                    let miss = t.miss_mask >> level & 1 == 1;
                    r.record(ts, Event::LevelAccess { core: 0, level: level as u8, hit: !miss });
                    if !miss {
                        break;
                    }
                }
                if t.mem_writebacks > 0 {
                    r.record(ts, Event::Writeback { core: 0, count: t.mem_writebacks });
                }
                r.record(ts, Event::Op { core: 0, cycles: t.cycles, miss_mask: t.miss_mask });
                self.cycles += t.cycles as u64;
            }
            return self.cycles - before;
        }
        let cycles = self.hierarchy.access_batch_cycles(self.pid, ops);
        self.cycles += cycles;
        cycles
    }

    /// Appends the fetch operations [`run_block`](Machine::run_block)
    /// would issue for `instrs` instructions at `code` (one access per
    /// covered instruction-cache line) to `ops`. The caller charges
    /// the retired instructions separately via
    /// [`execute`](Machine::execute).
    pub fn push_block_fetches(&self, ops: &mut Vec<TraceOp>, code: Addr, instrs: u32) {
        let line_bytes = self.hierarchy.l1i().geometry().line_bytes() as u64;
        let start = code.as_u64();
        let end = start + 4 * instrs as u64;
        let mut line_base = start - (start % line_bytes);
        while line_base < end {
            ops.push(TraceOp::fetch(Addr::new(line_base)));
            line_base += line_bytes;
        }
    }

    /// Fetches and retires a straight-line block of `instrs`
    /// 4-byte instructions starting at `code`.
    ///
    /// The fetch unit touches each covered instruction-cache line once
    /// (sequential fetch within a line does not re-access the cache),
    /// then the instructions retire at the base CPI.
    pub fn run_block(&mut self, code: Addr, instrs: u32) {
        let line_bytes = self.hierarchy.l1i().geometry().line_bytes() as u64;
        let start = code.as_u64();
        let end = start + 4 * instrs as u64;
        let mut line_base = start - (start % line_bytes);
        while line_base < end {
            self.issue(AccessKind::Fetch, Addr::new(line_base));
            line_base += line_bytes;
        }
        self.execute(instrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::from_setup(SetupKind::Deterministic, 5)
    }

    #[test]
    fn execute_charges_cpi() {
        let mut m = machine();
        m.execute(10);
        assert_eq!(m.cycles(), 10);
        assert_eq!(m.instructions(), 10);
    }

    #[test]
    fn load_cold_then_warm() {
        let mut m = machine();
        let a = Addr::new(0x9000);
        let cold = m.load(a);
        let warm = m.load(a);
        assert_eq!(cold, 91);
        assert_eq!(warm, 1);
        assert_eq!(m.cycles(), 92);
    }

    #[test]
    fn load_use_adds_stall() {
        let mut m = machine();
        let a = Addr::new(0x9000);
        m.load(a); // warm the line
        let c = m.load_use(a);
        assert_eq!(c, 1 + 1);
    }

    #[test]
    fn run_block_touches_each_line_once() {
        let mut m = machine();
        // 16 instructions = 64 bytes = 2 lines.
        m.run_block(Addr::new(0x1000), 16);
        assert_eq!(m.hierarchy().l1i().stats().accesses(), 2);
        assert_eq!(m.instructions(), 16);
        // Second run: both lines warm → 2 hits + 16 cycles.
        let before = m.cycles();
        m.run_block(Addr::new(0x1000), 16);
        assert_eq!(m.cycles() - before, 2 + 16);
    }

    #[test]
    fn run_block_unaligned_start() {
        let mut m = machine();
        // Start mid-line: 4 instructions from 0x101c cross into 0x1020.
        m.run_block(Addr::new(0x101c), 4);
        assert_eq!(m.hierarchy().l1i().stats().accesses(), 2);
    }

    #[test]
    fn context_switch_drains_pipeline() {
        let mut m = machine();
        m.context_switch(ProcessId::new(2), 10);
        assert_eq!(m.cycles(), 5 + 10);
        assert_eq!(m.process(), ProcessId::new(2));
    }

    #[test]
    fn branch_penalty_applies() {
        let mut m = machine();
        m.branch();
        assert_eq!(m.cycles(), 2);
    }

    #[test]
    fn trace_records_events() {
        let mut m = machine();
        m.enable_trace();
        m.load(Addr::new(0x100));
        m.store(Addr::new(0x200));
        let t = m.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, AccessKind::Read);
        assert_eq!(t[1].kind, AccessKind::Write);
        // Tracing stopped after take_trace.
        m.load(Addr::new(0x300));
        assert!(m.take_trace().is_empty());
    }

    #[test]
    fn run_trace_matches_scalar_issue_exactly() {
        let ops: Vec<TraceOp> = (0..400u64)
            .map(|i| {
                let addr = Addr::new(0x2000 + (i * 7 % 96) * 32);
                match i % 3 {
                    0 => TraceOp::read(addr),
                    1 => TraceOp::write(addr),
                    _ => TraceOp::fetch(addr),
                }
            })
            .collect();
        let mut scalar = Machine::from_setup(SetupKind::TsCache, 5);
        let mut batched = Machine::from_setup(SetupKind::TsCache, 5);
        for op in &ops {
            match op.kind {
                AccessKind::Read => {
                    scalar.load(op.addr);
                }
                AccessKind::Write => {
                    scalar.store(op.addr);
                }
                AccessKind::Fetch | AccessKind::Flush => {
                    let cost = scalar.hierarchy.access(scalar.pid, op.kind, op.addr);
                    scalar.cycles += cost as u64;
                }
            }
        }
        let cycles = batched.run_trace(&ops);
        assert_eq!(cycles, scalar.cycles());
        assert_eq!(batched.cycles(), scalar.cycles());
        assert_eq!(batched.hierarchy().total_stats(), scalar.hierarchy().total_stats());
    }

    #[test]
    fn run_trace_matches_scalar_on_three_level_hierarchy() {
        let ops: Vec<TraceOp> = (0..600u64)
            .map(|i| {
                let addr = Addr::new((i * 2099) % (1 << 19));
                match i % 4 {
                    0 => TraceOp::fetch(addr),
                    1 | 2 => TraceOp::read(addr),
                    _ => TraceOp::write(addr),
                }
            })
            .collect();
        let mk = || {
            Machine::from_setup_depth(
                SetupKind::TsCache,
                tscache_core::setup::HierarchyDepth::ThreeLevel,
                5,
            )
        };
        let mut scalar = mk();
        let mut batched = mk();
        for op in &ops {
            let cost = scalar.hierarchy.access(scalar.pid, op.kind, op.addr);
            scalar.cycles += cost as u64;
        }
        assert_eq!(batched.run_trace(&ops), scalar.cycles());
        assert_eq!(batched.hierarchy().total_stats(), scalar.hierarchy().total_stats());
        assert!(batched.hierarchy().l3().is_some());
    }

    #[test]
    fn run_trace_records_nothing_when_tracing_disabled() {
        let mut m = machine();
        m.run_trace(&[TraceOp::read(Addr::new(0x100)), TraceOp::write(Addr::new(0x200))]);
        assert!(m.take_trace().is_empty(), "events recorded with tracing off");
        // And the traced path charges the same cycles as the batch path.
        let ops: Vec<TraceOp> = (0..200u64).map(|i| TraceOp::read(Addr::new(i * 96))).collect();
        let mut fast = machine();
        let mut traced = machine();
        traced.enable_trace();
        let a = fast.run_trace(&ops);
        let b = traced.run_trace(&ops);
        assert_eq!(a, b);
        assert_eq!(traced.take_trace().len(), ops.len());
    }

    #[test]
    fn run_trace_records_events_when_tracing() {
        let mut m = machine();
        m.enable_trace();
        m.run_trace(&[TraceOp::read(Addr::new(0x100)), TraceOp::write(Addr::new(0x200))]);
        let t = m.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, AccessKind::Read);
        assert_eq!(t[1].kind, AccessKind::Write);
    }

    #[test]
    fn tracing_is_observer_only() {
        // Tracing must neither pick a path nor change an outcome: on a
        // solo, contended, shared and contended-shared machine, traced
        // and untraced runs agree on segment cycles, contention, every
        // private level and the shared level, and the trace is exactly
        // the scalar and trace ops issued, in order.
        let ops: Vec<TraceOp> = (0..700u64)
            .map(|i| match i % 5 {
                0 => TraceOp::read(Addr::new(0x540)),
                3 => TraceOp::write(Addr::new((i * 4099) % (1 << 18))),
                _ => TraceOp::read(Addr::new((i * 4099) % (1 << 18))),
            })
            .collect();
        let run = |shared: bool, contended: bool, traced: bool| {
            let mut m = if shared {
                Machine::from_setup_shared(
                    SetupKind::TsCache,
                    HierarchyDepth::TwoLevel,
                    SystemConfig::default(),
                    5,
                )
            } else {
                Machine::from_setup(SetupKind::TsCache, 5)
            };
            m.set_process_seed(ProcessId::new(1), Seed::new(3));
            if contended {
                m.attach_standard_enemies(
                    SetupKind::TsCache,
                    HierarchyDepth::TwoLevel,
                    &ContentionConfig::default(),
                    99,
                );
            }
            if traced {
                m.enable_trace();
            }
            let mut issued = Vec::new();
            let mut segments = Vec::new();
            for s in 0..3u64 {
                let a = Addr::new(0x9000 + s * 32);
                m.load(a);
                m.store(a);
                m.flush_line(a);
                m.run_block(Addr::new(0x1000), 16);
                issued.extend([
                    TraceOp::read(a),
                    TraceOp::write(a),
                    TraceOp::flush(a),
                    TraceOp::fetch(Addr::new(0x1000)),
                    TraceOp::fetch(Addr::new(0x1020)),
                ]);
                segments.push(m.run_trace(&ops));
                issued.extend_from_slice(&ops);
            }
            let h = m.hierarchy();
            let levels: Vec<_> = [h.l1i(), h.l1d()]
                .into_iter()
                .chain(h.unified_levels())
                .map(|c| *c.stats())
                .collect();
            let llc = m.shared_llc().map(|l| *l.cache().stats());
            let outcome = (segments, m.cycles(), m.contention_cycles(), levels, llc);
            (outcome, m.take_trace(), issued)
        };
        for (shared, contended) in [(false, false), (false, true), (true, false), (true, true)] {
            let (plain, untraced, _) = run(shared, contended, false);
            let (traced, trace, issued) = run(shared, contended, true);
            let label = format!("shared={shared} contended={contended}");
            assert_eq!(traced, plain, "tracing changed the outcome ({label})");
            assert!(untraced.is_empty(), "ops recorded with tracing off ({label})");
            assert_eq!(trace, issued, "trace is not the issued op stream ({label})");
            if contended {
                assert!(plain.2 > 0, "the enemies never delayed the trace ({label})");
            }
        }
    }

    #[test]
    fn push_block_fetches_matches_run_block() {
        let mut scalar = machine();
        let mut batched = machine();
        // Unaligned start crossing a line boundary.
        scalar.run_block(Addr::new(0x101c), 4);
        let mut ops = Vec::new();
        batched.push_block_fetches(&mut ops, Addr::new(0x101c), 4);
        batched.run_trace(&ops);
        batched.execute(4);
        assert_eq!(batched.cycles(), scalar.cycles());
        assert_eq!(batched.instructions(), scalar.instructions());
        assert_eq!(batched.hierarchy().l1i().stats(), scalar.hierarchy().l1i().stats());
    }

    #[test]
    fn charge_stall_adds_raw_cycles() {
        let mut m = machine();
        m.charge_stall(17);
        assert_eq!(m.cycles(), 17);
        assert_eq!(m.instructions(), 0);
    }

    #[test]
    fn contended_run_trace_is_deterministic_and_dominates_solo() {
        // Mixed hit/miss costs: a perfectly periodic all-miss loop can
        // phase-lock with an equally periodic enemy into zero bus
        // overlap (op-granular request times are lattice-quantized);
        // the interleaved hot-line reads shift the phase op by op, as
        // any real workload's cost mix does.
        let ops: Vec<TraceOp> = (0..700u64)
            .map(|i| {
                if i % 5 == 0 {
                    TraceOp::read(Addr::new(0x540))
                } else {
                    TraceOp::read(Addr::new((i * 4099) % (1 << 18)))
                }
            })
            .collect();
        let run = |contended: bool| {
            let mut m = Machine::from_setup(SetupKind::TsCache, 5);
            m.set_process_seed(ProcessId::new(1), Seed::new(3));
            if contended {
                m.attach_standard_enemies(
                    SetupKind::TsCache,
                    HierarchyDepth::TwoLevel,
                    &ContentionConfig { write_back: false, ..ContentionConfig::default() },
                    99,
                );
                assert!(m.is_contended());
            }
            let mut cycles = Vec::new();
            for _ in 0..4 {
                cycles.push(m.run_trace(&ops));
            }
            (cycles, m.contention_cycles())
        };
        let (solo, solo_wait) = run(false);
        let (contended, wait) = run(true);
        assert_eq!(solo, run(false).0, "solo runs must be reproducible");
        assert_eq!(contended, run(true).0, "contended runs must be reproducible");
        assert_eq!(solo_wait, 0);
        assert!(wait > 0, "enemy core never delayed the trace");
        for (s, c) in solo.iter().zip(&contended) {
            assert!(c >= s, "contended segment cheaper than solo ({c} < {s})");
        }
        // write_back=false leaves cache behaviour untouched, so the
        // contended cycle count is exactly solo + contention.
        assert_eq!(contended.iter().sum::<u64>(), solo.iter().sum::<u64>() + wait);
    }

    #[test]
    fn enemy_cores_do_not_perturb_primary_cache_state() {
        let ops: Vec<TraceOp> =
            (0..500u64).map(|i| TraceOp::read(Addr::new((i * 1031) % (1 << 16)))).collect();
        let mut solo = Machine::from_setup(SetupKind::TsCache, 5);
        let mut contended = Machine::from_setup(SetupKind::TsCache, 5);
        contended.attach_standard_enemies(
            SetupKind::TsCache,
            HierarchyDepth::TwoLevel,
            &ContentionConfig { write_back: false, ..ContentionConfig::default() },
            7,
        );
        solo.run_trace(&ops);
        contended.run_trace(&ops);
        assert_eq!(solo.hierarchy().total_stats(), contended.hierarchy().total_stats());
        // The enemy really executed something meanwhile.
        assert!(contended.co_runners()[0].hierarchy().total_stats().accesses() > 0);
    }

    #[test]
    fn shared_machine_run_trace_matches_scalar_ops() {
        // Write-through platform: at most one bus transaction per op,
        // so a solo core never self-queues and the segment engine must
        // agree with the (bus-free) scalar ops cycle for cycle.
        let ops: Vec<TraceOp> =
            (0..600u64).map(|i| TraceOp::read(Addr::new((i * 3091) % (1 << 18)))).collect();
        let mk = || {
            let mut m = Machine::from_setup_shared(
                SetupKind::TsCache,
                HierarchyDepth::TwoLevel,
                SystemConfig::default(),
                5,
            );
            m.set_process_seed(ProcessId::new(1), Seed::new(3));
            m
        };
        let mut scalar = mk();
        let mut batched = mk();
        for op in &ops {
            scalar.load(op.addr);
        }
        let cycles = batched.run_trace(&ops);
        assert_eq!(cycles, scalar.cycles());
        assert_eq!(batched.hierarchy().total_stats(), scalar.hierarchy().total_stats());
        assert_eq!(
            batched.shared_llc().unwrap().cache().stats(),
            scalar.shared_llc().unwrap().cache().stats()
        );
        assert_eq!(batched.contention_cycles(), 0, "solo write-through core self-queued");
        assert!(batched.shared_llc().unwrap().cache().stats().misses() > 0);
        // Both depths build: three-level keeps a private L2 in front.
        let m3 = Machine::from_setup_shared(
            SetupKind::TsCache,
            HierarchyDepth::ThreeLevel,
            SystemConfig::default(),
            5,
        );
        assert_eq!(m3.hierarchy().depth(), 2);
        assert!(m3.shared_llc().is_some());
    }

    #[test]
    fn shared_contended_machine_reproduces_and_enemies_reach_the_llc() {
        let ops: Vec<TraceOp> =
            (0..800u64).map(|i| TraceOp::read(Addr::new((i * 4099) % (1 << 18)))).collect();
        let run = || {
            let mut m = Machine::from_setup_shared(
                SetupKind::TsCache,
                HierarchyDepth::TwoLevel,
                SystemConfig::default(),
                5,
            );
            m.set_process_seed(ProcessId::new(1), Seed::new(3));
            m.attach_standard_enemies(
                SetupKind::TsCache,
                HierarchyDepth::TwoLevel,
                &ContentionConfig { write_back: false, ..ContentionConfig::default() },
                99,
            );
            let cycles: Vec<u64> = (0..3).map(|_| m.run_trace(&ops)).collect();
            let llc = *m.shared_llc().unwrap().cache().stats();
            (cycles, m.contention_cycles(), llc)
        };
        let (cycles, wait, llc) = run();
        assert_eq!(run(), (cycles, wait, llc), "shared contended campaign must reproduce");
        assert!(wait > 0, "enemy never delayed the measured core");
        // The enemy's traffic really flows through the shared level
        // (accesses beyond what the measured core issues alone).
        let mut solo = Machine::from_setup_shared(
            SetupKind::TsCache,
            HierarchyDepth::TwoLevel,
            SystemConfig::default(),
            5,
        );
        solo.set_process_seed(ProcessId::new(1), Seed::new(3));
        for _ in 0..3 {
            solo.run_trace(&ops);
        }
        assert!(llc.accesses() > solo.shared_llc().unwrap().cache().stats().accesses());
    }

    #[test]
    fn reset_counters_keeps_cache_state() {
        let mut m = machine();
        let a = Addr::new(0x5000);
        m.load(a);
        m.reset_counters();
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.load(a), 1, "cache must still be warm");
    }

    #[test]
    fn flush_caches_cools() {
        let mut m = machine();
        let a = Addr::new(0x5000);
        m.load(a);
        m.flush_caches();
        assert_eq!(m.load(a), 91);
    }

    #[test]
    fn flush_caches_cools_co_runner_enemies_too() {
        // The PR-5 hyperperiod-flush fix: the OS owns the whole node,
        // so a flush may not leave enemy cores' private caches warm.
        let ops: Vec<TraceOp> =
            (0..600u64).map(|i| TraceOp::read(Addr::new((i * 4099) % (1 << 18)))).collect();
        let mut m = Machine::from_setup(SetupKind::TsCache, 5);
        m.attach_standard_enemies(
            SetupKind::TsCache,
            HierarchyDepth::TwoLevel,
            &ContentionConfig::default(),
            7,
        );
        m.run_trace(&ops);
        let warm: usize = m
            .co_runners()
            .iter()
            .map(|co| co.hierarchy().l1d().occupancy() + co.hierarchy().l2().occupancy())
            .sum();
        assert!(warm > 0, "enemies never warmed up — the pin is vacuous");
        m.flush_caches();
        for (k, co) in m.co_runners().iter().enumerate() {
            let h = co.hierarchy();
            let left: usize = h.l1i().occupancy()
                + h.l1d().occupancy()
                + h.unified_levels().map(|c| c.occupancy()).sum::<usize>();
            assert_eq!(left, 0, "enemy {k} kept {left} warm lines across flush_caches");
        }
        // The enemy's trace *position* deliberately survives the flush
        // (only its cache state cools), so replay within one machine
        // phases differently; whole-lifecycle reproducibility is what
        // must hold: two identical machines running the identical
        // run→flush→run sequence agree cycle for cycle.
        let lifecycle = || {
            let mut m = Machine::from_setup(SetupKind::TsCache, 5);
            m.attach_standard_enemies(
                SetupKind::TsCache,
                HierarchyDepth::TwoLevel,
                &ContentionConfig::default(),
                7,
            );
            let a = m.run_trace(&ops);
            m.flush_caches();
            let b = m.run_trace(&ops);
            (a, b, m.contention_cycles())
        };
        assert_eq!(lifecycle(), lifecycle(), "contended flush lifecycle not reproducible");
    }

    #[test]
    fn scalar_ops_back_invalidate_on_tracked_llc_eviction() {
        // Inclusive back-invalidation must also fire on the scalar
        // convenience path: displacing a tracked line from the shared
        // level through plain loads takes the private copies with it.
        let mut m = Machine::from_setup_shared(
            SetupKind::Deterministic,
            HierarchyDepth::TwoLevel,
            SystemConfig::default(),
            5,
        );
        let tracked = Addr::new(0x8000);
        m.add_coherent_range(tracked, 32);
        m.load(tracked); // private + shared fill, sharer recorded
        assert_eq!(m.load(tracked), 1, "tracked line must be L1-resident");
        // Evict it from the 2048-set 4-way shared L2 with conflicting
        // (untracked) lines 64 KiB apart, re-touching the tracked line
        // between conflicts so its *L1* copy stays MRU-protected: only
        // the back-invalidation can remove it from the private level
        // (L1 hits never refresh the shared level's LRU, so the LLC
        // still picks the tracked line as its victim).
        for k in 1..=4u64 {
            m.load(Addr::new(0x8000 + k * 2048 * 32));
            if k < 4 {
                assert_eq!(m.load(tracked), 1, "L1 copy lost before the LLC eviction");
            }
        }
        assert!(
            m.hierarchy().total_stats().coh_invalidations() > 0,
            "LLC eviction of the tracked line never reached the private levels"
        );
        // The private copy is gone: the reload misses end to end.
        assert_eq!(m.load(tracked), 91, "private copy survived the back-invalidation");
    }

    #[test]
    fn scalar_ops_drain_a_co_runner_copy_on_the_coherent_platform() {
        // A co-runner reading the coherent range walks per op, and the
        // directory lists it as core 1. After one segment it holds the
        // tracked line in its L1D, and each scalar MSI action must take
        // that copy: a store's upgrade, a flush's broadcast, and the
        // back-invalidation when loads evict the line from the shared
        // level (2048 sets x 4 ways: 64 KiB apart aliases one set).
        let tracked = Addr::new(0x8000);
        let segment: Vec<TraceOp> =
            (0..48u64).map(|i| TraceOp::read(Addr::new(0x40_0000 + i * 64))).collect();
        let mk = || {
            let mut m = Machine::from_setup_shared(
                SetupKind::Deterministic,
                HierarchyDepth::TwoLevel,
                SystemConfig::default(),
                5,
            );
            m.add_coherent_range(tracked, 512);
            let reads = (0..16u64).map(|i| TraceOp::read(Addr::new(0x8000 + i * 32))).collect();
            let enemy = SetupKind::Deterministic.build_private(HierarchyDepth::TwoLevel, 9);
            m.add_co_runner(CoRunner::new(enemy, ProcessId::new(200), reads));
            m.run_trace(&segment);
            assert_eq!(m.co_runners()[0].hierarchy().total_stats().coh_invalidations(), 0);
            m
        };
        let drained = |m: &Machine| m.co_runners()[0].hierarchy().total_stats().coh_invalidations();
        let llc = |m: &Machine| {
            let s = *m.shared_llc().unwrap().cache().stats();
            (s.accesses(), s.hits(), s.misses(), s.evictions(), s.coh_invalidations())
        };

        let line = tracked.line(5);
        let sharers = |m: &Machine| m.shared_llc().unwrap().sharers(line);

        // Upgrade: the store hits the co-runner's shared-level fill and
        // leaves this machine as the line's only holder.
        let mut m = mk();
        assert_eq!(m.store(tracked), 11);
        assert_eq!(drained(&m), 1, "the store's upgrade left the co-runner's copy");
        assert_eq!(sharers(&m), 0b01);
        assert_eq!(llc(&m), (65, 1, 64, 0, 0));

        // Broadcast: the flush drains the co-runner's copy, the shared
        // copy and the directory entry.
        let mut m = mk();
        assert_eq!(m.flush_line(tracked), 1);
        assert_eq!(drained(&m), 1, "the flush broadcast left the co-runner's copy");
        assert_eq!(sharers(&m), 0);
        assert_eq!(llc(&m), (64, 0, 64, 0, 1));

        // Back-invalidation: the fourth conflicting load evicts the
        // tracked line (the LRU way) from the shared level.
        let mut m = mk();
        for k in 1..=4u64 {
            assert_eq!(m.load(Addr::new(0x8000 + k * 2048 * 32)), 91);
        }
        assert_eq!(drained(&m), 1, "the shared-level eviction left the co-runner's copy");
        assert_eq!(sharers(&m), 0);
        assert_eq!(llc(&m), (68, 0, 68, 1, 0));
    }

    #[test]
    fn flush_line_drains_the_coherent_platform_and_matches_trace_replay() {
        // A shared segment on a coherent shared-LLC machine: the
        // scalar flush primitive and trace-replay flush ops must agree
        // cycle for cycle and state for state. Flushes are spaced
        // behind expensive misses so the solo bus never queues (the
        // same condition the existing write-through equality pin uses).
        let base = Addr::new(0x8000);
        let mk = || {
            let mut m = Machine::from_setup_shared(
                SetupKind::Deterministic,
                HierarchyDepth::TwoLevel,
                SystemConfig::default(),
                5,
            );
            m.add_coherent_range(base, 512);
            m
        };
        let mut ops = Vec::new();
        for i in 0..200u64 {
            ops.push(TraceOp::read(Addr::new(0x8000 + (i % 16) * 32)));
            ops.push(TraceOp::read(Addr::new(0x40_0000 + i * 4096)));
            if i % 4 == 3 {
                ops.push(TraceOp::flush(Addr::new(0x8000 + (i % 16) * 32)));
                ops.push(TraceOp::read(Addr::new(0x50_0000 + i * 4096)));
            }
        }
        let mut scalar = mk();
        let mut batched = mk();
        for op in &ops {
            match op.kind {
                AccessKind::Read => {
                    scalar.load(op.addr);
                }
                AccessKind::Flush => {
                    scalar.flush_line(op.addr);
                }
                _ => unreachable!(),
            }
        }
        let cycles = batched.run_trace(&ops);
        // Trace replay arbitrates the bus (a flush broadcast one cycle
        // behind a miss queues for the tail of its service window);
        // the scalar convenience ops never do. The queuing is exactly
        // the contention_cycles book entry — net of it, the two paths
        // must agree cycle for cycle, and state must match outright.
        assert_eq!(
            cycles,
            scalar.cycles() + batched.contention_cycles(),
            "flush trace replay diverged from scalar ops beyond bus occupancy"
        );
        assert_eq!(batched.hierarchy().total_stats(), scalar.hierarchy().total_stats());
        assert_eq!(
            batched.shared_llc().unwrap().cache().stats(),
            scalar.shared_llc().unwrap().cache().stats()
        );
        // The flushes really drained private copies along the way.
        assert!(
            scalar.hierarchy().l1d().stats().coh_invalidations() > 0,
            "no flush ever found a private copy"
        );
    }
}
