//! Contended multi-core execution: N cores share one memory bus;
//! last-level miss fills and memory-bound writebacks arbitrate for it,
//! MSHR files bound per-level miss parallelism, and on a shared-LLC
//! platform every core's last level is one shared cache.
//!
//! # One engine, two modes
//!
//! [`execute`] and [`execute_scalar`] run the same deterministic
//! discrete-event merge over two kinds of participant: *finite* cores
//! ([`CoreRun`], one trace run once) and *cyclic* co-runners
//! ([`CoRunner`], an enemy core replaying its trace for as long as the
//! run lasts). At every step the participant with the smallest clock
//! executes its next op to completion; clock ties go to the lowest
//! index, finite cores numbered before co-runners. The run stops once
//! every finite core has exhausted its trace — for a machine segment
//! (one finite core), when the measured trace is done, so a co-runner
//! advances only while its clock trails the primary's. An op's cost is
//! its solo hierarchy cost ([`OpTiming::cycles`]) plus any MSHR
//! structural stall plus the queuing delay of its bus transactions.
//!
//! The two modes differ only in *when* a core's private levels run.
//! [`execute_scalar`], the reference, walks every core's op through
//! its private levels at merge time ([`Hierarchy::access_detailed`],
//! or [`Hierarchy::access_upper_detailed`] in front of a shared
//! level). [`execute`] pre-executes every core whose private outcomes
//! cannot depend on the interleaving (the same per-op walks, run ahead
//! of the merge and buffered: finite cores whole, co-runners a chunk
//! at a time) and walks only the others at merge time. Either way the
//! merge consumes identical per-op outcomes, which the differential
//! suite pins bit for bit.
//!
//! # Private hierarchies (`llc = None`)
//!
//! Every core's last level is private, with memory behind it.
//! Contention is then *timing-only*: cache contents, hit/miss
//! outcomes, statistics and RNG draws per core are exactly those of
//! the same trace run solo, so every core is pre-executed. Permuting
//! distinct cores may shift individual queuing waits (ties resolve by
//! index), but everything the caches and MSHRs decide — per-core base
//! cycles, transaction, stall and coalesce counts — is invariant under
//! core reordering (for a machine segment this holds for the measured
//! core; enemy *progress* is interleaving-dependent by construction),
//! and the unit and probe suites pin exactly that split.
//!
//! # Shared last level (`llc = Some(..)`)
//!
//! Each core keeps its private levels, and every shared-level fill and
//! writeback is resolved against the one [`SharedLlc`] *at merge
//! time*, in exact global op order. Contention is then **not**
//! timing-only: cores evict each other's shared-level lines (the
//! cross-core Prime+Probe channel) unless per-core way partitions on
//! the shared level restore isolation. A core is pre-executed through
//! its private levels only when its trace has no flush and touches no
//! coherence-tracked line: only then are its private outcomes
//! interleaving-independent. With coherence armed, every op then runs
//! the MSI actions in one canonical sequence: inclusive
//! back-invalidation of a tracked shared-level victim, sharer
//! recording for a tracked fill, upgrade invalidations for a write,
//! and the flush broadcast. [`solo_op`] runs one op through the same
//! walk, resolve and MSI sequence outside any merge, with no bus, MSHR
//! or recorder: the simulator machine's scalar op.
//!
//! Bus accounting at the shared level: a shared-LLC **hit costs no bus
//! transaction** — only LLC misses (off-chip reads) and writebacks
//! that pass the LLC unabsorbed (or dirty LLC victims) arbitrate for
//! the bus. MSHR files remain per core (a per-core view of miss
//! parallelism): misses of different cores on the same line never
//! coalesce with each other.

use crate::bus::{Bus, BusReport};
use crate::mshr::{MshrConfig, MshrFile, MshrOutcome};
use std::sync::Arc;
use tscache_core::addr::LineAddr;
use tscache_core::cache::Writeback;
use tscache_core::hierarchy::{
    AccessKind, Hierarchy, HierarchyInvalidation, LlcRequests, OpTiming, SharedLlc, TraceOp,
};
use tscache_core::seed::ProcessId;
use tscache_telemetry::{Event, RecorderHandle};

pub use crate::bus::{Arbitration, BusConfig};

/// The contention model of a platform: one shared bus plus (optional)
/// MSHR files at every cache level of every core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Shared-bus model.
    pub bus: BusConfig,
    /// MSHR files (`None` = unbounded miss parallelism, no
    /// coalescing).
    pub mshr: Option<MshrConfig>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig { bus: BusConfig::default(), mshr: Some(MshrConfig::default()) }
    }
}

/// One-knob description of a contended campaign, consumed by the
/// attack-sampling and measurement layers: how many co-runner cores,
/// which bus/MSHR model, and whether caches run write-back (so dirty
/// evictions join the bus traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionConfig {
    /// Enemy cores running alongside the measured core.
    pub co_runners: u32,
    /// Bus + MSHR model.
    pub system: SystemConfig,
    /// Run every core's caches write-back.
    pub write_back: bool,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig { co_runners: 1, system: SystemConfig::default(), write_back: true }
    }
}

/// One finite core of an engine run: its trace runs once.
#[derive(Debug)]
pub struct CoreRun<'a> {
    /// The core's private hierarchy.
    pub hierarchy: &'a mut Hierarchy,
    /// The process executing on this core.
    pub pid: ProcessId,
    /// The core's trace.
    pub ops: &'a [TraceOp],
}

/// Per-core accounting of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// Ops executed.
    pub ops: u64,
    /// Total cycles including stalls and bus waits (the core's final
    /// clock).
    pub cycles: u64,
    /// Solo cycles (what the trace costs with no contention).
    pub base_cycles: u64,
    /// Queuing cycles spent waiting for the bus.
    pub bus_wait: u64,
    /// Cycles lost to MSHR structural stalls.
    pub mshr_stall_cycles: u64,
    /// Misses that coalesced into a pending MSHR entry.
    pub mshr_coalesced: u64,
    /// Bus read transactions (last-level misses that went off-chip).
    pub mem_reads: u64,
    /// Bus write transactions (writebacks that reached memory).
    pub mem_writebacks: u64,
    /// Coherence transactions this core's ops issued on the bus
    /// (upgrade invalidations, flush broadcasts, inclusive
    /// back-invalidations).
    pub coh_txns: u64,
    /// Line copies coherence actions drained from this core's private
    /// levels (the *receiving* side: remote upgrades, flush
    /// broadcasts, shared-level back-invalidations).
    pub coh_invalidations: u64,
}

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceOutcome {
    /// Per-core accounting: the finite cores in order, then the
    /// co-runners in order.
    pub cores: Vec<CoreReport>,
    /// Shared-bus accounting.
    pub bus: BusReport,
}

/// Buffers [`execute`] and [`solo_op`] reuse from call to call: each
/// finite core's pre-executed private walk and the per-op writeback
/// sink. A caller that runs many segments (the simulator's machine)
/// keeps one, so the hot path allocates nothing per segment or op; a
/// one-shot caller passes a fresh one.
#[derive(Debug, Default)]
pub struct EngineScratch {
    lanes: Vec<Lane>,
    writebacks: Vec<Writeback>,
}

/// The production engine: finite `cores` against the cyclic
/// co-runners `co`, on private hierarchies (`llc = None`) or in front
/// of one shared last level, until every finite core has exhausted its
/// trace. Every core whose private outcomes are interleaving-independent
/// is pre-executed; the rest walk per op at merge time. Bit-identical
/// to [`execute_scalar`] — engine outcomes (coherence counters
/// included), every private level, and the shared cache. Bus and MSHR
/// state start fresh per call; co-runner trace position and cache
/// state carry over.
///
/// `recorder` is observer-only: outcomes are bit-identical with and
/// without it.
pub fn execute(
    cores: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
    recorder: Option<&RecorderHandle>,
    scratch: &mut EngineScratch,
) -> InterferenceOutcome {
    run(cores, co, llc, cfg, recorder, scratch, true)
}

/// The reference engine: the same merge as [`execute`], with every
/// core — co-runners included — walking its private levels op by op
/// at merge time.
pub fn execute_scalar(
    cores: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
) -> InterferenceOutcome {
    run(cores, co, llc, cfg, None, &mut EngineScratch::default(), false)
}

/// The one merge loop behind both engines; `batch` selects whether
/// pre-executable cores are pre-executed.
fn run(
    cores: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    mut llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
    recorder: Option<&RecorderHandle>,
    scratch: &mut EngineScratch,
    batch: bool,
) -> InterferenceOutcome {
    let nf = cores.len();
    // A shared level adds one level (and one miss bit) behind each
    // core's private ones.
    let shared = llc.is_some();
    let depths = cores
        .iter()
        .map(|c| c.hierarchy.depth())
        .chain(co.iter().map(|r| r.hierarchy.depth()))
        .map(|d| d + shared as usize)
        .collect();
    let offsets = cores
        .iter()
        .map(|c| c.hierarchy.l1i().geometry().offset_bits())
        .chain(co.iter().map(|r| r.offset_bits))
        .collect();
    let mut merger = Merger::new(cfg, depths, offsets, recorder);
    let EngineScratch { lanes, writebacks } = scratch;
    if lanes.len() < nf {
        lanes.resize_with(nf, Lane::default);
    }
    for (c, (core, lane)) in cores.iter_mut().zip(lanes.iter_mut()).enumerate() {
        lane.pos = 0;
        lane.batched =
            batch && llc.as_deref().is_none_or(|l| prebatchable(core.ops, l, merger.offsets[c]));
        if lane.batched {
            lane.walk.fill(core.hierarchy, core.pid, core.ops, shared);
        }
    }
    let coherent = llc.as_deref().is_some_and(SharedLlc::has_coherence);
    let mut live = cores.iter().filter(|c| !c.ops.is_empty()).count();
    let reports = vec![CoreReport::default(); merger.clocks.len()];
    let mut cores = Cores { finite: cores, co, reports };
    while live > 0 {
        let c = merger
            .next_core(|c| c >= nf || lanes[c].pos < cores.finite[c].ops.len())
            .expect("a live finite core is always eligible");
        // (1)+(2): the private walk, then the op's writebacks and fill
        // against the shared level.
        let (seq, op, mut res) = if c < nf {
            let (core, lane) = (&mut cores.finite[c], &mut lanes[c]);
            let i = lane.pos;
            lane.pos += 1;
            if lane.pos == core.ops.len() {
                live -= 1;
            }
            let op = core.ops[i];
            let res = if lane.batched {
                lane.walk.take(i, core.pid, llc.as_deref_mut(), core.hierarchy.depth())
            } else {
                walk(core.hierarchy, core.pid, op, llc.as_deref_mut(), writebacks)
            };
            // A finite core's MSHR sequence number is its op position.
            (i as u64, op, res)
        } else {
            cores.co[c - nf].next(llc.as_deref_mut(), batch, writebacks)
        };
        let line = op.addr.line(merger.offsets[c]);
        let record = |e| merger.record(merger.clocks[c], e);
        let coh_txns = match llc.as_deref_mut() {
            Some(llc) if coherent => coherence(llc, &mut cores, c, op.kind, line, &mut res, record),
            _ => 0,
        };
        merger.step(c, seq, line.as_u64(), res.t, coh_txns, &mut cores.reports[c]);
    }
    InterferenceOutcome { cores: cores.reports, bus: merger.bus.report() }
}

/// One op of core 0 (`hierarchy` running `pid`) in front of `llc`,
/// with `co` as the platform's other cores: the private walk, the
/// shared-level resolve and the MSI steps every merged op runs, but no
/// bus, MSHR or recorder. Returns the op's cycles.
pub fn solo_op(
    hierarchy: &mut Hierarchy,
    pid: ProcessId,
    op: TraceOp,
    co: &mut [CoRunner],
    llc: &mut SharedLlc,
    scratch: &mut EngineScratch,
) -> u32 {
    let mut res = walk(hierarchy, pid, op, Some(&mut *llc), &mut scratch.writebacks);
    if llc.has_coherence() {
        let line = op.addr.line(hierarchy.l1i().geometry().offset_bits());
        let finite = &mut [CoreRun { hierarchy, pid, ops: &[] }];
        let mut cores = Cores { finite, co, reports: Vec::new() };
        coherence(llc, &mut cores, 0, op.kind, line, &mut res, |_| {});
    }
    res.t.cycles
}

/// One op after its private walk and shared-level resolution.
struct Resolved {
    /// Composed timing (private levels, shared level, memory traffic).
    t: OpTiming,
    /// The line requested from the shared level, if every private
    /// level missed.
    fill: Option<LineAddr>,
    /// The line that fill displaced from the shared level.
    evicted: Option<LineAddr>,
}

/// Composes an op's private-level timing `t` with its shared-level
/// traffic, resolved against `llc` now — that is, in merge order. A
/// hit costs only the shared level's hit cycles (no bus transaction),
/// a miss adds the memory penalty and sets the shared level's miss bit
/// (bit `private_depth`), and unabsorbed writebacks plus a dirty
/// shared-level victim become memory-bound bus writes. Without a
/// shared level, `t` already ends in memory.
fn resolve(
    llc: Option<&mut SharedLlc>,
    pid: ProcessId,
    mut t: OpTiming,
    fill: Option<LineAddr>,
    writebacks: &[Writeback],
    private_depth: usize,
) -> Resolved {
    let Some(llc) = llc else { return Resolved { t, fill: None, evicted: None } };
    let (r, evicted) = llc.resolve_evict(pid, fill, writebacks);
    t.cycles += r.cycles;
    if r.miss {
        t.miss_mask |= 1 << private_depth;
    }
    t.mem_writebacks += r.mem_writebacks;
    Resolved { t, fill, evicted }
}

/// One op walked through `hierarchy` at merge time, so coherence
/// actions of other cores that already ran are visible to it.
fn walk(
    hierarchy: &mut Hierarchy,
    pid: ProcessId,
    op: TraceOp,
    llc: Option<&mut SharedLlc>,
    writebacks: &mut Vec<Writeback>,
) -> Resolved {
    if llc.is_none() {
        let t = hierarchy.access_detailed(pid, op.kind, op.addr);
        return Resolved { t, fill: None, evicted: None };
    }
    writebacks.clear();
    let up = hierarchy.access_upper_detailed(pid, op.kind, op.addr, 0, writebacks);
    let t =
        OpTiming { cycles: up.cycles, miss_mask: up.miss_mask, mem_writebacks: up.mem_writebacks };
    resolve(llc, pid, t, up.fill, writebacks, hierarchy.depth())
}

/// Whether a core's trace may be pre-executed through its private
/// levels on a shared platform: it must contain no
/// [`AccessKind::Flush`] ops (their shared-level and coherence side
/// runs at merge time) and — once coherence is armed — touch no
/// coherence-tracked line (other cores' invalidations may then reach
/// into this core's private levels mid-trace, so its private outcomes
/// are no longer a pure function of its own trace). A core that fails
/// the test walks op by op at merge time instead; a core that passes
/// can never hold a tracked line, so no invalidation ever reaches it —
/// which is exactly what keeps its pre-execution sound. On private
/// hierarchies every trace passes.
fn prebatchable(ops: &[TraceOp], llc: &SharedLlc, offset_bits: u32) -> bool {
    let coherent = llc.has_coherence();
    ops.iter().all(|op| {
        op.kind != AccessKind::Flush
            && !(coherent && llc.is_coherent_line(op.addr.line(offset_bits)))
    })
}

/// A pre-executed private walk: per-op timings and, in front of a
/// shared level, the exported shared-level request stream with its
/// consumption cursors. A finite core's covers its whole trace, a
/// co-runner's one chunk.
#[derive(Debug, Default)]
struct Lookahead {
    events: Vec<OpTiming>,
    requests: LlcRequests,
    fill_pos: usize,
    wb_pos: usize,
    /// The walk stopped at the private levels (a shared level follows).
    shared: bool,
}

impl Lookahead {
    /// Pre-executes `ops` on `hierarchy`, op by op: the full walk to
    /// memory, or — when `shared` — the private levels only, collecting
    /// the request stream.
    fn fill(&mut self, hierarchy: &mut Hierarchy, pid: ProcessId, ops: &[TraceOp], shared: bool) {
        assert!(ops.len() <= u32::MAX as usize, "trace segment too long for 32-bit op indices");
        self.clear();
        self.shared = shared;
        if !shared {
            self.events
                .extend(ops.iter().map(|op| hierarchy.access_detailed(pid, op.kind, op.addr)));
            return;
        }
        for (i, op) in ops.iter().enumerate() {
            let wbs = &mut self.requests.writebacks;
            let up = hierarchy.access_upper_detailed(pid, op.kind, op.addr, i as u32, wbs);
            self.events.push(OpTiming {
                cycles: up.cycles,
                miss_mask: up.miss_mask,
                mem_writebacks: up.mem_writebacks,
            });
            if let Some(line) = up.fill {
                self.requests.fills.push(line);
                self.requests.fill_idx.push(i as u32);
            }
        }
    }

    /// Op `i`'s buffered outcome, its shared-level requests resolved
    /// against `llc` now. Ops must be taken in order.
    fn take(
        &mut self,
        i: usize,
        pid: ProcessId,
        llc: Option<&mut SharedLlc>,
        private_depth: usize,
    ) -> Resolved {
        // A private walk carries memory penalties in its timings and no
        // request stream: replaying it in front of a shared level would
        // silently skip that level (and vice versa), so a platform
        // switch mid-walk is a hard error.
        assert_eq!(self.shared, llc.is_some(), "pre-executed walk replayed on another platform");
        let (fill, wbs) = self.requests.take_for_op(i as u32, &mut self.fill_pos, &mut self.wb_pos);
        resolve(llc, pid, self.events[i], fill, wbs, private_depth)
    }

    fn clear(&mut self) {
        self.events.clear();
        self.requests.clear();
        self.fill_pos = 0;
        self.wb_pos = 0;
    }
}

/// A finite core's state in one run.
#[derive(Debug, Default)]
struct Lane {
    /// Next op to merge.
    pos: usize,
    /// Pre-executed this run (otherwise walked per op).
    batched: bool,
    walk: Lookahead,
}

/// The participants of one run, indexed as the merge numbers them:
/// finite cores first, then co-runners.
struct Cores<'p, 'a> {
    finite: &'p mut [CoreRun<'a>],
    co: &'p mut [CoRunner],
    /// Per-participant accounting (empty in [`solo_op`]).
    reports: Vec<CoreReport>,
}

impl Cores<'_, '_> {
    /// Drains the private copies of `line` from every participant
    /// whose bit is set in `targets` (a directory bitmap), crediting
    /// each drained core's report with the copies it lost. Returns the
    /// number of dirty copies drained — memory-bound bus writes charged
    /// to the issuing op.
    fn invalidate(&mut self, targets: u32, line: LineAddr) -> u8 {
        let nf = self.finite.len();
        let mut dirty = 0u32;
        let mut bits = targets;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let inv = if let Some(core) = self.finite.get_mut(j) {
                core.hierarchy.invalidate_line(core.pid, line)
            } else if let Some(runner) = self.co.get_mut(j - nf) {
                runner.invalidate_line(line)
            } else {
                continue;
            };
            if let Some(report) = self.reports.get_mut(j) {
                report.coh_invalidations += inv.copies as u64;
            }
            dirty += inv.dirty;
        }
        dirty.min(u8::MAX as u32) as u8
    }

    fn pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.finite.iter().map(|c| c.pid).chain(self.co.iter().map(|r| r.pid))
    }
}

/// Steps (3)–(6) of the canonical per-op sequence on a coherent
/// platform, after (1) the private walk and (2) the op's writebacks
/// then fill against the shared level: (3) inclusive back-invalidation
/// when the fill evicted a tracked line, (4) sharer recording for a
/// tracked fill, (5) upgrade invalidations for a write to a tracked
/// line, (6) the flush broadcast. Both engine modes and [`solo_op`] run
/// this one sequence, so they cannot diverge on coherence order.
/// Drained dirty copies are added to `res.t.mem_writebacks`; returns
/// the coherence bus transactions the op issued.
fn coherence(
    llc: &mut SharedLlc,
    cores: &mut Cores<'_, '_>,
    c: usize,
    kind: AccessKind,
    line: LineAddr,
    res: &mut Resolved,
    mut record: impl FnMut(Event),
) -> u8 {
    let invalidated = |bits: u32| bits.count_ones().min(u8::MAX as u32) as u8;
    let mut coh_txns = 0u8;
    // (3) The fill displaced a tracked line from the shared level, so
    // no private copy may survive it.
    if let Some(victim) = res.evicted.filter(|&v| llc.is_coherent_line(v)) {
        let sharers = llc.clear_sharers(victim);
        if sharers != 0 {
            coh_txns += 1;
            res.t.mem_writebacks += cores.invalidate(sharers, victim);
            record(Event::CohBackInvalidate { core: c as u8 });
        }
    }
    // (4) A tracked fill records this core as a holder.
    if res.fill.is_some_and(|l| llc.is_coherent_line(l)) {
        llc.note_sharer(line, c);
    }
    // (5) A write to a tracked line drains every other holder's copies.
    if kind == AccessKind::Write && llc.is_coherent_line(line) {
        let others = llc.retain_sharer(line, c);
        if others != 0 {
            coh_txns += 1;
            res.t.mem_writebacks += cores.invalidate(others, line);
            record(Event::CohUpgrade { core: c as u8, invalidated: invalidated(others) });
        }
    }
    // (6) Drain every tracked copy: the other cores' private copies
    // (the issuer drained its own in the private walk) and the
    // shared-level copies under every core's placement view.
    if kind == AccessKind::Flush && llc.is_coherent_line(line) {
        coh_txns += 1;
        let sharers = llc.clear_sharers(line) & !(1u32 << c);
        res.t.mem_writebacks += cores.invalidate(sharers, line);
        for pid in cores.pids() {
            if llc.invalidate_copy(pid, line).dirty {
                res.t.mem_writebacks += 1;
            }
        }
        record(Event::CohFlush { core: c as u8, invalidated: invalidated(sharers) });
    }
    coh_txns
}

/// The deterministic event-merge state: bus, MSHR files and clocks.
struct Merger {
    bus: Bus,
    /// MSHR files per core per level (empty when disabled).
    mshr: Vec<Vec<MshrFile>>,
    clocks: Vec<u64>,
    depths: Vec<usize>,
    offsets: Vec<u32>,
    /// Bus service cycles, mirrored for trace emission.
    bus_service: u32,
    /// Observer-only trace sink. Timing, outcomes and statistics are
    /// computed identically whether this is attached or not — the
    /// recorder never feeds back.
    recorder: Option<RecorderHandle>,
}

impl Merger {
    fn new(
        cfg: &SystemConfig,
        depths: Vec<usize>,
        offsets: Vec<u32>,
        recorder: Option<&RecorderHandle>,
    ) -> Self {
        let n = depths.len();
        let mshr = match cfg.mshr {
            Some(m) => depths.iter().map(|&d| (0..d).map(|_| MshrFile::new(m)).collect()).collect(),
            None => vec![Vec::new(); n],
        };
        Merger {
            bus: Bus::new(cfg.bus, n),
            mshr,
            clocks: vec![0; n],
            depths,
            offsets,
            bus_service: cfg.bus.service_cycles,
            recorder: recorder.cloned(),
        }
    }

    fn record(&self, ts: u64, event: Event) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(ts, event);
        }
    }

    /// Executes op `seq` of `core` (touching `line`) with solo timing
    /// `t`: MSHR checks, then bus arbitration for its read and
    /// writeback transactions and its `coh_txns` coherence
    /// transactions, in that order, accounted in `report`.
    fn step(
        &mut self,
        core: usize,
        seq: u64,
        line: u64,
        t: OpTiming,
        coh_txns: u8,
        report: &mut CoreReport,
    ) {
        let depth = self.depths[core];
        let ts0 = self.clocks[core];
        if let Some(rec) = &self.recorder {
            // The per-level walk view: level l was consulted iff every
            // lower level missed; the walk stops at the first hit.
            let mut r = rec.borrow_mut();
            for level in 0..depth {
                let miss = t.miss_mask >> level & 1 == 1;
                r.record(
                    ts0,
                    Event::LevelAccess { core: core as u8, level: level as u8, hit: !miss },
                );
                if !miss {
                    break;
                }
            }
            if t.mem_writebacks > 0 {
                r.record(ts0, Event::Writeback { core: core as u8, count: t.mem_writebacks });
            }
        }
        let mut stall = 0u64;
        let mut mem_read = t.memory_read(depth);
        for (level, file) in self.mshr[core].iter_mut().enumerate() {
            if t.miss_mask >> level & 1 == 1 {
                match file.on_miss(line, seq) {
                    MshrOutcome::Coalesced => {
                        report.mshr_coalesced += 1;
                        if level == depth - 1 {
                            // Rides the pending fill: no second
                            // off-chip read.
                            mem_read = false;
                        }
                        if let Some(rec) = &self.recorder {
                            rec.borrow_mut().record(
                                ts0,
                                Event::MshrCoalesce { core: core as u8, level: level as u8 },
                            );
                        }
                    }
                    MshrOutcome::Allocated => {}
                    MshrOutcome::Stalled => {
                        stall += file.stall_cycles() as u64;
                        if let Some(rec) = &self.recorder {
                            rec.borrow_mut().record(
                                ts0,
                                Event::MshrStall {
                                    core: core as u8,
                                    level: level as u8,
                                    cycles: file.stall_cycles(),
                                },
                            );
                        }
                    }
                }
            }
        }
        let mut at = self.clocks[core] + stall + t.cycles as u64;
        let mut wait = 0u64;
        let bus_txn = |bus: &mut Bus, at: &mut u64, wait: &mut u64| {
            let g = bus.grant(core, *at);
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().record(
                    g,
                    Event::BusGrant {
                        core: core as u8,
                        wait: (g - *at).min(u32::MAX as u64) as u32,
                        service: self.bus_service,
                    },
                );
            }
            *wait += g - *at;
            *at = g;
        };
        if mem_read {
            bus_txn(&mut self.bus, &mut at, &mut wait);
            report.mem_reads += 1;
        }
        for _ in 0..t.mem_writebacks {
            bus_txn(&mut self.bus, &mut at, &mut wait);
            report.mem_writebacks += 1;
        }
        for _ in 0..coh_txns {
            bus_txn(&mut self.bus, &mut at, &mut wait);
            report.coh_txns += 1;
        }
        report.ops += 1;
        report.cycles += stall + t.cycles as u64 + wait;
        report.base_cycles += t.cycles as u64;
        report.bus_wait += wait;
        report.mshr_stall_cycles += stall;
        self.clocks[core] = at;
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(
                ts0,
                Event::Op {
                    core: core as u8,
                    cycles: (stall + t.cycles as u64 + wait).min(u32::MAX as u64) as u32,
                    miss_mask: t.miss_mask,
                },
            );
        }
    }

    /// The core to advance next: smallest clock among `eligible` cores,
    /// lowest index on ties.
    fn next_core(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best = None;
        for c in 0..self.clocks.len() {
            if eligible(c) && best.is_none_or(|b: usize| self.clocks[c] < self.clocks[b]) {
                best = Some(c);
            }
        }
        best
    }
}

/// Ops a co-runner pre-executes per chunk.
const CO_CHUNK: usize = 128;

/// A persistent enemy core: a private hierarchy cyclically replaying
/// an enemy trace alongside the measured core. Trace position and
/// cache state persist across segments, so a long campaign sees the
/// enemy's steady-state working set rather than a cold cache per job.
/// The trace itself is read-only and shared: co-runners replaying the
/// same trace hold one allocation.
#[derive(Debug)]
pub struct CoRunner {
    hierarchy: Hierarchy,
    pid: ProcessId,
    ops: Arc<[TraceOp]>,
    offset_bits: u32,
    /// Next trace position not yet walked or pre-executed.
    pos: usize,
    /// The pre-executed chunk (lookahead the merge has not consumed
    /// past `chunk_pos`).
    chunk: Lookahead,
    /// Next unconsumed op of the chunk.
    chunk_pos: usize,
    /// Trace index of the chunk's first op.
    chunk_start: usize,
    /// Total ops executed over the core's lifetime — the monotone
    /// sequence number the MSHR op-window expiry is measured against.
    seq: u64,
    /// Memoized [`prebatchable`] verdict for this co-runner's (fixed)
    /// trace on the platform's LLC, computed on first shared-mode use.
    /// It depends only on the trace and the LLC's coherent ranges, so
    /// a [`flush`](Self::flush) keeps it; only
    /// [`reclassify`](Self::reclassify) clears it.
    prebatch: Option<bool>,
}

impl CoRunner {
    /// Creates an enemy core replaying `ops` (cyclically) as `pid` on
    /// its own `hierarchy`. The trace is shared, never copied: any
    /// number of co-runners may replay one `Arc`. The
    /// pre-batchability verdict is computed on first shared-mode use
    /// and kept until [`reclassify`](Self::reclassify).
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(hierarchy: Hierarchy, pid: ProcessId, ops: Arc<[TraceOp]>) -> Self {
        assert!(!ops.is_empty(), "co-runner needs a non-empty trace");
        let offset_bits = hierarchy.l1i().geometry().offset_bits();
        CoRunner {
            hierarchy,
            pid,
            ops,
            offset_bits,
            pos: 0,
            chunk: Lookahead::default(),
            chunk_pos: 0,
            chunk_start: 0,
            seq: 0,
            prebatch: None,
        }
    }

    /// The enemy core's hierarchy (statistics inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Mutably borrows the hierarchy (seed management between epochs).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// The enemy process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The cyclic trace this enemy core replays.
    pub fn trace(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Discards the pre-executed lookahead and forgets the memoized
    /// pre-batchability verdict. Required whenever the platform's
    /// coherence configuration changes after this co-runner already
    /// ran: the buffered chunk was pre-executed, and the verdict
    /// reached, under the old classification.
    pub fn reclassify(&mut self) {
        self.discard_lookahead();
        self.prebatch = None;
    }

    /// Flushes the enemy core's caches and discards its pre-executed
    /// lookahead: the next merged op re-executes from the cold cache
    /// at the first position the merge has not yet consumed. A
    /// hyperperiod flush lands between segments, where the buffered
    /// lookahead is model speculation (pre-executed against the
    /// pre-flush state), not architected history — so it is dropped
    /// rather than replayed; the trace *position* survives, and so
    /// does the pre-batchability verdict (a flush changes neither the
    /// trace nor the coherent ranges it was computed from). Dirty
    /// lines drain to memory, counted by the caches they leave.
    pub fn flush(&mut self) {
        self.discard_lookahead();
        self.hierarchy.flush_all();
    }

    /// Drops the pre-executed lookahead, rewinding the trace cursor to
    /// the first position the merge has not yet consumed (a per-op
    /// co-runner has no lookahead and keeps its cursor).
    fn discard_lookahead(&mut self) {
        if self.chunk_pos < self.chunk.events.len() {
            // Unconsumed lookahead: rewind to the first unmerged op. A
            // per-op co-runner (or a fully drained chunk) already has
            // `pos` at the next op.
            self.pos = self.chunk_start + self.chunk_pos;
        }
        self.chunk_start = self.pos;
        self.chunk.clear();
        self.chunk_pos = 0;
    }

    /// Drains this enemy core's private copies of `line` — the
    /// receiving side of a coherence action issued elsewhere on the
    /// platform.
    pub fn invalidate_line(&mut self, line: LineAddr) -> HierarchyInvalidation {
        self.hierarchy.invalidate_line(self.pid, line)
    }

    /// Whether this co-runner's trace may be pre-executed in chunks
    /// (memoized on a shared level until the next
    /// [`reclassify`](Self::reclassify)).
    fn prebatchable_on(&mut self, llc: Option<&SharedLlc>) -> bool {
        let Some(llc) = llc else { return true };
        *self.prebatch.get_or_insert_with(|| prebatchable(&self.ops, llc, self.offset_bits))
    }

    /// The next op of the cyclic trace: its MSHR sequence number, the
    /// op, and its resolved outcome — from the pre-executed chunk
    /// (refilled when drained) when `batch` and the trace allows it,
    /// walked now otherwise.
    fn next(
        &mut self,
        llc: Option<&mut SharedLlc>,
        batch: bool,
        writebacks: &mut Vec<Writeback>,
    ) -> (u64, TraceOp, Resolved) {
        let seq = self.seq;
        self.seq += 1;
        if batch && self.prebatchable_on(llc.as_deref()) {
            if self.chunk_pos >= self.chunk.events.len() {
                if self.pos >= self.ops.len() {
                    self.pos = 0;
                }
                let end = (self.pos + CO_CHUNK).min(self.ops.len());
                self.chunk_start = self.pos;
                let ops = &self.ops[self.pos..end];
                self.chunk.fill(&mut self.hierarchy, self.pid, ops, llc.is_some());
                self.chunk_pos = 0;
                self.pos = end;
            }
            let i = self.chunk_pos;
            self.chunk_pos += 1;
            let op = self.ops[self.chunk_start + i];
            (seq, op, self.chunk.take(i, self.pid, llc, self.hierarchy.depth()))
        } else {
            assert!(
                self.chunk_pos >= self.chunk.events.len(),
                "co-runner switched to per-op mode mid-chunk"
            );
            if self.pos >= self.ops.len() {
                self.pos = 0;
            }
            let op = self.ops[self.pos];
            self.pos += 1;
            (seq, op, walk(&mut self.hierarchy, self.pid, op, llc, writebacks))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscache_core::addr::Addr;
    use tscache_core::seed::Seed;
    use tscache_core::setup::SetupKind;

    fn trace(salt: u64, len: usize) -> Vec<TraceOp> {
        TraceOp::mixed_trace(salt, len, 1 << 17)
    }

    /// [`execute`] with no recorder and a fresh scratch.
    fn batch(
        cores: &mut [CoreRun<'_>],
        co: &mut [CoRunner],
        llc: Option<&mut SharedLlc>,
        cfg: &SystemConfig,
    ) -> InterferenceOutcome {
        execute(cores, co, llc, cfg, None, &mut EngineScratch::default())
    }

    fn pair() -> (Hierarchy, Hierarchy) {
        let mk = |salt| {
            let mut h = SetupKind::TsCache.build(salt);
            h.set_process_seed(ProcessId::new(1), Seed::new(salt ^ 5));
            h
        };
        (mk(1), mk(2))
    }

    #[test]
    fn batch_engine_matches_scalar_engine() {
        for arbitration in Arbitration::ALL {
            let cfg = SystemConfig {
                bus: BusConfig { arbitration, ..BusConfig::default() },
                ..SystemConfig::default()
            };
            let (t0, t1) = (trace(3, 900), trace(4, 700));
            let (mut a0, mut a1) = pair();
            let (mut b0, mut b1) = pair();
            for h in [&mut a0, &mut a1, &mut b0, &mut b1] {
                h.set_write_policy(tscache_core::cache::WritePolicy::WriteBack);
            }
            let pid = ProcessId::new(1);
            let scalar = execute_scalar(
                &mut [
                    CoreRun { hierarchy: &mut a0, pid, ops: &t0 },
                    CoreRun { hierarchy: &mut a1, pid, ops: &t1 },
                ],
                &mut [],
                None,
                &cfg,
            );
            let batched = batch(
                &mut [
                    CoreRun { hierarchy: &mut b0, pid, ops: &t0 },
                    CoreRun { hierarchy: &mut b1, pid, ops: &t1 },
                ],
                &mut [],
                None,
                &cfg,
            );
            assert_eq!(scalar, batched, "{arbitration}");
            assert_eq!(a0.total_stats(), b0.total_stats(), "{arbitration}");
            assert_eq!(a1.total_stats(), b1.total_stats(), "{arbitration}");
        }
    }

    #[test]
    fn contention_only_adds_cycles() {
        let (mut solo, _) = pair();
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let t0 = trace(7, 800);
        let t1 = trace(8, 800);
        let cfg = SystemConfig::default();
        let solo_out =
            batch(&mut [CoreRun { hierarchy: &mut solo, pid, ops: &t0 }], &mut [], None, &cfg);
        let contended = batch(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
            &cfg,
        );
        assert_eq!(solo_out.cores[0].base_cycles, contended.cores[0].base_cycles);
        assert!(contended.cores[0].cycles >= solo_out.cores[0].cycles);
        assert!(contended.cores[0].bus_wait > 0, "two miss-heavy cores never collided");
        // Private caches: contention must not change cache outcomes.
        assert_eq!(solo.total_stats(), c0.total_stats());
    }

    #[test]
    fn contended_segment_is_deterministic_and_no_cheaper_than_solo() {
        let run = || {
            let (mut h, enemy) = pair();
            let mut co = vec![CoRunner::new(enemy, ProcessId::new(9), trace(11, 300).into())];
            let t = trace(12, 500);
            batch(
                &mut [CoreRun { hierarchy: &mut h, pid: ProcessId::new(1), ops: &t }],
                &mut co,
                None,
                &SystemConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let primary = a.cores[0];
        assert!(primary.cycles >= primary.base_cycles);
        assert_eq!(
            primary.cycles,
            primary.base_cycles + primary.bus_wait + primary.mshr_stall_cycles
        );
    }

    #[test]
    fn core_order_only_moves_queuing_waits() {
        // Three *distinct* cores with fixed traces, permuted: clock
        // ties resolve by core index, so individual queuing waits may
        // shift — but everything the caches and MSHRs decide is
        // ordering-invariant per core (ops, base cycles, transaction
        // and stall/coalesce counts), and so is the bus's transaction
        // total. An engine bug that let the interleaving leak into
        // cache or MSHR outcomes would trip this (the CI determinism
        // probe pins the same property for a machine segment's
        // measured core).
        let traces: Vec<Vec<TraceOp>> =
            (0..3u64).map(|c| trace(60 + c, 400 + 50 * c as usize)).collect();
        let build = |c: u64| {
            let mut h = SetupKind::TsCache.build(80 + c);
            h.set_process_seed(ProcessId::new(1), Seed::new(17 + c));
            h
        };
        let order_invariant = |r: &CoreReport| {
            (
                r.ops,
                r.base_cycles,
                r.mem_reads,
                r.mem_writebacks,
                r.mshr_stall_cycles,
                r.mshr_coalesced,
            )
        };
        let run = |perm: [usize; 3]| {
            let mut hs: Vec<Hierarchy> = perm.iter().map(|&c| build(c as u64)).collect();
            let mut cores: Vec<CoreRun<'_>> = hs
                .iter_mut()
                .zip(perm.iter())
                .map(|(h, &c)| CoreRun { hierarchy: h, pid: ProcessId::new(1), ops: &traces[c] })
                .collect();
            let out = batch(&mut cores, &mut [], None, &SystemConfig::default());
            // Report per original core id, independent of position.
            let mut by_core = [CoreReport::default(); 3];
            for (pos, &c) in perm.iter().enumerate() {
                by_core[c] = out.cores[pos];
            }
            (by_core, out.bus)
        };
        let (plain, plain_bus) = run([0, 1, 2]);
        let (permuted, permuted_bus) = run([2, 0, 1]);
        for c in 0..3 {
            assert_eq!(
                order_invariant(&plain[c]),
                order_invariant(&permuted[c]),
                "core {c}: ordering leaked into cache/MSHR outcomes"
            );
        }
        assert_eq!(plain_bus.transactions, permuted_bus.transactions);
        assert_eq!(plain_bus.busy_cycles, permuted_bus.busy_cycles);
        assert_ne!(
            order_invariant(&plain[0]),
            order_invariant(&plain[1]),
            "cores must be genuinely distinct"
        );
    }

    /// A small shared-LLC platform: `n` private L1-only cores (distinct
    /// pids 1..=n, distinct RNG streams) plus one shared 64×4 LLC.
    fn shared_platform(n: usize, salt: u64) -> (Vec<Hierarchy>, Vec<ProcessId>, SharedLlc) {
        use tscache_core::cache::Cache;
        use tscache_core::geometry::CacheGeometry;
        use tscache_core::placement::PlacementKind;
        use tscache_core::replacement::ReplacementKind;
        let l1 = CacheGeometry::new(8, 2, 32).unwrap();
        let mk = |label: &str, geom, s| {
            Cache::new(label, geom, PlacementKind::RandomModulo, ReplacementKind::Random, s)
        };
        let mut cores = Vec::new();
        let mut pids = Vec::new();
        for c in 0..n as u64 {
            let mut h = Hierarchy::from_private_parts(
                mk("L1I", l1, salt ^ c ^ 0x11),
                mk("L1D", l1, salt ^ c ^ 0x22),
                Vec::new(),
                1,
                80,
            );
            let pid = ProcessId::new(1 + c as u16);
            h.set_process_seed(pid, Seed::new(salt.wrapping_mul(31) ^ c | 1));
            cores.push(h);
            pids.push(pid);
        }
        let mut llc =
            SharedLlc::new(mk("SLLC", CacheGeometry::new(64, 4, 32).unwrap(), salt ^ 0x55), 10, 80);
        for (c, &pid) in pids.iter().enumerate() {
            llc.set_process_seed(pid, Seed::new(salt.wrapping_mul(77) ^ c as u64 | 1));
        }
        (cores, pids, llc)
    }

    #[test]
    fn shared_batch_engine_matches_shared_scalar_engine() {
        for arbitration in Arbitration::ALL {
            let cfg = SystemConfig {
                bus: BusConfig { arbitration, ..BusConfig::default() },
                ..SystemConfig::default()
            };
            let traces = [trace(51, 700), trace(52, 600)];
            let run = |scalar: bool| {
                let (mut hs, pids, mut llc) = shared_platform(2, 5);
                for h in &mut hs {
                    h.set_write_policy(tscache_core::cache::WritePolicy::WriteBack);
                }
                llc.set_write_policy(tscache_core::cache::WritePolicy::WriteBack);
                let mut cores: Vec<CoreRun<'_>> = hs
                    .iter_mut()
                    .zip(&pids)
                    .zip(&traces)
                    .map(|((h, &pid), t)| CoreRun { hierarchy: h, pid, ops: t })
                    .collect();
                let out = if scalar {
                    execute_scalar(&mut cores, &mut [], Some(&mut llc), &cfg)
                } else {
                    batch(&mut cores, &mut [], Some(&mut llc), &cfg)
                };
                let stats: Vec<_> = hs.iter().map(|h| h.total_stats()).collect();
                let contents: Vec<_> = llc.cache().contents().collect();
                (out, stats, *llc.cache().stats(), contents)
            };
            assert_eq!(run(true), run(false), "{arbitration}");
        }
    }

    #[test]
    fn shared_llc_hit_pays_no_bus_transaction() {
        // One core cycling 32 lines: they thrash the tiny L1 but fit
        // the 256-line LLC, so steady state is all LLC hits — and the
        // bus must see exactly the LLC misses, not the L1 misses.
        let ops: Vec<TraceOp> =
            (0..2000u64).map(|i| TraceOp::read(Addr::new((i % 32) * 4096))).collect();
        let (mut hs, pids, mut llc) = shared_platform(1, 9);
        let out = batch(
            &mut [CoreRun { hierarchy: &mut hs[0], pid: pids[0], ops: &ops }],
            &mut [],
            Some(&mut llc),
            &SystemConfig::default(),
        );
        let llc_stats = llc.cache().stats();
        assert!(llc_stats.hits() > 0, "no steady-state LLC hits");
        assert_eq!(out.cores[0].mem_reads, llc_stats.misses(), "bus reads ≠ LLC misses");
        assert_eq!(out.bus.transactions, out.cores[0].mem_reads + out.cores[0].mem_writebacks);
        assert!(
            hs[0].l1d().stats().misses() > llc_stats.misses(),
            "L1 misses should exceed LLC misses (hits must bypass the bus)"
        );
    }

    #[test]
    fn shared_llc_makes_contention_state_visible_and_partitions_hide_it() {
        // The victim cycles a working set that is LLC-resident when
        // alone. An enemy streaming through the same shared LLC evicts
        // victim lines — unless per-core way partitions isolate them.
        // The footprints are disjoint: cores sharing *data* would hit
        // on each other's lines (the Flush+Reload channel), which no
        // partition closes.
        let victim_ops: Vec<TraceOp> =
            (0..3000u64).map(|i| TraceOp::read(Addr::new((i % 48) * 4096))).collect();
        let enemy_ops: Vec<TraceOp> = trace(83, 3000)
            .into_iter()
            .map(|op| TraceOp { kind: op.kind, addr: Addr::new(op.addr.as_u64() + (1 << 24)) })
            .collect();
        let run = |with_enemy: bool, partitioned: bool| {
            let (mut hs, pids, mut llc) = shared_platform(2, 13);
            if partitioned {
                llc.set_way_partition(pids[0], 0, 2);
                llc.set_way_partition(pids[1], 2, 4);
            }
            let mut cores = Vec::new();
            let mut iter = hs.iter_mut();
            let h0 = iter.next().unwrap();
            cores.push(CoreRun { hierarchy: h0, pid: pids[0], ops: &victim_ops });
            if with_enemy {
                cores.push(CoreRun {
                    hierarchy: iter.next().unwrap(),
                    pid: pids[1],
                    ops: &enemy_ops,
                });
            }
            let out = batch(&mut cores, &mut [], Some(&mut llc), &SystemConfig::default());
            (out.cores[0], llc.cache().stats().cross_process_evictions())
        };
        let (solo, _) = run(false, false);
        let (contended, cross) = run(true, false);
        assert!(cross > 0, "enemy never evicted a victim LLC line");
        assert!(
            contended.mem_reads > solo.mem_reads,
            "shared-LLC contention must cost the victim extra off-chip reads \
             (solo {}, contended {})",
            solo.mem_reads,
            contended.mem_reads
        );
        let (partitioned, cross_part) = run(true, true);
        assert_eq!(cross_part, 0, "partitioned LLC still saw cross-core evictions");
        // Partitioned victim behaves as if partitioned-solo: the enemy
        // changes nothing it can observe in its own cache outcomes.
        let (part_solo, _) = run(false, true);
        assert_eq!(partitioned.mem_reads, part_solo.mem_reads);
        assert_eq!(partitioned.base_cycles, part_solo.base_cycles);
    }

    #[test]
    fn contended_shared_segment_is_deterministic_and_accounts_cycles() {
        let run = || {
            let (mut hs, pids, mut llc) = shared_platform(2, 21);
            let mut hs = hs.drain(..);
            let mut h = hs.next().unwrap();
            let enemy = hs.next().unwrap();
            let mut co = vec![CoRunner::new(enemy, pids[1], trace(31, 300).into())];
            let t = trace(32, 500);
            let out = batch(
                &mut [CoreRun { hierarchy: &mut h, pid: pids[0], ops: &t }],
                &mut co,
                Some(&mut llc),
                &SystemConfig::default(),
            );
            (out, *llc.cache().stats())
        };
        let (a, llc_a) = run();
        let (b, llc_b) = run();
        assert_eq!(a, b);
        assert_eq!(llc_a, llc_b);
        assert!(a.cores[1].ops > 0, "enemy never ran");
        let primary = a.cores[0];
        assert_eq!(
            primary.cycles,
            primary.base_cycles + primary.bus_wait + primary.mshr_stall_cycles
        );
    }

    #[test]
    fn co_runner_flush_keeps_per_op_position_and_rewinds_lookahead() {
        let ops: Vec<TraceOp> = (0..10u64).map(|i| TraceOp::read(Addr::new(i * 4096))).collect();
        let mut wbs = Vec::new();
        // Per-op mode: the cursor IS the next op — a flush must not
        // move it (the chunk cursors stay 0 in this mode, so the naive
        // rewind would restart the trace from op 0).
        let (mut hs, pids, mut llc) = shared_platform(1, 3);
        let mut co = CoRunner::new(hs.remove(0), pids[0], ops.as_slice().into());
        for _ in 0..5 {
            co.next(Some(&mut llc), false, &mut wbs);
        }
        co.flush();
        let (_, op, _) = co.next(Some(&mut llc), false, &mut wbs);
        assert_eq!(op, ops[5], "flush rewound a per-op co-runner's trace position");
        // Chunked mode: unconsumed lookahead is discarded, resuming at
        // the first unmerged op (which re-executes on the cold cache).
        let (mut hs, pids, mut llc) = shared_platform(1, 4);
        let mut co = CoRunner::new(hs.remove(0), pids[0], ops.as_slice().into());
        for _ in 0..3 {
            co.next(Some(&mut llc), true, &mut wbs);
        }
        co.flush();
        let (_, op, _) = co.next(Some(&mut llc), true, &mut wbs);
        assert_eq!(op, ops[3], "flush did not resume at the first unconsumed op");
    }

    #[test]
    fn reclassify_reacts_to_late_coherent_ranges() {
        let ops: Vec<TraceOp> = (0..12u64).map(|i| TraceOp::read(Addr::new(i * 4096))).collect();
        let (mut hs, pids, mut llc) = shared_platform(1, 5);
        let mut co = CoRunner::new(hs.remove(0), pids[0], ops.as_slice().into());
        let mut wbs = Vec::new();
        assert!(co.prebatchable_on(Some(&llc)), "coherence-free trace must be batchable");
        for _ in 0..4 {
            co.next(Some(&mut llc), true, &mut wbs);
        }
        // The platform declares a coherent range covering the trace
        // *after* the co-runner already ran: the memoized verdict and
        // the buffered lookahead are both stale.
        llc.add_coherent_range(Addr::new(0), 12 * 4096);
        co.reclassify();
        assert!(!co.prebatchable_on(Some(&llc)), "stale pre-batchability verdict survived");
        let (_, op, _) = co.next(Some(&mut llc), true, &mut wbs);
        assert_eq!(op, ops[4], "reclassify lost the first unconsumed op");
        // A flush changes neither the trace nor the coherent ranges:
        // the verdict survives it, and only a reclassify clears it.
        co.flush();
        assert_eq!(co.prebatch, Some(false), "flush dropped the memoized verdict");
        co.reclassify();
        assert_eq!(co.prebatch, None, "reclassify kept the memoized verdict");
    }

    #[test]
    fn tdma_bounds_per_transaction_wait() {
        let slot_cycles = 16u32;
        let cfg = SystemConfig {
            bus: BusConfig { arbitration: Arbitration::Tdma { slot_cycles }, service_cycles: 8 },
            mshr: None,
        };
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let (t0, t1) = (trace(31, 600), trace(32, 600));
        let out = batch(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
            &cfg,
        );
        // Every transaction waits at most one full TDMA round.
        let round = (slot_cycles as u64) * 2;
        for (i, core) in out.cores.iter().enumerate() {
            let txns = core.mem_reads + core.mem_writebacks;
            assert!(core.bus_wait <= txns * round, "core {i} waited beyond the TDMA bound");
        }
    }

    #[test]
    fn mshr_disabled_never_stalls_or_coalesces() {
        let cfg = SystemConfig { mshr: None, ..SystemConfig::default() };
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let (t0, t1) = (trace(41, 400), trace(42, 400));
        let out = batch(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
            &cfg,
        );
        for core in &out.cores {
            assert_eq!(core.mshr_stall_cycles, 0);
            assert_eq!(core.mshr_coalesced, 0);
        }
    }

    #[test]
    fn co_runner_mshr_windows_expire_with_its_op_sequence() {
        // A cyclic enemy trace of 16 lines all aliasing one L1 set:
        // every access misses L1, and the revisit distance (16 ops)
        // exceeds the MSHR op window (8), so entries must have expired
        // by the time a line comes around again — zero coalescing. A
        // frozen sequence number would instead pin the first 8 lines
        // in the file forever and falsely coalesce every revisit.
        let enemy_ops: Vec<TraceOp> =
            (0..16u64).map(|i| TraceOp::read(Addr::new(i * 128 * 32))).collect();
        let mut enemy = SetupKind::Deterministic.build(3);
        enemy.access_batch_cycles(ProcessId::new(9), &enemy_ops); // warm L2
        let mut co = vec![CoRunner::new(enemy, ProcessId::new(9), enemy_ops.into())];
        let mut h = SetupKind::Deterministic.build(1);
        let t = trace(5, 2000);
        let out = batch(
            &mut [CoreRun { hierarchy: &mut h, pid: ProcessId::new(1), ops: &t }],
            &mut co,
            None,
            &SystemConfig::default(),
        );
        let enemy = out.cores[1];
        assert!(enemy.ops > 32, "enemy barely ran; test needs several trace cycles");
        assert_eq!(
            enemy.mshr_coalesced, 0,
            "revisit distance exceeds the MSHR window — nothing may coalesce"
        );
    }

    #[test]
    fn tiny_mshr_file_stalls_a_miss_streak() {
        let cfg = SystemConfig {
            mshr: Some(MshrConfig { entries: 1, window_ops: 16, stall_cycles: 6 }),
            ..SystemConfig::default()
        };
        let mut h = SetupKind::Deterministic.build(1);
        // A pure miss streak: distinct lines, no reuse.
        let t: Vec<TraceOp> = (0..400u64).map(|i| TraceOp::read(Addr::new(i * 4096))).collect();
        let pid = ProcessId::new(1);
        let out = batch(&mut [CoreRun { hierarchy: &mut h, pid, ops: &t }], &mut [], None, &cfg);
        assert!(out.cores[0].mshr_stall_cycles > 0, "1-entry MSHR never stalled a miss streak");
    }
}
