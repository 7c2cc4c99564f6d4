//! Contended multi-core execution: N cores share one memory bus;
//! last-level miss fills and memory-bound writebacks queue for it first
//! come first served, MSHR files coalesce repeat misses to a line in
//! flight, and on a shared-LLC platform every core's last level is one
//! shared cache.
//!
//! # One engine, one walk
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
//! its solo hierarchy cost ([`OpTiming::cycles`]) plus the queuing
//! delay of its bus transactions.
//!
//! Every op runs one private walk
//! ([`Hierarchy::access_upper_detailed`]) and one resolve, which
//! composes the walk with memory on a private platform or with the
//! [`SharedLlc`] on a shared one. Finite cores walk op by op at merge
//! time in both modes. The modes differ only for co-runners:
//! [`execute`] pre-executes a co-runner whose private outcomes cannot
//! depend on the interleaving, walking its private levels one 128-op
//! chunk ahead of the merge and resolving each buffered op in merge
//! order; [`execute_scalar`] walks co-runners op by op as well and
//! stays as their reference. The differential suite pins the two bit
//! for bit.
//!
//! Co-runners keep their chunks because dropping them is observable. A
//! co-runner's flush drops the ops its chunk walked but the merge never
//! consumed, and their replacement-RNG draws stay spent: walking
//! co-runners op by op moves the campaign digests of random-replacement
//! platforms that flush before every run. A finite core's private
//! levels are touched by nothing else, so walking them ahead of the
//! merge or at merge time gives the same outcomes, and they walk at
//! merge time.
//!
//! # Private hierarchies (`llc = None`)
//!
//! Every core's last level is private, with memory behind it.
//! Contention is then *timing-only*: cache contents, hit/miss
//! outcomes, statistics and RNG draws per core are exactly those of
//! the same trace run solo, so every co-runner is pre-executable.
//! Permuting distinct cores may shift individual queuing waits (ties
//! resolve by index), but everything the caches and MSHRs decide —
//! per-core base cycles, transaction and coalesce counts — is
//! invariant under core reordering (for a machine segment this holds
//! for the measured core; enemy *progress* is interleaving-dependent
//! by construction), and the unit and probe suites pin exactly that
//! split.
//!
//! # Shared last level (`llc = Some(..)`)
//!
//! Each core keeps its private levels, and every shared-level fill and
//! writeback is resolved against the one [`SharedLlc`] *at merge
//! time*, in exact global op order. Contention is then **not**
//! timing-only: cores evict each other's shared-level lines (the
//! cross-core Prime+Probe channel) unless per-core way partitions on
//! the shared level restore isolation. A co-runner is pre-executed
//! through its private levels only when its trace has no flush and
//! touches no coherence-tracked line: only then are its private
//! outcomes interleaving-independent. With coherence armed, every op
//! runs the MSI actions in one canonical sequence: inclusive
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

use crate::bus::{Bus, BusReport, SERVICE_CYCLES};
use crate::mshr::MshrFile;
use std::sync::Arc;
use tscache_core::addr::LineAddr;
use tscache_core::cache::Writeback;
use tscache_core::hierarchy::{
    AccessKind, Hierarchy, HierarchyInvalidation, OpTiming, SharedLlc, TraceOp, UpperOutcome,
};
use tscache_core::seed::ProcessId;
use tscache_telemetry::{Event, RecorderHandle};

/// The contention model, which has no setting: one first-come
/// first-served bus plus an MSHR file per cache level per core. It
/// stays only as an argument of `Machine::from_setup_shared`, which the
/// benchmark package (`campaign_bench`) passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemConfig;

/// One-knob description of a contended campaign, consumed by the
/// attack-sampling and measurement layers: how many co-runner cores,
/// and whether caches run write-back (so dirty evictions join the bus
/// traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionConfig {
    /// Enemy cores running alongside the measured core.
    pub co_runners: u32,
    /// Run every core's caches write-back.
    pub write_back: bool,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig { co_runners: 1, write_back: true }
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
    /// Total cycles including bus waits (the core's final clock).
    pub cycles: u64,
    /// Solo cycles (what the trace costs with no contention).
    pub base_cycles: u64,
    /// Queuing cycles spent waiting for the bus.
    pub bus_wait: u64,
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

/// The per-op writeback buffer [`execute`] and [`solo_op`] reuse from
/// call to call: every op walked at merge time collects its escaped
/// writebacks here. Finite cores keep no buffer of their own, because
/// they never pre-execute, and co-runners carry their chunks with
/// them. A caller that runs many segments (the simulator's machine)
/// keeps one, so the hot path allocates nothing per op; a one-shot
/// caller passes a fresh one.
#[derive(Debug, Default)]
pub struct EngineScratch {
    writebacks: Vec<Writeback>,
}

/// The production engine: finite `cores` against the cyclic
/// co-runners `co`, on private hierarchies (`llc = None`) or in front
/// of one shared last level, until every finite core has exhausted its
/// trace. Finite cores walk op by op at merge time; a co-runner whose
/// private outcomes are interleaving-independent is pre-executed a
/// chunk at a time. Bit-identical to [`execute_scalar`] — engine
/// outcomes (coherence counters included), every private level, and
/// the shared cache. Bus and MSHR state start fresh per call;
/// co-runner trace position and cache state carry over.
///
/// `recorder` is observer-only: outcomes are bit-identical with and
/// without it.
///
/// # Panics
///
/// Panics if `llc` has a coherent range and the run has more than
/// [`SharedLlc::DIRECTORY_CORES`] cores (finite cores plus co-runners).
pub fn execute(
    cores: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    llc: Option<&mut SharedLlc>,
    recorder: Option<&RecorderHandle>,
    scratch: &mut EngineScratch,
) -> InterferenceOutcome {
    run(cores, co, llc, recorder, scratch, true)
}

/// The reference engine: the same merge as [`execute`], with every
/// co-runner walking its private levels op by op at merge time, as
/// finite cores always do. It stays as the co-runner chunks' reference.
pub fn execute_scalar(
    cores: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    llc: Option<&mut SharedLlc>,
) -> InterferenceOutcome {
    run(cores, co, llc, None, &mut EngineScratch::default(), false)
}

/// The one merge loop behind both engines; `batch` selects whether
/// pre-executable co-runners are pre-executed.
fn run(
    cores: &mut [CoreRun<'_>],
    co: &mut [CoRunner],
    mut llc: Option<&mut SharedLlc>,
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
    let mut merger = Merger::new(depths, offsets, recorder);
    let coherent = llc.as_deref().is_some_and(SharedLlc::has_coherence);
    // The sharer directory is a 32-bit bitmap: a larger coherent run
    // would alias core 32's bit onto core 0.
    assert!(
        !coherent || nf + co.len() <= SharedLlc::DIRECTORY_CORES,
        "a coherent run of {} cores exceeds the {}-core sharer directory",
        nf + co.len(),
        SharedLlc::DIRECTORY_CORES
    );
    let mut live = cores.iter().filter(|c| !c.ops.is_empty()).count();
    let reports = vec![CoreReport::default(); merger.clocks.len()];
    let mut cores = Cores { finite: cores, co, reports };
    // A finite core's next op is the count of ops it has merged so far.
    let next_op = |cores: &Cores<'_, '_>, c: usize| cores.reports[c].ops as usize;
    while live > 0 {
        let c = merger
            .next_core(|c| c >= nf || next_op(&cores, c) < cores.finite[c].ops.len())
            .expect("a live finite core is always eligible");
        // (1)+(2): the private walk, then the op's writebacks and fill
        // against the shared level.
        let (seq, op, mut res) = if c < nf {
            let i = next_op(&cores, c);
            let core = &mut cores.finite[c];
            if i + 1 == core.ops.len() {
                live -= 1;
            }
            let op = core.ops[i];
            let res =
                walk(core.hierarchy, core.pid, op, llc.as_deref_mut(), &mut scratch.writebacks);
            // A finite core's MSHR sequence number is its op position.
            (i as u64, op, res)
        } else {
            cores.co[c - nf].next(llc.as_deref_mut(), batch, &mut scratch.writebacks)
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

/// Composes `hierarchy`'s private walk `up` of one op, and the
/// `writebacks` it escaped, with what lies behind the hierarchy — now,
/// that is, in merge order. Without a shared level that is memory
/// ([`Hierarchy::with_memory`]). In front of `llc`, the shared level
/// resolves the fill and writebacks and the hierarchy prices the
/// outcome ([`Hierarchy::with_shared`]): a hit pays no bus transaction,
/// while unabsorbed writebacks plus a dirty shared-level victim become
/// memory-bound bus writes.
fn resolve(
    hierarchy: &Hierarchy,
    pid: ProcessId,
    up: UpperOutcome,
    writebacks: &[Writeback],
    llc: Option<&mut SharedLlc>,
) -> Resolved {
    let Some(llc) = llc else {
        let t = hierarchy.with_memory(up, writebacks.len() as u8);
        return Resolved { t, fill: up.fill, evicted: None };
    };
    let r = llc.resolve(pid, up.fill, writebacks);
    Resolved { t: hierarchy.with_shared(up, &r), fill: up.fill, evicted: r.evicted }
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
    writebacks.clear();
    let up = hierarchy.access_upper_detailed(pid, op.kind, op.addr, writebacks);
    resolve(hierarchy, pid, up, writebacks, llc)
}

/// Whether a co-runner's trace may be pre-executed through its private
/// levels on a shared platform: it must contain no
/// [`AccessKind::Flush`] ops (their shared-level and coherence side
/// runs at merge time) and — once coherence is armed — touch no
/// coherence-tracked line (other cores' invalidations may then reach
/// into this core's private levels mid-trace, so its private outcomes
/// are no longer a pure function of its own trace). A co-runner that
/// fails the test walks op by op at merge time instead; one that passes
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

/// A co-runner's pre-executed chunk: the per-op private walks, each
/// with the end offset of its escaped writebacks in one buffer. Every
/// buffered op is resolved in merge order, against whatever lies
/// behind the hierarchy then.
#[derive(Debug, Default)]
struct Lookahead {
    /// Per op: its walk and the end of its writebacks in `writebacks`.
    walks: Vec<(UpperOutcome, usize)>,
    writebacks: Vec<Writeback>,
}

impl Lookahead {
    /// Pre-executes `ops` on `hierarchy`'s private levels, op by op.
    fn fill(&mut self, hierarchy: &mut Hierarchy, pid: ProcessId, ops: &[TraceOp]) {
        self.clear();
        for op in ops {
            let up = hierarchy.access_upper_detailed(pid, op.kind, op.addr, &mut self.writebacks);
            self.walks.push((up, self.writebacks.len()));
        }
    }

    /// Op `i`'s walk and the writebacks it escaped.
    fn get(&self, i: usize) -> (UpperOutcome, &[Writeback]) {
        let start = i.checked_sub(1).map_or(0, |prev| self.walks[prev].1);
        let (up, end) = self.walks[i];
        (up, &self.writebacks[start..end])
    }

    fn clear(&mut self) {
        self.walks.clear();
        self.writebacks.clear();
    }
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
    /// MSHR files per core per level.
    mshr: Vec<Vec<MshrFile>>,
    clocks: Vec<u64>,
    depths: Vec<usize>,
    offsets: Vec<u32>,
    /// Observer-only trace sink. Timing, outcomes and statistics are
    /// computed identically whether this is attached or not — the
    /// recorder never feeds back.
    recorder: Option<RecorderHandle>,
}

impl Merger {
    fn new(depths: Vec<usize>, offsets: Vec<u32>, recorder: Option<&RecorderHandle>) -> Self {
        Merger {
            bus: Bus::default(),
            mshr: depths.iter().map(|&d| vec![MshrFile::default(); d]).collect(),
            clocks: vec![0; depths.len()],
            depths,
            offsets,
            recorder: recorder.cloned(),
        }
    }

    fn record(&self, ts: u64, event: Event) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(ts, event);
        }
    }

    /// Executes op `seq` of `core` (touching `line`) with solo timing
    /// `t`: MSHR coalescing, then a bus grant for each of its read and
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
        let (id, recorder) = (core as u8, &self.recorder);
        let record = |ts, event| {
            if let Some(rec) = recorder {
                rec.borrow_mut().record(ts, event);
            }
        };
        if let Some(rec) = recorder {
            rec.borrow_mut().record_walk(ts0, id, depth, t.miss_mask, t.mem_writebacks);
        }
        let mut mem_read = t.memory_read(depth);
        for (level, file) in self.mshr[core].iter_mut().enumerate() {
            let missed = t.miss_mask >> level & 1 == 1;
            if missed && file.coalesces(line, seq) {
                report.mshr_coalesced += 1;
                if level == depth - 1 {
                    // Rides the pending fill: no second off-chip read.
                    mem_read = false;
                }
                record(ts0, Event::MshrCoalesce { core: id, level: level as u8 });
            }
        }
        let mut at = self.clocks[core] + t.cycles as u64;
        let mut wait = 0u64;
        let bus_txn = |bus: &mut Bus, at: &mut u64, wait: &mut u64| {
            let g = bus.grant(*at);
            let waited = (g - *at).min(u32::MAX as u64) as u32;
            record(g, Event::BusGrant { core: id, wait: waited, service: SERVICE_CYCLES });
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
        report.cycles += t.cycles as u64 + wait;
        report.base_cycles += t.cycles as u64;
        report.bus_wait += wait;
        self.clocks[core] = at;
        let cycles = (t.cycles as u64 + wait).min(u32::MAX as u64) as u32;
        record(ts0, Event::Op { core: id, cycles, miss_mask: t.miss_mask });
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
        if self.chunk_pos < self.chunk.walks.len() {
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
            if self.chunk_pos >= self.chunk.walks.len() {
                if self.pos >= self.ops.len() {
                    self.pos = 0;
                }
                let end = (self.pos + CO_CHUNK).min(self.ops.len());
                self.chunk_start = self.pos;
                self.chunk.fill(&mut self.hierarchy, self.pid, &self.ops[self.pos..end]);
                self.chunk_pos = 0;
                self.pos = end;
            }
            let i = self.chunk_pos;
            self.chunk_pos += 1;
            let op = self.ops[self.chunk_start + i];
            let (up, writebacks) = self.chunk.get(i);
            (seq, op, resolve(&self.hierarchy, self.pid, up, writebacks, llc))
        } else {
            assert!(
                self.chunk_pos >= self.chunk.walks.len(),
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
    use tscache_core::cache::WritePolicy;
    use tscache_core::seed::Seed;
    use tscache_core::setup::{HierarchyDepth, SetupKind};
    use tscache_core::stats::CacheStats;

    fn trace(salt: u64, len: usize) -> Vec<TraceOp> {
        TraceOp::mixed_trace(salt, len, 1 << 17)
    }

    /// [`execute`] with no recorder and a fresh scratch.
    fn batch(
        cores: &mut [CoreRun<'_>],
        co: &mut [CoRunner],
        llc: Option<&mut SharedLlc>,
    ) -> InterferenceOutcome {
        execute(cores, co, llc, None, &mut EngineScratch::default())
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
        );
        let batched = batch(
            &mut [
                CoreRun { hierarchy: &mut b0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut b1, pid, ops: &t1 },
            ],
            &mut [],
            None,
        );
        assert_eq!(scalar, batched);
        assert_eq!(a0.total_stats(), b0.total_stats());
        assert_eq!(a1.total_stats(), b1.total_stats());
    }

    /// Everything one cache level decided: statistics, contents (set,
    /// way, line, owner) and the dirty-line count.
    type LevelState = (CacheStats, Vec<(u32, u32, u64, u16)>, usize);

    /// The [`LevelState`] of every level of `h`.
    fn levels_state(h: &Hierarchy) -> Vec<LevelState> {
        [h.l1i(), h.l1d()]
            .into_iter()
            .chain(h.unified_levels())
            .map(|c| {
                let contents: Vec<_> =
                    c.contents().map(|(s, w, l, o)| (s, w, l.as_u64(), o.as_u16())).collect();
                (*c.stats(), contents, c.dirty_lines())
            })
            .collect()
    }

    #[test]
    fn private_platform_composes_each_walk_with_memory() {
        // A finite core on a private platform walks each op through its
        // private levels at merge time and composes the walk with
        // memory. Op by op, that must add up to what the hierarchy's own
        // composition (`access_detailed`) reports on a twin: solo
        // cycles, memory-bound writebacks, off-chip reads less the
        // last-level misses the MSHR file coalesced (the recorder sees
        // each as an `MshrCoalesce` event), and the same caches left
        // behind. The trace ends in 64 read-flush-read triples on fresh
        // lines, so some last-level misses do coalesce: each re-read
        // misses everywhere two ops after its line's fill started.
        let pid = ProcessId::new(1);
        let mut ops = TraceOp::mixed_trace(91, 40_000, 1 << 22);
        ops.extend((0..64u64).flat_map(|i| {
            let addr = Addr::new((1 << 22) + i * 4096);
            [TraceOp::read(addr), TraceOp::flush(addr), TraceOp::read(addr)]
        }));
        for setup in SetupKind::ALL {
            for depth in HierarchyDepth::ALL {
                let build = || {
                    let mut h = setup.build_depth(depth, 7);
                    h.set_process_seed(pid, Seed::new(0x77));
                    h.set_write_policy(WritePolicy::WriteBack);
                    h
                };
                let (mut h, mut twin) = (build(), build());
                let recorder = tscache_telemetry::handle(1 << 19);
                let out = execute(
                    &mut [CoreRun { hierarchy: &mut h, pid, ops: &ops }],
                    &mut [],
                    None,
                    Some(&recorder),
                    &mut EngineScratch::default(),
                );
                let recorder = recorder.borrow();
                assert_eq!(recorder.dropped(), 0, "the ring lost events");
                let last = h.depth() as u8 - 1;
                let coalesced_reads = recorder
                    .records()
                    .iter()
                    .filter(
                        |r| matches!(r.event, Event::MshrCoalesce { level, .. } if level == last),
                    )
                    .count() as u64;
                let (mut cycles, mut reads, mut writebacks) = (0u64, 0u64, 0u64);
                for op in &ops {
                    let t = twin.access_detailed(pid, op.kind, op.addr);
                    cycles += t.cycles as u64;
                    reads += t.memory_read(twin.depth()) as u64;
                    writebacks += t.mem_writebacks as u64;
                }
                let label = format!("{setup}/{depth}");
                let core = out.cores[0];
                assert_eq!(core.base_cycles, cycles, "{label}: base cycles");
                assert_eq!(core.mem_reads, reads - coalesced_reads, "{label}: off-chip reads");
                assert_eq!(coalesced_reads, 64, "{label}: re-reads that coalesced");
                assert_eq!(core.mem_writebacks, writebacks, "{label}: memory-bound writebacks");
                assert!(writebacks > 0, "{label}: no writeback reached memory");
                assert_eq!(levels_state(&h), levels_state(&twin), "{label}: hierarchies diverge");
            }
        }
    }

    #[test]
    fn contention_only_adds_cycles() {
        let (mut solo, _) = pair();
        let (mut c0, mut c1) = pair();
        let pid = ProcessId::new(1);
        let t0 = trace(7, 800);
        let t1 = trace(8, 800);
        let solo_out = batch(&mut [CoreRun { hierarchy: &mut solo, pid, ops: &t0 }], &mut [], None);
        let contended = batch(
            &mut [
                CoreRun { hierarchy: &mut c0, pid, ops: &t0 },
                CoreRun { hierarchy: &mut c1, pid, ops: &t1 },
            ],
            &mut [],
            None,
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
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let primary = a.cores[0];
        assert!(primary.cycles >= primary.base_cycles);
        assert_eq!(primary.cycles, primary.base_cycles + primary.bus_wait);
    }

    #[test]
    fn core_order_only_moves_queuing_waits() {
        // Three *distinct* cores with fixed traces, permuted: clock
        // ties resolve by core index, so individual queuing waits may
        // shift — but everything the caches and MSHRs decide is
        // ordering-invariant per core (ops, base cycles, transaction
        // and coalesce counts), and so is the bus's transaction
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
            (r.ops, r.base_cycles, r.mem_reads, r.mem_writebacks, r.mshr_coalesced)
        };
        let run = |perm: [usize; 3]| {
            let mut hs: Vec<Hierarchy> = perm.iter().map(|&c| build(c as u64)).collect();
            let mut cores: Vec<CoreRun<'_>> = hs
                .iter_mut()
                .zip(perm.iter())
                .map(|(h, &c)| CoreRun { hierarchy: h, pid: ProcessId::new(1), ops: &traces[c] })
                .collect();
            let out = batch(&mut cores, &mut [], None);
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
            );
            let pid = ProcessId::new(1 + c as u16);
            h.set_process_seed(pid, Seed::new(salt.wrapping_mul(31) ^ c | 1));
            cores.push(h);
            pids.push(pid);
        }
        let mut llc =
            SharedLlc::new(mk("SLLC", CacheGeometry::new(64, 4, 32).unwrap(), salt ^ 0x55));
        for (c, &pid) in pids.iter().enumerate() {
            llc.set_process_seed(pid, Seed::new(salt.wrapping_mul(77) ^ c as u64 | 1));
        }
        (cores, pids, llc)
    }

    #[test]
    fn shared_batch_engine_matches_shared_scalar_engine() {
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
                execute_scalar(&mut cores, &mut [], Some(&mut llc))
            } else {
                batch(&mut cores, &mut [], Some(&mut llc))
            };
            let stats: Vec<_> = hs.iter().map(|h| h.total_stats()).collect();
            let contents: Vec<_> = llc.cache().contents().collect();
            (out, stats, *llc.cache().stats(), contents)
        };
        assert_eq!(run(true), run(false));
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
            let out = batch(&mut cores, &mut [], Some(&mut llc));
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
            );
            (out, *llc.cache().stats())
        };
        let (a, llc_a) = run();
        let (b, llc_b) = run();
        assert_eq!(a, b);
        assert_eq!(llc_a, llc_b);
        assert!(a.cores[1].ops > 0, "enemy never ran");
        let primary = a.cores[0];
        assert_eq!(primary.cycles, primary.base_cycles + primary.bus_wait);
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
    fn coherent_run_fits_the_sharer_directory_or_panics() {
        // Every core writes the one tracked line, so each sets its own
        // sharer bit and drains the others'.
        let ops = [TraceOp::write(Addr::new(0)), TraceOp::read(Addr::new(0))];
        let run = |n: usize| {
            let (mut hs, pids, mut llc) = shared_platform(n, 3);
            llc.add_coherent_range(Addr::new(0), 32);
            let mut cores: Vec<CoreRun<'_>> = hs
                .iter_mut()
                .zip(&pids)
                .map(|(h, &pid)| CoreRun { hierarchy: h, pid, ops: &ops })
                .collect();
            batch(&mut cores, &mut [], Some(&mut llc))
        };
        assert_eq!(run(SharedLlc::DIRECTORY_CORES).cores.len(), SharedLlc::DIRECTORY_CORES);
        let panic = std::panic::catch_unwind(|| run(SharedLlc::DIRECTORY_CORES + 1))
            .expect_err("a 33-core coherent run must not alias a sharer bit");
        let msg = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("exceeds the 32-core sharer directory"), "{msg}");
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
    fn co_runner_mshr_windows_expire_with_its_op_sequence() {
        // A cyclic enemy trace of `lines` lines all aliasing one 4-way
        // LRU L1D set, with the L2 warm: every access misses the L1D
        // and hits the L2, so the L1D is the one level whose MSHR file
        // the enemy reaches.
        let run = |lines: u64| {
            let enemy_ops: Vec<TraceOp> =
                (0..lines).map(|i| TraceOp::read(Addr::new(i * 128 * 32))).collect();
            let mut enemy = SetupKind::Deterministic.build(3);
            enemy.access_batch_cycles(ProcessId::new(9), &enemy_ops); // warm L2
            let warm = (enemy.l1d().stats().hits(), enemy.l2().stats().misses());
            let mut co = vec![CoRunner::new(enemy, ProcessId::new(9), enemy_ops.into())];
            let mut h = SetupKind::Deterministic.build(1);
            let t = trace(5, 2000);
            let out = batch(
                &mut [CoreRun { hierarchy: &mut h, pid: ProcessId::new(1), ops: &t }],
                &mut co,
                None,
            );
            let report = out.cores[1];
            assert!(report.ops > 32, "enemy barely ran; test needs several trace cycles");
            let enemy = co[0].hierarchy();
            assert_eq!(enemy.l1d().stats().hits(), warm.0, "no access hits L1D");
            assert_eq!(enemy.l2().stats().misses(), warm.1, "no access misses L2");
            report
        };
        // 16 lines: a line misses again 16 ops after its last miss,
        // past the 8-op window, so its fill has landed: nothing may
        // coalesce.
        assert_eq!(run(16).mshr_coalesced, 0);
        // 5 lines: a line misses again 5 ops later. Ops 0-4 start
        // fills, ops 5-9 ride them and op 10, 10 ops after op 0,
        // starts a fill again: 5 of every 10 ops coalesce. The file is
        // a ring indexed by the core's op sequence number; a number
        // that stopped growing would write every fill to one slot, so
        // only the last fill started would count as in flight, and no
        // line here follows itself.
        let report = run(5);
        let want = report.ops / 10 * 5 + (report.ops % 10).saturating_sub(5);
        assert!(want > 0);
        assert_eq!(report.mshr_coalesced, want);
    }

    #[test]
    fn a_repeat_miss_coalesces_within_eight_ops_of_the_same_core() {
        // One core on an L1-only private platform whose direct-mapped
        // L1D sends lines A and B (and nothing else) to set 0, so each
        // evicts the other and the L1D is the last level. Every miss
        // there starts a fill, unless the same line's fill started
        // fewer than eight ops ago: A at op 7 rides op 0's fill, while
        // B at op 9, exactly eight ops after op 1, starts its own.
        use tscache_core::cache::Cache;
        use tscache_core::geometry::CacheGeometry;
        use tscache_core::placement::PlacementKind;
        use tscache_core::replacement::ReplacementKind;
        let geom = CacheGeometry::new(8, 1, 32).unwrap();
        let l1 = |label| Cache::new(label, geom, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        let mut h = Hierarchy::from_private_parts(l1("L1I"), l1("L1D"), Vec::new());
        let [a, b, x] = [0, 256, 32].map(|at| TraceOp::read(Addr::new(at)));
        // Ops:     0  1  2  3  4  5  6  7  8  9
        let ops = [a, b, x, x, x, x, x, a, x, b];
        let out = batch(
            &mut [CoreRun { hierarchy: &mut h, pid: ProcessId::new(1), ops: &ops }],
            &mut [],
            None,
        );
        assert_eq!(h.l1d().stats().misses(), 5, "A, B, X, A and B miss");
        let core = out.cores[0];
        assert_eq!(core.mshr_coalesced, 1, "only A at op 7 rides a fill in flight");
        assert_eq!(core.mem_reads, 4, "ops 0, 1, 2 and 9 read memory");
    }
}
