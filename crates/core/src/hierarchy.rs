//! Multi-level memory hierarchy: split L1 (instruction + data) backed
//! by a configurable stack of unified levels (L2, and optionally an L3
//! or deeper), with per-level hit latencies and a whole-trace batch
//! path.
//!
//! # Batch execution
//!
//! [`Hierarchy::access`] is the scalar reference path: one op, walked
//! down the levels until it hits. [`Hierarchy::access_batch`] executes
//! a whole [`TraceOp`] segment with identical outcomes but amortized
//! bookkeeping: the L1s are driven in maximal same-port runs through
//! [`Cache::access_batch_collect`], each level's *miss stream* (kept in
//! op order) becomes the access stream of the next level down, and
//! statistics are folded in per level instead of per op. Because every
//! cache draws from its own RNG and upper-level accesses never touch
//! lower-level state, deferring each level's accesses until its full
//! input stream is known reproduces the scalar interleaving bit for
//! bit — the differential test suite pins this across every placement
//! × replacement combination and both hierarchy depths.

use crate::addr::{Addr, LineAddr};
use crate::cache::{
    AccessOutcome, BatchIo, BatchOutcome, Cache, InvalidatedCopy, WritePolicy, Writeback,
};
use crate::defense::{DefenseKind, RotationPolicy};
use crate::geometry::CacheGeometry;
use crate::placement::PlacementKind;
use crate::replacement::ReplacementKind;
use crate::seed::{ProcessId, Seed};
use crate::stats::CacheStats;
use core::fmt;

/// Access latencies in cycles for the classic two-level platform,
/// modelled after an ARM920T-class part (paper §6.1.2): single-cycle
/// L1 hits, a 10-cycle L2 penalty and an 80-cycle memory penalty.
///
/// Deeper hierarchies carry one hit latency per unified level inside
/// [`Hierarchy`]; this struct remains the convenient two-level view
/// (see [`Hierarchy::latencies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Cycles for an L1 hit.
    pub l1_hit: u32,
    /// Additional cycles when the access hits in L2.
    pub l2_hit: u32,
    /// Additional cycles when the access goes to memory.
    pub memory: u32,
}

/// Additional cycles charged for an L3 hit in the three-level presets.
pub const L3_HIT_CYCLES: u32 = 30;

impl Default for Latencies {
    fn default() -> Self {
        Latencies { l1_hit: 1, l2_hit: 10, memory: 80 }
    }
}

impl fmt::Display for Latencies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L1 {}c / +L2 {}c / +mem {}c", self.l1_hit, self.l2_hit, self.memory)
    }
}

/// Which first-level cache an access goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (L1I).
    Fetch,
    /// Data read (L1D).
    Read,
    /// Data write (L1D, write-allocate).
    Write,
    /// Line flush (`clflush`-style): invalidates the line from every
    /// private level (dirty copies are forced to memory, counted as
    /// writebacks) without filling anything. On a coherent shared-LLC
    /// platform the flush additionally drains every coherence-tracked
    /// copy — the other cores' private copies and the shared-level
    /// copies — which is the attacker primitive of Flush+Reload.
    Flush,
}

/// One memory operation of a pre-built trace, consumed by
/// [`Hierarchy::access_batch`] (and re-exported as the simulator's
/// `TraceOp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Which port the access uses.
    pub kind: AccessKind,
    /// The byte address to access.
    pub addr: Addr,
}

impl TraceOp {
    /// An instruction fetch.
    #[inline]
    pub const fn fetch(addr: Addr) -> Self {
        TraceOp { kind: AccessKind::Fetch, addr }
    }

    /// A data read.
    #[inline]
    pub const fn read(addr: Addr) -> Self {
        TraceOp { kind: AccessKind::Read, addr }
    }

    /// A data write.
    #[inline]
    pub const fn write(addr: Addr) -> Self {
        TraceOp { kind: AccessKind::Write, addr }
    }

    /// A line flush (see [`AccessKind::Flush`]).
    #[inline]
    pub const fn flush(addr: Addr) -> Self {
        TraceOp { kind: AccessKind::Flush, addr }
    }

    /// A deterministic mixed fetch/read/write trace derived from
    /// `salt`, with addresses spread over `footprint` bytes and
    /// roughly one third of the ops per kind — the shared traffic
    /// generator of the differential/property suites, also handy as a
    /// synthetic enemy workload.
    pub fn mixed_trace(salt: u64, len: usize, footprint: u64) -> Vec<TraceOp> {
        let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = Addr::new((state >> 16) % footprint);
                match state % 3 {
                    0 => TraceOp::fetch(addr),
                    1 => TraceOp::read(addr),
                    _ => TraceOp::write(addr),
                }
            })
            .collect()
    }
}

/// Per-op timing event produced by
/// [`Hierarchy::access_detailed`] and
/// [`Hierarchy::access_batch_timed`]: everything the multi-core
/// interference engine needs to replay the op against a shared bus —
/// its solo cycle cost, which levels it missed, and how many dirty
/// writebacks it pushed all the way to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Cycle cost of the op with no contention (exactly what
    /// [`Hierarchy::access`] returns).
    pub cycles: u32,
    /// Bit `0` = the op missed its L1; bit `k` = it missed unified
    /// level `k-1` (L2 = bit 1, L3 = bit 2, …).
    pub miss_mask: u8,
    /// Dirty-eviction writebacks that cascaded past every cache level
    /// and reached memory during this op (bus write transactions).
    pub mem_writebacks: u8,
}

impl OpTiming {
    /// Whether the op went all the way to memory (a bus read
    /// transaction), for a hierarchy of `depth` levels (split L1
    /// counted once, as [`Hierarchy::depth`] reports).
    #[inline]
    pub fn memory_read(&self, depth: usize) -> bool {
        self.miss_mask >> (depth - 1) & 1 == 1
    }
}

/// Timing of one op through the *private* levels of a hierarchy whose
/// last unified level lives elsewhere (a shared LLC): produced by
/// [`Hierarchy::access_upper_detailed`]. The shared-level cost is
/// composed by the caller once it resolves [`fill`](Self::fill)
/// against the shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperOutcome {
    /// Cycle cost through the private levels (L1 hit plus each
    /// consulted private unified level's hit cycles).
    pub cycles: u32,
    /// Bit `0` = missed the L1; bit `k` = missed private unified level
    /// `k-1`. The shared level's bit is composed by the caller.
    pub miss_mask: u8,
    /// The line to request from the shared level (every private level
    /// missed), or `None` on a private hit.
    pub fill: Option<LineAddr>,
    /// Writebacks this op forced straight to memory, bypassing the
    /// shared level: the dirty private copies a [`AccessKind::Flush`]
    /// op drains (zero for ordinary accesses, whose escaped writebacks
    /// travel through the exported request stream instead).
    pub mem_writebacks: u8,
}

/// Aggregate of one [`Hierarchy::invalidate_line`] call: how many
/// copies a coherence action dropped across the hierarchy's levels,
/// and how many of them were dirty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyInvalidation {
    /// Valid copies dropped.
    pub copies: u32,
    /// Dropped copies that were dirty (data forced out).
    pub dirty: u32,
}

/// The request stream one core sends its shared last-level cache for a
/// trace segment, exported by [`Hierarchy::access_batch_upper_timed`]:
/// the last private level's miss stream (fill requests, with
/// originating op indices) and the dirty-eviction writebacks no
/// private level absorbed, both in op order. `writebacks` carry
/// nondecreasing `op_idx`, and a writeback of op `i` precedes op `i`'s
/// fill — the order the scalar walk's victim buffer drains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LlcRequests {
    /// Fill requests (lines that missed every private level).
    pub fills: Vec<LineAddr>,
    /// Originating op index per fill, parallel to `fills`.
    pub fill_idx: Vec<u32>,
    /// Writebacks bound for the shared level, in delivery order.
    pub writebacks: Vec<Writeback>,
}

impl LlcRequests {
    /// Empties all three streams.
    pub fn clear(&mut self) {
        self.fills.clear();
        self.fill_idx.clear();
        self.writebacks.clear();
    }

    /// Consumes op `op_idx`'s requests off the front of the streams,
    /// advancing the caller's cursors: the writebacks the op escaped
    /// (to deliver *before* its fill) and the fill request, if any.
    /// The one consumption order every shared-LLC engine must share —
    /// having a single implementation is what keeps the scalar and
    /// batch engines structurally incapable of diverging here.
    pub fn take_for_op(
        &self,
        op_idx: u32,
        fill_pos: &mut usize,
        wb_pos: &mut usize,
    ) -> (Option<LineAddr>, &[Writeback]) {
        let wb_start = *wb_pos;
        while *wb_pos < self.writebacks.len() && self.writebacks[*wb_pos].op_idx == op_idx {
            *wb_pos += 1;
        }
        let fill = if *fill_pos < self.fills.len() && self.fill_idx[*fill_pos] == op_idx {
            *fill_pos += 1;
            Some(self.fills[*fill_pos - 1])
        } else {
            None
        };
        (fill, &self.writebacks[wb_start..*wb_pos])
    }
}

/// A last-level cache shared by every core of a multicore platform:
/// one [`Cache`] instance plus the hit and memory latencies the levels
/// above it compose with. Per-core traffic enters under each core's
/// own [`ProcessId`], so per-core way partitions (the §7 partitioning
/// alternative, applied at the shared level) and cross-core eviction
/// accounting fall out of the existing cache model.
///
/// # Coherence
///
/// Declaring a *coherent range* ([`add_coherent_range`]
/// [`has_coherence`]) arms the MSI-style invalidation protocol: the
/// shared level keeps a directory mapping each tracked line to the
/// bitmap of cores holding private copies, and the multicore engines
/// drain those copies — on cross-core writes (upgrades), on
/// [`AccessKind::Flush`] broadcasts, and on shared-level eviction of a
/// tracked line (inclusive back-invalidation) — in deterministic
/// global op order. Untracked lines stay per-core private, exactly the
/// pre-coherence model, and pay none of the bookkeeping.
///
/// [`add_coherent_range`]: Self::add_coherent_range
/// [`has_coherence`]: Self::has_coherence
///
/// The shared level sits *behind* the per-core private hierarchies
/// ([`Hierarchy::access_upper_detailed`] /
/// [`Hierarchy::access_batch_upper_timed`] produce its request
/// streams) and *in front of* the memory bus: a shared-LLC hit never
/// pays a bus transaction, only misses and writebacks that reach
/// memory do.
#[derive(Debug)]
pub struct SharedLlc {
    cache: Cache,
    hit_cycles: u32,
    memory: u32,
    /// Coherence directory: tracked line → bitmap of cores holding
    /// private copies. Only lines inside a declared coherent range
    /// ever enter; empty on platforms without coherence.
    ///
    /// A HashMap is sound here *only* because the directory is pure
    /// keyed lookup: entry/get/remove, never iterated, so the seeded
    /// bucket order can't reach any record or digest. It sits on the
    /// shared-fill hot path, where BTreeMap lookups cost ~10-20% of
    /// defense-suite throughput (BENCH_PR10 bar).
    #[allow(clippy::disallowed_types)]
    // detlint: allow(D2, keyed lookup only — entry/get/remove, never iterated; hot shared-fill path where BTreeMap costs >10% defense-suite throughput)
    directory: std::collections::HashMap<u64, u32>,
    /// Armed seed-rotation policy (defense zoo): re-derives placement
    /// seeds on a deterministic fill-count cadence.
    rotation: RotationPolicy,
    /// Fill requests resolved since construction (the rotation clock;
    /// only ticked while a rotation policy is armed).
    rotation_ops: u64,
    /// Completed rotations (drives both round-robin group selection
    /// and the per-epoch seed derivation).
    rotation_epoch: u64,
    /// Pre-derivation base seed per process, recorded by
    /// [`set_process_seed`](Self::set_process_seed), sorted by pid —
    /// what each rotation epoch re-derives from.
    rotation_base: Vec<(u16, Seed)>,
    /// Partition-group membership `(pid, group)`, sorted by pid, for
    /// [`RotationPolicy::PerPartition`]. Processes without an entry
    /// form implicit singleton groups.
    rotation_groups: Vec<(u16, u8)>,
}

/// Outcome of one fill request against a [`SharedLlc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcFill {
    /// The line was present in the shared level.
    pub hit: bool,
    /// The fill displaced a dirty line, which must be written to
    /// memory (one bus write transaction).
    pub mem_writeback: bool,
}

impl SharedLlc {
    /// Wraps `cache` as a shared last level with the given additional
    /// hit cycles and memory penalty.
    pub fn new(cache: Cache, hit_cycles: u32, memory: u32) -> Self {
        SharedLlc {
            cache,
            hit_cycles,
            memory,
            #[allow(clippy::disallowed_types)]
            // detlint: allow(D2, ctor for the keyed-lookup-only directory field; see field doc)
            directory: std::collections::HashMap::new(),
            rotation: RotationPolicy::Off,
            rotation_ops: 0,
            rotation_epoch: 0,
            rotation_base: Vec::new(),
            rotation_groups: Vec::new(),
        }
    }

    /// The underlying cache (statistics, contents, policy inspection).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Mutably borrows the underlying cache (partition and seed
    /// management, probes).
    pub fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    /// Additional cycles charged when a lookup reaches this level.
    pub fn hit_cycles(&self) -> u32 {
        self.hit_cycles
    }

    /// Additional cycles charged when this level misses.
    pub fn memory_cycles(&self) -> u32 {
        self.memory
    }

    /// Sets the placement seed of `pid`, on a derivation stream
    /// distinct from every private level's
    /// (cf. [`Hierarchy::set_process_seed`]).
    pub fn set_process_seed(&mut self, pid: ProcessId, seed: Seed) {
        let raw = pid.as_u16();
        match self.rotation_base.binary_search_by_key(&raw, |&(p, _)| p) {
            Ok(i) => self.rotation_base[i] = (raw, seed),
            Err(i) => self.rotation_base.insert(i, (raw, seed)),
        }
        self.cache.set_seed(pid, seed.derive(0x11c));
    }

    /// Arms (or disarms) a seed-rotation policy. The rotation clock
    /// counts fill requests; every `period` fills one rotation group
    /// (round-robin over partition groups for
    /// [`RotationPolicy::PerPartition`], over processes for
    /// [`RotationPolicy::PerCore`]) gets its seeds re-derived from the
    /// bases recorded by [`set_process_seed`](Self::set_process_seed),
    /// and its lines flushed (the §5 seed-change consistency flush).
    pub fn set_rotation(&mut self, policy: RotationPolicy) {
        self.rotation = policy;
    }

    /// The armed rotation policy.
    pub fn rotation(&self) -> RotationPolicy {
        self.rotation
    }

    /// Completed rotation epochs (0 until the first rotation fires).
    pub fn rotation_epoch(&self) -> u64 {
        self.rotation_epoch
    }

    /// Declares `pid` a member of partition `group` for
    /// [`RotationPolicy::PerPartition`] (typically the core index that
    /// owns the pid's way partition). Processes never declared form
    /// implicit singleton groups.
    pub fn set_rotation_group(&mut self, pid: ProcessId, group: u8) {
        let raw = pid.as_u16();
        match self.rotation_groups.binary_search_by_key(&raw, |&(p, _)| p) {
            Ok(i) => self.rotation_groups[i] = (raw, group),
            Err(i) => self.rotation_groups.insert(i, (raw, group)),
        }
    }

    /// Arms the TTL / normalization knobs of `defense` on the shared
    /// cache and its rotation policy on this level.
    /// ([`DefenseKind::RandomSafe`] is a *configuration*: build the
    /// platform with [`DefenseKind::effective_setup`] instead.)
    pub fn apply_defense(&mut self, defense: DefenseKind) {
        self.cache.set_ttl(defense.ttl());
        self.cache.set_normalize(defense.normalize());
        self.set_rotation(defense.rotation());
    }

    /// Advances the rotation clock by one fill request and fires a
    /// rotation when the cadence comes due. Ticks only on fill
    /// requests — never on writeback-only resolutions — so the
    /// schedule is a pure function of the fill stream and scalar/batch
    /// executions cannot diverge.
    fn rotation_tick(&mut self) {
        let Some(period) = self.rotation.period() else { return };
        self.rotation_ops += 1;
        if !self.rotation_ops.is_multiple_of(period) || self.rotation_base.is_empty() {
            return;
        }
        self.rotation_epoch += 1;
        let epoch = self.rotation_epoch;
        let members: Vec<(u16, Seed)> = match self.rotation {
            RotationPolicy::PerCore { .. } => {
                let idx = ((epoch - 1) % self.rotation_base.len() as u64) as usize;
                vec![self.rotation_base[idx]]
            }
            RotationPolicy::PerPartition { .. } => {
                // Distinct declared groups, round-robin; processes
                // without a group rotate together as the implicit
                // remainder group when no group is declared at all.
                let mut groups: Vec<u8> = self.rotation_groups.iter().map(|&(_, g)| g).collect();
                groups.sort_unstable();
                groups.dedup();
                if groups.is_empty() {
                    self.rotation_base.clone()
                } else {
                    let g = groups[((epoch - 1) % groups.len() as u64) as usize];
                    self.rotation_base
                        .iter()
                        .copied()
                        .filter(|&(p, _)| {
                            self.rotation_groups
                                .binary_search_by_key(&p, |&(q, _)| q)
                                .map(|i| self.rotation_groups[i].1)
                                == Ok(g)
                        })
                        .collect()
                }
            }
            RotationPolicy::Off => unreachable!("period() returned Some"),
        };
        for (raw, base) in members {
            let pid = ProcessId::new(raw);
            // Chain past the construction-time derivation so every
            // epoch lands on a fresh, reproducible seed.
            self.cache.set_seed(pid, base.derive(0x11c).derive(0x520 + epoch));
            self.cache.flush_process(pid);
        }
    }

    /// Confines `pid` to fill ways `lo..hi` of the shared level — the
    /// per-core partition of the §7 ablation (give each core's
    /// processes a disjoint range and cross-core evictions vanish).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the associativity.
    pub fn set_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        self.cache.set_way_partition(pid, lo, hi);
    }

    /// Removes `pid`'s way partition on the shared level.
    pub fn clear_way_partition(&mut self, pid: ProcessId) {
        self.cache.clear_way_partition(pid);
    }

    /// Sets the shared level's write policy.
    pub fn set_write_policy(&mut self, policy: WritePolicy) {
        self.cache.set_write_policy(policy);
    }

    /// Invalidates every line of the shared level and forgets the
    /// coherence directory (a whole-LLC flush accompanies a platform-
    /// wide flush, after which no private copies survive either — the
    /// caller is responsible for flushing the private hierarchies).
    pub fn flush(&mut self) {
        self.cache.flush();
        self.directory.clear();
    }

    /// Invalidates every line of `pid` in the shared level (the §5
    /// consistency flush that must accompany a reseed of `pid`).
    pub fn flush_process(&mut self, pid: ProcessId) {
        self.cache.flush_process(pid);
    }

    /// Marks `size` bytes at `start` as protected (RPCache P-bit,
    /// e.g. over the AES tables) in the shared level, mirroring
    /// [`Hierarchy::add_protected_range`].
    pub fn add_protected_range(&mut self, start: Addr, size: u64) {
        let bits = self.cache.geometry().offset_bits();
        let first = start.line(bits);
        let last = start.offset(size.saturating_sub(1)).line(bits).offset(1);
        self.cache.add_protected_range(first, last);
    }

    /// Marks `size` bytes at `start` as coherence-tracked at the
    /// shared level, arming the invalidation protocol for that range
    /// (see the type-level *Coherence* section). Mirror the range into
    /// each core's private hierarchy via
    /// [`Hierarchy::add_coherent_range`] so private fills carry their
    /// MSI state too.
    pub fn add_coherent_range(&mut self, start: Addr, size: u64) {
        let bits = self.cache.geometry().offset_bits();
        let first = start.line(bits);
        let last = start.offset(size.saturating_sub(1)).line(bits).offset(1);
        self.cache.add_coherent_range(first, last);
    }

    /// Whether any coherent range is declared (the invalidation
    /// protocol is armed).
    pub fn has_coherence(&self) -> bool {
        self.cache.has_coherent_ranges()
    }

    /// Whether `line` is coherence-tracked.
    pub fn is_coherent_line(&self, line: LineAddr) -> bool {
        self.cache.is_coherent_addr(line.as_u64())
    }

    /// Records core `core` as holding a private copy of tracked
    /// `line`. The directory is *imprecise* in the usual way: a silent
    /// private eviction leaves a stale sharer bit, which later costs a
    /// no-op invalidation, never a correctness error.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `core` exceeds the 32-core bitmap.
    pub fn note_sharer(&mut self, line: LineAddr, core: usize) {
        debug_assert!(core < 32, "directory bitmap holds 32 cores");
        *self.directory.entry(line.as_u64()).or_insert(0) |= 1u32 << core;
    }

    /// Bitmap of cores the directory lists as private-copy holders of
    /// `line` (bit `c` = core `c`).
    pub fn sharers(&self, line: LineAddr) -> u32 {
        self.directory.get(&line.as_u64()).copied().unwrap_or(0)
    }

    /// Drops `line`'s directory entry (flush broadcast), returning the
    /// sharer bitmap it held.
    pub fn clear_sharers(&mut self, line: LineAddr) -> u32 {
        self.directory.remove(&line.as_u64()).unwrap_or(0)
    }

    /// Restricts `line`'s directory entry to `core` alone (the upgrade
    /// outcome: after a write, the writer is the only holder),
    /// returning the bitmap of the *other* cores that held copies —
    /// the ones the caller must now invalidate.
    pub fn retain_sharer(&mut self, line: LineAddr, core: usize) -> u32 {
        debug_assert!(core < 32, "directory bitmap holds 32 cores");
        let entry = self.directory.entry(line.as_u64()).or_insert(0);
        let others = *entry & !(1u32 << core);
        *entry = 1u32 << core;
        others
    }

    /// Invalidates the shared-level copy of `line` as placed under
    /// `pid`'s view (each filler pid's seed indexes its own copy — on
    /// per-process-seed platforms the same physical line may sit in
    /// several sets, one per seed, and each is drained under its own
    /// placement).
    pub fn invalidate_copy(&mut self, pid: ProcessId, line: LineAddr) -> InvalidatedCopy {
        self.cache.invalidate_line(pid, line)
    }

    /// One fill request on behalf of `pid`: fills on a miss, reporting
    /// whether a dirty victim must travel to memory. Latency is
    /// composed by the caller from [`hit_cycles`](Self::hit_cycles)
    /// and [`memory_cycles`](Self::memory_cycles).
    pub fn access(&mut self, pid: ProcessId, line: LineAddr) -> LlcFill {
        match self.cache.access(pid, line) {
            AccessOutcome::Hit => LlcFill { hit: true, mem_writeback: false },
            AccessOutcome::Miss { evicted, .. } => {
                LlcFill { hit: false, mem_writeback: evicted.is_some_and(|ev| ev.dirty) }
            }
        }
    }

    /// Delivers a writeback emitted by a core's private levels; returns
    /// `true` when the shared level absorbed it (present copy,
    /// write-back policy), `false` when it must continue to memory.
    pub fn receive_writeback(&mut self, owner: ProcessId, line: LineAddr) -> bool {
        self.cache.receive_writeback(owner, line)
    }

    /// Resolves one op's complete shared-level traffic on behalf of
    /// `pid`: the op's escaped private-level writebacks are delivered
    /// first (victim-drain order), then the fill request, if any. This
    /// is THE shared-level resolution — every consumer (the multicore
    /// engines' per-op composition and the machine's scalar ops)
    /// funnels through it, so the latency/traffic contract cannot
    /// silently diverge between paths.
    pub fn resolve(
        &mut self,
        pid: ProcessId,
        fill: Option<LineAddr>,
        writebacks: &[Writeback],
    ) -> LlcResolution {
        self.resolve_evict(pid, fill, writebacks).0
    }

    /// [`resolve`](Self::resolve), additionally reporting the line the
    /// fill displaced from the shared level (if any) so the coherence
    /// layer can back-invalidate a tracked victim's private copies
    /// (inclusive-LLC semantics).
    pub fn resolve_evict(
        &mut self,
        pid: ProcessId,
        fill: Option<LineAddr>,
        writebacks: &[Writeback],
    ) -> (LlcResolution, Option<LineAddr>) {
        let mut r = LlcResolution { cycles: 0, miss: false, mem_writebacks: 0 };
        let mut evicted_line = None;
        if fill.is_some() {
            self.rotation_tick();
        }
        for wb in writebacks {
            if !self.receive_writeback(wb.owner, wb.line) {
                r.mem_writebacks += 1;
            }
        }
        if let Some(line) = fill {
            r.cycles += self.hit_cycles;
            match self.cache.access(pid, line) {
                AccessOutcome::Hit => {}
                AccessOutcome::Miss { evicted, .. } => {
                    r.miss = true;
                    r.cycles += self.memory;
                    if let Some(ev) = evicted {
                        r.mem_writebacks += ev.dirty as u8;
                        evicted_line = Some(ev.line);
                    }
                }
            }
        }
        (r, evicted_line)
    }
}

/// Outcome of [`SharedLlc::resolve`]: what one op's shared-level
/// traffic costs and sends to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcResolution {
    /// Additional cycles the shared level charges (hit cycles, plus
    /// the memory penalty on a miss; zero without a fill request).
    pub cycles: u32,
    /// The fill missed the shared level (an off-chip read — one bus
    /// read transaction).
    pub miss: bool,
    /// Writebacks that passed the shared level to memory (unabsorbed
    /// private writebacks plus a dirty shared-level victim) — bus
    /// write transactions.
    pub mem_writebacks: u8,
}

/// Per-level aggregate of one [`Hierarchy::access_batch`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyBatchOutcome {
    /// Operations executed.
    pub ops: u64,
    /// Total cycle cost of the batch.
    pub cycles: u64,
    /// L1I aggregate (the batch's fetches).
    pub l1i: BatchOutcome,
    /// L1D aggregate (the batch's reads and writes).
    pub l1d: BatchOutcome,
    /// One aggregate per unified level, L2 outward. The level's
    /// access count is the miss count of the levels above it.
    pub unified: Vec<BatchOutcome>,
    /// Dirty writebacks that cascaded past every level to memory.
    pub mem_writebacks: u64,
}

impl HierarchyBatchOutcome {
    /// Accesses that left the last cache level and went to memory.
    pub fn memory_accesses(&self) -> u64 {
        self.unified.last().map_or(self.l1i.misses + self.l1d.misses, |l| l.misses)
    }
}

/// One unified cache level below the split L1s.
#[derive(Debug)]
struct UnifiedLevel {
    cache: Cache,
    /// Additional cycles charged when the lookup reaches this level.
    hit_cycles: u32,
}

/// A split-L1 hierarchy over a configurable vector of unified levels.
///
/// All levels must share one line size so a line address carries
/// unchanged down the miss path (asserted at construction; every
/// preset uses 32-byte lines).
///
/// # Examples
///
/// ```
/// use tscache_core::hierarchy::{AccessKind, Hierarchy};
/// use tscache_core::setup::SetupKind;
/// use tscache_core::seed::{ProcessId, Seed};
/// use tscache_core::addr::Addr;
///
/// let mut h = SetupKind::TsCache.build(1234);
/// let pid = ProcessId::new(1);
/// h.set_process_seed(pid, Seed::new(77));
/// let cold = h.access(pid, AccessKind::Read, Addr::new(0x8000));
/// let warm = h.access(pid, AccessKind::Read, Addr::new(0x8000));
/// assert!(cold > warm);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    /// Unified levels in lookup order (L2 first).
    levels: Vec<UnifiedLevel>,
    l1_hit: u32,
    memory: u32,
    /// Cached `any level is write-back` flag (kept fresh by
    /// [`set_write_policy`](Self::set_write_policy)); selects between
    /// the lean write-through walks and the event-conduit walks.
    has_writeback: bool,
    /// Reused batch scratch: per-run line buffer and the ping-pong
    /// miss buffers threaded between levels.
    scratch_lines: Vec<LineAddr>,
    scratch_cur: Vec<LineAddr>,
    scratch_next: Vec<LineAddr>,
    /// Extra scratch of the event-conduit walk (write-back configs and
    /// timed batches): per-run write flags and op indices, the miss
    /// streams' op indices, and the ping-pong writeback buffers.
    scratch_writes: Vec<bool>,
    scratch_run_idx: Vec<u32>,
    scratch_cur_idx: Vec<u32>,
    scratch_next_idx: Vec<u32>,
    scratch_wb_cur: Vec<Writeback>,
    scratch_wb_next: Vec<Writeback>,
    /// Flush events `(op_idx, line)` of the current batch, threaded
    /// through every level of the event-conduit walk.
    scratch_flushes: Vec<(u32, LineAddr)>,
}

impl Hierarchy {
    /// Assembles the classic two-level hierarchy from three caches and
    /// a latency model. The caches are taken in `(l1i, l1d, l2)` order.
    pub fn new(l1i: Cache, l1d: Cache, l2: Cache, latencies: Latencies) -> Self {
        Hierarchy::from_parts(
            l1i,
            l1d,
            vec![(l2, latencies.l2_hit)],
            latencies.l1_hit,
            latencies.memory,
        )
    }

    /// Assembles a hierarchy of arbitrary depth: split L1s plus one
    /// `(cache, additional hit cycles)` pair per unified level, in
    /// lookup order.
    ///
    /// # Panics
    ///
    /// Panics if `unified` is empty or any level's line size differs
    /// from the L1s'.
    pub fn from_parts(
        l1i: Cache,
        l1d: Cache,
        unified: Vec<(Cache, u32)>,
        l1_hit: u32,
        memory: u32,
    ) -> Self {
        assert!(!unified.is_empty(), "hierarchy needs at least one unified level");
        Hierarchy::from_private_parts(l1i, l1d, unified, l1_hit, memory)
    }

    /// Assembles the *private* portion of a core on a shared-LLC
    /// platform: split L1s plus zero or more private unified levels
    /// (the shared last level lives in a [`SharedLlc`] owned by the
    /// platform, not here). Unlike [`from_parts`](Self::from_parts),
    /// `unified` may be empty — a two-level platform with a shared L2
    /// keeps only the L1s per core.
    ///
    /// Drive such a hierarchy through
    /// [`access_upper_detailed`](Self::access_upper_detailed) /
    /// [`access_batch_upper_timed`](Self::access_batch_upper_timed);
    /// the full-walk entry points would charge the memory penalty on a
    /// last-*private*-level miss, ignoring the shared level.
    ///
    /// # Panics
    ///
    /// Panics if any level's line size differs from the L1s'.
    pub fn from_private_parts(
        l1i: Cache,
        l1d: Cache,
        unified: Vec<(Cache, u32)>,
        l1_hit: u32,
        memory: u32,
    ) -> Self {
        let line = l1i.geometry().line_bytes();
        assert_eq!(l1d.geometry().line_bytes(), line, "L1D line size differs from L1I");
        for (cache, _) in &unified {
            assert_eq!(
                cache.geometry().line_bytes(),
                line,
                "{} line size differs from L1 ({}B)",
                cache.label(),
                line
            );
        }
        let mut h = Hierarchy {
            l1i,
            l1d,
            levels: unified
                .into_iter()
                .map(|(cache, hit_cycles)| UnifiedLevel { cache, hit_cycles })
                .collect(),
            l1_hit,
            memory,
            has_writeback: false,
            scratch_lines: Vec::new(),
            scratch_cur: Vec::new(),
            scratch_next: Vec::new(),
            scratch_writes: Vec::new(),
            scratch_run_idx: Vec::new(),
            scratch_cur_idx: Vec::new(),
            scratch_next_idx: Vec::new(),
            scratch_wb_cur: Vec::new(),
            scratch_wb_next: Vec::new(),
            scratch_flushes: Vec::new(),
        };
        h.refresh_has_writeback();
        h
    }

    /// Builds the paper's two-level geometry with uniform policies in
    /// the L1s and a (possibly different) policy in L2.
    pub fn with_policies(
        l1_placement: PlacementKind,
        l1_replacement: ReplacementKind,
        l2_placement: PlacementKind,
        l2_replacement: ReplacementKind,
        rng_seed: u64,
    ) -> Self {
        let l1 = CacheGeometry::paper_l1();
        let l2 = CacheGeometry::paper_l2();
        Hierarchy::new(
            Cache::new("L1I", l1, l1_placement, l1_replacement, rng_seed ^ 0x11),
            Cache::new("L1D", l1, l1_placement, l1_replacement, rng_seed ^ 0x22),
            Cache::new("L2", l2, l2_placement, l2_replacement, rng_seed ^ 0x33),
            Latencies::default(),
        )
    }

    /// The two-level latency view: L1 hit, first-unified-level hit,
    /// memory. Deeper levels' latencies are read per level via
    /// [`level_hit_cycles`](Self::level_hit_cycles).
    pub fn latencies(&self) -> Latencies {
        Latencies { l1_hit: self.l1_hit, l2_hit: self.levels[0].hit_cycles, memory: self.memory }
    }

    /// Replaces the L1-hit, L2-hit and memory latencies (deeper levels
    /// keep their configured hit cycles).
    pub fn set_latencies(&mut self, latencies: Latencies) {
        self.l1_hit = latencies.l1_hit;
        self.levels[0].hit_cycles = latencies.l2_hit;
        self.memory = latencies.memory;
    }

    /// Number of cache levels (the split L1 pair counts as one).
    pub fn depth(&self) -> usize {
        1 + self.levels.len()
    }

    /// Cycles of an L1 hit (safe on L1-only private hierarchies, where
    /// [`latencies`](Self::latencies) has no unified level to report).
    pub fn l1_hit_cycles(&self) -> u32 {
        self.l1_hit
    }

    /// Additional hit cycles of unified level `i` (0 = L2).
    pub fn level_hit_cycles(&self, i: usize) -> u32 {
        self.levels[i].hit_cycles
    }

    /// Performs an access and returns its cost in cycles: the L1 hit
    /// cost, plus each consulted unified level's hit cycles, plus the
    /// memory penalty when every level misses. Each consulted level
    /// fills on its miss.
    pub fn access(&mut self, pid: ProcessId, kind: AccessKind, addr: Addr) -> u32 {
        // Write-through everywhere: no dirty lines can exist, so skip
        // the event/writeback bookkeeping of the detailed walk.
        if self.has_writeback || kind == AccessKind::Flush {
            return self.access_detailed(pid, kind, addr).cycles;
        }
        let l1 = match kind {
            AccessKind::Fetch => &mut self.l1i,
            AccessKind::Read | AccessKind::Write => &mut self.l1d,
            AccessKind::Flush => unreachable!("flush handled by the detailed walk"),
        };
        let line = l1.geometry().line_of(addr);
        let mut cost = self.l1_hit;
        if l1.access(pid, line).is_hit() {
            return cost;
        }
        for level in &mut self.levels {
            cost += level.hit_cycles;
            if level.cache.access(pid, line).is_hit() {
                return cost;
            }
        }
        cost + self.memory
    }

    /// [`access`](Self::access) with the per-op event detail the
    /// interference engine consumes: which levels missed and how many
    /// writebacks reached memory. Writes mark L1D lines dirty under
    /// [`WritePolicy::WriteBack`]; evicting a dirty line delivers its
    /// writeback down the stack (the victim buffer drains *before* the
    /// fill proceeds to the next level), where it silently re-dirties a
    /// present copy or cascades further, ultimately to memory.
    pub fn access_detailed(&mut self, pid: ProcessId, kind: AccessKind, addr: Addr) -> OpTiming {
        let mut escaped = 0u8;
        let up = self.walk_op(pid, kind, addr, 0, |_| escaped += 1);
        OpTiming {
            cycles: up.cycles + if up.fill.is_some() { self.memory } else { 0 },
            miss_mask: up.miss_mask,
            mem_writebacks: up.mem_writebacks + escaped,
        }
    }

    /// [`access_detailed`](Self::access_detailed) for a core whose last
    /// unified level is a [`SharedLlc`] owned elsewhere: walks only the
    /// private levels, and instead of charging the memory penalty
    /// reports the shared-level fill request (if every private level
    /// missed). Writebacks no private level absorbs are appended to
    /// `writebacks`, tagged `op_idx`, in the exact order the victim
    /// buffer drains them — all before the op's fill would reach the
    /// shared level.
    ///
    /// The caller (the multicore interference engine) resolves the
    /// request stream against the shared cache and composes the final
    /// [`OpTiming`].
    pub fn access_upper_detailed(
        &mut self,
        pid: ProcessId,
        kind: AccessKind,
        addr: Addr,
        op_idx: u32,
        writebacks: &mut Vec<Writeback>,
    ) -> UpperOutcome {
        self.walk_op(pid, kind, addr, op_idx, |wb| writebacks.push(wb))
    }

    /// The per-op walk behind both detailed entry points: one op down
    /// the levels until it hits, each consulted level filling on its
    /// miss. A dirty eviction's writeback is delivered down the stack
    /// before the fill proceeds (victim-buffer order); one that no
    /// level absorbs goes to `escaped`, which counts it toward memory
    /// or exports it toward a shared level. A miss at every level
    /// leaves the line in [`UpperOutcome::fill`]. A flush costs its
    /// issue slot and drains the private copies; their dirty data goes
    /// straight to memory (`mem_writebacks`, clflush semantics),
    /// bypassing `escaped` and any shared level, whose copy the
    /// coherence layer drains separately.
    fn walk_op(
        &mut self,
        pid: ProcessId,
        kind: AccessKind,
        addr: Addr,
        op_idx: u32,
        mut escaped: impl FnMut(Writeback),
    ) -> UpperOutcome {
        if kind == AccessKind::Flush {
            let line = self.l1d.geometry().line_of(addr);
            let inv = self.invalidate_line(pid, line);
            return UpperOutcome {
                cycles: self.l1_hit,
                miss_mask: 0,
                fill: None,
                mem_writebacks: inv.dirty.min(u8::MAX as u32) as u8,
            };
        }
        let write = kind == AccessKind::Write;
        let l1 = match kind {
            AccessKind::Fetch => &mut self.l1i,
            AccessKind::Read | AccessKind::Write => &mut self.l1d,
            AccessKind::Flush => unreachable!(),
        };
        let line = l1.geometry().line_of(addr);
        let mut out =
            UpperOutcome { cycles: self.l1_hit, miss_mask: 0, fill: None, mem_writebacks: 0 };
        let res = l1.access_rw(pid, line, write);
        if let AccessOutcome::Miss { evicted: Some(ev), .. } = res {
            if ev.dirty {
                let wb = Writeback { line: ev.line, owner: ev.owner, op_idx };
                self.cascade_writeback(0, wb, &mut escaped);
            }
        }
        if res.is_hit() {
            return out;
        }
        out.miss_mask |= 1;
        for k in 0..self.levels.len() {
            out.cycles += self.levels[k].hit_cycles;
            let res = self.levels[k].cache.access(pid, line);
            if let AccessOutcome::Miss { evicted: Some(ev), .. } = res {
                if ev.dirty {
                    let wb = Writeback { line: ev.line, owner: ev.owner, op_idx };
                    self.cascade_writeback(k + 1, wb, &mut escaped);
                }
            }
            if res.is_hit() {
                return out;
            }
            out.miss_mask |= 1 << (k + 1);
        }
        out.fill = Some(line);
        out
    }

    /// Delivers a writeback emitted above unified level `start` down
    /// the stack; one that no level absorbs goes to `escaped`.
    fn cascade_writeback(
        &mut self,
        start: usize,
        wb: Writeback,
        escaped: &mut impl FnMut(Writeback),
    ) {
        for k in start..self.levels.len() {
            if self.levels[k].cache.receive_writeback(wb.owner, wb.line) {
                return;
            }
        }
        escaped(wb);
    }

    /// [`access_batch_timed`](Self::access_batch_timed) for a core
    /// whose last unified level is a [`SharedLlc`]: executes the whole
    /// segment through the private levels and exports the shared-level
    /// request stream into `llc` (cleared and refilled) instead of
    /// charging the memory penalty. `events[i]` carries op `i`'s
    /// private-level cycles and miss bits; the shared level's bit,
    /// latency and memory traffic are composed by the engine that
    /// resolves `llc` against the shared cache.
    ///
    /// Private-level outcomes are a pure function of this core's own
    /// trace — no shared state is touched — which is what lets the
    /// multicore batch engine pre-execute every core's private walk
    /// and still replay the shared level in exact global op order.
    pub fn access_batch_upper_timed(
        &mut self,
        pid: ProcessId,
        ops: &[TraceOp],
        events: &mut Vec<OpTiming>,
        llc: &mut LlcRequests,
    ) -> HierarchyBatchOutcome {
        let mut out = HierarchyBatchOutcome {
            ops: ops.len() as u64,
            unified: Vec::with_capacity(self.levels.len()),
            ..HierarchyBatchOutcome::default()
        };
        events.clear();
        events.resize(ops.len(), OpTiming { cycles: self.l1_hit, miss_mask: 0, mem_writebacks: 0 });
        out.cycles = self.batch_walk_events(pid, ops, Some(&mut out), Some(events), Some(llc));
        out
    }

    /// Recomputes the cached write-back flag (selects the event-
    /// conduit walks that thread writebacks between levels). Policies
    /// only change through [`set_write_policy`](Self::set_write_policy)
    /// or construction, so the flag cannot go stale.
    fn refresh_has_writeback(&mut self) {
        self.has_writeback = self.l1d.write_policy() == WritePolicy::WriteBack
            || self.levels.iter().any(|l| l.cache.write_policy() == WritePolicy::WriteBack);
    }

    /// Executes a whole trace segment on behalf of `pid`, returning
    /// per-level aggregates and the exact cycle total.
    ///
    /// Outcomes — hits, misses, evictions, RNG draws, final contents,
    /// statistics and cycles — are identical to issuing each op through
    /// [`access`](Self::access) in order; only the bookkeeping is
    /// batched. The L1s are driven in maximal same-port runs; each
    /// level's misses (in op order) form the next level's access
    /// stream, so lower-level fills amortize across the segment
    /// instead of paying a per-op call chain.
    ///
    /// # Examples
    ///
    /// ```
    /// use tscache_core::addr::Addr;
    /// use tscache_core::hierarchy::TraceOp;
    /// use tscache_core::seed::ProcessId;
    /// use tscache_core::setup::SetupKind;
    ///
    /// let mut h = SetupKind::Deterministic.build(1);
    /// let ops = [TraceOp::read(Addr::new(0x1000)), TraceOp::read(Addr::new(0x1000))];
    /// let out = h.access_batch(ProcessId::new(1), &ops);
    /// assert_eq!(out.cycles, 91 + 1); // cold miss then warm hit
    /// assert_eq!(out.l1d.hits, 1);
    /// assert_eq!(out.unified[0].misses, 1);
    /// ```
    pub fn access_batch(&mut self, pid: ProcessId, ops: &[TraceOp]) -> HierarchyBatchOutcome {
        let mut out = HierarchyBatchOutcome {
            ops: ops.len() as u64,
            unified: Vec::with_capacity(self.levels.len()),
            ..HierarchyBatchOutcome::default()
        };
        out.cycles = self.batch_walk(pid, ops, Some(&mut out));
        out
    }

    /// [`access_batch`](Self::access_batch) without the per-level
    /// outcome report: returns only the cycle total. The allocation-
    /// free variant the simulator hot path (`Machine::run_trace`)
    /// calls once per trace segment; cache state, statistics and the
    /// returned cycles are identical to `access_batch`.
    pub fn access_batch_cycles(&mut self, pid: ProcessId, ops: &[TraceOp]) -> u64 {
        self.batch_walk(pid, ops, None)
    }

    /// [`access_batch`](Self::access_batch) plus a per-op
    /// [`OpTiming`] event vector (cleared and refilled): the batch-side
    /// twin of [`access_detailed`](Self::access_detailed), pinned
    /// bit-identical to a scalar walk by the multi-core differential
    /// suite. `events[i]` describes `ops[i]`.
    pub fn access_batch_timed(
        &mut self,
        pid: ProcessId,
        ops: &[TraceOp],
        events: &mut Vec<OpTiming>,
    ) -> HierarchyBatchOutcome {
        let mut out = HierarchyBatchOutcome {
            ops: ops.len() as u64,
            unified: Vec::with_capacity(self.levels.len()),
            ..HierarchyBatchOutcome::default()
        };
        events.clear();
        events.resize(ops.len(), OpTiming { cycles: self.l1_hit, miss_mask: 0, mem_writebacks: 0 });
        out.cycles = self.batch_walk_events(pid, ops, Some(&mut out), Some(events), None);
        out
    }

    /// The shared batch engine; fills `sink`'s per-level aggregates
    /// when given one, and returns the batch's cycle total. Write-back
    /// configurations route through the event-conduit walk so dirty
    /// evictions thread between levels exactly as the scalar walk
    /// delivers them.
    fn batch_walk(
        &mut self,
        pid: ProcessId,
        ops: &[TraceOp],
        sink: Option<&mut HierarchyBatchOutcome>,
    ) -> u64 {
        // Flush ops invalidate at *every* level in op order, which the
        // fast walk's deferred lower-level streams cannot express; the
        // event-conduit walk threads them like writebacks. The scan is
        // one predictable compare per op — noise next to the walk.
        if self.has_writeback || ops.iter().any(|op| op.kind == AccessKind::Flush) {
            self.batch_walk_events(pid, ops, sink, None, None)
        } else {
            self.batch_walk_fast(pid, ops, sink)
        }
    }

    /// The allocation-free fast walk for write-through configurations
    /// (no writebacks can occur, so the conduit carries lines only).
    fn batch_walk_fast(
        &mut self,
        pid: ProcessId,
        ops: &[TraceOp],
        mut sink: Option<&mut HierarchyBatchOutcome>,
    ) -> u64 {
        let mut lines = core::mem::take(&mut self.scratch_lines);
        let mut cur = core::mem::take(&mut self.scratch_cur);
        let mut next = core::mem::take(&mut self.scratch_next);
        cur.clear();

        let mut cycles = ops.len() as u64 * self.l1_hit as u64;

        // Phase 1: the split L1s, in maximal same-port runs. Misses
        // spill into `cur` in op order — the exact stream the scalar
        // path would have sent down.
        let offset_bits = self.l1i.geometry().offset_bits();
        let mut i = 0usize;
        while i < ops.len() {
            let fetch = ops[i].kind == AccessKind::Fetch;
            let mut j = i + 1;
            while j < ops.len() && (ops[j].kind == AccessKind::Fetch) == fetch {
                j += 1;
            }
            lines.clear();
            lines.extend(ops[i..j].iter().map(|op| op.addr.line(offset_bits)));
            let agg = if fetch {
                self.l1i.access_batch_collect(pid, &lines, &mut cur)
            } else {
                self.l1d.access_batch_collect(pid, &lines, &mut cur)
            };
            if let Some(out) = sink.as_deref_mut() {
                if fetch {
                    out.l1i += agg;
                } else {
                    out.l1d += agg;
                }
            }
            i = j;
        }

        // Phase 2: thread the miss stream through the unified levels.
        for level in &mut self.levels {
            cycles += cur.len() as u64 * level.hit_cycles as u64;
            next.clear();
            let agg = level.cache.access_batch_collect(pid, &cur, &mut next);
            if let Some(out) = sink.as_deref_mut() {
                out.unified.push(agg);
            }
            core::mem::swap(&mut cur, &mut next);
        }
        cycles += cur.len() as u64 * self.memory as u64;

        self.scratch_lines = lines;
        self.scratch_cur = cur;
        self.scratch_next = next;
        cycles
    }

    /// The event-conduit walk: like the fast walk, but each level's
    /// input is a merged stream of *fills* (the upper level's misses)
    /// and *writebacks* (dirty evictions from the levels above),
    /// processed in op order with a writeback of op `i` delivered
    /// before op `i`'s fill — the exact order the scalar walk's victim
    /// buffer drains. Optionally fills a per-op [`OpTiming`] vector
    /// (pre-sized by the caller to `ops.len()`, cycles initialized to
    /// the L1 hit cost).
    ///
    /// When `llc` is given, the final conduit state (last-level misses
    /// and surviving writebacks) is exported as the shared-LLC request
    /// stream instead of being charged the memory penalty, and
    /// `sink.mem_writebacks` counts only the flush-forced drains
    /// (ordinary writebacks travel through the exported stream — the
    /// shared level decides their fate).
    fn batch_walk_events(
        &mut self,
        pid: ProcessId,
        ops: &[TraceOp],
        mut sink: Option<&mut HierarchyBatchOutcome>,
        mut timing: Option<&mut Vec<OpTiming>>,
        llc: Option<&mut LlcRequests>,
    ) -> u64 {
        assert!(ops.len() <= u32::MAX as usize, "trace segment too long for 32-bit op indices");
        let mut lines = core::mem::take(&mut self.scratch_lines);
        let mut writes = core::mem::take(&mut self.scratch_writes);
        let mut run_idx = core::mem::take(&mut self.scratch_run_idx);
        let mut cur = core::mem::take(&mut self.scratch_cur);
        let mut next = core::mem::take(&mut self.scratch_next);
        let mut cur_idx = core::mem::take(&mut self.scratch_cur_idx);
        let mut next_idx = core::mem::take(&mut self.scratch_next_idx);
        let mut wb_cur = core::mem::take(&mut self.scratch_wb_cur);
        let mut wb_next = core::mem::take(&mut self.scratch_wb_next);
        let mut flushes = core::mem::take(&mut self.scratch_flushes);
        cur.clear();
        cur_idx.clear();
        wb_cur.clear();
        flushes.clear();
        // Dirty copies drained by flush ops: forced to memory directly
        // (they bypass the conduit and, in export mode, the shared
        // level).
        let mut flush_mem = 0u64;

        let mut cycles = ops.len() as u64 * self.l1_hit as u64;

        // Phase 1: the split L1s in maximal same-port runs, spilling
        // misses (with op indices) and dirty-eviction writebacks in op
        // order. Flush ops are run boundaries: they invalidate both
        // L1s in place and queue a flush event for the lower levels.
        let offset_bits = self.l1i.geometry().offset_bits();
        let mut i = 0usize;
        while i < ops.len() {
            if ops[i].kind == AccessKind::Flush {
                let line = ops[i].addr.line(offset_bits);
                let dirty = (self.l1i.invalidate_line(pid, line).dirty as u32)
                    + self.l1d.invalidate_line(pid, line).dirty as u32;
                if dirty > 0 {
                    flush_mem += dirty as u64;
                    if let Some(events) = timing.as_deref_mut() {
                        events[i].mem_writebacks += dirty as u8;
                    }
                }
                flushes.push((i as u32, line));
                i += 1;
                continue;
            }
            let fetch = ops[i].kind == AccessKind::Fetch;
            let mut j = i + 1;
            while j < ops.len()
                && ops[j].kind != AccessKind::Flush
                && (ops[j].kind == AccessKind::Fetch) == fetch
            {
                j += 1;
            }
            lines.clear();
            lines.extend(ops[i..j].iter().map(|op| op.addr.line(offset_bits)));
            run_idx.clear();
            run_idx.extend(i as u32..j as u32);
            writes.clear();
            if !fetch {
                writes.extend(ops[i..j].iter().map(|op| op.kind == AccessKind::Write));
            }
            let cache = if fetch { &mut self.l1i } else { &mut self.l1d };
            let agg = cache.access_batch_io(
                pid,
                &lines,
                BatchIo {
                    writes: if fetch { None } else { Some(&writes) },
                    idx: Some(&run_idx),
                    misses: Some(&mut cur),
                    miss_idx: Some(&mut cur_idx),
                    writebacks: Some(&mut wb_cur),
                },
            );
            if let Some(out) = sink.as_deref_mut() {
                if fetch {
                    out.l1i += agg;
                } else {
                    out.l1d += agg;
                }
            }
            i = j;
        }
        if let Some(events) = timing.as_deref_mut() {
            for &i in &cur_idx {
                events[i as usize].miss_mask |= 1;
            }
        }

        // Phase 2: thread the merged fill + writeback stream through
        // the unified levels.
        for k in 0..self.levels.len() {
            let level = &mut self.levels[k];
            cycles += cur.len() as u64 * level.hit_cycles as u64;
            if let Some(events) = timing.as_deref_mut() {
                for &i in &cur_idx {
                    events[i as usize].cycles += level.hit_cycles;
                }
            }
            next.clear();
            next_idx.clear();
            wb_next.clear();
            let mut agg = BatchOutcome::default();
            let mut w = 0usize;
            let mut f = 0usize;
            let mut start = 0usize;
            while start < cur.len() || w < wb_cur.len() || f < flushes.len() {
                let wb_idx = wb_cur.get(w).map_or(u32::MAX, |wb| wb.op_idx);
                let fl_idx = flushes.get(f).map_or(u32::MAX, |&(idx, _)| idx);
                let fill_idx = cur_idx.get(start).copied().unwrap_or(u32::MAX);
                if w < wb_cur.len() && wb_idx <= fill_idx && wb_idx < fl_idx {
                    let wb = wb_cur[w];
                    if !level.cache.receive_writeback(wb.owner, wb.line) {
                        wb_next.push(wb);
                    }
                    w += 1;
                    continue;
                }
                if fl_idx < fill_idx {
                    // The flush applies at this level at its op
                    // position (a flush op never shares an op index
                    // with a fill or a writeback, so no tie rule is
                    // needed). A drained dirty copy is forced to
                    // memory, bypassing the conduit.
                    let (idx, line) = flushes[f];
                    let inv = level.cache.invalidate_line(pid, line);
                    if inv.dirty {
                        flush_mem += 1;
                        if let Some(events) = timing.as_deref_mut() {
                            events[idx as usize].mem_writebacks += 1;
                        }
                    }
                    f += 1;
                    continue;
                }
                // Maximal fill run strictly before the next writeback
                // or flush.
                let lim = wb_idx.min(fl_idx);
                let mut end = start;
                while end < cur.len() && cur_idx[end] < lim {
                    end += 1;
                }
                agg += level.cache.access_batch_io(
                    pid,
                    &cur[start..end],
                    BatchIo {
                        writes: None,
                        idx: Some(&cur_idx[start..end]),
                        misses: Some(&mut next),
                        miss_idx: Some(&mut next_idx),
                        writebacks: Some(&mut wb_next),
                    },
                );
                start = end;
            }
            if let Some(events) = timing.as_deref_mut() {
                for &i in &next_idx {
                    events[i as usize].miss_mask |= 1 << (k + 1);
                }
            }
            if let Some(out) = sink.as_deref_mut() {
                out.unified.push(agg);
            }
            core::mem::swap(&mut cur, &mut next);
            core::mem::swap(&mut cur_idx, &mut next_idx);
            core::mem::swap(&mut wb_cur, &mut wb_next);
        }
        if let Some(requests) = llc {
            // Shared-LLC mode: the conduit's final state *is* the
            // shared level's input — nothing reaches memory here
            // except the flush-forced drains, which bypass the shared
            // level by definition.
            requests.clear();
            requests.fills.extend_from_slice(&cur);
            requests.fill_idx.extend_from_slice(&cur_idx);
            requests.writebacks.extend_from_slice(&wb_cur);
            if let Some(out) = sink {
                out.mem_writebacks = flush_mem;
            }
        } else {
            cycles += cur.len() as u64 * self.memory as u64;
            if let Some(events) = timing {
                for &i in &cur_idx {
                    events[i as usize].cycles += self.memory;
                }
                for wb in &wb_cur {
                    events[wb.op_idx as usize].mem_writebacks += 1;
                }
            }
            if let Some(out) = sink {
                out.mem_writebacks = wb_cur.len() as u64 + flush_mem;
            }
        }

        self.scratch_flushes = flushes;
        self.scratch_lines = lines;
        self.scratch_writes = writes;
        self.scratch_run_idx = run_idx;
        self.scratch_cur = cur;
        self.scratch_next = next;
        self.scratch_cur_idx = cur_idx;
        self.scratch_next_idx = next_idx;
        self.scratch_wb_cur = wb_cur;
        self.scratch_wb_next = wb_next;
        cycles
    }

    /// Sets the write policy of every cache level (the L1I never sees
    /// stores, so its setting is inert but kept consistent).
    pub fn set_write_policy(&mut self, policy: WritePolicy) {
        self.l1i.set_write_policy(policy);
        self.l1d.set_write_policy(policy);
        for level in &mut self.levels {
            level.cache.set_write_policy(policy);
        }
        self.refresh_has_writeback();
    }

    /// Sets the placement seed of `pid` in every cache, deriving a
    /// decorrelated sub-seed per level.
    pub fn set_process_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.l1i.set_seed(pid, seed.derive(1));
        self.l1d.set_seed(pid, seed.derive(2));
        for (k, level) in self.levels.iter_mut().enumerate() {
            level.cache.set_seed(pid, seed.derive(3 + k as u64));
        }
    }

    /// Arms the TTL / normalization knobs of `defense` on every level
    /// (both L1s and the unified levels). Seed rotation acts on the
    /// shared level — apply it via [`SharedLlc::apply_defense`] — and
    /// [`DefenseKind::RandomSafe`] is a *configuration*: build the
    /// platform with [`DefenseKind::effective_setup`] instead of
    /// toggling a knob here.
    pub fn apply_defense(&mut self, defense: DefenseKind) {
        for cache in [&mut self.l1i, &mut self.l1d]
            .into_iter()
            .chain(self.levels.iter_mut().map(|l| &mut l.cache))
        {
            cache.set_ttl(defense.ttl());
            cache.set_normalize(defense.normalize());
        }
    }

    /// Confines `pid` to fill ways `lo..hi` in both L1 caches (strict
    /// way partitioning, the §7 alternative; the shared lower levels
    /// are left unpartitioned as partitioning them is what cripples
    /// data sharing).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the L1 associativity.
    pub fn set_l1_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        self.l1i.set_way_partition(pid, lo, hi);
        self.l1d.set_way_partition(pid, lo, hi);
    }

    /// Confines `pid` to fill ways `lo..hi` at *every* level — the
    /// fully partitioned configuration whose no-cross-process-eviction
    /// guarantee the property suite checks.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds any level's
    /// associativity.
    pub fn set_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        self.l1i.set_way_partition(pid, lo, hi);
        self.l1d.set_way_partition(pid, lo, hi);
        for level in &mut self.levels {
            level.cache.set_way_partition(pid, lo, hi);
        }
    }

    /// Marks `size` bytes at `start` as protected data (RPCache P-bit,
    /// e.g. over the AES tables) in the data-side caches of every
    /// level.
    pub fn add_protected_range(&mut self, start: Addr, size: u64) {
        let bits = self.l1d.geometry().offset_bits();
        let first = start.line(bits);
        let last = start.offset(size.saturating_sub(1)).line(bits).offset(1);
        self.l1d.add_protected_range(first, last);
        for level in &mut self.levels {
            level.cache.add_protected_range(first, last);
        }
    }

    /// Marks `size` bytes at `start` as coherence-tracked in every
    /// level (both L1s and the unified levels): fills of the range
    /// carry per-line MSI state, and the platform's invalidation
    /// protocol may drain copies via
    /// [`invalidate_line`](Self::invalidate_line).
    pub fn add_coherent_range(&mut self, start: Addr, size: u64) {
        let bits = self.l1d.geometry().offset_bits();
        let first = start.line(bits);
        let last = start.offset(size.saturating_sub(1)).line(bits).offset(1);
        self.l1i.add_coherent_range(first, last);
        self.l1d.add_coherent_range(first, last);
        for level in &mut self.levels {
            level.cache.add_coherent_range(first, last);
        }
    }

    /// Invalidates `pid`'s copies of `line` in every level (both L1s
    /// and the unified levels) — the receiving side of a coherence
    /// action (remote upgrade, flush broadcast, or shared-level
    /// back-invalidation). Returns how many copies were dropped and
    /// how many of them were dirty (their data is forced out to
    /// memory; the caller accounts the resulting bus writes).
    pub fn invalidate_line(&mut self, pid: ProcessId, line: LineAddr) -> HierarchyInvalidation {
        let mut out = HierarchyInvalidation::default();
        let mut absorb = |c: crate::cache::InvalidatedCopy| {
            out.copies += c.present as u32;
            out.dirty += c.dirty as u32;
        };
        absorb(self.l1i.invalidate_line(pid, line));
        absorb(self.l1d.invalidate_line(pid, line));
        for level in &mut self.levels {
            absorb(level.cache.invalidate_line(pid, line));
        }
        out
    }

    /// Flushes every cache.
    pub fn flush_all(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        for level in &mut self.levels {
            level.cache.flush();
        }
    }

    /// Flushes all lines of `pid` in every cache.
    pub fn flush_process(&mut self, pid: ProcessId) {
        self.l1i.flush_process(pid);
        self.l1d.flush_process(pid);
        for level in &mut self.levels {
            level.cache.flush_process(pid);
        }
    }

    /// The instruction L1.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The data L1.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2 (the first level below the L1s).
    pub fn l2(&self) -> &Cache {
        &self.levels[0].cache
    }

    /// The unified L3, when the hierarchy has one.
    pub fn l3(&self) -> Option<&Cache> {
        self.levels.get(1).map(|l| &l.cache)
    }

    /// The unified levels in lookup order (L2 first).
    pub fn unified_levels(&self) -> impl Iterator<Item = &Cache> {
        self.levels.iter().map(|l| &l.cache)
    }

    /// Summed statistics of all levels.
    pub fn total_stats(&self) -> CacheStats {
        let mut total = *self.l1i.stats() + *self.l1d.stats();
        for level in &self.levels {
            total += *level.cache.stats();
        }
        total
    }

    /// Clears statistics on all levels.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        for level in &mut self.levels {
            level.cache.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::with_policies(
            PlacementKind::Modulo,
            ReplacementKind::Lru,
            PlacementKind::Modulo,
            ReplacementKind::Lru,
            99,
        )
    }

    fn three_level() -> Hierarchy {
        use crate::setup::{HierarchyDepth, SetupKind};
        SetupKind::Deterministic.build_depth(HierarchyDepth::ThreeLevel, 99)
    }

    fn pid() -> ProcessId {
        ProcessId::new(1)
    }

    #[test]
    fn latency_ladder() {
        let mut h = hierarchy();
        let a = Addr::new(0x4_0000);
        // Cold: L1 miss + L2 miss.
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1 + 10 + 80);
        // Warm: L1 hit.
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1);
    }

    #[test]
    fn three_level_latency_ladder() {
        let mut h = three_level();
        assert_eq!(h.depth(), 3);
        let a = Addr::new(0x4_0000);
        // Cold: miss everywhere.
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1 + 10 + 30 + 80);
        // Warm: L1 hit.
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1);
        // Evict from L1D (128-set, 4-way) and L2 (2048-set, 4-way):
        // the line must still sit in the 8192-set L3.
        for i in 1..=4u64 {
            h.access(pid(), AccessKind::Read, Addr::new(0x4_0000 + i * 128 * 32));
        }
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1 + 10, "L2 still warm");
        for i in 1..=4u64 {
            h.access(pid(), AccessKind::Read, Addr::new(0x4_0000 + i * 2048 * 32));
        }
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1 + 10 + 30, "L3 catch");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        let a = Addr::new(0);
        h.access(pid(), AccessKind::Read, a);
        // Evict `a` from L1D (128-set, 4-way): four conflicting lines.
        for i in 1..=4u64 {
            h.access(pid(), AccessKind::Read, Addr::new(i * 128 * 32));
        }
        // `a` is gone from L1 but still in the 2048-set L2.
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1 + 10);
    }

    #[test]
    fn fetch_and_read_use_separate_l1s() {
        let mut h = hierarchy();
        let a = Addr::new(0x1000);
        h.access(pid(), AccessKind::Fetch, a);
        // A read of the same address must still miss L1D (though it
        // hits L2, warmed by the fetch).
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1 + 10);
        assert_eq!(h.l1i().stats().misses(), 1);
        assert_eq!(h.l1d().stats().misses(), 1);
    }

    #[test]
    fn write_goes_through_l1d() {
        let mut h = hierarchy();
        let a = Addr::new(0x2000);
        h.access(pid(), AccessKind::Write, a);
        assert_eq!(h.access(pid(), AccessKind::Read, a), 1);
    }

    #[test]
    fn flush_all_cools_everything() {
        let mut h = hierarchy();
        let a = Addr::new(0x3000);
        h.access(pid(), AccessKind::Read, a);
        h.flush_all();
        assert_eq!(h.access(pid(), AccessKind::Read, a), 91);
    }

    #[test]
    fn per_level_seeds_are_distinct() {
        let mut h = Hierarchy::with_policies(
            PlacementKind::RandomModulo,
            ReplacementKind::Random,
            PlacementKind::HashRp,
            ReplacementKind::Random,
            1,
        );
        h.set_process_seed(pid(), Seed::new(5));
        let s1 = h.l1i().seed(pid());
        let s2 = h.l1d().seed(pid());
        let s3 = h.l2().seed(pid());
        assert_ne!(s1, s2);
        assert_ne!(s2, s3);
        assert_ne!(s1, s3);
    }

    #[test]
    fn l3_seed_distinct_too() {
        let mut h = three_level();
        h.set_process_seed(pid(), Seed::new(5));
        let s3 = h.l2().seed(pid());
        let s4 = h.l3().expect("three levels").seed(pid());
        assert_ne!(s3, s4);
    }

    #[test]
    fn total_stats_sums_levels() {
        let mut h = hierarchy();
        h.access(pid(), AccessKind::Read, Addr::new(0));
        h.access(pid(), AccessKind::Fetch, Addr::new(0x100));
        // 2 L1 misses (one per L1) + 2 L2 misses.
        assert_eq!(h.total_stats().misses(), 4);
        h.reset_stats();
        assert_eq!(h.total_stats().accesses(), 0);
    }

    #[test]
    fn batch_matches_scalar_walk() {
        let ops: Vec<TraceOp> = (0..900u64)
            .map(|i| {
                let addr = Addr::new((i * 1117) % (1 << 18));
                match i % 3 {
                    0 => TraceOp::read(addr),
                    1 => TraceOp::write(addr),
                    _ => TraceOp::fetch(addr),
                }
            })
            .collect();
        for build in [|| hierarchy(), || three_level()] {
            let mut scalar = build();
            let mut batched = build();
            let mut cycles = 0u64;
            for op in &ops {
                cycles += scalar.access(pid(), op.kind, op.addr) as u64;
            }
            let out = batched.access_batch(pid(), &ops);
            assert_eq!(out.cycles, cycles);
            assert_eq!(out.ops, ops.len() as u64);
            assert_eq!(batched.total_stats(), scalar.total_stats());
            assert_eq!(out.l1i.accesses() + out.l1d.accesses(), ops.len() as u64);
            assert_eq!(out.unified[0].accesses(), out.l1i.misses + out.l1d.misses);
        }
    }

    #[test]
    fn cycles_only_batch_matches_full_outcome() {
        let ops: Vec<TraceOp> =
            (0..500u64).map(|i| TraceOp::read(Addr::new((i * 607) % (1 << 16)))).collect();
        let mut full = three_level();
        let mut cycles_only = three_level();
        let out = full.access_batch(pid(), &ops);
        let cycles = cycles_only.access_batch_cycles(pid(), &ops);
        assert_eq!(cycles, out.cycles);
        assert_eq!(full.total_stats(), cycles_only.total_stats());
    }

    #[test]
    fn batch_outcome_memory_accesses() {
        let mut h = hierarchy();
        let ops = [TraceOp::read(Addr::new(0)), TraceOp::read(Addr::new(0))];
        let out = h.access_batch(pid(), &ops);
        assert_eq!(out.memory_accesses(), 1);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut h = three_level();
        let out = h.access_batch(pid(), &[]);
        assert_eq!(out.cycles, 0);
        assert_eq!(out.ops, 0);
        assert_eq!(out.unified.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one unified level")]
    fn from_parts_rejects_empty_stack() {
        let l1 = CacheGeometry::paper_l1();
        let mk =
            |label: &str| Cache::new(label, l1, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        Hierarchy::from_parts(mk("L1I"), mk("L1D"), Vec::new(), 1, 80);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn from_parts_rejects_mixed_line_sizes() {
        let l1 = CacheGeometry::paper_l1();
        let odd = CacheGeometry::new(2048, 4, 64).unwrap();
        let mk =
            |label: &str| Cache::new(label, l1, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        let l2 = Cache::new("L2", odd, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        Hierarchy::from_parts(mk("L1I"), mk("L1D"), vec![(l2, 10)], 1, 80);
    }

    #[test]
    fn hierarchy_wide_partition_applies_everywhere() {
        let mut h = three_level();
        h.set_way_partition(pid(), 0, 2);
        h.set_way_partition(ProcessId::new(2), 2, 4);
        for i in 0..4096u64 {
            h.access(pid(), AccessKind::Read, Addr::new(i * 32));
            h.access(ProcessId::new(2), AccessKind::Read, Addr::new((1 << 22) + i * 32));
        }
        for cache in [h.l1d(), h.l2(), h.l3().unwrap()] {
            assert_eq!(cache.stats().cross_process_evictions(), 0, "{}", cache.label());
            for (_, way, _, owner) in cache.contents() {
                match owner.as_u16() {
                    1 => assert!(way < 2, "{}", cache.label()),
                    2 => assert!(way >= 2, "{}", cache.label()),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn writeback_cascades_down_the_stack() {
        let mut h = hierarchy();
        h.set_write_policy(WritePolicy::WriteBack);
        let a = Addr::new(0);
        h.access(pid(), AccessKind::Write, a);
        assert_eq!(h.l1d().dirty_lines(), 1);
        // Evict `a` from L1D (128-set, 4-way): its writeback must be
        // absorbed by the L2 copy, which turns dirty.
        for i in 1..=4u64 {
            h.access(pid(), AccessKind::Read, Addr::new(i * 128 * 32));
        }
        assert_eq!(h.l1d().stats().writebacks(), 1);
        assert_eq!(h.l2().dirty_lines(), 1);
        assert_eq!(h.l1d().dirty_lines(), 0);
    }

    #[test]
    fn writeback_reaches_memory_when_no_level_holds_the_line() {
        let mut h = hierarchy();
        h.set_write_policy(WritePolicy::WriteBack);
        h.access(pid(), AccessKind::Write, Addr::new(0));
        let hit = h.access_detailed(pid(), AccessKind::Write, Addr::new(0));
        assert_eq!(hit.mem_writebacks, 0, "write hit emits nothing");
        // Thrash set 0 of both levels (addresses i·64 KiB alias set 0
        // in the 128-set L1D and the 2048-set L2): the dirty line is
        // evicted from L1 (writeback absorbed by the L2 copy, which
        // turns dirty), then the dirty L2 copy is evicted — that
        // writeback finds no lower level and must reach memory.
        let mut reached_memory = 0u64;
        for i in 1..=16u64 {
            reached_memory += h
                .access_detailed(pid(), AccessKind::Read, Addr::new(i * 2048 * 32))
                .mem_writebacks as u64;
        }
        assert_eq!(h.l1d().stats().writebacks(), 1, "one dirty L1 eviction");
        // The dirty line counts once per level it cascades through.
        assert_eq!(h.l2().stats().writebacks(), 1, "one dirty L2 eviction");
        assert_eq!(reached_memory, 1, "exactly one writeback hit the bus");
        assert_eq!(h.l2().dirty_lines(), 0);
    }

    #[test]
    fn timed_batch_matches_detailed_scalar_walk() {
        let ops: Vec<TraceOp> = (0..900u64)
            .map(|i| {
                let addr = Addr::new((i * 1117) % (1 << 18));
                match i % 3 {
                    0 => TraceOp::read(addr),
                    1 => TraceOp::write(addr),
                    _ => TraceOp::fetch(addr),
                }
            })
            .collect();
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            for build in [|| hierarchy(), || three_level()] {
                let mut scalar = build();
                let mut batched = build();
                scalar.set_write_policy(policy);
                batched.set_write_policy(policy);
                let expected: Vec<OpTiming> =
                    ops.iter().map(|op| scalar.access_detailed(pid(), op.kind, op.addr)).collect();
                let mut events = Vec::new();
                let out = batched.access_batch_timed(pid(), &ops, &mut events);
                assert_eq!(events, expected, "{policy:?}: per-op timing diverges");
                assert_eq!(
                    out.cycles,
                    expected.iter().map(|e| e.cycles as u64).sum::<u64>(),
                    "{policy:?}"
                );
                assert_eq!(
                    out.mem_writebacks,
                    expected.iter().map(|e| e.mem_writebacks as u64).sum::<u64>(),
                    "{policy:?}"
                );
                assert_eq!(batched.total_stats(), scalar.total_stats(), "{policy:?}");
            }
        }
    }

    #[test]
    fn op_timing_memory_read_uses_depth() {
        let mut h = three_level();
        let t = h.access_detailed(pid(), AccessKind::Read, Addr::new(0x4_0000));
        assert_eq!(t.miss_mask, 0b111, "cold miss at every level");
        assert!(t.memory_read(3));
        let t = h.access_detailed(pid(), AccessKind::Read, Addr::new(0x4_0000));
        assert_eq!(t.miss_mask, 0, "warm hit");
        assert!(!t.memory_read(3));
    }

    /// A small private hierarchy for the shared-LLC walks: split L1s
    /// plus `private_unified` unified levels (0 = L1-only).
    fn private_hierarchy(private_unified: usize, policy: WritePolicy) -> Hierarchy {
        let l1 = CacheGeometry::new(8, 2, 32).unwrap();
        let l2 = CacheGeometry::new(32, 4, 32).unwrap();
        let mk = |label: &str, geom, salt| {
            Cache::new(label, geom, PlacementKind::RandomModulo, ReplacementKind::Random, salt)
        };
        let unified =
            (0..private_unified).map(|k| (mk("L2", l2, 0x33 + k as u64), 10)).collect::<Vec<_>>();
        let mut h =
            Hierarchy::from_private_parts(mk("L1I", l1, 0x11), mk("L1D", l1, 0x22), unified, 1, 80);
        h.set_process_seed(pid(), Seed::new(0x5eed));
        h.set_write_policy(policy);
        h
    }

    #[test]
    fn l1_only_private_hierarchy_is_allowed() {
        let h = private_hierarchy(0, WritePolicy::WriteThrough);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.unified_levels().count(), 0);
    }

    #[test]
    fn upper_batch_matches_upper_scalar_walk() {
        let ops = TraceOp::mixed_trace(0xabc, 900, 1 << 14);
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            for private_unified in [0usize, 1] {
                let label = format!("{policy:?}/{private_unified} private unified");
                let mut scalar = private_hierarchy(private_unified, policy);
                let mut batched = private_hierarchy(private_unified, policy);
                let mut scalar_llc = LlcRequests::default();
                let mut scalar_events = Vec::new();
                for (i, op) in ops.iter().enumerate() {
                    let up = scalar.access_upper_detailed(
                        pid(),
                        op.kind,
                        op.addr,
                        i as u32,
                        &mut scalar_llc.writebacks,
                    );
                    scalar_events.push(OpTiming {
                        cycles: up.cycles,
                        miss_mask: up.miss_mask,
                        mem_writebacks: 0,
                    });
                    if let Some(line) = up.fill {
                        scalar_llc.fills.push(line);
                        scalar_llc.fill_idx.push(i as u32);
                    }
                }
                let mut events = Vec::new();
                let mut llc = LlcRequests::default();
                let out = batched.access_batch_upper_timed(pid(), &ops, &mut events, &mut llc);
                assert_eq!(events, scalar_events, "{label}: per-op events diverge");
                assert_eq!(llc, scalar_llc, "{label}: LLC request streams diverge");
                assert_eq!(batched.total_stats(), scalar.total_stats(), "{label}");
                assert_eq!(
                    out.cycles,
                    scalar_events.iter().map(|e| e.cycles as u64).sum::<u64>(),
                    "{label}"
                );
                assert_eq!(out.mem_writebacks, 0, "{label}: upper walk reached memory");
                // The request stream respects the delivery contract the
                // shared engine relies on.
                assert!(llc.fill_idx.windows(2).all(|w| w[0] < w[1]), "{label}");
                assert!(
                    llc.writebacks.windows(2).all(|w| w[0].op_idx <= w[1].op_idx),
                    "{label}: writebacks out of op order"
                );
                assert!(!llc.fills.is_empty(), "{label}: trace never reached the shared level");
            }
        }
    }

    #[test]
    fn shared_llc_fills_hits_and_writes_back() {
        let geom = CacheGeometry::new(8, 2, 32).unwrap();
        let mut llc = SharedLlc::new(
            Cache::new("SL2", geom, PlacementKind::Modulo, ReplacementKind::Lru, 1),
            10,
            80,
        );
        llc.set_write_policy(WritePolicy::WriteBack);
        let p = pid();
        assert_eq!(llc.hit_cycles(), 10);
        assert_eq!(llc.memory_cycles(), 80);
        let line = LineAddr::new(5);
        assert!(!llc.access(p, line).hit, "cold fill");
        assert!(llc.access(p, line).hit, "warm hit");
        // An absorbed writeback dirties the copy; evicting it later
        // must report a memory-bound writeback.
        assert!(llc.receive_writeback(p, line));
        assert_eq!(llc.cache().dirty_lines(), 1);
        let evictions =
            (1..=2u64).map(|i| llc.access(p, LineAddr::new(5 + 8 * i))).collect::<Vec<_>>();
        assert!(evictions.iter().any(|f| f.mem_writeback), "dirty victim never reached memory");
        // An absent line forwards the writeback to memory.
        assert!(!llc.receive_writeback(p, LineAddr::new(99)));
        llc.flush();
        assert_eq!(llc.cache().occupancy(), 0);
    }

    #[test]
    fn shared_llc_partitions_confine_fills_per_core() {
        let geom = CacheGeometry::new(8, 2, 32).unwrap();
        let mut llc = SharedLlc::new(
            Cache::new("SL2", geom, PlacementKind::Modulo, ReplacementKind::Lru, 1),
            10,
            80,
        );
        let (core0, core1) = (ProcessId::new(1), ProcessId::new(2));
        llc.set_way_partition(core0, 0, 1);
        llc.set_way_partition(core1, 1, 2);
        for i in 0..64u64 {
            llc.access(core0, LineAddr::new(i));
            llc.access(core1, LineAddr::new(1000 + i));
        }
        assert_eq!(llc.cache().stats().cross_process_evictions(), 0);
        for (_, way, _, owner) in llc.cache().contents() {
            match owner.as_u16() {
                1 => assert_eq!(way, 0),
                2 => assert_eq!(way, 1),
                _ => {}
            }
        }
    }

    /// A mixed trace sprinkled with flush ops over a reused segment,
    /// so flushes regularly hit resident (and, under write-back,
    /// dirty) lines.
    fn flushing_trace(salt: u64, len: usize) -> Vec<TraceOp> {
        let mut ops = TraceOp::mixed_trace(salt, len, 1 << 14);
        let mut state = salt | 1;
        for i in (0..ops.len()).step_by(11) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ops[i] = TraceOp::flush(Addr::new((state >> 20) % (1 << 14)));
        }
        ops
    }

    #[test]
    fn flush_ops_match_across_scalar_and_batch_walks() {
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            for build in [|| hierarchy(), || three_level()] {
                let ops = flushing_trace(0xf1a5, 900);
                let mut scalar = build();
                let mut batched = build();
                scalar.set_write_policy(policy);
                batched.set_write_policy(policy);
                let expected: Vec<OpTiming> =
                    ops.iter().map(|op| scalar.access_detailed(pid(), op.kind, op.addr)).collect();
                let mut events = Vec::new();
                let out = batched.access_batch_timed(pid(), &ops, &mut events);
                assert_eq!(events, expected, "{policy:?}: per-op timing diverges on flush ops");
                assert_eq!(
                    out.cycles,
                    expected.iter().map(|e| e.cycles as u64).sum::<u64>(),
                    "{policy:?}"
                );
                assert_eq!(batched.total_stats(), scalar.total_stats(), "{policy:?}");
                let a: Vec<_> = scalar.l1d().contents().collect();
                let b: Vec<_> = batched.l1d().contents().collect();
                assert_eq!(a, b, "{policy:?}: L1D contents diverge");
                assert!(
                    scalar.l1d().stats().coh_invalidations() > 0,
                    "{policy:?}: no flush ever found a resident line — the trace is vacuous"
                );
                if policy == WritePolicy::WriteBack {
                    assert!(
                        out.mem_writebacks
                            >= expected.iter().map(|e| e.mem_writebacks as u64).sum::<u64>(),
                        "flush-forced drains unaccounted"
                    );
                }
                // The plain (untimed) batch walk routes through the
                // event conduit when flushes are present and must
                // agree too.
                let mut plain = build();
                plain.set_write_policy(policy);
                let plain_out = plain.access_batch(pid(), &ops);
                assert_eq!(plain_out.cycles, out.cycles, "{policy:?}: plain batch diverges");
                assert_eq!(plain.total_stats(), batched.total_stats(), "{policy:?}");
            }
        }
    }

    #[test]
    fn flush_ops_match_across_upper_walks() {
        let ops = flushing_trace(0xfee1, 800);
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            for private_unified in [0usize, 1] {
                let label = format!("{policy:?}/{private_unified} private unified");
                let mut scalar = private_hierarchy(private_unified, policy);
                let mut batched = private_hierarchy(private_unified, policy);
                let mut scalar_llc = LlcRequests::default();
                let mut scalar_events = Vec::new();
                for (i, op) in ops.iter().enumerate() {
                    let up = scalar.access_upper_detailed(
                        pid(),
                        op.kind,
                        op.addr,
                        i as u32,
                        &mut scalar_llc.writebacks,
                    );
                    scalar_events.push(OpTiming {
                        cycles: up.cycles,
                        miss_mask: up.miss_mask,
                        mem_writebacks: up.mem_writebacks,
                    });
                    if let Some(line) = up.fill {
                        scalar_llc.fills.push(line);
                        scalar_llc.fill_idx.push(i as u32);
                    }
                }
                let mut events = Vec::new();
                let mut llc = LlcRequests::default();
                batched.access_batch_upper_timed(pid(), &ops, &mut events, &mut llc);
                assert_eq!(events, scalar_events, "{label}: per-op events diverge");
                assert_eq!(llc, scalar_llc, "{label}: LLC request streams diverge");
                assert_eq!(batched.total_stats(), scalar.total_stats(), "{label}");
                if policy == WritePolicy::WriteBack {
                    assert!(
                        scalar_events.iter().any(|e| e.mem_writebacks > 0),
                        "{label}: no flush ever drained a dirty private copy"
                    );
                }
            }
        }
    }

    #[test]
    fn coherent_range_tags_line_state() {
        use crate::cache::CohState;
        let mut h = hierarchy();
        h.set_write_policy(WritePolicy::WriteBack);
        h.add_coherent_range(Addr::new(0x2000), 1024);
        h.access(pid(), AccessKind::Read, Addr::new(0x2000));
        let line = LineAddr::new(0x2000 >> 5);
        assert_eq!(h.l1d.coherence_state(pid(), line), Some(CohState::Shared));
        h.access(pid(), AccessKind::Write, Addr::new(0x2000));
        assert_eq!(h.l1d.coherence_state(pid(), line), Some(CohState::Modified));
        let inv = h.invalidate_line(pid(), line);
        assert!(inv.copies >= 1 && inv.dirty >= 1);
        assert_eq!(h.l1d.coherence_state(pid(), line), None, "state I = absent");
        // Untracked lines carry no coherence state even when present.
        h.access(pid(), AccessKind::Read, Addr::new(0x8000));
        assert_eq!(h.l1d.coherence_state(pid(), LineAddr::new(0x8000 >> 5)), None);
    }

    #[test]
    fn protected_range_reaches_every_level() {
        let mut h = three_level();
        h.add_protected_range(Addr::new(0x2000), 1024);
        let line = 0x2000u64 >> 5;
        assert!(h.l1d().is_protected_addr(line));
        assert!(h.l2().is_protected_addr(line));
        assert!(h.l3().unwrap().is_protected_addr(line));
        assert!(!h.l1i().is_protected_addr(line), "instruction side unprotected");
    }
}
