//! Multi-level memory hierarchy: split L1 (instruction + data) backed
//! by a stack of unified levels (L2, and optionally an L3), priced by
//! one fixed latency ladder ([`L1_HIT_CYCLES`], [`UNIFIED_HIT_CYCLES`],
//! [`MEMORY_CYCLES`]).
//!
//! # One walk
//!
//! Every entry point walks an op through the levels the same way: one
//! op down the levels until it hits, each consulted level filling on
//! its miss, and a dirty victim's writeback delivered down the stack
//! before the fill proceeds. [`Hierarchy::access`],
//! [`Hierarchy::access_detailed`], [`Hierarchy::access_upper_detailed`]
//! and [`Hierarchy::access_batch_cycles`] (a loop over `access`) differ
//! only in what they report. `access_detailed` composes the walk with
//! memory itself. `access_upper_detailed` stops at the private levels
//! and hands the caller the fill request and the writebacks no level
//! absorbed; the multicore engine composes those with memory
//! ([`Hierarchy::with_memory`]), or with what a [`SharedLlc`] owned
//! elsewhere reports ([`Hierarchy::with_shared`]), for every core it
//! runs. Only the hierarchy charges cycles. The
//! differential suite `tests/hierarchy_differential.rs` checks the walk
//! against a hierarchy of reference-model caches (`tests/model/`).

use crate::addr::{Addr, LineAddr};
use crate::cache::{AccessOutcome, Cache, InvalidatedCopy, WritePolicy, Writeback};
use crate::defense::DefenseKind;
use crate::geometry::CacheGeometry;
use crate::placement::PlacementKind;
use crate::replacement::ReplacementKind;
use crate::seed::{ProcessId, Seed};
use crate::stats::CacheStats;

/// Cycles of an L1 hit, the cost every op pays: the paper's
/// ARM920T-class platform (§6.1.2).
pub const L1_HIT_CYCLES: u32 = 1;

/// Additional cycles when a lookup reaches a unified level, indexed by
/// the level's position below the L1s, private or shared: the paper's
/// 10-cycle L2 and the 30-cycle L3 of the three-level presets (the
/// multi-level randomized-cache literature, ClepsydraCache and
/// friends). No hierarchy has more unified levels than this ladder
/// names.
pub const UNIFIED_HIT_CYCLES: [u32; 2] = [10, 30];

/// Additional cycles when every level misses and the line comes from
/// memory (paper §6.1.2).
pub const MEMORY_CYCLES: u32 = 80;

/// Shared-level fill requests between two seed rotations under
/// [`DefenseKind::RotatePartition`] and [`DefenseKind::RotateCore`].
pub const ROTATION_PERIOD: u64 = 2048;

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
/// [`Hierarchy::access_batch_cycles`] (and re-exported as the
/// simulator's `TraceOp`).
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

/// Per-op timing event produced by [`Hierarchy::access_detailed`]:
/// everything the multi-core interference engine needs to replay the
/// op against a shared bus — its solo cycle cost, which levels it
/// missed, and how many dirty writebacks it pushed all the way to
/// memory.
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

/// Timing of one op through a hierarchy's own levels, before whatever
/// lies behind them: produced by [`Hierarchy::access_upper_detailed`].
/// The caller composes the cost of [`fill`](Self::fill) and of the
/// escaped writebacks: with memory on a private platform
/// ([`Hierarchy::with_memory`]), or with the shared cache on a
/// shared-LLC one ([`Hierarchy::with_shared`]). The multicore engine
/// walks every core this way; only its co-runners buffer these
/// outcomes a chunk ahead of the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperOutcome {
    /// Cycle cost through the private levels (L1 hit plus each
    /// consulted private unified level's hit cycles).
    pub cycles: u32,
    /// Bit `0` = missed the L1; bit `k` = missed private unified level
    /// `k-1`. A shared level's bit is composed by
    /// [`Hierarchy::with_shared`].
    pub miss_mask: u8,
    /// The line to request from behind the hierarchy (every level
    /// missed), or `None` on a hit.
    pub fill: Option<LineAddr>,
    /// Writebacks this op forced straight to memory, bypassing any
    /// shared level: the dirty private copies a [`AccessKind::Flush`]
    /// op drains (zero for ordinary accesses, whose escaped writebacks
    /// go to the caller's buffer instead).
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

/// A last-level cache shared by every core of a multicore platform:
/// one [`Cache`] instance that reports what each op's traffic did there
/// ([`resolve`](Self::resolve)); the core's [`Hierarchy::with_shared`]
/// prices it on the latency ladder. Per-core traffic enters under each
/// core's own [`ProcessId`], so per-core way partitions (the §7
/// partitioning alternative, applied at the shared level) and
/// cross-core eviction accounting fall out of the existing cache model.
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
/// ([`Hierarchy::access_upper_detailed`] produces its requests) and
/// *in front of* the memory bus: a shared-LLC hit never pays a bus
/// transaction, only misses and writebacks that reach memory do.
#[derive(Debug)]
pub struct SharedLlc {
    cache: Cache,
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
    /// Fill requests resolved since construction (the rotation clock;
    /// only ticked while a rotation defense is armed).
    rotation_ops: u64,
    /// Completed rotations (drives both the round-robin core selection
    /// and the per-epoch seed derivation).
    rotation_epoch: u64,
    /// Pre-derivation base seed per process, recorded by
    /// [`set_process_seed`](Self::set_process_seed), sorted by pid —
    /// what each rotation epoch re-derives from.
    rotation_base: Vec<(u16, Seed)>,
}

impl SharedLlc {
    /// Cores the coherence directory can name: each entry is a 32-bit
    /// sharer bitmap, so a coherent platform holds at most this many
    /// cores (the measured one included).
    pub const DIRECTORY_CORES: usize = 32;

    /// Wraps `cache` as a shared last level.
    pub fn new(cache: Cache) -> Self {
        SharedLlc {
            cache,
            #[allow(clippy::disallowed_types)]
            // detlint: allow(D2, ctor for the keyed-lookup-only directory field; see field doc)
            directory: std::collections::HashMap::new(),
            rotation_ops: 0,
            rotation_epoch: 0,
            rotation_base: Vec::new(),
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

    /// Completed rotation epochs (0 until the first rotation fires).
    pub fn rotation_epoch(&self) -> u64 {
        self.rotation_epoch
    }

    /// Arms `defense` on the shared cache ([`Cache::apply_defense`]),
    /// which also arms this level's rotation clock: under
    /// [`DefenseKind::RotatePartition`] and [`DefenseKind::RotateCore`],
    /// every [`ROTATION_PERIOD`] fill requests the rotated processes
    /// (every process with a recorded base, or one process round-robin)
    /// get their seeds re-derived from the bases recorded by
    /// [`set_process_seed`](Self::set_process_seed), and their lines
    /// flushed (the §5 seed-change consistency flush).
    /// ([`DefenseKind::RandomSafe`] is a *configuration*: build the
    /// platform with [`DefenseKind::effective_setup`] instead.)
    pub fn apply_defense(&mut self, defense: DefenseKind) {
        self.cache.apply_defense(defense);
    }

    /// Advances the rotation clock by one fill request and fires a
    /// rotation when the cadence comes due. Ticks only on fill
    /// requests — never on writeback-only resolutions — so the
    /// schedule is a pure function of the fill stream and scalar/batch
    /// executions cannot diverge.
    fn rotation_tick(&mut self) {
        let defense = self.cache.defense();
        if !defense.needs_shared_level() {
            return;
        }
        self.rotation_ops += 1;
        if !self.rotation_ops.is_multiple_of(ROTATION_PERIOD) || self.rotation_base.is_empty() {
            return;
        }
        self.rotation_epoch += 1;
        let epoch = self.rotation_epoch;
        let members = if defense == DefenseKind::RotateCore {
            let idx = ((epoch - 1) % self.rotation_base.len() as u64) as usize;
            idx..idx + 1
        } else {
            0..self.rotation_base.len()
        };
        for &(raw, base) in &self.rotation_base[members] {
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
        let (first, last) = self.cache.geometry().line_range(start, size);
        self.cache.add_protected_range(first, last);
    }

    /// Marks `size` bytes at `start` as coherence-tracked at the
    /// shared level, arming the invalidation protocol for that range
    /// (see the type-level *Coherence* section). Mirror the range into
    /// each core's private hierarchy via
    /// [`Hierarchy::add_coherent_range`] so private fills carry their
    /// MSI state too.
    pub fn add_coherent_range(&mut self, start: Addr, size: u64) {
        let (first, last) = self.cache.geometry().line_range(start, size);
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
    /// Panics (debug) if `core` exceeds the
    /// [`DIRECTORY_CORES`](Self::DIRECTORY_CORES)-core bitmap; the
    /// multicore engine rejects such a platform once per run.
    pub fn note_sharer(&mut self, line: LineAddr, core: usize) {
        debug_assert!(core < Self::DIRECTORY_CORES, "directory bitmap holds 32 cores");
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
        debug_assert!(core < Self::DIRECTORY_CORES, "directory bitmap holds 32 cores");
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
    /// engine's per-op composition and the machine's scalar ops)
    /// funnels through it, so the traffic contract cannot silently
    /// diverge between paths. It reports what happened; the cost is
    /// [`Hierarchy::with_shared`]'s.
    pub fn resolve(
        &mut self,
        pid: ProcessId,
        fill: Option<LineAddr>,
        writebacks: &[Writeback],
    ) -> LlcResolution {
        let mut r = LlcResolution { miss: false, mem_writebacks: 0, evicted: None };
        if fill.is_some() {
            self.rotation_tick();
        }
        for wb in writebacks {
            if !self.receive_writeback(wb.owner, wb.line) {
                r.mem_writebacks += 1;
            }
        }
        if let Some(line) = fill {
            if let AccessOutcome::Miss { evicted, .. } = self.cache.access(pid, line) {
                r.miss = true;
                if let Some(ev) = evicted {
                    r.mem_writebacks += ev.dirty as u8;
                    r.evicted = Some(ev.line);
                }
            }
        }
        r
    }
}

/// Outcome of [`SharedLlc::resolve`]: what one op's shared-level
/// traffic did and sends to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcResolution {
    /// The fill missed the shared level (an off-chip read — one bus
    /// read transaction).
    pub miss: bool,
    /// Writebacks that passed the shared level to memory (unabsorbed
    /// private writebacks plus a dirty shared-level victim) — bus
    /// write transactions.
    pub mem_writebacks: u8,
    /// The line the fill displaced from the shared level, so the
    /// coherence layer can back-invalidate a tracked victim's private
    /// copies (inclusive-LLC semantics).
    pub evicted: Option<LineAddr>,
}

/// A split-L1 hierarchy over a vector of unified levels, priced by the
/// latency ladder.
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
    levels: Vec<Cache>,
}

impl Hierarchy {
    /// Assembles a hierarchy: split L1s plus the unified levels in
    /// lookup order, charged [`UNIFIED_HIT_CYCLES`] by position.
    ///
    /// # Panics
    ///
    /// Panics if `unified` is empty or longer than the ladder, or any
    /// level's line size differs from the L1s'.
    pub fn from_parts(l1i: Cache, l1d: Cache, unified: Vec<Cache>) -> Self {
        assert!(!unified.is_empty(), "hierarchy needs at least one unified level");
        Hierarchy::from_private_parts(l1i, l1d, unified)
    }

    /// Assembles the *private* portion of a core on a shared-LLC
    /// platform: split L1s plus zero or more private unified levels
    /// (the shared last level lives in a [`SharedLlc`] owned by the
    /// platform, not here). Unlike [`from_parts`](Self::from_parts),
    /// `unified` may be empty — a two-level platform with a shared L2
    /// keeps only the L1s per core.
    ///
    /// Drive such a hierarchy through
    /// [`access_upper_detailed`](Self::access_upper_detailed) and
    /// compose each walk with the shared level's resolution through
    /// [`with_shared`](Self::with_shared), as the multicore engine does
    /// op by op in merge order; the full-walk entry points would charge
    /// the memory penalty on a last-*private*-level miss, ignoring the
    /// shared level.
    ///
    /// # Panics
    ///
    /// Panics if `unified` is longer than the ladder or any level's
    /// line size differs from the L1s'.
    pub fn from_private_parts(l1i: Cache, l1d: Cache, unified: Vec<Cache>) -> Self {
        assert!(
            unified.len() <= UNIFIED_HIT_CYCLES.len(),
            "the latency ladder prices {} unified levels, not {}",
            UNIFIED_HIT_CYCLES.len(),
            unified.len()
        );
        let line = l1i.geometry().line_bytes();
        assert_eq!(l1d.geometry().line_bytes(), line, "L1D line size differs from L1I");
        for cache in &unified {
            assert_eq!(
                cache.geometry().line_bytes(),
                line,
                "{} line size differs from L1 ({}B)",
                cache.label(),
                line
            );
        }
        Hierarchy { l1i, l1d, levels: unified }
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
        Hierarchy::from_parts(
            Cache::new("L1I", l1, l1_placement, l1_replacement, rng_seed ^ 0x11),
            Cache::new("L1D", l1, l1_placement, l1_replacement, rng_seed ^ 0x22),
            vec![Cache::new("L2", l2, l2_placement, l2_replacement, rng_seed ^ 0x33)],
        )
    }

    /// Number of cache levels (the split L1 pair counts as one).
    pub fn depth(&self) -> usize {
        1 + self.levels.len()
    }

    /// Performs an access and returns its cost on the latency ladder:
    /// the L1 hit cost, plus each consulted unified level's hit cycles,
    /// plus the memory penalty when every level misses. Each consulted
    /// level fills on its miss.
    pub fn access(&mut self, pid: ProcessId, kind: AccessKind, addr: Addr) -> u32 {
        self.access_detailed(pid, kind, addr).cycles
    }

    /// Executes a trace segment on behalf of `pid`, op by op through
    /// [`access`](Self::access), and returns the cycle total.
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
    /// let cycles = h.access_batch_cycles(ProcessId::new(1), &ops);
    /// assert_eq!(cycles, 91 + 1); // cold miss then warm hit
    /// assert_eq!(h.l1d().stats().hits(), 1);
    /// assert_eq!(h.l2().stats().misses(), 1);
    /// ```
    pub fn access_batch_cycles(&mut self, pid: ProcessId, ops: &[TraceOp]) -> u64 {
        ops.iter().map(|op| self.access(pid, op.kind, op.addr) as u64).sum()
    }

    /// [`access`](Self::access) with the per-op event detail the
    /// interference engine consumes: which levels missed and how many
    /// writebacks reached memory. Writes mark L1D lines dirty under
    /// [`WritePolicy::WriteBack`]; evicting a dirty line delivers its
    /// writeback down the stack (the victim buffer drains *before* the
    /// fill proceeds to the next level), where it silently re-dirties a
    /// present copy or cascades further, ultimately to memory.
    #[inline]
    pub fn access_detailed(&mut self, pid: ProcessId, kind: AccessKind, addr: Addr) -> OpTiming {
        let mut escaped = 0u8;
        let up = self.walk_op(pid, kind, addr, |_| escaped += 1);
        self.with_memory(up, escaped)
    }

    /// Composes a walk `up` of this hierarchy with memory behind it: a
    /// fill pays the memory penalty, and each of the `escaped`
    /// writebacks no level absorbed is a memory write.
    #[inline]
    pub fn with_memory(&self, up: UpperOutcome, escaped: u8) -> OpTiming {
        OpTiming {
            cycles: up.cycles + if up.fill.is_some() { MEMORY_CYCLES } else { 0 },
            miss_mask: up.miss_mask,
            mem_writebacks: up.mem_writebacks + escaped,
        }
    }

    /// Composes a walk `up` of this hierarchy's private levels with the
    /// shared level behind them, given what [`SharedLlc::resolve`] did
    /// with the walk's fill and escaped writebacks: a fill pays the
    /// ladder's hit cycles at the position just below this hierarchy's
    /// own levels, plus the memory penalty when the shared level
    /// missed, whose miss bit is bit [`depth`](Self::depth).
    ///
    /// # Panics
    ///
    /// Panics if this hierarchy already holds every unified level the
    /// ladder prices, leaving no position for a shared one.
    #[inline]
    pub fn with_shared(&self, up: UpperOutcome, resolution: &LlcResolution) -> OpTiming {
        let Some(&hit) = UNIFIED_HIT_CYCLES.get(self.levels.len()) else {
            panic!(
                "the latency ladder prices {} unified levels, so no shared level fits behind {} \
                 private ones",
                UNIFIED_HIT_CYCLES.len(),
                self.levels.len()
            );
        };
        let shared = match (up.fill, resolution.miss) {
            (None, _) => 0,
            (Some(_), false) => hit,
            (Some(_), true) => hit + MEMORY_CYCLES,
        };
        OpTiming {
            cycles: up.cycles + shared,
            miss_mask: up.miss_mask | (resolution.miss as u8) << self.depth(),
            mem_writebacks: up.mem_writebacks + resolution.mem_writebacks,
        }
    }

    /// [`access_detailed`](Self::access_detailed) without what lies
    /// behind the hierarchy: walks only its own levels, and instead of
    /// charging the memory penalty reports the fill request (if every
    /// level missed). Writebacks no level absorbs are appended to
    /// `writebacks` in the exact order the victim buffer drains them —
    /// all before the op's fill would reach the next level.
    ///
    /// The caller (the multicore interference engine) composes the
    /// final [`OpTiming`]: with [`with_memory`](Self::with_memory) on a
    /// private platform, or with [`with_shared`](Self::with_shared)
    /// after resolving the fill and writebacks against a [`SharedLlc`].
    pub fn access_upper_detailed(
        &mut self,
        pid: ProcessId,
        kind: AccessKind,
        addr: Addr,
        writebacks: &mut Vec<Writeback>,
    ) -> UpperOutcome {
        self.walk_op(pid, kind, addr, |wb| writebacks.push(wb))
    }

    /// The one walk behind every entry point: one op down the levels
    /// until it hits, each consulted level filling on its miss. A dirty
    /// eviction's writeback is delivered down the stack before the fill
    /// proceeds (victim-buffer order); one that no level absorbs goes
    /// to `escaped`, which counts it toward memory or exports it toward
    /// a shared level. A miss at every level leaves the line in
    /// [`UpperOutcome::fill`]. A flush costs its issue slot and drains
    /// the private copies; their dirty data goes straight to memory
    /// (`mem_writebacks`, clflush semantics), bypassing `escaped` and
    /// any shared level, whose copy the coherence layer drains
    /// separately.
    ///
    /// Always inlined, so each entry point's `escaped` sink compiles
    /// into its own copy of the walk: an L1 hit, the common case,
    /// then costs no call.
    #[inline(always)]
    fn walk_op(
        &mut self,
        pid: ProcessId,
        kind: AccessKind,
        addr: Addr,
        mut escaped: impl FnMut(Writeback),
    ) -> UpperOutcome {
        if kind == AccessKind::Flush {
            let line = self.l1d.geometry().line_of(addr);
            let inv = self.invalidate_line(pid, line);
            return UpperOutcome {
                cycles: L1_HIT_CYCLES,
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
            UpperOutcome { cycles: L1_HIT_CYCLES, miss_mask: 0, fill: None, mem_writebacks: 0 };
        let res = l1.access_rw(pid, line, write);
        if let AccessOutcome::Miss { evicted: Some(ev), .. } = res {
            if ev.dirty {
                let wb = Writeback { line: ev.line, owner: ev.owner };
                self.cascade_writeback(0, wb, &mut escaped);
            }
        }
        if res.is_hit() {
            return out;
        }
        out.miss_mask |= 1;
        for (k, &hit) in UNIFIED_HIT_CYCLES.iter().enumerate().take(self.levels.len()) {
            out.cycles += hit;
            let res = self.levels[k].access(pid, line);
            if let AccessOutcome::Miss { evicted: Some(ev), .. } = res {
                if ev.dirty {
                    let wb = Writeback { line: ev.line, owner: ev.owner };
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
            if self.levels[k].receive_writeback(wb.owner, wb.line) {
                return;
            }
        }
        escaped(wb);
    }

    /// Sets the write policy of every cache level (the L1I never sees
    /// stores, so its setting is inert but kept consistent).
    pub fn set_write_policy(&mut self, policy: WritePolicy) {
        self.l1i.set_write_policy(policy);
        self.l1d.set_write_policy(policy);
        for level in &mut self.levels {
            level.set_write_policy(policy);
        }
    }

    /// Sets the placement seed of `pid` in every cache, deriving a
    /// decorrelated sub-seed per level.
    pub fn set_process_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.l1i.set_seed(pid, seed.derive(1));
        self.l1d.set_seed(pid, seed.derive(2));
        for (k, level) in self.levels.iter_mut().enumerate() {
            level.set_seed(pid, seed.derive(3 + k as u64));
        }
    }

    /// Arms `defense` on every level (both L1s and the unified
    /// levels) through [`Cache::apply_defense`]. Seed rotation acts on
    /// the shared level — apply it via [`SharedLlc::apply_defense`] —
    /// and [`DefenseKind::RandomSafe`] is a *configuration*: build the
    /// platform with [`DefenseKind::effective_setup`] instead.
    pub fn apply_defense(&mut self, defense: DefenseKind) {
        for cache in [&mut self.l1i, &mut self.l1d].into_iter().chain(&mut self.levels) {
            cache.apply_defense(defense);
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
            level.set_way_partition(pid, lo, hi);
        }
    }

    /// Marks `size` bytes at `start` as protected data (RPCache P-bit,
    /// e.g. over the AES tables) in the data-side caches of every
    /// level.
    pub fn add_protected_range(&mut self, start: Addr, size: u64) {
        let (first, last) = self.l1d.geometry().line_range(start, size);
        self.l1d.add_protected_range(first, last);
        for level in &mut self.levels {
            level.add_protected_range(first, last);
        }
    }

    /// Marks `size` bytes at `start` as coherence-tracked in every
    /// level (both L1s and the unified levels): fills of the range
    /// carry per-line MSI state, and the platform's invalidation
    /// protocol may drain copies via
    /// [`invalidate_line`](Self::invalidate_line).
    pub fn add_coherent_range(&mut self, start: Addr, size: u64) {
        let (first, last) = self.l1d.geometry().line_range(start, size);
        self.l1i.add_coherent_range(first, last);
        self.l1d.add_coherent_range(first, last);
        for level in &mut self.levels {
            level.add_coherent_range(first, last);
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
            absorb(level.invalidate_line(pid, line));
        }
        out
    }

    /// Flushes every cache.
    pub fn flush_all(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        for level in &mut self.levels {
            level.flush();
        }
    }

    /// Flushes all lines of `pid` in every cache.
    pub fn flush_process(&mut self, pid: ProcessId) {
        self.l1i.flush_process(pid);
        self.l1d.flush_process(pid);
        for level in &mut self.levels {
            level.flush_process(pid);
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
        &self.levels[0]
    }

    /// The unified L3, when the hierarchy has one.
    pub fn l3(&self) -> Option<&Cache> {
        self.levels.get(1)
    }

    /// The unified levels in lookup order (L2 first).
    pub fn unified_levels(&self) -> impl Iterator<Item = &Cache> {
        self.levels.iter()
    }

    /// Summed statistics of all levels.
    pub fn total_stats(&self) -> CacheStats {
        let mut total = *self.l1i.stats() + *self.l1d.stats();
        for level in &self.levels {
            total += *level.stats();
        }
        total
    }

    /// Clears statistics on all levels.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        for level in &mut self.levels {
            level.reset_stats();
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
    fn empty_batch_is_free() {
        let mut h = three_level();
        assert_eq!(h.access_batch_cycles(pid(), &[]), 0);
        assert_eq!(h.total_stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one unified level")]
    fn from_parts_rejects_empty_stack() {
        let l1 = CacheGeometry::paper_l1();
        let mk =
            |label: &str| Cache::new(label, l1, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        Hierarchy::from_parts(mk("L1I"), mk("L1D"), Vec::new());
    }

    #[test]
    #[should_panic(expected = "latency ladder prices 2 unified levels, not 3")]
    fn from_parts_rejects_levels_the_ladder_does_not_price() {
        let mk = |label: &str, geom| {
            Cache::new(label, geom, PlacementKind::Modulo, ReplacementKind::Lru, 1)
        };
        let l1 = CacheGeometry::paper_l1();
        let unified = ["L2", "L3", "L4"].map(|l| mk(l, CacheGeometry::paper_l2())).into();
        Hierarchy::from_parts(mk("L1I", l1), mk("L1D", l1), unified);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn from_parts_rejects_mixed_line_sizes() {
        let l1 = CacheGeometry::paper_l1();
        let odd = CacheGeometry::new(2048, 4, 64).unwrap();
        let mk =
            |label: &str| Cache::new(label, l1, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        let l2 = Cache::new("L2", odd, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        Hierarchy::from_parts(mk("L1I"), mk("L1D"), vec![l2]);
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
        let unified = (0..private_unified).map(|k| mk("L2", l2, 0x33 + k as u64)).collect();
        let mut h =
            Hierarchy::from_private_parts(mk("L1I", l1, 0x11), mk("L1D", l1, 0x22), unified);
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
    #[should_panic(expected = "prices 2 unified levels, so no shared level fits behind 2 private")]
    fn with_shared_refuses_a_shared_level_the_ladder_does_not_price() {
        let h = private_hierarchy(2, WritePolicy::WriteThrough);
        let up = UpperOutcome { cycles: 1, miss_mask: 0, fill: None, mem_writebacks: 0 };
        h.with_shared(up, &LlcResolution { miss: false, mem_writebacks: 0, evicted: None });
    }

    #[test]
    fn shared_llc_fills_hits_and_writes_back() {
        let geom = CacheGeometry::new(8, 2, 32).unwrap();
        let mut llc =
            SharedLlc::new(Cache::new("SL2", geom, PlacementKind::Modulo, ReplacementKind::Lru, 1));
        llc.set_write_policy(WritePolicy::WriteBack);
        let p = pid();
        let line = LineAddr::new(5);
        assert!(!llc.cache_mut().access(p, line).is_hit(), "cold fill");
        assert!(llc.cache_mut().access(p, line).is_hit(), "warm hit");
        // An absorbed writeback dirties the copy; evicting it later
        // must report a memory-bound writeback.
        assert!(llc.receive_writeback(p, line));
        assert_eq!(llc.cache().dirty_lines(), 1);
        let written: u8 = (1..=2u64)
            .map(|i| llc.resolve(p, Some(LineAddr::new(5 + 8 * i)), &[]).mem_writebacks)
            .sum();
        assert_eq!(written, 1, "the dirty victim must reach memory once");
        // An absent line forwards the writeback to memory.
        assert!(!llc.receive_writeback(p, LineAddr::new(99)));
        llc.flush();
        assert_eq!(llc.cache().occupancy(), 0);
    }

    #[test]
    fn shared_llc_partitions_confine_fills_per_core() {
        let geom = CacheGeometry::new(8, 2, 32).unwrap();
        let mut llc =
            SharedLlc::new(Cache::new("SL2", geom, PlacementKind::Modulo, ReplacementKind::Lru, 1));
        let (core0, core1) = (ProcessId::new(1), ProcessId::new(2));
        llc.set_way_partition(core0, 0, 1);
        llc.set_way_partition(core1, 1, 2);
        for i in 0..64u64 {
            llc.cache_mut().access(core0, LineAddr::new(i));
            llc.cache_mut().access(core1, LineAddr::new(1000 + i));
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

    #[test]
    fn flush_drains_private_copies_straight_to_memory() {
        let a = Addr::new(0x4_0000);
        for build in [hierarchy as fn() -> Hierarchy, three_level] {
            let mut h = build();
            h.set_write_policy(WritePolicy::WriteBack);
            h.access(pid(), AccessKind::Write, a);
            // The dirty L1D copy goes to memory; the clean copies below
            // are dropped too, and the flush costs only its issue slot.
            let t = h.access_detailed(pid(), AccessKind::Flush, a);
            assert_eq!(t, OpTiming { cycles: 1, miss_mask: 0, mem_writebacks: 1 });
            assert_eq!(h.total_stats().coh_invalidations(), h.depth() as u64);
            let every_level = (1u8 << h.depth()) - 1;
            assert_eq!(h.access_detailed(pid(), AccessKind::Read, a).miss_mask, every_level);
        }
        // In front of a shared level the drained data bypasses the
        // caller's writeback buffer as well.
        let mut h = private_hierarchy(1, WritePolicy::WriteBack);
        let mut wbs = Vec::new();
        h.access_upper_detailed(pid(), AccessKind::Write, a, &mut wbs);
        let up = h.access_upper_detailed(pid(), AccessKind::Flush, a, &mut wbs);
        assert_eq!((up.cycles, up.fill, up.mem_writebacks), (1, None, 1));
        assert!(wbs.is_empty());
        let line = h.l1d().geometry().line_of(a);
        assert_eq!(h.access_upper_detailed(pid(), AccessKind::Read, a, &mut wbs).fill, Some(line));
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
    fn zero_byte_ranges_register_no_line() {
        let base = Addr::new(0x4000); // line 0x200 at 32-byte lines
        let mut h = three_level();
        let geom = CacheGeometry::new(8, 2, 32).unwrap();
        let mut llc =
            SharedLlc::new(Cache::new("SL2", geom, PlacementKind::Modulo, ReplacementKind::Lru, 1));
        h.add_protected_range(base, 0);
        h.add_coherent_range(base, 0);
        llc.add_protected_range(base, 0);
        llc.add_coherent_range(base, 0);
        for cache in [h.l1i(), h.l1d(), h.l2(), h.l3().unwrap(), llc.cache()] {
            assert_eq!(cache.protected_ranges(), [], "a zero-byte range protected a line");
            assert_eq!(cache.coherent_ranges(), [], "a zero-byte range tracked a line");
        }
        assert!(!llc.has_coherence(), "a zero-byte range armed the protocol");
        // One byte covers the one line holding it.
        h.add_coherent_range(base, 1);
        llc.add_protected_range(base, 1);
        assert_eq!(h.l1d().coherent_ranges(), [(0x200, 0x201)]);
        assert_eq!(llc.cache().protected_ranges(), [(0x200, 0x201)]);
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
