//! Set-associative cache model with pluggable placement and
//! replacement, per-process seeds, and RPCache-style interference
//! randomization.
//!
//! # Hot-path layout
//!
//! Every experiment in the reproduction funnels through
//! [`Cache::access`], so the model is organized for throughput:
//!
//! * placement and replacement run through the policy engines
//!   ([`PlacementEngine`]/[`ReplacementEngine`]), the only way to build
//!   and call a policy — direct, inlinable match arms;
//! * per-line metadata is packed: one contiguous `tags` array using a
//!   sentinel value ([`INVALID_TAG`]) for invalid lines, plus one
//!   `LineMeta` byte-pair array (owner + flag byte), so a set's ways
//!   are scanned from a single cache-resident region;
//! * protected ranges are kept sorted and merged (binary search per
//!   fill instead of a linear scan over possibly overlapping entries);
//! * way partitions are kept sorted by pid, and a one-entry hot-pid
//!   context cache memoizes the `(seed, way range)` pair of the
//!   currently accessing process;
//! * each fill records its set (after any RPCache redirect) the first
//!   time that set fills after a flush, so [`Cache::flush`] and
//!   [`Cache::flush_process`] visit only the sets filled since the
//!   last flush. An MBPTA run touches a few hundred of an L3's 8,192
//!   sets, so its flush costs what the run touched, not the capacity.
//!
//! Every access, including each line of [`Cache::access_batch`], runs
//! one path: [`Cache::access_rw`] records its statistics, and one
//! fill-way choice serves both the normal fill and an RPCache
//! redirect.
//!
//! The differential suite `tests/engine_equivalence.rs` checks every
//! public operation op by op against a naive reference model in the
//! test tree (`tests/model/`), which states the same rules with linear
//! scans and no memo or hot context.

use crate::addr::LineAddr;
use crate::defense::TtlConfig;
use crate::geometry::CacheGeometry;
use crate::placement::{PlacementEngine, PlacementKind};
use crate::prng::{mix64, Prng, SplitMix64};
use crate::replacement::{ReplacementEngine, ReplacementKind};
use crate::seed::{ProcessId, Seed, SeedTable};
use crate::stats::CacheStats;
use core::fmt;

/// Sentinel tag marking an invalid line. Line addresses are byte
/// addresses shifted right by the line-offset bits, so no reachable
/// line address collides with it.
pub const INVALID_TAG: u64 = u64::MAX;

/// How the cache propagates stores (the policy knob of the
/// interference model: write-back caches turn dirty evictions into
/// bus traffic, write-through caches drain stores through a write
/// buffer that this model treats as free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Stores propagate immediately; lines are never dirty and
    /// evictions never write back (the seed model's behaviour).
    #[default]
    WriteThrough,
    /// Stores mark the line dirty; evicting a dirty line emits a
    /// writeback toward the next level.
    WriteBack,
}

/// Packed per-line metadata: the owner process, a flag byte, and the
/// remaining TTL (ClepsydraCache-style lifetime; 0 = never expires).
/// Validity is encoded in the tags array via [`INVALID_TAG`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineMeta {
    owner: u16,
    flags: u8,
    /// Remaining lifetime in set-accesses. 0 means infinite: lines
    /// filled while the TTL defense is off never expire, even if the
    /// defense is armed later.
    ttl: u8,
}

impl LineMeta {
    const PROTECTED: u8 = 1;
    /// The line holds data newer than the next level (write-back
    /// caches only; never set under [`WritePolicy::WriteThrough`]).
    const DIRTY: u8 = 2;
    /// The line falls in a registered coherent range and is tracked by
    /// the platform's invalidation protocol: a valid coherent line is
    /// in MSI state S (clean) or M (`DIRTY` also set); invalidation
    /// moves it to I by dropping the tag.
    const COHERENT: u8 = 4;

    const EMPTY: LineMeta = LineMeta { owner: 0, flags: 0, ttl: 0 };

    #[inline]
    fn protected(self) -> bool {
        self.flags & Self::PROTECTED != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.flags & Self::DIRTY != 0
    }

    #[inline]
    fn coherent(self) -> bool {
        self.flags & Self::COHERENT != 0
    }
}

/// MSI coherence state of a valid line in a coherence-tracked range
/// (see [`Cache::coherence_state`]). Invalid lines have no state — the
/// I of MSI is the absence of the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohState {
    /// Present and clean: other caches may hold copies.
    Shared,
    /// Present and dirty: this copy is newer than the level below.
    Modified,
}

/// Result of [`Cache::invalidate_line`]: whether a copy was present,
/// and whether it was dirty (its data must be written back — under
/// flush/invalidate semantics, forced to memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidatedCopy {
    /// A valid copy existed and was dropped.
    pub present: bool,
    /// The dropped copy was dirty.
    pub dirty: bool,
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The displaced line address.
    pub line: LineAddr,
    /// The process that owned the displaced line.
    pub owner: ProcessId,
    /// Whether the displaced line was dirty (its eviction emitted a
    /// writeback; always `false` on write-through caches).
    pub dirty: bool,
}

/// One dirty-eviction writeback travelling down a hierarchy: the victim
/// line and its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// The dirty line written back.
    pub line: LineAddr,
    /// The process that owned (and dirtied) the line.
    pub owner: ProcessId,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was filled.
    Miss {
        /// The valid line displaced by the fill, if any.
        evicted: Option<EvictedLine>,
        /// Whether an RPCache contention remap redirected the fill to a
        /// random set.
        redirected: bool,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Whether the access missed.
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

/// Aggregate outcome of [`Cache::access_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled).
    pub misses: u64,
    /// Misses that displaced a valid line.
    pub evictions: u64,
    /// Fills redirected by an RPCache contention remap.
    pub redirected: u64,
    /// Evictions of dirty lines that emitted a writeback.
    pub writebacks: u64,
}

impl BatchOutcome {
    /// Total accesses in the batch.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One-entry context cache for the hot process: seed and way range.
#[derive(Debug, Clone, Copy)]
struct HotContext {
    /// `u32::MAX` marks the cache empty; pids are 16-bit.
    pid: u32,
    seed: Seed,
    lo: u32,
    hi: u32,
}

impl HotContext {
    const EMPTY: HotContext = HotContext { pid: u32::MAX, seed: Seed::ZERO, lo: 0, hi: 0 };
}

/// Bounds on the direct-mapped placement memo (always a power of two).
/// The memo is sized to the cache's own line count: 1024 entries cover
/// the L1 working sets, while L2/L3-sized caches get proportionally
/// larger memos so the miss stream reaching them — whose footprint
/// scales with the lower level, not the L1 — still hits the memo
/// instead of re-running the Benes network / Feistel hash per miss.
const PLACE_MEMO_MIN_ENTRIES: usize = 1024;
const PLACE_MEMO_MAX_ENTRIES: usize = 8192;

/// One placement-memo slot: the memoized `place(line, seed) = set`.
/// `line == INVALID_TAG` marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct PlaceMemoEntry {
    line: u64,
    seed: u64,
    set: u32,
}

impl PlaceMemoEntry {
    const EMPTY: PlaceMemoEntry = PlaceMemoEntry { line: INVALID_TAG, seed: 0, set: 0 };
}

/// A set-associative cache with seed-parameterized placement.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::cache::Cache;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::PlacementKind;
/// use tscache_core::replacement::ReplacementKind;
/// use tscache_core::seed::{ProcessId, Seed};
///
/// let mut cache = Cache::new(
///     "L1D",
///     CacheGeometry::paper_l1(),
///     PlacementKind::RandomModulo,
///     ReplacementKind::Random,
///     0xc0ffee,
/// );
/// let pid = ProcessId::new(1);
/// cache.set_seed(pid, Seed::new(42));
/// let line = LineAddr::new(0x100);
/// assert!(cache.access(pid, line).is_miss()); // cold
/// assert!(cache.access(pid, line).is_hit());  // warm
/// ```
pub struct Cache {
    label: String,
    geom: CacheGeometry,
    ways: u32,
    placement: PlacementEngine,
    replacement: ReplacementEngine,
    /// Flat `sets × ways` tag array; [`INVALID_TAG`] encodes invalid.
    tags: Vec<u64>,
    /// Flat `sets × ways` owner/flag array, parallel to `tags`.
    meta: Vec<LineMeta>,
    /// Protected line-address ranges (RPCache's P-bit pages holding
    /// crypto tables): sorted by start, merged, pairwise disjoint.
    protected_ranges: Vec<(u64, u64)>,
    /// Coherence-tracked line-address ranges (shared read-mostly
    /// segments, e.g. an AES T-table shared across cores): sorted by
    /// start, merged, pairwise disjoint. Fills inside a range carry
    /// the [`LineMeta::COHERENT`] flag.
    coherent_ranges: Vec<(u64, u64)>,
    /// Way partitions `(pid, lo, hi)`, sorted by pid (cache
    /// partitioning, the §7 alternative). Processes without an entry
    /// may fill any way.
    partitions: Vec<(u16, u32, u32)>,
    seeds: SeedTable,
    write_policy: WritePolicy,
    hot: HotContext,
    /// Direct-mapped memo for expensive pure placements (the Benes
    /// network of Random Modulo, the HashRP rotate/XOR/Feistel hash):
    /// `place(line, seed)` is deterministic for these policies, so the
    /// per-access network evaluation collapses to a table hit for warm
    /// working sets. Empty (and bypassed) for policies where
    /// memoization can't apply or wouldn't pay (RPCache mutates its
    /// mapping on contention; modulo/XOR are already single-op).
    place_memo: Vec<PlaceMemoEntry>,
    /// The sets that took a fill since the last [`flush`](Cache::flush),
    /// in first-fill order; `filled[set]` marks membership. A fill is
    /// the only way a line becomes valid, so every valid line sits in a
    /// listed set.
    filled_sets: Vec<u32>,
    filled: Vec<bool>,
    rng: SplitMix64,
    /// The raw constructor seed, kept to derive per-process partition
    /// streams lazily.
    rng_seed: u64,
    /// Per-process replacement-RNG streams `(pid, stream)`, sorted by
    /// pid, used for victim selection *inside* a way partition.
    /// Partitioned replacement metadata is per-partition hardware
    /// state: drawing partitioned victims from the shared [`rng`]
    /// stream would let any co-resident process's (random-replacement)
    /// fills perturb a fully partitioned process's victim choices —
    /// breaking the exact isolation the §7 partition guarantee (and
    /// the shared-LLC isolation proptests) require.
    ///
    /// [`rng`]: Cache::rng
    part_rngs: Vec<(u16, SplitMix64)>,
    /// Armed ClepsydraCache-style TTL defense; `None` (or an infinite
    /// config, filtered out by [`set_ttl`](Cache::set_ttl)) leaves the
    /// access path bit-identical to an undefended cache.
    ttl: Option<TtlConfig>,
    /// Dedicated stream for per-fill TTL jitter, derived from the
    /// constructor seed so arming the defense perturbs no other
    /// randomness stream. Reset to its derivation point on flush,
    /// mirroring [`part_rngs`](Cache::part_rngs).
    ttl_rng: SplitMix64,
    /// TimeCache-style timed-access normalization: a process's first
    /// access to a line another process loaded is levelled to miss
    /// latency (ownership transfers; the line itself stays resident).
    normalize: bool,
    stats: CacheStats,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("label", &self.label)
            .field("geometry", &self.geom)
            .field("placement", &self.placement.name())
            .field("replacement", &self.replacement.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates a cache. `rng_seed` drives random replacement and
    /// RPCache remaps; it is independent of placement seeds.
    pub fn new(
        label: impl Into<String>,
        geom: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        rng_seed: u64,
    ) -> Self {
        let n = geom.total_lines() as usize;
        let placement = PlacementEngine::new(placement, &geom);
        let place_memo = if placement.memoizable() {
            let entries =
                n.next_power_of_two().clamp(PLACE_MEMO_MIN_ENTRIES, PLACE_MEMO_MAX_ENTRIES);
            vec![PlaceMemoEntry::EMPTY; entries]
        } else {
            Vec::new()
        };
        Cache {
            label: label.into(),
            geom,
            ways: geom.ways(),
            placement,
            replacement: ReplacementEngine::new(replacement, &geom),
            tags: vec![INVALID_TAG; n],
            meta: vec![LineMeta::EMPTY; n],
            protected_ranges: Vec::new(),
            coherent_ranges: Vec::new(),
            partitions: Vec::new(),
            seeds: SeedTable::new(),
            write_policy: WritePolicy::WriteThrough,
            hot: HotContext::EMPTY,
            place_memo,
            filled_sets: Vec::new(),
            filled: vec![false; geom.sets() as usize],
            rng: SplitMix64::new(rng_seed ^ 0x6361_6368_6521),
            rng_seed,
            part_rngs: Vec::new(),
            ttl: None,
            ttl_rng: SplitMix64::new(mix64(rng_seed ^ 0x0074_746c)),
            normalize: false,
            stats: CacheStats::new(),
        }
    }

    /// Index of `pid`'s partition-replacement stream, creating it on
    /// first use (derived purely from the constructor seed and the
    /// pid, so it is reproducible and independent of access history).
    #[inline]
    fn part_rng_index(&mut self, pid: ProcessId) -> usize {
        match self.part_rngs.binary_search_by_key(&pid.as_u16(), |&(p, _)| p) {
            Ok(i) => i,
            Err(i) => {
                let stream = SplitMix64::new(mix64(
                    self.rng_seed ^ 0x7061_7274 ^ ((pid.as_u16() as u64) << 40),
                ));
                self.part_rngs.insert(i, (pid.as_u16(), stream));
                i
            }
        }
    }

    /// The cache's report label (e.g. `"L1D"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Name of the placement policy.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// Name of the replacement policy.
    pub fn replacement_name(&self) -> &'static str {
        self.replacement.name()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears the statistics counters (cache contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Sets the placement seed of `pid`. Contents cached under the old
    /// seed are *not* flushed: the paper's OS support flushes
    /// explicitly when consistency requires it (§5).
    pub fn set_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.seeds.set(pid, seed);
        self.hot = HotContext::EMPTY;
    }

    /// Arms (or disarms) ClepsydraCache-style TTL evictions: every
    /// fill draws a lifetime of `base + uniform(0..=jitter)` accesses
    /// to its set; each set access decrements resident lifetimes and
    /// drains expired lines before lookup. Dirty expiries count a
    /// writeback (drained straight to memory, like
    /// [`invalidate_line`](Self::invalidate_line)); every expiry
    /// counts [`ttl_expiries`](CacheStats::ttl_expiries).
    ///
    /// An *infinite* config (`base == 0`) is normalized to `None`, so
    /// a TTL=∞ cache is bit-identical to an undefended one — the
    /// jitter stream is never drawn from. Lines already resident keep
    /// the lifetime they were filled with (0 = never expires).
    pub fn set_ttl(&mut self, ttl: Option<TtlConfig>) {
        self.ttl = ttl.filter(TtlConfig::is_finite);
    }

    /// The armed TTL defense, if any.
    pub fn ttl(&self) -> Option<TtlConfig> {
        self.ttl
    }

    /// Arms (or disarms) TimeCache-style timed-access normalization:
    /// the first access a process makes to a line another process
    /// loaded reports a *miss* (full latency) while transferring the
    /// line's ownership — so reload/probe timing cannot distinguish a
    /// victim-touched line from a cold one. [`probe`](Self::probe)
    /// likewise only reports lines the probing process owns.
    pub fn set_normalize(&mut self, on: bool) {
        self.normalize = on;
    }

    /// Whether timed-access normalization is armed.
    pub fn normalize_enabled(&self) -> bool {
        self.normalize
    }

    /// Sets the write policy. Switching an already-populated cache to
    /// write-through does not clean existing dirty lines; switch before
    /// issuing traffic (or flush first).
    pub fn set_write_policy(&mut self, policy: WritePolicy) {
        self.write_policy = policy;
    }

    /// The cache's write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Number of currently dirty lines.
    pub fn dirty_lines(&self) -> usize {
        self.tags.iter().zip(&self.meta).filter(|(&t, m)| t != INVALID_TAG && m.dirty()).count()
    }

    /// Delivers a writeback of `line` (owned and dirtied by `owner` in
    /// the level above) to this cache. If the line is present and this
    /// cache is write-back, its copy is marked dirty and the writeback
    /// is absorbed (returns `true`); otherwise it must continue toward
    /// the next level (returns `false`). The delivery is *silent*: no
    /// fill, no replacement update, no hit/miss accounting — dirty
    /// state is the only side effect.
    pub fn receive_writeback(&mut self, owner: ProcessId, line: LineAddr) -> bool {
        let (seed, _, _) = self.context(owner);
        let set = self.place(line, seed);
        match self.find_way(set, line) {
            Some(way) if self.write_policy == WritePolicy::WriteBack => {
                let slot = (set * self.ways + way) as usize;
                self.meta[slot].flags |= LineMeta::DIRTY;
                true
            }
            _ => false,
        }
    }

    /// Marks the line-address range `start..end` as *protected*
    /// (RPCache's per-page P bit over crypto tables): interference-
    /// randomizing policies redirect any fill that would evict a
    /// protected line to a random set.
    ///
    /// Ranges are kept sorted and merged, so overlapping or adjacent
    /// registrations collapse into one entry and per-fill lookups are
    /// a binary search.
    pub fn add_protected_range(&mut self, start: LineAddr, end: LineAddr) {
        Self::insert_range(&mut self.protected_ranges, start, end);
    }

    /// Inserts `start..end` into a sorted-merged-disjoint range set.
    fn insert_range(ranges: &mut Vec<(u64, u64)>, start: LineAddr, end: LineAddr) {
        let (start, end) = (start.as_u64(), end.as_u64());
        if start >= end {
            return;
        }
        ranges.push((start, end));
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for &(s, e) in ranges.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *ranges = merged;
    }

    /// Binary search over a sorted, disjoint range set.
    #[inline]
    fn in_ranges(ranges: &[(u64, u64)], line: u64) -> bool {
        let idx = ranges.partition_point(|&(s, _)| s <= line);
        idx > 0 && line < ranges[idx - 1].1
    }

    /// The registered protected ranges (sorted, merged, disjoint).
    pub fn protected_ranges(&self) -> &[(u64, u64)] {
        &self.protected_ranges
    }

    /// Whether `line` falls in a protected range. Binary search over
    /// the sorted, disjoint ranges.
    #[inline]
    pub fn is_protected_addr(&self, line: u64) -> bool {
        Self::in_ranges(&self.protected_ranges, line)
    }

    /// Marks the line-address range `start..end` as *coherence-tracked*
    /// (a shared segment kept coherent by the platform's invalidation
    /// protocol). Fills in the range carry per-line MSI state readable
    /// via [`coherence_state`](Self::coherence_state); untracked lines
    /// stay non-coherent (the pre-coherence per-core-private world).
    pub fn add_coherent_range(&mut self, start: LineAddr, end: LineAddr) {
        Self::insert_range(&mut self.coherent_ranges, start, end);
    }

    /// The registered coherent ranges (sorted, merged, disjoint).
    pub fn coherent_ranges(&self) -> &[(u64, u64)] {
        &self.coherent_ranges
    }

    /// Whether this cache tracks any coherent range.
    #[inline]
    pub fn has_coherent_ranges(&self) -> bool {
        !self.coherent_ranges.is_empty()
    }

    /// Whether `line` falls in a coherent range.
    #[inline]
    pub fn is_coherent_addr(&self, line: u64) -> bool {
        Self::in_ranges(&self.coherent_ranges, line)
    }

    /// MSI state of `pid`'s view of `line`: `None` when the line is
    /// absent (state I) or not coherence-tracked, otherwise
    /// [`CohState::Modified`] for a dirty copy and [`CohState::Shared`]
    /// for a clean one.
    pub fn coherence_state(&mut self, pid: ProcessId, line: LineAddr) -> Option<CohState> {
        let (seed, _, _) = self.context(pid);
        let set = self.place(line, seed);
        let way = self.find_way(set, line)?;
        let meta = self.meta[(set * self.ways + way) as usize];
        if !meta.coherent() {
            return None;
        }
        Some(if meta.dirty() { CohState::Modified } else { CohState::Shared })
    }

    /// Invalidates `pid`'s copy of `line` (a coherence action: an
    /// upgrade by a remote writer, a flush broadcast, or an inclusive-
    /// LLC back-invalidation). Placement resolves under `pid`'s seed —
    /// the holder's own view, which is what physically indexes its
    /// copy. Reports whether a copy existed and whether it was dirty;
    /// a present copy records one coherence invalidation in the stats.
    pub fn invalidate_line(&mut self, pid: ProcessId, line: LineAddr) -> InvalidatedCopy {
        let (seed, _, _) = self.context(pid);
        let set = self.place(line, seed);
        match self.find_way(set, line) {
            Some(way) => {
                let slot = (set * self.ways + way) as usize;
                let dirty = self.meta[slot].dirty();
                self.tags[slot] = INVALID_TAG;
                self.meta[slot] = LineMeta::EMPTY;
                self.stats.record_coh_invalidation();
                if dirty {
                    // The drained data is forced out (to memory under
                    // flush/back-invalidate semantics) — counted like
                    // any other dirty eviction.
                    self.stats.record_writeback();
                }
                InvalidatedCopy { present: true, dirty }
            }
            None => InvalidatedCopy::default(),
        }
    }

    /// Restricts `pid` to fill ways `lo..hi` in every set (strict way
    /// partitioning, the cache-partitioning alternative of §7). Hits on
    /// lines outside the partition are still served — partitioning
    /// constrains placement of *new* data, not lookup.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the associativity.
    pub fn set_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        assert!(lo < hi && hi <= self.ways, "invalid way range {lo}..{hi}");
        let raw = pid.as_u16();
        match self.partitions.binary_search_by_key(&raw, |&(p, _, _)| p) {
            Ok(i) => self.partitions[i] = (raw, lo, hi),
            Err(i) => self.partitions.insert(i, (raw, lo, hi)),
        }
        self.hot = HotContext::EMPTY;
    }

    /// Removes `pid`'s way partition.
    pub fn clear_way_partition(&mut self, pid: ProcessId) {
        if let Ok(i) = self.partitions.binary_search_by_key(&pid.as_u16(), |&(p, _, _)| p) {
            self.partitions.remove(i);
        }
        self.hot = HotContext::EMPTY;
    }

    /// Resolves the `(seed, way range)` context of `pid`, memoized for
    /// the hot process.
    #[inline]
    fn context(&mut self, pid: ProcessId) -> (Seed, u32, u32) {
        if self.hot.pid == pid.as_u16() as u32 {
            return (self.hot.seed, self.hot.lo, self.hot.hi);
        }
        let seed = self.seeds.get(pid);
        let (lo, hi) = match self.partitions.binary_search_by_key(&pid.as_u16(), |&(p, _, _)| p) {
            Ok(i) => (self.partitions[i].1, self.partitions[i].2),
            Err(_) => (0, self.ways),
        };
        self.hot = HotContext { pid: pid.as_u16() as u32, seed, lo, hi };
        (seed, lo, hi)
    }

    /// Returns the placement seed of `pid` ([`Seed::ZERO`] if unset).
    pub fn seed(&self, pid: ProcessId) -> Seed {
        self.seeds.get(pid)
    }

    /// Invalidates every line.
    ///
    /// Dirty lines are *drained*: their data is written to memory (one
    /// counted writeback each) before invalidation — a flush may not
    /// silently discard modified data. Per-process partition-
    /// replacement streams reset to their derivation points, so a
    /// flush followed by an identical replay is bit-reproducible for
    /// partitioned victim selection (the shared hardware RNG stream is
    /// *not* rewound: it models free-running LFSR state that survives
    /// a flush). Returns the number of dirty lines drained.
    ///
    /// Visits only the sets filled since the last flush: every other
    /// set is already empty. Replacement bookkeeping is left as it is:
    /// a victim is drawn only when every way of its range holds a line
    /// filled since this flush, so no choice reads older bookkeeping.
    pub fn flush(&mut self) -> u64 {
        let ways = self.ways as usize;
        let mut drained = 0u64;
        for &set in &self.filled_sets {
            let slots = set as usize * ways..(set as usize + 1) * ways;
            for (tag, meta) in self.tags[slots.clone()].iter_mut().zip(&mut self.meta[slots]) {
                drained += (*tag != INVALID_TAG && meta.dirty()) as u64;
                *tag = INVALID_TAG;
                *meta = LineMeta::EMPTY;
            }
            self.filled[set as usize] = false;
        }
        self.filled_sets.clear();
        self.stats.record_writebacks(drained);
        self.part_rngs.clear();
        self.ttl_rng = SplitMix64::new(mix64(self.rng_seed ^ 0x0074_746c));
        self.stats.record_flush();
        drained
    }

    /// Invalidates every line owned by `pid`, draining its dirty lines
    /// to memory (counted) and dropping its partition-replacement
    /// stream (it re-derives from the constructor seed on next use, so
    /// the process restarts from a reproducible victim-selection
    /// state). Returns the number of dirty lines drained. Visits only
    /// the sets filled since the last [`flush`](Self::flush).
    pub fn flush_process(&mut self, pid: ProcessId) -> u64 {
        let raw = pid.as_u16();
        let ways = self.ways as usize;
        let mut drained = 0u64;
        for &set in &self.filled_sets {
            for slot in set as usize * ways..(set as usize + 1) * ways {
                if self.meta[slot].owner == raw && self.tags[slot] != INVALID_TAG {
                    drained += self.meta[slot].dirty() as u64;
                    self.tags[slot] = INVALID_TAG;
                    self.meta[slot] = LineMeta::EMPTY;
                }
            }
        }
        self.stats.record_writebacks(drained);
        if let Ok(i) = self.part_rngs.binary_search_by_key(&raw, |&(p, _)| p) {
            self.part_rngs.remove(i);
        }
        self.stats.record_flush();
        drained
    }

    /// Looks a line up without changing replacement state or filling.
    ///
    /// Needs `&mut self` because table-based placement builds its
    /// per-seed state lazily.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX` (the [`INVALID_TAG`] sentinel),
    /// which would falsely match invalid ways.
    pub fn probe(&mut self, pid: ProcessId, line: LineAddr) -> bool {
        assert_ne!(line.as_u64(), INVALID_TAG, "line address collides with sentinel");
        let (seed, _, _) = self.context(pid);
        let set = self.place(line, seed);
        match self.find_way(set, line) {
            // Under timed-access normalization another process's line
            // is indistinguishable from an absent one — a real access
            // would be levelled to miss latency, so a probe must not
            // see it either.
            Some(way) if self.normalize => {
                self.meta[(set * self.ways + way) as usize].owner == pid.as_u16()
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Resolves `place(line, seed)` through the direct-mapped memo for
    /// memoizable policies; falls through to the engine otherwise.
    /// Exact: the memo is only active for policies whose placement is
    /// a pure function of `(line, seed)`, and every entry stores the
    /// full key.
    #[inline]
    fn place(&mut self, line: LineAddr, seed: Seed) -> u32 {
        if self.place_memo.is_empty() {
            return self.placement.place(line, seed);
        }
        let idx = ((line.as_u64() ^ seed.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize)
            & (self.place_memo.len() - 1);
        let entry = self.place_memo[idx];
        if entry.line == line.as_u64() && entry.seed == seed.as_u64() {
            return entry.set;
        }
        let set = self.placement.place(line, seed);
        self.place_memo[idx] = PlaceMemoEntry { line: line.as_u64(), seed: seed.as_u64(), set };
        set
    }

    /// Scans one set's contiguous tag block for `line`. Invalid ways
    /// hold [`INVALID_TAG`] and can never match a real line address.
    #[inline]
    fn find_way(&self, set: u32, line: LineAddr) -> Option<u32> {
        let base = (set * self.ways) as usize;
        let raw = line.as_u64();
        self.tags[base..base + self.ways as usize].iter().position(|&t| t == raw).map(|w| w as u32)
    }

    /// Accesses `line` on behalf of `pid` as a *read*, filling on a
    /// miss.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX` (the [`INVALID_TAG`] sentinel) —
    /// such a fill would silently read back as an invalid slot.
    pub fn access(&mut self, pid: ProcessId, line: LineAddr) -> AccessOutcome {
        self.access_rw(pid, line, false)
    }

    /// Accesses `line` on behalf of `pid` as a *write* (write-allocate:
    /// a miss fills the line first). Under [`WritePolicy::WriteBack`]
    /// the line is marked dirty; under write-through the access is
    /// indistinguishable from a read (the store drains through a write
    /// buffer this model treats as free).
    ///
    /// # Panics
    ///
    /// As [`access`](Self::access).
    pub fn access_write(&mut self, pid: ProcessId, line: LineAddr) -> AccessOutcome {
        self.access_rw(pid, line, true)
    }

    /// The read/write access entry point; see [`access`](Self::access)
    /// and [`access_write`](Self::access_write). The only place an
    /// access outcome becomes statistics.
    pub fn access_rw(&mut self, pid: ProcessId, line: LineAddr, write: bool) -> AccessOutcome {
        assert_ne!(line.as_u64(), INVALID_TAG, "line address collides with sentinel");
        let outcome = self.access_inner(pid, line, write);
        match outcome {
            AccessOutcome::Hit => self.stats.record_hit(),
            AccessOutcome::Miss { evicted, .. } => {
                if let Some(ev) = evicted {
                    if ev.owner != pid {
                        self.stats.record_cross_process_eviction();
                    }
                    if ev.dirty {
                        self.stats.record_writeback();
                    }
                }
                self.stats.record_miss(evicted.is_some());
            }
        }
        outcome
    }

    /// Reads a whole trace of lines on behalf of `pid`: a loop over
    /// [`access`](Self::access) that sums the outcomes.
    ///
    /// # Panics
    ///
    /// Panics if any line is `u64::MAX` (the [`INVALID_TAG`]
    /// sentinel), as [`access`](Self::access) does.
    ///
    /// # Examples
    ///
    /// ```
    /// use tscache_core::addr::LineAddr;
    /// use tscache_core::cache::Cache;
    /// use tscache_core::geometry::CacheGeometry;
    /// use tscache_core::placement::PlacementKind;
    /// use tscache_core::replacement::ReplacementKind;
    /// use tscache_core::seed::ProcessId;
    ///
    /// let mut cache = Cache::new(
    ///     "L1D",
    ///     CacheGeometry::paper_l1(),
    ///     PlacementKind::Modulo,
    ///     ReplacementKind::Lru,
    ///     1,
    /// );
    /// let trace: Vec<LineAddr> = (0..64).map(LineAddr::new).collect();
    /// let cold = cache.access_batch(ProcessId::new(1), &trace);
    /// assert_eq!(cold.misses, 64);
    /// let warm = cache.access_batch(ProcessId::new(1), &trace);
    /// assert_eq!(warm.hits, 64);
    /// ```
    pub fn access_batch(&mut self, pid: ProcessId, lines: &[LineAddr]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for &line in lines {
            match self.access(pid, line) {
                AccessOutcome::Hit => out.hits += 1,
                AccessOutcome::Miss { evicted, redirected } => {
                    out.misses += 1;
                    out.evictions += evicted.is_some() as u64;
                    out.redirected += redirected as u64;
                    // A read can still displace a line an earlier
                    // write dirtied.
                    out.writebacks += evicted.is_some_and(|ev| ev.dirty) as u64;
                }
            }
        }
        out
    }

    /// The access path behind [`access_rw`](Self::access_rw),
    /// everything except hit/miss statistics. (TTL expiry drains and
    /// RPCache alias drops account their writebacks directly: they are
    /// not outcomes of this access.)
    #[inline]
    fn access_inner(&mut self, pid: ProcessId, line: LineAddr, write: bool) -> AccessOutcome {
        let (seed, lo, hi) = self.context(pid);
        let mut set = self.place(line, seed);
        if self.ttl.is_some() {
            self.ttl_tick(set);
        }
        let dirty_fill = write && self.write_policy == WritePolicy::WriteBack;

        if let Some(way) = self.find_way(set, line) {
            let slot = (set * self.ways + way) as usize;
            self.replacement.on_hit(set, way);
            if dirty_fill {
                self.meta[slot].flags |= LineMeta::DIRTY;
            }
            if self.normalize && self.meta[slot].owner != pid.as_u16() {
                // TimeCache levelling: the line stays resident (no
                // refill, no eviction) but ownership transfers and the
                // access reports a miss, so its timing is
                // indistinguishable from a cold one.
                self.meta[slot].owner = pid.as_u16();
                return AccessOutcome::Miss { evicted: None, redirected: false };
            }
            return AccessOutcome::Hit;
        }

        let mut redirected = false;
        let mut way = self.fill_way(pid, set, lo, hi);

        // RPCache interference randomization: if the fill would evict
        // another process's line or a protected (crypto-table) line,
        // remap this line's index to a random set and fill there
        // instead (paper §3; Wang & Lee's "contention event that might
        // leak information").
        let slot = (set * self.ways + way) as usize;
        if self.tags[slot] != INVALID_TAG
            && (self.meta[slot].owner != pid.as_u16() || self.meta[slot].protected())
            && self.placement.randomizes_interference()
        {
            if let Some(new_set) = self.placement.remap_on_contention(line, seed, &mut self.rng) {
                // Drop now-unreachable lines of the remapped index from
                // the old set (the hardware moves or invalidates them).
                self.invalidate_line_aliases(set, line, pid);
                set = new_set;
                redirected = true;
                way = self.fill_way(pid, set, lo, hi);
            }
        }

        let slot = (set * self.ways + way) as usize;
        let evicted = (self.tags[slot] != INVALID_TAG).then(|| EvictedLine {
            line: LineAddr::new(self.tags[slot]),
            owner: ProcessId::new(self.meta[slot].owner),
            dirty: self.meta[slot].dirty(),
        });

        self.tags[slot] = line.as_u64();
        let mut flags = if self.is_protected_addr(line.as_u64()) { LineMeta::PROTECTED } else { 0 };
        if self.is_coherent_addr(line.as_u64()) {
            flags |= LineMeta::COHERENT;
        }
        if dirty_fill {
            flags |= LineMeta::DIRTY;
        }
        self.meta[slot] = LineMeta { owner: pid.as_u16(), flags, ttl: self.fill_ttl() };
        self.replacement.on_fill(set, way);
        if !self.filled[set as usize] {
            self.filled[set as usize] = true;
            self.filled_sets.push(set);
        }
        AccessOutcome::Miss { evicted, redirected }
    }

    /// The way a miss of `pid` fills in `set`: the first invalid way of
    /// its range `lo..hi`, otherwise the replacement victim, drawn from
    /// the shared stream over the whole set or from `pid`'s own stream
    /// inside a way partition.
    #[inline]
    fn fill_way(&mut self, pid: ProcessId, set: u32, lo: u32, hi: u32) -> u32 {
        let base = (set * self.ways) as usize;
        let range = &self.tags[base + lo as usize..base + hi as usize];
        if let Some(w) = range.iter().position(|&t| t == INVALID_TAG) {
            return lo + w as u32;
        }
        let rng = if hi - lo == self.ways {
            &mut self.rng
        } else {
            let i = self.part_rng_index(pid);
            &mut self.part_rngs[i].1
        };
        self.replacement.victim(set, lo, hi, rng)
    }

    /// The lifetime a fill arms: `base + uniform(0..=jitter)` when the
    /// TTL defense is on, 0 (infinite) otherwise. The jitter stream is
    /// only drawn from when `jitter > 0`, so a jitter-free config
    /// leaves [`ttl_rng`](Cache::ttl_rng) untouched.
    #[inline]
    fn fill_ttl(&mut self) -> u8 {
        match self.ttl {
            Some(cfg) => {
                let jitter = if cfg.jitter == 0 {
                    0
                } else {
                    self.ttl_rng.below(cfg.jitter as u32 + 1) as u8
                };
                cfg.base.saturating_add(jitter)
            }
            None => 0,
        }
    }

    /// Decrements resident lifetimes in `set` and drains expired lines
    /// (dirty drains count a writeback; all drains count a TTL
    /// expiry). Runs before lookup, so a line expiring on the access
    /// that would have hit it misses instead — the ClepsydraCache
    /// decay an attacker's primed lines suffer.
    fn ttl_tick(&mut self, set: u32) {
        let base = (set * self.ways) as usize;
        for slot in base..base + self.ways as usize {
            if self.tags[slot] == INVALID_TAG {
                continue;
            }
            match self.meta[slot].ttl {
                0 => {} // infinite: filled while the defense was off
                1 => {
                    if self.meta[slot].dirty() {
                        self.stats.record_writeback();
                    }
                    self.stats.record_ttl_expiry();
                    self.tags[slot] = INVALID_TAG;
                    self.meta[slot] = LineMeta::EMPTY;
                }
                t => self.meta[slot].ttl = t - 1,
            }
        }
    }

    /// After an RPCache remap of `line`'s index, lines of `pid` with the
    /// same placement-relevant index sitting in the old set would become
    /// unreachable; invalidate them. A dirty alias is drained like a
    /// dirty TTL expiry: one counted writeback, no cycles.
    fn invalidate_line_aliases(&mut self, old_set: u32, line: LineAddr, pid: ProcessId) {
        let index_bits = self.geom.index_bits();
        let base = (old_set * self.ways) as usize;
        for slot in base..base + self.ways as usize {
            if self.tags[slot] != INVALID_TAG
                && self.meta[slot].owner == pid.as_u16()
                && LineAddr::new(self.tags[slot]).index_bits(index_bits)
                    == line.index_bits(index_bits)
            {
                if self.meta[slot].dirty() {
                    self.stats.record_writeback();
                }
                self.tags[slot] = INVALID_TAG;
                self.meta[slot] = LineMeta::EMPTY;
            }
        }
    }

    /// Iterates over currently valid lines as `(set, way, line, owner)`.
    pub fn contents(&self) -> impl Iterator<Item = (u32, u32, LineAddr, ProcessId)> + '_ {
        let ways = self.ways;
        (0..self.geom.sets()).flat_map(move |set| {
            (0..ways).filter_map(move |way| {
                let slot = (set * ways + way) as usize;
                if self.tags[slot] != INVALID_TAG {
                    Some((
                        set,
                        way,
                        LineAddr::new(self.tags[slot]),
                        ProcessId::new(self.meta[slot].owner),
                    ))
                } else {
                    None
                }
            })
        })
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(placement: PlacementKind, replacement: ReplacementKind) -> Cache {
        Cache::new("test", CacheGeometry::new(8, 2, 32).unwrap(), placement, replacement, 7)
    }

    fn pid(n: u16) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        let line = LineAddr::new(5);
        assert!(c.access(pid(1), line).is_miss());
        assert!(c.access(pid(1), line).is_hit());
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn capacity_eviction_with_lru() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        let p = pid(1);
        // Three lines mapping to set 0 in a 2-way cache.
        let (a, b, x) = (LineAddr::new(0), LineAddr::new(8), LineAddr::new(16));
        c.access(p, a);
        c.access(p, b);
        let outcome = c.access(p, x);
        match outcome {
            AccessOutcome::Miss { evicted: Some(ev), .. } => assert_eq!(ev.line, a),
            other => panic!("expected eviction of a, got {other:?}"),
        }
        assert!(c.access(p, b).is_hit(), "b must survive");
        assert!(c.access(p, a).is_miss(), "a was evicted");
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        for i in 0..16u64 {
            c.access(pid(1), LineAddr::new(i));
        }
        assert!(c.occupancy() > 0);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(c.access(pid(1), LineAddr::new(0)).is_miss());
    }

    #[test]
    fn flush_process_is_selective() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.access(pid(1), LineAddr::new(0));
        c.access(pid(2), LineAddr::new(1));
        c.flush_process(pid(1));
        assert!(c.access(pid(1), LineAddr::new(0)).is_miss());
        assert!(c.access(pid(2), LineAddr::new(1)).is_hit());
    }

    #[test]
    fn per_process_seeds_separate_layouts() {
        let mut c = small_cache(PlacementKind::RandomModulo, ReplacementKind::Lru);
        c.set_seed(pid(1), Seed::new(111));
        c.set_seed(pid(2), Seed::new(222));
        assert_eq!(c.seed(pid(1)), Seed::new(111));
        // Both processes can cache their own lines independently.
        c.access(pid(1), LineAddr::new(0x40));
        c.access(pid(2), LineAddr::new(0x80));
        assert!(c.access(pid(1), LineAddr::new(0x40)).is_hit());
        assert!(c.access(pid(2), LineAddr::new(0x80)).is_hit());
    }

    #[test]
    fn seed_change_loses_old_layout_until_refetched() {
        let mut c = small_cache(PlacementKind::IdealRandom, ReplacementKind::Lru);
        let p = pid(1);
        c.set_seed(p, Seed::new(1));
        let line = LineAddr::new(0x123);
        c.access(p, line);
        assert!(c.access(p, line).is_hit());
        // A new seed (usually) maps the line elsewhere → miss expected.
        // Use a line/seed pair where the mapping does change.
        let mut moved = None;
        for s in 2..50u64 {
            c.set_seed(p, Seed::new(s));
            if !c.probe(p, line) {
                moved = Some(s);
                break;
            }
        }
        assert!(moved.is_some(), "line never moved across 48 seeds");
    }

    #[test]
    fn probe_does_not_fill_or_count() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        assert!(!c.probe(pid(1), LineAddr::new(3)));
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(pid(1), LineAddr::new(3)).is_miss());
        assert!(c.probe(pid(1), LineAddr::new(3)));
    }

    #[test]
    fn cross_process_eviction_is_counted() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        // Fill set 0 with pid 1, then overflow it with pid 2.
        c.access(pid(1), LineAddr::new(0));
        c.access(pid(1), LineAddr::new(8));
        c.access(pid(2), LineAddr::new(16));
        assert_eq!(c.stats().cross_process_evictions(), 1);
    }

    #[test]
    fn rpcache_redirects_cross_process_contention() {
        let mut c = small_cache(PlacementKind::RpCache, ReplacementKind::Lru);
        c.set_seed(pid(1), Seed::new(1));
        c.set_seed(pid(2), Seed::new(2));
        // Occupy every set with pid 1 so any pid-2 fill contends.
        for i in 0..64u64 {
            c.access(pid(1), LineAddr::new(i));
        }
        let mut redirects = 0;
        for i in 100..164u64 {
            if let AccessOutcome::Miss { redirected: true, .. } = c.access(pid(2), LineAddr::new(i))
            {
                redirects += 1;
            }
        }
        assert!(redirects > 0, "rpcache never redirected under full contention");
    }

    #[test]
    fn rpcache_remapped_line_remains_cached() {
        let mut c = small_cache(PlacementKind::RpCache, ReplacementKind::Lru);
        c.set_seed(pid(1), Seed::new(1));
        c.set_seed(pid(2), Seed::new(2));
        for i in 0..64u64 {
            c.access(pid(1), LineAddr::new(i));
        }
        // Whatever happened (redirect or not), the just-filled line must
        // be findable right after its miss.
        for i in 100..110u64 {
            let line = LineAddr::new(i);
            c.access(pid(2), line);
            assert!(c.access(pid(2), line).is_hit(), "line {i} lost after fill");
        }
    }

    #[test]
    fn rpcache_protects_marked_lines_within_one_process() {
        // Wang & Lee's P-bit: even same-process fills that would evict
        // a protected line are redirected to a random set.
        let mut c = small_cache(PlacementKind::RpCache, ReplacementKind::Lru);
        let p = pid(1);
        c.set_seed(p, Seed::new(4));
        c.add_protected_range(LineAddr::new(0), LineAddr::new(64));
        // Fill the cache with protected lines.
        for i in 0..16u64 {
            c.access(p, LineAddr::new(i));
        }
        // Unprotected fills from elsewhere must trigger redirects.
        let mut redirects = 0;
        for i in 1000..1064u64 {
            if let AccessOutcome::Miss { redirected: true, .. } = c.access(p, LineAddr::new(i)) {
                redirects += 1;
            }
        }
        assert!(redirects > 0, "no protected-line redirect happened");
    }

    #[test]
    fn protected_bit_ignored_by_non_randomizing_policies() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        let p = pid(1);
        c.add_protected_range(LineAddr::new(0), LineAddr::new(64));
        for i in 0..16u64 {
            c.access(p, LineAddr::new(i));
        }
        for i in 1000..1016u64 {
            match c.access(p, LineAddr::new(i)) {
                AccessOutcome::Miss { redirected, .. } => assert!(!redirected),
                AccessOutcome::Hit => panic!("unexpected hit"),
            }
        }
    }

    #[test]
    fn protected_ranges_merge_overlaps() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.add_protected_range(LineAddr::new(10), LineAddr::new(20));
        c.add_protected_range(LineAddr::new(15), LineAddr::new(30)); // overlaps
        c.add_protected_range(LineAddr::new(30), LineAddr::new(40)); // adjacent
        c.add_protected_range(LineAddr::new(100), LineAddr::new(110)); // disjoint
        c.add_protected_range(LineAddr::new(5), LineAddr::new(5)); // empty, dropped
        assert_eq!(c.protected_ranges(), &[(10, 40), (100, 110)]);
        for (line, expect) in [
            (9, false),
            (10, true),
            (25, true),
            (39, true),
            (40, false),
            (99, false),
            (105, true),
            (110, false),
        ] {
            assert_eq!(c.is_protected_addr(line), expect, "line {line}");
        }
    }

    #[test]
    fn way_partition_confines_fills() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.set_way_partition(pid(1), 0, 1);
        c.set_way_partition(pid(2), 1, 2);
        // pid 1 streams many conflicting lines: confined to way 0, its
        // own lines thrash while pid 2's single line survives.
        c.access(pid(2), LineAddr::new(8)); // set 0
        for i in 0..10u64 {
            c.access(pid(1), LineAddr::new(i * 8)); // all set 0
        }
        assert!(c.access(pid(2), LineAddr::new(8)).is_hit(), "partition violated");
        for (_, way, _, owner) in c.contents() {
            match owner.as_u16() {
                1 => assert_eq!(way, 0),
                2 => assert_eq!(way, 1),
                _ => {}
            }
        }
    }

    #[test]
    fn way_partition_reduces_effective_associativity() {
        let mut full = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        let mut part = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        part.set_way_partition(pid(1), 0, 1);
        // Two alternating lines in one set: fit a 2-way cache, thrash a
        // 1-way partition.
        for _ in 0..20 {
            for line in [0u64, 8] {
                full.access(pid(1), LineAddr::new(line));
                part.access(pid(1), LineAddr::new(line));
            }
        }
        assert!(part.stats().misses() > full.stats().misses() * 2);
    }

    #[test]
    fn clear_way_partition_restores_full_ways() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.set_way_partition(pid(1), 0, 1);
        c.clear_way_partition(pid(1));
        c.access(pid(1), LineAddr::new(0));
        c.access(pid(1), LineAddr::new(8));
        assert!(c.access(pid(1), LineAddr::new(0)).is_hit());
        assert!(c.access(pid(1), LineAddr::new(8)).is_hit());
    }

    #[test]
    #[should_panic(expected = "invalid way range")]
    fn empty_partition_rejected() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.set_way_partition(pid(1), 1, 1);
    }

    #[test]
    fn partitions_work_with_every_replacement_policy() {
        for repl in ReplacementKind::ALL {
            let mut c = small_cache(PlacementKind::Modulo, repl);
            c.set_way_partition(pid(1), 0, 1);
            c.set_way_partition(pid(2), 1, 2);
            for i in 0..50u64 {
                c.access(pid(1), LineAddr::new(i));
                c.access(pid(2), LineAddr::new(1000 + i));
            }
            for (_, way, _, owner) in c.contents() {
                match owner.as_u16() {
                    1 => assert_eq!(way, 0, "{repl}"),
                    2 => assert_eq!(way, 1, "{repl}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn hot_context_tracks_partition_and_seed_changes() {
        let mut c = small_cache(PlacementKind::RandomModulo, ReplacementKind::Lru);
        c.set_seed(pid(1), Seed::new(1));
        c.access(pid(1), LineAddr::new(0)); // warm the hot context
                                            // Changing the seed must invalidate the memoized context.
        c.set_seed(pid(1), Seed::new(2));
        assert_eq!(c.seed(pid(1)), Seed::new(2));
        c.access(pid(1), LineAddr::new(0));
        // Adding a partition mid-stream must take effect immediately.
        c.set_way_partition(pid(1), 0, 1);
        for i in 0..20u64 {
            c.access(pid(1), LineAddr::new(i));
        }
        for (_, way, _, owner) in c.contents() {
            if owner == pid(1) {
                assert_eq!(way, 0, "fill escaped the partition");
            }
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        for kind in PlacementKind::ALL {
            let mut c = small_cache(kind, ReplacementKind::Random);
            c.set_seed(pid(1), Seed::new(5));
            for i in 0..1000u64 {
                c.access(pid(1), LineAddr::new(i % 97));
            }
            assert!(c.occupancy() <= 16, "{kind}: occupancy {}", c.occupancy());
        }
    }

    #[test]
    fn contents_reports_valid_lines() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.access(pid(3), LineAddr::new(9));
        let all: Vec<_> = c.contents().collect();
        assert_eq!(all.len(), 1);
        let (set, _way, line, owner) = all[0];
        assert_eq!(set, 1); // index bits of 9 in an 8-set cache
        assert_eq!(line, LineAddr::new(9));
        assert_eq!(owner, pid(3));
    }

    #[test]
    fn debug_output_names_policies() {
        let c = small_cache(PlacementKind::HashRp, ReplacementKind::Random);
        let dbg = format!("{c:?}");
        assert!(dbg.contains("hash-rp"));
        assert!(dbg.contains("random"));
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let run = |rng_seed: u64| {
            let mut c = Cache::new(
                "d",
                CacheGeometry::new(8, 2, 32).unwrap(),
                PlacementKind::RandomModulo,
                ReplacementKind::Random,
                rng_seed,
            );
            c.set_seed(pid(1), Seed::new(9));
            let mut misses = 0;
            for i in 0..500u64 {
                if c.access(pid(1), LineAddr::new((i * 7) % 64)).is_miss() {
                    misses += 1;
                }
            }
            misses
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn batch_matches_scalar_accesses_exactly() {
        for placement in PlacementKind::ALL {
            let trace: Vec<LineAddr> = (0..600u64).map(|i| LineAddr::new((i * 13) % 97)).collect();
            let mut scalar = small_cache(placement, ReplacementKind::Random);
            let mut batched = small_cache(placement, ReplacementKind::Random);
            for c in [&mut scalar, &mut batched] {
                c.set_seed(pid(1), Seed::new(11));
                c.add_protected_range(LineAddr::new(0), LineAddr::new(8));
            }
            let mut hits = 0u64;
            for &l in &trace {
                hits += scalar.access(pid(1), l).is_hit() as u64;
            }
            let out = batched.access_batch(pid(1), &trace);
            assert_eq!(out.hits, hits, "{placement}");
            assert_eq!(out.accesses(), trace.len() as u64);
            assert_eq!(scalar.stats(), batched.stats(), "{placement}");
            let a: Vec<_> = scalar.contents().collect();
            let b: Vec<_> = batched.contents().collect();
            assert_eq!(a, b, "{placement}: final contents diverge");
        }
    }

    #[test]
    fn write_through_never_dirties_or_writes_back() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        let p = pid(1);
        for i in 0..64u64 {
            c.access_write(p, LineAddr::new(i));
        }
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.stats().writebacks(), 0);
    }

    #[test]
    fn writeback_counts_dirty_evictions() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.set_write_policy(WritePolicy::WriteBack);
        assert_eq!(c.write_policy(), WritePolicy::WriteBack);
        let p = pid(1);
        // Fill set 0 of the 8-set, 2-way cache with two dirty lines,
        // then displace both with clean reads.
        c.access_write(p, LineAddr::new(0));
        c.access_write(p, LineAddr::new(8));
        assert_eq!(c.dirty_lines(), 2);
        match c.access(p, LineAddr::new(16)) {
            AccessOutcome::Miss { evicted: Some(ev), .. } => {
                assert!(ev.dirty, "evicted line should be dirty");
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        c.access(p, LineAddr::new(24));
        assert_eq!(c.stats().writebacks(), 2);
        // The clean fills themselves are not dirty.
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn write_hit_dirties_clean_line() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.set_write_policy(WritePolicy::WriteBack);
        let p = pid(1);
        c.access(p, LineAddr::new(0)); // clean fill
        assert_eq!(c.dirty_lines(), 0);
        c.access_write(p, LineAddr::new(0)); // write hit
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn receive_writeback_dirties_present_line_only() {
        let mut c = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        c.set_write_policy(WritePolicy::WriteBack);
        let p = pid(1);
        c.access(p, LineAddr::new(5));
        assert!(c.receive_writeback(p, LineAddr::new(5)), "present line must absorb");
        assert_eq!(c.dirty_lines(), 1);
        assert!(!c.receive_writeback(p, LineAddr::new(6)), "absent line must forward");
        // A write-through cache never absorbs (the write goes through).
        let mut wt = small_cache(PlacementKind::Modulo, ReplacementKind::Lru);
        wt.access(p, LineAddr::new(5));
        assert!(!wt.receive_writeback(p, LineAddr::new(5)));
        assert_eq!(wt.dirty_lines(), 0);
    }

    #[test]
    fn rpcache_remap_writes_back_dropped_dirty_aliases() {
        // Both processes index one permutation, so lines 5 + 128k share
        // one set of the paper L1 (128 sets, 4 ways).
        let mut c = Cache::new(
            "L1D",
            CacheGeometry::paper_l1(),
            PlacementKind::RpCache,
            ReplacementKind::Lru,
            7,
        );
        c.set_write_policy(WritePolicy::WriteBack);
        let (a, b) = (pid(1), pid(2));
        c.set_seed(a, Seed::new(3));
        c.set_seed(b, Seed::new(3));
        c.access(b, LineAddr::new(5));
        for k in 1..=3 {
            c.access_write(a, LineAddr::new(5 + 128 * k));
        }
        // The set is full and B's line is the LRU victim: A's next fill
        // contends, remaps the index and drops A's three dirty aliases
        // from the old set. Their data must be written back, not lost.
        match c.access(a, LineAddr::new(5 + 128 * 4)) {
            AccessOutcome::Miss { redirected: true, .. } => {}
            other => panic!("expected a contention remap, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks() + c.dirty_lines() as u64, 3);
    }

    #[test]
    fn batch_outcome_counts_redirects() {
        let mut c = small_cache(PlacementKind::RpCache, ReplacementKind::Lru);
        c.set_seed(pid(1), Seed::new(1));
        c.set_seed(pid(2), Seed::new(2));
        let warm: Vec<LineAddr> = (0..64u64).map(LineAddr::new).collect();
        c.access_batch(pid(1), &warm);
        let contend: Vec<LineAddr> = (100..164u64).map(LineAddr::new).collect();
        let out = c.access_batch(pid(2), &contend);
        assert!(out.redirected > 0, "no redirects under full contention");
        assert!(out.redirected <= out.misses);
    }
}
