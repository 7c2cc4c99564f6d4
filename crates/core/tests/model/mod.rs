//! The reference cache model the differential suites check `Cache` and
//! `Hierarchy` against (`mod model;` in `engine_equivalence.rs` and
//! `hierarchy_differential.rs`).
//!
//! [`ModelCache`] states every cache rule in the plainest form: each set
//! is a `Vec<Option<Slot>>`, every lookup is a linear scan, and there is
//! no placement memo, hot-process context or packed metadata. It writes
//! LRU and random replacement out itself; only placement comes from
//! the policy engines, and `placement_properties` pins that on its own.
//! [`ModelHierarchy::walk`] walks an op through a split-L1 stack of
//! model caches.

// Each suite that includes this module uses a different part of it.
#![allow(dead_code)]

use tscache_core::addr::{Addr, LineAddr};
use tscache_core::cache::{AccessOutcome, CohState, EvictedLine, InvalidatedCopy, WritePolicy};
use tscache_core::defense::DefenseKind;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::AccessKind;
use tscache_core::placement::{PlacementEngine, PlacementKind};
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed, SeedTable};
use tscache_core::stats::CacheStats;

/// One valid line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    owner: ProcessId,
    dirty: bool,
    protected: bool,
    coherent: bool,
    /// Remaining lifetime in accesses to the set; 0 never expires.
    ttl: u8,
    /// The cache's LRU clock at this line's last hit or fill.
    stamp: u64,
}

/// Empties `slot`; dirty data leaving the cache counts a writeback.
fn drain(stats: &mut CacheStats, slot: &mut Option<Slot>) -> bool {
    let dirty = slot.take().is_some_and(|s| s.dirty);
    if dirty {
        stats.record_writeback();
    }
    dirty
}

/// One cache level, written out naively.
pub struct ModelCache {
    geom: CacheGeometry,
    placement: PlacementEngine,
    replacement: ReplacementKind,
    /// Ticks on every hit and fill; `flush` resets it.
    clock: u64,
    sets: Vec<Vec<Option<Slot>>>,
    seeds: SeedTable,
    partitions: Vec<(ProcessId, u32, u32)>,
    protected: Vec<(u64, u64)>,
    coherent: Vec<(u64, u64)>,
    write_back: bool,
    /// TTL and normalization are the defenses a cache acts on.
    defense: DefenseKind,
    rng_seed: u64,
    /// The shared stream: whole-set victims and RPCache remaps.
    rng: SplitMix64,
    /// Per-pid streams for victims inside a way partition.
    part_rngs: Vec<(ProcessId, SplitMix64)>,
    /// Per-fill TTL lifetimes.
    ttl_rng: SplitMix64,
    stats: CacheStats,
}

impl ModelCache {
    pub fn new(
        geom: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        rng_seed: u64,
    ) -> Self {
        ModelCache {
            geom,
            placement: PlacementEngine::new(placement, &geom),
            replacement,
            clock: 0,
            sets: vec![vec![None; geom.ways() as usize]; geom.sets() as usize],
            seeds: SeedTable::new(),
            partitions: Vec::new(),
            protected: Vec::new(),
            coherent: Vec::new(),
            write_back: false,
            defense: DefenseKind::Off,
            rng_seed,
            rng: SplitMix64::new(rng_seed ^ 0x6361_6368_6521),
            part_rngs: Vec::new(),
            ttl_rng: SplitMix64::new(mix64(rng_seed ^ 0x0074_746c)),
            stats: CacheStats::new(),
        }
    }

    pub fn set_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.seeds.set(pid, seed);
    }

    pub fn set_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        self.partitions.retain(|&(p, _, _)| p != pid);
        self.partitions.push((pid, lo, hi));
    }

    pub fn add_protected_range(&mut self, start: LineAddr, end: LineAddr) {
        self.protected.push((start.as_u64(), end.as_u64()));
    }

    pub fn add_coherent_range(&mut self, start: LineAddr, end: LineAddr) {
        self.coherent.push((start.as_u64(), end.as_u64()));
    }

    pub fn set_write_policy(&mut self, policy: WritePolicy) {
        self.write_back = policy == WritePolicy::WriteBack;
    }

    pub fn apply_defense(&mut self, defense: DefenseKind) {
        self.defense = defense;
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Valid lines as `(set, way, line, owner)`, in set-then-way order.
    pub fn contents(&self) -> Vec<(u32, u32, LineAddr, ProcessId)> {
        let mut out = Vec::new();
        for (set, ways) in self.sets.iter().enumerate() {
            for (way, slot) in ways.iter().enumerate() {
                if let Some(s) = slot {
                    out.push((set as u32, way as u32, s.line, s.owner));
                }
            }
        }
        out
    }

    pub fn dirty_lines(&self) -> usize {
        self.sets.iter().flatten().flatten().filter(|s| s.dirty).count()
    }

    fn find(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.sets[set].iter().position(|s| s.is_some_and(|s| s.line == line))
    }

    /// The set `pid` places `line` in, and the way holding it there.
    fn lookup(&mut self, pid: ProcessId, line: LineAddr) -> (usize, Option<usize>) {
        let set = self.placement.place(line, self.seeds.get(pid)) as usize;
        (set, self.find(set, line))
    }

    pub fn access_rw(&mut self, pid: ProcessId, line: LineAddr, write: bool) -> AccessOutcome {
        let seed = self.seeds.get(pid);
        let mut set = self.placement.place(line, seed) as usize;
        if self.defense == DefenseKind::Ttl {
            self.ttl_tick(set);
        }
        let dirty = write && self.write_back;
        if let Some(way) = self.find(set, line) {
            self.clock += 1;
            let slot = self.sets[set][way].as_mut().unwrap();
            slot.stamp = self.clock;
            slot.dirty |= dirty;
            if self.defense == DefenseKind::Normalize && slot.owner != pid {
                // Normalized: ownership moves, the access reports a
                // miss, and nothing is filled or evicted.
                slot.owner = pid;
                self.stats.record_miss(false);
                return AccessOutcome::Miss { evicted: None, redirected: false };
            }
            self.stats.record_hit();
            return AccessOutcome::Hit;
        }

        let mut way = self.fill_way(pid, set);
        let mut redirected = false;
        if self.sets[set][way].is_some_and(|v| v.owner != pid || v.protected) {
            if let Some(new_set) = self.placement.remap_on_contention(line, seed, &mut self.rng) {
                // `pid`'s lines of the same index in the old set drain.
                let mask = (1u64 << self.geom.index_bits()) - 1;
                for slot in &mut self.sets[set] {
                    if slot.is_some_and(|s| {
                        s.owner == pid && (s.line.as_u64() ^ line.as_u64()) & mask == 0
                    }) {
                        drain(&mut self.stats, slot);
                    }
                }
                set = new_set as usize;
                way = self.fill_way(pid, set);
                redirected = true;
            }
        }

        let evicted = self.sets[set][way].take().map(|s| EvictedLine {
            line: s.line,
            owner: s.owner,
            dirty: s.dirty,
        });
        if let Some(ev) = evicted {
            if ev.owner != pid {
                self.stats.record_cross_process_eviction();
            }
            if ev.dirty {
                self.stats.record_writeback();
            }
        }
        self.stats.record_miss(evicted.is_some());
        let within =
            |ranges: &[(u64, u64)]| ranges.iter().any(|&(s, e)| (s..e).contains(&line.as_u64()));
        // A TTL fill lives 2 to 5 accesses to its set; 0 never expires.
        let ttl =
            if self.defense == DefenseKind::Ttl { 2 + self.ttl_rng.below(4) as u8 } else { 0 };
        self.clock += 1;
        self.sets[set][way] = Some(Slot {
            line,
            owner: pid,
            dirty,
            protected: within(&self.protected),
            coherent: within(&self.coherent),
            ttl,
            stamp: self.clock,
        });
        AccessOutcome::Miss { evicted, redirected }
    }

    /// The first free way of `pid`'s range, else its victim: the oldest
    /// stamp under LRU (ties to the lowest way), a uniform draw under
    /// random replacement, from the shared stream when the range is the
    /// whole set and from `pid`'s own stream inside a partition.
    fn fill_way(&mut self, pid: ProcessId, set: usize) -> usize {
        let (lo, hi) = self
            .partitions
            .iter()
            .find(|&&(p, _, _)| p == pid)
            .map_or((0, self.geom.ways()), |&(_, lo, hi)| (lo, hi));
        if let Some(way) = (lo..hi).find(|&w| self.sets[set][w as usize].is_none()) {
            return way as usize;
        }
        if self.replacement == ReplacementKind::Lru {
            let stamp = |w: &u32| self.sets[set][*w as usize].unwrap().stamp;
            return (lo..hi).min_by_key(stamp).unwrap() as usize;
        }
        let rng = if hi - lo == self.geom.ways() {
            &mut self.rng
        } else {
            if !self.part_rngs.iter().any(|&(p, _)| p == pid) {
                let salt = self.rng_seed ^ 0x7061_7274 ^ ((pid.as_u16() as u64) << 40);
                self.part_rngs.push((pid, SplitMix64::new(mix64(salt))));
            }
            &mut self.part_rngs.iter_mut().find(|(p, _)| *p == pid).unwrap().1
        };
        (lo + rng.below(hi - lo)) as usize
    }

    /// One access to `set` ages its lines; a line at 1 expires.
    fn ttl_tick(&mut self, set: usize) {
        for slot in &mut self.sets[set] {
            match slot.map(|s| s.ttl) {
                Some(1) => {
                    self.stats.record_ttl_expiry();
                    drain(&mut self.stats, slot);
                }
                Some(t) if t > 1 => slot.as_mut().unwrap().ttl = t - 1,
                _ => {}
            }
        }
    }

    pub fn probe(&mut self, pid: ProcessId, line: LineAddr) -> bool {
        match self.lookup(pid, line) {
            (set, Some(way)) => {
                self.defense != DefenseKind::Normalize || self.sets[set][way].unwrap().owner == pid
            }
            (_, None) => false,
        }
    }

    pub fn receive_writeback(&mut self, owner: ProcessId, line: LineAddr) -> bool {
        match self.lookup(owner, line) {
            (set, Some(way)) if self.write_back => {
                self.sets[set][way].as_mut().unwrap().dirty = true;
                true
            }
            _ => false,
        }
    }

    pub fn invalidate_line(&mut self, pid: ProcessId, line: LineAddr) -> InvalidatedCopy {
        let (set, Some(way)) = self.lookup(pid, line) else {
            return InvalidatedCopy::default();
        };
        self.stats.record_coh_invalidation();
        InvalidatedCopy { present: true, dirty: drain(&mut self.stats, &mut self.sets[set][way]) }
    }

    pub fn coherence_state(&mut self, pid: ProcessId, line: LineAddr) -> Option<CohState> {
        let (set, way) = self.lookup(pid, line);
        let slot = self.sets[set][way?].unwrap();
        slot.coherent.then_some(if slot.dirty { CohState::Modified } else { CohState::Shared })
    }

    /// Drains every line; resets the LRU clock, the partition streams
    /// and the TTL stream, but not the shared stream.
    pub fn flush(&mut self) -> u64 {
        let drained =
            self.sets.iter_mut().flatten().map(|s| drain(&mut self.stats, s) as u64).sum();
        self.clock = 0;
        self.part_rngs.clear();
        self.ttl_rng = SplitMix64::new(mix64(self.rng_seed ^ 0x0074_746c));
        self.stats.record_flush();
        drained
    }

    /// Drains `pid`'s lines and drops its partition stream.
    pub fn flush_process(&mut self, pid: ProcessId) -> u64 {
        let owned = self.sets.iter_mut().flatten().filter(|s| s.is_some_and(|s| s.owner == pid));
        let drained = owned.map(|s| drain(&mut self.stats, s) as u64).sum();
        self.part_rngs.retain(|&(p, _)| p != pid);
        self.stats.record_flush();
        drained
    }
}

/// Split L1s over unified levels, priced by the paper's latency
/// ladder written out here: a 1-cycle L1 hit, 10 more cycles at the
/// first unified level, 30 at the second and 80 from memory.
pub struct ModelHierarchy {
    pub l1i: ModelCache,
    pub l1d: ModelCache,
    pub unified: Vec<ModelCache>,
    /// Fills RPCache redirected, summed over every level.
    pub redirects: u64,
}

impl ModelHierarchy {
    /// Every level, L1I and L1D first.
    pub fn levels(&mut self) -> impl Iterator<Item = &mut ModelCache> {
        [&mut self.l1i, &mut self.l1d].into_iter().chain(&mut self.unified)
    }

    /// `seed.derive(1)` for the L1I, `2` for the L1D, `3 + k` for
    /// unified level `k`.
    pub fn set_process_seed(&mut self, pid: ProcessId, seed: Seed) {
        for (k, cache) in self.levels().enumerate() {
            cache.set_seed(pid, seed.derive(1 + k as u64));
        }
    }

    /// Protects the lines `size > 0` bytes at `start` touch in the L1D
    /// and every unified level.
    pub fn add_protected_range(&mut self, start: Addr, size: u64) {
        let bits = self.l1d.geom.offset_bits();
        let (first, end) = (start.line(bits), start.offset(size - 1).line(bits).offset(1));
        for cache in self.levels().skip(1) {
            cache.add_protected_range(first, end);
        }
    }

    /// Walks one op and returns its cycles. A flush invalidates the
    /// line at every level for the L1 hit cost. Otherwise the op goes
    /// to its L1 (fetches to the L1I) and down the unified levels until
    /// one hits, each consulted level filling on its miss; a dirty
    /// victim's writeback goes down the levels below it until one
    /// holds the line, before the fill goes on. The cost is the L1 hit,
    /// each consulted unified level's hit cycles, and memory when every
    /// level misses.
    pub fn walk(&mut self, pid: ProcessId, kind: AccessKind, addr: Addr) -> u32 {
        let line = addr.line(self.l1d.geom.offset_bits());
        if kind == AccessKind::Flush {
            for cache in self.levels() {
                cache.invalidate_line(pid, line);
            }
            return 1;
        }
        let l1 = if kind == AccessKind::Fetch { &mut self.l1i } else { &mut self.l1d };
        let mut outcome = l1.access_rw(pid, line, kind == AccessKind::Write);
        let mut cycles = 1;
        for k in 0..=self.unified.len() {
            let AccessOutcome::Miss { evicted, redirected } = outcome else {
                return cycles;
            };
            self.redirects += redirected as u64;
            if let Some(ev) = evicted.filter(|ev| ev.dirty) {
                let mut below = self.unified[k..].iter_mut();
                below.any(|c| c.receive_writeback(ev.owner, ev.line));
            }
            let Some(cache) = self.unified.get_mut(k) else { break };
            cycles += [10, 30][k];
            outcome = cache.access_rw(pid, line, false);
        }
        cycles + 80
    }
}
