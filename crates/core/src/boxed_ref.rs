//! The seed repository's cache layout, kept as a structural reference.
//!
//! [`BoxedCache`] keeps the pre-optimization `Cache`'s structure:
//! parallel `Vec<u64>`/`Vec<bool>` metadata arrays, linear scans for
//! partitions and protected ranges, and its own fill-way code. It
//! calls the same [`PlacementEngine`] and [`ReplacementEngine`] as
//! [`Cache`](crate::cache::Cache), so it checks the cache's structure
//! (tag store, fill-way choice, RPCache redirect, flush reset) and no
//! longer checks dispatch: the differential tests
//! (`tests/engine_equivalence.rs`, `tests/flush_determinism.rs`,
//! `tests/hierarchy_differential.rs`) require identical access
//! outcomes on any trace. It has no dirty state, no flush cascade, no
//! TTL and no normalization; one reference model that covers those is
//! planned to replace it.
//!
//! It is not used by any simulator or attack code path.

use crate::addr::LineAddr;
use crate::cache::{AccessOutcome, EvictedLine};
use crate::geometry::CacheGeometry;
use crate::placement::{PlacementEngine, PlacementKind};
use crate::prng::{mix64, SplitMix64};
use crate::replacement::{ReplacementEngine, ReplacementKind};
use crate::seed::{ProcessId, Seed, SeedTable};
use crate::stats::CacheStats;

/// The seed repository's original set-associative cache (scattered
/// metadata, linear configuration scans).
pub struct BoxedCache {
    geom: CacheGeometry,
    placement: PlacementEngine,
    replacement: ReplacementEngine,
    tags: Vec<u64>,
    valid: Vec<bool>,
    owners: Vec<u16>,
    protected: Vec<bool>,
    protected_ranges: Vec<(u64, u64)>,
    partitions: Vec<(u16, u32, u32)>,
    seeds: SeedTable,
    rng: SplitMix64,
    rng_seed: u64,
    /// Per-process partition-replacement streams (mirrors
    /// `Cache::part_rngs`): victims chosen *inside* a way partition
    /// draw from the owning process's own stream, not the shared one.
    part_rngs: Vec<(u16, SplitMix64)>,
    stats: CacheStats,
}

impl BoxedCache {
    /// Creates a cache; mirrors `Cache::new` including the RNG stream
    /// derivation, so both implementations draw identical randomness.
    pub fn new(
        geom: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        rng_seed: u64,
    ) -> Self {
        let n = geom.total_lines() as usize;
        BoxedCache {
            geom,
            placement: PlacementEngine::new(placement, &geom),
            replacement: ReplacementEngine::new(replacement, &geom),
            tags: vec![0; n],
            valid: vec![false; n],
            owners: vec![0; n],
            protected: vec![false; n],
            protected_ranges: Vec::new(),
            partitions: Vec::new(),
            seeds: SeedTable::new(),
            rng: SplitMix64::new(rng_seed ^ 0x6361_6368_6521),
            rng_seed,
            part_rngs: Vec::new(),
            stats: CacheStats::new(),
        }
    }

    /// Index of `pid`'s partition-replacement stream, creating it on
    /// first use with the same derivation as `Cache::part_rng_index`.
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

    /// Sets the placement seed of `pid`.
    pub fn set_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.seeds.set(pid, seed);
    }

    /// Marks `start..end` (line addresses) as protected.
    pub fn add_protected_range(&mut self, start: LineAddr, end: LineAddr) {
        self.protected_ranges.push((start.as_u64(), end.as_u64()));
    }

    #[inline]
    fn is_protected_addr(&self, line: u64) -> bool {
        self.protected_ranges.iter().any(|&(s, e)| line >= s && line < e)
    }

    /// Restricts `pid` to fill ways `lo..hi`.
    pub fn set_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        assert!(lo < hi && hi <= self.geom.ways(), "invalid way range {lo}..{hi}");
        if let Some(entry) = self.partitions.iter_mut().find(|(p, _, _)| *p == pid.as_u16()) {
            *entry = (pid.as_u16(), lo, hi);
        } else {
            self.partitions.push((pid.as_u16(), lo, hi));
        }
    }

    #[inline]
    fn way_range(&self, pid: ProcessId) -> (u32, u32) {
        self.partitions
            .iter()
            .find(|(p, _, _)| *p == pid.as_u16())
            .map(|&(_, lo, hi)| (lo, hi))
            .unwrap_or((0, self.geom.ways()))
    }

    /// Invalidates every line. Mirrors `Cache::flush`: partition-
    /// replacement streams reset to their derivation points so a flush
    /// plus identical replay reproduces bit for bit (the boxed model
    /// is read-only/write-through, so there is no dirty state to
    /// drain).
    pub fn flush(&mut self) {
        self.valid.fill(false);
        self.replacement.reset();
        self.part_rngs.clear();
        self.stats.record_flush();
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        (set * self.geom.ways() + way) as usize
    }

    /// Looks a line up without filling.
    pub fn probe(&mut self, pid: ProcessId, line: LineAddr) -> bool {
        let seed = self.seeds.get(pid);
        let set = self.placement.place(line, seed);
        self.find_way(set, line).is_some()
    }

    #[inline]
    fn find_way(&self, set: u32, line: LineAddr) -> Option<u32> {
        for w in 0..self.geom.ways() {
            let slot = self.slot(set, w);
            if self.valid[slot] && self.tags[slot] == line.as_u64() {
                return Some(w);
            }
        }
        None
    }

    #[inline]
    fn find_invalid_way(&self, set: u32, lo: u32, hi: u32) -> Option<u32> {
        (lo..hi).find(|&w| !self.valid[self.slot(set, w)])
    }

    /// Accesses `line` on behalf of `pid`, filling on a miss.
    pub fn access(&mut self, pid: ProcessId, line: LineAddr) -> AccessOutcome {
        let seed = self.seeds.get(pid);
        let mut set = self.placement.place(line, seed);

        if let Some(way) = self.find_way(set, line) {
            self.replacement.on_hit(set, way);
            self.stats.record_hit();
            return AccessOutcome::Hit;
        }

        let (lo, hi) = self.way_range(pid);
        let full_width = hi - lo == self.geom.ways();
        let mut redirected = false;
        let mut way = match self.find_invalid_way(set, lo, hi) {
            Some(w) => w,
            None if full_width => self.replacement.victim(set, lo, hi, &mut self.rng),
            None => {
                let i = self.part_rng_index(pid);
                self.replacement.victim(set, lo, hi, &mut self.part_rngs[i].1)
            }
        };

        let slot = self.slot(set, way);
        if self.valid[slot]
            && (self.owners[slot] != pid.as_u16() || self.protected[slot])
            && self.placement.randomizes_interference()
        {
            if let Some(new_set) = self.placement.remap_on_contention(line, seed, &mut self.rng) {
                self.invalidate_line_aliases(set, line, pid);
                set = new_set;
                redirected = true;
                way = match self.find_invalid_way(set, lo, hi) {
                    Some(w) => w,
                    None if full_width => self.replacement.victim(set, lo, hi, &mut self.rng),
                    None => {
                        let i = self.part_rng_index(pid);
                        self.replacement.victim(set, lo, hi, &mut self.part_rngs[i].1)
                    }
                };
            }
        }

        let slot = self.slot(set, way);
        let evicted = if self.valid[slot] {
            let ev = EvictedLine {
                line: LineAddr::new(self.tags[slot]),
                owner: ProcessId::new(self.owners[slot]),
                // The boxed reference models the seed's read-only
                // write-through world: lines are never dirty.
                dirty: false,
            };
            if ev.owner != pid {
                self.stats.record_cross_process_eviction();
            }
            Some(ev)
        } else {
            None
        };

        self.tags[slot] = line.as_u64();
        self.valid[slot] = true;
        self.owners[slot] = pid.as_u16();
        self.protected[slot] = self.is_protected_addr(line.as_u64());
        self.replacement.on_fill(set, way);
        self.stats.record_miss(evicted.is_some());
        AccessOutcome::Miss { evicted, redirected }
    }

    fn invalidate_line_aliases(&mut self, old_set: u32, line: LineAddr, pid: ProcessId) {
        let index_bits = self.geom.index_bits();
        for w in 0..self.geom.ways() {
            let slot = self.slot(old_set, w);
            if self.valid[slot]
                && self.owners[slot] == pid.as_u16()
                && LineAddr::new(self.tags[slot]).index_bits(index_bits)
                    == line.index_bits(index_bits)
            {
                self.valid[slot] = false;
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Iterates over currently valid lines as `(set, way, line, owner)`.
    pub fn contents(&self) -> impl Iterator<Item = (u32, u32, LineAddr, ProcessId)> + '_ {
        let ways = self.geom.ways();
        (0..self.geom.sets()).flat_map(move |set| {
            (0..ways).filter_map(move |way| {
                let slot = (set * ways + way) as usize;
                if self.valid[slot] {
                    Some((
                        set,
                        way,
                        LineAddr::new(self.tags[slot]),
                        ProcessId::new(self.owners[slot]),
                    ))
                } else {
                    None
                }
            })
        })
    }
}
