//! Cache replacement policies.
//!
//! MBPTA-compliant caches pair random placement with random (or at
//! least analysable) replacement; deterministic setups use LRU. The
//! cache asks the policy for a victim way only when every way of the
//! fill range (the whole set, or the filling process's way partition)
//! holds valid data — invalid ways are always filled first.
//!
//! [`ReplacementEngine::new`] is the one way to build a policy and the
//! engine the one way to call it. Every policy keeps per-set
//! bookkeeping indexed as `set * ways + way`, tolerates a reset at any
//! time (cache flush), and answers "which way" with one method whose
//! range is either the whole set or one way partition.

use crate::geometry::CacheGeometry;
use crate::prng::{Prng, SplitMix64};
use core::fmt;

/// The replacement engine: the policies in an enum, so every policy
/// method (the hit and fill hooks and the one ranged
/// [`victim`](ReplacementEngine::victim)) compiles to a direct, inlinable
/// match arm.
///
/// [`Cache`](crate::cache::Cache) accesses run victim selection and
/// hit/fill bookkeeping millions of times per experiment.
/// [`new`](ReplacementEngine::new) is the only way to build a policy,
/// and the engine the only way to call one.
#[derive(Debug)]
pub enum ReplacementEngine {
    /// True LRU.
    Lru(Lru),
    /// FIFO.
    Fifo(Fifo),
    /// Uniform random.
    Random(RandomRepl),
    /// Tree pseudo-LRU.
    PlruTree(PlruTree),
    /// Not-recently-used.
    Nru(Nru),
}

macro_rules! repl_dispatch {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            ReplacementEngine::Lru($inner) => $e,
            ReplacementEngine::Fifo($inner) => $e,
            ReplacementEngine::Random($inner) => $e,
            ReplacementEngine::PlruTree($inner) => $e,
            ReplacementEngine::Nru($inner) => $e,
        }
    };
}

impl ReplacementEngine {
    /// Builds the engine for `kind` and `geom`.
    pub fn new(kind: ReplacementKind, geom: &CacheGeometry) -> Self {
        match kind {
            ReplacementKind::Lru => ReplacementEngine::Lru(Lru::new(geom)),
            ReplacementKind::Fifo => ReplacementEngine::Fifo(Fifo::new(geom)),
            ReplacementKind::Random => ReplacementEngine::Random(RandomRepl),
            ReplacementKind::PlruTree => ReplacementEngine::PlruTree(PlruTree::new(geom)),
            ReplacementKind::Nru => ReplacementEngine::Nru(Nru::new(geom)),
        }
    }

    /// The kind this engine was built from.
    pub fn kind(&self) -> ReplacementKind {
        match self {
            ReplacementEngine::Lru(_) => ReplacementKind::Lru,
            ReplacementEngine::Fifo(_) => ReplacementKind::Fifo,
            ReplacementEngine::Random(_) => ReplacementKind::Random,
            ReplacementEngine::PlruTree(_) => ReplacementKind::PlruTree,
            ReplacementEngine::Nru(_) => ReplacementKind::Nru,
        }
    }

    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Records a hit on `(set, way)`.
    #[inline]
    pub fn on_hit(&mut self, set: u32, way: u32) {
        repl_dispatch!(self, p => p.on_hit(set, way))
    }

    /// Records a fill of `(set, way)`.
    #[inline]
    pub fn on_fill(&mut self, set: u32, way: u32) {
        repl_dispatch!(self, p => p.on_fill(set, way))
    }

    /// Chooses the victim way of `set` within the way range `lo..hi`:
    /// `0..ways` for the whole set, or one way partition (paper §7).
    /// The cache asks only when every way of the range holds valid
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn victim(&mut self, set: u32, lo: u32, hi: u32, rng: &mut SplitMix64) -> u32 {
        repl_dispatch!(self, p => p.victim(set, lo, hi, rng))
    }

    /// Clears all bookkeeping (cache flush).
    pub fn reset(&mut self) {
        repl_dispatch!(self, p => p.reset())
    }
}

/// Configuration enum naming each replacement policy;
/// [`ReplacementEngine::new`] builds the policy itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least recently used.
    Lru,
    /// First in, first out (fill order).
    Fifo,
    /// Uniformly random victim (the paper's optional random replacement).
    Random,
    /// Tree pseudo-LRU.
    PlruTree,
    /// Not-recently-used (single reference bit per line).
    Nru,
}

impl ReplacementKind {
    /// Short policy name for reports (also the `Display` form).
    pub const fn label(self) -> &'static str {
        match self {
            ReplacementKind::Lru => "lru",
            ReplacementKind::Fifo => "fifo",
            ReplacementKind::Random => "random",
            ReplacementKind::PlruTree => "plru-tree",
            ReplacementKind::Nru => "nru",
        }
    }

    /// All kinds, in presentation order.
    pub const ALL: [ReplacementKind; 5] = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
        ReplacementKind::PlruTree,
        ReplacementKind::Nru,
    ];
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-line stamps from a per-cache clock: the bookkeeping LRU (which
/// stamps every touch) and FIFO (which stamps fills only) share. Both
/// evict the oldest stamp.
#[derive(Debug)]
struct Stamps {
    ways: u32,
    stamps: Vec<u64>,
    clock: u64,
}

impl Stamps {
    fn new(geom: &CacheGeometry) -> Self {
        Stamps { ways: geom.ways(), stamps: vec![0; geom.total_lines() as usize], clock: 0 }
    }

    #[inline]
    fn stamp(&mut self, set: u32, way: u32) {
        self.clock += 1;
        self.stamps[(set * self.ways + way) as usize] = self.clock;
    }

    /// The way in `lo..hi` with the oldest stamp; ties go to the
    /// lowest way.
    fn oldest(&self, set: u32, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty way partition");
        let base = (set * self.ways) as usize;
        let mut best = lo;
        let mut best_stamp = u64::MAX;
        for w in lo..hi {
            let s = self.stamps[base + w as usize];
            if s < best_stamp {
                best_stamp = s;
                best = w;
            }
        }
        best
    }

    fn reset(&mut self) {
        self.stamps.fill(0);
        self.clock = 0;
    }
}

/// True LRU via monotonically increasing access stamps.
#[derive(Debug)]
pub struct Lru(Stamps);

impl Lru {
    /// Creates LRU bookkeeping for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Lru(Stamps::new(geom))
    }

    fn on_hit(&mut self, set: u32, way: u32) {
        self.0.stamp(set, way);
    }

    fn on_fill(&mut self, set: u32, way: u32) {
        self.0.stamp(set, way);
    }

    fn victim(&mut self, set: u32, lo: u32, hi: u32, _rng: &mut SplitMix64) -> u32 {
        self.0.oldest(set, lo, hi)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// FIFO: victim is the oldest fill.
#[derive(Debug)]
pub struct Fifo(Stamps);

impl Fifo {
    /// Creates FIFO bookkeeping for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Fifo(Stamps::new(geom))
    }

    fn on_hit(&mut self, _set: u32, _way: u32) {
        // Hits do not refresh FIFO order.
    }

    fn on_fill(&mut self, set: u32, way: u32) {
        self.0.stamp(set, way);
    }

    fn victim(&mut self, set: u32, lo: u32, hi: u32, _rng: &mut SplitMix64) -> u32 {
        self.0.oldest(set, lo, hi)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Uniformly random replacement (paper §2.1: the optional randomized
/// replacement of MBPTA caches). Stateless: every victim is one draw.
#[derive(Debug)]
pub struct RandomRepl;

impl RandomRepl {
    fn on_hit(&mut self, _set: u32, _way: u32) {}

    fn on_fill(&mut self, _set: u32, _way: u32) {}

    fn victim(&mut self, _set: u32, lo: u32, hi: u32, rng: &mut SplitMix64) -> u32 {
        assert!(lo < hi, "empty way partition");
        lo + rng.below(hi - lo)
    }

    fn reset(&mut self) {}
}

/// Tree pseudo-LRU (binary decision tree per set).
///
/// # Panics
///
/// Construction panics if the geometry's way count is not a power of
/// two (the tree requires it); `CacheGeometry` already guarantees this.
#[derive(Debug)]
pub struct PlruTree {
    ways: u32,
    /// `ways - 1` tree bits per set, packed one `u32` per set (supports
    /// up to 32 ways).
    bits: Vec<u32>,
}

impl PlruTree {
    /// Creates tree-PLRU bookkeeping for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        assert!(geom.ways() <= 32, "plru-tree supports at most 32 ways");
        PlruTree { ways: geom.ways(), bits: vec![0; geom.sets() as usize] }
    }

    /// Walks the tree towards `way`, setting each node to point *away*
    /// from it (the touched side becomes "recently used").
    fn touch(&mut self, set: u32, way: u32) {
        let levels = self.ways.trailing_zeros();
        let bits = &mut self.bits[set as usize];
        let mut node = 0u32; // root at node 0; children of n are 2n+1, 2n+2
        for level in (0..levels).rev() {
            let go_right = (way >> level) & 1;
            // Node bit = 1 means "next victim is on the right"; point
            // away from the touched side.
            if go_right == 1 {
                *bits &= !(1 << node);
            } else {
                *bits |= 1 << node;
            }
            node = 2 * node + 1 + go_right;
        }
    }

    fn on_hit(&mut self, set: u32, way: u32) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: u32, way: u32) {
        self.touch(set, way);
    }

    /// Walks the tree over the whole set; the tree has no notion of a
    /// way partition, so inside one the victim is a uniform draw.
    fn victim(&mut self, set: u32, lo: u32, hi: u32, rng: &mut SplitMix64) -> u32 {
        assert!(lo < hi, "empty way partition");
        if hi - lo < self.ways {
            return lo + rng.below(hi - lo);
        }
        let bits = self.bits[set as usize];
        let mut node = 0u32;
        let mut way = 0u32;
        for _ in 0..self.ways.trailing_zeros() {
            let dir = (bits >> node) & 1;
            way = (way << 1) | dir;
            node = 2 * node + 1 + dir;
        }
        way
    }

    fn reset(&mut self) {
        self.bits.fill(0);
    }
}

/// Not-recently-used: one reference bit per line; victim is the first
/// way with a clear bit, clearing all bits when the set saturates.
#[derive(Debug)]
pub struct Nru {
    ways: u32,
    refs: Vec<bool>,
}

impl Nru {
    /// Creates NRU bookkeeping for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Nru { ways: geom.ways(), refs: vec![false; geom.total_lines() as usize] }
    }

    fn on_hit(&mut self, set: u32, way: u32) {
        self.refs[(set * self.ways + way) as usize] = true;
    }

    fn on_fill(&mut self, set: u32, way: u32) {
        self.on_hit(set, way);
    }

    fn victim(&mut self, set: u32, lo: u32, hi: u32, _rng: &mut SplitMix64) -> u32 {
        assert!(lo < hi, "empty way partition");
        let base = (set * self.ways) as usize;
        let refs = &mut self.refs[base + lo as usize..base + hi as usize];
        if let Some(w) = refs.iter().position(|&r| !r) {
            return lo + w as u32;
        }
        // Saturated: age the range and evict its first way.
        refs.fill(false);
        lo
    }

    fn reset(&mut self) {
        self.refs.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(4, 4, 32).unwrap()
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new(&geom());
        let mut rng = SplitMix64::new(0);
        for w in 0..4 {
            lru.on_fill(0, w);
        }
        lru.on_hit(0, 0); // refresh way 0: victim must be way 1
        assert_eq!(lru.victim(0, 0, 4, &mut rng), 1);
        lru.on_hit(0, 1);
        assert_eq!(lru.victim(0, 0, 4, &mut rng), 2);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut lru = Lru::new(&geom());
        let mut rng = SplitMix64::new(0);
        for w in 0..4 {
            lru.on_fill(0, w);
            lru.on_fill(1, 3 - w);
        }
        assert_eq!(lru.victim(0, 0, 4, &mut rng), 0);
        assert_eq!(lru.victim(1, 0, 4, &mut rng), 3);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut fifo = Fifo::new(&geom());
        let mut rng = SplitMix64::new(0);
        for w in 0..4 {
            fifo.on_fill(0, w);
        }
        fifo.on_hit(0, 0); // must not refresh
        assert_eq!(fifo.victim(0, 0, 4, &mut rng), 0);
    }

    #[test]
    fn random_victim_covers_all_ways_and_is_seeded() {
        let mut r1 = RandomRepl;
        let mut r2 = RandomRepl;
        let mut rng1 = SplitMix64::new(7);
        let mut rng2 = SplitMix64::new(7);
        let mut seen = [false; 4];
        for _ in 0..100 {
            let v = r1.victim(0, 0, 4, &mut rng1);
            assert_eq!(v, r2.victim(0, 0, 4, &mut rng2), "same rng stream, same victims");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn plru_points_away_from_recent() {
        let mut plru = PlruTree::new(&geom());
        let mut rng = SplitMix64::new(0);
        for w in 0..4 {
            plru.on_fill(0, w);
        }
        // After touching 0,1,2,3 in order the victim must be on the
        // left half (ways 0/1), specifically way 0 for the tree walk.
        let v = plru.victim(0, 0, 4, &mut rng);
        assert!(v < 2, "victim {v} should be in the cold half");
    }

    #[test]
    fn plru_victim_never_most_recent() {
        let mut plru = PlruTree::new(&geom());
        let mut rng = SplitMix64::new(0);
        for pattern in 0..64u32 {
            let way = pattern % 4;
            plru.on_hit(0, way);
            assert_ne!(plru.victim(0, 0, 4, &mut rng), way);
        }
    }

    #[test]
    fn nru_picks_first_unreferenced_then_ages() {
        let mut nru = Nru::new(&geom());
        let mut rng = SplitMix64::new(0);
        nru.on_fill(0, 0);
        nru.on_fill(0, 1);
        assert_eq!(nru.victim(0, 0, 4, &mut rng), 2);
        nru.on_fill(0, 2);
        nru.on_fill(0, 3);
        // All referenced: ages and returns way 0.
        assert_eq!(nru.victim(0, 0, 4, &mut rng), 0);
        // After aging, way 0 (still unreferenced) is chosen again.
        assert_eq!(nru.victim(0, 0, 4, &mut rng), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut lru = Lru::new(&geom());
        let mut rng = SplitMix64::new(0);
        for w in 0..4 {
            lru.on_fill(0, w);
        }
        lru.reset();
        // After reset all stamps are equal; the scan picks way 0.
        assert_eq!(lru.victim(0, 0, 4, &mut rng), 0);
    }

    #[test]
    fn display_names_are_stable() {
        let names = ReplacementKind::ALL.map(|kind| kind.to_string());
        assert_eq!(names, ["lru", "fifo", "random", "plru-tree", "nru"]);
    }

    #[test]
    fn victims_always_in_range() {
        let g = CacheGeometry::paper_l1();
        let mut rng = SplitMix64::new(1);
        for kind in ReplacementKind::ALL {
            let mut r = ReplacementEngine::new(kind, &g);
            assert_eq!((r.kind(), r.name()), (kind, kind.label()));
            for set in [0u32, 63, 127] {
                for (lo, hi) in [(0, g.ways()), (1, 3), (3, 4)] {
                    for _ in 0..32 {
                        assert!((lo..hi).contains(&r.victim(set, lo, hi, &mut rng)), "{kind}");
                    }
                }
            }
        }
    }
}
