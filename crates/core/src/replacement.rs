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
    /// Uniform random.
    Random(RandomRepl),
}

impl ReplacementEngine {
    /// Builds the engine for `kind` and `geom`.
    pub fn new(kind: ReplacementKind, geom: &CacheGeometry) -> Self {
        match kind {
            ReplacementKind::Lru => ReplacementEngine::Lru(Lru::new(geom)),
            ReplacementKind::Random => ReplacementEngine::Random(RandomRepl),
        }
    }

    /// The kind this engine was built from.
    pub fn kind(&self) -> ReplacementKind {
        match self {
            ReplacementEngine::Lru(_) => ReplacementKind::Lru,
            ReplacementEngine::Random(_) => ReplacementKind::Random,
        }
    }

    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Records a hit on `(set, way)`.
    #[inline]
    pub fn on_hit(&mut self, set: u32, way: u32) {
        match self {
            ReplacementEngine::Lru(p) => p.on_hit(set, way),
            ReplacementEngine::Random(_) => {}
        }
    }

    /// Records a fill of `(set, way)`.
    #[inline]
    pub fn on_fill(&mut self, set: u32, way: u32) {
        match self {
            ReplacementEngine::Lru(p) => p.on_fill(set, way),
            ReplacementEngine::Random(_) => {}
        }
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
        match self {
            ReplacementEngine::Lru(p) => p.victim(set, lo, hi, rng),
            ReplacementEngine::Random(p) => p.victim(set, lo, hi, rng),
        }
    }

    /// Clears all bookkeeping (cache flush).
    pub fn reset(&mut self) {
        match self {
            ReplacementEngine::Lru(p) => p.reset(),
            ReplacementEngine::Random(_) => {}
        }
    }
}

/// Configuration enum naming each replacement policy;
/// [`ReplacementEngine::new`] builds the policy itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least recently used.
    Lru,
    /// Uniformly random victim (the paper's optional random replacement).
    Random,
}

impl ReplacementKind {
    /// Short policy name for reports (also the `Display` form).
    pub const fn label(self) -> &'static str {
        match self {
            ReplacementKind::Lru => "lru",
            ReplacementKind::Random => "random",
        }
    }

    /// All kinds, in presentation order.
    pub const ALL: [ReplacementKind; 2] = [ReplacementKind::Lru, ReplacementKind::Random];
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// True LRU via per-line stamps from a per-cache clock: every hit and
/// every fill stamps its line, and the victim is the oldest stamp.
#[derive(Debug)]
pub struct Lru {
    ways: u32,
    stamps: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates LRU bookkeeping for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Lru { ways: geom.ways(), stamps: vec![0; geom.total_lines() as usize], clock: 0 }
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32) {
        self.clock += 1;
        self.stamps[(set * self.ways + way) as usize] = self.clock;
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32) {
        self.on_hit(set, way);
    }

    /// The way in `lo..hi` with the oldest stamp; ties go to the
    /// lowest way.
    fn victim(&mut self, set: u32, lo: u32, hi: u32, _rng: &mut SplitMix64) -> u32 {
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

/// Uniformly random replacement (paper §2.1: the optional randomized
/// replacement of MBPTA caches). Stateless: every victim is one draw.
#[derive(Debug)]
pub struct RandomRepl;

impl RandomRepl {
    fn victim(&mut self, _set: u32, lo: u32, hi: u32, rng: &mut SplitMix64) -> u32 {
        assert!(lo < hi, "empty way partition");
        lo + rng.below(hi - lo)
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
        assert_eq!(names, ["lru", "random"]);
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
