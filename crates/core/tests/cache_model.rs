//! Model-based property tests: the `Cache` under modulo+LRU must agree
//! with a trivially correct reference model on arbitrary access
//! sequences, and structural invariants must hold for every policy mix.

use proptest::prelude::*;
use std::collections::VecDeque;
use tscache_core::addr::LineAddr;
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};

/// Reference model: per-set LRU as a deque of line addresses.
struct RefCache {
    sets: u64,
    ways: usize,
    content: Vec<VecDeque<u64>>,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        RefCache { sets, ways, content: (0..sets).map(|_| VecDeque::new()).collect() }
    }

    /// Returns true on hit.
    fn access(&mut self, line: u64) -> bool {
        let set = (line % self.sets) as usize;
        let dq = &mut self.content[set];
        if let Some(pos) = dq.iter().position(|&l| l == line) {
            dq.remove(pos);
            dq.push_back(line);
            true
        } else {
            if dq.len() == self.ways {
                dq.pop_front();
            }
            dq.push_back(line);
            false
        }
    }
}

proptest! {
    /// Hit/miss sequence matches the reference LRU model exactly.
    #[test]
    fn modulo_lru_matches_reference(accesses in prop::collection::vec(0u64..64, 1..400)) {
        let geom = CacheGeometry::new(8, 2, 32).unwrap();
        let mut cache = Cache::new("sut", geom, PlacementKind::Modulo, ReplacementKind::Lru, 1);
        let mut reference = RefCache::new(8, 2);
        let pid = ProcessId::new(1);
        for (i, &line) in accesses.iter().enumerate() {
            let got = cache.access(pid, LineAddr::new(line)).is_hit();
            let want = reference.access(line);
            prop_assert_eq!(got, want, "divergence at access {} (line {})", i, line);
        }
    }

    /// Structural invariants for every policy combination:
    /// hit-after-access, occupancy bound, stats consistency.
    #[test]
    fn structural_invariants(
        accesses in prop::collection::vec((0u64..256, 1u16..4), 1..200),
        placement_idx in 0usize..6,
        replacement_idx in 0..ReplacementKind::ALL.len(),
        seed in any::<u64>(),
    ) {
        let geom = CacheGeometry::new(16, 4, 32).unwrap();
        let placement = PlacementKind::ALL[placement_idx];
        let replacement = ReplacementKind::ALL[replacement_idx];
        let mut cache = Cache::new("sut", geom, placement, replacement, seed);
        cache.set_seed(ProcessId::new(1), Seed::new(seed ^ 1));
        cache.set_seed(ProcessId::new(2), Seed::new(seed ^ 2));
        cache.set_seed(ProcessId::new(3), Seed::new(seed ^ 3));

        for &(line, pid_raw) in &accesses {
            let pid = ProcessId::new(pid_raw);
            cache.access(pid, LineAddr::new(line));
            // The just-accessed line must be resident.
            prop_assert!(
                cache.probe(pid, LineAddr::new(line)),
                "{placement}/{replacement}: line {line} absent right after access"
            );
            prop_assert!(cache.occupancy() <= 64);
        }
        let stats = *cache.stats();
        prop_assert_eq!(stats.accesses() as usize, accesses.len());
        prop_assert!(stats.evictions() <= stats.misses());
    }

    /// Flush always empties the cache, whatever preceded it.
    #[test]
    fn flush_empties(accesses in prop::collection::vec(0u64..512, 0..200)) {
        let geom = CacheGeometry::new(32, 4, 32).unwrap();
        let mut cache =
            Cache::new("sut", geom, PlacementKind::HashRp, ReplacementKind::Random, 3);
        let pid = ProcessId::new(1);
        cache.set_seed(pid, Seed::new(17));
        for &line in &accesses {
            cache.access(pid, LineAddr::new(line));
        }
        cache.flush();
        prop_assert_eq!(cache.occupancy(), 0);
    }

    /// Ownership bookkeeping: with disjoint per-process address ranges,
    /// every resident line's owner matches the range it came from.
    #[test]
    fn owner_tracking_is_consistent(accesses in prop::collection::vec((0u64..128, prop::bool::ANY), 1..300)) {
        let geom = CacheGeometry::new(16, 2, 32).unwrap();
        let mut cache =
            Cache::new("sut", geom, PlacementKind::RandomModulo, ReplacementKind::Lru, 9);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        cache.set_seed(p1, Seed::new(100));
        cache.set_seed(p2, Seed::new(200));
        // Disjoint ranges: p1 uses lines 0..128, p2 lines 1000..1128.
        for &(line, is_p1) in &accesses {
            if is_p1 {
                cache.access(p1, LineAddr::new(line));
            } else {
                cache.access(p2, LineAddr::new(1000 + line));
            }
        }
        for (_set, _way, line, owner) in cache.contents() {
            let expected = if line.as_u64() >= 1000 { p2 } else { p1 };
            prop_assert_eq!(owner, expected, "line {} owned by {}", line, owner);
        }
    }
}
