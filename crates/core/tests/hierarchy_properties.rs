//! Property tests for the memory hierarchy: latency algebra, level
//! isolation, seed handling, capacity monotonicity, partition
//! containment and batch-split independence under arbitrary access
//! sequences.

use proptest::prelude::*;
use tscache_core::addr::Addr;
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{AccessKind, Hierarchy, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};

fn kind_of(tag: u8) -> AccessKind {
    match tag % 3 {
        0 => AccessKind::Fetch,
        1 => AccessKind::Read,
        _ => AccessKind::Write,
    }
}

/// A modulo/LRU hierarchy with explicit L1 and L2 associativity (the
/// capacity-growth knob below).
fn lru_hierarchy(l1_ways: u32, l2_ways: u32) -> Hierarchy {
    let l1 = CacheGeometry::new(8, l1_ways, 32).unwrap();
    let l2 = CacheGeometry::new(64, l2_ways, 32).unwrap();
    let mk =
        |label: &str, geom| Cache::new(label, geom, PlacementKind::Modulo, ReplacementKind::Lru, 5);
    Hierarchy::from_parts(mk("L1I", l1), mk("L1D", l1), vec![mk("L2", l2)])
}

proptest! {
    /// Every access costs exactly one of the three latency sums
    /// (L1 hit / L2 hit / memory), for every setup.
    #[test]
    fn latency_is_always_on_the_ladder(
        accesses in prop::collection::vec((0u64..1 << 20, 0u8..3), 1..300),
        setup_idx in 0usize..4,
    ) {
        let setup = SetupKind::ALL[setup_idx];
        let mut h = setup.build(42);
        let pid = ProcessId::new(1);
        h.set_process_seed(pid, Seed::new(7));
        for &(addr, tag) in &accesses {
            let cost = h.access(pid, kind_of(tag), Addr::new(addr));
            prop_assert!(
                cost == 1 || cost == 11 || cost == 91,
                "{setup}: cost {cost} not in {{1, 11, 91}}"
            );
        }
    }

    /// Immediately repeating any access hits L1 (cost 1).
    #[test]
    fn repeat_access_hits(
        addr in 0u64..1 << 24,
        tag in 0u8..3,
        setup_idx in 0usize..4,
    ) {
        let setup = SetupKind::ALL[setup_idx];
        let mut h = setup.build(3);
        let pid = ProcessId::new(1);
        h.set_process_seed(pid, Seed::new(11));
        let kind = kind_of(tag);
        h.access(pid, kind, Addr::new(addr));
        prop_assert_eq!(h.access(pid, kind, Addr::new(addr)), 1);
    }

    /// Total statistics equal the sum of per-level statistics, and L1D
    /// never sees fetches (level isolation).
    #[test]
    fn stats_decompose_by_level(
        accesses in prop::collection::vec((0u64..1 << 16, 0u8..3), 1..200),
    ) {
        let mut h = SetupKind::Mbpta.build(5);
        let pid = ProcessId::new(2);
        h.set_process_seed(pid, Seed::new(13));
        let mut fetches = 0u64;
        let mut data = 0u64;
        for &(addr, tag) in &accesses {
            match kind_of(tag) {
                AccessKind::Fetch => fetches += 1,
                _ => data += 1,
            }
            h.access(pid, kind_of(tag), Addr::new(addr));
        }
        prop_assert_eq!(h.l1i().stats().accesses(), fetches);
        prop_assert_eq!(h.l1d().stats().accesses(), data);
        let total = h.total_stats();
        prop_assert_eq!(
            total.accesses(),
            h.l1i().stats().accesses()
                + h.l1d().stats().accesses()
                + h.l2().stats().accesses()
        );
    }

    /// After flush_all, the next access to any previously-touched line
    /// pays the full memory latency.
    #[test]
    fn flush_all_is_total(addrs in prop::collection::vec(0u64..1 << 20, 1..100)) {
        let mut h = SetupKind::TsCache.build(9);
        let pid = ProcessId::new(1);
        h.set_process_seed(pid, Seed::new(21));
        for &a in &addrs {
            h.access(pid, AccessKind::Read, Addr::new(a));
        }
        h.flush_all();
        prop_assert_eq!(h.access(pid, AccessKind::Read, Addr::new(addrs[0])), 91);
    }

    /// flush_process removes only the named process's lines.
    #[test]
    fn flush_process_is_selective(
        a_addrs in prop::collection::vec(0u64..1 << 12, 1..30),
        b_addrs in prop::collection::vec((1u64 << 20)..(1 << 20) + (1 << 12), 1..30),
    ) {
        let mut h = SetupKind::Deterministic.build(1);
        let (pa, pb) = (ProcessId::new(1), ProcessId::new(2));
        for &a in &a_addrs {
            h.access(pa, AccessKind::Read, Addr::new(a));
        }
        for &b in &b_addrs {
            h.access(pb, AccessKind::Read, Addr::new(b));
        }
        // Re-touch to ensure residency (evictions may have occurred),
        // then flush pa and check pb's last line survives in L1.
        let keep = Addr::new(b_addrs[b_addrs.len() - 1]);
        h.access(pb, AccessKind::Read, keep);
        h.flush_process(pa);
        prop_assert_eq!(h.access(pb, AccessKind::Read, keep), 1);
        prop_assert_eq!(h.access(pa, AccessKind::Read, Addr::new(a_addrs[0])), 91);
    }

    /// Three-level presets keep every access on their (longer) latency
    /// ladder.
    #[test]
    fn three_level_latency_is_always_on_the_ladder(
        accesses in prop::collection::vec((0u64..1 << 20, 0u8..3), 1..300),
        setup_idx in 0usize..4,
    ) {
        let setup = SetupKind::ALL[setup_idx];
        let mut h = setup.build_depth(HierarchyDepth::ThreeLevel, 42);
        let pid = ProcessId::new(1);
        h.set_process_seed(pid, Seed::new(7));
        for &(addr, tag) in &accesses {
            let cost = h.access(pid, kind_of(tag), Addr::new(addr));
            prop_assert!(
                cost == 1 || cost == 11 || cost == 41 || cost == 121,
                "{setup}: cost {cost} not in {{1, 11, 41, 121}}"
            );
        }
    }

    /// Growing a level's associativity under LRU never increases that
    /// level's miss count on the same access sequence (the stack
    /// property, per set): grown L1s see the identical op stream;
    /// with L1s fixed, a grown L2 sees the identical miss stream.
    #[test]
    fn miss_counts_are_monotone_under_capacity_growth(
        accesses in prop::collection::vec((0u64..1 << 13, 0u8..3), 1..250),
    ) {
        let pid = ProcessId::new(1);
        let run = |l1_ways: u32, l2_ways: u32| {
            let mut h = lru_hierarchy(l1_ways, l2_ways);
            for &(addr, tag) in &accesses {
                h.access(pid, kind_of(tag), Addr::new(addr));
            }
            (
                h.l1i().stats().misses() + h.l1d().stats().misses(),
                h.l2().stats().misses(),
            )
        };
        let (l1_small, _) = run(2, 4);
        let (l1_big, _) = run(4, 4);
        prop_assert!(
            l1_big <= l1_small,
            "L1 misses grew with associativity: {l1_big} > {l1_small}"
        );
        let (_, l2_small) = run(2, 2);
        let (_, l2_big) = run(2, 4);
        prop_assert!(
            l2_big <= l2_small,
            "L2 misses grew with associativity: {l2_big} > {l2_small}"
        );
    }

    /// With disjoint way partitions installed at *every* level, no
    /// process ever evicts another's line at any level, and every
    /// cached line sits inside its owner's partition — the strict
    /// no-cross-pid-leakage configuration of §7.
    #[test]
    fn full_partitioning_prevents_cross_pid_leakage_at_every_level(
        a_ops in prop::collection::vec((0u64..1 << 14, 0u8..3), 1..150),
        b_ops in prop::collection::vec((0u64..1 << 14, 0u8..3), 1..150),
        depth_idx in 0usize..2,
    ) {
        let (pa, pb) = (ProcessId::new(1), ProcessId::new(2));
        let mut h = SetupKind::TsCache.build_depth(HierarchyDepth::ALL[depth_idx], 13);
        h.set_process_seed(pa, Seed::new(1));
        h.set_process_seed(pb, Seed::new(2));
        h.set_way_partition(pa, 0, 2);
        h.set_way_partition(pb, 2, 4);
        let n = a_ops.len().max(b_ops.len());
        for i in 0..n {
            if let Some(&(addr, tag)) = a_ops.get(i) {
                h.access(pa, kind_of(tag), Addr::new(addr));
            }
            if let Some(&(addr, tag)) = b_ops.get(i) {
                h.access(pb, kind_of(tag), Addr::new(addr));
            }
        }
        let levels: Vec<&Cache> =
            [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels()).collect();
        for cache in levels {
            prop_assert_eq!(
                cache.stats().cross_process_evictions(),
                0,
                "{}: cross-pid eviction under full partitioning",
                cache.label()
            );
            for (_, way, _, owner) in cache.contents() {
                match owner.as_u16() {
                    1 => prop_assert!(way < 2, "{}: pid 1 line in way {way}", cache.label()),
                    2 => prop_assert!(way >= 2, "{}: pid 2 line in way {way}", cache.label()),
                    _ => {}
                }
            }
        }
    }

    /// Protected ranges registered on the hierarchy cover the same
    /// lines at every data level (the P-bit view cannot diverge
    /// between L1D, L2 and L3).
    #[test]
    fn protected_ranges_agree_across_levels(
        start in 0u64..1 << 16,
        size in 1u64..1 << 12,
        probe in 0u64..1 << 17,
        depth_idx in 0usize..2,
    ) {
        let mut h = SetupKind::RpCache.build_depth(HierarchyDepth::ALL[depth_idx], 3);
        h.add_protected_range(Addr::new(start), size);
        let line = probe >> 5;
        let expect = h.l1d().is_protected_addr(line);
        for cache in h.unified_levels() {
            prop_assert_eq!(
                cache.is_protected_addr(line),
                expect,
                "{} disagrees with L1D on line {line}",
                cache.label()
            );
        }
    }

    /// Splitting a trace at any point and batching the halves yields
    /// exactly the totals of one whole-trace batch, which equal the
    /// scalar walk (batch-size independence).
    #[test]
    fn batch_totals_are_split_point_independent(
        accesses in prop::collection::vec((0u64..1 << 16, 0u8..3), 2..250),
        split_sel in 0usize..1 << 16,
        setup_idx in 0usize..4,
        depth_idx in 0usize..2,
    ) {
        let setup = SetupKind::ALL[setup_idx];
        let depth = HierarchyDepth::ALL[depth_idx];
        let pid = ProcessId::new(1);
        let ops: Vec<TraceOp> = accesses
            .iter()
            .map(|&(addr, tag)| TraceOp { kind: kind_of(tag), addr: Addr::new(addr) })
            .collect();
        let split = split_sel % (ops.len() + 1);

        let build = || {
            let mut h = setup.build_depth(depth, 77);
            h.set_process_seed(pid, Seed::new(99));
            h
        };
        let mut whole = build();
        let whole_cycles = whole.access_batch_cycles(pid, &ops);

        let mut halves = build();
        let first = halves.access_batch_cycles(pid, &ops[..split]);
        let second = halves.access_batch_cycles(pid, &ops[split..]);
        prop_assert_eq!(
            first + second,
            whole_cycles,
            "{setup}/{depth}: split at {split} changes cycles"
        );
        prop_assert_eq!(whole.total_stats(), halves.total_stats());

        let mut scalar = build();
        let mut scalar_cycles = 0u64;
        for op in &ops {
            scalar_cycles += scalar.access(pid, op.kind, op.addr) as u64;
        }
        prop_assert_eq!(whole_cycles, scalar_cycles);
        prop_assert_eq!(whole.total_stats(), scalar.total_stats());
    }

    /// The same seed always reproduces the same cost sequence
    /// (simulator determinism end to end).
    #[test]
    fn cost_sequences_are_reproducible(
        accesses in prop::collection::vec((0u64..1 << 18, 0u8..3), 1..150),
        setup_idx in 0usize..4,
    ) {
        let setup = SetupKind::ALL[setup_idx];
        let run = || {
            let mut h = setup.build(77);
            let pid = ProcessId::new(1);
            h.set_process_seed(pid, Seed::new(99));
            accesses
                .iter()
                .map(|&(a, t)| h.access(pid, kind_of(t), Addr::new(a)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
