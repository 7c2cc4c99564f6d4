//! Property-based tests for write-back semantics: dirty-bit
//! bookkeeping, writeback counting and partition containment, across
//! random traces, placements and write mixes.

use proptest::prelude::*;
use tscache_core::addr::LineAddr;
use tscache_core::cache::{AccessOutcome, Cache, WritePolicy};
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{Hierarchy, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};

/// Deterministic op trace from a salt: mixed fetch/read/write over a
/// footprint that overflows the small caches used below.
fn trace(salt: u64, len: usize) -> Vec<TraceOp> {
    TraceOp::mixed_trace(salt, len, 1 << 14)
}

fn small_hierarchy(depth: HierarchyDepth, policy: WritePolicy) -> Hierarchy {
    let mut h = SetupKind::TsCache.build_depth(depth, 7);
    h.set_process_seed(ProcessId::new(1), Seed::new(0x5eed));
    h.set_write_policy(policy);
    h
}

proptest! {
    /// Write-through caches never hold dirty lines, so no level ever
    /// records a writeback, whatever the trace.
    #[test]
    fn write_through_implies_zero_writebacks(salt in any::<u64>()) {
        for depth in HierarchyDepth::ALL {
            let mut h = small_hierarchy(depth, WritePolicy::WriteThrough);
            let ops = trace(salt, 1200);
            h.access_batch_cycles(ProcessId::new(1), &ops);
            prop_assert_eq!(h.l1d().stats().writebacks(), 0);
            prop_assert_eq!(h.l1d().dirty_lines(), 0);
            for level in h.unified_levels() {
                prop_assert_eq!(level.stats().writebacks(), 0, "{}", level.label());
                prop_assert_eq!(level.dirty_lines(), 0, "{}", level.label());
            }
        }
    }

    /// Under write-back, every level's writeback count is bounded by
    /// the number of write ops: a line must be dirtied by a CPU store
    /// before any level can ever write it back, and each store dirties
    /// at most one line per level.
    #[test]
    fn writebacks_bounded_by_write_count(salt in any::<u64>()) {
        for depth in HierarchyDepth::ALL {
            let mut h = small_hierarchy(depth, WritePolicy::WriteBack);
            let ops = trace(salt, 1500);
            let writes = ops.iter().filter(|op| matches!(op.kind, tscache_core::hierarchy::AccessKind::Write)).count() as u64;
            h.access_batch_cycles(ProcessId::new(1), &ops);
            prop_assert!(h.l1d().stats().writebacks() <= writes);
            for level in h.unified_levels() {
                prop_assert!(
                    level.stats().writebacks() <= writes,
                    "{}: {} writebacks for {} writes",
                    level.label(), level.stats().writebacks(), writes
                );
                // Still-dirty lines are bounded the same way.
                prop_assert!(level.dirty_lines() as u64 <= writes, "{}", level.label());
            }
        }
    }

    /// With a full way partition, a dirty line is only ever evicted by
    /// its own process: dirty data never leaks across the partition.
    #[test]
    fn full_partition_confines_dirty_evictions(salt in any::<u64>(), placement_sel in 0usize..6) {
        let placement = PlacementKind::ALL[placement_sel];
        let mut c = Cache::new(
            "part",
            CacheGeometry::new(16, 4, 32).unwrap(),
            placement,
            ReplacementKind::Lru,
            salt,
        );
        c.set_write_policy(WritePolicy::WriteBack);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        c.set_seed(p1, Seed::new(salt ^ 1));
        c.set_seed(p2, Seed::new(salt ^ 2));
        c.set_way_partition(p1, 0, 2);
        c.set_way_partition(p2, 2, 4);
        let mut state = salt | 1;
        for i in 0..2000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = if i % 3 == 0 { p2 } else { p1 };
            let line = LineAddr::new((state >> 20) % 509);
            let write = state.is_multiple_of(2);
            if let AccessOutcome::Miss { evicted: Some(ev), .. } = c.access_rw(pid, line, write) {
                if ev.dirty {
                    prop_assert_eq!(
                        ev.owner, pid,
                        "{}: dirty line of {:?} evicted by {:?}", placement, ev.owner, pid
                    );
                }
            }
        }
    }

    /// Dirty-line accounting survives flushes: a flush invalidates
    /// dirty lines (this model's flush is an invalidate), after which
    /// no stale dirtiness can produce writebacks.
    #[test]
    fn flush_clears_dirty_state(salt in any::<u64>()) {
        let mut h = small_hierarchy(HierarchyDepth::TwoLevel, WritePolicy::WriteBack);
        let pid = ProcessId::new(1);
        h.access_batch_cycles(pid, &trace(salt, 600));
        h.flush_all();
        prop_assert_eq!(h.l1d().dirty_lines(), 0);
        let before = h.l1d().stats().writebacks();
        // A read-only epoch after the flush can never write back.
        let reads: Vec<TraceOp> = trace(salt ^ 0xf00, 600)
            .into_iter()
            .map(|op| TraceOp::read(op.addr))
            .collect();
        h.access_batch_cycles(pid, &reads);
        prop_assert_eq!(h.l1d().stats().writebacks(), before);
    }

    /// A flush may not silently discard modified data: every dirty
    /// line resident at flush time is *drained* — one counted
    /// writeback per dirty line, at the level it leaves. This pins the
    /// PR-5 fix (flush previously dropped dirty lines with no
    /// accounting at all).
    #[test]
    fn flush_drains_and_counts_every_dirty_line(salt in any::<u64>()) {
        for depth in HierarchyDepth::ALL {
            let mut h = small_hierarchy(depth, WritePolicy::WriteBack);
            let pid = ProcessId::new(1);
            h.access_batch_cycles(pid, &trace(salt, 900));
            let before: Vec<(u64, u64)> = std::iter::once(h.l1d())
                .chain(h.unified_levels())
                .map(|c| (c.dirty_lines() as u64, c.stats().writebacks()))
                .collect();
            h.flush_all();
            let after: Vec<(u64, u64)> = std::iter::once(h.l1d())
                .chain(h.unified_levels())
                .map(|c| (c.dirty_lines() as u64, c.stats().writebacks()))
                .collect();
            for (i, (&(dirty, wbs), &(dirty_after, wbs_after))) in
                before.iter().zip(&after).enumerate()
            {
                prop_assert_eq!(dirty_after, 0, "level {} kept dirty lines across a flush", i);
                prop_assert_eq!(
                    wbs_after,
                    wbs + dirty,
                    "level {}: {} dirty lines flushed but writebacks went {} -> {}",
                    i, dirty, wbs, wbs_after
                );
            }
        }
    }

    /// `flush_process` drains exactly the flushed pid's dirty lines,
    /// leaving other processes' dirty state (and accounting) intact.
    #[test]
    fn flush_process_drains_only_the_named_pid(salt in any::<u64>()) {
        use tscache_core::cache::Cache;
        use tscache_core::geometry::CacheGeometry;
        use tscache_core::placement::PlacementKind;
        use tscache_core::replacement::ReplacementKind;
        let mut c = Cache::new(
            "fp",
            CacheGeometry::new(16, 4, 32).unwrap(),
            PlacementKind::Modulo,
            ReplacementKind::Lru,
            salt,
        );
        c.set_write_policy(WritePolicy::WriteBack);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        c.set_way_partition(p1, 0, 2);
        c.set_way_partition(p2, 2, 4);
        let mut state = salt | 1;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = LineAddr::new((state >> 22) % 127);
            c.access_rw(p1, line, state & 1 == 0);
            c.access_rw(p2, LineAddr::new(512 + ((state >> 13) % 127)), state & 2 == 0);
        }
        let total_dirty = c.dirty_lines() as u64;
        let wbs_before = c.stats().writebacks();
        let drained = c.flush_process(p1);
        prop_assert_eq!(c.stats().writebacks(), wbs_before + drained);
        // Only p2's lines (and dirty state) survive.
        for (_, _, _, owner) in c.contents() {
            prop_assert_eq!(owner, p2);
        }
        prop_assert_eq!(c.dirty_lines() as u64, total_dirty - drained);
    }
}
