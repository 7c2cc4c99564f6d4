//! Flush-replay determinism: a flush must return the cache to a state
//! from which an identical trace replays bit for bit — across
//! placement × replacement × partitioning. This pins the PR-5 fix
//! that `Cache::flush` resets the per-process partition-replacement
//! RNG streams (`part_rngs`) to their derivation points (and that
//! `flush_process` drops the flushed pid's stream): before the fix,
//! partitioned random replacement replayed from mid-stream positions
//! and flush + replay diverged from the original run.
//!
//! The shared hardware RNG stream (full-width victim selection,
//! RPCache remaps) deliberately survives a flush — it models
//! free-running LFSR state — so the replay guarantee is stated where
//! the §5/§6 OS support needs it: fully partitioned processes, whose
//! victim draws come exclusively from the per-process streams.

use tscache_core::addr::LineAddr;
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};

fn build(placement: PlacementKind, replacement: ReplacementKind) -> Cache {
    let mut c =
        Cache::new("flush", CacheGeometry::new(16, 4, 32).unwrap(), placement, replacement, 0xf1);
    for (pid, lo, hi) in [(1u16, 0u32, 2u32), (2, 2, 4)] {
        let p = ProcessId::new(pid);
        c.set_seed(p, Seed::new(0x5eed ^ pid as u64));
        c.set_way_partition(p, lo, hi);
    }
    c
}

/// A two-process interleaved line trace with heavy set reuse, so
/// partitioned victim selection fires constantly.
fn trace(salt: u64, len: usize) -> Vec<(ProcessId, LineAddr)> {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pid = ProcessId::new(1 + (i % 3 == 0) as u16);
            (pid, LineAddr::new((state >> 20) % 251))
        })
        .collect()
}

fn outcomes(c: &mut Cache, ops: &[(ProcessId, LineAddr)]) -> Vec<(bool, Option<u64>)> {
    ops.iter()
        .map(|&(pid, line)| match c.access(pid, line) {
            tscache_core::cache::AccessOutcome::Hit => (true, None),
            tscache_core::cache::AccessOutcome::Miss { evicted, .. } => {
                (false, evicted.map(|ev| ev.line.as_u64()))
            }
        })
        .collect()
}

#[test]
fn flush_then_replay_is_bit_identical_across_policies() {
    for placement in PlacementKind::ALL {
        for replacement in ReplacementKind::ALL {
            let ops = trace(0xabc, 1500);
            let mut c = build(placement, replacement);
            let first = outcomes(&mut c, &ops);
            c.flush();
            assert_eq!(c.occupancy(), 0, "{placement}/{replacement}");
            let replay = outcomes(&mut c, &ops);
            assert_eq!(
                replay, first,
                "{placement}/{replacement}: flush + identical replay diverged \
                 (partition RNG streams not reset?)"
            );
            // And a second flush cycle reproduces again — the reset is
            // to the derivation point, not to a one-shot snapshot.
            c.flush();
            let replay2 = outcomes(&mut c, &ops);
            assert_eq!(replay2, first, "{placement}/{replacement}: second flush cycle diverged");
        }
    }
}

#[test]
fn flush_process_restarts_the_flushed_pids_stream_only() {
    for replacement in ReplacementKind::ALL {
        let ops = trace(0x77, 1200);
        let p1 = ProcessId::new(1);
        let p1_ops: Vec<_> = ops.iter().copied().filter(|&(p, _)| p == p1).collect();
        let mut c = build(PlacementKind::RandomModulo, replacement);
        let first = outcomes(&mut c, &p1_ops);
        c.flush_process(p1);
        let replay = outcomes(&mut c, &p1_ops);
        assert_eq!(
            replay, first,
            "{replacement}: flush_process + replay diverged for the flushed pid"
        );
    }
}

#[test]
fn flush_replay_holds_on_a_partitioned_hierarchy() {
    use tscache_core::hierarchy::TraceOp;
    use tscache_core::setup::{HierarchyDepth, SetupKind};
    // The end-to-end form the TSCache OS relies on: a fully
    // partitioned random-replacement hierarchy replays a job
    // identically after the hyperperiod flush.
    let mut h = SetupKind::TsCache.build_depth(HierarchyDepth::ThreeLevel, 0xcafe);
    let pid = ProcessId::new(1);
    h.set_process_seed(pid, Seed::new(0x5eed));
    h.set_way_partition(pid, 0, 2);
    let ops = TraceOp::mixed_trace(0x1234, 2000, 1 << 15);
    let run = |h: &mut tscache_core::hierarchy::Hierarchy| {
        let cycles = h.access_batch_cycles(pid, &ops);
        let stats: Vec<_> =
            [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels()).map(|c| *c.stats()).collect();
        (cycles, stats)
    };
    let (first_cycles, first_stats) = run(&mut h);
    h.flush_all();
    h.reset_stats();
    let (replay_cycles, replay_stats) = run(&mut h);
    assert_eq!(replay_cycles, first_cycles, "flushed hierarchy replayed a different cycle count");
    assert_eq!(replay_stats, first_stats);
}
