//! Property-based coherence invariants of the MSI invalidation model
//! (the isolation side of the coherence story):
//!
//! * full per-core way partitions **plus disjoint data** mean no
//!   coherence action ever reaches a victim's private levels — the
//!   enemy can write and flush its own coherent segment all it wants,
//!   the victim's invalidation counters stay at zero;
//! * a partitioned victim's cache-decided outcomes (its hit/miss
//!   behaviour, off-chip reads, private-level stats) are invariant to
//!   arbitrary enemy *coherence* traffic, not just plain contention;
//! * a flush broadcast really drains: after a core flushes every line
//!   of its coherent segment, no copy survives anywhere — private
//!   levels, shared level, or directory.

use proptest::prelude::*;
use tscache_core::addr::{Addr, LineAddr};
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{Hierarchy, SharedLlc, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_interference::{execute, execute_scalar, CoreRun, EngineScratch};

/// The enemy's coherent segment: 16 lines at 16 MiB, far from any
/// victim data.
const COHERENT_BASE: u64 = 1 << 24;
const COHERENT_BYTES: u64 = 16 * 32;

fn build_core(pid: ProcessId, salt: u64, core: u64) -> Hierarchy {
    let l1 = CacheGeometry::new(8, 2, 32).unwrap();
    let mk = |label: &str, s: u64| {
        Cache::new(label, l1, PlacementKind::RandomModulo, ReplacementKind::Random, s)
    };
    let mut h = Hierarchy::from_private_parts(
        mk("L1I", salt ^ core ^ 0x11),
        mk("L1D", salt ^ core ^ 0x22),
        Vec::new(),
    );
    h.set_process_seed(pid, Seed::new(salt ^ core | 1));
    h.add_coherent_range(Addr::new(COHERENT_BASE), COHERENT_BYTES);
    h
}

fn build_llc(salt: u64, pids: &[ProcessId]) -> SharedLlc {
    let mut llc = SharedLlc::new(Cache::new(
        "SLLC",
        CacheGeometry::new(16, 4, 32).unwrap(),
        PlacementKind::RandomModulo,
        ReplacementKind::Random,
        salt ^ 0x55,
    ));
    llc.add_coherent_range(Addr::new(COHERENT_BASE), COHERENT_BYTES);
    for (k, &pid) in pids.iter().enumerate() {
        llc.set_process_seed(pid, Seed::new(salt.wrapping_mul(31) ^ k as u64 | 1));
    }
    llc
}

/// An enemy trace saturated with coherence actions on its own
/// segment: reads, upgrade-triggering writes, and flush broadcasts.
fn enemy_coherence_trace(salt: u64, len: usize) -> Vec<TraceOp> {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let shared = Addr::new(COHERENT_BASE + ((state >> 18) % 16) * 32);
            match i % 5 {
                0 | 1 => TraceOp::read(shared),
                2 => TraceOp::write(shared),
                3 => TraceOp::flush(shared),
                _ => TraceOp::read(Addr::new((1 << 22) + (state >> 16) % (1 << 13))),
            }
        })
        .collect()
}

fn private_coh_invalidations(h: &Hierarchy) -> u64 {
    h.total_stats().coh_invalidations()
}

proptest! {
    /// Full per-core partitions + disjoint data: however hard the
    /// enemy hammers its own coherent segment (writes, flushes), not
    /// one invalidation reaches the victim's private levels, and the
    /// victim's cache-decided outcomes match the enemy-free run.
    #[test]
    fn partitioned_disjoint_victim_sees_zero_invalidations(salt in any::<u64>()) {
        let (victim, enemy) = (ProcessId::new(1), ProcessId::new(2));
        let victim_ops = TraceOp::mixed_trace(salt, 600, 1 << 14);
        let run = |enemy_salt: Option<u64>| {
            let pids = [victim, enemy];
            let mut llc = build_llc(salt, &pids);
            llc.set_way_partition(victim, 0, 2);
            llc.set_way_partition(enemy, 2, 4);
            let mut vh = build_core(victim, salt, 0);
            let mut eh = build_core(enemy, salt, 1);
            let enemy_ops: Vec<TraceOp> =
                enemy_salt.map(|s| enemy_coherence_trace(s, 900)).unwrap_or_default();
            let mut cores = vec![CoreRun { hierarchy: &mut vh, pid: victim, ops: &victim_ops }];
            if enemy_salt.is_some() {
                cores.push(CoreRun { hierarchy: &mut eh, pid: enemy, ops: &enemy_ops });
            }
            let out = execute(&mut cores, &mut [], Some(&mut llc), None, &mut EngineScratch::default());
            let v = out.cores[0];
            (
                (v.ops, v.base_cycles, v.mem_reads, v.mem_writebacks, v.coh_invalidations),
                vh.total_stats(),
                private_coh_invalidations(&vh),
                out.cores.last().map(|e| e.coh_invalidations).unwrap_or(0),
            )
        };
        let (solo, solo_stats, _, _) = run(None);
        for enemy_salt in [salt ^ 1, salt ^ 2] {
            let (contended, stats, victim_inv, enemy_inv) = run(Some(enemy_salt));
            prop_assert_eq!(contended, solo, "enemy coherence traffic leaked into the victim");
            prop_assert_eq!(&stats, &solo_stats, "victim private levels perturbed");
            prop_assert_eq!(victim_inv, 0, "an invalidation reached the partitioned victim");
            prop_assert_eq!(contended.4, 0, "victim report counts received invalidations");
            // Sanity: the enemy's own traffic really is coherent — its
            // flush broadcasts drain its own earlier fills.
            prop_assert!(enemy_inv > 0, "enemy coherence traffic never invalidated anything");
        }
    }

    /// A victim sharing *nothing* keeps its exact hit/miss sequence on
    /// the shared level under enemy coherence storms (full partition):
    /// checked at the cache level with adversarial interleavings, like
    /// the PR-4 isolation proptests, but with the enemy's accesses
    /// replaced by directory-visible coherent traffic.
    #[test]
    fn victim_llc_sequence_invariant_under_enemy_coherence_traffic(
        salt in any::<u64>(),
        burst in 1u64..4,
    ) {
        let (victim, enemy) = (ProcessId::new(1), ProcessId::new(2));
        let pids = [victim, enemy];
        let victim_lines: Vec<LineAddr> = {
            let mut state = salt | 1;
            (0..500).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                LineAddr::new((state >> 17) % 509)
            }).collect()
        };
        let solo: Vec<bool> = {
            let mut llc = build_llc(salt, &pids);
            llc.set_way_partition(victim, 0, 2);
            llc.set_way_partition(enemy, 2, 4);
            victim_lines.iter().map(|&l| llc.cache_mut().access(victim, l).is_hit()).collect()
        };
        let mut llc = build_llc(salt, &pids);
        llc.set_way_partition(victim, 0, 2);
        llc.set_way_partition(enemy, 2, 4);
        let coh_line = |k: u64| LineAddr::new((COHERENT_BASE >> 5) + k % 16);
        let mut k = 0u64;
        let contended: Vec<bool> = victim_lines
            .iter()
            .map(|&l| {
                for _ in 0..burst {
                    // Enemy fill + flush-style drain of its own copy:
                    // the directory churns, the victim must not see it.
                    llc.cache_mut().access(enemy, coh_line(k));
                    if k.is_multiple_of(3) {
                        llc.clear_sharers(coh_line(k));
                        llc.invalidate_copy(enemy, coh_line(k));
                    }
                    k += 1;
                }
                llc.cache_mut().access(victim, l).is_hit()
            })
            .collect();
        prop_assert_eq!(&contended, &solo, "enemy coherence churn leaked into the victim");
        prop_assert_eq!(llc.cache().stats().cross_process_evictions(), 0);
    }

    /// Flush really drains: a core that ends its trace by flushing
    /// every line of its coherent segment leaves no copy anywhere —
    /// not in its private levels, not in the shared level, not in the
    /// directory.
    #[test]
    fn trailing_flushes_drain_every_coherent_copy(salt in any::<u64>(), scalar in any::<bool>()) {
        let pid = ProcessId::new(1);
        let mut h = build_core(pid, salt, 0);
        let mut llc = build_llc(salt, &[pid]);
        let mut ops: Vec<TraceOp> = enemy_coherence_trace(salt, 300)
            .into_iter()
            .filter(|op| op.kind != tscache_core::hierarchy::AccessKind::Flush)
            .collect();
        for l in 0..16u64 {
            ops.push(TraceOp::flush(Addr::new(COHERENT_BASE + l * 32)));
        }
        {
            let mut cores = vec![CoreRun { hierarchy: &mut h, pid, ops: &ops }];
            if scalar {
                execute_scalar(&mut cores, &mut [], Some(&mut llc));
            } else {
                execute(&mut cores, &mut [], Some(&mut llc), None, &mut EngineScratch::default());
            }
        }
        let first = COHERENT_BASE >> 5;
        let in_segment = |line: u64| line >= first && line < first + 16;
        for (_, _, line, _) in h.l1d().contents().chain(h.l1i().contents()) {
            prop_assert!(!in_segment(line.as_u64()), "private copy survived the flush");
        }
        for (_, _, line, _) in llc.cache().contents() {
            prop_assert!(!in_segment(line.as_u64()), "shared-level copy survived the flush");
        }
        for l in 0..16u64 {
            prop_assert_eq!(llc.sharers(LineAddr::new(first + l)), 0, "directory entry survived");
        }
    }
}
