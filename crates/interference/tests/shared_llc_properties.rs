//! Property-based isolation guarantees of per-core way partitions on
//! the shared last-level cache (the provable form of the §7 ablation):
//!
//! * a **full** per-core partition means zero cross-core evictions and
//!   a victim shared-level hit/miss sequence that is invariant to any
//!   co-runner trace (co-runners touch disjoint address spaces —
//!   shared *data* is the Flush+Reload channel no partition closes);
//! * a **partial** overlap confines interference to the overlapping
//!   ways: victim lines resident in non-overlapping ways survive any
//!   enemy storm.
//!
//! Checked both at the cache level (driving the [`SharedLlc`]
//! directly under adversarial interleavings) and at the engine level
//! ([`execute`] with arbitrary enemy traces).

use proptest::prelude::*;
use tscache_core::addr::{Addr, LineAddr};
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{Hierarchy, SharedLlc, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_interference::{execute, CoreRun, EngineScratch};

fn llc(placement: PlacementKind, replacement: ReplacementKind, salt: u64) -> SharedLlc {
    let mut llc = SharedLlc::new(Cache::new(
        "SLLC",
        CacheGeometry::new(16, 4, 32).unwrap(),
        placement,
        replacement,
        salt,
    ));
    llc.set_process_seed(ProcessId::new(1), Seed::new(salt ^ 0xa | 1));
    llc.set_process_seed(ProcessId::new(2), Seed::new(salt ^ 0xb | 1));
    llc
}

/// A deterministic line sequence with reuse, confined to `base +
/// 0..span` so victim and enemy spaces stay disjoint.
fn line_seq(salt: u64, len: usize, base: u64, span: u64) -> Vec<LineAddr> {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            LineAddr::new(base + (state >> 17) % span)
        })
        .collect()
}

proptest! {
    /// Full per-core partition at the cache level: whatever enemy
    /// accesses are interleaved (trace *and* interleaving pattern are
    /// adversarial), the victim's hit/miss sequence matches the
    /// enemy-free run exactly, and no cross-core eviction ever occurs.
    #[test]
    fn full_partition_makes_victim_llc_sequence_invariant(
        salt in any::<u64>(),
        placement_sel in 0usize..6,
        replacement_sel in 0..ReplacementKind::ALL.len(),
        burst in 1u64..4,
    ) {
        let placement = PlacementKind::ALL[placement_sel];
        let replacement = ReplacementKind::ALL[replacement_sel];
        let (victim, enemy) = (ProcessId::new(1), ProcessId::new(2));
        let victim_lines = line_seq(salt, 600, 0, 509);
        let enemy_lines = line_seq(salt ^ 0xee, 2000, 1 << 20, 769);

        let solo: Vec<bool> = {
            let mut llc = llc(placement, replacement, salt);
            llc.set_way_partition(victim, 0, 2);
            llc.set_way_partition(enemy, 2, 4);
            victim_lines.iter().map(|&l| llc.cache_mut().access(victim, l).is_hit()).collect()
        };

        let mut llc = llc(placement, replacement, salt);
        llc.set_way_partition(victim, 0, 2);
        llc.set_way_partition(enemy, 2, 4);
        let mut e = 0usize;
        let contended: Vec<bool> = victim_lines
            .iter()
            .map(|&l| {
                // Adversarial interleaving: `burst` enemy accesses
                // around every victim access.
                for _ in 0..burst {
                    llc.cache_mut().access(enemy, enemy_lines[e % enemy_lines.len()]);
                    e += 1;
                }
                llc.cache_mut().access(victim, l).is_hit()
            })
            .collect();
        prop_assert_eq!(
            &contended, &solo,
            "{}/{}: enemy interleaving leaked into the victim's hit/miss sequence",
            placement, replacement
        );
        prop_assert_eq!(llc.cache().stats().cross_process_evictions(), 0);
    }

    /// Partial overlap confines interference to the overlapping ways:
    /// the victim fills ways 0..3, the enemy 2..4, so every victim
    /// line resident in ways 0..2 before the enemy storm must survive
    /// it untouched.
    #[test]
    fn partial_overlap_confines_interference_to_overlapping_ways(
        salt in any::<u64>(),
        placement_sel in 0usize..6,
    ) {
        let placement = PlacementKind::ALL[placement_sel];
        let (victim, enemy) = (ProcessId::new(1), ProcessId::new(2));
        let mut llc = llc(placement, ReplacementKind::Lru, salt);
        llc.set_way_partition(victim, 0, 3);
        llc.set_way_partition(enemy, 2, 4);
        for &l in &line_seq(salt, 400, 0, 251) {
            llc.cache_mut().access(victim, l);
        }
        let safe: Vec<(u32, u32, u64)> = llc
            .cache()
            .contents()
            .filter(|&(_, way, _, owner)| owner == victim && way < 2)
            .map(|(set, way, line, _)| (set, way, line.as_u64()))
            .collect();
        prop_assume!(!safe.is_empty());
        // Enemy storm: far more lines than the cache holds.
        for &l in &line_seq(salt ^ 0x5707, 3000, 1 << 20, 4099) {
            llc.cache_mut().access(enemy, l);
        }
        let after: std::collections::BTreeSet<(u32, u32, u64)> = llc
            .cache()
            .contents()
            .map(|(set, way, line, _)| (set, way, line.as_u64()))
            .collect();
        for slot in &safe {
            prop_assert!(
                after.contains(slot),
                "{}: victim line {:?} outside the overlap was evicted",
                placement,
                slot
            );
        }
    }

    /// Full per-core partition at the engine level: the victim core's
    /// cache-decided outcomes (base cycles, off-chip reads, writeback
    /// traffic) and its private levels are invariant to the co-runner
    /// trace — only queuing waits may differ.
    #[test]
    fn full_partition_isolates_victim_engine_outcomes(salt in any::<u64>()) {
        let (victim, enemy) = (ProcessId::new(1), ProcessId::new(2));
        let victim_ops = TraceOp::mixed_trace(salt, 700, 1 << 14);
        let build_core = |pid: ProcessId, core: u64| {
            let l1 = CacheGeometry::new(8, 2, 32).unwrap();
            let mk = |label: &str, s: u64| {
                Cache::new(label, l1, PlacementKind::RandomModulo, ReplacementKind::Random, s)
            };
            let mut h = Hierarchy::from_private_parts(
                mk("L1I", core ^ 0x11),
                mk("L1D", core ^ 0x22),
                Vec::new(),
            );
            h.set_process_seed(pid, Seed::new(salt ^ core | 1));
            h
        };
        let run = |enemy_salt: Option<u64>| {
            let mut llc = llc(PlacementKind::RandomModulo, ReplacementKind::Random, salt);
            llc.set_way_partition(victim, 0, 2);
            llc.set_way_partition(enemy, 2, 4);
            let mut vh = build_core(victim, 0);
            let mut cores = vec![CoreRun { hierarchy: &mut vh, pid: victim, ops: &victim_ops }];
            let enemy_ops: Vec<TraceOp> = enemy_salt
                .map(|s| {
                    TraceOp::mixed_trace(s, 900, 1 << 14)
                        .into_iter()
                        .map(|op| TraceOp {
                            kind: op.kind,
                            addr: Addr::new(op.addr.as_u64() + (1 << 24)),
                        })
                        .collect()
                })
                .unwrap_or_default();
            let mut eh = build_core(enemy, 1);
            if enemy_salt.is_some() {
                cores.push(CoreRun { hierarchy: &mut eh, pid: enemy, ops: &enemy_ops });
            }
            let out = execute(&mut cores, &mut [], Some(&mut llc), None, &mut EngineScratch::default());
            let v = out.cores[0];
            (
                (v.ops, v.base_cycles, v.mem_reads, v.mem_writebacks),
                vh.total_stats(),
                llc.cache().stats().cross_process_evictions(),
            )
        };
        let (solo, solo_stats, _) = run(None);
        for enemy_salt in [salt ^ 1, salt ^ 2] {
            let (contended, stats, cross) = run(Some(enemy_salt));
            prop_assert_eq!(contended, solo, "enemy trace leaked into victim outcomes");
            prop_assert_eq!(&stats, &solo_stats, "enemy trace leaked into victim private levels");
            prop_assert_eq!(cross, 0);
        }
    }
}
