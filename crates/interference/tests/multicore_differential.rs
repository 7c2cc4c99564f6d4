//! The multi-core differential suite: the production engine
//! ([`execute`]) must be bit-identical to the reference
//! ([`execute_scalar`], every core walked op by op) — per-core cycles,
//! bus waits, MSHR accounting, per-level statistics (including
//! writeback counters) and final cache contents — across every
//! placement × replacement × depth × arbitration combination, with
//! write-back caches on; on private, shared-LLC and coherent
//! platforms; and in the segment shape `Machine::run_trace` drives (one
//! finite core against cyclic co-runners).

use tscache_core::addr::Addr;
use tscache_core::cache::{Cache, WritePolicy};
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{Hierarchy, SharedLlc, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_core::stats::CacheStats;
use tscache_interference::{
    execute, execute_scalar, Arbitration, BusConfig, CoRunner, CoreRun, EngineScratch,
    InterferenceOutcome, MshrConfig, SystemConfig,
};

/// The reference engine or the production one (fresh scratch, no
/// recorder) on finite cores alone.
fn engine(
    scalar: bool,
    cores: &mut [CoreRun<'_>],
    llc: Option<&mut SharedLlc>,
    cfg: &SystemConfig,
) -> InterferenceOutcome {
    if scalar {
        execute_scalar(cores, &mut [], llc, cfg)
    } else {
        execute(cores, &mut [], llc, cfg, None, &mut EngineScratch::default())
    }
}

/// Deterministic mixed trace whose footprint overflows the small
/// hierarchies below at every level.
fn recorded_trace(salt: u64, len: usize) -> Vec<TraceOp> {
    TraceOp::mixed_trace(salt, len, 1 << 14)
}

/// A small per-core hierarchy (8×2 L1s, 32×4 L2, optional 64×4 L3)
/// with uniform policies, a seeded process and write-back caches.
fn small_hierarchy(
    placement: PlacementKind,
    replacement: ReplacementKind,
    depth: HierarchyDepth,
    core: u64,
) -> Hierarchy {
    let l1 = CacheGeometry::new(8, 2, 32).unwrap();
    let l2 = CacheGeometry::new(32, 4, 32).unwrap();
    let l3 = CacheGeometry::new(64, 4, 32).unwrap();
    let mut unified = vec![(Cache::new("L2", l2, placement, replacement, core ^ 0x33), 10)];
    if depth == HierarchyDepth::ThreeLevel {
        unified.push((Cache::new("L3", l3, placement, replacement, core ^ 0x44), 30));
    }
    let mut h = Hierarchy::from_parts(
        Cache::new("L1I", l1, placement, replacement, core ^ 0x11),
        Cache::new("L1D", l1, placement, replacement, core ^ 0x22),
        unified,
        1,
        80,
    );
    h.set_process_seed(ProcessId::new(1), Seed::new(core.wrapping_mul(0xabcd) | 1));
    h.set_write_policy(WritePolicy::WriteBack);
    h
}

/// Everything a cache decided: statistics, contents (set, way, line,
/// owner) and the dirty-line count.
type CacheState = (CacheStats, Vec<(u32, u32, u64, u16)>, usize);

fn cache_state(c: &Cache) -> CacheState {
    let contents = c.contents().map(|(s, w, l, o)| (s, w, l.as_u64(), o.as_u16())).collect();
    (*c.stats(), contents, c.dirty_lines())
}

fn levels(h: &Hierarchy) -> impl Iterator<Item = &Cache> {
    [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels())
}

fn hierarchy_state(h: &Hierarchy) -> Vec<CacheState> {
    levels(h).map(cache_state).collect()
}

fn assert_hierarchies_identical(a: &Hierarchy, b: &Hierarchy, label: &str) {
    for (x, y) in levels(a).zip(levels(b)) {
        assert_eq!(cache_state(x), cache_state(y), "{label}: {} diverges", x.label());
    }
}

#[test]
fn contended_batch_is_bit_identical_to_scalar_interleaving() {
    let pid = ProcessId::new(1);
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for arbitration in Arbitration::ALL {
                    let label = format!("{placement}/{replacement}/{depth}/{arbitration}");
                    let cfg = SystemConfig {
                        bus: BusConfig { arbitration, ..BusConfig::default() },
                        mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                    };
                    let salt = (placement as usize * 64 + replacement as usize * 8 + depth as usize)
                        as u64
                        + 1;
                    let traces: Vec<Vec<TraceOp>> = (0..3)
                        .map(|c| recorded_trace(salt ^ (c as u64) << 8, 420 + 60 * c))
                        .collect();
                    let mut scalar_h: Vec<Hierarchy> = (0..3)
                        .map(|c| small_hierarchy(placement, replacement, depth, c as u64))
                        .collect();
                    let mut batch_h: Vec<Hierarchy> = (0..3)
                        .map(|c| small_hierarchy(placement, replacement, depth, c as u64))
                        .collect();
                    let scalar = {
                        let mut cores: Vec<CoreRun<'_>> = scalar_h
                            .iter_mut()
                            .zip(&traces)
                            .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                            .collect();
                        engine(true, &mut cores, None, &cfg)
                    };
                    let batch = {
                        let mut cores: Vec<CoreRun<'_>> = batch_h
                            .iter_mut()
                            .zip(&traces)
                            .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                            .collect();
                        engine(false, &mut cores, None, &cfg)
                    };
                    assert_eq!(scalar, batch, "{label}: engine outcomes diverge");
                    for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                        assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
                    }
                }
            }
        }
    }
}

#[test]
fn paper_presets_match_across_engines_with_active_writebacks() {
    // The four DAC'18 setups at both depths, three cores, write-back
    // caches: the production path the campaign layers drive.
    let pid = ProcessId::new(1);
    for setup in SetupKind::ALL {
        for depth in HierarchyDepth::ALL {
            let label = format!("{setup}/{depth}");
            let cfg = SystemConfig::default();
            // A footprint well past the 16 KiB paper L1, so dirty
            // lines really get evicted.
            let traces: Vec<Vec<TraceOp>> = (0..3)
                .map(|c| TraceOp::mixed_trace(0xd5e ^ setup as u64 ^ (c as u64) << 9, 900, 1 << 17))
                .collect();
            let build = |c: u64| {
                let mut h = setup.build_depth(depth, 40 + c);
                h.set_process_seed(pid, Seed::new(0x77 + c));
                h.set_write_policy(WritePolicy::WriteBack);
                h
            };
            let mut scalar_h: Vec<Hierarchy> = (0..3).map(|c| build(c as u64)).collect();
            let mut batch_h: Vec<Hierarchy> = (0..3).map(|c| build(c as u64)).collect();
            let scalar = {
                let mut cores: Vec<CoreRun<'_>> = scalar_h
                    .iter_mut()
                    .zip(&traces)
                    .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                    .collect();
                engine(true, &mut cores, None, &cfg)
            };
            let batch = {
                let mut cores: Vec<CoreRun<'_>> = batch_h
                    .iter_mut()
                    .zip(&traces)
                    .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
                    .collect();
                engine(false, &mut cores, None, &cfg)
            };
            assert_eq!(scalar, batch, "{label}");
            for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
            }
            // The mixed write trace on write-back caches must really
            // exercise the writeback plumbing.
            let wbs: u64 = scalar_h
                .iter()
                .map(|h| {
                    h.l1d().stats().writebacks()
                        + h.unified_levels().map(|l| l.stats().writebacks()).sum::<u64>()
                })
                .sum();
            assert!(wbs > 0, "{label}: no writeback traffic generated");
        }
    }
}

/// The per-core *private* portion of a shared-LLC platform: split L1s
/// plus an optional private L2, per-core pid and seeds.
fn small_private(
    placement: PlacementKind,
    replacement: ReplacementKind,
    depth: HierarchyDepth,
    policy: WritePolicy,
    core: u64,
) -> (Hierarchy, ProcessId) {
    let l1 = CacheGeometry::new(8, 2, 32).unwrap();
    let l2 = CacheGeometry::new(32, 4, 32).unwrap();
    let mut unified = Vec::new();
    if depth == HierarchyDepth::ThreeLevel {
        unified.push((Cache::new("L2", l2, placement, replacement, core ^ 0x33), 10));
    }
    let mut h = Hierarchy::from_private_parts(
        Cache::new("L1I", l1, placement, replacement, core ^ 0x11),
        Cache::new("L1D", l1, placement, replacement, core ^ 0x22),
        unified,
        1,
        80,
    );
    let pid = ProcessId::new(1 + core as u16);
    h.set_process_seed(pid, Seed::new(core.wrapping_mul(0xabcd) | 1));
    h.set_write_policy(policy);
    (h, pid)
}

fn small_shared_llc(
    placement: PlacementKind,
    replacement: ReplacementKind,
    policy: WritePolicy,
    pids: &[ProcessId],
) -> SharedLlc {
    let mut llc = SharedLlc::new(
        Cache::new("SLLC", CacheGeometry::new(64, 4, 32).unwrap(), placement, replacement, 0x55),
        10,
        80,
    );
    llc.set_write_policy(policy);
    for (k, &pid) in pids.iter().enumerate() {
        llc.set_process_seed(pid, Seed::new(0x511c ^ (k as u64) << 8 | 1));
    }
    llc
}

#[test]
fn shared_llc_batch_is_bit_identical_to_scalar_interleaving() {
    // The shared axis of the acceptance criterion: three cores funnel
    // into one shared last level (so cross-core evictions really
    // happen), across placement × replacement × arbitration × write
    // policy × private depth. Everything must match: engine outcomes,
    // every private level, and the shared cache itself — stats,
    // contents, dirty lines.
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for arbitration in Arbitration::ALL {
                    for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                        let label = format!(
                            "shared/{placement}/{replacement}/{depth}/{arbitration}/{policy:?}"
                        );
                        let cfg = SystemConfig {
                            bus: BusConfig { arbitration, ..BusConfig::default() },
                            mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                        };
                        let salt = (placement as usize * 64
                            + replacement as usize * 8
                            + depth as usize) as u64
                            + 0x9000;
                        let traces: Vec<Vec<TraceOp>> = (0..3)
                            .map(|c| recorded_trace(salt ^ (c as u64) << 8, 360 + 40 * c))
                            .collect();
                        let run = |scalar: bool| {
                            let mut cores_h: Vec<(Hierarchy, ProcessId)> = (0..3)
                                .map(|c| {
                                    small_private(placement, replacement, depth, policy, c as u64)
                                })
                                .collect();
                            let pids: Vec<ProcessId> =
                                cores_h.iter().map(|&(_, pid)| pid).collect();
                            let mut llc = small_shared_llc(placement, replacement, policy, &pids);
                            let out = {
                                let mut cores: Vec<CoreRun<'_>> = cores_h
                                    .iter_mut()
                                    .zip(&traces)
                                    .map(|((h, pid), t)| CoreRun {
                                        hierarchy: h,
                                        pid: *pid,
                                        ops: t,
                                    })
                                    .collect();
                                engine(scalar, &mut cores, Some(&mut llc), &cfg)
                            };
                            (out, cores_h.into_iter().map(|(h, _)| h).collect::<Vec<_>>(), llc)
                        };
                        let (scalar_out, scalar_h, scalar_llc) = run(true);
                        let (batch_out, batch_h, batch_llc) = run(false);
                        assert_eq!(scalar_out, batch_out, "{label}: engine outcomes diverge");
                        for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                            assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
                        }
                        assert_eq!(
                            cache_state(scalar_llc.cache()),
                            cache_state(batch_llc.cache()),
                            "{label}: shared LLC diverges"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn shared_llc_paper_presets_match_across_engines() {
    // The four DAC'18 setups on the paper-geometry shared platform
    // (SetupKind::build_private + build_shared_llc), both depths,
    // write-back on — the production path Machine::from_setup_shared
    // drives.
    for setup in SetupKind::ALL {
        for depth in HierarchyDepth::ALL {
            let label = format!("shared-preset/{setup}/{depth}");
            let cfg = SystemConfig::default();
            let traces: Vec<Vec<TraceOp>> = (0..3)
                .map(|c| TraceOp::mixed_trace(0xf00 ^ setup as u64 ^ (c as u64) << 9, 800, 1 << 17))
                .collect();
            let run = |scalar: bool| {
                let mut hs: Vec<Hierarchy> = (0..3u64)
                    .map(|c| {
                        let mut h = setup.build_private(depth, 40 + c);
                        h.set_process_seed(ProcessId::new(1 + c as u16), Seed::new(0x77 + c));
                        h.set_write_policy(WritePolicy::WriteBack);
                        h
                    })
                    .collect();
                let mut llc = setup.build_shared_llc(depth, 40);
                llc.set_write_policy(WritePolicy::WriteBack);
                for c in 0..3u64 {
                    llc.set_process_seed(ProcessId::new(1 + c as u16), Seed::new(0x99 + c));
                }
                let out = {
                    let mut cores: Vec<CoreRun<'_>> = hs
                        .iter_mut()
                        .enumerate()
                        .zip(&traces)
                        .map(|((c, h), t)| CoreRun {
                            hierarchy: h,
                            pid: ProcessId::new(1 + c as u16),
                            ops: t,
                        })
                        .collect();
                    engine(scalar, &mut cores, Some(&mut llc), &cfg)
                };
                (out, hs, llc)
            };
            let (scalar_out, scalar_h, scalar_llc) = run(true);
            let (batch_out, batch_h, batch_llc) = run(false);
            assert_eq!(scalar_out, batch_out, "{label}");
            for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
            }
            assert_eq!(cache_state(scalar_llc.cache()), cache_state(batch_llc.cache()), "{label}");
        }
    }
}

/// A trace interleaving private traffic with reads, writes and
/// flushes of a shared coherent segment at `shared_base`: the
/// coherence-affected workload shape (upgrade invalidations, flush
/// broadcasts, back-invalidations all fire).
fn coherent_trace(salt: u64, len: usize, shared_base: u64) -> Vec<TraceOp> {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let shared_line = Addr::new(shared_base + ((state >> 18) % 16) * 32);
            match i % 13 {
                0 | 5 | 9 => TraceOp::read(shared_line),
                3 => TraceOp::write(shared_line),
                7 => TraceOp::flush(shared_line),
                _ => {
                    let addr = Addr::new((state >> 16) % (1 << 14));
                    if state & 2 == 0 {
                        TraceOp::read(addr)
                    } else {
                        TraceOp::write(addr)
                    }
                }
            }
        })
        .collect()
}

#[test]
fn coherence_axis_batch_is_bit_identical_to_scalar_interleaving() {
    // The coherence axis of the acceptance criterion: two cores share
    // (and write, and flush) a coherent read-mostly segment while a
    // third runs pure private traffic — so the batch engine really
    // mixes pre-executed and per-op cores — across placement ×
    // replacement × write policy × private depth. Everything must
    // match bit for bit: engine outcomes *including the coherence
    // counters*, every private level (stats carry per-cache
    // invalidation counts), and the shared cache.
    const SHARED_BASE: u64 = 1 << 20;
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                    let label = format!("coherent/{placement}/{replacement}/{depth}/{policy:?}");
                    let cfg = SystemConfig {
                        bus: BusConfig::default(),
                        mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
                    };
                    let salt = (placement as usize * 64 + replacement as usize * 8 + depth as usize)
                        as u64
                        + 0xc0;
                    let traces: Vec<Vec<TraceOp>> = vec![
                        coherent_trace(salt ^ 0x1, 420, SHARED_BASE),
                        coherent_trace(salt ^ 0x2, 380, SHARED_BASE),
                        // Core 2 never touches the shared segment: it
                        // stays pre-batchable in the batch engine.
                        recorded_trace(salt ^ 0x3, 400),
                    ];
                    let run = |scalar: bool| {
                        let mut cores_h: Vec<(Hierarchy, ProcessId)> = (0..3)
                            .map(|c| small_private(placement, replacement, depth, policy, c as u64))
                            .collect();
                        let pids: Vec<ProcessId> = cores_h.iter().map(|&(_, pid)| pid).collect();
                        let mut llc = small_shared_llc(placement, replacement, policy, &pids);
                        llc.add_coherent_range(Addr::new(SHARED_BASE), 512);
                        for (h, _) in cores_h.iter_mut() {
                            h.add_coherent_range(Addr::new(SHARED_BASE), 512);
                        }
                        let out = {
                            let mut cores: Vec<CoreRun<'_>> = cores_h
                                .iter_mut()
                                .zip(&traces)
                                .map(|((h, pid), t)| CoreRun { hierarchy: h, pid: *pid, ops: t })
                                .collect();
                            engine(scalar, &mut cores, Some(&mut llc), &cfg)
                        };
                        (out, cores_h.into_iter().map(|(h, _)| h).collect::<Vec<_>>(), llc)
                    };
                    let (scalar_out, scalar_h, scalar_llc) = run(true);
                    let (batch_out, batch_h, batch_llc) = run(false);
                    assert_eq!(scalar_out, batch_out, "{label}: engine outcomes diverge");
                    for (i, (a, b)) in scalar_h.iter().zip(&batch_h).enumerate() {
                        assert_hierarchies_identical(a, b, &format!("{label}/core{i}"));
                    }
                    assert_eq!(
                        cache_state(scalar_llc.cache()),
                        cache_state(batch_llc.cache()),
                        "{label}: shared LLC diverges"
                    );
                    // The axis must actually exercise coherence: the
                    // sharing cores invalidate each other, the private
                    // core is never touched.
                    let invalidations: u64 =
                        scalar_out.cores.iter().map(|c| c.coh_invalidations).sum();
                    let txns: u64 = scalar_out.cores.iter().map(|c| c.coh_txns).sum();
                    assert!(invalidations > 0, "{label}: no invalidation ever landed");
                    assert!(txns > 0, "{label}: no coherence bus transaction issued");
                    assert_eq!(
                        scalar_out.cores[2].coh_invalidations, 0,
                        "{label}: coherence traffic reached the private core"
                    );
                }
            }
        }
    }
}

/// Walks the next ops of a co-runner's cyclic `trace` through
/// `reference`'s private levels until it reaches `twin`'s exact state;
/// returns how many ops that took, or `None` if one trace pass never
/// got there.
///
/// A co-runner the production engine pre-executes runs ahead of the
/// merge by its unconsumed lookahead: private walks of ops the merge
/// has not reached yet (model speculation, which a flush drops). The
/// reference walks op by op and stops exactly where the merge did,
/// `merged` ops into its trace. The replay sends nothing to a shared
/// level, because the lookahead has not reached it either. A
/// co-runner that walked per op in both engines matches with nothing
/// replayed.
fn replay_lookahead(
    reference: &mut CoRunner,
    twin: &CoRunner,
    trace: &[TraceOp],
    merged: u64,
) -> Option<usize> {
    let pid = reference.pid();
    for k in 0..=trace.len() {
        if hierarchy_state(reference.hierarchy()) == hierarchy_state(twin.hierarchy()) {
            return Some(k);
        }
        let op = trace[(merged as usize + k) % trace.len()];
        reference.hierarchy_mut().access_detailed(pid, op.kind, op.addr);
    }
    None
}

#[test]
fn segment_axis_execute_is_bit_identical_to_scalar() {
    // The shape `Machine::run_trace` runs with enemies attached: one
    // finite primary against two cyclic co-runners, over consecutive
    // segments that share the co-runners (trace position, lookahead
    // and cache state carry over) and, in the production engine, one
    // scratch. Private, shared and coherent platforms × placement ×
    // replacement × depth, write-back on, under two workloads: plain
    // traffic everywhere (every core pre-executed), or a primary and
    // first co-runner that read, write and flush the coherent segment
    // beside a second co-runner that never touches it. Engine
    // outcomes, every private level and the shared LLC must match.
    const SHARED_BASE: u64 = 1 << 20;
    let cfg = SystemConfig {
        bus: BusConfig::default(),
        mshr: Some(MshrConfig { entries: 2, window_ops: 6, stall_cycles: 5 }),
    };
    let (mut ran_ahead, mut wrapped) = (false, false);
    for platform in ["private", "shared", "coherent"] {
        for coherent_mix in [false, true] {
            for depth in HierarchyDepth::ALL {
                for placement in PlacementKind::ALL {
                    for replacement in ReplacementKind::ALL {
                        let mix = if coherent_mix { "coherent-mix" } else { "plain" };
                        let label =
                            format!("segment/{platform}/{mix}/{placement}/{replacement}/{depth}");
                        let salt = (placement as usize * 64
                            + replacement as usize * 8
                            + depth as usize) as u64
                            + 0x5e0;
                        let trace = |salt: u64, len: usize, shares: bool| {
                            if shares {
                                coherent_trace(salt, len, SHARED_BASE)
                            } else {
                                recorded_trace(salt, len)
                            }
                        };
                        let segments: Vec<Vec<TraceOp>> =
                            (0..3).map(|s| trace(salt ^ s << 4, 250, coherent_mix)).collect();
                        let co_traces = [
                            trace(salt ^ 0x100, 200, coherent_mix),
                            trace(salt ^ 0x200, 150, false),
                        ];
                        let run = |scalar: bool| {
                            let shared = platform != "private";
                            let (mut hs, pids): (Vec<Hierarchy>, Vec<ProcessId>) = (0..3u64)
                                .map(|c| {
                                    if shared {
                                        let policy = WritePolicy::WriteBack;
                                        small_private(placement, replacement, depth, policy, c)
                                    } else {
                                        let h = small_hierarchy(placement, replacement, depth, c);
                                        (h, ProcessId::new(1))
                                    }
                                })
                                .unzip();
                            let mut llc = shared.then(|| {
                                small_shared_llc(
                                    placement,
                                    replacement,
                                    WritePolicy::WriteBack,
                                    &pids,
                                )
                            });
                            if platform == "coherent" {
                                let llc = llc.as_mut().expect("coherent platforms share an LLC");
                                llc.add_coherent_range(Addr::new(SHARED_BASE), 512);
                                for h in &mut hs {
                                    h.add_coherent_range(Addr::new(SHARED_BASE), 512);
                                }
                            }
                            let mut primary = hs.remove(0);
                            let mut co: Vec<CoRunner> = hs
                                .into_iter()
                                .zip(&pids[1..])
                                .zip(&co_traces)
                                .map(|((h, &pid), t)| CoRunner::new(h, pid, t.as_slice().into()))
                                .collect();
                            let mut scratch = EngineScratch::default();
                            let outs: Vec<InterferenceOutcome> = segments
                                .iter()
                                .map(|ops| {
                                    let mut cores =
                                        [CoreRun { hierarchy: &mut primary, pid: pids[0], ops }];
                                    let llc = llc.as_mut();
                                    if scalar {
                                        execute_scalar(&mut cores, &mut co, llc, &cfg)
                                    } else {
                                        execute(&mut cores, &mut co, llc, &cfg, None, &mut scratch)
                                    }
                                })
                                .collect();
                            (outs, primary, co, llc)
                        };
                        let (ref_outs, ref_primary, mut ref_co, ref_llc) = run(true);
                        let (outs, primary, co, llc) = run(false);
                        assert_eq!(ref_outs, outs, "{label}: engine outcomes diverge");
                        assert_hierarchies_identical(
                            &ref_primary,
                            &primary,
                            &format!("{label}/primary"),
                        );
                        for (k, ((r, t), trace)) in
                            ref_co.iter_mut().zip(&co).zip(&co_traces).enumerate()
                        {
                            let merged: u64 = ref_outs.iter().map(|o| o.cores[1 + k].ops).sum();
                            assert!(merged > 0, "{label}: co-runner {k} never ran");
                            wrapped |= merged > trace.len() as u64;
                            // The coherent-mix first co-runner flushes, so
                            // on a shared level it walks per op in both
                            // engines and must match as it stands.
                            let per_op = coherent_mix && k == 0 && platform != "private";
                            match replay_lookahead(r, t, trace, merged) {
                                Some(0) => {}
                                Some(_) if !per_op => ran_ahead = true,
                                other => panic!("{label}: co-runner {k} diverges ({other:?})"),
                            }
                        }
                        if let (Some(a), Some(b)) = (&ref_llc, &llc) {
                            assert_eq!(
                                cache_state(a.cache()),
                                cache_state(b.cache()),
                                "{label}: shared LLC diverges"
                            );
                        }
                        if platform == "coherent" && coherent_mix {
                            let invalidations: u64 = ref_outs
                                .iter()
                                .flat_map(|o| &o.cores)
                                .map(|c| c.coh_invalidations)
                                .sum();
                            assert!(invalidations > 0, "{label}: no invalidation ever landed");
                        }
                    }
                }
            }
        }
    }
    assert!(ran_ahead, "no pre-executed co-runner ever ran ahead of the merge");
    assert!(wrapped, "no co-runner ever wrapped around its trace");
}

#[test]
fn arbitration_policies_differ_and_order_sensibly() {
    // Same workload under the three policies: the contended core's
    // wait should be zero only when it never collides, and TDMA (a
    // bandwidth-partitioned bus) should generally cost the most.
    let pid = ProcessId::new(1);
    let mut waits = Vec::new();
    for arbitration in Arbitration::ALL {
        let cfg =
            SystemConfig { bus: BusConfig { arbitration, ..BusConfig::default() }, mshr: None };
        let traces: Vec<Vec<TraceOp>> =
            (0..2).map(|c| recorded_trace(0xaa ^ c as u64, 800)).collect();
        let mut hs: Vec<Hierarchy> = (0..2)
            .map(|c| {
                small_hierarchy(
                    PlacementKind::Modulo,
                    ReplacementKind::Lru,
                    HierarchyDepth::TwoLevel,
                    c as u64,
                )
            })
            .collect();
        let mut cores: Vec<CoreRun<'_>> = hs
            .iter_mut()
            .zip(&traces)
            .map(|(h, t)| CoreRun { hierarchy: h, pid, ops: t })
            .collect();
        let out = engine(false, &mut cores, None, &cfg);
        let wait: u64 = out.cores.iter().map(|c| c.bus_wait).sum();
        assert!(wait > 0, "{arbitration}: two miss-heavy cores never collided");
        waits.push((arbitration, wait));
    }
    let tdma = waits.iter().find(|(a, _)| matches!(a, Arbitration::Tdma { .. })).unwrap().1;
    let rr = waits.iter().find(|(a, _)| matches!(a, Arbitration::RoundRobin)).unwrap().1;
    assert!(tdma > rr, "TDMA should pay more queuing than round-robin (tdma {tdma}, rr {rr})");
}
