//! Differential tests pinning the hierarchy walk against the reference
//! model (`model::ModelHierarchy`), walked op by op in the plainest way.
//! Cycles, per-level statistics, contents and dirty counts must agree
//! on fetch/read/write/flush traces under both write policies, with
//! the TTL and normalization defenses armed or not, across every
//! placement × replacement combination, both depths and the paper
//! presets. A walk that skips a level, charges a wrong latency, routes
//! a port to the wrong L1, seeds a level differently or loses a
//! writeback shows up here as a cycle, counter or contents mismatch.

mod model;

use model::{ModelCache, ModelHierarchy};
use tscache_core::addr::Addr;
use tscache_core::cache::{Cache, WritePolicy};
use tscache_core::defense::DefenseKind;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{AccessKind, Hierarchy, TraceOp};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};

/// One platform shape: split L1s plus the unified levels' geometries,
/// uniform policies per side. Level RNG seeds follow the presets'
/// derivation (`rng_seed ^ 0x11` for the L1I, `^ 0x22` for the L1D,
/// `^ 0x33`, `^ 0x44` for L2, L3). Latencies are no part of a shape:
/// the model writes the paper's ladder out itself.
struct Spec {
    l1: CacheGeometry,
    l1_policy: (PlacementKind, ReplacementKind),
    unified: Vec<CacheGeometry>,
    unified_policy: (PlacementKind, ReplacementKind),
    rng_seed: u64,
}

impl Spec {
    /// A small shape (8×2 L1s, 32×4 L2, optional 64×4 L3) whose traces
    /// overflow every level.
    fn small(
        placement: PlacementKind,
        replacement: ReplacementKind,
        depth: HierarchyDepth,
    ) -> Self {
        let mut unified = vec![CacheGeometry::new(32, 4, 32).unwrap()];
        if depth == HierarchyDepth::ThreeLevel {
            unified.push(CacheGeometry::new(64, 4, 32).unwrap());
        }
        Spec {
            l1: CacheGeometry::new(8, 2, 32).unwrap(),
            l1_policy: (placement, replacement),
            unified,
            unified_policy: (placement, replacement),
            rng_seed: 0,
        }
    }

    /// The shape `SetupKind::build_depth(depth, rng_seed)` documents.
    fn preset(setup: SetupKind, depth: HierarchyDepth, rng_seed: u64) -> Self {
        let mut unified = vec![CacheGeometry::paper_l2()];
        if depth == HierarchyDepth::ThreeLevel {
            unified.push(CacheGeometry::paper_l3());
        }
        Spec {
            l1: CacheGeometry::paper_l1(),
            l1_policy: setup.l1_policy(),
            unified,
            unified_policy: setup.unified_policy(),
            rng_seed,
        }
    }

    fn level_rng(&self, k: usize) -> u64 {
        self.rng_seed ^ (0x33 + 0x11 * k as u64)
    }

    fn build(&self) -> Hierarchy {
        let ((l1p, l1r), (up, ur)) = (self.l1_policy, self.unified_policy);
        let unified = self
            .unified
            .iter()
            .enumerate()
            .map(|(k, &g)| Cache::new(format!("L{}", k + 2), g, up, ur, self.level_rng(k)))
            .collect();
        Hierarchy::from_parts(
            Cache::new("L1I", self.l1, l1p, l1r, self.rng_seed ^ 0x11),
            Cache::new("L1D", self.l1, l1p, l1r, self.rng_seed ^ 0x22),
            unified,
        )
    }

    fn build_model(&self) -> ModelHierarchy {
        let ((l1p, l1r), (up, ur)) = (self.l1_policy, self.unified_policy);
        ModelHierarchy {
            l1i: ModelCache::new(self.l1, l1p, l1r, self.rng_seed ^ 0x11),
            l1d: ModelCache::new(self.l1, l1p, l1r, self.rng_seed ^ 0x22),
            unified: self
                .unified
                .iter()
                .enumerate()
                .map(|(k, &g)| ModelCache::new(g, up, ur, self.level_rng(k)))
                .collect(),
            redirects: 0,
        }
    }
}

/// Every way a level can be armed: both write policies, each with no
/// defense, TTL and normalization.
fn armings() -> impl Iterator<Item = (WritePolicy, DefenseKind)> {
    [WritePolicy::WriteThrough, WritePolicy::WriteBack]
        .into_iter()
        .flat_map(|w| [DefenseKind::Off, DefenseKind::Ttl, DefenseKind::Normalize].map(|d| (w, d)))
}

/// Builds the hierarchy and the model, both armed with `write_policy`
/// and `defense` at every level, with two seeded processes, a protected
/// data range and an L1 way partition for pid 2.
fn pair(
    spec: &Spec,
    write_policy: WritePolicy,
    defense: DefenseKind,
) -> (Hierarchy, ModelHierarchy) {
    let mut h = spec.build();
    let mut m = spec.build_model();
    h.set_write_policy(write_policy);
    h.apply_defense(defense);
    for cache in m.levels() {
        cache.set_write_policy(write_policy);
        cache.apply_defense(defense);
    }
    for (pid, seed) in [(1u16, 0xaaaa), (2, 0xbbbb)] {
        h.set_process_seed(ProcessId::new(pid), Seed::new(seed));
        m.set_process_seed(ProcessId::new(pid), Seed::new(seed));
    }
    h.add_protected_range(Addr::new(0x200), 256);
    m.add_protected_range(Addr::new(0x200), 256);
    h.set_l1_way_partition(ProcessId::new(2), 0, 1);
    m.l1i.set_way_partition(ProcessId::new(2), 0, 1);
    m.l1d.set_way_partition(ProcessId::new(2), 0, 1);
    (h, m)
}

/// Replays `trace`, every 37th op turned into a flush, through
/// `access_batch_cycles` in 97-op chunks alternating between pids 1
/// and 2, and through the model op by op, flushing the chunk's pid
/// from both after every 13th chunk. Compares each chunk's cycles,
/// then every level's statistics, contents and dirty lines, and checks
/// that lines expired exactly when TTL was armed.
fn assert_matches_model(spec: &Spec, trace: &[TraceOp], label: &str) -> ModelHierarchy {
    let trace: Vec<TraceOp> = trace
        .iter()
        .enumerate()
        .map(|(i, op)| if i % 37 == 36 { TraceOp::flush(op.addr) } else { *op })
        .collect();
    let mut last = None;
    for (write_policy, defense) in armings() {
        let label = format!("{label}/{write_policy:?}/{defense}");
        let (mut h, mut m) = pair(spec, write_policy, defense);
        for (k, chunk) in trace.chunks(97).enumerate() {
            let pid = ProcessId::new(1 + (k % 2) as u16);
            let cycles = h.access_batch_cycles(pid, chunk);
            let model_cycles: u64 =
                chunk.iter().map(|op| m.walk(pid, op.kind, op.addr) as u64).sum();
            assert_eq!(cycles, model_cycles, "{label}: chunk {k} cycles diverge");
            if k % 13 == 12 {
                h.flush_process(pid);
                for cache in m.levels() {
                    cache.flush_process(pid);
                }
            }
        }
        let levels: Vec<&Cache> =
            [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels()).collect();
        assert_eq!(levels.len(), m.levels().count(), "{label}: depth");
        for (a, b) in levels.iter().zip(m.levels()) {
            assert_eq!(a.stats(), b.stats(), "{label}: {} stats diverge", a.label());
            let contents: Vec<_> = a.contents().collect();
            assert_eq!(contents, b.contents(), "{label}: {} contents diverge", a.label());
            assert_eq!(a.dirty_lines(), b.dirty_lines(), "{label}: {} dirty lines", a.label());
        }
        let expiries: u64 = levels.iter().map(|c| c.stats().ttl_expiries()).sum();
        assert_eq!(expiries > 0, defense == DefenseKind::Ttl, "{label}: {expiries} TTL expiries");
        last = Some(m);
    }
    last.unwrap()
}

#[test]
fn walk_matches_reference_across_all_policy_combinations() {
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                let label = format!("{placement}/{replacement}/{depth}");
                let salt = (placement as usize * 16 + replacement as usize) as u64 + 1;
                let trace = TraceOp::mixed_trace(salt, 700, 1 << 14);
                let mut m = assert_matches_model(
                    &Spec::small(placement, replacement, depth),
                    &trace,
                    &label,
                );
                let last = m.levels().last().unwrap().stats();
                assert!(last.evictions() > 0, "{label}: the trace never evicted at the last level");
            }
        }
    }
}

#[test]
fn walk_matches_reference_on_paper_presets() {
    for depth in HierarchyDepth::ALL {
        for setup in SetupKind::ALL {
            let trace = TraceOp::mixed_trace(0x5e7 ^ setup as u64, 2500, 1 << 16);
            assert_matches_model(
                &Spec::preset(setup, depth, 42),
                &trace,
                &format!("{setup}/{depth}"),
            );
        }
    }
}

#[test]
fn rpcache_redirects_match_reference() {
    // RPCache's contention remap is the trickiest fill path (extra RNG
    // draws, alias invalidation); the model counts its redirects.
    let spec =
        Spec::small(PlacementKind::RpCache, ReplacementKind::Lru, HierarchyDepth::ThreeLevel);
    let m = assert_matches_model(&spec, &TraceOp::mixed_trace(99, 900, 1 << 14), "rpcache");
    assert!(m.redirects > 0, "contention-heavy RPCache trace never redirected");
}

#[test]
fn access_kinds_route_to_expected_l1() {
    let spec = Spec::small(PlacementKind::Modulo, ReplacementKind::Lru, HierarchyDepth::TwoLevel);
    let (mut h, _) = pair(&spec, WritePolicy::WriteThrough, DefenseKind::Off);
    let pid = ProcessId::new(1);
    h.access_batch_cycles(
        pid,
        &[
            TraceOp::fetch(Addr::new(0)),
            TraceOp::read(Addr::new(0x40)),
            TraceOp::write(Addr::new(0x80)),
        ],
    );
    assert_eq!(h.l1i().stats().accesses(), 1);
    assert_eq!(h.l1d().stats().accesses(), 2);
    assert_eq!(h.access(pid, AccessKind::Read, Addr::new(0x40)), 1);
}
