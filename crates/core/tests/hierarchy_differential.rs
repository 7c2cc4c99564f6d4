//! Differential tests pinning the hierarchy walk against an
//! independent reference: a test-local hierarchy of seed-layout
//! caches (`boxed_ref::BoxedCache`), walked op by op in the plainest
//! way. Cycles, per-level statistics and final contents must agree on
//! fetch/read/write traces under write-through (where a write behaves
//! as a read), across every placement × replacement combination, both
//! depths and the paper presets. A walk that skips a level, charges a
//! wrong latency, routes a port to the wrong L1 or seeds a level
//! differently shows up here as a cycle, counter or contents mismatch.

use tscache_core::addr::Addr;
use tscache_core::boxed_ref::BoxedCache;
use tscache_core::cache::{AccessOutcome, Cache};
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{AccessKind, Hierarchy, TraceOp, L3_HIT_CYCLES};
use tscache_core::placement::PlacementKind;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};

/// One platform shape: split L1s plus unified levels `(geometry, hit
/// cycles)`, uniform policies per side, 1-cycle L1 hits and an
/// 80-cycle memory penalty. Level RNG seeds follow the presets'
/// derivation (`rng_seed ^ 0x11` for the L1I, `^ 0x22` for the L1D,
/// `^ 0x33`, `^ 0x44` for L2, L3).
struct Spec {
    l1: CacheGeometry,
    l1_policy: (PlacementKind, ReplacementKind),
    unified: Vec<(CacheGeometry, u32)>,
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
        let mut unified = vec![(CacheGeometry::new(32, 4, 32).unwrap(), 10)];
        if depth == HierarchyDepth::ThreeLevel {
            unified.push((CacheGeometry::new(64, 4, 32).unwrap(), 30));
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
        let mut unified = vec![(CacheGeometry::paper_l2(), 10)];
        if depth == HierarchyDepth::ThreeLevel {
            unified.push((CacheGeometry::paper_l3(), L3_HIT_CYCLES));
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
            .map(|(k, &(g, hit))| {
                (Cache::new(format!("L{}", k + 2), g, up, ur, self.level_rng(k)), hit)
            })
            .collect();
        Hierarchy::from_parts(
            Cache::new("L1I", self.l1, l1p, l1r, self.rng_seed ^ 0x11),
            Cache::new("L1D", self.l1, l1p, l1r, self.rng_seed ^ 0x22),
            unified,
            1,
            80,
        )
    }

    fn build_reference(&self) -> Reference {
        let ((l1p, l1r), (up, ur)) = (self.l1_policy, self.unified_policy);
        Reference {
            l1i: BoxedCache::new(self.l1, l1p, l1r, self.rng_seed ^ 0x11),
            l1d: BoxedCache::new(self.l1, l1p, l1r, self.rng_seed ^ 0x22),
            unified: self
                .unified
                .iter()
                .enumerate()
                .map(|(k, &(g, hit))| (BoxedCache::new(g, up, ur, self.level_rng(k)), hit))
                .collect(),
            offset_bits: self.l1.offset_bits(),
            redirects: 0,
        }
    }
}

/// The reference hierarchy: an op goes to its L1 (fetches to the L1I,
/// reads and writes to the L1D), then down the unified levels until
/// one hits, each consulted level filling on its miss; the cost is the
/// L1 hit plus every consulted unified level's hit cycles, plus memory
/// when all miss.
struct Reference {
    l1i: BoxedCache,
    l1d: BoxedCache,
    unified: Vec<(BoxedCache, u32)>,
    offset_bits: u32,
    /// Fills RPCache redirected, summed over every level.
    redirects: u64,
}

impl Reference {
    fn access(&mut self, pid: ProcessId, kind: AccessKind, addr: Addr) -> u32 {
        let line = addr.line(self.offset_bits);
        let l1 = if kind == AccessKind::Fetch { &mut self.l1i } else { &mut self.l1d };
        let levels = std::iter::once((l1, 1)).chain(self.unified.iter_mut().map(|(c, h)| (c, *h)));
        let mut cycles = 0;
        for (cache, hit_cycles) in levels {
            cycles += hit_cycles;
            match cache.access(pid, line) {
                AccessOutcome::Hit => return cycles,
                AccessOutcome::Miss { redirected, .. } => self.redirects += redirected as u64,
            }
        }
        cycles + 80
    }

    /// `Hierarchy::set_process_seed`'s per-level derivation.
    fn set_process_seed(&mut self, pid: ProcessId, seed: Seed) {
        self.l1i.set_seed(pid, seed.derive(1));
        self.l1d.set_seed(pid, seed.derive(2));
        for (k, (cache, _)) in self.unified.iter_mut().enumerate() {
            cache.set_seed(pid, seed.derive(3 + k as u64));
        }
    }

    /// `Hierarchy::add_protected_range`: the data side of every level.
    fn add_protected_range(&mut self, start: Addr, size: u64) {
        let first = start.line(self.offset_bits);
        let last = start.offset(size - 1).line(self.offset_bits).offset(1);
        self.l1d.add_protected_range(first, last);
        for (cache, _) in &mut self.unified {
            cache.add_protected_range(first, last);
        }
    }

    fn set_l1_way_partition(&mut self, pid: ProcessId, lo: u32, hi: u32) {
        self.l1i.set_way_partition(pid, lo, hi);
        self.l1d.set_way_partition(pid, lo, hi);
    }

    fn levels(&self) -> impl Iterator<Item = &BoxedCache> {
        [&self.l1i, &self.l1d].into_iter().chain(self.unified.iter().map(|(c, _)| c))
    }
}

/// Builds the hierarchy and its reference, both with two seeded
/// processes, a protected data range and an L1 way partition for
/// pid 2.
fn pair(spec: &Spec) -> (Hierarchy, Reference) {
    let mut h = spec.build();
    let mut r = spec.build_reference();
    for (pid, seed) in [(1u16, 0xaaaa), (2, 0xbbbb)] {
        h.set_process_seed(ProcessId::new(pid), Seed::new(seed));
        r.set_process_seed(ProcessId::new(pid), Seed::new(seed));
    }
    h.add_protected_range(Addr::new(0x200), 256);
    r.add_protected_range(Addr::new(0x200), 256);
    h.set_l1_way_partition(ProcessId::new(2), 0, 1);
    r.set_l1_way_partition(ProcessId::new(2), 0, 1);
    (h, r)
}

/// Replays `trace` through `access_batch_cycles` in 97-op chunks, the
/// chunks alternating between pids 1 and 2, and through the reference
/// op by op; then compares cycles, every level's statistics and every
/// level's contents.
fn assert_matches_reference(spec: &Spec, trace: &[TraceOp], label: &str) -> Reference {
    let (mut h, mut r) = pair(spec);
    let pid_of = |chunk: usize| ProcessId::new(1 + (chunk % 2) as u16);
    let mut cycles = 0u64;
    let mut ref_cycles = 0u64;
    for (k, chunk) in trace.chunks(97).enumerate() {
        cycles += h.access_batch_cycles(pid_of(k), chunk);
        for op in chunk {
            ref_cycles += r.access(pid_of(k), op.kind, op.addr) as u64;
        }
    }
    assert_eq!(cycles, ref_cycles, "{label}: cycle totals diverge");
    let levels: Vec<&Cache> = [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels()).collect();
    assert_eq!(levels.len(), r.levels().count(), "{label}: depth");
    for (a, b) in levels.into_iter().zip(r.levels()) {
        assert_eq!(a.stats(), b.stats(), "{label}: {} stats diverge", a.label());
        let (ca, cb): (Vec<_>, Vec<_>) = (a.contents().collect(), b.contents().collect());
        assert_eq!(ca, cb, "{label}: {} contents diverge", a.label());
    }
    r
}

#[test]
fn walk_matches_reference_across_all_policy_combinations() {
    for depth in HierarchyDepth::ALL {
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                let label = format!("{placement}/{replacement}/{depth}");
                let salt = (placement as usize * 16 + replacement as usize) as u64 + 1;
                let trace = TraceOp::mixed_trace(salt, 700, 1 << 14);
                let r = assert_matches_reference(
                    &Spec::small(placement, replacement, depth),
                    &trace,
                    &label,
                );
                let last = r.levels().last().unwrap().stats();
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
            assert_matches_reference(
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
    // draws, alias invalidation); the reference counts its redirects.
    let spec =
        Spec::small(PlacementKind::RpCache, ReplacementKind::Lru, HierarchyDepth::ThreeLevel);
    let r = assert_matches_reference(&spec, &TraceOp::mixed_trace(99, 900, 1 << 14), "rpcache");
    assert!(r.redirects > 0, "contention-heavy RPCache trace never redirected");
}

#[test]
fn access_kinds_route_to_expected_l1() {
    let spec = Spec::small(PlacementKind::Modulo, ReplacementKind::Lru, HierarchyDepth::TwoLevel);
    let (mut h, _) = pair(&spec);
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
