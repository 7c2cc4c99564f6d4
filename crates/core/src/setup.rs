//! The four processor setups evaluated in the paper (§6.1.2) and their
//! seed-management policies.

use crate::cache::Cache;
use crate::geometry::CacheGeometry;
use crate::hierarchy::{Hierarchy, SharedLlc};
use crate::placement::PlacementKind;
use crate::replacement::ReplacementKind;
use core::fmt;

/// How many cache levels a built hierarchy has. The paper's platform
/// is two-level; the three-level variant adds the 1 MiB L3 that the
/// multi-level randomized-cache literature (ClepsydraCache and
/// friends) evaluates, reusing each setup's unified-level policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HierarchyDepth {
    /// Split L1 + unified L2 (the DAC'18 platform).
    #[default]
    TwoLevel,
    /// Split L1 + unified L2 + unified L3.
    ThreeLevel,
}

impl HierarchyDepth {
    /// Both depths, shallow first.
    pub const ALL: [HierarchyDepth; 2] = [HierarchyDepth::TwoLevel, HierarchyDepth::ThreeLevel];

    /// Number of cache levels (split L1 counted once).
    pub fn levels(self) -> usize {
        match self {
            HierarchyDepth::TwoLevel => 2,
            HierarchyDepth::ThreeLevel => 3,
        }
    }

    /// Short label used in figures and bench names.
    pub fn label(self) -> &'static str {
        match self {
            HierarchyDepth::TwoLevel => "l2",
            HierarchyDepth::ThreeLevel => "l3",
        }
    }
}

impl fmt::Display for HierarchyDepth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How placement seeds are assigned to processes, the knob that
/// separates MBPTACache from TSCache (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedSharing {
    /// Placement ignores seeds (deterministic caches).
    Irrelevant,
    /// Every process uses the same seed — permitted by plain MBPTA seed
    /// management and exactly what lets a contention attacker mirror
    /// the victim's layout (§4).
    Shared,
    /// Every process gets an independent random seed (TSCache §5;
    /// RPCache's per-process permutations behave likewise).
    PerProcess,
}

impl fmt::Display for SeedSharing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SeedSharing::Irrelevant => "irrelevant",
            SeedSharing::Shared => "shared",
            SeedSharing::PerProcess => "per-process",
        };
        f.write_str(s)
    }
}

/// One of the paper's four evaluated cache configurations.
///
/// | Setup | L1 policy | L2 policy | Seeds |
/// |---|---|---|---|
/// | `Deterministic` | modulo + LRU | modulo + LRU | — |
/// | `RpCache` | RPCache + LRU | modulo + LRU | per-process permutations |
/// | `Mbpta` | Random Modulo + random | HashRP + random | shared |
/// | `TsCache` | Random Modulo + random | HashRP + random | per-process |
/// | `RandomSafe` | HashRP + random | HashRP + random | per-process |
///
/// MBPTACache and TSCache are the *same hardware*; only the OS seed
/// policy differs — the paper's central observation. `RandomSafe` is
/// the defense zoo's Random-and-Safe composite (randomized placement
/// paired with safe random replacement at *every* level, per-process
/// seeds throughout).
///
/// # Examples
///
/// ```
/// use tscache_core::setup::{SeedSharing, SetupKind};
///
/// assert_eq!(SetupKind::Mbpta.seed_sharing(), SeedSharing::Shared);
/// assert_eq!(SetupKind::TsCache.seed_sharing(), SeedSharing::PerProcess);
/// let h = SetupKind::TsCache.build(42);
/// assert_eq!(h.l1d().placement_name(), "random-modulo");
/// assert_eq!(h.l2().placement_name(), "hash-rp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetupKind {
    /// Baseline vulnerable processor with time-deterministic caches.
    Deterministic,
    /// Secure processor implementing the RPCache.
    RpCache,
    /// MBPTA-compliant random cache with shared seeds.
    Mbpta,
    /// The paper's proposal: MBPTA hardware + per-process seeds.
    TsCache,
    /// Random-and-Safe composite (defense zoo): parametric randomized
    /// placement with safe random replacement at every level and
    /// per-process seeds.
    RandomSafe,
}

impl SetupKind {
    /// All setups: the paper's four in presentation order, then the
    /// defense zoo's Random-and-Safe composite.
    pub const ALL: [SetupKind; 5] = [
        SetupKind::Deterministic,
        SetupKind::RpCache,
        SetupKind::Mbpta,
        SetupKind::TsCache,
        SetupKind::RandomSafe,
    ];

    /// Builds the paper's two-level hierarchy for this setup.
    pub fn build(self, rng_seed: u64) -> Hierarchy {
        self.build_depth(HierarchyDepth::TwoLevel, rng_seed)
    }

    /// The `(placement, replacement)` policy pair of this setup's L1s.
    pub fn l1_policy(self) -> (PlacementKind, ReplacementKind) {
        match self {
            SetupKind::Deterministic => (PlacementKind::Modulo, ReplacementKind::Lru),
            SetupKind::RpCache => (PlacementKind::RpCache, ReplacementKind::Lru),
            SetupKind::Mbpta | SetupKind::TsCache => {
                (PlacementKind::RandomModulo, ReplacementKind::Random)
            }
            SetupKind::RandomSafe => (PlacementKind::HashRp, ReplacementKind::Random),
        }
    }

    /// The `(placement, replacement)` policy pair of this setup's
    /// unified levels (L2, and L3 when built three-level).
    pub fn unified_policy(self) -> (PlacementKind, ReplacementKind) {
        match self {
            SetupKind::Deterministic | SetupKind::RpCache => {
                (PlacementKind::Modulo, ReplacementKind::Lru)
            }
            SetupKind::Mbpta | SetupKind::TsCache | SetupKind::RandomSafe => {
                (PlacementKind::HashRp, ReplacementKind::Random)
            }
        }
    }

    /// Builds the hierarchy for this setup at the requested depth.
    ///
    /// Both depths share L1/L2 geometry, policies and RNG streams, so
    /// a three-level build is the two-level platform with an L3
    /// appended — upper-level behaviour is unchanged.
    pub fn build_depth(self, depth: HierarchyDepth, rng_seed: u64) -> Hierarchy {
        let (l1p, l1r) = self.l1_policy();
        let (lup, lur) = self.unified_policy();
        let l1 = CacheGeometry::paper_l1();
        let mut unified =
            vec![Cache::new("L2", CacheGeometry::paper_l2(), lup, lur, rng_seed ^ 0x33)];
        if depth == HierarchyDepth::ThreeLevel {
            unified.push(Cache::new("L3", CacheGeometry::paper_l3(), lup, lur, rng_seed ^ 0x44));
        }
        Hierarchy::from_parts(
            Cache::new("L1I", l1, l1p, l1r, rng_seed ^ 0x11),
            Cache::new("L1D", l1, l1p, l1r, rng_seed ^ 0x22),
            unified,
        )
    }

    /// Builds the *private* per-core portion of a shared-LLC platform
    /// at `depth`: [`build_depth`](Self::build_depth) minus its last
    /// unified level (which lives in the platform-wide [`SharedLlc`]
    /// from [`build_shared_llc`](Self::build_shared_llc)). A two-level
    /// platform keeps only the split L1s per core; a three-level one
    /// keeps L1s + a private L2.
    ///
    /// Upper-level geometry, policies and RNG streams match the
    /// private-hierarchy build exactly, so per-core behaviour above
    /// the shared level is unchanged.
    pub fn build_private(self, depth: HierarchyDepth, rng_seed: u64) -> Hierarchy {
        let (l1p, l1r) = self.l1_policy();
        let (lup, lur) = self.unified_policy();
        let l1 = CacheGeometry::paper_l1();
        let mut unified = Vec::new();
        if depth == HierarchyDepth::ThreeLevel {
            unified.push(Cache::new("L2", CacheGeometry::paper_l2(), lup, lur, rng_seed ^ 0x33));
        }
        Hierarchy::from_private_parts(
            Cache::new("L1I", l1, l1p, l1r, rng_seed ^ 0x11),
            Cache::new("L1D", l1, l1p, l1r, rng_seed ^ 0x22),
            unified,
        )
    }

    /// Builds the shared last-level cache of a shared-LLC platform at
    /// `depth`, reusing the setup's unified policy: the paper L2
    /// geometry when the platform is two-level, the 1 MiB L3 preset
    /// when three-level. It sits just below the private levels of
    /// [`build_private`](Self::build_private), so the latency ladder
    /// charges it as an L2 (10 cycles) or an L3 (30 cycles). Per-core
    /// way partitions go on via [`SharedLlc::set_way_partition`].
    pub fn build_shared_llc(self, depth: HierarchyDepth, rng_seed: u64) -> SharedLlc {
        let (lup, lur) = self.unified_policy();
        let (label, geometry) = match depth {
            HierarchyDepth::TwoLevel => ("SL2", CacheGeometry::paper_l2()),
            HierarchyDepth::ThreeLevel => ("SL3", CacheGeometry::paper_l3()),
        };
        SharedLlc::new(Cache::new(label, geometry, lup, lur, rng_seed ^ 0x55))
    }

    /// The seed-management policy of this setup.
    pub fn seed_sharing(self) -> SeedSharing {
        match self {
            SetupKind::Deterministic => SeedSharing::Irrelevant,
            SetupKind::RpCache => SeedSharing::PerProcess,
            SetupKind::Mbpta => SeedSharing::Shared,
            SetupKind::TsCache => SeedSharing::PerProcess,
            SetupKind::RandomSafe => SeedSharing::PerProcess,
        }
    }

    /// Short label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            SetupKind::Deterministic => "deterministic",
            SetupKind::RpCache => "rpcache",
            SetupKind::Mbpta => "mbptacache",
            SetupKind::TsCache => "tscache",
            SetupKind::RandomSafe => "random-safe",
        }
    }
}

impl fmt::Display for SetupKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{ProcessId, Seed};

    #[test]
    fn setups_build_expected_policies() {
        let det = SetupKind::Deterministic.build(1);
        assert_eq!(det.l1d().placement_name(), "modulo");
        let rp = SetupKind::RpCache.build(1);
        assert_eq!(rp.l1d().placement_name(), "rpcache");
        assert_eq!(rp.l2().placement_name(), "modulo");
        let mb = SetupKind::Mbpta.build(1);
        assert_eq!(mb.l1d().placement_name(), "random-modulo");
        assert_eq!(mb.l1d().replacement_name(), "random");
        assert_eq!(mb.l2().placement_name(), "hash-rp");
        let rs = SetupKind::RandomSafe.build(1);
        assert_eq!(rs.l1d().placement_name(), "hash-rp");
        assert_eq!(rs.l1d().replacement_name(), "random");
        assert_eq!(rs.l2().placement_name(), "hash-rp");
        assert_eq!(SetupKind::RandomSafe.seed_sharing(), SeedSharing::PerProcess);
    }

    #[test]
    fn mbpta_and_tscache_share_hardware() {
        let a = SetupKind::Mbpta.build(1);
        let b = SetupKind::TsCache.build(1);
        assert_eq!(a.l1d().placement_name(), b.l1d().placement_name());
        assert_eq!(a.l2().placement_name(), b.l2().placement_name());
        assert_ne!(SetupKind::Mbpta.seed_sharing(), SetupKind::TsCache.seed_sharing());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SetupKind::Mbpta.to_string(), "mbptacache");
        assert_eq!(SetupKind::RandomSafe.to_string(), "random-safe");
        assert_eq!(SetupKind::ALL.len(), 5);
        assert_eq!(HierarchyDepth::TwoLevel.to_string(), "l2");
        assert_eq!(HierarchyDepth::ThreeLevel.to_string(), "l3");
        assert_eq!(HierarchyDepth::ThreeLevel.levels(), 3);
    }

    #[test]
    fn three_level_presets_append_an_l3() {
        for kind in SetupKind::ALL {
            let two = kind.build_depth(HierarchyDepth::TwoLevel, 7);
            let three = kind.build_depth(HierarchyDepth::ThreeLevel, 7);
            assert_eq!(two.depth(), 2);
            assert_eq!(three.depth(), 3);
            assert!(two.l3().is_none());
            let l3 = three.l3().expect("L3 present");
            // The L3 reuses the setup's unified policy.
            assert_eq!(l3.placement_name(), three.l2().placement_name(), "{kind}");
            assert_eq!(l3.geometry().size_bytes(), 1024 * 1024);
        }
    }

    #[test]
    fn shared_platform_splits_the_last_level_off() {
        for kind in SetupKind::ALL {
            // Two-level: L1-only cores + a shared L2-geometry LLC.
            let private = kind.build_private(HierarchyDepth::TwoLevel, 7);
            assert_eq!(private.depth(), 1, "{kind}");
            let llc = kind.build_shared_llc(HierarchyDepth::TwoLevel, 7);
            assert_eq!(llc.cache().geometry().size_bytes(), 256 * 1024, "{kind}");
            assert_eq!(
                llc.cache().placement_name(),
                kind.build(7).l2().placement_name(),
                "{kind}: shared L2 must reuse the unified policy"
            );
            // Three-level: L1+L2 cores + a shared L3-geometry LLC.
            let private = kind.build_private(HierarchyDepth::ThreeLevel, 7);
            assert_eq!(private.depth(), 2, "{kind}");
            assert_eq!(private.l2().geometry().size_bytes(), 256 * 1024, "{kind}");
            let llc = kind.build_shared_llc(HierarchyDepth::ThreeLevel, 7);
            assert_eq!(llc.cache().geometry().size_bytes(), 1024 * 1024, "{kind}");
        }
    }

    #[test]
    fn private_build_matches_full_build_above_the_shared_level() {
        use crate::addr::Addr;
        use crate::hierarchy::AccessKind;
        // Same rng seed → the private build's L1/L2 behave exactly as
        // the full build's upper levels on a private-hit workload.
        let pid = ProcessId::new(1);
        let mut full = SetupKind::TsCache.build_depth(HierarchyDepth::ThreeLevel, 9);
        let mut private = SetupKind::TsCache.build_private(HierarchyDepth::ThreeLevel, 9);
        full.set_process_seed(pid, Seed::new(4));
        private.set_process_seed(pid, Seed::new(4));
        let mut wbs = Vec::new();
        for i in 0..3000u64 {
            let a = Addr::new((i * 2083) % (1 << 19));
            full.access(pid, AccessKind::Read, a);
            private.access_upper_detailed(pid, AccessKind::Read, a, &mut wbs);
        }
        assert_eq!(full.l1d().stats(), private.l1d().stats());
        assert_eq!(full.l2().stats(), private.l2().stats());
    }

    #[test]
    fn depths_share_upper_level_behaviour() {
        use crate::addr::Addr;
        use crate::hierarchy::AccessKind;
        // Same rng seed → identical L1/L2 outcome sequences; only the
        // L3 catch between L2 miss and memory differs in cost.
        let pid = ProcessId::new(1);
        let mut two = SetupKind::TsCache.build_depth(HierarchyDepth::TwoLevel, 9);
        let mut three = SetupKind::TsCache.build_depth(HierarchyDepth::ThreeLevel, 9);
        two.set_process_seed(pid, Seed::new(4));
        three.set_process_seed(pid, Seed::new(4));
        for i in 0..3000u64 {
            let a = Addr::new((i * 2083) % (1 << 19));
            two.access(pid, AccessKind::Read, a);
            three.access(pid, AccessKind::Read, a);
        }
        assert_eq!(two.l1d().stats(), three.l1d().stats());
        assert_eq!(two.l2().stats(), three.l2().stats());
    }
}
