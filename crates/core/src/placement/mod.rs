//! Cache placement policies.
//!
//! A placement policy decides which cache set a line address maps to.
//! The paper contrasts five hardware designs:
//!
//! | Policy | Origin | MBPTA class | SCA robust? |
//! |---|---|---|---|
//! | [`Modulo`] | conventional caches | deterministic | no |
//! | [`XorIndex`] | Aciicmez (US 8,055,848) | address-dependent (§3) | partially |
//! | [`RpCachePerm`] | RPCache, Wang & Lee ISCA'07 | address-dependent (§3) | vs. cross-process contention |
//! | [`HashRp`] | Kosmidis et al. DATE'13 | full randomness (`mbpta-p2`) | with per-process seeds (§5) |
//! | [`RandomModulo`] | Hernandez et al. DAC'16 | partial APOP-fixed (`mbpta-p3`) | with per-process seeds (§5) |
//!
//! [`IdealRandom`] is an idealized uniform hash used as a gold standard
//! in property tests.
//!
//! Each policy's `place` is a deterministic function of
//! `(line address, seed)`. [`PlacementEngine::new`] is the one way to
//! build a policy and the engine the one way to call it; the declared
//! MBPTA class of each design is one table,
//! [`PlacementKind::mbpta_class`]. Stateful behaviour (RPCache's
//! dynamic remapping on cross-process contention) is exposed through
//! [`PlacementEngine::remap_on_contention`].

mod benes;
mod hash_rp;
mod ideal;
mod modulo;
mod random_modulo;
mod rpcache;
mod xor_index;

pub use benes::PermutationNetwork;
pub use hash_rp::HashRp;
pub use ideal::IdealRandom;
pub use modulo::Modulo;
pub use random_modulo::RandomModulo;
pub use rpcache::RpCachePerm;
pub use xor_index::XorIndex;

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::prng::SplitMix64;
use crate::seed::Seed;
use core::fmt;

/// MBPTA-compliance class of a placement policy, as analysed in the
/// paper's §2–§4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MbptaClass {
    /// Timing is a deterministic function of addresses (plain modulo);
    /// not analysable with MBPTA across integrations.
    Deterministic,
    /// Randomized, but conflicts remain a function of the actual
    /// addresses (XOR-index, RPCache): breaks `mbpta-p1`/`p2`.
    AddressDependent,
    /// Full randomness (`mbpta-p2`): pairwise conflicts are random and
    /// independent across seeds (HashRP).
    FullRandom,
    /// Partial APOP-fixed randomness (`mbpta-p3`): random across pages,
    /// conflict-free within a page (Random Modulo).
    PartialApop,
}

impl MbptaClass {
    /// Whether this class satisfies the MBPTA requirements (`mbpta-p1`
    /// via `p2` or `p3`).
    pub fn is_mbpta_compliant(self) -> bool {
        matches!(self, MbptaClass::FullRandom | MbptaClass::PartialApop)
    }
}

impl fmt::Display for MbptaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MbptaClass::Deterministic => "deterministic",
            MbptaClass::AddressDependent => "address-dependent randomization",
            MbptaClass::FullRandom => "full randomness (mbpta-p2)",
            MbptaClass::PartialApop => "partial APOP-fixed randomness (mbpta-p3)",
        };
        f.write_str(s)
    }
}

/// The placement engine: the policies in an enum, so
/// [`place`](PlacementEngine::place) compiles to a direct match over
/// inlinable policy bodies.
///
/// Set selection runs on every cache access — hundreds of times per
/// simulated AES encryption and millions of times per attack campaign.
/// [`new`](PlacementEngine::new) is the only way to build a policy,
/// and the engine the only way to call one.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::{PlacementEngine, PlacementKind};
/// use tscache_core::seed::Seed;
///
/// let geom = CacheGeometry::paper_l1();
/// let mut p = PlacementEngine::new(PlacementKind::RandomModulo, &geom);
/// let set = p.place(LineAddr::new(0x1234), Seed::new(99));
/// assert!(set < geom.sets());
/// ```
#[derive(Debug)]
pub enum PlacementEngine {
    /// Conventional modulo indexing.
    Modulo(Modulo),
    /// Aciicmez XOR-index.
    XorIndex(XorIndex),
    /// RPCache per-process permutations.
    RpCache(RpCachePerm),
    /// HashRP parametric hashing.
    HashRp(HashRp),
    /// Random Modulo (seed XOR + Benes permutation).
    RandomModulo(RandomModulo),
    /// Idealized uniform hash.
    IdealRandom(IdealRandom),
}

impl PlacementEngine {
    /// Builds the engine for `kind` and `geom`.
    pub fn new(kind: PlacementKind, geom: &CacheGeometry) -> Self {
        match kind {
            PlacementKind::Modulo => PlacementEngine::Modulo(Modulo::new(geom)),
            PlacementKind::XorIndex => PlacementEngine::XorIndex(XorIndex::new(geom)),
            PlacementKind::RpCache => PlacementEngine::RpCache(RpCachePerm::new(geom)),
            PlacementKind::HashRp => PlacementEngine::HashRp(HashRp::new(geom)),
            PlacementKind::RandomModulo => PlacementEngine::RandomModulo(RandomModulo::new(geom)),
            PlacementKind::IdealRandom => PlacementEngine::IdealRandom(IdealRandom::new(geom)),
        }
    }

    /// The kind this engine was built from.
    pub fn kind(&self) -> PlacementKind {
        match self {
            PlacementEngine::Modulo(_) => PlacementKind::Modulo,
            PlacementEngine::XorIndex(_) => PlacementKind::XorIndex,
            PlacementEngine::RpCache(_) => PlacementKind::RpCache,
            PlacementEngine::HashRp(_) => PlacementKind::HashRp,
            PlacementEngine::RandomModulo(_) => PlacementKind::RandomModulo,
            PlacementEngine::IdealRandom(_) => PlacementKind::IdealRandom,
        }
    }

    /// Maps a line address under `seed` to a set index in
    /// `0..geom.sets()`. Takes `&mut self` because RPCache builds its
    /// per-seed tables lazily.
    #[inline]
    pub fn place(&mut self, line: LineAddr, seed: Seed) -> u32 {
        match self {
            PlacementEngine::Modulo(p) => p.place(line, seed),
            PlacementEngine::XorIndex(p) => p.place(line, seed),
            PlacementEngine::RpCache(p) => p.place(line, seed),
            PlacementEngine::HashRp(p) => p.place(line, seed),
            PlacementEngine::RandomModulo(p) => p.place(line, seed),
            PlacementEngine::IdealRandom(p) => p.place(line, seed),
        }
    }

    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Whether the policy randomizes cross-process interference
    /// (RPCache's security mechanism, §3).
    #[inline]
    pub fn randomizes_interference(&self) -> bool {
        matches!(self, PlacementEngine::RpCache(_))
    }

    /// Whether `place` is a pure function of `(line, seed)` whose
    /// evaluation is expensive enough that the cache hot path should
    /// memoize it (the multi-stage network/Feistel hashes). RPCache is
    /// excluded because contention remaps mutate its mapping;
    /// modulo, XOR-index and IdealRandom are excluded because their
    /// placement is already cheaper than a memo probe.
    #[inline]
    pub fn memoizable(&self) -> bool {
        matches!(self, PlacementEngine::RandomModulo(_) | PlacementEngine::HashRp(_))
    }

    /// Reacts to a cross-process contention event on `line` (the
    /// incoming line whose fill would evict another process's data).
    /// RPCache redirects the fill to a random set and returns it (see
    /// [`RpCachePerm::remap_on_contention`]); every other policy
    /// returns `None`.
    #[inline]
    pub fn remap_on_contention(
        &mut self,
        line: LineAddr,
        seed: Seed,
        rng: &mut SplitMix64,
    ) -> Option<u32> {
        match self {
            PlacementEngine::RpCache(p) => Some(p.remap_on_contention(line, seed, rng)),
            _ => None,
        }
    }
}

/// Configuration enum naming each placement policy, used to build
/// caches from a declarative description; [`PlacementEngine::new`]
/// builds the policy itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// Conventional modulo indexing.
    Modulo,
    /// Aciicmez XOR of index bits with a seed-derived constant.
    XorIndex,
    /// RPCache per-process permutation tables with randomized
    /// cross-process interference.
    RpCache,
    /// Hash-based parametric random placement (rotate + XOR folding).
    HashRp,
    /// Random Modulo: seed XOR + Benes-style permutation driven by the
    /// tag bits.
    RandomModulo,
    /// Idealized uniform random hash (test gold standard).
    IdealRandom,
}

impl PlacementKind {
    /// Short policy name for reports (also the `Display` form).
    pub const fn label(self) -> &'static str {
        match self {
            PlacementKind::Modulo => "modulo",
            PlacementKind::XorIndex => "xor-index",
            PlacementKind::RpCache => "rpcache",
            PlacementKind::HashRp => "hash-rp",
            PlacementKind::RandomModulo => "random-modulo",
            PlacementKind::IdealRandom => "ideal-random",
        }
    }

    /// The policy's declared MBPTA-compliance class (paper §2–§4);
    /// [`properties`](crate::properties) measures it empirically.
    pub const fn mbpta_class(self) -> MbptaClass {
        match self {
            PlacementKind::Modulo => MbptaClass::Deterministic,
            PlacementKind::XorIndex | PlacementKind::RpCache => MbptaClass::AddressDependent,
            PlacementKind::HashRp | PlacementKind::IdealRandom => MbptaClass::FullRandom,
            PlacementKind::RandomModulo => MbptaClass::PartialApop,
        }
    }

    /// All kinds, in presentation order.
    pub const ALL: [PlacementKind; 6] = [
        PlacementKind::Modulo,
        PlacementKind::XorIndex,
        PlacementKind::RpCache,
        PlacementKind::HashRp,
        PlacementKind::RandomModulo,
        PlacementKind::IdealRandom,
    ];
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_place_in_range() {
        let geom = CacheGeometry::paper_l1();
        for kind in PlacementKind::ALL {
            let mut p = PlacementEngine::new(kind, &geom);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.name(), kind.to_string());
            for raw in [0u64, 1, 0x7f, 0x80, 0xffff, 0xdead_beef] {
                for s in [0u64, 1, 0xffff_ffff] {
                    let set = p.place(LineAddr::new(raw), Seed::new(s));
                    assert!(set < geom.sets(), "{kind}: set {set} out of range");
                }
            }
        }
    }

    #[test]
    fn placement_is_deterministic_per_line_and_seed() {
        let geom = CacheGeometry::paper_l2();
        for kind in PlacementKind::ALL {
            let mut p = PlacementEngine::new(kind, &geom);
            let line = LineAddr::new(0xabcd_ef01);
            let seed = Seed::new(0x1357_9bdf);
            let first = p.place(line, seed);
            for _ in 0..10 {
                assert_eq!(p.place(line, seed), first, "{kind} not deterministic");
            }
        }
    }

    #[test]
    fn mbpta_classes_match_paper_analysis() {
        assert_eq!(PlacementKind::Modulo.mbpta_class(), MbptaClass::Deterministic);
        assert_eq!(PlacementKind::XorIndex.mbpta_class(), MbptaClass::AddressDependent);
        assert_eq!(PlacementKind::RpCache.mbpta_class(), MbptaClass::AddressDependent);
        assert_eq!(PlacementKind::HashRp.mbpta_class(), MbptaClass::FullRandom);
        assert_eq!(PlacementKind::RandomModulo.mbpta_class(), MbptaClass::PartialApop);
        assert_eq!(PlacementKind::IdealRandom.mbpta_class(), MbptaClass::FullRandom);
    }

    #[test]
    fn compliance_flag_matches_class() {
        assert!(!MbptaClass::Deterministic.is_mbpta_compliant());
        assert!(!MbptaClass::AddressDependent.is_mbpta_compliant());
        assert!(MbptaClass::FullRandom.is_mbpta_compliant());
        assert!(MbptaClass::PartialApop.is_mbpta_compliant());
    }

    #[test]
    fn only_rpcache_randomizes_interference() {
        let geom = CacheGeometry::paper_l1();
        let mut rng = SplitMix64::new(3);
        for kind in PlacementKind::ALL {
            let mut p = PlacementEngine::new(kind, &geom);
            let rpcache = kind == PlacementKind::RpCache;
            assert_eq!(p.randomizes_interference(), rpcache, "{kind}");
            let remap = p.remap_on_contention(LineAddr::new(0x42), Seed::new(7), &mut rng);
            assert_eq!(remap.is_some(), rpcache, "{kind}");
        }
    }

    #[test]
    fn display_names_are_stable() {
        let names = PlacementKind::ALL.map(|kind| kind.to_string());
        assert_eq!(
            names,
            ["modulo", "xor-index", "rpcache", "hash-rp", "random-modulo", "ideal-random"]
        );
        assert_eq!(MbptaClass::PartialApop.to_string(), "partial APOP-fixed randomness (mbpta-p3)");
    }
}
