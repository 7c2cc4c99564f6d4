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
//! Every policy implements [`Placement`]: a deterministic function of
//! `(line address, seed)`. Stateful behaviour (RPCache's dynamic
//! remapping on cross-process contention) is exposed through
//! [`Placement::remap_on_contention`].

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

/// A cache placement policy: maps `(line, seed)` to a set index.
///
/// Implementations must be deterministic in `(line, seed)` except across
/// calls to [`remap_on_contention`](Placement::remap_on_contention),
/// which only RPCache uses.
pub trait Placement: fmt::Debug + Send {
    /// Number of sets this policy maps into.
    fn sets(&self) -> u32;

    /// Maps a line address under `seed` to a set index in `0..sets()`.
    ///
    /// Takes `&mut self` so table-based policies (RPCache) can build
    /// their per-seed state lazily; pure policies ignore the mutability.
    fn place(&mut self, line: LineAddr, seed: Seed) -> u32;

    /// The policy's MBPTA-compliance class (paper §2–§4).
    fn mbpta_class(&self) -> MbptaClass;

    /// Whether the policy randomizes cross-process interference
    /// (RPCache's security mechanism, §3).
    fn randomizes_interference(&self) -> bool {
        false
    }

    /// Reacts to a cross-process contention event on `line` (the
    /// incoming line whose fill would evict another process's data).
    ///
    /// RPCache redirects the fill to a random set and updates its
    /// permutation so future lookups of the line find it; other
    /// policies return `None` (no remapping).
    fn remap_on_contention(
        &mut self,
        _line: LineAddr,
        _seed: Seed,
        _rng: &mut SplitMix64,
    ) -> Option<u32> {
        None
    }
}

/// Enum-dispatch placement engine: the hot-path counterpart of the
/// boxed [`Placement`] objects.
///
/// Set selection runs on every cache access — hundreds of times per
/// simulated AES encryption and millions of times per attack campaign.
/// `PlacementEngine` holds the concrete policies in an enum so
/// [`place`](PlacementEngine::place) compiles to a direct match over
/// inlinable policy bodies instead of a virtual call through
/// `Box<dyn Placement>`. The boxed form stays available through
/// [`PlacementKind::build`] for extension and differential testing.
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

macro_rules! place_dispatch {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            PlacementEngine::Modulo($inner) => $e,
            PlacementEngine::XorIndex($inner) => $e,
            PlacementEngine::RpCache($inner) => $e,
            PlacementEngine::HashRp($inner) => $e,
            PlacementEngine::RandomModulo($inner) => $e,
            PlacementEngine::IdealRandom($inner) => $e,
        }
    };
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

    /// Number of sets this policy maps into.
    pub fn sets(&self) -> u32 {
        place_dispatch!(self, p => Placement::sets(p))
    }

    /// Maps a line address under `seed` to a set index in `0..sets()`.
    #[inline]
    pub fn place(&mut self, line: LineAddr, seed: Seed) -> u32 {
        place_dispatch!(self, p => p.place(line, seed))
    }

    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// The policy's MBPTA-compliance class (paper §2–§4).
    pub fn mbpta_class(&self) -> MbptaClass {
        place_dispatch!(self, p => p.mbpta_class())
    }

    /// Whether the policy randomizes cross-process interference.
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

    /// Reacts to a cross-process contention event on `line` (RPCache's
    /// dynamic remap; `None` for every other policy).
    #[inline]
    pub fn remap_on_contention(
        &mut self,
        line: LineAddr,
        seed: Seed,
        rng: &mut SplitMix64,
    ) -> Option<u32> {
        place_dispatch!(self, p => p.remap_on_contention(line, seed, rng))
    }
}

/// Configuration enum naming each placement policy, used to build
/// caches from a declarative description.
///
/// # Examples
///
/// ```
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::{PlacementKind, Placement};
/// use tscache_core::seed::Seed;
/// use tscache_core::addr::LineAddr;
///
/// let geom = CacheGeometry::paper_l1();
/// let mut p = PlacementKind::RandomModulo.build(&geom);
/// let set = p.place(LineAddr::new(0x1234), Seed::new(99));
/// assert!(set < geom.sets());
/// ```
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
    /// Builds the policy for the given geometry.
    pub fn build(self, geom: &CacheGeometry) -> Box<dyn Placement> {
        match self {
            PlacementKind::Modulo => Box::new(Modulo::new(geom)),
            PlacementKind::XorIndex => Box::new(XorIndex::new(geom)),
            PlacementKind::RpCache => Box::new(RpCachePerm::new(geom)),
            PlacementKind::HashRp => Box::new(HashRp::new(geom)),
            PlacementKind::RandomModulo => Box::new(RandomModulo::new(geom)),
            PlacementKind::IdealRandom => Box::new(IdealRandom::new(geom)),
        }
    }

    /// Builds the enum-dispatch engine used by the cache hot path.
    pub fn engine(self, geom: &CacheGeometry) -> PlacementEngine {
        PlacementEngine::new(self, geom)
    }

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
            let mut p = kind.build(&geom);
            assert_eq!(p.sets(), geom.sets());
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
            let mut p = kind.build(&geom);
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
        let geom = CacheGeometry::paper_l1();
        assert_eq!(PlacementKind::Modulo.build(&geom).mbpta_class(), MbptaClass::Deterministic);
        assert_eq!(
            PlacementKind::XorIndex.build(&geom).mbpta_class(),
            MbptaClass::AddressDependent
        );
        assert_eq!(PlacementKind::RpCache.build(&geom).mbpta_class(), MbptaClass::AddressDependent);
        assert_eq!(PlacementKind::HashRp.build(&geom).mbpta_class(), MbptaClass::FullRandom);
        assert_eq!(PlacementKind::RandomModulo.build(&geom).mbpta_class(), MbptaClass::PartialApop);
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
        for kind in PlacementKind::ALL {
            let p = kind.build(&geom);
            assert_eq!(p.randomizes_interference(), kind == PlacementKind::RpCache, "{kind}");
        }
    }

    #[test]
    fn engine_matches_boxed_policy_exactly() {
        use crate::prng::SplitMix64;
        let geom = CacheGeometry::paper_l1();
        for kind in PlacementKind::ALL {
            let mut engine = kind.engine(&geom);
            let mut boxed = kind.build(&geom);
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.name(), kind.to_string());
            assert_eq!(engine.sets(), boxed.sets());
            assert_eq!(engine.mbpta_class(), boxed.mbpta_class());
            assert_eq!(engine.randomizes_interference(), boxed.randomizes_interference());
            let mut rng_e = SplitMix64::new(3);
            let mut rng_b = SplitMix64::new(3);
            for i in 0..2000u64 {
                let line = LineAddr::new(i.wrapping_mul(0x9e37_79b9));
                let seed = Seed::new(i / 7);
                assert_eq!(engine.place(line, seed), boxed.place(line, seed), "{kind}");
                if i % 37 == 0 {
                    assert_eq!(
                        engine.remap_on_contention(line, seed, &mut rng_e),
                        boxed.remap_on_contention(line, seed, &mut rng_b),
                        "{kind}"
                    );
                }
            }
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
