//! Empirical checkers for the MBPTA and SCA placement properties the
//! paper defines (`mbpta-p1/p2/p3`, `sca-p1` — §2) and uses to assess
//! each cache design (§3–§4).
//!
//! These run a policy over sampled addresses and seeds and report which
//! properties hold, regenerating the paper's qualitative compliance
//! analysis as a measurable artefact (see the `tab_compliance_matrix`
//! harness).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::placement::{MbptaClass, PlacementEngine, PlacementKind};
use crate::prng::{mix64, Prng, SplitMix64};
use crate::seed::Seed;
use core::fmt;

/// Outcome of the empirical property checks for one placement policy.
#[derive(Debug, Clone)]
pub struct PlacementProperties {
    /// Policy under test.
    pub policy: PlacementKind,
    /// The class the implementation claims (paper analysis).
    pub declared_class: MbptaClass,
    /// mbpta-p2(1): an address relocates across seeds.
    pub relocates_across_seeds: bool,
    /// mbpta-p2(2) for arbitrary address pairs (including same modulo
    /// index): collisions both occur and don't occur across seeds.
    pub pairwise_conflicts_randomized: bool,
    /// The §3 failure mode: the pairwise collision relation is
    /// identical under every seed.
    pub conflict_structure_seed_invariant: bool,
    /// mbpta-p3(1): lines of one page never collide (any seed).
    pub intra_page_conflict_free: bool,
    /// mbpta-p3(2): cross-page pairs collide for some seeds only.
    pub cross_page_conflicts_randomized: bool,
    /// sca-p1 precondition: with *different* seeds for victim and
    /// attacker, cross-process conflicts are randomized.
    pub cross_seed_contention_randomized: bool,
    /// Chi-square statistic of one address's placement over seeds
    /// (uniformity; degrees of freedom = sets − 1).
    pub uniformity_chi2: f64,
    /// Degrees of freedom for `uniformity_chi2`.
    pub uniformity_dof: u32,
}

impl PlacementProperties {
    /// The MBPTA class the measurements support.
    pub fn empirical_class(&self) -> MbptaClass {
        if !self.relocates_across_seeds {
            MbptaClass::Deterministic
        } else if self.pairwise_conflicts_randomized {
            MbptaClass::FullRandom
        } else if self.intra_page_conflict_free && self.cross_page_conflicts_randomized {
            MbptaClass::PartialApop
        } else {
            MbptaClass::AddressDependent
        }
    }

    /// Whether the empirical class satisfies MBPTA requirements.
    pub fn mbpta_compliant(&self) -> bool {
        self.empirical_class().is_mbpta_compliant()
    }

    /// Whether the design defeats contention attacks when the OS gives
    /// victim and attacker different seeds (the TSCache argument, §5).
    pub fn sca_robust_with_unique_seeds(&self) -> bool {
        self.cross_seed_contention_randomized
    }

    /// Whether measurements match the declared class.
    pub fn consistent_with_declared(&self) -> bool {
        self.empirical_class() == self.declared_class
    }
}

impl fmt::Display for PlacementProperties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy: {}", self.policy)?;
        writeln!(f, "  declared:   {}", self.declared_class)?;
        writeln!(f, "  empirical:  {}", self.empirical_class())?;
        writeln!(f, "  relocates across seeds:      {}", self.relocates_across_seeds)?;
        writeln!(f, "  pairwise conflicts random:   {}", self.pairwise_conflicts_randomized)?;
        writeln!(f, "  conflict structure invariant: {}", self.conflict_structure_seed_invariant)?;
        writeln!(f, "  intra-page conflict free:    {}", self.intra_page_conflict_free)?;
        writeln!(f, "  cross-page conflicts random: {}", self.cross_page_conflicts_randomized)?;
        writeln!(f, "  cross-seed contention random: {}", self.cross_seed_contention_randomized)?;
        write!(f, "  uniformity chi2: {:.1} ({} dof)", self.uniformity_chi2, self.uniformity_dof)
    }
}

/// Parameters for the property checks.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Number of seeds sampled per check.
    pub seeds: u32,
    /// Number of address pairs sampled per check.
    pub pairs: u32,
    /// Page size in bits (paper platform: 4 KiB pages).
    pub page_bits: u32,
    /// RNG seed for sampling.
    pub rng_seed: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        // 2048 seeds keep the false-negative probability of the
        // collide/split existence checks negligible: a pair colliding
        // with probability 1/128 misses all 2048 draws with
        // probability e^-16 ≈ 1e-7.
        CheckConfig { seeds: 2048, pairs: 48, page_bits: 12, rng_seed: 0x70707 }
    }
}

/// Runs all property checks for `kind` on `geom`.
///
/// # Examples
///
/// ```
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::{MbptaClass, PlacementKind};
/// use tscache_core::properties::{check_placement, CheckConfig};
///
/// let report = check_placement(
///     PlacementKind::RandomModulo,
///     &CacheGeometry::paper_l1(),
///     &CheckConfig::default(),
/// );
/// assert_eq!(report.empirical_class(), MbptaClass::PartialApop);
/// assert!(report.mbpta_compliant());
/// ```
pub fn check_placement(
    kind: PlacementKind,
    geom: &CacheGeometry,
    cfg: &CheckConfig,
) -> PlacementProperties {
    let mut policy = PlacementEngine::new(kind, geom);
    let mut rng = SplitMix64::new(cfg.rng_seed);
    let lines_per_page = 1u64 << (cfg.page_bits - geom.offset_bits());

    let relocates = check_relocation(&mut policy, cfg, &mut rng);
    let (pair_random, structure_invariant) =
        check_pairwise(&mut policy, geom, cfg, &mut rng, lines_per_page);
    let intra_page_free = check_intra_page(&mut policy, geom, cfg, lines_per_page);
    let cross_page_random = check_cross_page(&mut policy, cfg, &mut rng, lines_per_page);
    let cross_seed_random = check_cross_seed(&mut policy, cfg, &mut rng);
    let (chi2, dof) = uniformity_chi2(&mut policy, geom, cfg);

    PlacementProperties {
        policy: kind,
        declared_class: kind.mbpta_class(),
        relocates_across_seeds: relocates,
        pairwise_conflicts_randomized: pair_random,
        conflict_structure_seed_invariant: structure_invariant,
        intra_page_conflict_free: intra_page_free,
        cross_page_conflicts_randomized: cross_page_random,
        cross_seed_contention_randomized: cross_seed_random,
        uniformity_chi2: chi2,
        uniformity_dof: dof,
    }
}

fn sample_seeds(cfg: &CheckConfig) -> impl Iterator<Item = Seed> + '_ {
    (0..cfg.seeds as u64).map(move |i| Seed::new(mix64(cfg.rng_seed ^ i)))
}

fn check_relocation(policy: &mut PlacementEngine, cfg: &CheckConfig, rng: &mut SplitMix64) -> bool {
    // mbpta-p2(1): sampled addresses must occupy >1 set across seeds.
    (0..16).all(|_| {
        let line = LineAddr::new(rng.next_u64() >> 16);
        let mut sets = std::collections::BTreeSet::new();
        for seed in sample_seeds(cfg) {
            sets.insert(policy.place(line, seed));
        }
        sets.len() > 1
    })
}

fn check_pairwise(
    policy: &mut PlacementEngine,
    geom: &CacheGeometry,
    cfg: &CheckConfig,
    rng: &mut SplitMix64,
    lines_per_page: u64,
) -> (bool, bool) {
    // Sample pairs of both flavours: same modulo index (the contention
    // pairs attackers need) and arbitrary.
    let mut all_pairs_randomized = true;
    let mut structure_invariant = true;
    for p in 0..cfg.pairs {
        let base = rng.next_u64() >> 16;
        let a = LineAddr::new(base);
        let b = if p % 2 == 0 {
            // Same modulo index, different tag — and different page so
            // RM's intra-page exemption doesn't apply.
            LineAddr::new(base + geom.sets() as u64 * lines_per_page.max(1))
        } else {
            LineAddr::new(base ^ (1 + (rng.next_u64() & 0xff)))
        };
        if a == b {
            continue;
        }
        let mut collide = 0u32;
        let mut split = 0u32;
        for seed in sample_seeds(cfg) {
            if policy.place(a, seed) == policy.place(b, seed) {
                collide += 1;
            } else {
                split += 1;
            }
        }
        if collide == 0 || split == 0 {
            all_pairs_randomized = false;
        }
        if collide != 0 && split != 0 {
            structure_invariant = false;
        }
    }
    (all_pairs_randomized, structure_invariant)
}

fn check_intra_page(
    policy: &mut PlacementEngine,
    geom: &CacheGeometry,
    cfg: &CheckConfig,
    lines_per_page: u64,
) -> bool {
    // mbpta-p3(1): within a page, all lines land in distinct sets — for
    // every sampled seed. Only meaningful when a page fits in one way.
    if lines_per_page > geom.sets() as u64 {
        return false;
    }
    for seed in sample_seeds(cfg).take(32) {
        for page in [0u64, 3, 17] {
            let mut seen = vec![false; geom.sets() as usize];
            for i in 0..lines_per_page {
                let set = policy.place(LineAddr::new(page * lines_per_page + i), seed) as usize;
                if seen[set] {
                    return false;
                }
                seen[set] = true;
            }
        }
    }
    true
}

fn check_cross_page(
    policy: &mut PlacementEngine,
    cfg: &CheckConfig,
    rng: &mut SplitMix64,
    lines_per_page: u64,
) -> bool {
    for _ in 0..cfg.pairs {
        let a = LineAddr::new(rng.next_u64() >> 16);
        let pages_apart = 1 + (rng.next_u64() & 0x7);
        let b = LineAddr::new(a.as_u64() + pages_apart * lines_per_page);
        let mut collide = 0u32;
        let mut split = 0u32;
        for seed in sample_seeds(cfg) {
            if policy.place(a, seed) == policy.place(b, seed) {
                collide += 1;
            } else {
                split += 1;
            }
        }
        if collide == 0 || split == 0 {
            return false;
        }
    }
    true
}

fn check_cross_seed(policy: &mut PlacementEngine, cfg: &CheckConfig, rng: &mut SplitMix64) -> bool {
    // sca-p1 precondition: victim line under seed s1 vs attacker line
    // under seed s2 — collisions must vary across (s1, s2) draws.
    for _ in 0..16 {
        let a = LineAddr::new(rng.next_u64() >> 16);
        let b = LineAddr::new(rng.next_u64() >> 16);
        let mut collide = 0u32;
        let mut split = 0u32;
        for i in 0..cfg.seeds as u64 {
            let s1 = Seed::new(mix64(cfg.rng_seed ^ (2 * i)));
            let s2 = Seed::new(mix64(cfg.rng_seed ^ (2 * i + 1)));
            if policy.place(a, s1) == policy.place(b, s2) {
                collide += 1;
            } else {
                split += 1;
            }
        }
        if collide == 0 || split == 0 {
            return false;
        }
    }
    true
}

fn uniformity_chi2(
    policy: &mut PlacementEngine,
    geom: &CacheGeometry,
    cfg: &CheckConfig,
) -> (f64, u32) {
    let line = LineAddr::new(0xabc_def);
    let mut counts = vec![0u32; geom.sets() as usize];
    let draws = (cfg.seeds as u64).max(64 * geom.sets() as u64);
    for i in 0..draws {
        let seed = Seed::new(mix64(cfg.rng_seed ^ (i.wrapping_mul(0x9e37))));
        counts[policy.place(line, seed) as usize] += 1;
    }
    let expected = draws as f64 / geom.sets() as f64;
    let chi2 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    (chi2, geom.sets() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(kind: PlacementKind) -> PlacementProperties {
        check_placement(kind, &CacheGeometry::paper_l1(), &CheckConfig::default())
    }

    #[test]
    fn modulo_is_deterministic() {
        let r = check(PlacementKind::Modulo);
        assert_eq!(r.empirical_class(), MbptaClass::Deterministic);
        assert!(!r.mbpta_compliant());
        assert!(!r.relocates_across_seeds);
        assert!(r.conflict_structure_seed_invariant);
        assert!(!r.sca_robust_with_unique_seeds());
        assert!(r.consistent_with_declared());
    }

    #[test]
    fn xor_index_is_address_dependent() {
        // The §3 analysis of the Aciicmez scheme: addresses relocate
        // but the conflict structure never changes.
        let r = check(PlacementKind::XorIndex);
        assert_eq!(r.empirical_class(), MbptaClass::AddressDependent);
        assert!(r.relocates_across_seeds);
        assert!(r.conflict_structure_seed_invariant);
        assert!(!r.mbpta_compliant());
        assert!(r.consistent_with_declared());
    }

    #[test]
    fn rpcache_is_address_dependent() {
        let r = check(PlacementKind::RpCache);
        assert_eq!(r.empirical_class(), MbptaClass::AddressDependent);
        assert!(r.conflict_structure_seed_invariant);
        assert!(!r.mbpta_compliant());
        // But with per-process tables, cross-process contention IS
        // randomized (its security mechanism).
        assert!(r.sca_robust_with_unique_seeds());
        assert!(r.consistent_with_declared());
    }

    #[test]
    fn hash_rp_achieves_full_randomness() {
        let r = check(PlacementKind::HashRp);
        assert_eq!(r.empirical_class(), MbptaClass::FullRandom);
        assert!(r.mbpta_compliant());
        assert!(r.sca_robust_with_unique_seeds());
        assert!(!r.conflict_structure_seed_invariant);
        assert!(r.consistent_with_declared());
    }

    #[test]
    fn random_modulo_achieves_partial_apop() {
        let r = check(PlacementKind::RandomModulo);
        assert_eq!(r.empirical_class(), MbptaClass::PartialApop);
        assert!(r.intra_page_conflict_free);
        assert!(r.cross_page_conflicts_randomized);
        assert!(r.mbpta_compliant());
        assert!(r.sca_robust_with_unique_seeds());
        assert!(r.consistent_with_declared());
    }

    #[test]
    fn ideal_random_is_fully_random() {
        let r = check(PlacementKind::IdealRandom);
        assert_eq!(r.empirical_class(), MbptaClass::FullRandom);
        // Chi-square within a loose bound of the 127-dof expectation.
        assert!(r.uniformity_chi2 < 250.0, "chi2 {}", r.uniformity_chi2);
        assert!(r.consistent_with_declared());
    }

    #[test]
    fn display_contains_key_lines() {
        let r = check(PlacementKind::Modulo);
        let s = r.to_string();
        assert!(s.contains("policy: modulo"));
        assert!(s.contains("empirical"));
    }
}
