//! Random Modulo placement (Hernandez et al. DAC'16, Trilla et al.
//! IOLTS'16).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::placement::PermutationNetwork;
use crate::prng::mix64;
use crate::seed::Seed;

/// Random Modulo (RM): the index bits, XORed with seed bits, enter a
/// Benes-style permutation network driven by the (seed-XORed) tag bits
/// (paper Fig. 2b).
///
/// For a fixed `(tag, seed)` the map index→set is a **bijection**, so
/// two lines in the same page (same tag) are never placed in the same
/// set — exactly modulo's intra-page behaviour, hence the name. Across
/// pages and seeds the permutation varies pseudo-randomly, achieving
/// *partial APOP-fixed randomness* (`mbpta-p3`).
///
/// RM requires the page size to equal or be a multiple of the way size
/// (so the tag is page-stable); this holds for the paper's L1
/// (way = page = 4 KiB) but not its L2, which uses
/// [`HashRp`](crate::placement::HashRp) instead.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::RandomModulo;
/// use tscache_core::seed::Seed;
///
/// let p = RandomModulo::new(&CacheGeometry::paper_l1());
/// let seed = Seed::new(7);
/// // Lines 0 and 1 are in the same page: they can never collide.
/// assert_ne!(p.place(LineAddr::new(0), seed), p.place(LineAddr::new(1), seed));
/// ```
#[derive(Debug, Clone)]
pub struct RandomModulo {
    index_bits: u32,
    sets: u32,
    network: PermutationNetwork,
}

impl RandomModulo {
    /// Creates Random Modulo placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RandomModulo {
            index_bits: geom.index_bits(),
            sets: geom.sets(),
            network: PermutationNetwork::new(geom.index_bits()),
        }
    }

    /// Maps `line` under `seed` to its set.
    #[inline]
    pub fn place(&self, line: LineAddr, seed: Seed) -> u32 {
        let mask = (self.sets - 1) as u64;
        let s = seed.as_u64();
        // Input stage: index bits XORed with seed bits (Fig. 2b).
        let data = ((line.index_bits(self.index_bits) ^ s) & mask) as u32;
        // Control stage: tag bits XORed with (different) seed bits,
        // expanded into switch controls.
        let tag = line.tag_bits(self.index_bits);
        let control = mix64(tag ^ s.rotate_left(32));
        self.network.apply(data, control)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_page_lines_never_collide() {
        // mbpta-p3(1): null probability of intra-page conflicts, for
        // any seed. A page holds exactly `sets` lines for the paper L1.
        let geom = CacheGeometry::paper_l1();
        let p = RandomModulo::new(&geom);
        for s in 0..25u64 {
            let seed = Seed::new(mix64(s));
            let mut seen = vec![false; geom.sets() as usize];
            for i in 0..geom.sets() as u64 {
                // Page 3: lines 3*128 .. 4*128.
                let set = p.place(LineAddr::new(3 * 128 + i), seed) as usize;
                assert!(!seen[set], "seed {seed}: intra-page collision at set {set}");
                seen[set] = true;
            }
        }
    }

    #[test]
    fn cross_page_conflicts_vary_with_seed() {
        // mbpta-p3(2): across pages, full-randomization principles
        // apply — conflicts must not be systematic.
        let p = RandomModulo::new(&CacheGeometry::paper_l1());
        let a = LineAddr::new(0x080); // page 1, index 0
        let b = LineAddr::new(0x100); // page 2, index 0
        let mut collide = 0;
        let mut split = 0;
        for s in 0..4000u64 {
            let seed = Seed::new(s);
            if p.place(a, seed) == p.place(b, seed) {
                collide += 1;
            } else {
                split += 1;
            }
        }
        assert!(collide > 0, "cross-page pair never collides");
        assert!(split > 0, "cross-page pair always collides");
        // Expected collision rate is ~1/128; allow generous bounds.
        let rate = collide as f64 / 4000.0;
        assert!(rate < 0.1, "collision rate {rate} too high");
    }

    #[test]
    fn address_relocates_across_seeds() {
        let p = RandomModulo::new(&CacheGeometry::paper_l1());
        let line = LineAddr::new(0x1234);
        let distinct: BTreeSet<u32> = (0..300).map(|s| p.place(line, Seed::new(s))).collect();
        assert!(distinct.len() > 64, "{} distinct sets", distinct.len());
    }

    #[test]
    fn uniform_over_sets_across_seeds() {
        let geom = CacheGeometry::paper_l1();
        let p = RandomModulo::new(&geom);
        let line = LineAddr::new(0x777);
        let mut counts = vec![0u32; geom.sets() as usize];
        let n = 128_000u64;
        for s in 0..n {
            counts[p.place(line, Seed::new(s)) as usize] += 1;
        }
        let expected = n as f64 / geom.sets() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 250.0, "chi2 = {chi2}"); // 127 dof, q(0.999) ≈ 181
    }

    #[test]
    fn zero_seed_is_a_valid_layout() {
        let geom = CacheGeometry::paper_l1();
        let p = RandomModulo::new(&geom);
        let mut seen = vec![false; geom.sets() as usize];
        for i in 0..128u64 {
            seen[p.place(LineAddr::new(i), Seed::ZERO) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "seed 0 must still be a bijection per page");
    }
}
