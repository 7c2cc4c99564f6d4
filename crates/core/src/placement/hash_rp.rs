//! Hash-based parametric random placement (HashRP, Kosmidis et al.
//! DATE'13).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::prng::mix64;
use crate::seed::Seed;

/// HashRP: rotator blocks and XOR gates combine the tag+index bits with
/// a seed (paper Fig. 2a).
///
/// Structure of one placement:
///
/// 1. the line address is split into 16-bit blocks, each rotated by a
///    seed-selected amount and XOR-folded together with seed bits (the
///    rotate+XOR tree of Fig. 2a);
/// 2. a two-round seed-keyed Feistel stage scrambles the folded value;
/// 3. the 16-bit result is XOR-reduced to the index width.
///
/// Step 2 deserves a note: a *purely* linear rotate+XOR network maps a
/// single-bit address difference to a single-bit hash difference, so
/// two addresses differing in one bit could never collide under any
/// seed — violating the full-randomness property `mbpta-p2(2)` that
/// the hardware design is credited with. The keyed Feistel rounds (a
/// handful of XOR gates and a small S-box in hardware terms) restore
/// the property: pairwise conflicts become random and independent
/// across seeds, which is what the paper's analysis relies on.
///
/// HashRP places no constraint on page alignment, so it suits L2/L3
/// caches whose way size exceeds the page size (paper §4).
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::HashRp;
/// use tscache_core::seed::Seed;
///
/// let p = HashRp::new(&CacheGeometry::paper_l2());
/// let a = LineAddr::new(0x12345);
/// // The same address relocates as the seed changes:
/// assert_ne!(p.place(a, Seed::new(1)), p.place(a, Seed::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct HashRp {
    index_bits: u32,
    sets: u32,
}

/// Number of 16-bit rotator blocks covering the line address.
const BLOCKS: u32 = 4;

impl HashRp {
    /// Creates HashRP placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        HashRp { index_bits: geom.index_bits(), sets: geom.sets() }
    }

    /// Maps `line` under `seed` to its set.
    #[inline]
    pub fn place(&self, line: LineAddr, seed: Seed) -> u32 {
        let h = self.hash16(line.as_u64(), seed.as_u64()) as u32;
        // Fold all 16 hash bits down to the index width.
        let mask = self.sets - 1;
        let folded = h ^ (h >> self.index_bits) ^ (h >> (2 * self.index_bits).min(31));
        folded & mask
    }

    /// The raw 16-bit hash before reduction to the index width.
    #[inline]
    fn hash16(&self, line: u64, raw_seed: u64) -> u16 {
        // The hardware consumes a PRNG-generated seed word; raw seeds
        // handed in by tests may be tiny integers, so expand first.
        let seed = mix64(raw_seed);
        let mut acc: u16 = 0;
        // Rotator blocks: each 16-bit slice of the line address is
        // rotated by an amount drawn from a different seed nibble, then
        // folded into the accumulator (Fig. 2a's rotate+XOR tree).
        for b in 0..BLOCKS {
            let block = ((line >> (16 * b)) & 0xffff) as u16;
            let rot = ((seed >> (4 * b)) & 0xf) as u32;
            acc ^= block.rotate_left(rot);
        }
        acc ^= ((seed >> 16) & 0xffff) as u16;
        // Keyed Feistel rounds (see type-level docs): left/right 8-bit
        // halves, round keys from the upper seed bits.
        let mut l = (acc >> 8) as u8;
        let mut r = (acc & 0xff) as u8;
        let k0 = ((seed >> 32) & 0xff) as u8;
        let k1 = ((seed >> 40) & 0xff) as u8;
        l ^= round(r, k0);
        r ^= round(l, k1);
        ((l as u16) << 8) | r as u16
    }
}

/// Feistel round function: an 8-bit keyed S-box built from the 64-bit
/// mixer.
#[inline]
fn round(x: u8, k: u8) -> u8 {
    (mix64(((x as u64) << 8) | k as u64) & 0xff) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn address_relocates_across_seeds() {
        // mbpta-p2(1): there exist seeds mapping A to different sets
        // and seeds mapping A to the same set.
        let p = HashRp::new(&CacheGeometry::paper_l1());
        let a = LineAddr::new(0xbeef);
        let placements: Vec<u32> = (0..200).map(|s| p.place(a, Seed::new(s))).collect();
        let distinct: BTreeSet<u32> = placements.iter().copied().collect();
        assert!(distinct.len() > 32, "too static: {} distinct sets", distinct.len());
        // With 200 draws over 128 sets, some pair of seeds must agree.
        assert!(distinct.len() < 200);
    }

    #[test]
    fn pairwise_conflicts_are_seed_dependent() {
        // mbpta-p2(2): for some seeds A and B collide, for others not —
        // including pairs with identical modulo index bits and pairs
        // differing in a single address bit.
        let p = HashRp::new(&CacheGeometry::paper_l1());
        let pairs = [
            (LineAddr::new(0x010), LineAddr::new(0x090)), // same modulo index
            (LineAddr::new(0x010), LineAddr::new(0x011)), // single-bit difference
            (LineAddr::new(0x1234), LineAddr::new(0x4321)),
        ];
        for (a, b) in pairs {
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
            assert!(collide > 0, "{a} vs {b}: never collide");
            assert!(split > 0, "{a} vs {b}: always collide");
        }
    }

    #[test]
    fn roughly_uniform_over_sets() {
        let geom = CacheGeometry::paper_l1();
        let p = HashRp::new(&geom);
        let mut counts = vec![0u32; geom.sets() as usize];
        let n = 128_000u64;
        for i in 0..n {
            counts[p.place(LineAddr::new(0x4000 + i % 128), Seed::new(i / 128)) as usize] += 1;
        }
        let expected = n as f64 / geom.sets() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 127 dof; the 0.999 quantile is ~181. Allow ample slack.
        assert!(chi2 < 250.0, "chi2 = {chi2}");
    }

    #[test]
    fn l2_geometry_in_range() {
        let geom = CacheGeometry::paper_l2();
        let p = HashRp::new(&geom);
        for i in 0..10_000u64 {
            assert!(p.place(LineAddr::new(i * 131), Seed::new(i)) < geom.sets());
        }
    }

    #[test]
    fn zero_address_still_moves_with_seed() {
        let p = HashRp::new(&CacheGeometry::paper_l1());
        let distinct: BTreeSet<u32> =
            (0..50).map(|s| p.place(LineAddr::new(0), Seed::new(s))).collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    fn collision_rate_near_ideal() {
        // Pair collision probability should be close to 1/sets, the
        // "random and independent" conflict behaviour of mbpta-p2.
        let geom = CacheGeometry::paper_l1();
        let p = HashRp::new(&geom);
        let (a, b) = (LineAddr::new(0x88), LineAddr::new(0x108));
        let n = 60_000u64;
        let collisions =
            (0..n).filter(|&s| p.place(a, Seed::new(s)) == p.place(b, Seed::new(s))).count();
        let rate = collisions as f64 / n as f64;
        let ideal = 1.0 / geom.sets() as f64;
        assert!((rate - ideal).abs() < ideal * 0.5, "rate {rate} vs ideal {ideal}");
    }
}
