//! Aciicmez-style XOR-index placement (US patent 8,055,848).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::prng::mix64;
use crate::seed::Seed;

/// XOR-index placement: the set is the modulo index XORed with a
/// seed-derived constant.
///
/// The paper's §3 analysis: this *permutes* the set names but preserves
/// the conflict structure of modulo exactly — two lines with equal
/// index bits collide under **every** seed, and two lines with distinct
/// index bits **never** collide. Hence it breaks `mbpta-p2(2)` (conflict
/// randomization) and provides no time composability, even though each
/// individual address does move across seeds.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::XorIndex;
/// use tscache_core::seed::Seed;
///
/// let p = XorIndex::new(&CacheGeometry::paper_l1());
/// let (a, b) = (LineAddr::new(0x005), LineAddr::new(0x085)); // same index bits
/// for s in 0..8 {
///     let seed = Seed::new(s);
///     assert_eq!(p.place(a, seed), p.place(b, seed)); // systematic conflict
/// }
/// ```
#[derive(Debug, Clone)]
pub struct XorIndex {
    index_bits: u32,
    sets: u32,
}

impl XorIndex {
    /// Creates XOR-index placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        XorIndex { index_bits: geom.index_bits(), sets: geom.sets() }
    }

    /// Maps `line` under `seed` to its set.
    #[inline]
    pub fn place(&self, line: LineAddr, seed: Seed) -> u32 {
        let mask = (self.sets - 1) as u64;
        // The hardware XORs the index bits with a random number; we
        // derive that number from the seed with a mixer so nearby seeds
        // do not produce nearby offsets.
        let r = mix64(seed.as_u64()) & mask;
        ((line.index_bits(self.index_bits) ^ r) & mask) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_across_seeds() {
        // Individual addresses do relocate with the seed…
        let p = XorIndex::new(&CacheGeometry::paper_l1());
        let line = LineAddr::new(0x42);
        let sets: std::collections::BTreeSet<u32> =
            (0..64).map(|s| p.place(line, Seed::new(s))).collect();
        assert!(sets.len() > 16, "address barely moves: {} sets", sets.len());
    }

    #[test]
    fn conflict_structure_is_seed_invariant() {
        // …but pairwise conflicts never change (the §3 flaw).
        let p = XorIndex::new(&CacheGeometry::paper_l1());
        let same_index = (LineAddr::new(0x010), LineAddr::new(0x090));
        let diff_index = (LineAddr::new(0x010), LineAddr::new(0x011));
        for s in 0..50u64 {
            let seed = Seed::new(s);
            assert_eq!(p.place(same_index.0, seed), p.place(same_index.1, seed));
            assert_ne!(p.place(diff_index.0, seed), p.place(diff_index.1, seed));
        }
    }

    #[test]
    fn stays_in_range() {
        let geom = CacheGeometry::paper_l2();
        let p = XorIndex::new(&geom);
        for i in 0..1000u64 {
            assert!(p.place(LineAddr::new(i * 37), Seed::new(i)) < geom.sets());
        }
    }
}
