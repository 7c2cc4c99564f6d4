//! Random Modulo placement (Hernandez et al. DAC'16, Trilla et al.
//! IOLTS'16).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::placement::PermutationNetwork;
use crate::prng::mix64;
use crate::seed::Seed;
use core::fmt;

/// Slots in Random Modulo's page memo (direct-mapped, a power of two),
/// sized from the pages each L1 places through per seed in the
/// benchmark's workloads: at most 6 in an MBPTA run of
/// `ArraySweep::standard`, 10 in the Fig. 5 AES campaigns and 137 in
/// the shared-LLC seed sweeps, which at 128 slots miss 1.25 times per
/// distinct `(page, seed)`, against 1.19 at 256 slots and 2.5 at 64.
const PAGE_SLOTS: usize = 128;

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
/// # Page memo
///
/// The network permutes bit positions, and its switches depend on the
/// page `(tag, seed)` alone, so a page needs one evaluation, not one
/// per line. RM keeps a 128-slot direct-mapped memo keyed by the full
/// `(tag, seed)`, slot `(tag ^ seed·0x9e3779b97f4a7c15) mod 128`, that
/// stores each page's permutation as nibble lookup tables, and places
/// every line through it: a line is placed by looking its index (after
/// the seed XOR) up nibble by nibble. A miss runs
/// [`PermutationNetwork::bit_permutation`] once, out of line, and
/// builds the page's tables from the position labels, so every
/// `(line, seed)` gets the set the network moves its index bits to.
/// The network takes at most 16 wires, so RM takes at most `2^16`
/// sets.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::RandomModulo;
/// use tscache_core::seed::Seed;
///
/// let mut p = RandomModulo::new(&CacheGeometry::paper_l1());
/// let seed = Seed::new(7);
/// // Lines 0 and 1 are in the same page: they can never collide.
/// assert_ne!(p.place(LineAddr::new(0), seed), p.place(LineAddr::new(1), seed));
/// ```
#[derive(Clone)]
pub struct RandomModulo {
    index_bits: u32,
    sets: u32,
    network: PermutationNetwork,
    /// Each memo slot's page `(tag, seed)`. An empty slot holds tag
    /// `u64::MAX`: no line above 0 index bits has that tag, and at 0
    /// index bits every line maps to set 0, which its zero tables give.
    keys: Box<[(u64, u64); PAGE_SLOTS]>,
    /// Each slot's placement of every index of its page, as four nibble
    /// lookup tables: entry `16i + n` holds the set bits that input
    /// nibble `i` (index bits `4i..4i+4`, after the seed XOR)
    /// contributes when its value is `n`; a placement ORs the four
    /// contributions.
    tables: Box<[[u16; 64]; PAGE_SLOTS]>,
}

impl fmt::Debug for RandomModulo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomModulo").field("network", &self.network).finish_non_exhaustive()
    }
}

impl RandomModulo {
    /// Creates Random Modulo placement for `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `geom` has more than `2^16` sets: the network takes at
    /// most 16 wires.
    pub fn new(geom: &CacheGeometry) -> Self {
        let index_bits = geom.index_bits();
        RandomModulo {
            index_bits,
            sets: geom.sets(),
            network: PermutationNetwork::new(index_bits),
            // Built in place (`Box::new` of an array builds it on the
            // stack and copies it); the zero tables come from a zeroed
            // allocation.
            keys: vec![(u64::MAX, 0); PAGE_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("PAGE_SLOTS keys"),
            tables: vec![[0; 64]; PAGE_SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("PAGE_SLOTS tables"),
        }
    }

    /// Maps `line` under `seed` to its set. Takes `&mut self` because
    /// a page's first placement fills its memo slot.
    #[inline]
    pub fn place(&mut self, line: LineAddr, seed: Seed) -> u32 {
        let s = seed.as_u64();
        let tag = line.tag_bits(self.index_bits);
        // Input stage: index bits XORed with seed bits (Fig. 2b).
        let x = ((line.index_bits(self.index_bits) ^ s) & (self.sets - 1) as u64) as usize;
        let slot = (tag ^ s.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize % PAGE_SLOTS;
        if self.keys[slot] != (tag, s) {
            return self.fill(slot, tag, s, x);
        }
        lookup(&self.tables[slot], x)
    }

    /// Fills `slot` with the tables of page `tag` under seed `s` and
    /// looks index `x` up in them: one network evaluation on position
    /// labels, then the tables. Tables above index bit `k` stay zero, as
    /// every slot of this memo has the same `k`.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, slot: usize, tag: u64, s: u64, x: usize) -> u32 {
        // Control stage: tag bits XORed with (different) seed bits,
        // expanded into switch controls.
        let mut labels = self.network.bit_permutation(mix64(tag ^ s.rotate_left(32)));
        // weight[p]: the set bit that index bit p becomes.
        let mut weight = [0u64; 16];
        let mut bit = 1;
        for _ in 0..self.index_bits {
            weight[(labels & 0xf) as usize] = bit;
            labels >>= 4;
            bit <<= 1;
        }
        self.keys[slot] = (tag, s);
        let tables = self.tables[slot].chunks_exact_mut(16).zip(weight.chunks_exact(4));
        for (table, w) in tables.take(self.index_bits.div_ceil(4) as usize) {
            // Entry n ORs the weights of n's set bits, built four
            // entries to a u64 in registers: entries 4m..4m+4 are
            // entries 0..4 ORed with the weights of m's bits. (A
            // per-entry build, which the compiler vectorizes with wide
            // loads of the weights just stored, made a page build about
            // 10% slower.)
            let lanes = |v: u64| v * 0x0001_0001_0001_0001;
            let low = (w[0] << 16) | (w[1] << 32) | ((w[0] | w[1]) << 48);
            let words = [low, low | lanes(w[2]), low | lanes(w[3]), low | lanes(w[2] | w[3])];
            for (quad, word) in table.chunks_exact_mut(4).zip(words) {
                quad.copy_from_slice(&[
                    word as u16,
                    (word >> 16) as u16,
                    (word >> 32) as u16,
                    (word >> 48) as u16,
                ]);
            }
        }
        lookup(&self.tables[slot], x)
    }
}

/// The set of index `x` (after the seed XOR) in a page's tables.
#[inline]
fn lookup(t: &[u16; 64], x: usize) -> u32 {
    u32::from(t[x & 15] | t[16 + (x >> 4 & 15)] | t[32 + (x >> 8 & 15)] | t[48 + (x >> 12 & 15)])
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
        let mut p = RandomModulo::new(&geom);
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
        let mut p = RandomModulo::new(&CacheGeometry::paper_l1());
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
        let mut p = RandomModulo::new(&CacheGeometry::paper_l1());
        let line = LineAddr::new(0x1234);
        let distinct: BTreeSet<u32> = (0..300).map(|s| p.place(line, Seed::new(s))).collect();
        assert!(distinct.len() > 64, "{} distinct sets", distinct.len());
    }

    #[test]
    fn uniform_over_sets_across_seeds() {
        let geom = CacheGeometry::paper_l1();
        let mut p = RandomModulo::new(&geom);
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
    #[should_panic(expected = "at most 16 wires")]
    fn more_than_2_16_sets_are_refused() {
        RandomModulo::new(&CacheGeometry::new(1 << 17, 4, 32).unwrap());
    }

    #[test]
    fn zero_seed_is_a_valid_layout() {
        let geom = CacheGeometry::paper_l1();
        let mut p = RandomModulo::new(&geom);
        let mut seen = vec![false; geom.sets() as usize];
        for i in 0..128u64 {
            seen[p.place(LineAddr::new(i), Seed::ZERO) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "seed 0 must still be a bijection per page");
    }
}
