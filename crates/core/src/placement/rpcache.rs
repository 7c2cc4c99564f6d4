//! RPCache placement (Wang & Lee, ISCA'07).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::prng::{Prng, SplitMix64};
use crate::seed::Seed;
use std::collections::BTreeMap;

/// RPCache: a per-process permutation table maps the modulo index to a
/// set; on cross-process contention the interference is randomized by
/// remapping the contended index to a random set.
///
/// Security rationale (paper §3): an attacker cannot build a stable
/// eviction relationship with the victim because every interfering
/// access scrambles the mapping. MBPTA assessment (also §3): within a
/// process the permutation is a fixed bijection of sets, so the
/// *conflict structure equals modulo's* — timing still depends on the
/// actual addresses, breaking `mbpta-p1`/`p2` (no time composability).
///
/// The per-process permutation is keyed by the process's [`Seed`]: the
/// OS gives each process a distinct seed, which here selects a distinct
/// permutation table (built lazily with Fisher-Yates).
#[derive(Debug)]
pub struct RpCachePerm {
    index_bits: u32,
    sets: u32,
    /// seed → (perm, inverse perm); both maintained so contention
    /// remaps can swap entries in O(1).
    tables: BTreeMap<u64, PermTable>,
}

#[derive(Debug, Clone)]
struct PermTable {
    perm: Vec<u16>,
    inv: Vec<u16>,
}

impl PermTable {
    fn build(sets: u32, seed: u64) -> Self {
        let mut perm: Vec<u16> = (0..sets as u16).collect();
        let mut rng = SplitMix64::new(seed ^ 0x5252_5043_6163_6865); // "RRPCache"
        rng.shuffle(&mut perm);
        let mut inv = vec![0u16; sets as usize];
        for (i, &p) in perm.iter().enumerate() {
            inv[p as usize] = i as u16;
        }
        PermTable { perm, inv }
    }

    /// Swaps the images of indices `i` and `j`, keeping `inv` in sync.
    fn swap_images(&mut self, i: usize, j: usize) {
        self.perm.swap(i, j);
        self.inv[self.perm[i] as usize] = i as u16;
        self.inv[self.perm[j] as usize] = j as u16;
    }
}

impl RpCachePerm {
    /// Creates RPCache placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        RpCachePerm { index_bits: geom.index_bits(), sets: geom.sets(), tables: BTreeMap::new() }
    }

    fn table(&mut self, seed: Seed) -> &mut PermTable {
        let sets = self.sets;
        self.tables.entry(seed.as_u64()).or_insert_with(|| PermTable::build(sets, seed.as_u64()))
    }

    /// Number of distinct per-seed tables materialized so far.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Maps `line` under `seed` to its set, building `seed`'s table on
    /// first use.
    #[inline]
    pub fn place(&mut self, line: LineAddr, seed: Seed) -> u32 {
        let idx = line.index_bits(self.index_bits) as usize;
        self.table(seed).perm[idx] as u32
    }

    /// Reacts to a cross-process contention event on `line` (the
    /// incoming line whose fill would evict another process's data):
    /// redirects the fill to a random set and updates `seed`'s
    /// permutation so future lookups of the line find it there.
    /// Returns the new set.
    pub fn remap_on_contention(&mut self, line: LineAddr, seed: Seed, rng: &mut SplitMix64) -> u32 {
        let sets = self.sets;
        let idx = line.index_bits(self.index_bits) as usize;
        let target_set = rng.below(sets) as usize;
        let table = self.table(seed);
        // Remap `idx` to a random set S': find the index currently
        // mapping to S' and swap images so the table stays a bijection
        // (the RPCache permutation-register update).
        let other_idx = table.inv[target_set] as usize;
        table.swap_images(idx, other_idx);
        target_set as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_seed_tables_are_bijections() {
        let geom = CacheGeometry::paper_l1();
        let mut p = RpCachePerm::new(&geom);
        for s in 0..5u64 {
            let seed = Seed::new(s);
            let mut seen = vec![false; geom.sets() as usize];
            for i in 0..geom.sets() as u64 {
                let set = p.place(LineAddr::new(i), seed) as usize;
                assert!(!seen[set], "seed {s}: collision");
                seen[set] = true;
            }
        }
    }

    #[test]
    fn conflict_structure_equals_modulo_within_process() {
        // The §3 flaw: same-index lines collide under every seed.
        let mut p = RpCachePerm::new(&CacheGeometry::paper_l1());
        for s in 0..20u64 {
            let seed = Seed::new(s);
            assert_eq!(p.place(LineAddr::new(0x005), seed), p.place(LineAddr::new(0x085), seed));
            assert_ne!(p.place(LineAddr::new(0x005), seed), p.place(LineAddr::new(0x006), seed));
        }
    }

    #[test]
    fn different_seeds_give_different_permutations() {
        let mut p = RpCachePerm::new(&CacheGeometry::paper_l1());
        let differs = (0..128u64).any(|i| {
            p.place(LineAddr::new(i), Seed::new(1)) != p.place(LineAddr::new(i), Seed::new(2))
        });
        assert!(differs);
    }

    #[test]
    fn remap_redirects_and_stays_bijective() {
        let geom = CacheGeometry::paper_l1();
        let mut p = RpCachePerm::new(&geom);
        let seed = Seed::new(3);
        let line = LineAddr::new(0x42);
        let before = p.place(line, seed);
        let mut rng = SplitMix64::new(9);
        let new_set = p.remap_on_contention(line, seed, &mut rng);
        // Future lookups follow the remap.
        assert_eq!(p.place(line, seed), new_set);
        // The table remains a bijection.
        let mut seen = vec![false; geom.sets() as usize];
        for i in 0..geom.sets() as u64 {
            let set = p.place(LineAddr::new(i), seed) as usize;
            assert!(!seen[set], "post-remap collision");
            seen[set] = true;
        }
        // The displaced index took the old set of `line` (swap).
        let displaced = (0..128u64).map(LineAddr::new).find(|&l| p.place(l, seed) == before);
        assert!(displaced.is_some());
        let _ = before;
    }

    #[test]
    fn tables_are_lazy() {
        let mut p = RpCachePerm::new(&CacheGeometry::paper_l1());
        assert_eq!(p.table_count(), 0);
        p.place(LineAddr::new(1), Seed::new(10));
        p.place(LineAddr::new(2), Seed::new(10));
        assert_eq!(p.table_count(), 1);
        p.place(LineAddr::new(1), Seed::new(11));
        assert_eq!(p.table_count(), 2);
    }
}
