//! Conventional modulo placement (the deterministic baseline).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::seed::Seed;

/// Modulo placement: the set is the low index bits of the line address.
///
/// This is the time-deterministic baseline of the paper's evaluation
/// (§6.1.2 setup *(a)*): timing depends directly on memory layout, so
/// it is neither MBPTA-analysable across integrations nor robust
/// against contention side channels.
///
/// # Examples
///
/// ```
/// use tscache_core::addr::LineAddr;
/// use tscache_core::geometry::CacheGeometry;
/// use tscache_core::placement::Modulo;
/// use tscache_core::seed::Seed;
///
/// let p = Modulo::new(&CacheGeometry::paper_l1());
/// // The seed is ignored: placement is a pure function of the address.
/// assert_eq!(p.place(LineAddr::new(0x81), Seed::new(1)), 1);
/// assert_eq!(p.place(LineAddr::new(0x81), Seed::new(2)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Modulo {
    index_bits: u32,
}

impl Modulo {
    /// Creates modulo placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Modulo { index_bits: geom.index_bits() }
    }

    /// Maps `line` to its set; the seed is ignored.
    #[inline]
    pub fn place(&self, line: LineAddr, _seed: Seed) -> u32 {
        line.index_bits(self.index_bits) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignores_seed() {
        let p = Modulo::new(&CacheGeometry::paper_l1());
        let line = LineAddr::new(0xabcde);
        let s0 = p.place(line, Seed::new(0));
        for s in 1..100u64 {
            assert_eq!(p.place(line, Seed::new(s)), s0);
        }
    }

    #[test]
    fn consecutive_lines_round_robin_sets() {
        let p = Modulo::new(&CacheGeometry::paper_l1());
        for i in 0..256u64 {
            assert_eq!(p.place(LineAddr::new(i), Seed::ZERO), (i % 128) as u32);
        }
    }

    #[test]
    fn same_index_always_conflicts() {
        // The deterministic conflict structure exploited by contention
        // attacks: lines 0 and 128 share a set under every "seed".
        let p = Modulo::new(&CacheGeometry::paper_l1());
        for s in 0..20u64 {
            let seed = Seed::new(s);
            assert_eq!(p.place(LineAddr::new(0), seed), p.place(LineAddr::new(128), seed));
        }
    }
}
