//! Idealized uniform random placement (test gold standard).

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use crate::prng::mix64;
use crate::seed::Seed;

/// Ideal random placement: a full 64-bit mix of `(line, seed)` reduced
/// to the index width.
///
/// Not a hardware design — it models the abstract "fully random and
/// independent placement" that HashRP approximates, and serves as the
/// reference distribution in statistical property tests.
#[derive(Debug, Clone)]
pub struct IdealRandom {
    sets: u32,
}

impl IdealRandom {
    /// Creates ideal random placement for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        IdealRandom { sets: geom.sets() }
    }

    /// Maps `line` under `seed` to its set.
    #[inline]
    pub fn place(&self, line: LineAddr, seed: Seed) -> u32 {
        (mix64(line.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed.as_u64())
            & (self.sets - 1) as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniformity_chi2() {
        let geom = CacheGeometry::paper_l1();
        let p = IdealRandom::new(&geom);
        let mut counts = vec![0u32; geom.sets() as usize];
        let n = 128_000u64;
        for i in 0..n {
            counts[p.place(LineAddr::new(i), Seed::new(42)) as usize] += 1;
        }
        let expected = n as f64 / geom.sets() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 200.0, "chi2 = {chi2}");
    }

    #[test]
    fn pair_collision_rate_near_one_over_sets() {
        let geom = CacheGeometry::paper_l1();
        let p = IdealRandom::new(&geom);
        let (a, b) = (LineAddr::new(100), LineAddr::new(228));
        let n = 50_000u64;
        let collisions =
            (0..n).filter(|&s| p.place(a, Seed::new(s)) == p.place(b, Seed::new(s))).count();
        let rate = collisions as f64 / n as f64;
        let ideal = 1.0 / geom.sets() as f64;
        assert!((rate - ideal).abs() < ideal * 0.5, "rate {rate} vs ideal {ideal}");
    }
}
