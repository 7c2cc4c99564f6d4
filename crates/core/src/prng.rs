//! Deterministic pseudo-random number generators.
//!
//! Random caches need a hardware-friendly PRNG to draw seeds and random
//! replacement victims (paper §2.1 cites IEC-61508-compliant PRNGs, reference \[3\]).
//! Every stream in the simulator is a [`SplitMix64`], the de-facto
//! standard 64-bit mixer, behind the [`Prng`] interface; its stateless
//! [`mix64`] finalizer serves placement hashes and seed derivation.
//!
//! A generator is a deterministic function of its 64-bit seed, so every
//! experiment in this repository is bit-reproducible.

/// Stateless 64-bit finalizer (the SplitMix64 output function).
///
/// Used by placement policies as an idealized random hash: it is a
/// bijection on `u64`, and flipping any input bit flips each output bit
/// with probability ~1/2.
///
/// # Examples
///
/// ```
/// use tscache_core::prng::mix64;
///
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The draws every stream offers, built on its raw 64-bit output.
pub trait Prng {
    /// Returns the next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 pseudo-random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses the widening-multiply technique with rejection, so the
    /// distribution is exactly uniform for any `bound > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below() requires a non-zero bound");
        // Lemire's method with rejection for exact uniformity.
        let mut x = self.next_u32();
        let mut m = (x as u64) * (bound as u64);
        let mut l = m as u32;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u32();
                m = (x as u64) * (bound as u64);
                l = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Shuffles `slice` in place (Fisher-Yates).
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// SplitMix64: a 64-bit generator with a single u64 of state.
///
/// # Examples
///
/// ```
/// use tscache_core::prng::{Prng, SplitMix64};
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Prng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        // Consecutive inputs should differ in many bits.
        let d = (mix64(1) ^ mix64(2)).count_ones();
        assert!(d > 16, "only {d} differing bits");
    }

    #[test]
    fn splitmix_reproducible() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers_values() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn below_zero_panics() {
        SplitMix64::new(1).below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(3);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        let expected = n as f64 / 10.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} deviates {dev}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely identity");
    }
}
