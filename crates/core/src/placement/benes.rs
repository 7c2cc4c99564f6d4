//! Benes-style controlled-exchange permutation network.
//!
//! Random Modulo feeds the seed-XORed index bits into a Benes network
//! whose switches are driven by the seed-XORed tag bits (paper §4,
//! Fig. 2b). A Benes network built from 2-input exchange switches
//! permutes *bit positions*; combined with the input XOR stage the
//! overall map is, for every control word, a **bijection** on the
//! `2^k`-value index space. Bijectivity is what yields `mbpta-p3`: two
//! lines of the same page (same tag ⇒ same control word) can never
//! collide in a set.
//!
//! This module implements the network as `2k−1` stages of disjoint
//! controlled bit-position swaps, the same expressiveness class as the
//! hardware network (an affine-in-GF(2) permutation per control word).
//!
//! # Evaluation
//!
//! Stage `s` pairs bit positions `(2t+s, 2t+1+s) mod k`, `t < ⌊k/2⌋`.
//! In a frame rotated right by `s` these are the adjacent pairs
//! `(2t, 2t+1)`, which never wrap, so each stage is one delta swap on
//! the even/odd pairs followed by a one-bit rotate into the next
//! stage's frame; one final rotate undoes the frame. Nothing branches
//! on the value, only the refill check below branches on the control
//! word, and nothing divides.
//!
//! # Control-stream contract
//!
//! Switch `t` of stage `s` takes the next bit of a stream that starts
//! as the control word, low bit first. When taking a bit leaves the
//! stream zero, the stream is refilled right after it with
//! `mix64(control ^ (s << 32) ^ t)`. Every Random Modulo placement
//! depends on this rule bit for bit; the evaluation order does not.

use crate::prng::mix64;

/// A controlled-exchange permutation network on `k`-bit values.
///
/// # Examples
///
/// ```
/// use tscache_core::placement::PermutationNetwork;
///
/// let net = PermutationNetwork::new(7);
/// // For any control word the map is a bijection on 0..128:
/// let mut seen = vec![false; 128];
/// for v in 0..128u32 {
///     seen[net.apply(v, 0xdead_beef) as usize] = true;
/// }
/// assert!(seen.iter().all(|&b| b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutationNetwork {
    k: u32,
}

impl PermutationNetwork {
    /// Creates a network for `k`-bit values (`k` may be 0, in which
    /// case the network is the identity on the single value 0).
    ///
    /// # Panics
    ///
    /// Panics if `k > 31`.
    pub fn new(k: u32) -> Self {
        assert!(k <= 31, "index width {k} exceeds 31 bits");
        PermutationNetwork { k }
    }

    /// Width of the values this network permutes.
    pub const fn width(&self) -> u32 {
        self.k
    }

    /// Number of exchange stages (`2k−1`, the Benes depth for `k`
    /// wires; 0 when `k < 2`).
    pub const fn stages(&self) -> u32 {
        if self.k < 2 {
            0
        } else {
            2 * self.k - 1
        }
    }

    /// Number of control bits consumed per evaluation.
    pub const fn control_bits(&self) -> u32 {
        // Each stage uses floor(k/2) independent switch controls.
        self.stages() * (self.k / 2)
    }

    /// Applies the permutation selected by `control` to `value`.
    ///
    /// The result is a bijection of the `2^k` value space for every
    /// `control`; the identity when `k < 2`. Switch `t` of stage `s`
    /// exchanges bit positions `(2t+s, 2t+1+s) mod k` when its bit of
    /// the control stream (see the [module docs](self)) is set.
    ///
    /// Stages run in the rotated frame. While the stream holds more
    /// than `⌊k/2⌋` bits, no refill can fall inside a stage, and its
    /// bits are taken as one chunk; otherwise a cold helper reads them
    /// one at a time under the refill rule (at `k = 7`, only for
    /// controls below `2^39`).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `value` has bits above `k`.
    #[inline]
    pub fn apply(&self, value: u32, control: u64) -> u32 {
        debug_assert!(
            self.k == 0 || value < (1 << self.k),
            "value {value} wider than {} bits",
            self.k
        );
        let k = self.k;
        if k < 2 {
            return value;
        }
        let half = k / 2;
        let rotate_right_one = |x: u32| (x >> 1) | ((x & 1) << (k - 1));
        let mut x = value;
        let mut ctrl = control;
        for stage in 0..self.stages() {
            let takes = if ctrl >> half != 0 {
                let chunk = ctrl as u32 & ((1 << half) - 1);
                ctrl >>= half;
                chunk
            } else {
                takes_with_refill(&mut ctrl, control, stage, half)
            };
            let d = (x ^ (x >> 1)) & spread_even(takes);
            x = rotate_right_one(x ^ d ^ (d << 1));
        }
        // The 2k−1 stage rotates plus this one make two full turns.
        rotate_right_one(x)
    }
}

/// Takes stage `stage`'s `half` switch bits one at a time under the
/// refill rule; switch `t`'s bit is returned at position `t`.
#[cold]
fn takes_with_refill(ctrl: &mut u64, control: u64, stage: u32, half: u32) -> u32 {
    let mut takes = 0;
    for t in 0..half {
        takes |= (*ctrl as u32 & 1) << t;
        *ctrl >>= 1;
        if *ctrl == 0 {
            *ctrl = mix64(control ^ (u64::from(stage) << 32) ^ u64::from(t));
        }
    }
    takes
}

/// Moves bit `t` of `bits` (`bits < 2^16`) to bit `2t`.
#[inline]
fn spread_even(bits: u32) -> u32 {
    let m = (bits | (bits << 8)) & 0x00ff_00ff;
    let m = (m | (m << 4)) & 0x0f0f_0f0f;
    let m = (m | (m << 2)) & 0x3333_3333;
    (m | (m << 1)) & 0x5555_5555
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_for_tiny_widths() {
        for k in [0u32, 1] {
            let net = PermutationNetwork::new(k);
            for v in 0..(1u32 << k) {
                assert_eq!(net.apply(v, 12345), v);
            }
        }
    }

    #[test]
    fn bijective_for_every_sampled_control_k7() {
        let net = PermutationNetwork::new(7);
        for c in [0u64, 1, 0xff, 0xdead_beef, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut seen = [false; 128];
            for v in 0..128u32 {
                let out = net.apply(v, c) as usize;
                assert!(!seen[out], "control {c:#x}: collision at {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn bijective_for_every_sampled_control_k11() {
        let net = PermutationNetwork::new(11);
        for c in [3u64, 0xabcdef, u64::MAX / 3] {
            let mut seen = vec![false; 2048];
            for v in 0..2048u32 {
                let out = net.apply(v, c) as usize;
                assert!(!seen[out], "control {c:#x}: collision at {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn different_controls_give_different_permutations() {
        let net = PermutationNetwork::new(7);
        let mut distinct = 0;
        for c in 1..64u64 {
            if (0..128).any(|v| net.apply(v, c) != net.apply(v, 0)) {
                distinct += 1;
            }
        }
        assert!(distinct > 55, "only {distinct}/63 controls differ from control 0");
    }

    #[test]
    fn preserves_popcount() {
        // Bit-position permutations preserve the number of set bits —
        // a structural invariant of the exchange network (the seed XOR
        // stage in RandomModulo is what breaks this symmetry).
        let net = PermutationNetwork::new(7);
        for c in [7u64, 99, 12345] {
            for v in 0..128u32 {
                assert_eq!(net.apply(v, c).count_ones(), v.count_ones());
            }
        }
    }

    #[test]
    fn stage_and_control_counts() {
        let net = PermutationNetwork::new(7);
        assert_eq!(net.stages(), 13);
        assert_eq!(net.control_bits(), 13 * 3);
        assert_eq!(PermutationNetwork::new(1).stages(), 0);
    }
}
