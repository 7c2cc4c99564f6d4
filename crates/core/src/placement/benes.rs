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
//! # Evaluation on position labels
//!
//! The switches depend on the control word alone, never on the value
//! being permuted, so one control word selects one permutation of the
//! `k` bit positions. [`PermutationNetwork::bit_permutation`] computes
//! it once, for every value at once: it runs the stages on a word of
//! `k` 4-bit lanes, lane `i` starting as the label `i`, and moves lanes
//! exactly as the network moves bits. After the last stage lane `j`
//! holds the input bit position the network moves to output bit `j`.
//! Labels fit one `u64` up to 16 wires, the most a network takes.
//! Random Modulo builds its per-page lookup tables from them.
//!
//! Stage `s` pairs positions `(2t+s, 2t+1+s) mod k`, `t < ⌊k/2⌋`. In
//! a frame rotated right by `s` these are the adjacent pairs
//! `(2t, 2t+1)`, which never wrap, so each stage is one delta swap on
//! the even/odd lane pairs followed by a one-lane rotate into the next
//! stage's frame; one final rotate undoes the frame. A 256-entry table
//! spreads a stage's switch bits onto its lane pairs. Only the refill
//! check below branches, on the control word, and nothing divides.
//!
//! # Control-stream contract
//!
//! Switch `t` of stage `s` takes the next bit of a stream that starts
//! as the control word, low bit first. When taking a bit leaves the
//! stream zero, the stream is refilled right after it with
//! `mix64(control ^ (s << 32) ^ t)`. Every Random Modulo placement
//! depends on this rule bit for bit; the evaluation order does not.

use crate::prng::mix64;

/// The most wires a network takes: `k` position labels of 4 bits fill
/// one `u64`.
const MAX_WIRES: u32 = 16;

/// A controlled-exchange permutation network on `k`-bit values.
///
/// # Examples
///
/// ```
/// use tscache_core::placement::PermutationNetwork;
///
/// let net = PermutationNetwork::new(7);
/// let labels = net.bit_permutation(0xdead_beef);
/// // Output bit j takes input bit `labels >> 4j & 15`, so the seven
/// // labels name every input bit once: the map is a bijection on
/// // 0..128 for any control word.
/// let mut seen = [false; 7];
/// for j in 0..7 {
///     seen[(labels >> (4 * j) & 15) as usize] = true;
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
    /// Panics if `k > 16`.
    pub fn new(k: u32) -> Self {
        assert!(k <= MAX_WIRES, "a permutation network takes at most {MAX_WIRES} wires, not {k}");
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

    /// The bit permutation `control` selects, as `k` position labels:
    /// bit `j` of the permuted value is bit `labels >> 4j & 15` of the
    /// input, for every input. Switch `t` of stage `s` exchanges bit
    /// positions `(2t+s, 2t+1+s) mod k` when its bit of the control
    /// stream (see the [module docs](self)) is set. For every control
    /// word the labels name each of the `k` positions once, so the map
    /// is a bijection of the `2^k` values. The labels are 0 when
    /// `k < 2`, where the network is the identity.
    #[inline]
    pub fn bit_permutation(&self, control: u64) -> u64 {
        let k = self.k;
        if k < 2 {
            return 0;
        }
        let half = k / 2;
        let rotate_right_one = |x: u64| (x >> 4) | ((x & 0xf) << (4 * (k - 1)));
        // Lane i holds label i.
        let mut labels = 0xfedc_ba98_7654_3210 & (u64::MAX >> (64 - 4 * k));
        let mut ctrl = control;
        for stage in 0..self.stages() {
            // While the stream holds more than ⌊k/2⌋ bits no refill can
            // fall inside this stage, so its bits are taken as one
            // chunk; otherwise a cold helper reads them one at a time
            // under the refill rule (at k = 7, only for controls below
            // 2^39).
            let takes;
            (takes, ctrl) = if ctrl >> half != 0 {
                ((ctrl & ((1 << half) - 1)) as u8, ctrl >> half)
            } else {
                takes_with_refill(ctrl, control, stage, half)
            };
            // The swap is `labels ^ d ^ (d << 4)`. The rotate
            // distributes over `^` and takes `d << 4`, which has nothing
            // in lane 0, back to `d`, so `labels` rotates while `d` is
            // computed.
            let d = (labels ^ (labels >> 4)) & SPREAD_EVEN_LANES[usize::from(takes)];
            labels = rotate_right_one(labels) ^ rotate_right_one(d) ^ d;
        }
        // The 2k−1 stage rotates plus this one make two full turns.
        rotate_right_one(labels)
    }
}

/// Takes stage `stage`'s `half` switch bits from the stream `ctrl` one
/// at a time under the refill rule. Returns them, switch `t`'s bit at
/// position `t`, and the stream left after them.
#[cold]
fn takes_with_refill(mut ctrl: u64, control: u64, stage: u32, half: u32) -> (u8, u64) {
    let mut takes = 0;
    for t in 0..half {
        takes |= (ctrl as u8 & 1) << t;
        ctrl >>= 1;
        if ctrl == 0 {
            ctrl = mix64(control ^ (u64::from(stage) << 32) ^ u64::from(t));
        }
    }
    (takes, ctrl)
}

/// Entry `b` sets lane `2t` (bits `8t..8t+4`) to `0xf` for each bit `t`
/// of `b`: the lanes a stage whose switch bits are `b` swaps with their
/// upper neighbours. A stage has at most 8 switches.
static SPREAD_EVEN_LANES: [u64; 256] = spread_even_lanes();

const fn spread_even_lanes() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut t = 0;
        while t < 8 {
            if b >> t & 1 == 1 {
                table[b] |= 0xf << (8 * t);
            }
            t += 1;
        }
        b += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Permutes `v` through `labels`: bit `j` of the result is bit
    /// `labels >> 4j & 15` of `v`.
    fn permute(labels: u64, k: u32, v: u32) -> u32 {
        (0..k).fold(0, |out, j| out | (v >> (labels >> (4 * j) & 15) & 1) << j)
    }

    #[test]
    fn identity_for_tiny_widths() {
        for k in [0u32, 1] {
            let labels = PermutationNetwork::new(k).bit_permutation(12345);
            assert_eq!(labels, 0);
            for v in 0..(1u32 << k) {
                assert_eq!(permute(labels, k, v), v);
            }
        }
    }

    #[test]
    fn bijective_for_every_sampled_control_k7() {
        let net = PermutationNetwork::new(7);
        for c in [0u64, 1, 0xff, 0xdead_beef, u64::MAX, 0x0123_4567_89ab_cdef] {
            let labels = net.bit_permutation(c);
            let mut seen = [false; 128];
            for v in 0..128u32 {
                let out = permute(labels, 7, v) as usize;
                assert!(!seen[out], "control {c:#x}: collision at {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn bijective_for_every_sampled_control_k11() {
        let net = PermutationNetwork::new(11);
        for c in [3u64, 0xabcdef, u64::MAX / 3] {
            let labels = net.bit_permutation(c);
            let mut seen = vec![false; 2048];
            for v in 0..2048u32 {
                let out = permute(labels, 11, v) as usize;
                assert!(!seen[out], "control {c:#x}: collision at {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn different_controls_give_different_permutations() {
        let net = PermutationNetwork::new(7);
        let base = net.bit_permutation(0);
        let distinct = (1..64u64).filter(|&c| net.bit_permutation(c) != base).count();
        assert!(distinct > 55, "only {distinct}/63 controls differ from control 0");
    }

    #[test]
    fn preserves_popcount() {
        // Bit-position permutations preserve the number of set bits —
        // a structural invariant of the exchange network (the seed XOR
        // stage in RandomModulo is what breaks this symmetry).
        let net = PermutationNetwork::new(7);
        for c in [7u64, 99, 12345] {
            let labels = net.bit_permutation(c);
            for v in 0..128u32 {
                assert_eq!(permute(labels, 7, v).count_ones(), v.count_ones());
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
