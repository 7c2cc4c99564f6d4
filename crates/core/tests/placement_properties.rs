//! Property-based tests (proptest) for the placement policies and the
//! Benes-style permutation network.

use proptest::prelude::*;
use tscache_core::addr::LineAddr;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::{PermutationNetwork, PlacementEngine, PlacementKind};
use tscache_core::prng::mix64;
use tscache_core::seed::Seed;

/// The network evaluated switch by switch on a value, straight from
/// its definition, as an oracle independent of
/// `PermutationNetwork::bit_permutation` (the reference cache model
/// builds Random Modulo from the same engine, so it cannot catch a
/// network bug).
fn reference_apply(k: u32, value: u32, control: u64) -> u32 {
    if k < 2 {
        return value;
    }
    let stages = 2 * k - 1;
    let mut x = value;
    let mut ctrl = control;
    let switches_per_stage = k / 2;
    for stage in 0..stages {
        // Stage `stage` pairs bit positions (2t+stage, 2t+1+stage)
        // mod k; the pairs are disjoint, so the stage is a valid
        // layer of exchange switches.
        for t in 0..switches_per_stage {
            let take = ctrl & 1;
            ctrl >>= 1;
            if ctrl == 0 {
                // Refill the control stream deterministically so
                // deep networks never run out of bits.
                ctrl = mix64(control ^ ((stage as u64) << 32) ^ t as u64);
            }
            if take == 1 {
                let i = (2 * t + stage) % k;
                let j = (2 * t + 1 + stage) % k;
                x = swap_bits(x, i, j);
            }
        }
    }
    x
}

/// Swaps bit positions `i` and `j` of `x` (no-op when the bits are
/// equal).
fn swap_bits(x: u32, i: u32, j: u32) -> u32 {
    let bit_i = (x >> i) & 1;
    let bit_j = (x >> j) & 1;
    if bit_i == bit_j {
        x
    } else {
        x ^ (1 << i) ^ (1 << j)
    }
}

/// Permutes `v` through `labels`: bit `j` of the result is bit
/// `labels >> 4j & 15` of `v`.
fn permute(labels: u64, k: u32, v: u32) -> u32 {
    (0..k).fold(0, |out, j| out | ((v >> ((labels >> (4 * j)) & 0xf)) & 1) << j)
}

/// `(k, value, control) → output`, recorded from the bit-serial
/// network. Controls 0, 5 and `1 << 37` at `k = 7` run out of bits
/// mid-evaluation and take the refill rule.
const GOLDEN: [(u32, u32, u64, u32); 7] = [
    (7, 0x59, 0, 0x2b),
    (7, 0x59, 5, 0x6a),
    (7, 0x59, 1 << 37, 0x5a),
    (7, 0x59, 0xdead_beef, 0x56),
    (7, 0x0b, u64::MAX, 0x61),
    (8, 0xa5, 0x0123_4567_89ab_cdef, 0xc6),
    (11, 0x5a3, 12345, 0x4c7),
];

#[test]
fn benes_reproduces_recorded_outputs() {
    for (k, value, control, expected) in GOLDEN {
        let labels = PermutationNetwork::new(k).bit_permutation(control);
        assert_eq!(
            permute(labels, k, value),
            expected,
            "k={k} value={value:#x} control={control:#x}"
        );
        assert_eq!(reference_apply(k, value, control), expected, "reference at k={k}");
    }
}

proptest! {
    /// The position labels name, for every output bit, the input bit
    /// the bit-serial reference moves there, at every width (0..=16),
    /// for full-width controls, for controls short enough that the
    /// refill rule fires mid-evaluation, and for tiny controls. Unit
    /// values pin every label; the drawn value checks them together.
    #[test]
    fn benes_matches_bit_serial_reference(
        value in any::<u32>(),
        control in any::<u64>(),
        shift in 26u32..64,
        small in 0u64..4096,
    ) {
        for k in 0..=16u32 {
            let net = PermutationNetwork::new(k);
            let v = value & ((1u64 << k) - 1) as u32;
            for c in [control, control >> shift, small] {
                let labels = net.bit_permutation(c);
                for v in (0..k).map(|p| 1 << p).chain([v]) {
                    prop_assert_eq!(
                        permute(labels, k, v),
                        reference_apply(k, v, c),
                        "k={} value={:#x} control={:#x} labels={:#x}",
                        k,
                        v,
                        c,
                        labels
                    );
                }
            }
        }
    }

    /// Random Modulo places every line where the bit-serial network
    /// does, at every width it is built at (0..=16 index bits), through
    /// its page memo: each page is revisited, two seeds alternate, and
    /// three of the four pages share one memo slot under each seed
    /// (tags 1,024 apart; the slot is `(tag ^ seed·φ) mod 128`), so
    /// every revisit may find its slot refilled by another page.
    #[test]
    fn random_modulo_matches_the_bit_serial_network(
        tag in 0u64..1 << 40,
        other_tag in 0u64..1 << 40,
        seeds in (any::<u64>(), any::<u64>()),
        indices in prop::collection::vec(any::<u64>(), 4..9),
    ) {
        let pages = [tag, tag + 1024, other_tag, tag + 2048];
        for k in 0..=16u32 {
            let geom = CacheGeometry::new(1 << k, 4, 32).unwrap();
            let mut p = PlacementEngine::new(PlacementKind::RandomModulo, &geom);
            let mask = (1u64 << k) - 1;
            for _round in 0..2 {
                for seed in [seeds.0, seeds.1] {
                    for page in pages {
                        for &index in &indices {
                            let line = LineAddr::new((page << k) | (index & mask));
                            let expected = reference_apply(
                                k,
                                ((index ^ seed) & mask) as u32,
                                mix64(page ^ seed.rotate_left(32)),
                            );
                            prop_assert_eq!(
                                p.place(line, Seed::new(seed)),
                                expected,
                                "k={} line={:#x} seed={:#x}",
                                k,
                                line.as_u64(),
                                seed
                            );
                        }
                    }
                }
            }
        }
    }

    /// The permutation network is a bijection for every control word.
    #[test]
    fn benes_bijective_k7(control in any::<u64>()) {
        let labels = PermutationNetwork::new(7).bit_permutation(control);
        let mut seen = [false; 128];
        for v in 0..128u32 {
            let out = permute(labels, 7, v) as usize;
            prop_assert!(!seen[out], "collision at {out}");
            seen[out] = true;
        }
    }

    /// Bijectivity also holds at the L2 index width.
    #[test]
    fn benes_bijective_k11(control in any::<u64>()) {
        let labels = PermutationNetwork::new(11).bit_permutation(control);
        let mut seen = vec![false; 2048];
        for v in 0..2048u32 {
            let out = permute(labels, 11, v) as usize;
            prop_assert!(!seen[out], "collision at {out}");
            seen[out] = true;
        }
    }

    /// Every policy places every (line, seed) pair inside the set range.
    #[test]
    fn placement_in_range(line in any::<u64>(), seed in any::<u64>()) {
        let geom = CacheGeometry::paper_l1();
        for kind in PlacementKind::ALL {
            let mut p = PlacementEngine::new(kind, &geom);
            let set = p.place(LineAddr::new(line >> 5), Seed::new(seed));
            prop_assert!(set < geom.sets(), "{kind}: {set}");
        }
    }

    /// Placement is a pure function of (line, seed) for every policy
    /// (absent contention remaps).
    #[test]
    fn placement_deterministic(line in any::<u64>(), seed in any::<u64>()) {
        let geom = CacheGeometry::paper_l1();
        for kind in PlacementKind::ALL {
            let mut p = PlacementEngine::new(kind, &geom);
            let l = LineAddr::new(line >> 5);
            let s = Seed::new(seed);
            prop_assert_eq!(p.place(l, s), p.place(l, s), "{}", kind);
        }
    }

    /// Random Modulo: no two lines of the same page ever share a set
    /// (mbpta-p3), for arbitrary pages and seeds.
    #[test]
    fn random_modulo_intra_page_injective(page in 0u64..1_000_000, seed in any::<u64>()) {
        let geom = CacheGeometry::paper_l1();
        let mut p = PlacementEngine::new(PlacementKind::RandomModulo, &geom);
        let lines_per_page = 128u64; // 4 KiB page / 32 B lines
        let s = Seed::new(seed);
        let mut seen = [false; 128];
        for i in 0..lines_per_page {
            let set = p.place(LineAddr::new(page * lines_per_page + i), s) as usize;
            prop_assert!(!seen[set], "intra-page collision at set {set}");
            seen[set] = true;
        }
    }

    /// Modulo ignores the seed entirely.
    #[test]
    fn modulo_seed_invariant(line in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let geom = CacheGeometry::paper_l2();
        let mut p = PlacementEngine::new(PlacementKind::Modulo, &geom);
        let l = LineAddr::new(line >> 5);
        prop_assert_eq!(p.place(l, Seed::new(s1)), p.place(l, Seed::new(s2)));
    }

    /// XOR-index preserves the modulo conflict relation for every seed.
    #[test]
    fn xor_index_preserves_conflict_relation(
        a in any::<u64>(),
        b in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let geom = CacheGeometry::paper_l1();
        let mut xor = PlacementEngine::new(PlacementKind::XorIndex, &geom);
        let mut modulo = PlacementEngine::new(PlacementKind::Modulo, &geom);
        let (la, lb) = (LineAddr::new(a >> 5), LineAddr::new(b >> 5));
        let s = Seed::new(seed);
        let conflict_mod = modulo.place(la, Seed::ZERO) == modulo.place(lb, Seed::ZERO);
        let conflict_xor = xor.place(la, s) == xor.place(lb, s);
        prop_assert_eq!(conflict_mod, conflict_xor);
    }

    /// RPCache per-seed tables are permutations of the set space.
    #[test]
    fn rpcache_tables_bijective(seed in any::<u64>()) {
        let geom = CacheGeometry::paper_l1();
        let mut p = PlacementEngine::new(PlacementKind::RpCache, &geom);
        let s = Seed::new(seed);
        let mut seen = [false; 128];
        for i in 0..128u64 {
            let set = p.place(LineAddr::new(i), s) as usize;
            prop_assert!(!seen[set]);
            seen[set] = true;
        }
    }

    /// HashRP single-bit neighbours must *sometimes* collide across a
    /// seed population (the full-randomness property a purely linear
    /// hash cannot deliver).
    #[test]
    fn hash_rp_single_bit_pairs_collide_sometimes(base in any::<u64>(), bit in 0u32..40) {
        let geom = CacheGeometry::paper_l1();
        let mut p = PlacementEngine::new(PlacementKind::HashRp, &geom);
        let a = LineAddr::new(base >> 10);
        let b = LineAddr::new((base >> 10) ^ (1u64 << bit));
        prop_assume!(a != b);
        let mut collide = 0u32;
        for s in 0..4096u64 {
            if p.place(a, Seed::new(s)) == p.place(b, Seed::new(s)) {
                collide += 1;
            }
        }
        // Expected ≈ 32; demand at least a handful and not all.
        prop_assert!(collide > 0, "pair never collides");
        prop_assert!(collide < 4096, "pair always collides");
    }
}
