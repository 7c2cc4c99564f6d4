//! **§3–§4 (matrix)** — empirical verification of the placement
//! properties the paper uses to classify each cache design:
//! `mbpta-p2` (full randomness), `mbpta-p3` (partial APOP-fixed
//! randomness) and the sca-p1 precondition (randomized cross-seed
//! contention).
//!
//! ```text
//! cargo run -p tscache-bench --release --bin tab_compliance_matrix -- \
//!     --seeds 2048 --pairs 48
//! ```

use tscache_bench::Args;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::PlacementKind;
use tscache_core::properties::{check_placement, CheckConfig};

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn main() {
    let args = Args::from_env();
    let cfg = CheckConfig {
        seeds: args.get_int("seeds", 2048),
        pairs: args.get_int("pairs", 48),
        page_bits: args.get_int("page-bits", 12),
        rng_seed: args.get_int("seed", 0x70707),
    };
    let geom = CacheGeometry::paper_l1();

    println!("== §3-§4: placement property matrix (L1 geometry: {geom}) ==");
    println!("{} seeds x {} pairs per check\n", cfg.seeds, cfg.pairs);
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>10} {:>11} {:>10}  class (empirical)",
        "policy", "relocates", "pair-rand", "invariant", "page-free", "cross-page", "cross-seed"
    );

    for kind in PlacementKind::ALL {
        let r = check_placement(kind, &geom, &cfg);
        println!(
            "{:<14} {:>9} {:>10} {:>10} {:>10} {:>11} {:>10}  {}",
            kind.to_string(),
            yn(r.relocates_across_seeds),
            yn(r.pairwise_conflicts_randomized),
            yn(r.conflict_structure_seed_invariant),
            yn(r.intra_page_conflict_free),
            yn(r.cross_page_conflicts_randomized),
            yn(r.cross_seed_contention_randomized),
            r.empirical_class()
        );
        assert!(
            r.consistent_with_declared(),
            "{kind}: empirical class diverges from the paper's analysis"
        );
    }

    println!("\nverdicts (paper §3-§5):");
    println!("  modulo        -> deterministic: neither MBPTA nor SCA robust");
    println!("  xor-index     -> relocates, but conflicts never change: breaks mbpta-p2 (§3)");
    println!("  rpcache       -> per-process permutations keep modulo's conflict structure: not MBPTA (§3)");
    println!("  hash-rp       -> full randomness (mbpta-p2): MBPTA-compliant, SCA-robust with unique seeds");
    println!(
        "  random-modulo -> partial APOP-fixed randomness (mbpta-p3): same, and page-conflict-free"
    );
    println!("  TSCache       =  random-modulo/hash-rp hardware + per-SWC seeds (§5)");
}
