//! **Figure 5** — effectiveness of Bernstein's attack on the four cache
//! setups (deterministic, RPCache, MBPTACache, TSCache).
//!
//! For each setup: two emulated processors run AES-128 (attacker key
//! known, victim key random); per-byte timing profiles are correlated
//! over all key hypotheses; the stringent threshold keeps, per byte,
//! every value scoring at least the true value's score. The matrix uses
//! the paper's encoding — `.` discarded (white), `+` feasible (grey),
//! `#` the key (black) — condensed to 64 columns for the terminal (full
//! 256-column rows with `--full 1`).
//!
//! ```text
//! cargo run -p tscache-bench --release --bin fig5_bernstein -- \
//!     --samples 200000 --seed 0xDAC18 [--full 1]
//! ```

use tscache_bench::Args;
use tscache_core::setup::SetupKind;
use tscache_sca::bernstein::run_attack;
use tscache_sca::sampling::SamplingConfig;

fn main() {
    let args = Args::from_env();
    let samples: u32 = args.get_int("samples", 200_000);
    let seed: u64 = args.get_int("seed", 0xDAC18);
    let full = args.get_int::<u64>("full", 0) != 0;

    println!("== Figure 5: Bernstein attack effectiveness ==");
    println!("samples per node: {samples} (paper: 10^7; the simulator is noiseless)\n");

    let mut rows = Vec::new();
    for setup in SetupKind::ALL {
        // Operator-facing progress timing only; never enters results.
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let cfg = SamplingConfig::standard(setup, samples, seed);
        let result = run_attack(cfg).expect("valid sampling config");
        println!("--- {} ({:.1}s) ---", setup.label(), start.elapsed().as_secs_f64());
        println!(
            "key bits determined: {:.1} / 128; residual keyspace: 2^{:.1}; vulnerable bytes: {}/16",
            result.bits_determined(),
            result.residual_keyspace_log2(),
            result.vulnerable_bytes()
        );
        print!("vulnerable byte positions: ");
        for b in &result.bytes {
            if b.is_vulnerable() {
                print!("{}({:.1}b) ", b.byte, b.bits_determined());
            }
        }
        println!();
        println!("{}", if full { result.matrix() } else { result.matrix_condensed() });
        rows.push((setup, result));
    }

    println!("== summary (paper values in parentheses) ==");
    let paper = ["2^80", "2^108", "2^104", "2^128"];
    for ((setup, result), paper_val) in rows.iter().zip(paper) {
        println!(
            "{:<14} residual keyspace 2^{:>5.1}   ({})",
            setup.label(),
            result.residual_keyspace_log2(),
            paper_val
        );
    }
}
