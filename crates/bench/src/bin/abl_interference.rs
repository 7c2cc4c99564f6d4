//! **Ablation** — interference intensity versus leak size.
//!
//! The Bernstein channel is *contention*: the fraction of AES table
//! lines the task's own working set aliases bounds how many key bytes
//! can leak. Sweeping the number of aliased table lines shows the
//! deterministic leak growing with the contended surface while TSCache
//! stays flat.
//!
//! ```text
//! cargo run -p tscache-bench --release --bin abl_interference -- \
//!     --samples 80000 --seed 0xDAC18
//! ```

use tscache_bench::Args;
use tscache_core::setup::SetupKind;
use tscache_sca::bernstein::run_attack;
use tscache_sca::sampling::SamplingConfig;

fn main() {
    let args = Args::from_env();
    let samples: u32 = args.get_int("samples", 80_000);
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== ablation: aliased table lines vs leak ==");
    println!("{samples} samples per node\n");
    println!(
        "{:<8} | {:<14} {:>7} {:>11} | {:<14} {:>7} {:>11}",
        "aliased", "", "bits", "vulnerable", "", "bits", "vulnerable"
    );
    for lines in [0u32, 2, 6, 10, 16, 20] {
        let mut row = Vec::new();
        for setup in [SetupKind::Deterministic, SetupKind::TsCache] {
            let mut cfg = SamplingConfig::standard(setup, samples, seed);
            cfg.app_target_lines = lines;
            let r = run_attack(cfg).expect("valid sampling config");
            row.push((setup, r));
        }
        println!(
            "{:<8} | {:<14} {:>7.1} {:>8}/16 | {:<14} {:>7.1} {:>8}/16",
            lines,
            row[0].0.label(),
            row[0].1.bits_determined(),
            row[0].1.vulnerable_bytes(),
            row[1].0.label(),
            row[1].1.bits_determined(),
            row[1].1.vulnerable_bytes()
        );
    }
    println!("\nwith no aliased lines the only residual pressure is the background");
    println!("working set and the OS; the engineered TE0/TE2 aliasing is what makes");
    println!("the even-family bytes leak on the deterministic cache.");
}
