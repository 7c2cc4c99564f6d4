//! **Ablation** — attack convergence: key bits determined versus the
//! number of timing samples (Bernstein used 10⁷ noisy hardware samples;
//! our noiseless simulator converges orders of magnitude earlier —
//! this sweep locates the knee).
//!
//! ```text
//! cargo run -p tscache-bench --release --bin abl_attack_convergence -- \
//!     --max-samples 160000 --seed 0xDAC18
//! ```

use tscache_bench::{bar, Args};
use tscache_core::setup::SetupKind;
use tscache_sca::bernstein::run_attack;
use tscache_sca::sampling::SamplingConfig;

fn main() {
    let args = Args::from_env();
    let max: u32 = args.get_int("max-samples", 160_000);
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== ablation: sample count vs key bits determined ==\n");
    println!("{:>9}  {:<14} {:>7}  {:<26}  {:<14} {:>7}", "samples", "", "bits", "", "", "bits");
    let mut n = max / 16;
    while n <= max {
        let det = run_attack(SamplingConfig::standard(SetupKind::Deterministic, n, seed))
            .expect("valid sampling config");
        let ts = run_attack(SamplingConfig::standard(SetupKind::TsCache, n, seed))
            .expect("valid sampling config");
        println!(
            "{:>9}  {:<14} {:>7.1}  {:<26}  {:<14} {:>7.1}",
            n,
            "deterministic",
            det.bits_determined(),
            bar(det.bits_determined(), 64.0, 26),
            "tscache",
            ts.bits_determined()
        );
        n *= 2;
    }
    println!("\nthe deterministic leak saturates once each (byte, value) cell has");
    println!("enough samples to resolve one L2-refill delta; TSCache stays at the");
    println!("noise floor at every scale.");
}
