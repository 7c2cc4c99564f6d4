//! **Ablation** — seed rotation period versus attack success.
//!
//! §5 leaves the re-seeding granularity open (from once per task to
//! once per job). This ablation separates the two defensive
//! ingredients: *seed uniqueness* (TSCache) defeats the attack at every
//! rotation period, while *seed rotation alone* (MBPTACache, shared
//! seeds) only dilutes it — shorter epochs average the shared-layout
//! signal away, longer epochs let the attacker exploit it.
//!
//! ```text
//! cargo run -p tscache-bench --release --bin abl_seed_rotation -- \
//!     --samples 120000 --seed 0xDAC18
//! ```

use tscache_bench::Args;
use tscache_core::setup::SetupKind;
use tscache_sca::bernstein::run_attack;
use tscache_sca::sampling::SamplingConfig;

fn main() {
    let args = Args::from_env();
    let samples: u32 = args.get_int("samples", 120_000);
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== ablation: seed rotation period vs Bernstein attack ==");
    println!("{samples} samples per node\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>14}",
        "setup", "reseed", "bits", "residual", "vulnerable"
    );
    for setup in [SetupKind::Mbpta, SetupKind::TsCache] {
        for reseed in [4096u32, 32_768, 0] {
            let mut cfg = SamplingConfig::standard(setup, samples, seed);
            cfg.reseed_every = reseed;
            let r = run_attack(cfg).expect("valid sampling config");
            println!(
                "{:<14} {:>12} {:>12.1} {:>12} {:>11}/16",
                setup.label(),
                if reseed == 0 { "never".to_string() } else { reseed.to_string() },
                r.bits_determined(),
                format!("2^{:.1}", r.residual_keyspace_log2()),
                r.vulnerable_bytes()
            );
        }
        println!();
    }
    println!("takeaway: rotation changes how much a *shared* seed leaks; only");
    println!("per-process uniqueness (TSCache) removes the channel at every period.");
}
