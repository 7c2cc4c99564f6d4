//! **§6.2.1 generalization** — Prime+Probe and Evict+Time against the
//! four setups.
//!
//! The paper argues all contention-based attacks fail once victim and
//! attacker layouts are independently randomized; this harness measures
//! the two canonical primitives directly: set-identification accuracy
//! for Prime+Probe (chance = 1/128) and detection rate for Evict+Time
//! (chance = 0.5).
//!
//! ```text
//! cargo run -p tscache-bench --release --bin tab_contention_attacks -- \
//!     --trials 1000 --seed 0xDAC18
//! ```

use tscache_bench::Args;
use tscache_core::defense::DefenseKind;
use tscache_core::setup::SetupKind;
use tscache_sca::evict_time::run_evict_time;
use tscache_sca::prime_probe::run_prime_probe;

fn main() {
    let args = Args::from_env();
    let trials: u32 = args.get_int("trials", 1000);
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== §6.2.1: contention attack primitives ({trials} trials each) ==\n");
    println!(
        "{:<14} {:>16} {:>12} {:>16} {:>10}",
        "setup", "prime+probe acc", "(chance .008)", "evict+time rate", "(chance .5)"
    );
    for setup in SetupKind::ALL {
        let pp = run_prime_probe(setup, DefenseKind::Off, trials, seed).expect("trials > 0");
        let et = run_evict_time(setup, DefenseKind::Off, trials, seed ^ 1).expect("trials > 0");
        println!(
            "{:<14} {:>16.3} {:>12} {:>16.3} {:>10}",
            setup.label(),
            pp.accuracy,
            if pp.leaks() { "LEAKS" } else { "safe" },
            et.detection_rate,
            if et.leaks() { "LEAKS" } else { "safe" }
        );
    }
    println!("\npaper: contention-based attacks rely on deterministic eviction;");
    println!("independent per-process layouts randomize the contention and defeat both.");
}
