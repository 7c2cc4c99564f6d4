//! **Figure 4** — time variation with respect to the average across all
//! values of input byte number 4, on the deterministic (baseline)
//! setup.
//!
//! Certain values of the byte select AES table lines that the
//! application working set evicts, so encryptions carrying those values
//! run measurably slower — the per-value structure the attacker
//! correlates on.
//!
//! ```text
//! cargo run -p tscache-bench --release --bin fig4_byte_profile -- \
//!     --samples 200000 --byte 4 --seed 0xDAC18
//! ```

use tscache_bench::{bar, Args};
use tscache_core::prng::{Prng, SplitMix64};
use tscache_core::setup::SetupKind;
use tscache_sca::profile::TimingProfile;
use tscache_sca::sampling::{CryptoNode, Role, SamplingConfig};

fn main() {
    let args = Args::from_env();
    let samples: u32 = args.get_int("samples", 200_000);
    let byte = args.get_int::<usize>("byte", 4) % 16;
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== Figure 4: per-value timing deviation, input byte {byte} ==");
    println!("setup: deterministic caches; samples: {samples}\n");

    let cfg = SamplingConfig::standard(SetupKind::Deterministic, samples, seed);
    let mut rng = SplitMix64::new(seed ^ 0x006b_6579);
    let mut victim_key = [0u8; 16];
    for b in victim_key.iter_mut() {
        *b = (rng.next_u32() & 0xff) as u8;
    }
    let mut node =
        CryptoNode::try_new(cfg, Role::Victim, &victim_key).expect("valid sampling config");
    let stream = node.collect();
    let profile = TimingProfile::from_samples(&stream);

    let sig = profile.signature(byte);
    let max_abs = sig.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    println!("global mean: {:.1} cycles; deviations in cycles", profile.global_mean());
    println!("{:>5} {:>9}  |dev| (suppressing |dev| < 20% of max)", "value", "dev");
    let mut shown = 0;
    for (v, d) in sig.iter().enumerate() {
        if d.abs() >= 0.2 * max_abs {
            println!("{:>5} {:>+9.2}  {}", v, d, bar(d.abs(), max_abs, 40));
            shown += 1;
        }
    }
    println!("... {} quiet values omitted", 256 - shown);

    // The slow values share table lines with the true key byte's
    // first-round accesses: group them by table line (8 values/line for
    // 32-byte lines).
    let mut line_means = [0.0f64; 32];
    for (v, d) in sig.iter().enumerate() {
        line_means[v >> 3] += d / 8.0;
    }
    println!("\nper-table-line mean deviation (value/8):");
    for (line, d) in line_means.iter().enumerate() {
        if d.abs() > 0.1 * max_abs {
            println!("  line {:>2} (values {:>3}..{:>3}): {:+.2}", line, line * 8, line * 8 + 7, d);
        }
    }
    println!(
        "\nkey byte {byte} = {} (table line {}): the slow lines reveal v XOR k's line",
        victim_key[byte],
        victim_key[byte] >> 3
    );
}
