//! Cross-core Flush+Reload against AES through the coherent shared
//! platform: the MSI invalidation model gives the attacker a clflush
//! primitive over a shared T-table segment, and this example prints
//! the full ablation — leak on the deterministic platform, chance
//! under per-core way partitions with per-core table replicas, blind
//! reload under randomized per-process placement.
//!
//! ```text
//! cargo run --release --example flush_reload [samples] [seed]
//! ```

use tscache::core::setup::SetupKind;
use tscache::sca::flush_reload::{run_flush_reload, FlushReloadConfig, FlushReloadIsolation};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let samples: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0xF1A5);

    println!("Flush+Reload demo: {samples} flush→encrypt→reload rounds per campaign\n");
    println!("The victim's AES T-tables live in a shared coherent segment; per");
    println!("round the attacker flushes TE0's 32 lines (the coherence protocol");
    println!("drains every tracked copy), lets the victim encrypt one known");
    println!("plaintext, and reloads: a line back in the shared level was touched");
    println!("by the victim — TE0[pt[0] ^ k[0]] ties it to the key byte.\n");

    println!(
        "{:<16} {:<24} {:>10} {:>12} {:>14}  verdict",
        "setup", "isolation", "rank", "reload hits", "victim drains"
    );
    let cases = [
        (SetupKind::Deterministic, FlushReloadIsolation::SharedOpen),
        (SetupKind::Deterministic, FlushReloadIsolation::PartitionedReplicated),
        (SetupKind::Mbpta, FlushReloadIsolation::SharedOpen),
        (SetupKind::TsCache, FlushReloadIsolation::SharedOpen),
    ];
    for (setup, isolation) in cases {
        let mut cfg = FlushReloadConfig::standard(setup, seed);
        cfg.samples = samples;
        cfg.isolation = isolation;
        let out = run_flush_reload(&cfg).expect("valid flush+reload config");
        let iso = match isolation {
            FlushReloadIsolation::SharedOpen => "shared, open",
            FlushReloadIsolation::PartitionedReplicated => "partitioned + replicas",
        };
        let verdict = if out.correct_rank < 8.0 {
            "LEAKS (true byte at the top)"
        } else if out.reload_hits == 0 && out.victim_invalidations > 0 {
            "blind reload (flush still drains)"
        } else if out.reload_hits == 0 {
            "dead channel (nothing shared)"
        } else {
            "degraded"
        };
        println!(
            "{:<16} {:<24} {:>10.1} {:>12} {:>14}  {verdict}",
            setup.label(),
            iso,
            out.correct_rank,
            out.reload_hits,
            out.victim_invalidations,
        );
    }
    println!();
    println!("rank = position of the true key byte among 256 candidates (0 = top;");
    println!("8 entries share a 32 B line, so a perfect attack ranks it ~3.5; a");
    println!("dead channel ties all candidates at 127.5). Way partitions alone");
    println!("cannot close a shared-line channel — the partitioned configuration");
    println!("also un-shares the tables (per-core replicas). TSCache leaves the");
    println!("flush effective (coherence works by physical address) but blinds");
    println!("the reload, which probes under the attacker's own seed.");
}
