//! Fleet campaign driver: runs a declarative sweep spec through the
//! crash-safe sharded executor, with optional fault injection — the
//! operational face of `tscache-fleet` and the binary CI's
//! fault-injection and determinism jobs drive.
//!
//! Usage:
//!
//! ```text
//! fleet_campaign [--dir PATH]          campaign directory (default fleet-campaign)
//!                [--spec FILE]         sweep spec file (default: built-in smoke sweep)
//!                [--resume 1]          resume an existing campaign directory
//!                [--workers N]         worker threads (0 = RAYON_NUM_THREADS/auto)
//!                [--retries N]         crash retries per shard before quarantine
//!                [--checkpoint-every N] manifest cadence in records
//!                [--scramble SEED]     deterministically shuffle the pending shards
//!                [--kill-after N]      fault: hard-stop after N durable records
//!                [--torn-after N]      fault: tear the append after N records
//!                [--panic-shard S]     fault: panic shard S (through --panic-through
//!                                      attempts, default 1)
//!                [--trace 1]           trace shards (histograms + trace digests in
//!                                      records, lifecycle.trace.json in the dir)
//!                [--report 1]          write the report/ directory (curve CSVs,
//!                                      trace.json, digests.txt) after the run
//!                [--quiet 1]           suppress the live stderr progress line
//! ```
//!
//! Exit codes: 0 = finished (report + `campaign_digest.txt` written,
//! possibly with quarantined shards) or halted by an injected
//! kill/torn fault (resume to continue); 1 = error (bad spec, I/O,
//! spec mismatch on resume, an integer flag that does not parse or
//! fit its type).

use tscache_bench::Args;
use tscache_fleet::executor::{launch, resume, ExecutorConfig, RunOutcome};
use tscache_fleet::fault::FaultPlan;
use tscache_fleet::report::write_campaign_report;
use tscache_fleet::spec::SweepSpec;

fn main() {
    let args = Args::from_env();
    let dir = args.get_str("dir", "fleet-campaign");

    let spec = match args.get_str("spec", "") {
        path if path.is_empty() => SweepSpec::smoke(),
        path => {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("fleet_campaign: cannot read spec {path}: {e}");
                    std::process::exit(1);
                }
            };
            match SweepSpec::parse(&text) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("fleet_campaign: {e}");
                    std::process::exit(1);
                }
            }
        }
    };

    let cfg = ExecutorConfig {
        workers: args.get_int("workers", 0),
        max_retries: args.get_int("retries", 2),
        checkpoint_every: args.get_int("checkpoint-every", 8),
        scramble_seed: args.opt_int("scramble"),
        keep_times: true,
        trace: args.get_int::<u64>("trace", 0) != 0,
        progress: args.get_int::<u64>("quiet", 0) == 0,
    };

    let mut faults = FaultPlan::none();
    faults.kill_after_records = args.opt_int("kill-after");
    faults.torn_write_after = args.opt_int("torn-after");
    let panic_through = args.get_int("panic-through", 1);
    if let Some(shard) = args.opt_int("panic-shard") {
        faults.panic_on.push((shard, panic_through));
    }

    let shards = spec.jobs().map(|j| j.len()).unwrap_or(0);
    let resuming = args.get_int::<u64>("resume", 0) != 0;
    println!(
        "{} campaign in {dir}: {} scenarios, {shards} shards, {} workers{}",
        if resuming { "resuming" } else { "launching" },
        spec.expand().map(|s| s.len()).unwrap_or(0),
        if cfg.workers == 0 { "auto".to_string() } else { cfg.workers.to_string() },
        if faults.is_empty() { String::new() } else { format!(", faults: {faults:?}") },
    );

    let outcome = if resuming {
        resume(&spec, &dir, &cfg, &faults)
    } else {
        launch(&spec, &dir, &cfg, &faults)
    };

    match outcome {
        Ok(RunOutcome::Finished(result)) => {
            for s in &result.scenarios {
                let pwcet = s.pwcet.map(|p| format!("  pwcet@1e-12 {p:.0}")).unwrap_or_default();
                println!(
                    "  {:<55} {}/{} shards  digest {:#018x}{pwcet}",
                    s.key, s.shards_completed, s.shards_expected, s.digest
                );
            }
            for q in &result.quarantined {
                println!("  quarantined shard {} ({}): {:?}", q.shard, q.scenario, q.reason);
            }
            println!(
                "completed {}/{} shards, {} retries ({} backoff units)",
                result.shards_completed,
                result.shards_expected,
                result.accounting.retries,
                result.accounting.backoff_units
            );
            println!("campaign digest: {:#018x}", result.campaign_digest);
            if !result.is_complete() {
                println!("INCOMPLETE: resume to re-attempt quarantined shards");
            }
            if args.get_int::<u64>("report", 0) != 0 {
                match write_campaign_report(&spec, &dir) {
                    Ok(report_dir) => println!("report written to {}", report_dir.display()),
                    Err(e) => {
                        eprintln!("fleet_campaign: report: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        Ok(RunOutcome::Killed { records_durable }) => {
            println!("campaign halted by injected fault with {records_durable} durable records");
            println!("resume with: fleet_campaign --dir {dir} --resume 1");
        }
        Err(e) => {
            eprintln!("fleet_campaign: {e}");
            std::process::exit(1);
        }
    }
}
