//! The repository benchmark: time-to-verdict of real fleet campaigns.
//!
//! ```text
//! campaign-bench --workload <pwcet-private|bernstein-aes|seed-sweep-shared>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the untraced end-to-end pass and reports
//! `campaign_s`, `samples_per_s`, `setup_s` and `peak_rss_mb`; `--trace
//! 1` runs the traced per-layer pass (see `layers.rs`) and writes its
//! spans to `.bench_work/traces/<workload>.json`. Either way the last
//! stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`, and the exit code is non-zero when any campaign digest
//! mismatched or any shard was quarantined. See README.md.

// A wall-clock benchmark: reading the clock is its job, unlike the
// simulation crates the repository's clippy.toml bans it for.
#![allow(clippy::disallowed_methods)]

mod campaign;
mod layers;
mod report;
mod spans;
mod streams;
mod workloads;

use campaign::{executor_config, prepare, CampaignRun, Tally};
use report::{median, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tscache_fleet::fault::FaultPlan;
use workloads::{Workload, DEFAULT_SEED};

/// Set-ups timed after each timed campaign, for the `setup_s` median;
/// the first `SETUP_WARM` of each burst run untimed. Bursts spread
/// across the run average the host's speed over it, as the campaign
/// median does; one burst sees only the moment it ran in, and set-ups
/// straight after a campaign meet a cold cache.
const SETUP_BURST: usize = 10;
const SETUP_WARM: usize = 2;

/// Campaigns timed per run at the least, however short `--seconds` is.
const MIN_CAMPAIGNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Workers per campaign: two (a closed loop where each worker pulls
/// the next shard when its last one finishes), capped at the host's
/// cores so total threads stay within `nproc`.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Restarts the peak-resident-memory watermark at the current resident
/// size (Linux `clear_refs` mode 5), so the next [`peak_rss_mb`] reads
/// the peak of what ran since. Returns false where unsupported.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Host peak resident memory of this process, in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one pass hands back to `main` for the result line.
pub struct Outcome {
    tally: Tally,
    checks_passed: bool,
    metrics: Vec<Metric>,
}

/// The digest every campaign of this run must reproduce: the recorded
/// reference at the default seed, otherwise whatever the run's first
/// campaign (the single-worker one) produced.
fn expected_digest(args: &Args) -> Option<u64> {
    (args.seed == DEFAULT_SEED).then(|| args.workload.reference_digest())
}

/// The untraced end-to-end pass.
fn end_to_end(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut expected = expected_digest(args);
    let mut launch = |name: String, workers: usize| -> Result<CampaignRun, String> {
        let p = prepare(w, args.seed, work.join(name)).map_err(|e| e.to_string())?;
        let run = campaign::run(&p, &executor_config(workers, false), &FaultPlan::none())
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&p.dir);
        tally.count(&run, &mut expected);
        Ok(run)
    };

    // The single-worker campaign: the 1-vs-2-worker digest check, and
    // the warm-up of everything the timed campaigns touch.
    let single = launch("serial".into(), 1)?;
    eprintln!(
        "[bench] {} serial campaign {:.3}s, digest {:#018x}",
        w.name(),
        single.wall_s,
        single.digest.unwrap_or(0)
    );

    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut setups = Vec::new();
    let mut samples = 0;
    let n = 1usize << 20;
    let mut chase: Vec<usize> = (0..n).collect();
    let mut r = 12345u64;
    for i in (1..n).rev() { r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); let k = (r >> 33) as usize % i; chase.swap(i, k); }
    let t0 = Instant::now();
    let start = Instant::now();
    while walls.len() < MIN_CAMPAIGNS || start.elapsed().as_secs_f64() < args.seconds {
        let reset = reset_peak_rss();
        let run = launch(format!("c{}", walls.len()), workers())?;
        samples = run.samples();
        let c0 = Instant::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 { x = x.wrapping_mul(6364136223846793005).wrapping_add(i); }
        std::hint::black_box(x);
        let calib = c0.elapsed().as_secs_f64();
        let c1 = Instant::now();
        let mut j = 0usize;
        for _ in 0..2_000_000 { j = chase[j]; }
        std::hint::black_box(j);
        let chase_s = c1.elapsed().as_secs_f64();
        eprintln!("[exp] wall {:.4} cpu {:.4} calib {:.5} chase {:.5} t {:.2}", run.wall_s, run.cpu_s, calib, chase_s, t0.elapsed().as_secs_f64());
        walls.push(run.wall_s);
        if reset {
            peaks.extend(peak_rss_mb());
        }
        for i in 0..SETUP_BURST {
            let p = prepare(w, args.seed, work.join("setup")).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_dir_all(&p.dir);
            if i >= SETUP_WARM {
                setups.push(p.setup_s);
            }
        }
    }
    // Per-campaign peaks where the watermark can be reset (the median
    // is steadier than one process-lifetime peak); else the lifetime peak.
    let peak_rss = if peaks.is_empty() { peak_rss_mb() } else { Some(median(&peaks)) };
    let campaign_s = median(&walls);
    eprintln!(
        "[bench] {} {} campaigns at {} workers, median {campaign_s:.4}s, walls {walls:.3?}, peaks {peaks:.2?}",
        w.name(),
        walls.len(),
        workers()
    );
    let metrics = vec![
        Metric::new("campaign_s", campaign_s, "s"),
        Metric::new("samples_per_s", samples as f64 / campaign_s, "1/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss.ok_or("no VmHWM in /proc/self/status")?, "MB"),
    ];
    Ok(Outcome { tally, checks_passed: true, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // One thread per fleet worker: shards must not fan out further.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let work: PathBuf =
        Path::new(".bench_work").join(format!("{}-{}", args.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome =
        if args.trace { layers::traced_pass(&args, &work) } else { end_to_end(&args, &work) };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.checks_passed && outcome.tally.failed == 0;
    println!("{}", report::result_line(correct, &outcome.tally, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("campaign-bench: digest mismatch or quarantined shards — see failed_share");
        ExitCode::FAILURE
    }
}
