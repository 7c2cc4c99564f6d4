//! Online attack detection: every in-repo attack campaign run against
//! the RTOS sliding-window PMU detector. Per (target × evasion) cell
//! the same victim runs twice — once beside a benign co-task, once
//! beside the attacker — and the detector's window scores are ROC'd
//! over the full threshold sweep, then replayed at a zero-false-
//! positive operating threshold calibrated on the benign run.
//!
//! ```text
//! cargo run --release --example attack_detection [seed]
//! ```

use tscache::core::setup::SetupKind;
use tscache::sca::detect::{
    run_detection_campaign, DetectTarget, DetectionCampaignConfig, EvasionMode,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);

    println!("Online attack detection demo (seed {seed})\n");
    println!("Each campaign: 192 rounds, a PMU delta cut every 8 rounds (24");
    println!("windows), scored by the sliding-window detector; the operating");
    println!("threshold is max benign score + margin, so false positives are");
    println!("zero by construction and every detection below is earned.\n");

    println!(
        "{:<14} {:<10} {:>6} {:>9} {:>11} {:>13}  verdict",
        "target", "evasion", "AUC", "latency", "peak score", "key progress"
    );
    for target in DetectTarget::ALL {
        for evasion in EvasionMode::ALL {
            let cfg = DetectionCampaignConfig {
                evasion,
                ..DetectionCampaignConfig::standard(target, SetupKind::Deterministic, seed)
            };
            let out = run_detection_campaign(&cfg).expect("valid campaign config");
            print_row(out.target.label(), evasion, &out);
        }
    }

    // The TSCache twist: per-process randomized placement blinds the
    // Flush+Reload *reload* (key progress collapses), but the flush
    // storm still hammers the coherence counters — the detector sees
    // the attack even where the attack itself fails.
    let cfg =
        DetectionCampaignConfig::standard(DetectTarget::FlushReload, SetupKind::TsCache, seed);
    let out = run_detection_campaign(&cfg).expect("valid campaign config");
    print_row("f+r @ tscache", EvasionMode::None, &out);

    println!();
    println!("latency = windows until the first detection event (1 = caught in");
    println!("the first window); key progress = attacker's key-recovery metric");
    println!("at campaign end (rank-based for AES targets). Throttling (1-in-4");
    println!("rounds) and per-line jitter thin the counter signature but also");
    println!("slow the attack — the evasion axis the fleet sweeps explore.");
}

fn print_row(label: &str, evasion: EvasionMode, out: &tscache::sca::detect::DetectionOutcome) {
    let latency = match out.detection_latency {
        Some(w) => format!("{w}"),
        None => "—".into(),
    };
    let progress = out.attack_progress.last().copied().unwrap_or(0.0);
    let verdict = match (out.detected(), progress > 0.3) {
        (true, true) => "detected (attack working)",
        (true, false) => "detected (attack blind/slow)",
        (false, true) => "EVADED — attack progressing",
        (false, false) => "quiet (attack ineffective)",
    };
    println!(
        "{:<14} {:<10} {:>6.3} {:>9} {:>11.3} {:>13.3}  {verdict}",
        label,
        evasion.label(),
        out.auc(),
        latency,
        out.max_attack_score(),
        progress,
    );
}
