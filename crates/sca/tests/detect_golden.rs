//! Golden fixtures for the detection campaigns: the fixed-seed
//! Prime+Probe and Flush+Reload ROC outcomes are pinned by digest, so
//! any drift in the sampler, the detector scoring, or the attack
//! harnesses shows up as a one-line diff here instead of silently
//! shifting the README's table.

use tscache_core::setup::SetupKind;
use tscache_sca::detect::{
    run_detection_campaign, DetectTarget, DetectionCampaignConfig, DetectionOutcome,
};

/// FNV-1a over the outcome's observable surface (scores, ROC points,
/// events, latency) — the same digest style `determinism_probe` uses.
fn digest(out: &DetectionOutcome) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut u64s = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    u64s(out.windows);
    for s in out.attack_scores.iter().chain(&out.benign_scores) {
        u64s(s.to_bits());
    }
    for p in out.attack_progress.iter() {
        u64s(p.to_bits());
    }
    for p in &out.roc.points {
        u64s(p.threshold.to_bits());
        u64s(p.fpr.to_bits());
        u64s(p.tpr.to_bits());
    }
    u64s(out.operating_threshold.to_bits());
    for e in &out.events {
        u64s(e.window);
        u64s(e.score.to_bits());
    }
    u64s(out.detection_latency.unwrap_or(u64::MAX));
    h
}

#[test]
fn prime_probe_golden_roc_fixture() {
    let cfg =
        DetectionCampaignConfig::standard(DetectTarget::PrimeProbe, SetupKind::Deterministic, 7);
    let out = run_detection_campaign(&cfg).expect("valid campaign config");
    assert!(out.auc() > 0.9, "auc {}", out.auc());
    assert_eq!(out.windows, 24);
    assert_eq!(out.detection_latency, Some(1), "full-rate P+P should be caught in window one");
    assert_eq!(digest(&out), GOLDEN_PRIME_PROBE, "got 0x{:016x}", digest(&out));
}

#[test]
fn flush_reload_golden_roc_fixture() {
    let cfg =
        DetectionCampaignConfig::standard(DetectTarget::FlushReload, SetupKind::Deterministic, 7);
    let out = run_detection_campaign(&cfg).expect("valid campaign config");
    assert!(out.auc() > 0.9, "auc {}", out.auc());
    assert_eq!(out.windows, 24);
    assert_eq!(out.detection_latency, Some(1), "full-rate F+R should be caught in window one");
    assert_eq!(digest(&out), GOLDEN_FLUSH_RELOAD, "got 0x{:016x}", digest(&out));
}

/// Pinned digests; recompute (the assert message prints the new value)
/// only for an *intentional* change to the sampler, detector, or
/// harnesses, and say why in the commit.
const GOLDEN_PRIME_PROBE: u64 = 0x4263_cad9_7756_d349;
const GOLDEN_FLUSH_RELOAD: u64 = 0xacb7_55f3_9fff_df70;
