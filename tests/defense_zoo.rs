//! Cross-crate integration: the defense zoo under the paper's dual
//! verdict. Each defense is pinned on both halves — what it does to
//! the attack suite on the vulnerable deterministic platform, and
//! what it does to MBPTA compliance on the time-predictable one.
//! (The numbers mirror `examples/defense_zoo.rs`, which renders the
//! README ablation table from the same campaigns.)

use tscache::core::defense::DefenseKind;
use tscache::core::setup::SetupKind;
use tscache::mbpta::analysis::{analyze, MbptaConfig};
use tscache::sca::cross_core::{run_cross_core_prime_probe, CrossCoreConfig};
use tscache::sca::evict_time::run_evict_time;
use tscache::sca::flush_reload::{run_flush_reload, FlushReloadConfig};
use tscache::sca::prime_probe::run_prime_probe;
use tscache::sim::layout::Layout;
use tscache::sim::synthetic::ArraySweep;
use tscache::sim::workload::{collect_execution_times, MeasurementProtocol};

const SEED: u64 = 0x200e;

fn mbpta_times(defense: DefenseKind) -> Vec<u64> {
    let mut layout = Layout::new(0x10_0000);
    let mut sweep = ArraySweep::standard(&mut layout);
    let protocol = MeasurementProtocol {
        runs: 400,
        rng_seed: SEED,
        shared_llc: defense.needs_shared_level(),
        defense,
        ..Default::default()
    };
    collect_execution_times(SetupKind::TsCache, &mut sweep, &protocol, None)
        .expect("valid protocol")
}

#[test]
fn ttl_blinds_prime_probe_but_inflates_the_pwcet_bound() {
    // Leakage: the deterministic platform leaks Prime+Probe at ~100%
    // accuracy; TTL decay drops the attacker to chance (1/128).
    let base =
        run_prime_probe(SetupKind::Deterministic, DefenseKind::Off, 400, SEED).expect("trials > 0");
    let ttl =
        run_prime_probe(SetupKind::Deterministic, DefenseKind::Ttl, 400, SEED).expect("trials > 0");
    assert!(base.accuracy > 0.9, "undefended accuracy {}", base.accuracy);
    assert!(ttl.accuracy < 0.1, "TTL accuracy {}", ttl.accuracy);
    assert!(!ttl.leaks());

    // Predictability: compliance survives, but the bound visibly pays
    // for the extra expiry misses — the dual verdict's cost axis.
    let base_curve = analyze(&mbpta_times(DefenseKind::Off), &MbptaConfig::default());
    let ttl_curve = analyze(&mbpta_times(DefenseKind::Ttl), &MbptaConfig::default());
    assert!(base_curve.is_mbpta_valid());
    assert!(ttl_curve.is_mbpta_valid(), "TTL broke the i.i.d. battery: {}", ttl_curve.iid);
    assert!(ttl_curve.pwcet(1e-12) >= ttl_curve.summary.max);
    assert!(
        ttl_curve.summary.max > 1.5 * base_curve.summary.max,
        "TTL cost invisible: {} vs {}",
        ttl_curve.summary.max,
        base_curve.summary.max
    );
}

#[test]
fn ttl_does_not_close_the_coarser_channels() {
    // Honest negative result: at standard parameters the decay is too
    // slow to hide *which set* the victim refilled, so Evict+Time and
    // the key-rank attacks still succeed. The zoo records this, the
    // README table shows it.
    let et =
        run_evict_time(SetupKind::Deterministic, DefenseKind::Ttl, 400, SEED).expect("trials > 0");
    assert!(et.detection_rate > 0.9, "E+T rate {}", et.detection_rate);
    let mut cc = CrossCoreConfig::standard(SetupKind::Deterministic, SEED);
    cc.defense = DefenseKind::Ttl;
    assert!(run_cross_core_prime_probe(&cc).expect("valid cross-core config").top_quartile());
}

#[test]
fn normalization_kills_flush_reload_for_free() {
    // Leakage: reload probing reports victim-refilled lines absent, so
    // the rank collapses to a full 256-way tie (127.5).
    let mut cfg = FlushReloadConfig::standard(SetupKind::Deterministic, SEED);
    let base = run_flush_reload(&cfg).expect("valid flush+reload config");
    cfg.defense = DefenseKind::Normalize;
    let defended = run_flush_reload(&cfg).expect("valid flush+reload config");
    assert!(base.correct_rank < 8.0, "undefended rank {}", base.correct_rank);
    assert!(defended.correct_rank >= 64.0, "defended rank {}", defended.correct_rank);

    // Orthogonality: presence-probing Prime+Probe is untouched — the
    // attacker only ever probes its own lines.
    let pp = run_prime_probe(SetupKind::Deterministic, DefenseKind::Normalize, 400, SEED)
        .expect("trials > 0");
    assert!(pp.accuracy > 0.9, "normalization should not blunt P+P: {}", pp.accuracy);

    // Predictability: a single-process MBPTA campaign never triggers a
    // levelling event, so the time series is bit-identical to the
    // undefended platform — this defense is free where it's inert.
    assert_eq!(mbpta_times(DefenseKind::Normalize), mbpta_times(DefenseKind::Off));
}

#[test]
fn random_and_safe_closes_every_channel_and_keeps_compliance() {
    let pp = run_prime_probe(SetupKind::Deterministic, DefenseKind::RandomSafe, 400, SEED)
        .expect("trials > 0");
    assert!(pp.accuracy < 0.1, "P+P accuracy {}", pp.accuracy);
    let et = run_evict_time(SetupKind::Deterministic, DefenseKind::RandomSafe, 400, SEED)
        .expect("trials > 0");
    assert!(et.detection_rate < 0.6, "E+T rate {}", et.detection_rate);
    let mut cc = CrossCoreConfig::standard(SetupKind::Deterministic, SEED);
    cc.defense = DefenseKind::RandomSafe;
    assert!(!run_cross_core_prime_probe(&cc).expect("valid cross-core config").top_quartile());
    let mut fr = FlushReloadConfig::standard(SetupKind::Deterministic, SEED);
    fr.defense = DefenseKind::RandomSafe;
    assert!(run_flush_reload(&fr).expect("valid flush+reload config").correct_rank >= 64.0);

    let curve = analyze(&mbpta_times(DefenseKind::RandomSafe), &MbptaConfig::default());
    assert!(curve.is_mbpta_valid(), "{}", curve.iid);
    assert!(curve.pwcet(1e-12) >= curve.summary.max);
}

#[test]
fn mid_task_seed_rotation_breaks_mbpta_compliance() {
    // The paper's §5 point, measured: re-keying placement seeds on a
    // fill-count cadence *inside* a task's runs injects epoch-shaped
    // flushes into the time series, and the i.i.d. battery rejects it.
    // Seed changes belong at scheduling boundaries (the RTOS's
    // per-hyperperiod rotation), not mid-measurement.
    for defense in [DefenseKind::RotateCore, DefenseKind::RotatePartition] {
        let curve = analyze(&mbpta_times(defense), &MbptaConfig::default());
        assert!(!curve.is_mbpta_valid(), "{defense} unexpectedly kept compliance: {}", curve.iid);
    }
    // And on a deterministic (seed-blind modulo) platform the rotation
    // defends nothing: the attack runs exactly as undefended.
    let mut cc = CrossCoreConfig::standard(SetupKind::Deterministic, SEED);
    cc.defense = DefenseKind::RotateCore;
    assert!(run_cross_core_prime_probe(&cc).expect("valid cross-core config").top_quartile());
}

#[test]
fn defended_campaigns_reproduce_bit_for_bit() {
    for defense in DefenseKind::ALL {
        let a = run_prime_probe(SetupKind::Deterministic, defense, 100, SEED).expect("trials > 0");
        let b = run_prime_probe(SetupKind::Deterministic, defense, 100, SEED).expect("trials > 0");
        assert_eq!(a.accuracy, b.accuracy, "{defense}");
        assert_eq!(a.mean_evictions, b.mean_evictions, "{defense}");
        assert_eq!(mbpta_times(defense), mbpta_times(defense), "{defense}");
    }
}
