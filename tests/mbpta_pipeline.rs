//! Cross-crate integration: the MBPTA pipeline over the simulator —
//! measurement protocol, i.i.d. validation and pWCET fitting behave as
//! the paper requires on random vs deterministic caches.

use tscache::core::setup::SetupKind;
use tscache::interference::ContentionConfig;
use tscache::mbpta::analysis::{analyze, MbptaConfig};
use tscache::mbpta::iid::validate_iid_paper;
use tscache::mbpta::stats::to_f64;
use tscache::sim::layout::Layout;
use tscache::sim::synthetic::{ArraySweep, MultipathTask, PointerChase};
use tscache::sim::workload::{collect_execution_times, MeasurementProtocol};

fn measure(setup: SetupKind, runs: u32, seed: u64) -> Vec<u64> {
    let mut layout = Layout::new(0x10_0000);
    let mut task = MultipathTask::standard(&mut layout);
    let protocol = MeasurementProtocol { runs, rng_seed: seed, ..Default::default() };
    collect_execution_times(setup, &mut task, &protocol, None).expect("valid protocol")
}

#[test]
fn mbpta_cache_times_are_iid_and_fit_evt() {
    let times = measure(SetupKind::Mbpta, 600, 0xA1);
    let analysis = analyze(&times, &MbptaConfig::default());
    assert!(analysis.is_mbpta_valid(), "{}", analysis.iid);
    assert!(analysis.pwcet(1e-12) >= analysis.summary.max);
    assert!(analysis.pwcet(1e-12) >= analysis.pwcet(1e-6));
}

#[test]
fn deterministic_cache_times_are_constant() {
    let times = measure(SetupKind::Deterministic, 50, 0xB2);
    assert!(times.windows(2).all(|w| w[0] == w[1]), "deterministic times varied");
}

#[test]
fn tscache_times_pass_both_tests_on_two_workloads() {
    // §6.2.2 at integration scale: multipath and pointer-chase.
    let times = measure(SetupKind::TsCache, 400, 0xC3);
    assert!(validate_iid_paper(&to_f64(&times)).passed());

    let mut layout = Layout::new(0x40_0000);
    let mut chase = PointerChase::standard(&mut layout);
    let protocol = MeasurementProtocol { runs: 400, rng_seed: 0xD4, ..Default::default() };
    let chase_times = collect_execution_times(SetupKind::TsCache, &mut chase, &protocol, None)
        .expect("valid protocol");
    assert!(validate_iid_paper(&to_f64(&chase_times)).passed());
}

#[test]
fn contended_pwcet_curve_dominates_solo_curve() {
    // The multicore acceptance criterion: for the same workload and
    // per-run seeds, the pWCET curve measured with an active co-runner
    // must be no tighter than the solo curve at any exceedance level —
    // contention is timing-only and can only add cycles.
    let collect = |contention: Option<ContentionConfig>| {
        let mut layout = Layout::new(0x10_0000);
        let mut sweep = ArraySweep::standard(&mut layout);
        let protocol =
            MeasurementProtocol { runs: 500, rng_seed: 0xC0, contention, ..Default::default() };
        collect_execution_times(SetupKind::Mbpta, &mut sweep, &protocol, None)
            .expect("valid protocol")
    };
    let solo = collect(None);
    let contended = collect(Some(ContentionConfig {
        // Pin cache behaviour (write-through): run-by-run dominance is
        // then exact, not just distributional.
        write_back: false,
        ..ContentionConfig::default()
    }));
    assert!(
        solo.iter().zip(&contended).all(|(s, c)| c >= s),
        "a contended run was cheaper than its solo twin"
    );
    let solo_curve = analyze(&solo, &MbptaConfig::default());
    let contended_curve = analyze(&contended, &MbptaConfig::default());
    for exceedance in [1e-3, 1e-6, 1e-9, 1e-12] {
        let (s, c) = (solo_curve.pwcet(exceedance), contended_curve.pwcet(exceedance));
        assert!(c >= s, "contended pWCET tighter than solo at {exceedance:e}: {c:.0} < {s:.0}");
    }
}

#[test]
fn pwcet_bound_survives_an_independent_campaign() {
    let analysis = analyze(&measure(SetupKind::Mbpta, 1000, 0xE5), &MbptaConfig::default());
    let bound = analysis.pwcet(1e-9);
    let fresh = measure(SetupKind::Mbpta, 1500, 0xF6);
    let exceed = fresh.iter().filter(|&&t| t as f64 > bound).count();
    // 1500 runs at a 1e-9 bound: even one exceedance would be a gross
    // model failure; allow zero.
    assert_eq!(exceed, 0, "bound {bound} crossed {exceed} times");
}

#[test]
fn mbpta_and_tscache_have_identical_timing_statistics() {
    // Same hardware, same protocol, same seeds → same time series: the
    // designs differ only in cross-process seed policy.
    let a = measure(SetupKind::Mbpta, 100, 0x77);
    let b = measure(SetupKind::TsCache, 100, 0x77);
    assert_eq!(a, b);
}
