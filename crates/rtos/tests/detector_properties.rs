//! Property tests for the online detector inside the OS: benign
//! schedules stay silent at the default threshold, and the campaign
//! report's counter deltas are always finite and non-negative.

use proptest::prelude::*;
use tscache_core::setup::SetupKind;
use tscache_rtos::detector::DetectorConfig;
use tscache_rtos::model::{Application, Runnable, SwcId};
use tscache_rtos::os::{OsConfig, SeedPolicy, TscacheOs};

const SETUPS: [SetupKind; 4] =
    [SetupKind::Deterministic, SetupKind::RpCache, SetupKind::Mbpta, SetupKind::TsCache];

const POLICIES: [SeedPolicy; 3] =
    [SeedPolicy::PerSwc, SeedPolicy::SharedGlobal, SeedPolicy::PerJob];

fn benign_app(pinned: bool) -> Application {
    let mut app = Application::figure3_example();
    if pinned {
        app.add(
            Runnable::new("enemy", SwcId(9), core::time::Duration::from_millis(20), 60_000)
                .on_core(1),
        );
    }
    app
}

proptest! {
    /// A benign-only schedule — any setup, seed policy, platform, and
    /// OS seed — never trips the detector at the default threshold.
    /// This is the calibration contract behind
    /// [`DetectorConfig::default`]: zero false positives on everything
    /// the repo's own campaigns consider benign.
    #[test]
    fn benign_only_campaigns_raise_zero_detections(
        setup_i in 0usize..4,
        policy_i in 0usize..3,
        rng_seed in 0u64..1_000_000,
        hyperperiods in 2u32..7,
        platform in 0u8..3,
        pinned in any::<bool>(),
    ) {
        let (setup, policy) = (SETUPS[setup_i], POLICIES[policy_i]);
        let (shared_llc, coherent_image) = match platform {
            0 => (false, false),
            1 => (true, false),
            _ => (true, true),
        };
        let config = OsConfig {
            seed_policy: policy,
            rng_seed,
            shared_llc,
            coherent_image,
            detector: Some(DetectorConfig::default()),
        };
        let mut sim = TscacheOs::try_new(benign_app(pinned), setup, config).expect("valid config");
        let report = sim.run(hyperperiods);
        let detection = report.detection.expect("detector was configured");
        prop_assert!(
            detection.events.is_empty(),
            "benign campaign raised {} events (max score {:.4}, setup {:?}, policy {:?}, \
             platform {platform}, seed {rng_seed})",
            detection.events.len(),
            detection.max_score,
            setup,
            policy,
        );
    }

    /// Campaign report deltas survive any configuration: finite
    /// overhead fraction, and counter totals that a saturating delta
    /// produced (no wrapped u64 garbage).
    #[test]
    fn report_deltas_are_finite_and_sane(
        setup_i in 0usize..4,
        policy_i in 0usize..3,
        rng_seed in 0u64..1_000_000,
        hyperperiods in 1u32..5,
        shared in any::<bool>(),
    ) {
        let config = OsConfig {
            seed_policy: POLICIES[policy_i],
            rng_seed,
            shared_llc: shared,
            ..OsConfig::default()
        };
        let mut sim =
            TscacheOs::try_new(benign_app(shared), SETUPS[setup_i], config).expect("valid config");
        let report = sim.run(hyperperiods);
        let f = report.overhead_fraction();
        prop_assert!(f.is_finite() && (0.0..=1.0).contains(&f));
        // A wrapped subtraction would land near u64::MAX; genuine
        // campaign counters stay far below 2^60.
        for v in [report.bus_wait_cycles, report.coh_invalidations, report.overhead_cycles,
                  report.work_cycles] {
            prop_assert!(v < 1 << 60, "counter {v} smells like an underflow wrap");
        }
        if !shared {
            prop_assert!(sim.shared_llc_stats().is_none());
            prop_assert_eq!(report.coh_invalidations, 0);
        }
    }
}
