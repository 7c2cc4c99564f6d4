//! Cross-crate integration: the TSCache OS (rtos) on the simulated
//! platform — seed policies, overheads and the independence of
//! execution times across hyperperiods (§6.2.2 at the OS level).

use tscache::core::setup::SetupKind;
use tscache::mbpta::ljung_box::ljung_box;
use tscache::mbpta::stats::to_f64;
use tscache::rtos::model::{Application, Runnable, SwcId};
use tscache::rtos::os::{OsConfig, SeedPolicy, TscacheOs};

fn run(
    setup: SetupKind,
    policy: SeedPolicy,
    hyperperiods: u32,
) -> tscache::rtos::os::CampaignReport {
    let config = OsConfig { seed_policy: policy, ..OsConfig::default() };
    let mut os =
        TscacheOs::try_new(Application::figure3_example(), setup, config).expect("valid OS config");
    os.run(hyperperiods)
}

#[test]
fn per_swc_times_are_independent_across_hyperperiods() {
    let report = run(SetupKind::TsCache, SeedPolicy::PerSwc, 120);
    // R3 runs once per hyperperiod on a fresh seed — after a warm-up
    // job (R1, R2 precede it), its time is layout-dependent and the
    // series must pass Ljung-Box.
    let r3 = to_f64(&report.times[2]);
    let lb = ljung_box(&r3, 20);
    assert!(lb.passes(0.05), "{lb}");
}

#[test]
fn overhead_stays_negligible_across_policies() {
    for policy in [SeedPolicy::PerSwc, SeedPolicy::SharedGlobal] {
        let report = run(SetupKind::TsCache, policy, 40);
        assert!(
            report.overhead_fraction() < 0.005,
            "{policy}: overhead {:.4}",
            report.overhead_fraction()
        );
    }
}

#[test]
fn per_job_reseeding_costs_extra_work() {
    let per_swc = run(SetupKind::TsCache, SeedPolicy::PerSwc, 30);
    let per_job = run(SetupKind::TsCache, SeedPolicy::PerJob, 30);
    assert!(
        per_job.work_cycles > per_swc.work_cycles,
        "per-job {} !> per-swc {}",
        per_job.work_cycles,
        per_swc.work_cycles
    );
}

#[test]
fn deterministic_platform_repeats_exactly() {
    let a = run(SetupKind::Deterministic, SeedPolicy::PerSwc, 10);
    let b = run(SetupKind::Deterministic, SeedPolicy::PerSwc, 10);
    assert_eq!(a.times, b.times);
}

#[test]
fn larger_applications_schedule_correctly() {
    use core::time::Duration;
    let ms = Duration::from_millis;
    let mut app = Application::new();
    for (i, period) in [5u64, 10, 20, 40].iter().enumerate() {
        app.add(Runnable::new(
            format!("T{i}"),
            SwcId(i as u16 + 1),
            ms(*period),
            20_000 + 7_000 * i as u64,
        ));
    }
    assert_eq!(app.hyperperiod(), ms(40));
    let mut os =
        TscacheOs::try_new(app, SetupKind::TsCache, OsConfig::default()).expect("valid OS config");
    // 8 + 4 + 2 + 1 jobs per hyperperiod.
    assert_eq!(os.schedule().len(), 15);
    let report = os.run(5);
    assert_eq!(report.times[0].len(), 40);
    assert_eq!(report.times[3].len(), 5);
}
