//! The paper's Fig. 3 walkthrough: an AUTOSAR application under the
//! TSCache OS — cyclic schedule, per-SWC seeds, seed swaps on context
//! switches, reseed + flush at each hyperperiod.
//!
//! ```text
//! cargo run --release --example autosar_schedule
//! ```

use tscache::core::setup::SetupKind;
use tscache::mbpta::iid::validate_iid_paper;
use tscache::mbpta::stats::to_f64;
use tscache::rtos::model::Application;
use tscache::rtos::os::{OsConfig, SeedPolicy, TscacheOs};

fn main() {
    let app = Application::figure3_example();
    println!("Fig. 3 application:");
    for r in app.runnables() {
        println!(
            "  {:<3} {} period {:>2} ms, budget {} cycles",
            r.name(),
            r.swc(),
            r.period().as_millis(),
            r.wcet_budget()
        );
    }
    println!("hyperperiod: {} ms; SWCs: {:?}\n", app.hyperperiod().as_millis(), app.swcs());

    let mut os = TscacheOs::try_new(
        app,
        SetupKind::TsCache,
        OsConfig { seed_policy: SeedPolicy::PerSwc, ..OsConfig::default() },
    )
    .expect("valid OS config");

    println!("static schedule (one hyperperiod):");
    let jobs: Vec<_> = os.schedule().jobs().to_vec();
    for job in &jobs {
        let r = &os.application().runnables()[job.runnable];
        println!(
            "  t={:>2} ms  {} ({}) instance {}",
            job.release.as_millis(),
            r.name(),
            r.swc(),
            job.instance
        );
    }
    println!(
        "SWC switches per hyperperiod (each = pipeline drain + seed swap): {}\n",
        os.schedule().swc_switches(os.application())
    );

    let hyperperiods = 60;
    let report = os.run(hyperperiods);
    println!("after {hyperperiods} hyperperiods:");
    println!("  context switches: {}", report.context_switches);
    println!("  seed swaps:       {}", report.seed_swaps);
    println!("  cache flushes:    {}", report.flushes);
    println!(
        "  OS overhead:      {} cycles ({:.4}% of total)\n",
        report.overhead_cycles,
        100.0 * report.overhead_fraction()
    );

    // §6.2.2: execution times across hyperperiods are i.i.d. Use R2's
    // *second* instance per hyperperiod: the first one runs on a freshly
    // flushed cache (all compulsory misses, layout-independent), while
    // the second sees the layout-dependent conflict pattern.
    let r2_second: Vec<u64> = report.times[1].iter().copied().skip(1).step_by(2).collect();
    let iid = validate_iid_paper(&to_f64(&r2_second));
    println!("R2 (second instance per hyperperiod) i.i.d. validation:\n  {iid}");
    println!("\nNote (paper §5): instances of one runnable *within* a hyperperiod share");
    println!("a seed, so their times are dependent; across hyperperiods they are not.");
}
