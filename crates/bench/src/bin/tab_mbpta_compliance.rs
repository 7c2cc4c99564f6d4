//! **§6.2.2 (table)** — MBPTA compliance: Ljung-Box independence over
//! 20 lags and two-sample Kolmogorov-Smirnov identical-distribution
//! tests at α = 0.05, for each cache setup over several workloads.
//!
//! The paper validates that TSCache execution times pass both tests;
//! the deterministic cache yields constant (degenerate) times, which
//! carry no randomization and cannot support MBPTA.
//!
//! ```text
//! cargo run -p tscache-bench --release --bin tab_mbpta_compliance -- \
//!     --runs 500 --alpha 0.05 --seed 0xDAC18
//! ```

use tscache_bench::Args;
use tscache_core::setup::SetupKind;
use tscache_mbpta::iid::validate_iid;
use tscache_mbpta::stats::to_f64;
use tscache_sim::layout::Layout;
use tscache_sim::synthetic::{ArraySweep, MatrixMult, MultipathTask, PointerChase};
use tscache_sim::workload::{collect_execution_times, MeasurementProtocol, Workload};

fn main() {
    let args = Args::from_env();
    let runs: u32 = args.get_int("runs", 500);
    let alpha = args.get_f64("alpha", 0.05);
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== §6.2.2: i.i.d. validation (Ljung-Box 20 lags + two-sample KS, alpha={alpha}) ==");
    println!("runs per (setup, workload): {runs}\n");
    println!(
        "{:<14} {:<14} {:>10} {:>10} {:>8} {:>8}  verdict",
        "setup", "workload", "LB p", "KS p", "mean", "range"
    );

    for setup in
        [SetupKind::Mbpta, SetupKind::TsCache, SetupKind::RpCache, SetupKind::Deterministic]
    {
        for w in 0..4usize {
            let mut layout = Layout::new(0x10_0000);
            let mut workload: Box<dyn Workload> = match w {
                0 => Box::new(MultipathTask::standard(&mut layout)),
                1 => Box::new(ArraySweep::standard(&mut layout)),
                2 => Box::new(PointerChase::standard(&mut layout)),
                _ => Box::new(MatrixMult::standard(&mut layout)),
            };
            let protocol = MeasurementProtocol {
                runs,
                rng_seed: seed ^ (w as u64) << 8,
                ..Default::default()
            };
            let times = collect_execution_times(setup, workload.as_mut(), &protocol, None)
                .expect("valid protocol");
            let xs = to_f64(&times);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            if (max - min).abs() < f64::EPSILON {
                println!(
                    "{:<14} {:<14} {:>10} {:>10} {:>8.0} {:>8.0}  degenerate (constant times: no randomization to analyse)",
                    setup.label(),
                    workload.name(),
                    "-",
                    "-",
                    mean,
                    max - min
                );
                continue;
            }
            let report = validate_iid(&xs, 20, alpha);
            println!(
                "{:<14} {:<14} {:>10.4} {:>10.4} {:>8.0} {:>8.0}  {}",
                setup.label(),
                workload.name(),
                report.ljung_box.p_value,
                report.ks.p_value,
                mean,
                max - min,
                if report.passed() { "PASS (i.i.d.)" } else { "FAIL" }
            );
        }
        println!();
    }
    println!("paper: all TSCache/MBPTACache samples passed both tests at alpha = 0.05.");
}
