//! Quickstart: build the paper's four cache setups, time the same
//! program on each, and see why randomization matters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tscache::core::setup::SetupKind;
use tscache::mbpta::analysis::{analyze, MbptaConfig};
use tscache::sim::layout::Layout;
use tscache::sim::synthetic::MultipathTask;
use tscache::sim::workload::{collect_execution_times, MeasurementProtocol};

fn main() {
    println!("TSCache quickstart: one task, four cache designs\n");

    for setup in SetupKind::ALL {
        // The same multipath control task on each platform.
        let mut layout = Layout::new(0x10_0000);
        let mut task = MultipathTask::standard(&mut layout);

        // MBPTA measurement protocol: fresh seed + flush per run.
        let protocol = MeasurementProtocol { runs: 400, rng_seed: 0xDAC18, ..Default::default() };
        let times =
            collect_execution_times(setup, &mut task, &protocol, None).expect("valid protocol");

        let min = *times.iter().min().expect("400 runs");
        let max = *times.iter().max().expect("400 runs");
        println!("setup: {}", setup.label());
        println!("  execution time range over 400 runs: {min}..{max} cycles");

        if max == min {
            println!("  -> deterministic timing: nothing for EVT to model;");
            println!("     WCET estimates stop holding the moment the memory layout changes.\n");
            continue;
        }

        // Randomized timing: run the MBPTA pipeline.
        let analysis = analyze(&times, &MbptaConfig::default());
        println!("  -> i.i.d. tests: {}", if analysis.iid.passed() { "pass" } else { "FAIL" });
        println!(
            "  -> pWCET at 10^-10 per run: {:.0} cycles (observed max {:.0})\n",
            analysis.pwcet(1e-10),
            analysis.summary.max
        );
    }

    println!("MBPTACache and TSCache share this timing behaviour; they differ in");
    println!("seed management — run `--example bernstein_attack` to see why it matters.");
}
