//! **Figure 1 (right)** — pWCET curve: per-run exceedance probability
//! versus execution time for a task on an MBPTA-compliant cache.
//!
//! Protocol (paper §2.1, Fig. 1 left): collect execution times of the
//! task on the target platform with a fresh random placement seed per
//! run, validate i.i.d. (Ljung-Box + KS), fit EVT on block maxima and
//! project the tail.
//!
//! ```text
//! cargo run -p tscache-bench --release --bin fig1_pwcet -- \
//!     --runs 1000 --block 20 --seed 0xDAC18
//! ```

use tscache_bench::{bar, Args};
use tscache_core::setup::SetupKind;
use tscache_mbpta::analysis::{analyze, MbptaConfig};
use tscache_sim::layout::Layout;
use tscache_sim::synthetic::MultipathTask;
use tscache_sim::workload::{collect_execution_times, MeasurementProtocol};

fn main() {
    let args = Args::from_env();
    let runs: u32 = args.get_int("runs", 1000);
    let block: usize = args.get_int("block", 20);
    let seed: u64 = args.get_int("seed", 0xDAC18);

    println!("== Figure 1 (right): pWCET curve ==");
    println!("task: multipath control task; cache: MBPTACache (RM L1 + HashRP L2)");
    println!("runs: {runs}, EVT block size: {block}\n");

    let mut layout = Layout::new(0x10_0000);
    let mut task = MultipathTask::standard(&mut layout);
    let protocol = MeasurementProtocol { runs, rng_seed: seed, ..Default::default() };
    let times = collect_execution_times(SetupKind::Mbpta, &mut task, &protocol, None)
        .expect("valid protocol");

    let analysis = analyze(&times, &MbptaConfig { block_size: block, ..Default::default() });
    println!(
        "observed: mean {:.0}, max (HWM) {:.0} cycles",
        analysis.summary.mean, analysis.summary.max
    );
    println!("i.i.d. validation: {}", analysis.iid);
    println!("model: {}\n", analysis.curve);

    println!("{:>6}  {:>12}  {:<40}", "10^-k", "pWCET(cyc)", "tail");
    let points = analysis.curve.points(15);
    let max_bound = points.last().map(|p| p.0).unwrap_or(1.0);
    let min_bound = points.first().map(|p| p.0).unwrap_or(0.0);
    for (bound, prob) in &points {
        let rel = (bound - min_bound) / (max_bound - min_bound).max(1.0);
        println!("{:>6.0}  {:>12.0}  {}", prob.log10(), bound, bar(rel, 1.0, 40));
    }
    println!(
        "\npWCET at 10^-10 per run (the paper's example threshold): {:.0} cycles",
        analysis.pwcet(1e-10)
    );
    if !analysis.is_mbpta_valid() {
        println!("warning: i.i.d. tests failed; curve shown for reference only");
    }
}
