//! MBPTA in practice: derive a pWCET bound for a task, validate it on
//! an independent run, then demonstrate time composability (mbpta-p1):
//! on a random cache the bound survives a change of memory layout; on a
//! deterministic cache, timing jumps when objects move relative to each
//! other. Finally, the multicore experiment: the same workload's pWCET
//! curve solo versus with an active co-runner on the shared bus.
//!
//! ```text
//! cargo run --release --example pwcet_analysis [l2|l3]
//! ```
//!
//! The optional argument selects the hierarchy depth (default `l2`;
//! `l3` adds the 1 MiB L3 preset).

use tscache::core::setup::{HierarchyDepth, SetupKind};
use tscache::interference::ContentionConfig;
use tscache::mbpta::analysis::{analyze, MbptaConfig};
use tscache::sim::layout::Layout;
use tscache::sim::machine::Machine;
use tscache::sim::synthetic::ArraySweep;
use tscache::sim::workload::{collect_execution_times, MeasurementProtocol, Workload};

fn depth_arg() -> HierarchyDepth {
    match std::env::args().nth(1).as_deref() {
        Some("l3") => HierarchyDepth::ThreeLevel,
        _ => HierarchyDepth::TwoLevel,
    }
}

/// A task interleaving sweeps over two 10 KiB buffers. The buffers
/// cover 1.25 pages each, so *which* cache sets hold 5+ active lines —
/// and therefore thrash — depends on the buffers' relative alignment:
/// exactly the layout sensitivity that breaks WCET composability on
/// deterministic caches.
struct TwoBufferTask {
    a: tscache::sim::layout::Region,
    b: tscache::sim::layout::Region,
    code: tscache::sim::layout::Region,
}

impl TwoBufferTask {
    /// Builds the task with `pad` bytes inserted between the buffers —
    /// the kind of relative-alignment change a software integration
    /// produces (paper §2.1: object addresses change across
    /// integrations).
    fn with_pad(pad: u64) -> Self {
        let mut layout = Layout::new(0x10_0000);
        let code = layout.alloc("task.code", 256, 32);
        let a = layout.alloc("task.a", 10 * 1024, 4096);
        if pad > 0 {
            layout.alloc("integration.pad", pad, 32);
        }
        let b = layout.alloc("task.b", 10 * 1024, 32);
        TwoBufferTask { a, b, code }
    }
}

impl Workload for TwoBufferTask {
    fn name(&self) -> &str {
        "two-buffer"
    }

    fn run(&mut self, machine: &mut Machine) {
        for _ in 0..3 {
            let mut off = 0;
            while off < self.a.size() {
                machine.run_block(self.code.base(), 4);
                machine.load(self.a.at(off));
                machine.load(self.b.at(off));
                off += 32;
            }
            machine.branch();
        }
    }
}

fn measure(setup: SetupKind, pad: u64, rng_seed: u64, runs: u32) -> Vec<u64> {
    let mut task = TwoBufferTask::with_pad(pad);
    let protocol = MeasurementProtocol { runs, rng_seed, depth: depth_arg(), ..Default::default() };
    collect_execution_times(setup, &mut task, &protocol, None).expect("valid protocol")
}

fn main() {
    println!("pWCET analysis with validation and re-linking ({} hierarchy)\n", depth_arg());

    // Analysis phase: 1000 runs on the MBPTA platform.
    let analysis_times = measure(SetupKind::Mbpta, 0, 0xA11A, 1000);
    let analysis = analyze(&analysis_times, &MbptaConfig::default());
    println!("analysis phase   : {analysis}\n");
    let bound = analysis.pwcet(1e-9);

    // Operation phase: fresh seeds (different RNG stream), same binary.
    let op_times = measure(SetupKind::Mbpta, 0, 0x0B0B, 2000);
    let exceed = op_times.iter().filter(|&&t| t as f64 > bound).count();
    println!("operation phase  : {exceed}/2000 runs exceeded the 1e-9 pWCET bound ({bound:.0})");

    // Integration change: the buffers shift relative to each other.
    let moved_times = measure(SetupKind::Mbpta, 0x2520, 0x0C0C, 2000);
    let exceed_moved = moved_times.iter().filter(|&&t| t as f64 > bound).count();
    println!(
        "after re-linking : {exceed_moved}/2000 runs exceeded (random cache: bound still holds)"
    );

    // The same exercise on the deterministic cache: timing is constant
    // per layout but jumps when relative alignment changes.
    println!("\ndeterministic cache, same program at different buffer alignments:");
    let base = measure(SetupKind::Deterministic, 0, 1, 3)[0];
    let (mut lo, mut hi) = (base, base);
    for pad in [0x520u64, 0x15e0, 0x2520, 0x3fe0] {
        let t = measure(SetupKind::Deterministic, pad, 1, 3)[0];
        println!(
            "  pad {pad:#7x}: {t} cycles ({:+.2}%)",
            100.0 * (t as f64 - base as f64) / base as f64
        );
        lo = lo.min(t);
        hi = hi.max(t);
    }
    println!("  baseline   : {base} cycles");
    println!(
        "  spread     : {:.2}% across layouts — a WCET measured at one layout does not bound another",
        100.0 * (hi as f64 - lo as f64) / lo as f64
    );
    println!("\nThis is mbpta-p1 (time composability): random placement makes the");
    println!("analysis-phase measurements representative of any future layout.");

    // Multicore deployment: the same workload solo vs with an active
    // co-runner on the shared bus. Contention is timing-only, so the
    // contended curve dominates (is never tighter than) the solo one —
    // the price of multicore integration read straight off the curves.
    println!("\nsolo vs contended pWCET (array sweep, same per-run seeds):");
    let curve = |contention: Option<ContentionConfig>, shared_llc: bool| {
        let mut sweep = ArraySweep::standard(&mut Layout::new(0x10_0000));
        let protocol = MeasurementProtocol {
            runs: 800,
            rng_seed: 0xC0117,
            depth: depth_arg(),
            contention,
            shared_llc,
            ..Default::default()
        };
        analyze(
            &collect_execution_times(SetupKind::Mbpta, &mut sweep, &protocol, None)
                .expect("valid protocol"),
            &MbptaConfig::default(),
        )
    };
    let solo = curve(None, false);
    let contended = curve(Some(ContentionConfig::default()), false);
    println!("{:>12} {:>14} {:>14} {:>9}", "exceedance", "solo", "contended", "cost");
    for exp in [3, 6, 9, 12] {
        let p = 10f64.powi(-exp);
        let (s, c) = (solo.pwcet(p), contended.pwcet(p));
        println!(
            "{:>12} {:>14.0} {:>14.0} {:>8.2}%",
            format!("1e-{exp}"),
            s,
            c,
            100.0 * (c - s) / s
        );
    }
    println!("\nThe gap is the contention budget a multicore integration must");
    println!("provision on top of the solo pWCET, measured here against one");
    println!("co-runner on a first-come first-served bus.");

    // The same experiment when the platform's last level is *shared*
    // between the measured core and the co-runner: enemy traffic now
    // evicts the workload's shared-level lines, so the contended curve
    // carries state perturbation on top of queuing — the extra budget
    // a shared-LLC integration must provision, and what per-core way
    // partitions (§7) would win back.
    println!("\nprivate vs shared last level, solo and contended pWCET:");
    let shared_solo = curve(None, true);
    let shared_contended = curve(Some(ContentionConfig::default()), true);
    println!(
        "{:>12} {:>13} {:>13} {:>13} {:>13}",
        "exceedance", "priv solo", "priv cont", "shared solo", "shared cont"
    );
    for exp in [3, 6, 9, 12] {
        let p = 10f64.powi(-exp);
        println!(
            "{:>12} {:>13.0} {:>13.0} {:>13.0} {:>13.0}",
            format!("1e-{exp}"),
            solo.pwcet(p),
            contended.pwcet(p),
            shared_solo.pwcet(p),
            shared_contended.pwcet(p)
        );
    }
    println!("\nOn the shared platform contention reaches cache *state*, not just");
    println!("the bus: the victim's shared-level lines are evicted by the enemy,");
    println!("which is exactly the channel the cross-core Prime+Probe example");
    println!("exploits (see tests/shared_llc_attack.rs) and per-core partitions");
    println!("eliminate.");
}
