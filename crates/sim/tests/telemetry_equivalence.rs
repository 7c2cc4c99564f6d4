//! Property tests for the telemetry recorder's observer-only
//! contract: attaching a [`TraceRecorder`] to any measurement
//! configuration — placement policy × hierarchy depth × contention ×
//! platform sharing — changes no simulation outcome, and the recorded
//! stream itself is deterministic. Plus a golden fixture pinning the
//! Chrome trace JSON and curve digests for one fixed seed, so exporter
//! format drift is a deliberate, reviewed change.

use proptest::prelude::*;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::ContentionConfig;
use tscache_sim::layout::Layout;
use tscache_sim::synthetic::{ArraySweep, PointerChase};
use tscache_sim::workload::{collect_execution_times, MeasurementProtocol, Workload};
use tscache_telemetry::digest::fnv64;
use tscache_telemetry::{chrome_trace, exceedance_csv, handle, hist_csv};

fn setup(idx: u8) -> SetupKind {
    match idx % 4 {
        0 => SetupKind::Deterministic,
        1 => SetupKind::RpCache,
        2 => SetupKind::Mbpta,
        _ => SetupKind::TsCache,
    }
}

fn protocol(seed: u64, three_level: bool, contended: bool, shared: bool) -> MeasurementProtocol {
    MeasurementProtocol {
        runs: 5,
        rng_seed: seed,
        depth: if three_level { HierarchyDepth::ThreeLevel } else { HierarchyDepth::TwoLevel },
        contention: contended.then(ContentionConfig::default),
        shared_llc: shared,
        ..Default::default()
    }
}

fn workload(idx: u8) -> Box<dyn Workload> {
    let mut layout = Layout::new(0x10_000);
    if idx.is_multiple_of(2) {
        Box::new(ArraySweep::standard(&mut layout))
    } else {
        Box::new(PointerChase::standard(&mut layout))
    }
}

proptest! {
    /// Recorder-on and recorder-off runs of the same protocol agree on
    /// every execution time, across all four placement setups, both
    /// depths, solo/contended, and private/shared-LLC platforms — and
    /// the recorder's own digest reproduces run over run.
    #[test]
    fn recorder_is_observer_only_across_the_lattice(
        setup_idx in 0u8..4,
        wl_idx in 0u8..2,
        three_level in prop::bool::ANY,
        contended in prop::bool::ANY,
        shared in prop::bool::ANY,
        seed in 1u64..1_000_000,
    ) {
        let kind = setup(setup_idx);
        let proto = protocol(seed, three_level, contended, shared);

        let off = collect_execution_times(kind, &mut *workload(wl_idx), &proto, None)
            .expect("valid protocol");

        let rec = handle(4096);
        let on = collect_execution_times(kind, &mut *workload(wl_idx), &proto, Some(&rec))
            .expect("valid protocol");
        prop_assert_eq!(&off, &on, "recorder changed the measured times");
        let first = rec.borrow().clone();
        prop_assert!(first.recorded() > 0, "instrumented run recorded no events");

        // A second recorded run replays the identical event stream:
        // digest, drop count, and per-core histograms all reproduce.
        let rec2 = handle(4096);
        let again = collect_execution_times(kind, &mut *workload(wl_idx), &proto, Some(&rec2))
            .expect("valid protocol");
        prop_assert_eq!(&on, &again);
        let second = rec2.borrow().clone();
        prop_assert_eq!(first.digest(), second.digest(), "trace digest not reproducible");
        prop_assert_eq!(first.recorded(), second.recorded());
        prop_assert_eq!(first.dropped(), second.dropped());
        prop_assert_eq!(
            first.merged_histogram().to_sparse(),
            second.merged_histogram().to_sparse()
        );
    }

    /// The trace digest is ring-capacity invariant: a recorder too
    /// small to retain the stream still fingerprints all of it.
    #[test]
    fn digest_is_ring_capacity_invariant(
        setup_idx in 0u8..4,
        seed in 1u64..1_000_000,
    ) {
        let kind = setup(setup_idx);
        let proto = protocol(seed, false, false, false);
        let big = handle(1 << 16);
        let tiny = handle(8);
        collect_execution_times(kind, &mut *workload(0), &proto, Some(&big))
            .expect("valid protocol");
        collect_execution_times(kind, &mut *workload(0), &proto, Some(&tiny))
            .expect("valid protocol");
        let (big, tiny) = (big.borrow(), tiny.borrow());
        prop_assert_eq!(big.digest(), tiny.digest(), "digest depends on ring capacity");
        prop_assert_eq!(big.recorded(), tiny.recorded());
        prop_assert!(tiny.dropped() > 0, "tiny ring never overflowed — the case is vacuous");
    }
}

/// Golden fixture: one fixed seed, pinned export fingerprints. If an
/// exporter's byte format or the instrumented event stream changes,
/// these constants must be re-derived *deliberately* (print the new
/// values from the assertion message) — campaign `digests.txt` files
/// on disk are only comparable across code that agrees on them.
#[test]
fn golden_trace_and_curve_digests_for_the_fixed_seed() {
    const GOLDEN_TRACE_DIGEST: u64 = 0xcd2e_848f_4ee2_dcf6;
    const GOLDEN_CHROME_FNV: u64 = 0x339f_b3c3_9136_ecb3;
    const GOLDEN_EXCEEDANCE_FNV: u64 = 0xefd8_152f_e7ec_038d;
    const GOLDEN_HIST_FNV: u64 = 0x4124_3c85_12a8_5706;

    let rec = handle(1 << 14);
    let mut layout = Layout::new(0x10_000);
    let mut sweep = ArraySweep::standard(&mut layout);
    let proto = MeasurementProtocol { runs: 8, rng_seed: 0x5eed, ..Default::default() };
    let times = collect_execution_times(SetupKind::TsCache, &mut sweep, &proto, Some(&rec))
        .expect("valid protocol");
    let rec = rec.borrow();

    let chrome = chrome_trace(&rec.records());
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(chrome.ends_with("]}\n"));

    let exceedance = exceedance_csv(&times);
    let hist = hist_csv(&rec.merged_histogram());
    assert_eq!(
        (
            rec.digest(),
            fnv64(chrome.as_bytes()),
            fnv64(exceedance.as_bytes()),
            fnv64(hist.as_bytes())
        ),
        (GOLDEN_TRACE_DIGEST, GOLDEN_CHROME_FNV, GOLDEN_EXCEEDANCE_FNV, GOLDEN_HIST_FNV),
        "telemetry export fingerprints drifted — re-pin them only for a deliberate format change"
    );
}
