//! The parallel attack/sampling harness must be bit-reproducible
//! regardless of worker-thread count: every trial derives its
//! randomness purely from `(master_seed, trial index)` and results are
//! collected in index order.
//!
//! Kept in its own binary (tests run sequentially here) because it
//! mutates process-global environment variables. CI runs this matrix
//! explicitly as the `determinism` job, alongside the
//! `determinism_probe` binary diffed under `RAYON_NUM_THREADS=1` vs
//! `=8`.

use tscache_core::defense::DefenseKind;
use tscache_core::parallel::thread_count;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_sca::bernstein::analyze;
use tscache_sca::detect::{
    run_detection_campaign, DetectTarget, DetectionCampaignConfig, EvasionMode,
};
use tscache_sca::evict_time::run_evict_time;
use tscache_sca::prime_probe::run_prime_probe;
use tscache_sca::sampling::{collect_pair, SamplingConfig, TimingSample};
use tscache_sim::layout::Layout;
use tscache_sim::synthetic::ArraySweep;
use tscache_sim::workload::{collect_execution_times_par, MeasurementProtocol};

/// The thread counts of the CI determinism matrix.
const MATRIX: [&str; 3] = ["1", "3", "8"];

fn with_threads<T>(n: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", n);
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// Runs `f` under every thread count in the matrix and asserts all
/// results are bit-identical to the single-threaded reference.
fn assert_invariant<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let reference = with_threads(MATRIX[0], &f);
    for n in &MATRIX[1..] {
        let got = with_threads(n, &f);
        assert!(
            got == reference,
            "{what}: result under {n} threads diverges from single-threaded reference"
        );
    }
}

#[test]
fn attack_and_mbpta_results_are_bit_identical_across_thread_counts() {
    assert_eq!(with_threads("1", thread_count), 1);
    assert_eq!(with_threads("8", thread_count), 8);

    // Prime+Probe / Evict+Time: trial fan-out.
    assert_invariant("prime+probe", || {
        run_prime_probe(SetupKind::TsCache, DefenseKind::Off, 64, 7).expect("trials > 0")
    });
    assert_invariant("evict+time", || {
        run_evict_time(SetupKind::Deterministic, DefenseKind::Off, 64, 3).expect("trials > 0")
    });

    // Detection campaigns: the benign/attack scenario pair fans out
    // over `parallel::join`, and the ROC/latency/event outcome must be
    // bit-identical for every worker count.
    for target in DetectTarget::ALL {
        let cfg = DetectionCampaignConfig::standard(target, SetupKind::Deterministic, 7);
        assert_invariant(&format!("detect/{}", target.label()), || {
            run_detection_campaign(&cfg).expect("valid campaign config")
        });
    }
    let evading = DetectionCampaignConfig {
        evasion: EvasionMode::Jitter,
        ..DetectionCampaignConfig::standard(DetectTarget::PrimeProbe, SetupKind::TsCache, 21)
    };
    assert_invariant("detect/jitter", || {
        run_detection_campaign(&evading).expect("valid campaign config")
    });

    // Bernstein sampling pair, on both hierarchy depths.
    let (ka, kv) = ([0u8; 16], [9u8; 16]);
    for depth in HierarchyDepth::ALL {
        let mut cfg = SamplingConfig::standard(SetupKind::Mbpta, 200, 0xbeef);
        cfg.depth = depth;
        assert_invariant(&format!("collect_pair/{depth}"), || {
            collect_pair(cfg, &ka, &kv).expect("valid sampling config")
        });
    }

    // Per-byte correlation sweep.
    let noise: Vec<TimingSample> = (0..500)
        .map(|i| TimingSample {
            plaintext: core::array::from_fn(|j| (i * 31 + j as u64 * 7) as u8),
            cycles: 10_000 + (i * i) % 97,
        })
        .collect();
    let r1 = with_threads("1", || analyze(&noise, &ka, &noise, &kv));
    let r8 = with_threads("8", || analyze(&noise, &ka, &noise, &kv));
    for (b1, b8) in r1.bytes.iter().zip(&r8.bytes) {
        assert_eq!(b1.scores, b8.scores, "byte {} scores diverge", b1.byte);
        assert_eq!(b1.feasible, b8.feasible);
    }

    // MBPTA measurement collection (the parallel independent-runs
    // protocol), driven through the batched-replay workloads.
    let protocol = MeasurementProtocol { runs: 24, ..Default::default() };
    assert_invariant("mbpta collection", || {
        collect_execution_times_par(SetupKind::Mbpta, &protocol, || {
            ArraySweep::standard(&mut Layout::new(0x10_0000))
        })
        .expect("valid protocol")
    });

    // Contended campaigns: co-runner cores, shared-bus queuing and
    // MSHR coalescing must not break thread-count invariance anywhere.
    let mut contended = SamplingConfig::standard(SetupKind::TsCache, 150, 0xd00d);
    contended.contention = Some(tscache_interference::ContentionConfig::default());
    contended.reseed_every = 32;
    contended.warmup_jobs = 2;
    assert_invariant("contended collect_pair", || {
        collect_pair(contended, &ka, &kv).expect("valid sampling config")
    });
    let contended_protocol = MeasurementProtocol {
        runs: 16,
        contention: Some(tscache_interference::ContentionConfig::default()),
        ..Default::default()
    };
    assert_invariant("contended mbpta collection", || {
        collect_execution_times_par(SetupKind::TsCache, &contended_protocol, || {
            ArraySweep::standard(&mut Layout::new(0x10_0000))
        })
        .expect("valid protocol")
    });

    // Shared-LLC contended campaigns: enemy cores now perturb the
    // measured core's shared-level *contents* — the per-(seed, role)
    // derivations must still make every worker count agree bit for
    // bit.
    let mut shared = SamplingConfig::standard(SetupKind::TsCache, 150, 0x11c);
    shared.shared_llc = true;
    shared.contention = Some(tscache_interference::ContentionConfig::default());
    shared.reseed_every = 32;
    shared.warmup_jobs = 2;
    assert_invariant("shared-LLC collect_pair", || {
        collect_pair(shared, &ka, &kv).expect("valid sampling config")
    });
    let mut shared_part = shared;
    shared_part.partition_llc_ways = 2;
    assert_invariant("partitioned shared-LLC collect_pair", || {
        collect_pair(shared_part, &ka, &kv).expect("valid sampling config")
    });
    let shared_protocol = MeasurementProtocol {
        runs: 16,
        shared_llc: true,
        contention: Some(tscache_interference::ContentionConfig::default()),
        ..Default::default()
    };
    assert_invariant("shared-LLC mbpta collection", || {
        collect_execution_times_par(SetupKind::TsCache, &shared_protocol, || {
            ArraySweep::standard(&mut Layout::new(0x10_0000))
        })
        .expect("valid protocol")
    });
}
