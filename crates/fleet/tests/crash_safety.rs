//! The crash-safety contract, pinned by property tests: a fleet
//! campaign's merged output is bit-identical across worker counts,
//! shard completion orders, kills at any checkpoint boundary, torn
//! checkpoint writes, injected I/O errors, and panic/retry storms.
//!
//! Every test compares against one uninterrupted single-worker
//! reference run of the same spec — the digest every other execution
//! history must land on exactly.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tscache_core::defense::DefenseKind;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_fleet::executor::{launch, resume, ExecutorConfig, QuarantineReason, RunOutcome};
use tscache_fleet::fault::FaultPlan;
use tscache_fleet::spec::{AttackKind, DetectionMode, FleetError, PlatformKind, SweepSpec};

/// Worker counts of the determinism matrix (mirrors CI).
const WORKERS: [usize; 3] = [1, 3, 8];

/// A tiny but multi-scenario spec: Prime+Probe over all four setups,
/// two shards each → 8 shards, cheap enough for 64-case proptests.
fn tiny_spec() -> SweepSpec {
    SweepSpec {
        campaign_seed: 0x7e57_f1ee,
        samples_per_shard: 12,
        shards_per_scenario: 2,
        setups: SetupKind::ALL.to_vec(),
        depths: vec![HierarchyDepth::TwoLevel],
        platforms: vec![PlatformKind::Private],
        contention: vec![false],
        attacks: vec![AttackKind::PrimeProbe],
        detection: vec![DetectionMode::Off],
        defenses: vec![DefenseKind::Off],
    }
}

const TINY_SHARDS: u64 = 10; // 5 setups × 2 shards

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tscache-fleet-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(workers: usize) -> ExecutorConfig {
    ExecutorConfig { workers, checkpoint_every: 2, ..ExecutorConfig::default() }
}

/// The uninterrupted single-worker reference digest for `tiny_spec`.
fn reference_digest() -> u64 {
    static REF: OnceLock<u64> = OnceLock::new();
    *REF.get_or_init(|| {
        let dir = fresh_dir("reference");
        let outcome = launch(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()).unwrap();
        let RunOutcome::Finished(result) = outcome else { panic!("reference run was killed") };
        assert!(result.is_complete());
        std::fs::remove_dir_all(&dir).unwrap();
        result.campaign_digest
    })
}

fn finish(outcome: RunOutcome) -> tscache_fleet::CampaignResult {
    match outcome {
        RunOutcome::Finished(result) => result,
        RunOutcome::Killed { records_durable } => {
            panic!("campaign unexpectedly killed at {records_durable} records")
        }
    }
}

#[test]
fn uninterrupted_campaign_is_worker_count_invariant() {
    // The last count asks for more workers than there are shards.
    for workers in WORKERS.into_iter().chain([2 * TINY_SHARDS as usize]) {
        let dir = fresh_dir("workers");
        let result = finish(launch(&tiny_spec(), &dir, &cfg(workers), &FaultPlan::none()).unwrap());
        assert!(result.is_complete());
        assert_eq!(
            result.campaign_digest,
            reference_digest(),
            "digest diverged under {workers} workers"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn launch_rejects_bad_specs_and_occupied_dirs() {
    let mut bad = tiny_spec();
    bad.samples_per_shard = 0;
    let dir = fresh_dir("badspec");
    assert!(matches!(launch(&bad, &dir, &cfg(1), &FaultPlan::none()), Err(FleetError::BadSpec(_))));
    // A good launch occupies the directory; a second launch must refuse.
    finish(launch(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()).unwrap());
    assert!(matches!(
        launch(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()),
        Err(FleetError::Corrupt(_))
    ));
    // And resume with a different spec must detect the mismatch.
    let mut other = tiny_spec();
    other.campaign_seed ^= 1;
    assert!(matches!(
        resume(&other, &dir, &cfg(1), &FaultPlan::none()),
        Err(FleetError::SpecMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_a_corrupt_manifest() {
    let dir = fresh_dir("bad-manifest");
    finish(launch(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()).unwrap());
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let torn = text[..text.len() / 2].to_string();
    let non_hex = text.replacen("\"0x", "\"0xg", 1);
    let non_numeric = text.replace("\"quarantined\":[]", "\"quarantined\":[x]");
    for bad in [torn, non_hex, non_numeric] {
        assert_ne!(bad, text);
        std::fs::write(&path, &bad).unwrap();
        assert!(
            matches!(
                resume(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()),
                Err(FleetError::Corrupt(_))
            ),
            "resume accepted {bad:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Kill the campaign after any number of durable records, resume
    /// under any worker count of the matrix (with a scrambled queue):
    /// the merged digest is the reference's, bit for bit.
    #[test]
    fn kill_at_any_boundary_then_resume_is_bit_identical(
        kill_at in 1u64..TINY_SHARDS,
        launch_widx in 0usize..3,
        resume_widx in 0usize..3,
        scramble in any::<u64>(),
    ) {
        let dir = fresh_dir("kill");
        let faults = FaultPlan { kill_after_records: Some(kill_at), ..FaultPlan::default() };
        let mut launch_cfg = cfg(WORKERS[launch_widx]);
        launch_cfg.scramble_seed = Some(scramble);
        let outcome = launch(&tiny_spec(), &dir, &launch_cfg, &faults).unwrap();
        match outcome {
            RunOutcome::Killed { records_durable } => prop_assert!(records_durable >= kill_at),
            RunOutcome::Finished(_) => prop_assert!(false, "kill fault did not fire"),
        }
        // No report may exist after a kill — only the append log.
        prop_assert!(!dir.join("report.json").exists());
        let result = match resume(&tiny_spec(), &dir, &cfg(WORKERS[resume_widx]), &FaultPlan::none()).unwrap() {
            RunOutcome::Finished(result) => result,
            RunOutcome::Killed { .. } => { prop_assert!(false, "clean resume was killed"); unreachable!() }
        };
        prop_assert!(result.is_complete());
        prop_assert_eq!(result.campaign_digest, reference_digest());
        prop_assert!(dir.join("report.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Shard completion order never matters: any scramble of the work
    /// queue under any worker count reproduces the reference digest.
    #[test]
    fn shuffled_completion_order_is_invariant(
        scramble in any::<u64>(),
        widx in 0usize..3,
    ) {
        let dir = fresh_dir("shuffle");
        let mut c = cfg(WORKERS[widx]);
        c.scramble_seed = Some(scramble);
        let result = match launch(&tiny_spec(), &dir, &c, &FaultPlan::none()).unwrap() {
            RunOutcome::Finished(result) => result,
            RunOutcome::Killed { .. } => { prop_assert!(false, "no faults, yet killed"); unreachable!() }
        };
        prop_assert!(result.is_complete());
        prop_assert_eq!(result.campaign_digest, reference_digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn (half-written) record is dropped on load and the shard
    /// re-runs: resume still lands on the reference digest.
    #[test]
    fn torn_checkpoint_recovers_bit_identically(
        torn_at in 0u64..TINY_SHARDS,
        widx in 0usize..3,
    ) {
        let dir = fresh_dir("torn");
        let faults = FaultPlan { torn_write_after: Some(torn_at), ..FaultPlan::default() };
        match launch(&tiny_spec(), &dir, &cfg(WORKERS[widx]), &faults).unwrap() {
            RunOutcome::Killed { records_durable } => prop_assert_eq!(records_durable, torn_at),
            RunOutcome::Finished(_) => prop_assert!(false, "torn-write fault did not fire"),
        }
        let result = match resume(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()).unwrap() {
            RunOutcome::Finished(result) => result,
            RunOutcome::Killed { .. } => { prop_assert!(false, "clean resume was killed"); unreachable!() }
        };
        prop_assert!(result.is_complete());
        prop_assert_eq!(result.campaign_digest, reference_digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Transient worker panics retry to the exact same output, with
    /// the retries visible only in the accounting block.
    #[test]
    fn transient_panics_retry_to_identical_output(
        shard in 0usize..TINY_SHARDS as usize,
        failures in 1u32..3,
        widx in 0usize..3,
    ) {
        let dir = fresh_dir("retry");
        let faults = FaultPlan { panic_on: vec![(shard, failures)], ..FaultPlan::default() };
        let result = match launch(&tiny_spec(), &dir, &cfg(WORKERS[widx]), &faults).unwrap() {
            RunOutcome::Finished(result) => result,
            RunOutcome::Killed { .. } => { prop_assert!(false, "retryable fault killed the run"); unreachable!() }
        };
        prop_assert!(result.is_complete());
        prop_assert_eq!(result.accounting.retries, failures as u64);
        // Deterministic backoff accounting: sum of 1 << (attempt-1).
        let expected_backoff: u64 = (1..=failures as u64).map(|a| 1u64 << (a - 1)).sum();
        prop_assert_eq!(result.accounting.backoff_units, expected_backoff);
        prop_assert_eq!(result.campaign_digest, reference_digest());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The torn-tail regression: a torn write, then a resume that is
/// itself interrupted, then a final resume. Before `load()` truncated
/// the torn tail, the interrupted resume's first append concatenated
/// onto the half-written line, and the final resume died with
/// `FleetError::Corrupt` on a mid-file unparseable line.
#[test]
fn directory_stays_loadable_when_a_resume_after_a_torn_write_is_killed() {
    let dir = fresh_dir("torn-reload");
    let torn = FaultPlan { torn_write_after: Some(3), ..FaultPlan::default() };
    match launch(&tiny_spec(), &dir, &cfg(1), &torn).unwrap() {
        RunOutcome::Killed { records_durable } => assert_eq!(records_durable, 3),
        RunOutcome::Finished(_) => panic!("torn-write fault did not fire"),
    }
    // Resume appends past the (healed) torn tail, then gets killed.
    let kill = FaultPlan { kill_after_records: Some(5), ..FaultPlan::default() };
    match resume(&tiny_spec(), &dir, &cfg(1), &kill).unwrap() {
        RunOutcome::Killed { records_durable } => assert!(records_durable >= 5),
        RunOutcome::Finished(_) => panic!("kill fault did not fire"),
    }
    // The directory must still be loadable, and the final resume must
    // land on the reference digest.
    let result = finish(resume(&tiny_spec(), &dir, &cfg(3), &FaultPlan::none()).unwrap());
    assert!(result.is_complete());
    assert_eq!(result.campaign_digest, reference_digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistent_crash_quarantines_then_resume_recovers() {
    let dir = fresh_dir("quarantine");
    let faults = FaultPlan { panic_on: vec![(5, u32::MAX)], ..FaultPlan::default() };
    let result = finish(launch(&tiny_spec(), &dir, &cfg(3), &faults).unwrap());
    // Graceful degradation: the campaign completes around the casualty
    // with explicit coverage.
    assert!(!result.is_complete());
    assert_eq!(result.shards_completed as u64, TINY_SHARDS - 1);
    assert_eq!(result.quarantined.len(), 1);
    assert_eq!(result.quarantined[0].shard, 5);
    match &result.quarantined[0].reason {
        QuarantineReason::Crashed { attempts, message } => {
            assert_eq!(*attempts, 1 + ExecutorConfig::default().max_retries);
            assert!(message.contains("injected fault"), "got: {message}");
        }
        other => panic!("wrong quarantine reason: {other:?}"),
    }
    // The fault was environmental: a clean resume re-attempts the
    // quarantined shard and converges to the reference output.
    let resumed = finish(resume(&tiny_spec(), &dir, &cfg(3), &FaultPlan::none()).unwrap());
    assert!(resumed.is_complete());
    assert!(resumed.quarantined.is_empty());
    assert_eq!(resumed.campaign_digest, reference_digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_spec_shards_quarantine_without_retry() {
    let dir = fresh_dir("badspec-shard");
    let faults = FaultPlan { bad_spec_on: vec![2], ..FaultPlan::default() };
    let result = finish(launch(&tiny_spec(), &dir, &cfg(3), &faults).unwrap());
    assert!(!result.is_complete());
    assert_eq!(result.quarantined.len(), 1);
    assert!(matches!(result.quarantined[0].reason, QuarantineReason::BadSpec(_)));
    // The distinction that matters: a bad spec burns zero retries.
    assert_eq!(result.accounting.retries, 0);
    assert_eq!(result.accounting.backoff_units, 0);
    let resumed = finish(resume(&tiny_spec(), &dir, &cfg(1), &FaultPlan::none()).unwrap());
    assert!(resumed.is_complete());
    assert_eq!(resumed.campaign_digest, reference_digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_io_error_halts_cleanly_and_resume_completes() {
    let dir = fresh_dir("ioerr");
    let faults = FaultPlan { io_error_on_writes: vec![3], ..FaultPlan::default() };
    match launch(&tiny_spec(), &dir, &cfg(2), &faults) {
        Err(FleetError::Io(e)) => assert!(e.to_string().contains("injected"), "got: {e}"),
        other => panic!("expected an I/O error, got {other:?}"),
    }
    let resumed = finish(resume(&tiny_spec(), &dir, &cfg(2), &FaultPlan::none()).unwrap());
    assert!(resumed.is_complete());
    assert_eq!(resumed.campaign_digest, reference_digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The detection axis end to end: a sweep mixing detection-off,
/// monitored and evading scenarios is worker-count invariant, and a
/// kill-and-resume lands on the same campaign digest bit for bit —
/// the ROC/latency digests must be as crash-safe as the attack
/// digests they ride next to.
#[test]
fn detection_axis_is_deterministic_and_survives_kill_and_resume() {
    let spec = SweepSpec {
        campaign_seed: 0xde7ec7,
        samples_per_shard: 24,
        shards_per_scenario: 2,
        setups: vec![SetupKind::Deterministic],
        depths: vec![HierarchyDepth::TwoLevel],
        platforms: vec![PlatformKind::Private],
        contention: vec![false],
        attacks: vec![AttackKind::PrimeProbe, AttackKind::FlushReload],
        detection: vec![DetectionMode::Off, DetectionMode::Monitor, DetectionMode::Jitter],
        defenses: vec![DefenseKind::Off],
    };
    // Flush+Reload on a private platform only exists once the
    // detection axis re-canonicalizes it onto the coherent machine:
    // P+P {off, monitor, jitter} + F+R {monitor, jitter} = 5 scenarios.
    assert_eq!(spec.jobs().unwrap().len(), 10);

    let clean_dir = fresh_dir("detect-clean");
    let clean = finish(launch(&spec, &clean_dir, &cfg(1), &FaultPlan::none()).unwrap());
    assert!(clean.is_complete());
    for workers in &WORKERS[1..] {
        let dir = fresh_dir("detect-workers");
        let result = finish(launch(&spec, &dir, &cfg(*workers), &FaultPlan::none()).unwrap());
        assert_eq!(
            result.campaign_digest, clean.campaign_digest,
            "detection digest diverged under {workers} workers"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    let dir = fresh_dir("detect-kill");
    let faults = FaultPlan { kill_after_records: Some(4), ..FaultPlan::default() };
    match launch(&spec, &dir, &cfg(3), &faults).unwrap() {
        RunOutcome::Killed { records_durable } => assert!(records_durable >= 4),
        RunOutcome::Finished(_) => panic!("kill fault did not fire"),
    }
    let resumed = finish(resume(&spec, &dir, &cfg(8), &FaultPlan::none()).unwrap());
    assert!(resumed.is_complete());
    assert_eq!(resumed.campaign_digest, clean.campaign_digest);
    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The defense axis end to end: a sweep mixing undefended, TTL and
/// seed-rotation scenarios is worker-count invariant, and a
/// kill-and-resume lands on the same campaign digest bit for bit.
/// Rotation only applies on the shared platform, so the axis also
/// exercises the applicability pruning inside a real campaign.
#[test]
fn defense_axis_is_deterministic_and_survives_kill_and_resume() {
    let spec = SweepSpec {
        campaign_seed: 0xdefe2e,
        samples_per_shard: 24,
        shards_per_scenario: 2,
        setups: vec![SetupKind::TsCache],
        depths: vec![HierarchyDepth::TwoLevel],
        platforms: vec![PlatformKind::Private, PlatformKind::Shared],
        contention: vec![false],
        attacks: vec![AttackKind::Bernstein],
        detection: vec![DetectionMode::Off],
        defenses: vec![DefenseKind::Off, DefenseKind::Ttl, DefenseKind::RotateCore],
    };
    // Private: {off, ttl} (rotation needs a shared level); shared:
    // {off, ttl, rotate-core} — 5 scenarios × 2 shards.
    assert_eq!(spec.jobs().unwrap().len(), 10);

    let clean_dir = fresh_dir("defense-clean");
    let clean = finish(launch(&spec, &clean_dir, &cfg(1), &FaultPlan::none()).unwrap());
    assert!(clean.is_complete());
    for workers in &WORKERS[1..] {
        let dir = fresh_dir("defense-workers");
        let result = finish(launch(&spec, &dir, &cfg(*workers), &FaultPlan::none()).unwrap());
        assert_eq!(
            result.campaign_digest, clean.campaign_digest,
            "defense digest diverged under {workers} workers"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    let dir = fresh_dir("defense-kill");
    let faults = FaultPlan { kill_after_records: Some(4), ..FaultPlan::default() };
    match launch(&spec, &dir, &cfg(3), &faults).unwrap() {
        RunOutcome::Killed { records_durable } => assert!(records_durable >= 4),
        RunOutcome::Finished(_) => panic!("kill fault did not fire"),
    }
    let resumed = finish(resume(&spec, &dir, &cfg(8), &FaultPlan::none()).unwrap());
    assert!(resumed.is_complete());
    assert_eq!(resumed.campaign_digest, clean.campaign_digest);

    // The defended scenarios genuinely differ from the undefended
    // baseline: same attack, same seeds, different digests.
    let by_key: std::collections::BTreeMap<&str, u64> =
        resumed.scenarios.iter().map(|s| (s.key.as_str(), s.digest)).collect();
    let base = by_key["bernstein/tscache/l2/private/solo"];
    let ttl = by_key["bernstein/tscache/l2/private/solo/ttl"];
    assert_ne!(base, ttl, "TTL defense left the campaign untouched");
    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The backoff-overflow regression, end to end: a shard that panics 70
/// times under a deep retry budget drives the accounting past the
/// 64-bit shift boundary (attempt 65's `1 << 64`). The old arithmetic
/// panicked right there in debug builds; now the campaign completes
/// and the accounting pins at `u64::MAX` instead of wrapping.
#[test]
fn deep_retry_storms_saturate_backoff_accounting() {
    let dir = fresh_dir("deep-retry");
    let faults = FaultPlan { panic_on: vec![(2, 70)], ..FaultPlan::default() };
    let mut c = cfg(2);
    c.max_retries = 80;
    let result = finish(launch(&tiny_spec(), &dir, &c, &faults).unwrap());
    assert!(result.is_complete());
    assert_eq!(result.accounting.retries, 70);
    // Sum of 2^0..2^63 is exactly u64::MAX; attempts 65..=70 saturate.
    assert_eq!(result.accounting.backoff_units, u64::MAX);
    assert_eq!(result.campaign_digest, reference_digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The pWCET merge path end to end: a killed-and-resumed sharded
/// campaign reports the exact same merged pWCET (and byte-identical
/// report file) as an uninterrupted one.
#[test]
fn pwcet_merge_survives_kill_and_resume() {
    let spec = SweepSpec {
        campaign_seed: 0x90ce7,
        samples_per_shard: 40,
        shards_per_scenario: 3,
        setups: vec![SetupKind::Mbpta, SetupKind::TsCache],
        depths: vec![HierarchyDepth::TwoLevel],
        platforms: vec![PlatformKind::Private, PlatformKind::Shared],
        contention: vec![false],
        attacks: vec![AttackKind::Pwcet],
        detection: vec![DetectionMode::Off],
        defenses: vec![DefenseKind::Off],
    };
    let clean_dir = fresh_dir("pwcet-clean");
    let clean = finish(launch(&spec, &clean_dir, &cfg(1), &FaultPlan::none()).unwrap());
    assert!(clean.is_complete());
    assert!(
        clean.scenarios.iter().all(|s| s.pwcet.is_some()),
        "every pwcet scenario must carry a merged pWCET"
    );

    let dir = fresh_dir("pwcet-kill");
    let faults = FaultPlan { kill_after_records: Some(5), ..FaultPlan::default() };
    match launch(&spec, &dir, &cfg(3), &faults).unwrap() {
        RunOutcome::Killed { .. } => {}
        RunOutcome::Finished(_) => panic!("kill fault did not fire"),
    }
    let resumed = finish(resume(&spec, &dir, &cfg(8), &FaultPlan::none()).unwrap());
    assert!(resumed.is_complete());
    assert_eq!(resumed.campaign_digest, clean.campaign_digest);
    for (a, b) in clean.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.pwcet, b.pwcet, "merged pWCET diverged for {}", a.key);
        assert_eq!(a.digest, b.digest);
    }
    let clean_report = std::fs::read_to_string(clean_dir.join("report.json")).unwrap();
    let resumed_report = std::fs::read_to_string(dir.join("report.json")).unwrap();
    assert_eq!(clean_report, resumed_report, "report files must be byte-identical");
    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
