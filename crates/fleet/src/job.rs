//! Running one shard: the bridge from a [`ShardJob`] to the repo's
//! attack and measurement subsystems.
//!
//! [`run_shard`] is a **pure function of the job** — every stream of
//! randomness derives from `job.seed` (itself `mix64(campaign_seed ^
//! shard)`), so a shard re-run after a crash, on a different worker,
//! or in a resumed process produces the byte-identical record.
//!
//! Configuration errors surface as [`ConfigError`] — the executor
//! never retries those. Anything the subsystems panic on is a worker
//! crash and is the executor's `catch_unwind` business, not ours.

use crate::digest::Fnv64;
use crate::spec::{AttackKind, DetectionMode, PlatformKind, ShardJob};
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::pmu::PmuDelta;
use tscache_interference::ContentionConfig;
use tscache_rtos::detector::{DetectionKind, DetectorConfig};
use tscache_rtos::{Application, OsConfig, TscacheOs};
use tscache_sca::detect::{
    run_detection_campaign, DetectTarget, DetectionCampaignConfig, EvasionMode,
};
use tscache_sca::flush_reload::{run_flush_reload, FlushReloadConfig, FlushReloadIsolation};
use tscache_sca::prime_probe::run_prime_probe;
use tscache_sca::sampling::{CryptoNode, Role, SamplingConfig};
use tscache_sca::VICTIM_KEY;
use tscache_sim::layout::Layout;
use tscache_sim::synthetic::ArraySweep;
use tscache_sim::workload::{collect_execution_times, MeasurementProtocol};
use tscache_telemetry::{handle, RecorderHandle, TraceRecorder};

/// Ways reserved for the measured core when a platform partitions the
/// shared LLC (matches the §7 ablation configuration used across the
/// test suites).
const LLC_PARTITION_WAYS: u32 = 2;

/// One shard's result, pre-persistence.
///
/// The summary fields are per-attack headline metrics: for time-series
/// attacks (Bernstein, pWCET, RTOS) they are the moments of the cycle
/// samples; Prime+Probe reports `mean = accuracy`, `min = max = mean
/// evictions`; Flush+Reload reports `mean = correct-key rank`, `min =
/// reload hits`, `max = victim invalidations`. The `digest` always
/// covers the full raw output, so bit-identity never rests on the
/// summary alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardOutput {
    /// FNV-1a digest of the shard's complete raw output.
    pub digest: u64,
    /// Sample count.
    pub n: u64,
    /// Headline mean (see type docs).
    pub mean: f64,
    /// Unbiased variance of the samples (0 for score-style attacks).
    pub variance: f64,
    /// Headline minimum.
    pub min: f64,
    /// Headline maximum.
    pub max: f64,
    /// Raw execution times when the attack produces them and the
    /// caller asked to keep them (pWCET merging needs them).
    pub times: Option<Vec<u64>>,
    /// Sparse latency histogram from the trace recorder (traced shards
    /// whose attack is instrumented — pWCET and RTOS).
    pub hist: Option<Vec<(u32, u64)>>,
    /// Flattened PMU window samples for monitored RTOS shards —
    /// always carried so offline re-scoring never needs a re-run.
    pub pmu: Option<Vec<Vec<u64>>>,
    /// Detector ROC points `(threshold, fpr, tpr)` for detection
    /// sweeps — always carried so curve exports never need a re-run.
    pub roc: Option<Vec<(f64, f64, f64)>>,
    /// Capacity-invariant digest of the shard's trace stream (traced
    /// instrumented shards only).
    pub trace_digest: Option<u64>,
}

/// How to run a shard beyond the job itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOptions {
    /// Keep raw execution times in the output (pWCET merging).
    pub keep_times: bool,
    /// Attach a trace recorder: instrumented attacks additionally
    /// report a latency histogram and trace digest. The simulated
    /// outcome (`digest`, moments, times) is bit-identical either way.
    pub trace: bool,
}

/// Ring capacity for shard trace recorders. The trace digest is
/// capacity-invariant, so this bounds only how much tail the exporters
/// can still see, never what the digest attests.
pub const TRACE_RING_CAPACITY: usize = 65_536;

/// One PMU window delta flattened to a stable counter row:
/// `[cycles, bus_wait, monotone, then per level: accesses, misses,
/// writebacks, cross_process_evictions, coh_invalidations]`.
fn flatten_pmu_delta(delta: &PmuDelta) -> Vec<u64> {
    let mut row = Vec::with_capacity(3 + delta.levels.len() * 5);
    row.push(delta.cycles);
    row.push(delta.bus_wait_cycles);
    row.push(delta.monotone as u64);
    for level in &delta.levels {
        row.push(level.accesses);
        row.push(level.misses);
        row.push(level.writebacks);
        row.push(level.cross_process_evictions);
        row.push(level.coh_invalidations);
    }
    row
}

/// Deterministic moments of a cycle-count sample.
fn moments(times: &[u64]) -> (u64, f64, f64, f64, f64) {
    if times.is_empty() {
        return (0, 0.0, 0.0, 0.0, 0.0);
    }
    let n = times.len() as f64;
    let mean = times.iter().map(|&t| t as f64).sum::<f64>() / n;
    let m2 = times.iter().map(|&t| (t as f64 - mean).powi(2)).sum::<f64>();
    let variance = if times.len() > 1 { m2 / (n - 1.0) } else { 0.0 };
    let min = times.iter().min().copied().unwrap_or(0) as f64;
    let max = times.iter().max().copied().unwrap_or(0) as f64;
    (times.len() as u64, mean, variance, min, max)
}

fn times_output(times: Vec<u64>, keep_times: bool) -> ShardOutput {
    let mut h = Fnv64::new();
    for &t in &times {
        h.write_u64(t);
    }
    let (n, mean, variance, min, max) = moments(&times);
    ShardOutput {
        digest: h.finish(),
        n,
        mean,
        variance,
        min,
        max,
        times: keep_times.then_some(times),
        ..ShardOutput::default()
    }
}

fn run_bernstein(job: &ShardJob) -> Result<ShardOutput, ConfigError> {
    let scenario = &job.scenario;
    let mut cfg = SamplingConfig::standard(scenario.setup, job.samples, job.seed);
    cfg.depth = scenario.depth;
    cfg.defense = scenario.defense;
    if scenario.contended {
        cfg.contention = Some(ContentionConfig::default());
    }
    match scenario.platform {
        PlatformKind::Private => {}
        PlatformKind::Shared => cfg.shared_llc = true,
        PlatformKind::SharedPartitioned => {
            cfg.shared_llc = true;
            cfg.partition_llc_ways = LLC_PARTITION_WAYS;
        }
        PlatformKind::Coherent => {
            return Err(ConfigError::incompatible(
                "bernstein sampling has no coherent-platform variant",
            ));
        }
    }
    let mut node = CryptoNode::try_new(cfg, Role::Victim, &VICTIM_KEY)?;
    let samples = node.collect();
    // Digest covers plaintexts too: two campaigns agree iff they ran
    // the same encryptions, not merely equally fast ones.
    let mut h = Fnv64::new();
    for s in &samples {
        h.write(&s.plaintext);
        h.write_u64(s.cycles);
    }
    let times: Vec<u64> = samples.iter().map(|s| s.cycles).collect();
    let (n, mean, variance, min, max) = moments(&times);
    Ok(ShardOutput { digest: h.finish(), n, mean, variance, min, max, ..ShardOutput::default() })
}

fn run_pwcet(
    job: &ShardJob,
    keep_times: bool,
    recorder: Option<&RecorderHandle>,
) -> Result<ShardOutput, ConfigError> {
    let scenario = &job.scenario;
    let protocol = MeasurementProtocol {
        runs: job.samples,
        rng_seed: job.seed,
        depth: scenario.depth,
        contention: scenario.contended.then(ContentionConfig::default),
        shared_llc: scenario.platform == PlatformKind::Shared,
        defense: scenario.defense,
    };
    let mut workload = ArraySweep::standard(&mut Layout::new(0x10_0000));
    let times = collect_execution_times(scenario.setup, &mut workload, &protocol, recorder)?;
    Ok(times_output(times, keep_times))
}

fn run_prime_probe_shard(job: &ShardJob) -> Result<ShardOutput, ConfigError> {
    let outcome = run_prime_probe(job.scenario.setup, job.scenario.defense, job.samples, job.seed)?;
    let mut h = Fnv64::new();
    h.write_u64(outcome.trials as u64);
    h.write_f64(outcome.accuracy);
    h.write_f64(outcome.mean_evictions);
    Ok(ShardOutput {
        digest: h.finish(),
        n: outcome.trials as u64,
        mean: outcome.accuracy,
        min: outcome.mean_evictions,
        max: outcome.mean_evictions,
        ..ShardOutput::default()
    })
}

fn run_flush_reload_shard(job: &ShardJob) -> Result<ShardOutput, ConfigError> {
    let mut cfg = FlushReloadConfig::standard(job.scenario.setup, job.seed);
    cfg.samples = job.samples;
    cfg.defense = job.scenario.defense;
    cfg.isolation = match job.scenario.platform {
        PlatformKind::Coherent => FlushReloadIsolation::SharedOpen,
        PlatformKind::SharedPartitioned => FlushReloadIsolation::PartitionedReplicated,
        other => {
            return Err(ConfigError::incompatible(format!(
                "flush+reload needs a coherent or partitioned platform, got {}",
                other.label()
            )));
        }
    };
    let outcome = run_flush_reload(&cfg)?;
    let mut h = Fnv64::new();
    h.write_u64(outcome.samples as u64);
    for &s in &outcome.scores {
        h.write_u64(s as u64);
    }
    h.write_f64(outcome.correct_rank);
    h.write_u64(outcome.reload_hits);
    h.write_u64(outcome.victim_invalidations);
    Ok(ShardOutput {
        digest: h.finish(),
        n: outcome.samples as u64,
        mean: outcome.correct_rank,
        min: outcome.reload_hits as f64,
        max: outcome.victim_invalidations as f64,
        ..ShardOutput::default()
    })
}

fn run_rtos(
    job: &ShardJob,
    keep_times: bool,
    recorder: Option<&RecorderHandle>,
) -> Result<ShardOutput, ConfigError> {
    let scenario = &job.scenario;
    if scenario.defense != DefenseKind::Off {
        // `SweepSpec::expand` never emits a defended RTOS scenario
        // (the OS owns its flush/seed-swap schedule); a hand-built job
        // that asks anyway is a config error, not a silent no-op.
        return Err(ConfigError::incompatible(
            "the RTOS campaign manages its own defenses; the defense axis does not apply",
        ));
    }
    let (shared_llc, coherent_image) = match scenario.platform {
        PlatformKind::Private => (false, false),
        PlatformKind::Shared => (true, false),
        PlatformKind::Coherent => (true, true),
        PlatformKind::SharedPartitioned => {
            return Err(ConfigError::incompatible(
                "the RTOS campaign has no partitioned-LLC variant",
            ));
        }
    };
    let detector = (scenario.detection == DetectionMode::Monitor).then(DetectorConfig::default);
    let config = OsConfig {
        rng_seed: job.seed,
        shared_llc,
        coherent_image,
        detector,
        ..OsConfig::default()
    };
    let hyperperiods = (job.samples / 8).clamp(1, 128);
    let mut os = TscacheOs::try_new(Application::figure3_example(), scenario.setup, config)?;
    if let Some(rec) = recorder {
        os.attach_recorder(rec.clone());
    }
    let report = os.run(hyperperiods);
    let mut h = Fnv64::new();
    for runnable_times in &report.times {
        h.write_u64(runnable_times.len() as u64);
        for &t in runnable_times {
            h.write_u64(t);
        }
    }
    h.write_u64(report.context_switches);
    h.write_u64(report.seed_swaps);
    h.write_u64(report.flushes);
    h.write_u64(report.overhead_cycles);
    h.write_u64(report.work_cycles);
    h.write_u64(report.bus_wait_cycles);
    h.write_u64(report.coh_invalidations);
    if let Some(detection) = &report.detection {
        h.write_u64(detection.windows);
        h.write_u64(detection.masked);
        for s in &detection.scores {
            h.write_f64(*s);
        }
        h.write_u64(detection.events.len() as u64);
        h.write_f64(detection.max_score);
    }
    let digest = h.finish();
    // Monitored shards always carry the raw PMU window rows: the
    // detector's inputs persist next to its verdicts, so offline
    // re-scoring never needs a re-run. Excluded from `digest` (which
    // predates them); covered by the record's result digest.
    let pmu = report
        .detection
        .as_ref()
        .map(|d| d.deltas.iter().map(flatten_pmu_delta).collect::<Vec<_>>());
    let all_times: Vec<u64> = report.times.into_iter().flatten().collect();
    let (n, mean, variance, min, max) = moments(&all_times);
    Ok(ShardOutput {
        digest,
        n,
        mean,
        variance,
        min,
        max,
        times: keep_times.then_some(all_times),
        pmu,
        ..ShardOutput::default()
    })
}

/// Runs an online-detection campaign shard: the instrumented attack
/// scored against the sliding-window detector. Headline metrics:
/// `n` = sampling windows, `mean` = ROC AUC, `min` = detection latency
/// in windows (−1 when the attack was never caught at the operating
/// threshold), `max` = peak attack-window suspicion score.
fn run_detect(job: &ShardJob) -> Result<ShardOutput, ConfigError> {
    let scenario = &job.scenario;
    let target = match scenario.attack {
        AttackKind::PrimeProbe => DetectTarget::PrimeProbe,
        AttackKind::FlushReload => DetectTarget::FlushReload,
        AttackKind::Bernstein => DetectTarget::Bernstein,
        other => {
            return Err(ConfigError::incompatible(format!(
                "no detection campaign for the {} attack",
                other.label()
            )));
        }
    };
    let evasion = match scenario.detection {
        DetectionMode::Monitor => EvasionMode::None,
        DetectionMode::Throttle => EvasionMode::Throttle,
        DetectionMode::Jitter => EvasionMode::Jitter,
        DetectionMode::Off => {
            return Err(ConfigError::incompatible("detection shard dispatched with detection off"));
        }
    };
    let mut cfg = DetectionCampaignConfig::standard(target, scenario.setup, job.seed);
    cfg.rounds = job.samples;
    cfg.window_rounds = cfg.window_rounds.min(job.samples.max(1));
    cfg.evasion = evasion;
    cfg.defense = scenario.defense;
    let out = run_detection_campaign(&cfg)?;
    let mut h = Fnv64::new();
    h.write_u64(out.windows);
    for s in out.attack_scores.iter().chain(&out.benign_scores).chain(&out.attack_progress) {
        h.write_f64(*s);
    }
    for p in &out.roc.points {
        h.write_f64(p.threshold);
        h.write_f64(p.fpr);
        h.write_f64(p.tpr);
    }
    h.write_f64(out.operating_threshold);
    for e in &out.events {
        h.write_u64(e.window);
        h.write_u64(matches!(e.kind, DetectionKind::Coherence) as u64);
        h.write_f64(e.score);
    }
    h.write_u64(out.detection_latency.unwrap_or(u64::MAX));
    // Detection shards always carry their ROC points so the campaign
    // report can plot curves straight from the records.
    let roc = out.roc.points.iter().map(|p| (p.threshold, p.fpr, p.tpr)).collect();
    Ok(ShardOutput {
        digest: h.finish(),
        n: out.windows,
        mean: out.auc(),
        min: out.detection_latency.map_or(-1.0, |w| w as f64),
        max: out.max_attack_score(),
        roc: Some(roc),
        ..ShardOutput::default()
    })
}

fn run_shard_inner(
    job: &ShardJob,
    keep_times: bool,
    recorder: Option<&RecorderHandle>,
) -> Result<ShardOutput, ConfigError> {
    if job.scenario.detection != DetectionMode::Off && job.scenario.attack != AttackKind::Rtos {
        return run_detect(job);
    }
    match job.scenario.attack {
        AttackKind::Bernstein => run_bernstein(job),
        AttackKind::Pwcet => run_pwcet(job, keep_times, recorder),
        AttackKind::PrimeProbe => run_prime_probe_shard(job),
        AttackKind::FlushReload => run_flush_reload_shard(job),
        AttackKind::Rtos => run_rtos(job, keep_times, recorder),
    }
}

/// Folds a finished recorder's surfaces into the output. Only shards
/// whose attack actually recorded anything gain the fields, so traced
/// campaigns stay deterministic per scenario rather than sprouting
/// empty histograms on uninstrumented attacks.
fn attach_trace(out: &mut ShardOutput, recorder: &TraceRecorder) {
    if recorder.recorded() > 0 {
        out.hist = Some(recorder.merged_histogram().to_sparse());
        out.trace_digest = Some(recorder.digest());
    }
}

/// Runs one shard to completion.
///
/// `keep_times` controls whether raw execution times ride along in the
/// output for attacks that produce them (required for merged pWCET
/// analysis; summaries alone suffice for the rest).
pub fn run_shard(job: &ShardJob, keep_times: bool) -> Result<ShardOutput, ConfigError> {
    run_shard_with(job, &ShardOptions { keep_times, trace: false })
}

/// Runs one shard with full options. With `trace` set, a fresh
/// recorder (ring capacity [`TRACE_RING_CAPACITY`]) observes the run
/// and instrumented attacks report `hist` + `trace_digest`; the
/// simulated outcome itself is bit-identical to an untraced run.
pub fn run_shard_with(job: &ShardJob, opts: &ShardOptions) -> Result<ShardOutput, ConfigError> {
    if !opts.trace {
        return run_shard_inner(job, opts.keep_times, None);
    }
    let rec = handle(TRACE_RING_CAPACITY);
    let mut out = run_shard_inner(job, opts.keep_times, Some(&rec))?;
    attach_trace(&mut out, &rec.borrow());
    Ok(out)
}

/// Runs one shard traced and hands back the recorder itself, for
/// callers that want the event stream (the campaign report's Chrome
/// trace export), not just its digest.
pub fn trace_shard(job: &ShardJob) -> Result<(ShardOutput, TraceRecorder), ConfigError> {
    let rec = handle(TRACE_RING_CAPACITY);
    let mut out = run_shard_inner(job, false, Some(&rec))?;
    let recorder = rec.borrow().clone();
    attach_trace(&mut out, &recorder);
    Ok((out, recorder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scenario, SweepSpec};
    use tscache_core::prng::mix64;
    use tscache_core::setup::{HierarchyDepth, SetupKind};

    fn job_for(attack: AttackKind, platform: PlatformKind, samples: u32) -> ShardJob {
        detect_job_for(attack, platform, samples, DetectionMode::Off)
    }

    fn detect_job_for(
        attack: AttackKind,
        platform: PlatformKind,
        samples: u32,
        detection: DetectionMode,
    ) -> ShardJob {
        let scenario = Scenario {
            key: format!("{}/test", attack.label()),
            attack,
            setup: SetupKind::TsCache,
            depth: HierarchyDepth::TwoLevel,
            platform,
            contended: false,
            detection,
            defense: DefenseKind::Off,
        };
        ShardJob { shard: 0, scenario_index: 0, scenario, seed: mix64(42), samples }
    }

    #[test]
    fn every_attack_kind_runs_and_is_deterministic() {
        for (attack, platform, samples) in [
            (AttackKind::Bernstein, PlatformKind::Private, 40),
            (AttackKind::Pwcet, PlatformKind::Shared, 30),
            (AttackKind::PrimeProbe, PlatformKind::Private, 20),
            (AttackKind::FlushReload, PlatformKind::Coherent, 16),
            (AttackKind::Rtos, PlatformKind::Coherent, 16),
        ] {
            let job = job_for(attack, platform, samples);
            let a = run_shard(&job, true).unwrap();
            let b = run_shard(&job, true).unwrap();
            assert_eq!(a, b, "{attack:?} not deterministic");
            assert!(a.n > 0, "{attack:?} produced no samples");
        }
    }

    #[test]
    fn different_shards_have_different_seeds_and_outputs() {
        let spec = SweepSpec::smoke();
        let jobs = spec.jobs().unwrap();
        let (a, b) = (&jobs[0], &jobs[1]);
        assert_eq!(a.scenario.key, b.scenario.key, "first two shards share a scenario");
        assert_ne!(a.seed, b.seed);
        let out_a = run_shard(a, false).unwrap();
        let out_b = run_shard(b, false).unwrap();
        assert_ne!(out_a.digest, out_b.digest, "independent shards collided");
    }

    #[test]
    fn inapplicable_platforms_are_config_errors() {
        assert!(
            run_shard(&job_for(AttackKind::Bernstein, PlatformKind::Coherent, 10), false).is_err()
        );
        assert!(
            run_shard(&job_for(AttackKind::FlushReload, PlatformKind::Private, 10), false).is_err()
        );
        assert!(run_shard(&job_for(AttackKind::Rtos, PlatformKind::SharedPartitioned, 10), false)
            .is_err());
        assert!(
            run_shard(&job_for(AttackKind::PrimeProbe, PlatformKind::Private, 0), false).is_err()
        );
    }

    #[test]
    fn detection_shards_run_and_are_deterministic() {
        for (attack, platform) in [
            (AttackKind::PrimeProbe, PlatformKind::Private),
            (AttackKind::FlushReload, PlatformKind::Coherent),
            (AttackKind::Bernstein, PlatformKind::Private),
        ] {
            for detection in
                [DetectionMode::Monitor, DetectionMode::Throttle, DetectionMode::Jitter]
            {
                let job = detect_job_for(attack, platform, 48, detection);
                let a = run_shard(&job, false).unwrap();
                let b = run_shard(&job, false).unwrap();
                assert_eq!(a, b, "{attack:?}/{detection:?} not deterministic");
                assert!(a.n > 0, "{attack:?}/{detection:?} cut no windows");
                assert!((0.0..=1.0).contains(&a.mean), "AUC out of range: {}", a.mean);
            }
        }
    }

    #[test]
    fn monitored_rtos_shards_report_the_detector_digest() {
        let base = job_for(AttackKind::Rtos, PlatformKind::Coherent, 24);
        let monitored =
            detect_job_for(AttackKind::Rtos, PlatformKind::Coherent, 24, DetectionMode::Monitor);
        let plain = run_shard(&base, false).unwrap();
        let with_detector = run_shard(&monitored, false).unwrap();
        // The schedule is identical; only the digest surface grows.
        assert_eq!(plain.n, with_detector.n);
        assert_ne!(plain.digest, with_detector.digest);
        assert_eq!(run_shard(&monitored, false).unwrap(), with_detector);
    }

    #[test]
    fn detection_shards_reject_inapplicable_attacks() {
        let job =
            detect_job_for(AttackKind::Pwcet, PlatformKind::Private, 24, DetectionMode::Monitor);
        assert!(run_shard(&job, false).is_err());
    }

    #[test]
    fn pwcet_keeps_times_only_on_request() {
        let job = job_for(AttackKind::Pwcet, PlatformKind::Private, 25);
        let with = run_shard(&job, true).unwrap();
        let without = run_shard(&job, false).unwrap();
        assert_eq!(with.times.as_ref().map(Vec::len), Some(25));
        assert!(without.times.is_none());
        assert_eq!(with.digest, without.digest);
    }
}
