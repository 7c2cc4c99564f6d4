//! The sharded campaign executor: panic-isolated workers, streaming
//! checkpoints, retry/quarantine policy, and the deterministic merge.
//!
//! ## Determinism contract
//!
//! Shard results are pure functions of `(spec, shard_index)` (see
//! [`crate::job`]), and the merge sorts by shard index — so the merged
//! report and campaign digest are **bit-identical** across worker
//! counts, execution orders, kills, resumes, and retries. The executor
//! only decides *when* shards run, never *what* they compute.
//!
//! ## Failure taxonomy
//!
//! * **Bad spec** ([`ConfigError`] from a shard): deterministic — the
//!   same spec fails the same way forever, so the shard quarantines
//!   immediately, no retry.
//! * **Worker crash** (panic, caught per-shard with `catch_unwind`):
//!   the worker that caught it runs the shard again at once, up to
//!   [`ExecutorConfig::max_retries`] times, with deterministic backoff
//!   *accounting* (exponential `2^(attempt-1)` units, saturating at
//!   `u64::MAX`, recorded rather than slept — the simulation has no
//!   wall clock worth burning), then the shard is quarantined. The
//!   campaign completes around quarantined shards with explicit
//!   per-scenario coverage, and a resume re-attempts them fresh (the
//!   fault may have been environmental).
//! * **I/O error** persisting a record: the campaign halts with the
//!   error; every already-durable record survives and `resume`
//!   finishes the job.
//! * **Kill / torn write** (injected or real): the run stops dead —
//!   no final manifest, no report — and `resume` recovers from the
//!   append log, dropping at most the one torn line.

use crate::checkpoint::{campaign_digest, AppendOutcome, CampaignDir, Manifest};
use crate::digest::{fnv64, Fnv64};
use crate::fault::FaultPlan;
use crate::job::{run_shard_with, ShardOptions, TRACE_RING_CAPACITY};
use crate::jsonl::{push_f64, push_json_string, ShardRecord};
use crate::spec::{AttackKind, FleetError, ShardJob, SweepSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;
use tscache_core::error::ConfigError;
use tscache_core::parallel::{payload_message, scrambled_indices, thread_count};
use tscache_mbpta::stats::Summary;
use tscache_mbpta::{analyze, merge_shard_times, pooled_summary, MbptaConfig};
use tscache_telemetry::{chrome_trace, Event, TraceRecorder};

/// Minimum merged sample count before the executor attempts an EVT
/// fit (below this `analyze` has nothing statistical to say).
const MIN_PWCET_SAMPLES: usize = 64;

/// Executor knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads; 0 = [`thread_count`] (honors
    /// `RAYON_NUM_THREADS`).
    pub workers: usize,
    /// Crash retries per shard before quarantine (bad specs never
    /// retry).
    pub max_retries: u32,
    /// Manifest checkpoint cadence, in records.
    pub checkpoint_every: u64,
    /// When set, the pending shards are deterministically shuffled
    /// with this seed — the tests' tool for proving completion-order
    /// invariance.
    pub scramble_seed: Option<u64>,
    /// Retain raw execution times in records (needed for merged pWCET
    /// analysis; costs checkpoint bytes).
    pub keep_times: bool,
    /// Trace each shard: instrumented attacks additionally persist a
    /// latency histogram and trace digest, and the run writes a
    /// `lifecycle.trace.json` timeline into the campaign directory.
    pub trace: bool,
    /// Emit a live progress line on stderr while the campaign runs.
    pub progress: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 0,
            max_retries: 2,
            checkpoint_every: 8,
            scramble_seed: None,
            keep_times: true,
            trace: false,
            progress: false,
        }
    }
}

/// Why a shard ended up quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The shard's configuration is invalid — deterministic, never
    /// retried.
    BadSpec(String),
    /// The shard crashed on every attempt; the message is the final
    /// panic payload.
    Crashed {
        /// Attempts consumed (initial try + retries).
        attempts: u32,
        /// Final panic message.
        message: String,
    },
}

/// One quarantined shard in the coverage report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Global shard index.
    pub shard: usize,
    /// Owning scenario key.
    pub scenario: String,
    /// Why it was given up on.
    pub reason: QuarantineReason,
}

/// Per-scenario slice of the merged report, in spec expansion order.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario key.
    pub key: String,
    /// Shards expected for this scenario.
    pub shards_expected: u32,
    /// Shards that completed.
    pub shards_completed: u32,
    /// FNV-1a over the per-shard result digests in shard order.
    pub digest: u64,
    /// Pooled summary over completed shards (None when none
    /// completed).
    pub summary: Option<Summary>,
    /// Merged pWCET at 1e-12, for fully-covered pWCET scenarios whose
    /// records retained raw times.
    pub pwcet: Option<f64>,
}

/// Retry/fault accounting — bookkeeping, deliberately excluded from
/// every digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Shard attempts that panicked and were retried.
    pub retries: u64,
    /// Deterministic backoff units accrued (`2^(attempt-1)` per retry,
    /// saturating at `u64::MAX` — see [`backoff_units_for`]).
    pub backoff_units: u64,
}

/// Backoff units charged for retrying a crash at `attempt` (1-based):
/// exponential `2^(attempt-1)`, saturating at `u64::MAX` once the
/// exponent leaves the 64-bit range. A plain `1u64 << (attempt - 1)`
/// panics in debug builds (and wraps to garbage in release) past 64
/// attempts — reachable via `fleet_campaign --retries`.
fn backoff_units_for(attempt: u32) -> u64 {
    attempt.checked_sub(1).and_then(|shift| 1u64.checked_shl(shift)).unwrap_or(u64::MAX)
}

/// The merged campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-scenario reports, in spec expansion order.
    pub scenarios: Vec<ScenarioReport>,
    /// Total shards the spec expands to.
    pub shards_expected: usize,
    /// Shards completed (over this run and any resumed-from runs).
    pub shards_completed: usize,
    /// Shards quarantined, with reasons.
    pub quarantined: Vec<Quarantined>,
    /// Retry accounting for this process (not carried across resumes).
    pub accounting: Accounting,
    /// FNV-1a digest over all completed shard records in shard order —
    /// the bit-identity fingerprint.
    pub campaign_digest: u64,
}

impl CampaignResult {
    /// Whether every expected shard completed.
    pub fn is_complete(&self) -> bool {
        self.shards_completed == self.shards_expected
    }
}

/// How a campaign run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// All pending work finished (possibly with quarantined shards);
    /// the merged report and campaign digest are on disk.
    Finished(CampaignResult),
    /// An injected kill or torn write stopped the run mid-flight.
    /// `results.jsonl` holds everything durable; resume to continue.
    Killed {
        /// Records durable on disk when the run stopped.
        records_durable: u64,
    },
}

/// Starts a fresh campaign in `dir`. Fails if the directory already
/// holds one (use [`resume`]).
pub fn launch(
    spec: &SweepSpec,
    dir: impl AsRef<Path>,
    cfg: &ExecutorConfig,
    faults: &FaultPlan,
) -> Result<RunOutcome, FleetError> {
    spec.validate()?;
    let cd = CampaignDir::create(dir.as_ref())?;
    if cd.spec_path().exists() {
        return Err(FleetError::Corrupt(format!(
            "{} already holds a campaign — resume it or pick a fresh directory",
            dir.as_ref().display()
        )));
    }
    cd.write_spec(&spec.canonical())?;
    drive(spec, cd, cfg, faults, Vec::new())
}

/// Resumes a campaign directory: verifies the spec matches, loads
/// every durable record (dropping a torn tail), and runs only the
/// shards not yet completed — including previously quarantined ones,
/// which get a fresh set of attempts.
pub fn resume(
    spec: &SweepSpec,
    dir: impl AsRef<Path>,
    cfg: &ExecutorConfig,
    faults: &FaultPlan,
) -> Result<RunOutcome, FleetError> {
    spec.validate()?;
    let cd = CampaignDir::create(dir.as_ref())?;
    let loaded = cd.load()?;
    let found = fnv64(loaded.spec_text.as_bytes());
    let expected = spec.digest();
    if found != expected {
        return Err(FleetError::SpecMismatch { expected, found });
    }
    if let Some(manifest) = &loaded.manifest {
        if manifest.spec_digest != expected {
            return Err(FleetError::SpecMismatch { expected, found: manifest.spec_digest });
        }
    }
    drive(spec, cd, cfg, faults, loaded.records)
}

/// What a worker hands back per attempt.
enum AttemptResult {
    Done(ShardRecord),
    /// The attempt panicked; `retry` is whether the same worker runs
    /// the shard again (`attempt <= max_retries`) or gives it up.
    Crashed {
        message: String,
        retry: bool,
    },
    BadSpec(ConfigError),
}

/// The main thread's single-owner campaign state: persistence handle,
/// accumulated records, quarantine list, and checkpoint bookkeeping.
/// Every attempt outcome, from any worker, funnels through
/// [`Progress::absorb`], which persists, checkpoints, quarantines and
/// accounts retries in one place. Whether a crash is retried is
/// settled in [`run_attempt`]; the worker runs the retry itself.
struct Progress<'a> {
    cd: CampaignDir,
    spec: &'a SweepSpec,
    total_shards: usize,
    cfg: &'a ExecutorConfig,
    faults: &'a FaultPlan,
    /// Records on disk, from earlier runs and this one.
    records: Vec<ShardRecord>,
    quarantined: Vec<Quarantined>,
    accounting: Accounting,
    /// Records this run appended (drives the checkpoint cadence).
    durable_appends: u64,
    /// `(records, quarantined)` counts at the last manifest write this
    /// run — lets the finish path skip a manifest that would be
    /// byte-identical to the one already on disk.
    last_manifest: Option<(usize, usize)>,
    /// Campaign-lifecycle recorder (`cfg.trace`). Timestamps are a
    /// completion-order sequence number, so this timeline is
    /// **excluded from every digest** — it narrates *this* run, while
    /// the result digests attest what any run computes.
    lifecycle: Option<TraceRecorder>,
    /// Sequence counter doubling as the lifecycle timestamp.
    seq: u64,
    /// Wall-clock start, for the progress line's records/sec.
    started: Instant,
}

/// How a run ends early: killed (injected kill or torn write) or failed.
type Halt = Result<RunOutcome, FleetError>;

impl Progress<'_> {
    fn checkpoint(&mut self) -> Result<(), FleetError> {
        let manifest =
            build_manifest(self.spec, self.total_shards, &self.records, &self.quarantined);
        self.cd.write_manifest(&manifest, self.faults)?;
        self.last_manifest = Some((self.records.len(), self.quarantined.len()));
        let records = self.records.len() as u64;
        self.lifecycle_event(Event::Checkpoint { records });
        Ok(())
    }

    fn lifecycle_event(&mut self, event: Event) {
        if let Some(rec) = &mut self.lifecycle {
            let ts = self.seq;
            self.seq += 1;
            rec.record(ts, event);
        }
    }

    /// One stderr status line, carriage-return refreshed in place.
    fn progress_line(&self) {
        if !self.cfg.progress {
            return;
        }
        let secs = self.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { self.durable_appends as f64 / secs } else { 0.0 };
        eprint!(
            "\r[fleet] shards {}/{} retries {} quarantined {} {:.1} records/sec   ",
            self.records.len(),
            self.total_shards,
            self.accounting.retries,
            self.quarantined.len(),
            rate
        );
    }

    /// Applies one attempt outcome; `Some` means the run must stop now.
    fn absorb(&mut self, job: &ShardJob, attempt: u32, result: AttemptResult) -> Option<Halt> {
        let shard = job.shard as u32;
        let reason = match result {
            AttemptResult::Done(record) => {
                self.lifecycle_event(Event::ShardAttempt { shard, attempt });
                if let Some(halt) = self.persist(record) {
                    return Some(halt);
                }
                None
            }
            AttemptResult::Crashed { retry: true, .. } => {
                self.lifecycle_event(Event::ShardRetry { shard, attempt });
                self.accounting.retries = self.accounting.retries.saturating_add(1);
                self.accounting.backoff_units =
                    self.accounting.backoff_units.saturating_add(backoff_units_for(attempt));
                None
            }
            AttemptResult::Crashed { message, retry: false } => {
                Some(QuarantineReason::Crashed { attempts: attempt, message })
            }
            // Deterministic misconfiguration: retrying cannot help.
            AttemptResult::BadSpec(e) => Some(QuarantineReason::BadSpec(e.to_string())),
        };
        if let Some(reason) = reason {
            self.lifecycle_event(Event::ShardQuarantine { shard });
            let scenario = job.scenario.key.clone();
            self.quarantined.push(Quarantined { shard: job.shard, scenario, reason });
        }
        self.progress_line();
        None
    }

    /// Appends a finished shard's record, then applies the kill fault
    /// and the checkpoint cadence.
    fn persist(&mut self, record: ShardRecord) -> Option<Halt> {
        let killed = |records: usize| RunOutcome::Killed { records_durable: records as u64 };
        match self.cd.append_record(&record, self.faults) {
            Ok(AppendOutcome::Durable) => {}
            // Half a line is on disk; halt as if killed.
            Ok(AppendOutcome::TornWrite) => return Some(Ok(killed(self.records.len()))),
            Err(e) => return Some(Err(e)),
        }
        self.durable_appends += 1;
        self.records.push(record);
        // `records` includes earlier runs', so "kill after N records"
        // means N records in total.
        if self.faults.should_kill(self.records.len() as u64) {
            // Make the appends durable so `records_durable` is honest
            // even against an OS crash.
            return Some(self.cd.sync_results().map(|()| killed(self.records.len())));
        }
        if self.durable_appends.is_multiple_of(self.cfg.checkpoint_every.max(1)) {
            return self.checkpoint().err().map(Err);
        }
        None
    }
}

/// Runs one shard attempt with fault injection and panic isolation.
fn run_attempt(
    job: &ShardJob,
    attempt: u32,
    cfg: &ExecutorConfig,
    faults: &FaultPlan,
) -> AttemptResult {
    let opts = ShardOptions { keep_times: cfg.keep_times, trace: cfg.trace };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if faults.should_panic(job.shard, attempt) {
            // detlint: allow(R1, deliberate injected fault; lands in catch_unwind, exercising the crash-retry taxonomy)
            panic!("injected fault: shard {} attempt {attempt}", job.shard);
        }
        if faults.should_bad_spec(job.shard) {
            return Err(ConfigError::incompatible(format!(
                "injected bad spec on shard {}",
                job.shard
            )));
        }
        run_shard_with(job, &opts)
    }));
    match outcome {
        Ok(Ok(output)) => AttemptResult::Done(ShardRecord {
            shard: job.shard,
            scenario: job.scenario.key.clone(),
            seed: job.seed,
            attempt,
            output,
        }),
        Ok(Err(config_err)) => AttemptResult::BadSpec(config_err),
        Err(payload) => AttemptResult::Crashed {
            message: payload_message(payload.as_ref()),
            retry: attempt <= cfg.max_retries,
        },
    }
}

/// The drive loop, for every worker count. At most one worker per
/// pending shard starts. Workers claim shards from `pending` through
/// one atomic cursor, run every attempt of a shard (a crash with
/// retries left runs again in place), and stream each outcome to this
/// thread, which owns all persistence. A worker exits when the cursor
/// passes the end, or at its next send once a halt has dropped the
/// receiver.
fn drive_parallel(
    pending: &[ShardJob],
    workers: usize,
    progress: &mut Progress<'_>,
) -> Option<Halt> {
    // `Relaxed` suffices: the cursor only hands out distinct indices
    // into a slice no thread writes; results travel over the channel.
    let cursor = AtomicUsize::new(0);
    let (cfg, faults) = (progress.cfg, progress.faults);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers.min(pending.len()) {
            let (tx, cursor) = (tx.clone(), &cursor);
            scope.spawn(move || {
                while let Some(job) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    for attempt in 1.. {
                        let result = run_attempt(job, attempt, cfg, faults);
                        let retry = matches!(result, AttemptResult::Crashed { retry: true, .. });
                        if tx.send((job, attempt, result)).is_err() {
                            return; // halted: the receiver is gone
                        }
                        if !retry {
                            break;
                        }
                    }
                }
            });
        }
        drop(tx);
        rx.iter().find_map(|(job, attempt, result)| progress.absorb(job, attempt, result))
    })
}

fn drive(
    spec: &SweepSpec,
    cd: CampaignDir,
    cfg: &ExecutorConfig,
    faults: &FaultPlan,
    prior_records: Vec<ShardRecord>,
) -> Result<RunOutcome, FleetError> {
    let jobs = spec.jobs()?;
    let done_shards: BTreeSet<usize> = prior_records.iter().map(|r| r.shard).collect();
    let mut pending: Vec<ShardJob> =
        jobs.iter().filter(|j| !done_shards.contains(&j.shard)).cloned().collect();
    if let Some(seed) = cfg.scramble_seed {
        let order = scrambled_indices(pending.len(), seed);
        pending = order.into_iter().map(|i| pending[i].clone()).collect();
    }

    let workers = if cfg.workers == 0 { thread_count() } else { cfg.workers };
    let mut progress = Progress {
        cd,
        spec,
        total_shards: jobs.len(),
        cfg,
        faults,
        records: prior_records,
        quarantined: Vec::new(),
        accounting: Accounting::default(),
        durable_appends: 0,
        last_manifest: None,
        lifecycle: cfg.trace.then(|| TraceRecorder::new(TRACE_RING_CAPACITY)),
        seq: 0,
        #[allow(clippy::disallowed_methods)]
        // detlint: allow(D1, wall-clock feeds the operator progress line only; never enters records, reports, or digests)
        started: Instant::now(),
    };

    if let Some(halt) = drive_parallel(&pending, workers, &mut progress) {
        return halt;
    }

    // All pending work finalized: checkpoint (unless the last one
    // already covers every record), merge, report.
    if progress.last_manifest != Some((progress.records.len(), progress.quarantined.len())) {
        progress.checkpoint()?;
    }
    if cfg.progress {
        eprintln!();
    }
    let Progress { cd, records, quarantined, accounting, lifecycle, .. } = progress;
    if let Some(rec) = &lifecycle {
        // Narrates this run's completion order — digest-excluded.
        let path = cd.root().join("lifecycle.trace.json");
        std::fs::write(&path, chrome_trace(&rec.records())).map_err(FleetError::Io)?;
    }
    let result = merge(spec, &jobs, records, quarantined, accounting)?;
    cd.write_report(&render_report(&result), result.campaign_digest)?;
    Ok(RunOutcome::Finished(result))
}

fn build_manifest(
    spec: &SweepSpec,
    total_shards: usize,
    records: &[ShardRecord],
    quarantined: &[Quarantined],
) -> Manifest {
    let mut completed = BTreeMap::new();
    for r in records {
        completed.insert(r.shard as u64, r.result_digest());
    }
    Manifest {
        spec_digest: spec.digest(),
        total_shards: total_shards as u64,
        completed,
        quarantined: quarantined.iter().map(|q| q.shard as u64).collect(),
    }
}

fn merge(
    spec: &SweepSpec,
    jobs: &[ShardJob],
    mut records: Vec<ShardRecord>,
    quarantined: Vec<Quarantined>,
    accounting: Accounting,
) -> Result<CampaignResult, FleetError> {
    records.sort_by_key(|r| r.shard);
    let scenarios = spec.expand()?;
    let by_shard: BTreeMap<usize, &ShardRecord> = records.iter().map(|r| (r.shard, r)).collect();
    let mut reports = Vec::with_capacity(scenarios.len());
    for (scenario_index, scenario) in scenarios.iter().enumerate() {
        let shard_jobs: Vec<&ShardJob> =
            jobs.iter().filter(|j| j.scenario_index == scenario_index).collect();
        let mut h = Fnv64::new();
        let mut summaries = Vec::new();
        let mut times: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut completed = 0u32;
        let mut all_have_times = true;
        for (local, job) in shard_jobs.iter().enumerate() {
            let Some(rec) = by_shard.get(&job.shard) else {
                all_have_times = false;
                continue;
            };
            completed += 1;
            h.write_u64(rec.result_digest());
            let o = &rec.output;
            summaries.push(Summary {
                n: o.n as usize,
                mean: o.mean,
                variance: o.variance,
                min: o.min,
                max: o.max,
            });
            match &o.times {
                Some(t) => times.push((local, t.clone())),
                None => all_have_times = false,
            }
        }
        let pwcet = if scenario.attack == AttackKind::Pwcet
            && all_have_times
            && completed == shard_jobs.len() as u32
        {
            let merged = merge_shard_times(times);
            (merged.len() >= MIN_PWCET_SAMPLES)
                .then(|| analyze(&merged, &MbptaConfig::default()).pwcet(1e-12))
        } else {
            None
        };
        reports.push(ScenarioReport {
            key: scenario.key.clone(),
            shards_expected: shard_jobs.len() as u32,
            shards_completed: completed,
            digest: h.finish(),
            summary: pooled_summary(summaries),
            pwcet,
        });
    }
    let digest = campaign_digest(&records);
    Ok(CampaignResult {
        scenarios: reports,
        shards_expected: jobs.len(),
        shards_completed: records.len(),
        quarantined,
        accounting,
        campaign_digest: digest,
    })
}

/// Renders the merged report as JSON. Scenario entries are in spec
/// expansion order; the accounting block is bookkeeping and excluded
/// from the campaign digest. Statistics are encoded as in the shard
/// records: finite values as numbers, non-finite ones as `"0x…"`
/// bit-pattern strings.
pub fn render_report(result: &CampaignResult) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"campaign_digest\": \"{:#018x}\",\n  \"shards_expected\": {},\n  \
         \"shards_completed\": {},\n  \"complete\": {},\n  \"scenarios\": [\n",
        result.campaign_digest,
        result.shards_expected,
        result.shards_completed,
        result.is_complete()
    );
    for (i, s) in result.scenarios.iter().enumerate() {
        out.push_str("    {\"key\": ");
        push_json_string(&mut out, &s.key);
        let _ = write!(
            out,
            ", \"shards\": \"{}/{}\", \"digest\": \"{:#018x}\"",
            s.shards_completed, s.shards_expected, s.digest
        );
        if let Some(sum) = &s.summary {
            let _ = write!(out, ", \"n\": {}", sum.n);
            for (name, v) in
                [("mean", sum.mean), ("variance", sum.variance), ("min", sum.min), ("max", sum.max)]
            {
                let _ = write!(out, ", \"{name}\": ");
                let _ = push_f64(&mut out, v);
            }
        }
        if let Some(p) = s.pwcet {
            out.push_str(", \"pwcet_1e12\": ");
            let _ = push_f64(&mut out, p);
        }
        out.push('}');
        if i + 1 < result.scenarios.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"quarantined\": [\n");
    for (i, q) in result.quarantined.iter().enumerate() {
        let reason = match &q.reason {
            QuarantineReason::BadSpec(msg) => format!("bad-spec: {msg}"),
            QuarantineReason::Crashed { attempts, message } => {
                format!("crashed after {attempts} attempts: {message}")
            }
        };
        let _ = write!(out, "    {{\"shard\": {}, \"scenario\": ", q.shard);
        push_json_string(&mut out, &q.scenario);
        out.push_str(", \"reason\": ");
        push_json_string(&mut out, &reason);
        out.push('}');
        if i + 1 < result.quarantined.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = write!(
        out,
        "  ],\n  \"accounting\": {{\"retries\": {}, \"backoff_units\": {}}}\n}}\n",
        result.accounting.retries, result.accounting.backoff_units
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_units_grow_exponentially_in_range() {
        assert_eq!(backoff_units_for(1), 1);
        assert_eq!(backoff_units_for(2), 2);
        assert_eq!(backoff_units_for(10), 512);
        assert_eq!(backoff_units_for(64), 1u64 << 63);
    }

    #[test]
    fn backoff_units_saturate_past_the_shift_width() {
        // Attempt 65 would shift by 64 — the exact boundary where the
        // old `1u64 << (attempt - 1)` panicked in debug builds and
        // wrapped to 1 in release. It must saturate instead.
        assert_eq!(backoff_units_for(65), u64::MAX);
        assert_eq!(backoff_units_for(66), u64::MAX);
        assert_eq!(backoff_units_for(u32::MAX), u64::MAX);
    }

    #[test]
    fn accumulated_backoff_saturates_instead_of_wrapping() {
        // Sum of 2^0..2^63 is exactly u64::MAX; one more retry at any
        // attempt must pin there, not wrap back toward zero.
        let mut acc = 0u64;
        for attempt in 1..=64 {
            acc = acc.saturating_add(backoff_units_for(attempt));
        }
        assert_eq!(acc, u64::MAX);
        acc = acc.saturating_add(backoff_units_for(65));
        assert_eq!(acc, u64::MAX);
    }

    #[test]
    fn report_stays_json_when_a_statistic_is_not_finite() {
        let summary = Summary { n: 2, mean: 1.5, variance: f64::NAN, min: 1.0, max: f64::INFINITY };
        let result = CampaignResult {
            scenarios: vec![ScenarioReport {
                key: "pwcet/det".to_string(),
                shards_expected: 1,
                shards_completed: 1,
                digest: 0,
                summary: Some(summary),
                pwcet: Some(f64::INFINITY),
            }],
            shards_expected: 1,
            shards_completed: 1,
            quarantined: Vec::new(),
            accounting: Accounting::default(),
            campaign_digest: 0,
        };
        let report = render_report(&result);
        let entry = report.lines().find(|l| l.contains("\"key\"")).expect("scenario entry");
        let expected = concat!(
            r#"    {"key": "pwcet/det", "shards": "1/1", "digest": "0x0000000000000000", "#,
            r#""n": 2, "mean": 1.5, "variance": "0x7ff8000000000000", "min": 1, "#,
            r#""max": "0x7ff0000000000000", "pwcet_1e12": "0x7ff0000000000000"}"#,
        );
        assert_eq!(entry, expected);
    }

    #[test]
    fn report_escapes_quarantine_reasons() {
        // A multi-line assertion message with a quote and a backslash,
        // the shape a real shard panic leaves.
        let message = "assertion `left == right` failed: \"C:\\tmp\"\n  left: 1\n right: 2";
        let result = CampaignResult {
            scenarios: Vec::new(),
            shards_expected: 1,
            shards_completed: 0,
            quarantined: vec![Quarantined {
                shard: 0,
                scenario: "pwcet/det".to_string(),
                reason: QuarantineReason::Crashed { attempts: 3, message: message.to_string() },
            }],
            accounting: Accounting::default(),
            campaign_digest: 0,
        };
        let report = render_report(&result);
        let entry = report.lines().find(|l| l.contains("\"reason\"")).expect("quarantine entry");
        let expected = concat!(
            r#"    {"shard": 0, "scenario": "pwcet/det", "reason": "crashed after 3 attempts: "#,
            r#"assertion `left == right` failed: \"C:\\tmp\"\n  left: 1\n right: 2"}"#,
        );
        assert_eq!(entry, expected);
    }
}
