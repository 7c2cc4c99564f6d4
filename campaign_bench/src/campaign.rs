//! The end-to-end pass: whole campaigns through the real executor
//! (`tscache_fleet::executor::launch`, fsyncs and all), timed untraced,
//! with every campaign digest checked.

use crate::workloads::Workload;
use std::path::PathBuf;
use std::time::Instant;
use tscache_fleet::executor::{launch, CampaignResult, ExecutorConfig, RunOutcome};
use tscache_fleet::fault::FaultPlan;
use tscache_fleet::spec::{FleetError, SweepSpec};
use tscache_fleet::CampaignDir;

/// A campaign made ready to dispatch.
pub struct Prepared {
    /// The generated sweep — the only input the program receives.
    pub spec: SweepSpec,
    /// Shards the spec expands to.
    pub shards: usize,
    /// The (created, empty) campaign directory.
    pub dir: PathBuf,
    /// Wall seconds the preparation took.
    pub setup_s: f64,
}

/// Generates, validates and expands the spec (`SweepSpec::jobs`) and
/// creates the campaign directory: the set-up `setup_s` times.
pub fn prepare(workload: Workload, seed: u64, dir: PathBuf) -> Result<Prepared, FleetError> {
    let start = Instant::now();
    let spec = workload.spec(seed);
    spec.validate()?;
    let shards = spec.jobs()?.len();
    std::fs::create_dir_all(&dir)?;
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Prepared { spec, shards, dir, setup_s })
}

/// One launched campaign, as the benchmark saw it.
pub struct CampaignRun {
    /// Wall seconds from `launch` to a finished result with
    /// `report.json` and the campaign digest on disk.
    pub wall_s: f64,
    /// CPU seconds the process spent over the same interval.
    pub cpu_s: f64,
    /// Shards the spec expands to.
    pub shards: usize,
    /// Shards the executor quarantined.
    pub quarantined: usize,
    /// The campaign digest, when the run finished and the digest file
    /// on disk agrees with the in-memory result; `None` otherwise.
    pub digest: Option<u64>,
    /// The merged result, when the run finished.
    pub result: Option<CampaignResult>,
}

impl CampaignRun {
    /// Simulated samples the campaign completed (pWCET runs, AES
    /// encryptions, Flush+Reload rounds, RTOS jobs).
    pub fn samples(&self) -> u64 {
        self.result.as_ref().map_or(0, |r| {
            r.scenarios.iter().filter_map(|s| s.summary.as_ref()).map(|s| s.n as u64).sum()
        })
    }
}

/// The executor configuration every benchmark campaign uses: raw times
/// kept, so pWCET scenarios run the merged EVT fit.
pub fn executor_config(workers: usize, trace: bool) -> ExecutorConfig {
    ExecutorConfig { workers, keep_times: true, trace, ..ExecutorConfig::default() }
}

/// Launches a prepared campaign and checks its on-disk artifacts.
pub fn run(
    prepared: &Prepared,
    cfg: &ExecutorConfig,
    faults: &FaultPlan,
) -> Result<CampaignRun, FleetError> {
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let outcome = launch(&prepared.spec, &prepared.dir, cfg, faults)?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let RunOutcome::Finished(result) = outcome else {
        return Ok(CampaignRun {
            wall_s,
            cpu_s,
            shards: prepared.shards,
            quarantined: 0,
            digest: None,
            result: None,
        });
    };
    let cd = CampaignDir::create(&prepared.dir)?;
    let on_disk = std::fs::read_to_string(cd.digest_path()).unwrap_or_default();
    let durable =
        cd.report_path().is_file() && on_disk.trim() == format!("{:#018x}", result.campaign_digest);
    Ok(CampaignRun {
        wall_s,
        cpu_s,
        shards: prepared.shards,
        quarantined: result.quarantined.len(),
        digest: (durable && result.shards_expected == prepared.shards)
            .then_some(result.campaign_digest),
        result: Some(result),
    })
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has used, over all its threads.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Shard accounting across a run's campaigns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Shards attempted.
    pub attempted: u64,
    /// Shards failed: quarantined, or in a campaign whose digest does
    /// not match the expected one.
    pub failed: u64,
}

impl Tally {
    /// Counts `run` against `expected`, the digest every campaign of
    /// the run must reproduce; `None` makes this campaign the reference
    /// (its digest is stored into `expected`).
    pub fn count(&mut self, run: &CampaignRun, expected: &mut Option<u64>) {
        self.attempted += run.shards as u64;
        let matches = match (run.digest, *expected) {
            (Some(d), Some(e)) => d == e,
            (Some(d), None) => {
                *expected = Some(d);
                true
            }
            (None, _) => false,
        };
        self.failed += if matches { run.quarantined as u64 } else { run.shards as u64 };
    }

    /// Failed shards as a share of shards attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscache_core::setup::SetupKind;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::current_dir()
            .expect("cwd")
            .join(".bench_work")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A small slice of the Bernstein workload, so the test stays fast
    /// in debug builds.
    fn tiny(workload: Workload, dir: PathBuf) -> Prepared {
        let mut p = prepare(workload, 3, dir).expect("prepare");
        p.spec.setups = vec![SetupKind::Deterministic, SetupKind::TsCache];
        p.spec.samples_per_shard = 40;
        p.spec.shards_per_scenario = 2;
        p.shards = p.spec.jobs().expect("jobs").len();
        p
    }

    #[test]
    fn persistent_panic_is_quarantined_and_counted_as_one_failed_shard() {
        let dir = scratch("fault");
        let p = tiny(Workload::BernsteinAes, dir.clone());
        let faults = FaultPlan { panic_on: vec![(1, u32::MAX)], ..FaultPlan::default() };
        let faulty = run(&p, &executor_config(2, false), &faults).expect("campaign runs");
        assert_eq!(faulty.quarantined, 1);
        let mut tally = Tally::default();
        let mut expected = None;
        tally.count(&faulty, &mut expected);
        assert_eq!(tally, Tally { attempted: p.shards as u64, failed: 1 });
        assert_eq!(tally.failed_share(), 1.0 / p.shards as f64);
        // A clean campaign of the same spec then disagrees with the
        // faulty one's digest: every one of its shards counts.
        let clean_dir = scratch("clean");
        let clean = tiny(Workload::BernsteinAes, clean_dir.clone());
        let clean_run = run(&clean, &executor_config(1, false), &FaultPlan::none()).expect("runs");
        tally.count(&clean_run, &mut expected);
        assert_eq!(tally.failed, 1 + clean.shards as u64);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn digests_agree_across_worker_counts() {
        let dirs = [scratch("w1"), scratch("w2")];
        let digests: Vec<Option<u64>> = [1, 2]
            .iter()
            .zip(&dirs)
            .map(|(&workers, dir)| {
                let p = tiny(Workload::SeedSweepShared, dir.clone());
                run(&p, &executor_config(workers, false), &FaultPlan::none()).expect("runs").digest
            })
            .collect();
        assert!(digests[0].is_some());
        assert_eq!(digests[0], digests[1]);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
