//! Campaign-level telemetry exports: the `report/` directory.
//!
//! [`write_campaign_report`] turns a completed (or partially
//! completed) campaign directory into plot-ready surfaces: per-scenario
//! pWCET exceedance curves, latency histograms and detector ROC points
//! as CSV, one representative Chrome trace, and a `digests.txt`
//! fingerprint over all of it.
//!
//! Everything here is a pure function of `(spec, durable records)` —
//! shard order, worker count, retries and resumes cannot change a
//! byte, so `digests.txt` is directly comparable across runs of the
//! same spec (the CI determinism job diffs it verbatim). The one
//! deliberately non-durable surface, `lifecycle.trace.json`, lives
//! *outside* `report/` for exactly that reason.

use crate::checkpoint::{campaign_digest, CampaignDir};
use crate::digest::fnv64;
use crate::job::trace_shard;
use crate::jsonl::ShardRecord;
use crate::spec::{AttackKind, FleetError, SweepSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use tscache_telemetry::{chrome_trace, exceedance_csv, hist_csv, roc_csv, LatencyHistogram};

/// Scenario keys become file stems; `/` is the key's own separator.
fn sanitize(key: &str) -> String {
    key.chars().map(|c| if c == '/' { '-' } else { c }).collect()
}

/// Writes the `report/` directory for the campaign in `dir` and
/// returns its path.
///
/// Per scenario (spec expansion order, completed shards in shard
/// order):
///
/// * `<key>.exceedance.csv` — pooled execution-time exceedance curve,
///   when the records retained raw times;
/// * `<key>.hist.csv` — merged latency histogram, when traced shards
///   recorded one;
/// * `<key>.roc.csv` — detector ROC points tagged by shard, when
///   present.
///
/// Plus `trace.json` (a deterministic re-run of the first instrumented
/// shard, so the event stream is available even when the campaign ran
/// untraced), `summary.txt`, and `digests.txt` — sorted
/// `<name> 0x<fnv64>` lines over every exported file.
pub fn write_campaign_report(
    spec: &SweepSpec,
    dir: impl AsRef<Path>,
) -> Result<PathBuf, FleetError> {
    spec.validate()?;
    let cd = CampaignDir::create(dir.as_ref())?;
    let loaded = cd.load()?;
    let expected = spec.digest();
    let found = fnv64(loaded.spec_text.as_bytes());
    if found != expected {
        return Err(FleetError::SpecMismatch { expected, found });
    }
    let mut records = loaded.records;
    records.sort_by_key(|r| r.shard);
    let by_shard: BTreeMap<usize, &ShardRecord> = records.iter().map(|r| (r.shard, r)).collect();

    let jobs = spec.jobs()?;
    let scenarios = spec.expand()?;
    let mut files: Vec<(String, String)> = Vec::new();
    let mut summary = String::new();
    let _ = writeln!(summary, "campaign_digest {:#018x}", campaign_digest(&records));
    let _ = writeln!(summary, "shards {}/{}", records.len(), jobs.len());

    for (scenario_index, scenario) in scenarios.iter().enumerate() {
        let stem = sanitize(&scenario.key);
        let mut times: Vec<u64> = Vec::new();
        let mut have_all_times = true;
        let mut hist: Option<LatencyHistogram> = None;
        let mut roc_rows: Vec<(u64, f64, f64, f64)> = Vec::new();
        let mut completed = 0u32;
        let mut expected_shards = 0u32;
        for job in jobs.iter().filter(|j| j.scenario_index == scenario_index) {
            expected_shards += 1;
            let Some(rec) = by_shard.get(&job.shard) else {
                have_all_times = false;
                continue;
            };
            completed += 1;
            match &rec.output.times {
                Some(t) => times.extend_from_slice(t),
                None => have_all_times = false,
            }
            if let Some(pairs) = &rec.output.hist {
                // A sparse hist a shard wrote is one a shard's own
                // recorder produced; a malformed one is corruption.
                let shard_hist = LatencyHistogram::from_sparse(pairs).ok_or_else(|| {
                    FleetError::Corrupt(format!("shard {} carries an invalid histogram", rec.shard))
                })?;
                hist.get_or_insert_with(LatencyHistogram::new).merge(&shard_hist);
            }
            if let Some(points) = &rec.output.roc {
                roc_rows.extend(points.iter().map(|&(t, f, p)| (rec.shard as u64, t, f, p)));
            }
        }
        let _ = writeln!(summary, "scenario {} {}/{}", scenario.key, completed, expected_shards);
        if have_all_times && !times.is_empty() {
            files.push((format!("{stem}.exceedance.csv"), exceedance_csv(&times)));
        }
        if let Some(h) = &hist {
            files.push((format!("{stem}.hist.csv"), hist_csv(h)));
        }
        if !roc_rows.is_empty() {
            files.push((format!("{stem}.roc.csv"), roc_csv(&roc_rows)));
        }
    }

    // One representative event stream: deterministically re-run the
    // first instrumented shard, so the trace exists (and is identical)
    // whether or not the campaign itself ran with tracing on.
    if let Some(job) =
        jobs.iter().find(|j| matches!(j.scenario.attack, AttackKind::Pwcet | AttackKind::Rtos))
    {
        let (_, recorder) = trace_shard(job).map_err(FleetError::BadSpec)?;
        files.push(("trace.json".to_string(), chrome_trace(&recorder.records())));
    }

    files.push(("summary.txt".to_string(), summary));
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let mut digests = String::new();
    for (name, content) in &files {
        let _ = writeln!(digests, "{name} {:#018x}", fnv64(content.as_bytes()));
    }
    files.push(("digests.txt".to_string(), digests));

    let out_dir = cd.root().join("report");
    fs::create_dir_all(&out_dir).map_err(FleetError::Io)?;
    for (name, content) in &files {
        fs::write(out_dir.join(name), content).map_err(FleetError::Io)?;
    }
    Ok(out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{launch, ExecutorConfig, RunOutcome};
    use crate::fault::FaultPlan;
    use crate::spec::DetectionMode;
    use tscache_core::setup::{HierarchyDepth, SetupKind};

    /// Every surface in one cheap spec: pWCET (exceedance + hist),
    /// Prime+Probe with monitoring (ROC), RTOS with monitoring (PMU
    /// rows + schedule trace).
    fn small_spec() -> SweepSpec {
        SweepSpec {
            campaign_seed: 0x7e1e_8e77,
            samples_per_shard: 40,
            shards_per_scenario: 2,
            setups: vec![SetupKind::TsCache],
            depths: vec![HierarchyDepth::TwoLevel],
            platforms: vec![crate::spec::PlatformKind::Private],
            contention: vec![false],
            attacks: vec![AttackKind::Pwcet, AttackKind::PrimeProbe, AttackKind::Rtos],
            detection: vec![DetectionMode::Off, DetectionMode::Monitor],
            defenses: vec![tscache_core::defense::DefenseKind::Off],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tscache-fleet-report-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn run_small(dir: &Path, cfg: &ExecutorConfig) {
        match launch(&small_spec(), dir, cfg, &FaultPlan::none()).unwrap() {
            RunOutcome::Finished(result) => assert!(result.is_complete()),
            RunOutcome::Killed { .. } => panic!("campaign was killed"),
        }
    }

    fn read_report(dir: &Path) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for entry in fs::read_dir(dir.join("report")).unwrap() {
            let entry = entry.unwrap();
            out.insert(
                entry.file_name().to_string_lossy().into_owned(),
                fs::read_to_string(entry.path()).unwrap(),
            );
        }
        out
    }

    #[test]
    fn report_is_invariant_across_workers_scramble_and_tracing() {
        let spec = small_spec();
        let base = tmpdir("ref");
        run_small(&base, &ExecutorConfig { workers: 1, ..ExecutorConfig::default() });
        write_campaign_report(&spec, &base).unwrap();
        let reference = read_report(&base);
        assert!(reference.contains_key("digests.txt"));
        assert!(reference.contains_key("summary.txt"));
        assert!(reference.contains_key("trace.json"));
        assert!(
            reference.keys().any(|k| k.ends_with(".exceedance.csv")),
            "no exceedance curves in {:?}",
            reference.keys()
        );

        let scrambled = tmpdir("scrambled");
        run_small(
            &scrambled,
            &ExecutorConfig {
                workers: 4,
                scramble_seed: Some(7),
                trace: true,
                ..ExecutorConfig::default()
            },
        );
        write_campaign_report(&spec, &scrambled).unwrap();
        let other = read_report(&scrambled);
        // Traced campaigns add hist curves for instrumented scenarios,
        // but every surface both campaigns export is byte-identical.
        for (name, content) in &reference {
            if name == "digests.txt" || name == "summary.txt" {
                continue;
            }
            assert_eq!(other.get(name), Some(content), "{name} diverged");
        }
        let _ = fs::remove_dir_all(&base);
        let _ = fs::remove_dir_all(&scrambled);
    }

    #[test]
    fn traced_reports_are_invariant_across_completion_orders() {
        let spec = small_spec();
        let a = tmpdir("trace-a");
        let b = tmpdir("trace-b");
        run_small(&a, &ExecutorConfig { workers: 1, trace: true, ..ExecutorConfig::default() });
        run_small(
            &b,
            &ExecutorConfig {
                workers: 4,
                scramble_seed: Some(99),
                trace: true,
                ..ExecutorConfig::default()
            },
        );
        write_campaign_report(&spec, &a).unwrap();
        write_campaign_report(&spec, &b).unwrap();
        assert_eq!(read_report(&a), read_report(&b));
        // The lifecycle timeline narrates completion order and lives
        // outside report/ precisely because it may differ.
        assert!(a.join("lifecycle.trace.json").exists());
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }
}
