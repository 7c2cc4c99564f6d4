//! Crash-safe campaign persistence.
//!
//! A campaign directory holds:
//!
//! * `spec.txt` — the canonical sweep spec (written once, first);
//! * `results.jsonl` — append-only shard records, one JSON line each,
//!   group-committed (the append reaches the OS immediately; fsync
//!   happens at every manifest checkpoint, so the manifest never
//!   claims records an OS crash could lose);
//! * `manifest.json` — the checkpoint: spec digest plus the set of
//!   completed shards with their result digests, written atomically
//!   (write `manifest.json.tmp`, fsync, rename over the old one);
//! * `report.json` / `campaign_digest.txt` — the merged output,
//!   written only when the campaign completes.
//!
//! The durability contract: a kill at **any** byte boundary leaves the
//! directory loadable. `results.jsonl` may end in a torn line (the
//! append was cut mid-write) — the loader drops any tail that fails to
//! parse or lacks its newline, *and truncates it from the file* so a
//! resume's appends start on a clean line boundary rather than
//! concatenating onto the half-written line. `manifest.json` is
//! either the old or the new version, never a blend, thanks to the
//! rename. Records may
//! exist that the manifest hasn't caught up with (manifests are
//! written every `checkpoint_every` records) — the loader trusts the
//! records file, using the manifest only for spec verification, so no
//! completed work is ever re-run on resume.

use crate::digest::Fnv64;
use crate::fault::FaultPlan;
use crate::jsonl::{parse, parse_hex_u64, push_list, Parser, ShardRecord};
use crate::spec::FleetError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

/// Paths and append-state of one campaign directory.
#[derive(Debug)]
pub struct CampaignDir {
    root: PathBuf,
    /// Count of record appends this process has made (drives fault
    /// ordinals).
    appends: u64,
    /// Count of manifest writes this process has made.
    manifest_writes: u64,
    /// The open append handle for `results.jsonl` (group commit: kept
    /// open across appends, fsync'd at checkpoint boundaries).
    results: Option<File>,
}

/// The atomic checkpoint: which shards are done, under which spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Digest of the canonical spec text this campaign runs.
    pub spec_digest: u64,
    /// Total shards the spec expands to.
    pub total_shards: u64,
    /// Completed shards: index → result digest.
    pub completed: BTreeMap<u64, u64>,
    /// Shards quarantined after exhausting retries.
    pub quarantined: Vec<u64>,
}

impl Manifest {
    fn encode(&self) -> String {
        let mut out = format!(
            "{{\"spec_digest\":\"{:#x}\",\"total_shards\":{},\"completed\":",
            self.spec_digest, self.total_shards
        );
        push_list(&mut out, &self.completed, |out, (shard, digest)| {
            write!(out, "\"{shard}:{digest:#x}\"")
        });
        out.push_str(",\"quarantined\":");
        push_list(&mut out, &self.quarantined, |out, shard| write!(out, "{shard}"));
        out.push_str("}\n");
        out
    }

    fn decode(text: &str) -> Result<Manifest, FleetError> {
        parse(text, |p| {
            let spec_digest = p.field("{\"spec_digest\":", Parser::hex)?;
            let total_shards = p.field(",\"total_shards\":", Parser::int)?;
            let completed = p.field(",\"completed\":", |p| {
                p.list(|p| {
                    let entry = p.string()?;
                    let (shard, digest) = entry.split_once(':')?;
                    Some((shard.parse().ok()?, parse_hex_u64(digest)?))
                })
            })?;
            let quarantined = p.field(",\"quarantined\":", |p| p.list(Parser::int))?;
            p.eat(b'}')?;
            let completed = completed.into_iter().collect();
            Some(Manifest { spec_digest, total_shards, completed, quarantined })
        })
        .map_err(|at| FleetError::Corrupt(format!("manifest: malformed at byte {at}")))
    }
}

/// Everything a `--resume` finds in a campaign directory.
#[derive(Debug)]
pub struct LoadedCampaign {
    /// The canonical spec text stored at launch.
    pub spec_text: String,
    /// Parsed records, first-write-wins per shard, torn tail dropped.
    pub records: Vec<ShardRecord>,
    /// The manifest, if one was ever written.
    pub manifest: Option<Manifest>,
}

impl CampaignDir {
    /// Opens (creating if needed) a campaign directory.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, FleetError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CampaignDir { root, appends: 0, manifest_writes: 0, results: None })
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// `spec.txt` path.
    pub fn spec_path(&self) -> PathBuf {
        self.path("spec.txt")
    }

    /// `results.jsonl` path.
    pub fn results_path(&self) -> PathBuf {
        self.path("results.jsonl")
    }

    /// `manifest.json` path.
    pub fn manifest_path(&self) -> PathBuf {
        self.path("manifest.json")
    }

    /// `report.json` path (written on completion only).
    pub fn report_path(&self) -> PathBuf {
        self.path("report.json")
    }

    /// `campaign_digest.txt` path (written on completion only).
    pub fn digest_path(&self) -> PathBuf {
        self.path("campaign_digest.txt")
    }

    /// Writes the canonical spec text (once, at campaign start).
    pub fn write_spec(&self, canonical: &str) -> Result<(), FleetError> {
        let mut f = File::create(self.spec_path())?;
        f.write_all(canonical.as_bytes())?;
        f.sync_all()?;
        Ok(())
    }

    /// Appends one shard record to `results.jsonl` (group commit: the
    /// handle stays open and the write reaches the OS immediately, so
    /// a process kill at any later point keeps it; fsync happens at
    /// checkpoint boundaries via [`CampaignDir::sync_results`], which
    /// [`CampaignDir::write_manifest`] always performs first — the
    /// manifest never claims records an OS crash could lose).
    ///
    /// Fault hooks: honors [`FaultPlan::should_fail_write`] (counted by
    /// append ordinal) and [`FaultPlan::should_tear`] — a torn append
    /// writes only the first half of the line and reports
    /// [`TornWrite`](AppendOutcome::TornWrite) so the executor halts as
    /// if killed mid-write.
    pub fn append_record(
        &mut self,
        record: &ShardRecord,
        faults: &FaultPlan,
    ) -> Result<AppendOutcome, FleetError> {
        let ordinal = self.appends;
        if faults.should_fail_write(ordinal) {
            self.appends += 1;
            return Err(FleetError::Io(std::io::Error::other(format!(
                "injected I/O error on write #{ordinal}"
            ))));
        }
        let mut line = record.encode();
        line.push('\n');
        if self.results.is_none() {
            self.results =
                Some(OpenOptions::new().create(true).append(true).open(self.results_path())?);
        }
        let Some(f) = self.results.as_mut() else {
            // Unreachable: assigned two lines up; stay panic-free anyway.
            return Err(FleetError::Io(std::io::Error::other("results handle vanished")));
        };
        if faults.should_tear(ordinal) {
            let half = line.len() / 2;
            f.write_all(&line.as_bytes()[..half])?;
            f.sync_all()?;
            self.appends += 1;
            return Ok(AppendOutcome::TornWrite);
        }
        f.write_all(line.as_bytes())?;
        self.appends += 1;
        Ok(AppendOutcome::Durable)
    }

    /// Fsyncs the results append log (the group-commit barrier; no-op
    /// when nothing was appended).
    pub fn sync_results(&mut self) -> Result<(), FleetError> {
        if let Some(f) = &mut self.results {
            f.sync_all()?;
        }
        Ok(())
    }

    /// Atomically replaces `manifest.json`: fsync the append log
    /// first, then write tmp, fsync, rename.
    pub fn write_manifest(
        &mut self,
        manifest: &Manifest,
        faults: &FaultPlan,
    ) -> Result<(), FleetError> {
        self.sync_results()?;
        let ordinal = self.manifest_writes;
        self.manifest_writes += 1;
        if faults.should_fail_manifest_write(ordinal) {
            return Err(FleetError::Io(std::io::Error::other(format!(
                "injected I/O error on manifest write #{ordinal}"
            ))));
        }
        let tmp = self.path("manifest.json.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(manifest.encode().as_bytes())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, self.manifest_path())?;
        // Make the rename itself durable.
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Writes the completion artifacts (merged report + campaign
    /// digest). Not fsync'd: both are derived data, recomputed
    /// bit-identically by a resume from the records file — only the
    /// append log and manifest carry durability obligations.
    pub fn write_report(&self, report_json: &str, campaign_digest: u64) -> Result<(), FleetError> {
        let mut f = File::create(self.report_path())?;
        f.write_all(report_json.as_bytes())?;
        let mut d = File::create(self.digest_path())?;
        writeln!(d, "{campaign_digest:#018x}")?;
        Ok(())
    }

    /// Loads whatever survived in the directory. Tolerates: missing
    /// results file (fresh campaign), a torn final line (dropped), a
    /// missing manifest (records file is authoritative). A torn line
    /// *before* the final one is real corruption and errors.
    ///
    /// Loading also **heals** a torn tail: `results.jsonl` is truncated
    /// back to the end of its last parseable line. Without this, the
    /// next append (the handle is `O_APPEND`) would concatenate a fresh
    /// record onto the half-written line, turning a recoverable torn
    /// tail into a mid-file unparseable line that poisons every later
    /// load.
    pub fn load(&self) -> Result<LoadedCampaign, FleetError> {
        let spec_text = fs::read_to_string(self.spec_path())
            .map_err(|e| FleetError::Corrupt(format!("missing spec.txt: {e}")))?;
        let mut records: Vec<ShardRecord> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        match File::open(self.results_path()) {
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)?;
                drop(f);
                let complete_len = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
                // Anything past the last newline is a torn append.
                // Track each line's end offset so the torn tail can be
                // truncated away below.
                let mut lines: Vec<(&str, usize)> = Vec::new();
                let mut pos = 0;
                while pos < complete_len {
                    let end = text[pos..complete_len]
                        .find('\n')
                        .map(|i| pos + i + 1)
                        .unwrap_or(complete_len);
                    let line = text[pos..end].trim_end_matches('\n');
                    if !line.trim().is_empty() {
                        lines.push((line, end));
                    }
                    pos = end;
                }
                // Byte length of the prefix that parsed cleanly — where
                // the file is truncated to before any further appends.
                let mut durable_len = 0u64;
                for (i, (line, end)) in lines.iter().enumerate() {
                    match ShardRecord::decode(line) {
                        Some(rec) => {
                            durable_len = *end as u64;
                            // First write wins: a record can be duplicated
                            // if a kill landed between append and manifest.
                            if seen.insert(rec.shard) {
                                records.push(rec);
                            }
                        }
                        None if i + 1 == lines.len() => {
                            // Torn final line that happened to contain a
                            // newline in its payload half — still a tail.
                        }
                        None => {
                            return Err(FleetError::Corrupt(format!(
                                "results.jsonl line {} unparseable (not a torn tail)",
                                i + 1
                            )));
                        }
                    }
                }
                if durable_len < text.len() as u64 {
                    let f = OpenOptions::new().write(true).open(self.results_path())?;
                    f.set_len(durable_len)?;
                    f.sync_all()?;
                }
            }
        }
        let manifest = match fs::read_to_string(self.manifest_path()) {
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
            Ok(text) => Some(Manifest::decode(&text)?),
        };
        Ok(LoadedCampaign { spec_text, records, manifest })
    }
}

/// What [`CampaignDir::append_record`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record is fully on disk.
    Durable,
    /// A torn write was injected: half the line is on disk and the run
    /// must halt as if killed.
    TornWrite,
}

/// Digest of a completed campaign's records in shard order — the
/// quantity that must be bit-identical across worker counts, kills,
/// and resumes.
pub fn campaign_digest(records: &[ShardRecord]) -> u64 {
    let mut sorted: Vec<&ShardRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.shard);
    let mut h = Fnv64::new();
    for rec in sorted {
        h.write_u64(rec.result_digest());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ShardOutput;

    fn rec(shard: usize, attempt: u32) -> ShardRecord {
        ShardRecord {
            shard,
            scenario: format!("scenario-{}", shard % 3),
            seed: 0x1000 + shard as u64,
            attempt,
            output: ShardOutput {
                digest: 0x2000 + shard as u64,
                n: 10,
                mean: 5000.0 + shard as f64,
                variance: 1.25,
                min: 4000.0,
                max: 6000.0,
                times: if shard.is_multiple_of(2) { Some(vec![1, 2, 3]) } else { None },
                ..ShardOutput::default()
            },
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tscache-fleet-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut cd = CampaignDir::create(&dir).unwrap();
        cd.write_spec("spec body\n").unwrap();
        let plan = FaultPlan::none();
        for i in 0..5 {
            cd.append_record(&rec(i, 1), &plan).unwrap();
        }
        let loaded = cd.load().unwrap();
        assert_eq!(loaded.spec_text, "spec body\n");
        assert_eq!(loaded.records.len(), 5);
        assert_eq!(loaded.records[3], rec(3, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let dir = tmpdir("torn");
        let mut cd = CampaignDir::create(&dir).unwrap();
        cd.write_spec("s\n").unwrap();
        let plan = FaultPlan { torn_write_after: Some(2), ..FaultPlan::default() };
        cd.append_record(&rec(0, 1), &plan).unwrap();
        cd.append_record(&rec(1, 1), &plan).unwrap();
        assert_eq!(cd.append_record(&rec(2, 1), &plan).unwrap(), AppendOutcome::TornWrite);
        let loaded = cd.load().unwrap();
        assert_eq!(loaded.records.len(), 2, "torn record must not surface");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_so_resumed_appends_stay_parseable() {
        let dir = tmpdir("torn-heal");
        let mut cd = CampaignDir::create(&dir).unwrap();
        cd.write_spec("s\n").unwrap();
        let plan = FaultPlan { torn_write_after: Some(1), ..FaultPlan::default() };
        cd.append_record(&rec(0, 1), &plan).unwrap();
        assert_eq!(cd.append_record(&rec(1, 1), &plan).unwrap(), AppendOutcome::TornWrite);
        // A resume opens a fresh CampaignDir; load() must truncate the
        // half-written line away...
        let mut resumed = CampaignDir::create(&dir).unwrap();
        assert_eq!(resumed.load().unwrap().records.len(), 1);
        // ...so the re-run shard's append starts on a clean boundary
        // instead of concatenating onto the torn half-line.
        resumed.append_record(&rec(1, 2), &FaultPlan::none()).unwrap();
        let loaded = resumed.load().unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[1], rec(1, 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_write_faults_use_their_own_ordinals() {
        let dir = tmpdir("manifest-fault");
        let mut cd = CampaignDir::create(&dir).unwrap();
        cd.write_spec("s\n").unwrap();
        let plan = FaultPlan { io_error_on_manifest_writes: vec![1], ..FaultPlan::default() };
        let m = Manifest::default();
        cd.write_manifest(&m, &plan).unwrap();
        assert!(matches!(cd.write_manifest(&m, &plan), Err(FleetError::Io(_))));
        // Appends and manifest writes are independent fault namespaces:
        // record appends are untouched by a manifest-only plan.
        cd.append_record(&rec(0, 1), &plan).unwrap();
        cd.append_record(&rec(1, 1), &plan).unwrap();
        cd.write_manifest(&m, &plan).unwrap();
        assert_eq!(cd.load().unwrap().records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_records_resolve_first_wins() {
        let dir = tmpdir("dup");
        let mut cd = CampaignDir::create(&dir).unwrap();
        cd.write_spec("s\n").unwrap();
        let plan = FaultPlan::none();
        cd.append_record(&rec(7, 1), &plan).unwrap();
        cd.append_record(&rec(7, 2), &plan).unwrap(); // re-run after lost manifest
        let loaded = cd.load().unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].attempt, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrips_and_replaces_atomically() {
        let dir = tmpdir("manifest");
        let mut cd = CampaignDir::create(&dir).unwrap();
        let mut m = Manifest {
            spec_digest: 0xabcd,
            total_shards: 40,
            completed: BTreeMap::new(),
            quarantined: vec![3, 9],
        };
        m.completed.insert(0, 0x11);
        m.completed.insert(5, 0x55);
        cd.write_manifest(&m, &FaultPlan::none()).unwrap();
        let text = fs::read_to_string(cd.manifest_path()).unwrap();
        assert_eq!(Manifest::decode(&text).unwrap(), m);
        assert!(!cd.path("manifest.json.tmp").exists(), "tmp must be renamed away");
        // Overwrite with a bigger manifest; loader sees only the new one.
        m.completed.insert(6, 0x66);
        cd.write_manifest(&m, &FaultPlan::none()).unwrap();
        assert_eq!(Manifest::decode(&fs::read_to_string(cd.manifest_path()).unwrap()).unwrap(), m);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A resume reads the manifest an older binary wrote, so its bytes
    /// are pinned verbatim, not just as `decode(encode(x)) == x`.
    #[test]
    fn manifest_encoding_is_pinned_byte_for_byte() {
        let full = Manifest {
            spec_digest: 0x9e37_79b9_7f4a_7c15,
            total_shards: 282,
            completed: BTreeMap::from([(0, 0x11), (5, u64::MAX), (281, 0)]),
            quarantined: vec![3, 9],
        };
        let pinned = [
            (
                full,
                "{\"spec_digest\":\"0x9e3779b97f4a7c15\",\"total_shards\":282,\
                 \"completed\":[\"0:0x11\",\"5:0xffffffffffffffff\",\"281:0x0\"],\
                 \"quarantined\":[3,9]}\n",
            ),
            (
                Manifest::default(),
                "{\"spec_digest\":\"0x0\",\"total_shards\":0,\"completed\":[],\"quarantined\":[]}\n",
            ),
        ];
        for (m, text) in pinned {
            assert_eq!(m.encode(), text);
            assert_eq!(Manifest::decode(text).unwrap(), m);
        }
    }

    #[test]
    fn malformed_manifests_are_corrupt() {
        let m = Manifest {
            spec_digest: 0xabcd,
            total_shards: 40,
            completed: BTreeMap::from([(0, 0x11), (5, 0x55)]),
            quarantined: vec![3, 9],
        };
        let text = m.encode();
        // Every cut short of the closing brace (the trailing newline is
        // whitespace, which the decoder trims), a non-hex digest and a
        // non-numeric quarantined entry.
        let body = text.trim_end();
        let cuts = (0..body.len()).map(|cut| body[..cut].to_string());
        let edits = [text.replace("0xabcd", "0xabcg"), text.replace("[3,9]", "[3,x]")];
        for bad in cuts.chain(edits) {
            match Manifest::decode(&bad) {
                Err(FleetError::Corrupt(msg)) => assert!(msg.starts_with("manifest: "), "{msg}"),
                other => panic!("{bad:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn injected_io_error_surfaces_as_io() {
        let dir = tmpdir("ioerr");
        let mut cd = CampaignDir::create(&dir).unwrap();
        cd.write_spec("s\n").unwrap();
        let plan = FaultPlan { io_error_on_writes: vec![1], ..FaultPlan::default() };
        cd.append_record(&rec(0, 1), &plan).unwrap();
        assert!(matches!(cd.append_record(&rec(1, 1), &plan), Err(FleetError::Io(_))));
        // The failed ordinal is consumed; the next append succeeds.
        cd.append_record(&rec(1, 1), &plan).unwrap();
        assert_eq!(cd.load().unwrap().records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_digest_is_shard_order_invariant_and_attempt_blind() {
        let a = vec![rec(0, 1), rec(1, 1), rec(2, 1)];
        let mut b = vec![rec(2, 3), rec(0, 9), rec(1, 2)];
        assert_eq!(campaign_digest(&a), campaign_digest(&b));
        b[0].output.mean += 0.5;
        assert_ne!(campaign_digest(&a), campaign_digest(&b));
    }
}
