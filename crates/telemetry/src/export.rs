//! Exporters: Chrome trace-event JSON and per-scenario curve files.
//!
//! Both are byte-deterministic functions of their inputs (hand-rolled
//! serialization, `Display`-formatted floats, no timestamps from the
//! wall clock), so campaign report files can be digest-pinned across
//! worker counts and resumes.
//!
//! The Chrome JSON follows the trace-event format's JSON-array flavor:
//! open `trace.json` in Perfetto or `chrome://tracing`. Cores render
//! as tids 0..N, the shared bus as tid 64, the scheduler as tid 65 and
//! the detector as tid 66.

use crate::event::{Event, TraceRecord};
use crate::histogram::LatencyHistogram;
use std::fmt::Write as _;

/// Synthetic Chrome tid for bus-grant spans.
const TID_BUS: u32 = 64;
/// Synthetic Chrome tid for scheduler slices.
const TID_SCHED: u32 = 65;
/// Synthetic Chrome tid for detector windows and flush markers.
const TID_MONITOR: u32 = 66;

fn push_complete(out: &mut String, name: &str, tid: u32, ts: u64, dur: u64, args: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}"
    );
}

fn push_instant(out: &mut String, name: &str, tid: u32, ts: u64, args: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}"
    );
}

/// Serializes a recorded stream as Chrome trace-event JSON. Cycle
/// timestamps are reported as microseconds 1:1 (Perfetto's timeline
/// unit) — relative structure, not wall time, is the point.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = rec.ts;
        match rec.event {
            Event::LevelAccess { core, level, hit } => push_instant(
                &mut out,
                if hit { "hit" } else { "miss" },
                core as u32,
                ts,
                &format!("\"level\":{level}"),
            ),
            Event::Writeback { core, count } => {
                push_instant(&mut out, "writeback", core as u32, ts, &format!("\"count\":{count}"))
            }
            Event::Op { core, cycles, miss_mask } => push_complete(
                &mut out,
                "op",
                core as u32,
                ts,
                cycles as u64,
                &format!("\"miss_mask\":{miss_mask}"),
            ),
            Event::BusGrant { core, wait, service } => push_complete(
                &mut out,
                "bus",
                TID_BUS,
                ts,
                service as u64,
                &format!("\"core\":{core},\"wait\":{wait}"),
            ),
            Event::MshrCoalesce { core, level } => push_instant(
                &mut out,
                "mshr-coalesce",
                core as u32,
                ts,
                &format!("\"level\":{level}"),
            ),
            Event::CohUpgrade { core, invalidated } => push_instant(
                &mut out,
                "coh-upgrade",
                core as u32,
                ts,
                &format!("\"invalidated\":{invalidated}"),
            ),
            Event::CohFlush { core, invalidated } => push_instant(
                &mut out,
                "coh-flush",
                core as u32,
                ts,
                &format!("\"invalidated\":{invalidated}"),
            ),
            Event::CohBackInvalidate { core } => {
                push_instant(&mut out, "coh-back-invalidate", core as u32, ts, "")
            }
            Event::CacheFlush { scope } => {
                push_instant(&mut out, scope.label(), TID_MONITOR, ts, "")
            }
            Event::ScheduleSlice { runnable, swc, cycles } => push_complete(
                &mut out,
                &format!("swc{swc}"),
                TID_SCHED,
                ts,
                cycles,
                &format!("\"runnable\":{runnable}"),
            ),
            Event::DetectorWindow { window, score, fired } => push_instant(
                &mut out,
                if fired { "detector-fired" } else { "detector-window" },
                TID_MONITOR,
                ts,
                &format!("\"window\":{window},\"score\":{score}"),
            ),
            Event::ShardAttempt { shard, attempt } => push_instant(
                &mut out,
                "shard-attempt",
                TID_MONITOR,
                ts,
                &format!("\"shard\":{shard},\"attempt\":{attempt}"),
            ),
            Event::ShardRetry { shard, attempt } => push_instant(
                &mut out,
                "shard-retry",
                TID_MONITOR,
                ts,
                &format!("\"shard\":{shard},\"attempt\":{attempt}"),
            ),
            Event::ShardQuarantine { shard } => push_instant(
                &mut out,
                "shard-quarantine",
                TID_MONITOR,
                ts,
                &format!("\"shard\":{shard}"),
            ),
            Event::Checkpoint { records } => push_instant(
                &mut out,
                "checkpoint",
                TID_MONITOR,
                ts,
                &format!("\"records\":{records}"),
            ),
        }
    }
    out.push_str("]}\n");
    out
}

/// Builds the pWCET-style exceedance curve `P(X ≥ t)` for a sample of
/// execution times, as `time,exceedance` CSV rows over the distinct
/// observed times.
pub fn exceedance_csv(times: &[u64]) -> String {
    let mut sorted: Vec<u64> = times.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mut out = String::from("time,exceedance\n");
    let mut i = 0;
    while i < n {
        let t = sorted[i];
        // Everything at index >= i is >= t.
        let exceed = (n - i) as f64 / n as f64;
        let _ = writeln!(out, "{t},{exceed}");
        while i < n && sorted[i] == t {
            i += 1;
        }
    }
    out
}

/// Serializes a latency histogram as `bucket_lo,bucket_hi,count` CSV
/// rows.
pub fn hist_csv(hist: &LatencyHistogram) -> String {
    let mut out = String::from("bucket_lo,bucket_hi,count\n");
    for (lo, hi, count) in hist.rows() {
        let _ = writeln!(out, "{lo},{hi},{count}");
    }
    out
}

/// Serializes per-shard ROC operating points as
/// `shard,threshold,fpr,tpr` CSV rows.
pub fn roc_csv(rows: &[(u64, f64, f64, f64)]) -> String {
    let mut out = String::from("shard,threshold,fpr,tpr\n");
    for &(shard, threshold, fpr, tpr) in rows {
        let _ = writeln!(out, "{shard},{threshold},{fpr},{tpr}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlushScope;

    #[test]
    fn chrome_trace_is_balanced_json_with_every_record() {
        let records = vec![
            TraceRecord { ts: 0, event: Event::Op { core: 0, cycles: 5, miss_mask: 1 } },
            TraceRecord { ts: 5, event: Event::BusGrant { core: 1, wait: 3, service: 8 } },
            TraceRecord { ts: 13, event: Event::CacheFlush { scope: FlushScope::Hyperperiod } },
            TraceRecord {
                ts: 14,
                event: Event::DetectorWindow { window: 0, score: 0.25, fired: false },
            },
            TraceRecord { ts: 20, event: Event::ScheduleSlice { runnable: 1, swc: 3, cycles: 40 } },
        ];
        let json = chrome_trace(&records);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"name\"").count(), records.len());
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("flush/hyperperiod"));
        assert!(json.contains("\"score\":0.25"));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn exceedance_curve_is_monotone_and_starts_at_one() {
        let times = [40u64, 10, 20, 20, 30];
        let csv = exceedance_csv(&times);
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 4, "distinct times only");
        assert_eq!(rows[0], "10,1");
        assert_eq!(rows[3], "40,0.2");
        let probs: Vec<f64> =
            rows.iter().map(|r| r.split(',').nth(1).unwrap().parse().unwrap()).collect();
        assert!(probs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn curve_files_have_headers() {
        let mut h = LatencyHistogram::new();
        h.record(12);
        assert!(hist_csv(&h).starts_with("bucket_lo,bucket_hi,count\n"));
        assert!(roc_csv(&[(0, 1.5, 0.0, 1.0)]).contains("0,1.5,0,1"));
    }
}
