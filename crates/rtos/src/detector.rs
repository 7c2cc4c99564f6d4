//! Online attack detection: a sliding-window anomaly detector over
//! PMU counter deltas.
//!
//! The detector runs in counting mode (BarnOwlD-style): the OS — or a
//! campaign harness — feeds it one [`PmuDelta`] per sampling window,
//! and the detector reduces each window to a scalar *suspicion score*
//!
//! ```text
//! score = miss_rate + 4 · inval_rate + cross_weight · xev_rate
//! ```
//!
//! combining the two statistics the paper's counters expose directly:
//! miss-rate storms (Prime+Probe-style eviction pressure, Bernstein
//! table thrashing) and coherence-invalidation rates (Flush+Reload's
//! `clflush` signature). Scores above [`DetectorConfig::threshold`]
//! emit typed [`DetectionEvent`]s; the full per-window score trace is
//! kept in the [`DetectorReport`] so campaigns can sweep the threshold
//! afterwards and build ROC curves without re-running anything.
//!
//! The window right after an *OS-owned* cache flush is masked
//! ([`SlidingWindowDetector::note_flush`]): the hyperperiod flush is
//! the defense working as designed, and its miss transient must not
//! read as an attack.

use tscache_core::error::ConfigError;
use tscache_core::pmu::PmuDelta;

/// Weight of the coherence-invalidation rate in the score.
const INVAL_WEIGHT: f64 = 4.0;

/// Detector tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Suspicion-score threshold above which a window raises a
    /// [`DetectionEvent`]. The default is calibrated so benign
    /// schedules (including contended and coherent-image campaigns)
    /// stay silent while the in-repo attack campaigns trip it.
    pub threshold: f64,
    /// Weight of the cross-process-eviction rate in the score. The
    /// default is **zero**: on a time-sliced schedule every context
    /// switch legitimately evicts the previous SWC's lines, so
    /// cross-process evictions are baseline noise there. Campaigns
    /// monitoring a *concurrently shared* cache (the Prime+Probe
    /// detection harness) raise it — there, sustained cross-process
    /// eviction pressure is exactly the attack.
    pub cross_weight: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { threshold: 1.10, cross_weight: 0.0 }
    }
}

impl DetectorConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [("threshold", self.threshold), ("cross_weight", self.cross_weight)] {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError::incompatible(format!(
                    "detector {name} must be finite and non-negative (got {v})"
                )));
            }
        }
        Ok(())
    }
}

/// Which statistic pushed a window over the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionKind {
    /// The miss-rate term dominated — eviction-pressure attacks
    /// (Prime+Probe, Bernstein thrashing).
    MissRate,
    /// The coherence term dominated — invalidation attacks
    /// (Flush+Reload).
    Coherence,
}

/// One window whose suspicion score crossed the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionEvent {
    /// Scored window ordinal (masked windows are not counted).
    pub window: u64,
    /// Dominant anomaly statistic.
    pub kind: DetectionKind,
    /// The window's suspicion score.
    pub score: f64,
    /// The threshold in force when the event fired.
    pub threshold: f64,
}

/// Everything the detector observed over one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectorReport {
    /// Windows scored (excludes masked flush-transient windows).
    pub windows: u64,
    /// Windows discarded by flush masking.
    pub masked: u64,
    /// Per-window suspicion scores, in order — the ROC sweep input.
    pub scores: Vec<f64>,
    /// The raw PMU deltas behind the scores, aligned with `scores`
    /// (masked windows are not retained). Campaign exporters serialize
    /// these so threshold/weight sweeps can re-score offline without
    /// re-running the simulation.
    pub deltas: Vec<PmuDelta>,
    /// Threshold crossings.
    pub events: Vec<DetectionEvent>,
    /// Highest single-window score seen (0 when no windows scored).
    pub max_score: f64,
}

impl DetectorReport {
    /// Whether any window crossed the threshold.
    pub fn detected(&self) -> bool {
        !self.events.is_empty()
    }

    /// The first event's window ordinal — the detection latency in
    /// windows (None when nothing fired).
    pub fn first_detection(&self) -> Option<u64> {
        self.events.first().map(|e| e.window)
    }
}

/// The sliding-window anomaly detector. Feed it one [`PmuDelta`] per
/// window via [`ingest`](Self::ingest); call
/// [`note_flush`](Self::note_flush) at OS-owned flush boundaries.
#[derive(Debug, Clone)]
pub struct SlidingWindowDetector {
    cfg: DetectorConfig,
    report: DetectorReport,
    /// Whether the next window follows an OS-owned flush.
    mask_next: bool,
}

impl SlidingWindowDetector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: DetectorConfig) -> Self {
        SlidingWindowDetector { cfg, report: DetectorReport::default(), mask_next: false }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The suspicion score of one window under `cfg` — pure, so
    /// campaigns can re-score recorded deltas during threshold sweeps.
    pub fn score(cfg: &DetectorConfig, delta: &PmuDelta) -> f64 {
        delta.miss_rate()
            + INVAL_WEIGHT * delta.inval_rate()
            + cfg.cross_weight * delta.cross_eviction_rate()
    }

    /// Marks an OS-owned flush: the next window is discarded instead
    /// of scored (the flush transient is expected churn, not an
    /// attack).
    pub fn note_flush(&mut self) {
        self.mask_next = true;
    }

    /// Scores one window delta; returns the event if the threshold was
    /// crossed (the event is also recorded in the report).
    pub fn ingest(&mut self, delta: &PmuDelta) -> Option<DetectionEvent> {
        if self.mask_next {
            self.mask_next = false;
            self.report.masked += 1;
            return None;
        }
        let score = Self::score(&self.cfg, delta);
        let window = self.report.windows;
        self.report.windows += 1;
        self.report.scores.push(score);
        self.report.deltas.push(delta.clone());
        if score > self.report.max_score {
            self.report.max_score = score;
        }
        if score > self.cfg.threshold {
            let miss_term = delta.miss_rate();
            let coh_term = INVAL_WEIGHT * delta.inval_rate();
            let kind = if coh_term > miss_term + self.cfg.cross_weight * delta.cross_eviction_rate()
            {
                DetectionKind::Coherence
            } else {
                DetectionKind::MissRate
            };
            let event = DetectionEvent { window, kind, score, threshold: self.cfg.threshold };
            self.report.events.push(event.clone());
            return Some(event);
        }
        None
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &DetectorReport {
        &self.report
    }

    /// Consumes the detector and returns its report.
    pub fn into_report(self) -> DetectorReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscache_core::pmu::PmuSnapshot;
    use tscache_core::stats::CacheStats;

    fn delta(hits: u64, misses: u64, invals: u64, xev: u64) -> PmuDelta {
        let mut s = CacheStats::new();
        for _ in 0..hits {
            s.record_hit();
        }
        for _ in 0..misses {
            s.record_miss(true);
        }
        for _ in 0..invals {
            s.record_coh_invalidation();
        }
        for _ in 0..xev {
            s.record_cross_process_eviction();
        }
        let zero = PmuSnapshot::from_level_stats(&[CacheStats::new()]);
        PmuSnapshot::from_level_stats(&[s]).delta(&zero)
    }

    #[test]
    fn quiet_windows_raise_nothing() {
        let mut det = SlidingWindowDetector::new(DetectorConfig::default());
        for _ in 0..50 {
            assert!(det.ingest(&delta(95, 5, 0, 0)).is_none());
        }
        let report = det.into_report();
        assert_eq!(report.windows, 50);
        assert!(!report.detected());
        assert!(report.max_score < 0.1);
    }

    #[test]
    fn miss_storm_raises_miss_rate_event() {
        // Shared-cache campaign shape: cross-process evictions are a
        // signal there, so the harness weights them in.
        let cfg = DetectorConfig { cross_weight: 4.0, ..DetectorConfig::default() };
        let mut det = SlidingWindowDetector::new(cfg);
        det.ingest(&delta(90, 10, 0, 0));
        let event = det.ingest(&delta(5, 95, 0, 40)).expect("storm window must fire");
        assert_eq!(event.kind, DetectionKind::MissRate);
        assert_eq!(event.window, 1);
        assert_eq!(det.report().first_detection(), Some(1));
        det.ingest(&delta(100, 0, 0, 0)); // score 0.0
        assert_eq!(det.report().max_score, event.score, "a quiet window lowered the peak");
    }

    #[test]
    fn invalidation_burst_raises_coherence_event() {
        let mut det = SlidingWindowDetector::new(DetectorConfig::default());
        let event = det.ingest(&delta(80, 20, 60, 0)).expect("invalidation burst must fire");
        assert_eq!(event.kind, DetectionKind::Coherence);
    }

    #[test]
    fn flush_mask_discards_the_transient_window() {
        let mut det = SlidingWindowDetector::new(DetectorConfig::default());
        det.note_flush();
        // The post-flush cold storm would score far above threshold…
        assert!(det.ingest(&delta(0, 100, 0, 0)).is_none(), "masked window must not fire");
        // …and the next (warm) window is scored normally.
        assert!(det.ingest(&delta(98, 2, 0, 0)).is_none());
        let report = det.into_report();
        assert_eq!(report.masked, 1);
        assert_eq!(report.windows, 1);
        assert_eq!(report.scores.len(), 1);
        assert_eq!(report.deltas.len(), 1, "masked windows must not retain deltas");
    }

    #[test]
    fn default_config_validates_and_nan_threshold_rejects() {
        DetectorConfig::default().validate().expect("default must be valid");
        let nan = DetectorConfig { threshold: f64::NAN, ..DetectorConfig::default() };
        assert!(nan.validate().is_err());
    }
}
