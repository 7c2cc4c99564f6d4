//! PMU-style observability: counting-mode counter snapshots with
//! delta-safe arithmetic and op-window sampling.
//!
//! Real detectors (BarnOwlD-style) do not trace individual accesses —
//! they read a handful of aggregated performance counters at coarse
//! boundaries and reason about *deltas*. This module is that interface
//! over the simulated platform: [`PmuSnapshot`] captures every
//! monitored level's [`CacheStats`] plus the bus-wait and cycle totals
//! in one cheap copy, [`PmuSnapshot::delta`] subtracts two snapshots
//! level by level through [`CacheStats::since`], and [`PmuSampler`]
//! turns a stream of "N ops retired" notifications into
//! window-boundary deltas without touching the per-access fast path.
//!
//! Delta safety is the point: counters are plain `u64`s that
//! `reset_stats` can rewind, and a raw `a - b` would underflow-panic a
//! report. Every subtraction here saturates at zero and records the
//! violation in [`PmuDelta::monotone`] instead of crashing.

use crate::hierarchy::Hierarchy;
use crate::stats::CacheStats;

/// A point-in-time image of every monitored counter: one
/// [`CacheStats`] per cache level plus the scalar bus-wait and cycle
/// totals. Capturing is a handful of `u64` copies — cheap enough for
/// window boundaries, never done per access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PmuSnapshot {
    /// Per-level counters, in hierarchy order (L1I, L1D, unified
    /// levels, then any extra levels appended via
    /// [`with_level`](Self::with_level) — e.g. a shared LLC).
    pub levels: Vec<CacheStats>,
    /// Cycles lost to shared-bus queuing.
    pub bus_wait_cycles: u64,
    /// Total cycles elapsed on the monitored core.
    pub cycles: u64,
}

impl PmuSnapshot {
    /// Captures every private level of `hierarchy` (L1I, L1D, unified
    /// levels in order). Shared levels and scalar counters live outside
    /// the hierarchy; append them with [`with_level`](Self::with_level)
    /// / [`with_bus_wait`](Self::with_bus_wait) /
    /// [`with_cycles`](Self::with_cycles).
    pub fn capture(hierarchy: &Hierarchy) -> Self {
        let mut levels = vec![*hierarchy.l1i().stats(), *hierarchy.l1d().stats()];
        levels.extend(hierarchy.unified_levels().map(|c| *c.stats()));
        PmuSnapshot { levels, bus_wait_cycles: 0, cycles: 0 }
    }

    /// Builds a snapshot from explicit per-level statistics — for
    /// monitoring sources that are bare [`crate::cache::Cache`]s rather
    /// than a full hierarchy (e.g. the single-cache Prime+Probe
    /// campaign).
    pub fn from_level_stats(levels: &[CacheStats]) -> Self {
        PmuSnapshot { levels: levels.to_vec(), bus_wait_cycles: 0, cycles: 0 }
    }

    /// Appends one more monitored level (e.g. the shared LLC).
    pub fn with_level(mut self, stats: &CacheStats) -> Self {
        self.levels.push(*stats);
        self
    }

    /// Sets the bus-wait cycle counter.
    pub fn with_bus_wait(mut self, cycles: u64) -> Self {
        self.bus_wait_cycles = cycles;
        self
    }

    /// Sets the elapsed-cycles counter.
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Subtracts `before` from `self`, level by level, with saturating
    /// arithmetic. Any underflow (a rewound counter) or level-count
    /// mismatch clears [`PmuDelta::monotone`] instead of panicking;
    /// mismatched snapshots compare over their common level prefix.
    pub fn delta(&self, before: &PmuSnapshot) -> PmuDelta {
        let mut monotone = self.levels.len() == before.levels.len()
            && self.bus_wait_cycles >= before.bus_wait_cycles
            && self.cycles >= before.cycles;
        let levels = self
            .levels
            .iter()
            .zip(&before.levels)
            .map(|(a, b)| a.since(b, &mut monotone))
            .collect();
        PmuDelta {
            levels,
            bus_wait_cycles: self.bus_wait_cycles.saturating_sub(before.bus_wait_cycles),
            cycles: self.cycles.saturating_sub(before.cycles),
            monotone,
        }
    }
}

/// The difference between two [`PmuSnapshot`]s — what happened in one
/// observation window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PmuDelta {
    /// Per-level counter deltas (same order as the snapshots).
    pub levels: Vec<CacheStats>,
    /// Bus-wait cycles accrued in the window.
    pub bus_wait_cycles: u64,
    /// Cycles elapsed in the window.
    pub cycles: u64,
    /// `false` when any counter went backwards (or the snapshots had
    /// different level counts) and the delta was clamped — the signal
    /// that a reset happened mid-window and the numbers are a floor,
    /// not an exact count.
    pub monotone: bool,
}

impl PmuDelta {
    /// Sums the per-level deltas into one aggregate counter block.
    pub fn total(&self) -> CacheStats {
        self.levels.iter().fold(CacheStats::new(), |sum, &level| sum + level)
    }

    /// Aggregate miss rate in `[0, 1]`; 0 for an empty window. Each
    /// level's access delta is its hit delta plus its miss delta, so
    /// misses never exceed accesses, rewound or not.
    pub fn miss_rate(&self) -> f64 {
        self.total().miss_rate()
    }

    /// Coherence invalidations per access; 0 for an empty window.
    pub fn inval_rate(&self) -> f64 {
        let t = self.total();
        if t.accesses() == 0 {
            0.0
        } else {
            t.coh_invalidations() as f64 / t.accesses() as f64
        }
    }

    /// Cross-process evictions per access; 0 for an empty window.
    pub fn cross_eviction_rate(&self) -> f64 {
        let t = self.total();
        if t.accesses() == 0 {
            0.0
        } else {
            t.cross_process_evictions() as f64 / t.accesses() as f64
        }
    }
}

/// Counting-mode window sampler: accumulate "ops retired" ticks on the
/// fast path (one integer add), and only when a window's worth has
/// passed does the caller capture a snapshot and [`cut`](Self::cut)
/// the delta. Nothing here runs per access.
#[derive(Debug, Clone)]
pub struct PmuSampler {
    window_ops: u64,
    pending_ops: u64,
    windows: u64,
    baseline: PmuSnapshot,
}

impl PmuSampler {
    /// Creates a sampler emitting one delta per `window_ops` retired
    /// operations (clamped to ≥ 1), baselined at `initial`.
    pub fn new(window_ops: u64, initial: PmuSnapshot) -> Self {
        PmuSampler { window_ops: window_ops.max(1), pending_ops: 0, windows: 0, baseline: initial }
    }

    /// Windows cut so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Credits `ops` retired operations; returns `true` when a full
    /// window has accumulated and the caller should capture a snapshot
    /// and [`cut`](Self::cut). This is the entire fast-path cost.
    #[inline]
    pub fn note_ops(&mut self, ops: u64) -> bool {
        self.pending_ops = self.pending_ops.saturating_add(ops);
        self.pending_ops >= self.window_ops
    }

    /// Closes the current window at `now`: returns the delta since the
    /// baseline and re-baselines on `now`.
    pub fn cut(&mut self, now: PmuSnapshot) -> PmuDelta {
        let delta = now.delta(&self.baseline);
        self.baseline = now;
        self.pending_ops = 0;
        self.windows += 1;
        delta
    }

    /// Moves the baseline to `now` without emitting a window — for
    /// boundaries whose counter churn is *expected* (e.g. an OS-owned
    /// hyperperiod flush) and must not pollute the next delta.
    pub fn rebaseline(&mut self, now: PmuSnapshot) {
        self.baseline = now;
        self.pending_ops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(hits: u64, misses: u64) -> CacheStats {
        let mut s = CacheStats::new();
        for _ in 0..hits {
            s.record_hit();
        }
        for _ in 0..misses {
            s.record_miss(false);
        }
        s
    }

    #[test]
    fn delta_of_monotone_counters_is_exact() {
        let before = PmuSnapshot::from_level_stats(&[stats_with(10, 2)]);
        let after = PmuSnapshot::from_level_stats(&[stats_with(30, 10)]).with_cycles(500);
        let d = after.delta(&before);
        assert!(d.monotone);
        assert_eq!(d.total().accesses(), 28);
        assert_eq!(d.total().misses(), 8);
        assert_eq!(d.cycles, 500);
        assert!((d.miss_rate() - 8.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn rewound_counter_saturates_and_clears_monotone() {
        let before = PmuSnapshot::from_level_stats(&[stats_with(100, 50)]).with_cycles(1_000);
        let after = PmuSnapshot::from_level_stats(&[stats_with(3, 1)]).with_cycles(1_200);
        let d = after.delta(&before);
        assert!(!d.monotone, "counter rewind must be flagged");
        assert_eq!(d.total().misses(), 0, "underflow must clamp to zero, not wrap");
        assert_eq!(d.cycles, 200, "untouched counters still subtract exactly");
    }

    #[test]
    fn level_count_mismatch_is_flagged_not_fatal() {
        let before = PmuSnapshot::from_level_stats(&[stats_with(1, 0), stats_with(2, 0)]);
        let after = PmuSnapshot::from_level_stats(&[stats_with(5, 1)]);
        let d = after.delta(&before);
        assert!(!d.monotone);
        assert_eq!(d.levels.len(), 1, "compares over the common prefix");
        assert_eq!(d.total().accesses(), 5);
    }

    #[test]
    fn empty_window_rates_are_zero() {
        let d = PmuDelta { monotone: true, ..PmuDelta::default() };
        assert_eq!(d.miss_rate(), 0.0);
        assert_eq!(d.inval_rate(), 0.0);
        assert_eq!(d.cross_eviction_rate(), 0.0);
    }

    #[test]
    fn sampler_cuts_at_window_boundaries_only() {
        let mut sampler = PmuSampler::new(100, PmuSnapshot::from_level_stats(&[stats_with(0, 0)]));
        assert!(!sampler.note_ops(60));
        assert!(!sampler.note_ops(39));
        assert!(sampler.note_ops(1), "100 ops is a full window");
        let d = sampler.cut(PmuSnapshot::from_level_stats(&[stats_with(7, 3)]));
        assert!(d.monotone);
        assert_eq!(d.total().misses(), 3);
        assert_eq!(sampler.windows(), 1);
        assert!(!sampler.note_ops(99), "cut resets the pending-op count");
    }

    #[test]
    fn sampler_cut_rebaselines_on_now() {
        let s0 = PmuSnapshot::from_level_stats(&[stats_with(0, 0)]);
        let s1 = PmuSnapshot::from_level_stats(&[stats_with(10, 4)]);
        let s2 = PmuSnapshot::from_level_stats(&[stats_with(15, 5)]);
        let mut sampler = PmuSampler::new(1, s0);
        sampler.note_ops(1);
        assert_eq!(sampler.cut(s1).total().misses(), 4);
        sampler.note_ops(1);
        assert_eq!(sampler.cut(s2).total().misses(), 1, "second window counts only its own misses");
    }

    #[test]
    fn rebaseline_swallows_expected_churn() {
        let s0 = PmuSnapshot::from_level_stats(&[stats_with(0, 0)]);
        let flushy = PmuSnapshot::from_level_stats(&[stats_with(0, 1_000)]);
        let after = PmuSnapshot::from_level_stats(&[stats_with(5, 1_002)]);
        let mut sampler = PmuSampler::new(1, s0);
        sampler.rebaseline(flushy);
        sampler.note_ops(1);
        let d = sampler.cut(after);
        assert_eq!(d.total().misses(), 2, "the flush transient must not leak into the window");
        assert_eq!(sampler.windows(), 1, "rebaseline itself emits no window");
    }

    #[test]
    fn capture_orders_levels_l1i_l1d_then_unified() {
        let h = crate::setup::SetupKind::TsCache.build(0xfeed);
        let snap = PmuSnapshot::capture(&h);
        assert_eq!(snap.levels.len(), 3, "paper platform: L1I + L1D + L2");
        assert_eq!(snap.levels[0], *h.l1i().stats());
        assert_eq!(snap.levels[1], *h.l1d().stats());
    }
}
