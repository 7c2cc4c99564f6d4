//! Property tests for the PMU snapshot/delta machinery: deltas are
//! always finite, non-negative, and never panic — even when counters
//! rewind (the underflow bug class the delta-safe path exists for).

use proptest::prelude::*;
use tscache_core::pmu::{PmuSampler, PmuSnapshot};
use tscache_core::stats::CacheStats;

/// One level's counts: `((hits, clean misses, evicting misses,
/// coherence invalidations), (cross-process evictions, writebacks,
/// flushes, TTL expiries))`, so all eight `CacheStats` counters vary
/// independently.
type Level = ((u64, u64, u64, u64), (u64, u64, u64, u64));

fn stats(&((hits, clean, evicting, invals), (xev, wbs, flushes, ttls)): &Level) -> CacheStats {
    let mut s = CacheStats::new();
    for _ in 0..hits {
        s.record_hit();
    }
    for k in 0..clean + evicting {
        s.record_miss(k < evicting);
    }
    for _ in 0..invals {
        s.record_coh_invalidation();
    }
    for _ in 0..xev {
        s.record_cross_process_eviction();
    }
    s.record_writebacks(wbs);
    for _ in 0..flushes {
        s.record_flush();
    }
    for _ in 0..ttls {
        s.record_ttl_expiry();
    }
    s
}

/// A level with only hits and (clean) misses.
fn hm(hits: u64, misses: u64) -> Level {
    ((hits, misses, 0, 0), (0, 0, 0, 0))
}

/// Counter-wise sum of two levels.
fn sum(&((a0, a1, a2, a3), (a4, a5, a6, a7)): &Level, b: &Level) -> Level {
    let ((b0, b1, b2, b3), (b4, b5, b6, b7)) = *b;
    ((a0 + b0, a1 + b1, a2 + b2, a3 + b3), (a4 + b4, a5 + b5, a6 + b6, a7 + b7))
}

fn snapshot(levels: &[Level], bus: u64, cycles: u64) -> PmuSnapshot {
    let stats: Vec<CacheStats> = levels.iter().map(stats).collect();
    PmuSnapshot::from_level_stats(&stats).with_bus_wait(bus).with_cycles(cycles)
}

fn level() -> impl Strategy<Value = Level> {
    ((0u64..200, 0u64..200, 0u64..50, 0u64..50), (0u64..50, 0u64..50, 0u64..20, 0u64..20))
}

proptest! {
    /// Arbitrary before/after snapshot pairs — including rewound
    /// counters and mismatched level counts — always produce finite,
    /// non-negative deltas and rates, never a panic or a wrap.
    #[test]
    fn deltas_are_finite_and_non_negative(
        before in prop::collection::vec(level(), 0..4),
        after in prop::collection::vec(level(), 0..4),
        bus in (0u64..10_000, 0u64..10_000),
        cyc in (0u64..10_000, 0u64..10_000),
    ) {
        let b = snapshot(&before, bus.0, cyc.0);
        let a = snapshot(&after, bus.1, cyc.1);
        let d = a.delta(&b);
        let t = d.total();
        // u64 fields cannot be negative; what matters is that the
        // saturating path never wrapped toward u64::MAX.
        prop_assert!(t.accesses() <= a.levels.iter().map(CacheStats::accesses).sum::<u64>());
        prop_assert!(t.misses() <= a.levels.iter().map(CacheStats::misses).sum::<u64>());
        prop_assert!(d.bus_wait_cycles <= bus.1);
        prop_assert!(d.cycles <= cyc.1);
        for rate in [d.miss_rate(), d.inval_rate(), d.cross_eviction_rate()] {
            prop_assert!(rate.is_finite() && rate >= 0.0, "rate {rate} out of range");
        }
        // No clamp: a level's access delta is its hit delta plus its
        // miss delta, so misses cannot outrun accesses even on a rewind.
        prop_assert!(d.miss_rate() <= 1.0);
        prop_assert!(t.misses() <= t.accesses());
    }

    /// The monotone flag is `true` exactly when no counter rewound and
    /// the level counts matched.
    #[test]
    fn monotone_flag_matches_reality(
        base in prop::collection::vec(level(), 1..4),
        grow in prop::collection::vec(level(), 1..4),
    ) {
        let b = snapshot(&base, 10, 10);
        if base.len() == grow.len() {
            // Growing every counter from the same base is monotone by
            // construction, and each level's delta is exactly the
            // growth's own counter block, all eight counters of it.
            let grown: Vec<Level> = base.iter().zip(&grow).map(|(x, y)| sum(x, y)).collect();
            let a = snapshot(&grown, 20, 30);
            let d = a.delta(&b);
            prop_assert!(d.monotone);
            prop_assert_eq!(d.levels.len(), grow.len());
            for (level, y) in d.levels.iter().zip(&grow) {
                prop_assert_eq!(*level, stats(y));
            }
            prop_assert_eq!((d.bus_wait_cycles, d.cycles), (10, 20));
            prop_assert!(d.miss_rate() <= 1.0, "miss rate {} above 1", d.miss_rate());
        } else {
            let a = snapshot(&grow, 20, 30);
            prop_assert!(!a.delta(&b).monotone, "level-count mismatch must clear monotone");
        }
    }

    /// A reset (counters rewound to zero) clamps instead of wrapping.
    #[test]
    fn reset_mid_window_clamps(
        lvl in level(),
        hits in 1u64..100,
        bus in 1u64..1_000,
    ) {
        let b = snapshot(&[sum(&lvl, &hm(hits, 0))], bus, bus);
        let a = snapshot(&[hm(0, 0)], 0, 0);
        let d = a.delta(&b);
        prop_assert!(!d.monotone);
        prop_assert_eq!(d.levels[0], CacheStats::new());
        prop_assert_eq!(d.bus_wait_cycles, 0);
        prop_assert_eq!(d.cycles, 0);
    }

    /// Sampler windows partition the run: per-window deltas sum to the
    /// whole-run delta (nothing double-counted, nothing lost).
    #[test]
    fn sampler_windows_partition_the_run(
        steps in prop::collection::vec((1u64..50, 0u64..50), 1..20),
        window_ops in 1u64..16,
    ) {
        let mut total = (0u64, 0u64);
        let mut sampler = PmuSampler::new(window_ops, snapshot(&[hm(0, 0)], 0, 0));
        let mut seen = (0u64, 0u64);
        for &(h, m) in &steps {
            total.0 += h;
            total.1 += m;
            if sampler.note_ops(h + m) {
                let d = sampler.cut(snapshot(&[hm(total.0, total.1)], 0, 0));
                prop_assert!(d.monotone);
                seen.0 += d.total().accesses();
                seen.1 += d.total().misses();
            }
        }
        // Close the final partial window.
        let d = sampler.cut(snapshot(&[hm(total.0, total.1)], 0, 0));
        seen.0 += d.total().accesses();
        seen.1 += d.total().misses();
        prop_assert_eq!(seen.1, total.1, "windows must partition the miss stream");
        prop_assert_eq!(seen.0, total.0 + total.1, "windows must partition the access stream");
    }
}
