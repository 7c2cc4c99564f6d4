//! Access statistics counters.

use core::fmt;
use core::ops::{Add, AddAssign};

/// Hit/miss/eviction counters of one cache (or an aggregate).
///
/// # Examples
///
/// ```
/// use tscache_core::stats::CacheStats;
///
/// let mut s = CacheStats::default();
/// s.record_hit();
/// s.record_miss(false);
/// assert_eq!(s.accesses(), 2);
/// assert!((s.miss_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    cross_process_evictions: u64,
    writebacks: u64,
    flushes: u64,
    coh_invalidations: u64,
    ttl_expiries: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a hit.
    #[inline]
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss; `evicted` tells whether a valid line was
    /// displaced by the fill.
    #[inline]
    pub fn record_miss(&mut self, evicted: bool) {
        self.misses += 1;
        if evicted {
            self.evictions += 1;
        }
    }

    /// Records that an eviction displaced another process's line.
    #[inline]
    pub fn record_cross_process_eviction(&mut self) {
        self.cross_process_evictions += 1;
    }

    /// Records a dirty-line eviction that produced a writeback (only
    /// write-back caches generate these; write-through caches never
    /// hold dirty lines).
    #[inline]
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Records a whole-cache flush.
    #[inline]
    pub fn record_flush(&mut self) {
        self.flushes += 1;
    }

    /// Records one line copy invalidated by a coherence action (a
    /// cross-core upgrade, a flush broadcast, or an inclusive-LLC
    /// back-invalidation) in this cache.
    #[inline]
    pub fn record_coh_invalidation(&mut self) {
        self.coh_invalidations += 1;
    }

    /// Records one line drained by a TTL expiry (ClepsydraCache-style
    /// time-based eviction); dirty expiries additionally record a
    /// writeback via [`record_writeback`](Self::record_writeback).
    #[inline]
    pub fn record_ttl_expiry(&mut self) {
        self.ttl_expiries += 1;
    }

    /// Records `n` writebacks in one update (the dirty lines a flush
    /// drains).
    #[inline]
    pub fn record_writebacks(&mut self, n: u64) {
        self.writebacks += n;
    }

    /// Total accesses (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid-line evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions that displaced a different process's line (the
    /// contention events RPCache randomizes).
    pub fn cross_process_evictions(&self) -> u64 {
        self.cross_process_evictions
    }

    /// Dirty-line evictions that produced a writeback toward the next
    /// level (zero on write-through caches).
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of flushes.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Line copies invalidated in this cache by coherence actions
    /// (zero on platforms without coherence-tracked lines).
    pub fn coh_invalidations(&self) -> u64 {
        self.coh_invalidations
    }

    /// Lines drained by TTL expiry (zero unless a TTL defense is
    /// armed on this cache).
    pub fn ttl_expiries(&self) -> u64 {
        self.ttl_expiries
    }

    /// Miss rate in `[0, 1]`; 0 when no accesses were recorded.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The counts accrued since `before`, counter by counter. Each
    /// subtraction saturates at zero: a counter that went backwards (a
    /// [`reset`](Self::reset) between the two reads) reads 0 and
    /// clears `monotone`, so a window delta is a floor, never a wrapped
    /// `u64` or a panic.
    pub fn since(&self, before: &CacheStats, monotone: &mut bool) -> CacheStats {
        let mut sub = |after: u64, before: u64| {
            *monotone &= after >= before;
            after.saturating_sub(before)
        };
        CacheStats {
            hits: sub(self.hits, before.hits),
            misses: sub(self.misses, before.misses),
            evictions: sub(self.evictions, before.evictions),
            cross_process_evictions: sub(
                self.cross_process_evictions,
                before.cross_process_evictions,
            ),
            writebacks: sub(self.writebacks, before.writebacks),
            flushes: sub(self.flushes, before.flushes),
            coh_invalidations: sub(self.coh_invalidations, before.coh_invalidations),
            ttl_expiries: sub(self.ttl_expiries, before.ttl_expiries),
        }
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            cross_process_evictions: self.cross_process_evictions + rhs.cross_process_evictions,
            writebacks: self.writebacks + rhs.writebacks,
            flushes: self.flushes + rhs.flushes,
            coh_invalidations: self.coh_invalidations + rhs.coh_invalidations,
            ttl_expiries: self.ttl_expiries + rhs.ttl_expiries,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses (miss rate {:.4})",
            self.accesses(),
            self.hits,
            self.misses,
            self.miss_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_no_accesses_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::new();
        s.record_hit();
        s.record_hit();
        s.record_miss(true);
        s.record_miss(false);
        s.record_cross_process_eviction();
        s.record_writeback();
        s.record_writebacks(2);
        s.record_flush();
        s.record_ttl_expiry();
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.cross_process_evictions(), 1);
        assert_eq!(s.writebacks(), 3);
        assert_eq!(s.flushes(), 1);
        assert_eq!(s.ttl_expiries(), 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_merges_counters() {
        let mut a = CacheStats::new();
        a.record_hit();
        let mut b = CacheStats::new();
        b.record_miss(true);
        b.record_ttl_expiry();
        let c = a + b;
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.ttl_expiries(), 1);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = CacheStats::new();
        s.record_hit();
        s.reset();
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn since_subtracts_growth_and_saturates_a_rewound_counter() {
        let mut before = CacheStats::new();
        before.record_hit();
        before.record_miss(true);
        let mut after = before;
        after.record_hit();
        after.record_writeback();
        after.record_ttl_expiry();
        let mut monotone = true;
        let grown = after.since(&before, &mut monotone);
        assert!(monotone);
        assert_eq!((grown.hits(), grown.misses(), grown.evictions()), (1, 0, 0));
        assert_eq!((grown.writebacks(), grown.ttl_expiries()), (1, 1));

        let mut rewound = after;
        rewound.reset();
        rewound.record_miss(false);
        let d = rewound.since(&after, &mut monotone);
        assert!(!monotone, "a rewound counter must clear monotone");
        assert_eq!(d.hits(), 0, "underflow must clamp to zero, not wrap");
        assert_eq!(d.misses(), 0);
        assert_eq!(d.accesses(), 0);

        let mut still = true;
        after.since(&after, &mut still);
        assert!(still, "an unchanged block is monotone");
    }

    #[test]
    fn display_shows_miss_rate() {
        let mut s = CacheStats::new();
        s.record_miss(false);
        assert!(s.to_string().contains("miss rate 1.0000"));
    }
}
