//! The trace vocabulary: one `Copy` enum covering every instrumented
//! layer, from per-level cache walks up to fleet shard lifecycle.
//!
//! Events are deliberately small plain-data variants — no strings, no
//! heap — so emitting one is a couple of register moves plus the
//! recorder's digest fold. Each variant carries exactly the fields its
//! exporter view needs; anything derivable (e.g. queue wait = grant −
//! request) is stored pre-computed by the emitter so the exporters
//! never re-model timing.

use crate::digest::Fnv64;

/// What triggered a whole-cache flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushScope {
    /// OS-owned hyperperiod boundary flush (the TSCache defense).
    Hyperperiod,
    /// Per-job / per-process seed-change flush.
    ProcessSwitch,
    /// Measurement-protocol flush between MBPTA runs.
    Measurement,
}

impl FlushScope {
    fn code(self) -> u64 {
        match self {
            FlushScope::Hyperperiod => 0,
            FlushScope::ProcessSwitch => 1,
            FlushScope::Measurement => 2,
        }
    }

    /// Short label used by the Chrome exporter.
    pub fn label(self) -> &'static str {
        match self {
            FlushScope::Hyperperiod => "flush/hyperperiod",
            FlushScope::ProcessSwitch => "flush/process",
            FlushScope::Measurement => "flush/measurement",
        }
    }
}

/// One traced occurrence. Variants group by emitting layer:
/// hierarchy walks, interference engine, RTOS, fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// One cache level consulted during an access walk.
    LevelAccess {
        /// Issuing core.
        core: u8,
        /// Hierarchy level (0 = L1).
        level: u8,
        /// Whether the level hit (a miss fills from below).
        hit: bool,
    },
    /// Dirty-victim writebacks reaching memory for one op.
    Writeback {
        /// Issuing core.
        core: u8,
        /// Number of memory writebacks the op triggered.
        count: u8,
    },
    /// One memory operation retired, end to end.
    Op {
        /// Issuing core.
        core: u8,
        /// Cycles the op cost (feeds the latency histograms).
        cycles: u32,
        /// Per-level miss bits (bit `l` set = missed at level `l`).
        miss_mask: u8,
    },
    /// One shared-bus transaction granted.
    BusGrant {
        /// Requesting core.
        core: u8,
        /// Cycles queued before the grant.
        wait: u32,
        /// Service cycles occupied on the bus.
        service: u32,
    },
    /// A miss merged into an in-flight MSHR entry.
    MshrCoalesce {
        /// Issuing core.
        core: u8,
        /// Level whose MSHR file coalesced the miss.
        level: u8,
    },
    /// A write hit on a shared coherent line upgraded to Modified,
    /// invalidating other sharers.
    CohUpgrade {
        /// Upgrading core.
        core: u8,
        /// Sharer copies invalidated.
        invalidated: u8,
    },
    /// A `clflush`-style broadcast on a coherent line.
    CohFlush {
        /// Flushing core.
        core: u8,
        /// Copies invalidated across the platform.
        invalidated: u8,
    },
    /// An inclusive back-invalidation after a shared-LLC eviction.
    CohBackInvalidate {
        /// Core whose fill evicted the tracked victim.
        core: u8,
    },
    /// A whole-cache flush boundary.
    CacheFlush {
        /// What owned the flush.
        scope: FlushScope,
    },
    /// One RTOS job slice executed by the scheduler.
    ScheduleSlice {
        /// Runnable index within the schedule table.
        runnable: u16,
        /// Software component the runnable belongs to.
        swc: u16,
        /// Cycles the slice took (feeds the latency histograms).
        cycles: u64,
    },
    /// One detector sampling window scored.
    DetectorWindow {
        /// Scored window ordinal.
        window: u64,
        /// Suspicion score.
        score: f64,
        /// Whether the window crossed the detection threshold.
        fired: bool,
    },
    /// Fleet: a shard attempt finished with a result.
    ShardAttempt {
        /// Shard index.
        shard: u32,
        /// Attempt ordinal (1 = first).
        attempt: u32,
    },
    /// Fleet: a crashed shard attempt will be retried, next and on the
    /// same worker.
    ShardRetry {
        /// Shard index.
        shard: u32,
        /// Attempt that crashed.
        attempt: u32,
    },
    /// Fleet: a shard was quarantined.
    ShardQuarantine {
        /// Shard index.
        shard: u32,
    },
    /// Fleet: a manifest checkpoint committed.
    Checkpoint {
        /// Durable records at the checkpoint.
        records: u64,
    },
}

impl Event {
    /// Folds the event (tag + every field) into `h`. This is the
    /// canonical digest encoding: two streams agree iff they recorded
    /// the same events in the same order.
    pub fn fold(&self, h: &mut Fnv64) {
        match *self {
            Event::LevelAccess { core, level, hit } => {
                h.write_u64(1).write_u64(core as u64).write_u64(level as u64);
                h.write_u64(hit as u64);
            }
            Event::Writeback { core, count } => {
                h.write_u64(2).write_u64(core as u64).write_u64(count as u64);
            }
            Event::Op { core, cycles, miss_mask } => {
                h.write_u64(3).write_u64(core as u64).write_u64(cycles as u64);
                h.write_u64(miss_mask as u64);
            }
            Event::BusGrant { core, wait, service } => {
                h.write_u64(4).write_u64(core as u64).write_u64(wait as u64);
                h.write_u64(service as u64);
            }
            Event::MshrCoalesce { core, level } => {
                h.write_u64(5).write_u64(core as u64).write_u64(level as u64);
            }
            // Tag 6 stays unused: it folded the deleted MSHR stall
            // event, and a reused tag could make an old stream's
            // digest match a new one.
            Event::CohUpgrade { core, invalidated } => {
                h.write_u64(7).write_u64(core as u64).write_u64(invalidated as u64);
            }
            Event::CohFlush { core, invalidated } => {
                h.write_u64(8).write_u64(core as u64).write_u64(invalidated as u64);
            }
            Event::CohBackInvalidate { core } => {
                h.write_u64(9).write_u64(core as u64);
            }
            Event::CacheFlush { scope } => {
                h.write_u64(10).write_u64(scope.code());
            }
            Event::ScheduleSlice { runnable, swc, cycles } => {
                h.write_u64(11).write_u64(runnable as u64).write_u64(swc as u64);
                h.write_u64(cycles);
            }
            Event::DetectorWindow { window, score, fired } => {
                h.write_u64(12).write_u64(window).write_f64(score).write_u64(fired as u64);
            }
            Event::ShardAttempt { shard, attempt } => {
                h.write_u64(13).write_u64(shard as u64).write_u64(attempt as u64);
            }
            Event::ShardRetry { shard, attempt } => {
                h.write_u64(14).write_u64(shard as u64).write_u64(attempt as u64);
            }
            Event::ShardQuarantine { shard } => {
                h.write_u64(15).write_u64(shard as u64);
            }
            Event::Checkpoint { records } => {
                h.write_u64(16).write_u64(records);
            }
        }
    }

    /// The latency payload, if the event carries one (what the
    /// histograms aggregate): op cycles and schedule-slice cycles.
    pub fn latency(&self) -> Option<(u8, u64)> {
        match *self {
            Event::Op { core, cycles, .. } => Some((core, cycles as u64)),
            Event::ScheduleSlice { cycles, .. } => Some((0, cycles)),
            _ => None,
        }
    }
}

/// One timestamped event in a recorded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Emitter-local cycle timestamp (start of the span for duration
    /// events).
    pub ts: u64,
    /// What happened.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_distinguishes_variants_and_fields() {
        let digest = |e: Event| {
            let mut h = Fnv64::new();
            e.fold(&mut h);
            h.finish()
        };
        let a = digest(Event::LevelAccess { core: 0, level: 1, hit: true });
        let b = digest(Event::LevelAccess { core: 0, level: 1, hit: false });
        let c = digest(Event::MshrCoalesce { core: 0, level: 1 });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn fold_encoding_is_pinned() {
        // One event of every variant, folded in order: a changed tag or
        // field order, or a reuse of the retired tag 6, moves the
        // digest, and with it every recorded trace digest.
        let events = [
            Event::LevelAccess { core: 1, level: 2, hit: true },
            Event::Writeback { core: 1, count: 3 },
            Event::Op { core: 2, cycles: 91, miss_mask: 3 },
            Event::BusGrant { core: 3, wait: 5, service: 8 },
            Event::MshrCoalesce { core: 0, level: 1 },
            Event::CohUpgrade { core: 1, invalidated: 2 },
            Event::CohFlush { core: 2, invalidated: 1 },
            Event::CohBackInvalidate { core: 3 },
            Event::CacheFlush { scope: FlushScope::Measurement },
            Event::ScheduleSlice { runnable: 4, swc: 2, cycles: 1234 },
            Event::DetectorWindow { window: 9, score: 1.5, fired: true },
            Event::ShardAttempt { shard: 7, attempt: 2 },
            Event::ShardRetry { shard: 7, attempt: 1 },
            Event::ShardQuarantine { shard: 7 },
            Event::Checkpoint { records: 42 },
        ];
        let mut h = Fnv64::new();
        for e in &events {
            e.fold(&mut h);
        }
        assert_eq!(h.finish(), 0xeaf6_7061_6bca_0be8);
    }

    #[test]
    fn latency_payloads_come_from_op_and_slice_events() {
        assert_eq!(Event::Op { core: 2, cycles: 7, miss_mask: 1 }.latency(), Some((2, 7)));
        assert_eq!(
            Event::ScheduleSlice { runnable: 0, swc: 0, cycles: 99 }.latency(),
            Some((0, 99))
        );
        assert_eq!(Event::CohBackInvalidate { core: 1 }.latency(), None);
    }
}
