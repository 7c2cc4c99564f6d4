//! The ring-buffered trace recorder.
//!
//! Hot-path contract: [`TraceRecorder::record`] performs no heap
//! allocation (the ring is pre-allocated at construction) and every
//! event is folded into the running digest *at record time*, so the
//! digest covers the **entire** stream regardless of ring capacity —
//! eviction only limits what the exporters can still see, never what
//! the digest attests. Emitters hold an `Option<RecorderHandle>`; the
//! absent case is one predicted branch.

use crate::digest::Fnv64;
use crate::event::{Event, TraceRecord};
use crate::histogram::LatencyHistogram;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle emitters clone into their instrumentation points.
/// `Rc<RefCell<..>>` keeps attachment single-threaded by construction:
/// each fleet shard (and each bench iteration) builds its own recorder
/// on its own thread, which is exactly the determinism contract — a
/// recorder never outlives or crosses its shard.
pub type RecorderHandle = Rc<RefCell<TraceRecorder>>;

/// Creates a ready-to-attach recorder handle with the given ring
/// capacity (clamped to ≥ 1).
pub fn handle(capacity: usize) -> RecorderHandle {
    Rc::new(RefCell::new(TraceRecorder::new(capacity)))
}

/// Maximum per-core histograms a recorder keeps (cores beyond this
/// fold into the last slot; the platform models ≤ 8 cores).
const MAX_CORES: usize = 8;

/// Ring-buffered event recorder with a running digest and per-core
/// latency histograms.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    cap: usize,
    buf: Vec<TraceRecord>,
    /// Next write slot once the ring is full.
    head: usize,
    recorded: u64,
    dropped: u64,
    digest: Fnv64,
    hists: Vec<LatencyHistogram>,
}

impl TraceRecorder {
    /// A recorder retaining at most `capacity` events (clamped ≥ 1),
    /// pre-allocated so recording never allocates.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceRecorder {
            cap,
            buf: Vec::with_capacity(cap),
            head: 0,
            recorded: 0,
            dropped: 0,
            digest: Fnv64::new(),
            hists: Vec::new(),
        }
    }

    /// Records one event at cycle timestamp `ts`.
    #[inline]
    pub fn record(&mut self, ts: u64, event: Event) {
        self.digest.write_u64(ts);
        event.fold(&mut self.digest);
        if let Some((core, cycles)) = event.latency() {
            let slot = (core as usize).min(MAX_CORES - 1);
            if self.hists.len() <= slot {
                self.hists.resize(slot + 1, LatencyHistogram::new());
            }
            self.hists[slot].record(cycles);
        }
        self.recorded += 1;
        let rec = TraceRecord { ts, event };
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Records the walk view of one op of `core` at `ts`: a
    /// [`Event::LevelAccess`] per consulted level of a `depth`-level
    /// walk (level `l` is consulted iff every lower level missed, as
    /// `miss_mask` says; the walk stops at the first hit), then an
    /// [`Event::Writeback`] when the op sent `writebacks` > 0 lines to
    /// memory.
    pub fn record_walk(&mut self, ts: u64, core: u8, depth: usize, miss_mask: u8, writebacks: u8) {
        for level in 0..depth {
            let miss = miss_mask >> level & 1 == 1;
            self.record(ts, Event::LevelAccess { core, level: level as u8, hit: !miss });
            if !miss {
                break;
            }
        }
        if writebacks > 0 {
            self.record(ts, Event::Writeback { core, count: writebacks });
        }
    }

    /// Digest of the full recorded stream (timestamps + events, in
    /// order) — independent of ring capacity.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Total events recorded (including any evicted from the ring).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring (stream length minus retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained tail of the stream, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Per-core latency histograms (op / schedule-slice cycles), in
    /// core order. Fed at record time, so eviction never loses
    /// samples.
    pub fn histograms(&self) -> &[LatencyHistogram] {
        &self.hists
    }

    /// All cores' latency samples merged into one histogram.
    pub fn merged_histogram(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for h in &self.hists {
            merged.merge(h);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(core: u8, cycles: u32) -> Event {
        Event::Op { core, cycles, miss_mask: 0 }
    }

    #[test]
    fn ring_retains_the_tail_in_order() {
        let mut r = TraceRecorder::new(3);
        for i in 0..5u32 {
            r.record(i as u64, op(0, i));
        }
        let recs: Vec<u64> = r.records().iter().map(|t| t.ts).collect();
        assert_eq!(recs, vec![2, 3, 4]);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn digest_is_capacity_invariant() {
        let mut small = TraceRecorder::new(2);
        let mut big = TraceRecorder::new(1024);
        for i in 0..100u32 {
            small.record(i as u64, op(1, i * 3));
            big.record(i as u64, op(1, i * 3));
        }
        assert_eq!(small.digest(), big.digest());
        assert_ne!(small.records().len(), big.records().len());
    }

    #[test]
    fn digest_covers_timestamps_and_order() {
        let mut a = TraceRecorder::new(8);
        let mut b = TraceRecorder::new(8);
        a.record(1, op(0, 5));
        a.record(2, op(0, 6));
        b.record(1, op(0, 6));
        b.record(2, op(0, 5));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn histograms_survive_ring_eviction() {
        let mut r = TraceRecorder::new(1);
        for i in 0..50u32 {
            r.record(i as u64, op(2, 100));
        }
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.merged_histogram().total(), 50);
        assert_eq!(r.histograms().len(), 3, "cores 0..=2 allocated");
        assert_eq!(r.histograms()[2].total(), 50);
    }

    #[test]
    fn handle_is_shareable_and_clamps_capacity() {
        let h = handle(0);
        h.borrow_mut().record(0, op(0, 1));
        let h2 = h.clone();
        h2.borrow_mut().record(1, op(0, 2));
        assert_eq!(h.borrow().recorded(), 2);
        assert_eq!(h.borrow().records().len(), 1, "capacity clamped to 1");
    }
}
