//! Miss-status holding registers: the per-level structure that
//! coalesces overlapping misses to the same line.
//!
//! The simulator executes ops sequentially, so "outstanding" is
//! modelled on an *op window*: the fill a miss starts at op `i` stays
//! in flight until op `i + 8` of the same core. A second miss to the
//! same line inside that window **coalesces**: it rides the pending
//! fill, and at the last level its bus transaction is suppressed (no
//! second off-chip fetch). A coalesced miss starts no fill of its own,
//! so it does not extend the window.
//!
//! An op misses at most one line per level, so one file never holds
//! more than eight fills in flight: it is a ring of the fills started
//! by a core's last eight ops at one level, and a miss never waits for
//! a free entry. Coalescing is pure timing/traffic: cache contents,
//! hit/miss outcomes and RNG draws are untouched, which is what lets
//! the contended batch path stay bit-identical to the scalar
//! interleaving.

/// Ops a fill stays in flight after the miss that started it.
const WINDOW_OPS: u64 = 8;

/// One level's MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// `(line, expire_seq)` of the fill started by op `seq`, at slot
    /// `seq % WINDOW_OPS`; `expire_seq <= seq` = no fill in flight.
    slots: [(u64, u64); WINDOW_OPS as usize],
}

impl Default for MshrFile {
    fn default() -> Self {
        MshrFile { slots: [(u64::MAX, 0); WINDOW_OPS as usize] }
    }
}

impl MshrFile {
    /// Presents the miss of op `seq` (the core's op index) to `line`:
    /// true if the line has a fill in flight and the miss rides it,
    /// false if the miss starts a fill of its own. `seq` must grow
    /// from one call to the next, as op indices do: a miss at a
    /// repeated `seq` takes the slot of the fill the earlier one
    /// started, which then no longer counts as in flight.
    pub fn coalesces(&mut self, line: u64, seq: u64) -> bool {
        if self.slots.iter().any(|&(l, e)| e > seq && l == line) {
            return true;
        }
        self.slots[(seq % WINDOW_OPS) as usize] = (line, seq + WINDOW_OPS);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_line_in_window_coalesces() {
        let mut f = MshrFile::default();
        assert!(!f.coalesces(7, 0));
        assert!(f.coalesces(7, 3));
        assert!(f.coalesces(7, 7), "7 ops later: still in flight");
        assert!(!f.coalesces(7, 8), "8 ops later: the fill landed");
        // Other lines never coalesce with it.
        assert!(!f.coalesces(8, 9));
    }

    #[test]
    fn entries_expire_with_the_op_window() {
        // A coalesced miss starts no fill, so it does not keep the
        // line in flight past op 0's window.
        let mut f = MshrFile::default();
        assert!(!f.coalesces(1, 0));
        assert!(f.coalesces(1, 5));
        assert!(!f.coalesces(1, 10), "op 0's fill landed at op 8");
    }

    #[test]
    fn a_new_line_every_op_keeps_eight_fills_in_flight() {
        // Eight fills in flight at once, and the ninth miss takes the
        // slot of the fill that just landed.
        let mut f = MshrFile::default();
        for seq in 0..8 {
            assert!(!f.coalesces(100 + seq, seq));
        }
        assert!(!f.coalesces(200, 8));
        assert!(f.coalesces(107, 9), "op 7's fill is in flight");
        assert!(!f.coalesces(100, 10), "op 0's fill landed");
        assert!(f.coalesces(200, 11), "op 8's fill is in flight");
    }

    proptest! {
        /// The file against a naive model: the list of every fill
        /// started so far, as `(line, op)`. A miss at op `seq`
        /// coalesces iff the list holds its line from an op fewer than
        /// eight ops back; otherwise it joins the list.
        #[test]
        fn file_matches_a_list_of_the_fills_of_the_last_eight_ops(
            misses in prop::collection::vec((1u64..12, 0u64..6), 1..300),
        ) {
            let mut file = MshrFile::default();
            let mut fills: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            for (i, &(gap, line)) in misses.iter().enumerate() {
                seq += gap;
                let in_flight = fills.iter().any(|&(l, op)| l == line && seq - op < 8);
                if !in_flight {
                    fills.push((line, seq));
                }
                prop_assert_eq!(file.coalesces(line, seq), in_flight, "miss {} at op {}", i, seq);
            }
        }
    }
}
