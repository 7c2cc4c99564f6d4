//! Each workload's own memory-op stream, replayed by the traced pass
//! into the lower layers (machine, hierarchy, cache, placement,
//! replacement) in the regime the workload's campaigns run it.

use crate::workloads::Workload;
use std::collections::BTreeSet;
use tscache_aes::{AesLayout, SimAes128};
use tscache_core::addr::{Addr, LineAddr};
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::AccessKind;
use tscache_core::prng::{Prng, SplitMix64};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_sim::layout::Layout;
use tscache_sim::machine::{Machine, TraceOp};
use tscache_sim::synthetic::ArraySweep;
use tscache_sim::workload::Workload as _;

/// The FIPS-197 example key, the victim key of every fleet campaign.
pub const VICTIM_KEY: [u8; 16] = [
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
];

/// Base of the coherent segment the shared stream reads, writes and
/// flushes (above every object the pWCET and AES layouts allocate).
pub const COHERENT_BASE: u64 = 0x60_0000;
/// Lines in the coherent segment.
pub const COHERENT_LINES: u64 = 16;

/// One workload's op stream: `ops` is one seed epoch's traffic, and
/// with `reseed_each` every replay starts a fresh epoch (flush plus a
/// new placement seed), as the MBPTA protocol does per run and the
/// RTOS per hyperperiod; without it the whole stream shares one seed,
/// as a Bernstein shard does inside its 32,768-job epoch.
pub struct Stream {
    /// One epoch's ops, in program order.
    pub ops: Vec<TraceOp>,
    /// Whether each replay is its own seed epoch.
    pub reseed_each: bool,
    /// The setup whose policies the cache-level replays use.
    pub setup: SetupKind,
}

impl Stream {
    /// Builds `workload`'s stream; `seed` picks the plaintexts.
    pub fn build(workload: Workload, seed: u64) -> Stream {
        match workload {
            Workload::PwcetPrivate => {
                Stream { ops: pwcet_job(), reseed_each: true, setup: SetupKind::Mbpta }
            }
            Workload::BernsteinAes => {
                let encryptions = workload.spec(seed).samples_per_shard;
                Stream {
                    ops: aes_traces(encryptions, seed),
                    reseed_each: false,
                    setup: SetupKind::TsCache,
                }
            }
            Workload::SeedSweepShared => {
                let mut ops = pwcet_job();
                ops.extend(aes_traces(16, seed));
                Stream {
                    ops: with_coherent_traffic(ops),
                    reseed_each: true,
                    setup: SetupKind::TsCache,
                }
            }
        }
    }

    /// The L1 line stream of the data port (reads and writes).
    pub fn l1d_lines(&self) -> Vec<LineAddr> {
        let geom = CacheGeometry::paper_l1();
        self.ops
            .iter()
            .filter(|op| matches!(op.kind, AccessKind::Read | AccessKind::Write))
            .map(|op| geom.line_of(op.addr))
            .collect()
    }

    /// Distinct lines the stream touches through either L1 port.
    pub fn distinct_lines(&self) -> Vec<LineAddr> {
        let geom = CacheGeometry::paper_l1();
        let lines: BTreeSet<u64> = self
            .ops
            .iter()
            .filter(|op| op.kind != AccessKind::Flush)
            .map(|op| geom.line_of(op.addr).as_u64())
            .collect();
        lines.into_iter().map(LineAddr::new).collect()
    }

    /// Distinct `(line, seed)` pairs per L1 access over one shard's
    /// stream — the bound on placement-memo misses. A reseeding stream
    /// pairs every epoch's lines with a new seed; otherwise one seed
    /// covers the whole stream.
    pub fn evals_per_access(&self) -> f64 {
        let accesses = self.ops.iter().filter(|op| op.kind != AccessKind::Flush).count();
        // Per epoch the pairs are the epoch's distinct lines, and every
        // epoch replays the same ops, so the ratio is per epoch.
        self.distinct_lines().len() as f64 / accesses.max(1) as f64
    }
}

/// One pWCET measurement run: the `ArraySweep::standard` job every
/// pWCET shard times, captured op by op from the machine.
fn pwcet_job() -> Vec<TraceOp> {
    let mut machine = Machine::from_setup_depth(SetupKind::Mbpta, HierarchyDepth::TwoLevel, 1);
    machine.enable_trace();
    ArraySweep::standard(&mut Layout::new(0x10_0000)).run(&mut machine);
    machine.take_trace().into_iter().map(|e| TraceOp { kind: e.kind, addr: e.addr }).collect()
}

/// `n` AES encryptions of seed-derived plaintexts, laid out as the
/// Bernstein sampling node lays out its cipher.
fn aes_traces(n: u32, seed: u64) -> Vec<TraceOp> {
    let mut layout = Layout::new(0x10_0000);
    let aes = SimAes128::new(&VICTIM_KEY, AesLayout::install(&mut layout, "aes"));
    let machine = Machine::from_setup(SetupKind::TsCache, 1);
    let mut rng = SplitMix64::new(seed ^ 0x0061_6573);
    let mut ops = Vec::new();
    for _ in 0..n {
        aes.build_trace(&machine, &mut ops, &plaintext(&mut rng));
    }
    ops
}

/// A random plaintext block.
pub fn plaintext(rng: &mut SplitMix64) -> [u8; 16] {
    let mut pt = [0u8; 16];
    pt[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
    pt[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
    pt
}

/// Folds coherent-segment traffic into `ops`: every 13th op reads the
/// segment, every 13th (offset 6) writes it, and one in 39 flushes a
/// line — the Flush+Reload and write-back shape of the shared sweep.
fn with_coherent_traffic(ops: Vec<TraceOp>) -> Vec<TraceOp> {
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| {
            let line = Addr::new(COHERENT_BASE + (i as u64 * 7 % COHERENT_LINES) * 32);
            match i % 13 {
                0 => TraceOp::read(line),
                6 => TraceOp::write(line),
                11 if i % 39 == 11 => TraceOp::flush(line),
                _ => op,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pwcet_stream_reevaluates_placement_far_more_than_bernstein() {
        let pwcet = Stream::build(Workload::PwcetPrivate, 1);
        let bern = Stream::build(Workload::BernsteinAes, 1);
        assert!(pwcet.evals_per_access() >= 10.0 * bern.evals_per_access());
        assert!(!pwcet.l1d_lines().is_empty());
    }

    #[test]
    fn shared_stream_mixes_reads_writes_and_flushes() {
        let s = Stream::build(Workload::SeedSweepShared, 1);
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Flush, AccessKind::Fetch] {
            assert!(s.ops.iter().any(|op| op.kind == kind), "{kind:?} missing");
        }
    }
}
