//! The standard enemy trace behind `Machine::attach_standard_enemies`
//! comes from one process-wide, read-only memo. These tests pin what
//! every attached co-runner replays against a test-local rebuild of
//! the trace, check that later machines share the first one's
//! allocation, and build contended machines from several threads at
//! once, since the memo is state that simulation threads share.

use std::sync::Barrier;
use tscache_core::addr::Addr;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::{ContentionConfig, SystemConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::{Machine, TraceOp};
use tscache_sim::synthetic::FirFilter;

/// The enemy trace rebuilt from its definition: the standard FIR
/// kernel's ops with a read of the 512 KiB stream after every eighth
/// op, every address shifted by `offset`.
fn reference_trace(machine: &Machine, offset: u64) -> Vec<TraceOp> {
    let mut layout = Layout::new(0x10_0000);
    let fir = FirFilter::standard(&mut layout).trace_ops(machine);
    let mut ops = Vec::new();
    let mut s = 0u64;
    for (i, op) in fir.iter().enumerate() {
        ops.push(*op);
        if i % 8 == 7 {
            ops.push(TraceOp::read(Addr::new(0x80_0000 + (s % 16384) * 32)));
            s += 1;
        }
    }
    ops.iter()
        .map(|op| TraceOp { kind: op.kind, addr: Addr::new(op.addr.as_u64() + offset) })
        .collect()
}

fn contended(shared: bool, depth: HierarchyDepth, co_runners: u32) -> Machine {
    let setup = SetupKind::TsCache;
    let mut m = if shared {
        Machine::from_setup_shared(setup, depth, SystemConfig::default(), 21)
    } else {
        Machine::from_setup_depth(setup, depth, 21)
    };
    let con = ContentionConfig { co_runners, ..ContentionConfig::default() };
    m.attach_standard_enemies(setup, depth, &con, 77);
    m
}

#[test]
fn attached_enemies_replay_the_reference_trace_from_one_allocation() {
    for depth in HierarchyDepth::ALL {
        for shared in [false, true] {
            for co_runners in [1, 3] {
                let first = contended(shared, depth, co_runners);
                let second = contended(shared, depth, co_runners);
                assert_eq!(first.co_runners().len(), co_runners as usize);
                for (k, (a, b)) in first.co_runners().iter().zip(second.co_runners()).enumerate() {
                    let offset = if shared { (1 + k as u64) << 24 } else { 0 };
                    let at = format!("{depth:?} shared={shared} co_runners={co_runners} k={k}");
                    assert!(
                        a.trace() == reference_trace(&first, offset).as_slice(),
                        "enemy trace differs from its definition at {at}"
                    );
                    assert_eq!(
                        a.trace().as_ptr(),
                        b.trace().as_ptr(),
                        "a later machine rebuilt the enemy trace at {at}"
                    );
                }
            }
        }
    }
}

/// Cycles of one contended `run_trace` on a freshly built shared
/// machine with two enemy cores.
fn contended_cycles(depth: HierarchyDepth, ops: &[TraceOp]) -> u64 {
    let pid = ProcessId::new(1);
    let mut m = contended(true, depth, 2);
    m.set_process(pid);
    m.set_process_seed(pid, Seed::new(42));
    m.run_trace(ops)
}

#[test]
fn concurrent_contended_builds_match_a_single_thread_build() {
    let ops = TraceOp::mixed_trace(0x5eed, 2048, 1 << 16);
    let depth = |t: usize| HierarchyDepth::ALL[t % HierarchyDepth::ALL.len()];
    let start = Barrier::new(4);
    let threaded: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let (start, ops) = (&start, &ops);
                s.spawn(move || {
                    start.wait();
                    contended_cycles(depth(t), ops)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("builder thread panicked")).collect()
    });
    for (t, cycles) in threaded.into_iter().enumerate() {
        assert_eq!(cycles, contended_cycles(depth(t), &ops), "thread {t} diverged");
    }
}
