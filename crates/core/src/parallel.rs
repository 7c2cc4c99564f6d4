//! Deterministic parallel execution of embarrassingly-parallel loops.
//!
//! Attack campaigns and MBPTA measurement protocols repeat independent
//! trials — Prime+Probe rounds, Bernstein sampling nodes, per-key-byte
//! correlation sweeps, per-run execution-time collection. This module
//! fans such loops out over OS threads while keeping results
//! **bit-reproducible regardless of thread count**: work is split by
//! index, each index computes a pure function (callers derive a
//! per-index `SplitMix64` stream instead of sharing one RNG), and
//! results are returned in index order.
//!
//! [`par_map_indexed`] has one scheduler: workers claim fixed-size
//! grains of indices from one shared cursor, in increasing order, and
//! place each result by its index. **Panics do not depend on thread
//! count either:** workers skip only indices above the lowest panic
//! seen so far, so the lowest panicking index is always the one
//! re-raised, with the same message for 1 or 64 threads.
//!
//! The thread count honours `RAYON_NUM_THREADS` (the convention users
//! of rayon-based tools expect), falling back to the machine's
//! available parallelism.

use std::any::Any;
use std::env;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The worker-thread count used by [`par_map_indexed`] and [`join`]:
/// `RAYON_NUM_THREADS` when it parses to a positive count, else
/// [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// Extracts the human-readable message from a caught panic payload
/// (`&str` or `String` payloads; anything else gets a placeholder).
/// Public so campaign executors doing their own `catch_unwind` report
/// panics the same way this module does.
pub fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// `f` must be a pure function of its index (derive any randomness
/// from the index, e.g. `SplitMix64::new(mix64(master ^ i as u64))`);
/// the output is then identical for every thread count, including 1.
///
/// # Panics
///
/// If `f` panics at some index, every lower index still runs and the
/// lowest panicking index is re-raised on the calling thread as
/// `worker panicked at index {i}: {message}`, whatever the thread
/// count. The results of the other indices are discarded.
///
/// # Examples
///
/// ```
/// use tscache_core::parallel::{par_map_indexed, payload_message};
///
/// let squares = par_map_indexed(8, |i| (i * i) as u64);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
///
/// let caught = std::panic::catch_unwind(|| {
///     par_map_indexed(8, |i| if i % 3 == 2 { panic!("boom {i}") } else { i })
/// })
/// .unwrap_err();
/// assert_eq!(payload_message(caught.as_ref()), "worker panicked at index 2: boom 2");
/// ```
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(thread_count(), n, f)
}

/// [`par_map_indexed`] on exactly `threads` workers (at most one per
/// index; one runs inline on the calling thread).
fn fan_out<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let grain = (n / (8 * threads)).clamp(1, 1024);
    // Both atomics publish nothing but their own value (results travel
    // through the scope's joins), and each only moves one way, so
    // `Relaxed` suffices: a stale `lowest_panic` is never below the
    // final one, so no index below the final lowest panic is skipped.
    let cursor = AtomicUsize::new(0);
    let lowest_panic = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut done = Vec::new();
        let mut panicked = None;
        loop {
            let lo = cursor.fetch_add(grain, Ordering::Relaxed);
            if lo >= n.min(lowest_panic.load(Ordering::Relaxed)) {
                return (done, panicked);
            }
            for i in lo..(lo + grain).min(n) {
                if i > lowest_panic.load(Ordering::Relaxed) {
                    break;
                }
                match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => done.push((i, v)),
                    Err(payload) => {
                        lowest_panic.fetch_min(i, Ordering::Relaxed);
                        panicked = Some((i, payload_message(payload.as_ref())));
                        break;
                    }
                }
            }
        }
    };
    let parts: Vec<_> = thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let joined = helpers.into_iter().map(|h| h.join().expect("workers catch panics of `f`"));
        // `work()` runs here, on the calling thread, before any join.
        std::iter::once(work()).chain(joined).collect()
    });

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut lowest: Option<(usize, String)> = None;
    for (done, panicked) in parts {
        for (i, v) in done {
            slots[i] = Some(v);
        }
        lowest = lowest.into_iter().chain(panicked).min();
    }
    if let Some((i, message)) = lowest {
        panic!("worker panicked at index {i}: {message}");
    }
    slots.into_iter().map(|s| s.expect("every index runs when none panics")).collect()
}

/// Runs two independent closures, in parallel when more than one
/// worker thread is configured, and returns both results.
///
/// # Panics
///
/// If either closure panics, both still run to completion, then the
/// panic is re-raised as `worker panicked at index {i}: {message}`
/// with index 0 for `a` and 1 for `b` (`a` wins when both panic).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let run_b = || panic::catch_unwind(AssertUnwindSafe(b));
    let (ra, rb) = if thread_count() <= 1 {
        (panic::catch_unwind(AssertUnwindSafe(a)), run_b())
    } else {
        thread::scope(|scope| {
            let handle = scope.spawn(run_b);
            let ra = panic::catch_unwind(AssertUnwindSafe(a));
            (ra, handle.join().expect("the join worker catches the panic of `b`"))
        })
    };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) => panic!("worker panicked at index 0: {}", payload_message(p.as_ref())),
        (_, Err(p)) => panic!("worker panicked at index 1: {}", payload_message(p.as_ref())),
    }
}

/// A deterministic permutation of `0..n` seeded by `seed`: an order in
/// which a parallel run *could* complete indices. Used by robustness
/// tests (and the fleet's scrambled queue) to prove completion order
/// cannot reach results.
pub fn scrambled_indices(n: usize, seed: u64) -> Vec<usize> {
    use crate::prng::{mix64, Prng, SplitMix64};
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(mix64(seed ^ 0x5c4a_3b1e));
    // Fisher–Yates with the deterministic stream.
    for i in (1..n).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::{mix64, Prng, SplitMix64};

    /// Thread counts every scheduling test runs at: serial, even, odd,
    /// and one worker per index of the 8-index panic scenario.
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// Runs `run`, which must panic, and returns its payload message.
    fn panic_message<R>(run: impl FnOnce() -> R) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(run)).err().expect("the run panicked");
        payload_message(payload.as_ref())
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in THREADS {
            assert_eq!(fan_out(threads, 100, |i| i), (0..100).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
        assert_eq!(fan_out(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn per_index_streams_are_thread_count_independent() {
        // The container may have one core, so this checks the contract
        // (same per-index derivation, same output vector) rather than
        // real concurrency.
        let run =
            |threads| fan_out(threads, 64, |i| SplitMix64::new(mix64(0xabc ^ i as u64)).next_u64());
        let serial = run(1);
        for threads in THREADS {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn uneven_work_completes_and_stays_ordered() {
        // Heterogeneous per-index cost must still give index-ordered
        // results.
        let v = par_map_indexed(257, |i| {
            let spin = if i % 31 == 0 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(0x9e37_79b9).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(v, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_panic_is_reported_at_every_thread_count() {
        // Index 0 spins, so on more than one thread index 5 can panic
        // while index 0 still runs; index 1 must still run and be the
        // one reported.
        for threads in THREADS {
            let msg = panic_message(|| {
                fan_out(threads, 8, |i| {
                    if i == 0 {
                        let mut acc = 0u64;
                        for k in 0..2_000_000u64 {
                            acc = std::hint::black_box(acc.wrapping_add(k));
                        }
                    }
                    if i == 1 || i == 5 {
                        panic!("fault {i}");
                    }
                    i
                })
            });
            assert_eq!(msg, "worker panicked at index 1: fault 1", "{threads} threads");
        }
    }

    #[test]
    fn worker_panic_surfaces_with_its_index() {
        for threads in THREADS {
            let msg = panic_message(|| {
                fan_out(threads, 64, |i| {
                    if i == 13 {
                        panic!("injected fault at {i}");
                    }
                    i
                })
            });
            assert_eq!(msg, "worker panicked at index 13: injected fault at 13", "{threads}");
        }
    }

    #[test]
    fn lowest_panicking_index_wins() {
        // Every index panics; the reported index must be 0.
        for threads in THREADS {
            let msg = panic_message(|| fan_out(threads, 32, |i| -> usize { panic!("fault {i}") }));
            assert_eq!(msg, "worker panicked at index 0: fault 0", "{threads} threads");
        }
    }

    #[test]
    fn panicking_wrapper_raises_clean_message() {
        let msg =
            panic_message(|| par_map_indexed(8, |i| if i == 3 { panic!("shard died") } else { i }));
        assert_eq!(msg, "worker panicked at index 3: shard died");
    }

    #[test]
    fn fan_out_survives_panic_and_reruns_clean() {
        // The poisoning regression: after a panicked fan-out, the next
        // fan-out on the same thread must work normally.
        for threads in THREADS {
            panic_message(|| {
                fan_out(threads, 16, |i| if i == 5 { panic!("first run dies") } else { i })
            });
            let doubled = fan_out(threads, 16, |i| i * 2);
            assert_eq!(doubled, (0..16).map(|i| i * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_reports_panicking_side() {
        let msg = panic_message(|| join(|| 1, || -> u32 { panic!("right side died") }));
        assert_eq!(msg, "worker panicked at index 1: right side died");
        let msg = panic_message(|| join(|| -> u32 { panic!("left") }, || 2));
        assert_eq!(msg, "worker panicked at index 0: left");
        let msg =
            panic_message(|| join(|| -> u32 { panic!("left") }, || -> u32 { panic!("right") }));
        assert_eq!(msg, "worker panicked at index 0: left");
    }

    #[test]
    fn scrambled_indices_is_a_permutation() {
        let order = scrambled_indices(100, 7);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(order, scrambled_indices(100, 7));
        assert_ne!(order, scrambled_indices(100, 8));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
