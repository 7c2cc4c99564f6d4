//! End-to-end hierarchy access throughput for each of the paper's four
//! setups (simulator speed is what bounds attack sample counts), plus
//! one raw cache level: the scalar `Cache::access` path vs
//! `Cache::access_batch` (a loop over the scalar access).

use std::hint::black_box;
use tscache_bench::harness::{bench, render_table};
use tscache_bench::suites::cache_dispatch_suite;
use tscache_core::addr::Addr;
use tscache_core::hierarchy::AccessKind;
use tscache_core::placement::PlacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::SetupKind;

fn main() {
    let mut results = Vec::new();
    let pid = ProcessId::new(1);

    for setup in SetupKind::ALL {
        let mut h = setup.build(7);
        h.set_process_seed(pid, Seed::new(42));
        let mut i = 0u64;
        results.push(bench(format!("hierarchy/{}", setup.label()), "accesses", 200, || {
            for _ in 0..4096u64 {
                i = i.wrapping_add(1);
                let addr = Addr::new(0x10_0000 + (i * 32) % (24 * 1024));
                black_box(h.access(pid, AccessKind::Read, black_box(addr)));
            }
            4096
        }));
    }

    for placement in [PlacementKind::Modulo, PlacementKind::RandomModulo] {
        results.extend(cache_dispatch_suite(placement, 200));
    }

    let mut h = SetupKind::TsCache.build(9);
    results.push(bench("hierarchy/flush_all", "flushes", 100, || {
        for _ in 0..64 {
            h.flush_all();
        }
        64
    }));

    print!("{}", render_table(&results));
}
