//! Placement-policy throughput: cost of the set-index function per
//! design (the §6.2.3 "no operating-frequency degradation" claim
//! translates to placement being cheap combinational logic; here we
//! check the software models are cheap too), through the placement
//! engine. The suite is shared with `bench_report`.

use tscache_bench::harness::render_table;
use tscache_bench::suites::placement_suite;

fn main() {
    print!("{}", render_table(&placement_suite(100)));
}
