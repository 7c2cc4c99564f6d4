//! Perf-trajectory reporter: measures the headline simulator
//! throughput metrics and writes `BENCH_PR<n>.json` so every PR
//! records where the hot path stands.
//!
//! Metrics:
//!
//! * cache accesses/sec — the scalar `Cache::access` path (`enum`) vs
//!   `Cache::access_batch` (`batch`, a loop over the scalar access),
//!   measured **in the same run** on the same recorded trace, once on a
//!   trace that fits the placement memo and once on one that overflows
//!   it (`cache/<placement>/overflow/*`);
//! * placements/sec per placement policy through the placement engine,
//!   without `Cache`'s memo (`placement/*/enum`, `placement-l2/*/enum`),
//!   and Random Modulo with every call on a page its page memo has not
//!   seen (`placement/random-modulo/page-cold`);
//! * hierarchy accesses/sec — the per-op `Hierarchy::access` walk on
//!   an L2-heavy trace, on two- and three-level setups;
//! * MBPTA run boundaries/sec: reseed plus flush after one array-sweep
//!   run, on the deterministic and TSCache setups at both depths
//!   (`flush/<setup>-<depth>`, timing only the boundary);
//! * simulated-AES encryptions/sec per cache setup, at both hierarchy
//!   depths;
//! * Bernstein sampling throughput (samples/sec, the quantity that
//!   bounds attack-campaign scale), solo and with an active co-runner;
//! * contended-vs-solo `Machine::run_trace` throughput on the private
//!   two-level TSCache machine (`machine/tscache-l2-round-robin/*`; the
//!   name predates the bus's one policy), what the interference layer
//!   costs the hot path;
//! * the same on the shared-LLC platform, plus builds/sec of its
//!   contended machine (`machine/*-shared/build-contended`);
//! * Prime+Probe trials/sec through the parallel harness.
//!
//! Usage: `bench_report [--pr 3] [--out BENCH_PR3.json] [--ms 300]
//!                      [--compare BENCH_PR7.json]`
//!
//! `--compare` prints a ratio table of the current run against a
//! previously committed report and flags metrics that regressed by
//! more than 10% (informational — the exit code stays 0, since
//! wall-clock noise on shared runners is not a gate).

use std::hint::black_box;
use tscache_bench::harness::{bench, parse_report_metrics, render_table, to_json, Measurement};
use tscache_bench::suites::{
    cache_dispatch_suite, coherence_suite, contended_machine_suite, defense_suite, detector_suite,
    fleet_suite, flush_suite, hierarchy_suite, placement_suite, shared_llc_machine_suite,
    telemetry_suite,
};
use tscache_bench::Args;
use tscache_core::defense::DefenseKind;
use tscache_core::parallel;
use tscache_core::placement::PlacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::ContentionConfig;
use tscache_sca::prime_probe::run_prime_probe;
use tscache_sca::sampling::{CryptoNode, Role, SamplingConfig};

fn main() {
    let args = Args::from_env();
    let pr: u64 = args.get_int("pr", 3);
    let ms: u64 = args.get_int("ms", 300);
    let out_path = args.get_str("out", &format!("BENCH_PR{pr}.json"));

    let mut results: Vec<Measurement> = Vec::new();
    let pid = ProcessId::new(1);

    for placement in [PlacementKind::Modulo, PlacementKind::RandomModulo] {
        results.extend(cache_dispatch_suite(placement, ms));
    }

    // The placement functions alone, unmemoized, per policy.
    results.extend(placement_suite(ms));

    // The hierarchy walk on L2-heavy traffic, two- and three-level, on
    // the deterministic and TSCache setups.
    for setup in [SetupKind::Deterministic, SetupKind::TsCache] {
        for depth in HierarchyDepth::ALL {
            results.push(hierarchy_suite(setup, depth, ms));
        }
    }

    // The MBPTA run boundary (reseed + flush after one array-sweep
    // run) on the same setups and depths.
    for setup in [SetupKind::Deterministic, SetupKind::TsCache] {
        for depth in HierarchyDepth::ALL {
            results.push(flush_suite(setup, depth, ms));
        }
    }

    // Simulated AES throughput per setup, at both depths (the `aes/*`
    // names match PR1's two-level numbers for trajectory comparison).
    for depth in HierarchyDepth::ALL {
        for setup in SetupKind::ALL {
            let mut layout = tscache_sim::layout::Layout::new(0x40_0000);
            let aes_layout = tscache_aes::sim_cipher::AesLayout::install(&mut layout, "bench");
            let sim = tscache_aes::sim_cipher::SimAes128::new(&[7u8; 16], aes_layout);
            let mut machine = tscache_sim::machine::Machine::from_setup_depth(setup, depth, 11);
            machine.set_process(pid);
            machine.set_process_seed(pid, Seed::new(99));
            let mut ops = Vec::with_capacity(256);
            let mut pt = [0u8; 16];
            let name = match depth {
                HierarchyDepth::TwoLevel => format!("aes/{}", setup.label()),
                HierarchyDepth::ThreeLevel => format!("aes-l3/{}", setup.label()),
            };
            results.push(bench(name, "encryptions", ms, || {
                for _ in 0..256u32 {
                    pt[0] = pt[0].wrapping_add(1);
                    black_box(sim.encrypt_with(&mut machine, &mut ops, black_box(&pt)));
                }
                256
            }));
        }
    }

    // The contended machine path: solo vs co-runner run_trace
    // throughput on the L2-heavy trace.
    results.extend(contended_machine_suite(SetupKind::TsCache, HierarchyDepth::TwoLevel, ms));

    // The shared-LLC platform on the same trace: solo and contended,
    // at both depths (what the shared-level merge loop costs relative
    // to the private batch path above).
    for depth in HierarchyDepth::ALL {
        results.extend(shared_llc_machine_suite(SetupKind::TsCache, depth, ms));
    }

    // The coherence axis: the same shared platform with a coherent
    // segment in the trace (per-op merge walk + MSI actions), plus the
    // Flush+Reload campaign throughput.
    results.extend(coherence_suite(SetupKind::TsCache, ms));

    // Bernstein sampling throughput: one fresh node per timing call so
    // the epoch warm-up cost is included, as in a real campaign.
    let mut round = 0u64;
    results.push(bench("bernstein/sampling", "samples", ms.max(500), || {
        round += 1;
        let cfg = SamplingConfig::standard(SetupKind::TsCache, 2000, 0xbeef ^ round);
        let samples = CryptoNode::try_new(cfg, Role::Victim, &[7u8; 16])
            .expect("valid sampling config")
            .collect();
        samples.len() as u64
    }));

    // The same campaign with an active co-runner on the shared bus.
    let mut contended_round = 0u64;
    results.push(bench("bernstein/sampling-contended", "samples", ms.max(500), || {
        contended_round += 1;
        let mut cfg = SamplingConfig::standard(SetupKind::TsCache, 2000, 0xbeef ^ contended_round);
        cfg.contention = Some(ContentionConfig::default());
        let samples = CryptoNode::try_new(cfg, Role::Victim, &[7u8; 16])
            .expect("valid sampling config")
            .collect();
        samples.len() as u64
    }));

    let mut seed_salt = 0u64;
    results.push(bench("prime-probe/trials", "trials", ms.max(500), || {
        seed_salt += 1;
        black_box(
            run_prime_probe(SetupKind::TsCache, DefenseKind::Off, 512, seed_salt)
                .expect("trials > 0"),
        );
        512
    }));

    // The fleet executor: raw shard throughput vs the fully
    // checkpointed campaign on the same spec (what crash-safety costs;
    // the bar is ≤10% overhead).
    results.extend(fleet_suite(ms.max(500)));

    // Online detection: the monitored-vs-unmonitored RTOS schedule
    // (the ≤5% sampling-cost bar) and the sampled-vs-unsampled
    // Prime+Probe detection campaign.
    results.extend(detector_suite(ms.max(500)));

    // The defense zoo: each defense policy armed on the shared-LLC
    // machine vs the same machine undefended (the ≥0.9× bar).
    results.extend(defense_suite(ms.max(500)));

    // The telemetry layer: recorder-off machine vs the raw walk floor
    // (the ≥0.97× zero-cost-when-off bar) and recorder-on vs off.
    results.extend(telemetry_suite(ms));

    let rate = |name: &str| {
        results.iter().find(|m| m.name == name).map(|m| m.per_sec()).unwrap_or(f64::NAN)
    };
    let contention_rr = rate("machine/tscache-l2-round-robin/contended")
        / rate("machine/tscache-l2-round-robin/solo");
    let bernstein_contended_ratio =
        rate("bernstein/sampling-contended") / rate("bernstein/sampling");
    let shared_vs_private_solo =
        rate("machine/tscache-l2-shared/solo") / rate("machine/tscache-l2-round-robin/solo");
    let shared_contended_ratio =
        rate("machine/tscache-l2-shared/contended") / rate("machine/tscache-l2-shared/solo");
    let coherent_vs_shared_solo =
        rate("machine/tscache-l2-shared-coherent/solo") / rate("machine/tscache-l2-shared/solo");
    let build_us =
        |depth: &str| 1e6 / rate(&format!("machine/tscache-{depth}-shared/build-contended"));
    let fleet_checkpoint_ratio = rate("fleet/shards/checkpointed") / rate("fleet/shards/raw");
    let rtos_detector_ratio = rate("rtos/detector/on") / rate("rtos/detector/off");
    let detect_sampled_ratio =
        rate("detect/prime-probe/sampled") / rate("detect/prime-probe/unsampled");
    let telemetry_off_ratio = rate("telemetry/machine/off") / rate("telemetry/hier/batch");
    let telemetry_on_ratio = rate("telemetry/machine/on") / rate("telemetry/machine/off");
    let defense_ttl_ratio = rate("defense/ttl") / rate("defense/off");
    let defense_normalize_ratio = rate("defense/normalize") / rate("defense/off");
    let defense_random_safe_ratio = rate("defense/random-safe") / rate("defense/off");
    let defense_rotate_partition_ratio = rate("defense/rotate-partition") / rate("defense/off");
    let defense_rotate_core_ratio = rate("defense/rotate-core") / rate("defense/off");

    let extra = [
        ("pr", pr as f64),
        ("threads", parallel::thread_count() as f64),
        ("throughput_ratio_contended_round_robin", contention_rr),
        ("throughput_ratio_bernstein_contended", bernstein_contended_ratio),
        ("throughput_ratio_shared_vs_private_llc_solo", shared_vs_private_solo),
        ("throughput_ratio_shared_llc_contended", shared_contended_ratio),
        ("throughput_ratio_coherent_vs_shared_solo", coherent_vs_shared_solo),
        ("throughput_ratio_fleet_checkpointed_vs_raw", fleet_checkpoint_ratio),
        ("throughput_ratio_rtos_detector_on_vs_off", rtos_detector_ratio),
        ("throughput_ratio_detector_sampled_vs_unsampled", detect_sampled_ratio),
        ("throughput_ratio_telemetry_off_vs_batch", telemetry_off_ratio),
        ("throughput_ratio_telemetry_on_vs_off", telemetry_on_ratio),
        ("throughput_ratio_defense_ttl_vs_off", defense_ttl_ratio),
        ("throughput_ratio_defense_normalize_vs_off", defense_normalize_ratio),
        ("throughput_ratio_defense_random_safe_vs_off", defense_random_safe_ratio),
        ("throughput_ratio_defense_rotate_partition_vs_off", defense_rotate_partition_ratio),
        ("throughput_ratio_defense_rotate_core_vs_off", defense_rotate_core_ratio),
    ];

    print!("{}", render_table(&results));
    println!();
    println!("contended vs solo throughput (same run):");
    println!("  machine run_trace: {contention_rr:.2}x");
    println!("  bernstein sampling: {bernstein_contended_ratio:.2}x");
    println!("shared-LLC platform (same run):");
    println!("  solo vs private-LLC solo: {shared_vs_private_solo:.2}x");
    println!("  contended vs solo: {shared_contended_ratio:.2}x");
    println!("  coherent-trace vs coherence-free solo: {coherent_vs_shared_solo:.2}x");
    println!("  contended machine build: l2 {:.1} µs, l3 {:.1} µs", build_us("l2"), build_us("l3"));
    println!("fleet executor (same run):");
    println!("  checkpointed campaign vs raw shards: {fleet_checkpoint_ratio:.2}x");
    println!("online detection (same run):");
    println!("  monitored vs unmonitored RTOS schedule: {rtos_detector_ratio:.2}x");
    println!("  sampled vs unsampled detection campaign (rounds/sec): {detect_sampled_ratio:.2}x");
    println!("telemetry layer (same run):");
    println!("  recorder-off machine vs batch floor: {telemetry_off_ratio:.2}x");
    println!("  recorder-on vs recorder-off: {telemetry_on_ratio:.2}x");
    println!("defense zoo, each vs undefended shared machine (same run, bar ≥0.90x):");
    println!(
        "  ttl {defense_ttl_ratio:.2}x, normalize {defense_normalize_ratio:.2}x, \
         random-safe {defense_random_safe_ratio:.2}x, \
         rotate-partition {defense_rotate_partition_ratio:.2}x, \
         rotate-core {defense_rotate_core_ratio:.2}x"
    );

    let compare = args.get_str("compare", "");
    if !compare.is_empty() {
        let text = match std::fs::read_to_string(&compare) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench_report: cannot read {compare}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = parse_report_metrics(&text);
        if baseline.is_empty() {
            eprintln!("bench_report: {compare} holds no parseable metrics");
            std::process::exit(1);
        }
        println!("\ncomparison vs {compare}:");
        println!("  {:<50} {:>13} {:>13} {:>8}", "name", "baseline/s", "current/s", "ratio");
        let mut regressions = 0u32;
        let mut compared = 0u32;
        for (name, base) in &baseline {
            let Some(current) = results.iter().find(|m| m.name == *name) else { continue };
            compared += 1;
            let ratio = if *base > 0.0 { current.per_sec() / base } else { f64::NAN };
            let flag = if ratio < 0.9 {
                regressions += 1;
                "  << REGRESSION >10%"
            } else {
                ""
            };
            println!(
                "  {:<50} {:>13.0} {:>13.0} {:>7.2}x{flag}",
                name,
                base,
                current.per_sec(),
                ratio
            );
        }
        let new_metrics = results.len() as u32 - compared.min(results.len() as u32);
        println!(
            "compared {compared} metrics ({new_metrics} new in this run), \
             {regressions} regressed >10%"
        );
    }

    let json = to_json(&format!("PR{pr}"), &results, &extra);
    std::fs::write(&out_path, json).expect("write bench report");
    println!("\nwrote {out_path}");
}
