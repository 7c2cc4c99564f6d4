//! Shared benchmark suites used by both `cargo bench` targets and the
//! `bench_report` perf-trajectory binary, so the committed
//! `BENCH_PR<n>.json` numbers and local bench runs always measure the
//! same workload.

use crate::harness::{bench, Measurement};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tscache_core::addr::{Addr, LineAddr};
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::TraceOp;
use tscache_core::placement::{PlacementEngine, PlacementKind};
use tscache_core::prng::mix64;
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::{ContentionConfig, SystemConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;
use tscache_sim::synthetic::ArraySweep;
use tscache_sim::workload::Workload;

/// The standard access trace for the cache-level rows: a 24 KiB
/// working set cycled over the paper's 16 KiB L1, mixing hits and
/// misses. Its 768 lines fit the L1's 1024-entry placement memo, so the
/// memoized placements almost always hit it.
pub fn dispatch_trace() -> Vec<LineAddr> {
    (0..8192u64).map(|i| LineAddr::new((i * 7) % 768)).collect()
}

/// The memo-overflow trace: 4096 distinct lines (128 KiB), 4× the L1's
/// 1024-entry placement memo, cycled so every memo slot is revisited
/// only after three other lines evicted it — each access re-runs the
/// placement function, the regime of an MBPTA run after a reseed.
fn overflow_trace() -> Vec<LineAddr> {
    (0..8192u64).map(|i| LineAddr::new((i * 7) % 4096)).collect()
}

/// One cache level measured in one run: the scalar `Cache::access`
/// path (`enum`) and `Cache::access_batch` (`batch`, a loop over it),
/// on the same recorded trace, for `placement` with random
/// replacement. It runs [`dispatch_trace`] as `cache/<placement>/*`
/// and `overflow_trace` as `cache/<placement>/overflow/*`.
pub fn cache_dispatch_suite(placement: PlacementKind, min_ms: u64) -> Vec<Measurement> {
    let pid = ProcessId::new(1);
    let geom = CacheGeometry::paper_l1();
    let mut results = Vec::with_capacity(4);

    for (trace, lines) in [("", dispatch_trace()), ("/overflow", overflow_trace())] {
        let prefix = format!("cache/{placement}{trace}");

        let mut scalar = Cache::new("b", geom, placement, ReplacementKind::Random, 7);
        scalar.set_seed(pid, Seed::new(42));
        results.push(bench(format!("{prefix}/enum"), "accesses", min_ms, || {
            for &l in &lines {
                black_box(scalar.access(pid, black_box(l)));
            }
            lines.len() as u64
        }));

        let mut batched = Cache::new("b", geom, placement, ReplacementKind::Random, 7);
        batched.set_seed(pid, Seed::new(42));
        results.push(bench(format!("{prefix}/batch"), "accesses", min_ms, || {
            black_box(batched.access_batch(pid, black_box(&lines)));
            lines.len() as u64
        }));
    }

    results
}

/// Placement-function cost per design, without `Cache`'s memo: every
/// policy's engine at the paper's L1 geometry as
/// `placement/<kind>/enum`, then the two L2 policies' engines at the
/// L2 geometry as `placement-l2/<kind>/enum`.
/// A stride-97 (L1) or stride-131 (L2) line walk gives every call a
/// new line (Random Modulo's page memo serves its revisits of a page,
/// about one call in four). The §6.2.3 "no operating-frequency
/// degradation" claim makes placement cheap combinational logic in
/// hardware; this records what the software models cost.
///
/// `placement/random-modulo/page-cold` times Random Modulo's page
/// builds: one line per page over 8,192 pages, under a fresh seed
/// every 8,192 calls, so no call finds its page in the engine's
/// 128-slot page memo.
pub fn placement_suite(min_ms: u64) -> Vec<Measurement> {
    let mut results = Vec::new();
    let geom = CacheGeometry::paper_l1();
    let seed = Seed::new(0xdead_beef);

    for kind in PlacementKind::ALL {
        let mut engine = PlacementEngine::new(kind, &geom);
        let mut line = 0u64;
        results.push(bench(format!("placement/{kind}/enum"), "placements", min_ms, || {
            for _ in 0..8192u64 {
                line = line.wrapping_add(97);
                black_box(engine.place(LineAddr::new(black_box(line)), seed));
            }
            8192
        }));
    }

    let mut engine = PlacementEngine::new(PlacementKind::RandomModulo, &geom);
    let mut round = 0u64;
    results.push(bench("placement/random-modulo/page-cold", "placements", min_ms, || {
        round += 1;
        let seed = Seed::new(mix64(round));
        for page in 0..8192u64 {
            let line = (page << geom.index_bits()) | (page * 37 % u64::from(geom.sets()));
            black_box(engine.place(LineAddr::new(black_box(line)), seed));
        }
        8192
    }));

    let l2 = CacheGeometry::paper_l2();
    for kind in [PlacementKind::Modulo, PlacementKind::HashRp] {
        let mut engine = PlacementEngine::new(kind, &l2);
        let mut line = 0u64;
        results.push(bench(format!("placement-l2/{kind}/enum"), "placements", min_ms, || {
            for _ in 0..8192u64 {
                line = line.wrapping_add(131);
                black_box(engine.place(LineAddr::new(black_box(line)), Seed::new(0x1234_5678)));
            }
            8192
        }));
    }

    results
}

/// An L2-heavy trace: a 128 KiB data working set (8× the paper's L1,
/// half its L2) with interleaved code fetches, cycled so L1 misses are
/// plentiful and the unified levels see sustained traffic.
pub fn l2_heavy_trace() -> Vec<TraceOp> {
    (0..16384u64)
        .map(|i| {
            if i % 9 == 0 {
                TraceOp::fetch(Addr::new(0x10_0000 + (i / 9 % 64) * 32))
            } else {
                // Stride by 3 lines over 128 KiB.
                TraceOp::read(Addr::new((i * 96) % (128 * 1024)))
            }
        })
        .collect()
}

/// The hierarchy walk on the L2-heavy trace, for `setup` at `depth`:
/// the per-op `Hierarchy::access` loop every batch entry point runs.
pub fn hierarchy_suite(setup: SetupKind, depth: HierarchyDepth, min_ms: u64) -> Measurement {
    let pid = ProcessId::new(1);
    let ops = l2_heavy_trace();
    let mut h = setup.build_depth(depth, 21);
    h.set_process_seed(pid, Seed::new(42));
    let tag = format!("{}-{}", setup.label(), depth.label());
    bench(format!("hier/{tag}/scalar"), "accesses", min_ms, || {
        for op in &ops {
            black_box(h.access(pid, op.kind, op.addr));
        }
        ops.len() as u64
    })
}

/// The MBPTA run boundary on a solo `setup` machine at `depth`, as
/// `flush/<setup>-<depth>`: a reseed plus `Machine::flush_caches` (the
/// hierarchy's `flush_all`) after one `ArraySweep::standard` run, the
/// state every run of an MBPTA campaign leaves behind. Only the
/// boundary is timed; the sweeps between boundaries run untimed until
/// `min_ms` of wall time has passed.
pub fn flush_suite(setup: SetupKind, depth: HierarchyDepth, min_ms: u64) -> Measurement {
    let pid = ProcessId::new(1);
    let mut machine = Machine::from_setup_depth(setup, depth, 21);
    machine.set_process(pid);
    let mut sweep = ArraySweep::standard(&mut Layout::new(0x10_0000));
    // One untimed run and boundary first, which builds the sweep's
    // trace.
    sweep.run(&mut machine);
    machine.flush_caches();
    let budget = Duration::from_millis(min_ms);
    let started = Instant::now();
    let (mut flushes, mut timed) = (0u64, Duration::ZERO);
    while flushes == 0 || started.elapsed() < budget {
        sweep.run(&mut machine);
        let start = Instant::now();
        machine.set_process_seed(pid, Seed::new(mix64(flushes)));
        machine.flush_caches();
        timed += start.elapsed();
        flushes += 1;
    }
    Measurement {
        name: format!("flush/{}-{}", setup.label(), depth.label()),
        unit: "flushes",
        units: flushes,
        elapsed_ns: timed.as_nanos(),
    }
}

/// The contended-vs-solo machine comparison, measured in one run: the
/// same L2-heavy trace replayed through `Machine::run_trace` on a solo
/// machine and on one with an active FIR co-runner — the per-PR record
/// of what the interference layer costs the hot path and how much
/// timing the contention model injects. The rows keep the
/// `round-robin` tag they had while the bus had other policies, so
/// `bench_report --compare` still pairs them with older reports.
pub fn contended_machine_suite(
    setup: SetupKind,
    depth: HierarchyDepth,
    min_ms: u64,
) -> Vec<Measurement> {
    let pid = ProcessId::new(1);
    let ops = l2_heavy_trace();
    let tag = format!("{}-{}-round-robin", setup.label(), depth.label());
    let mut results = Vec::with_capacity(2);

    let mut solo = Machine::from_setup_depth(setup, depth, 21);
    solo.set_process(pid);
    solo.set_process_seed(pid, Seed::new(42));
    results.push(bench(format!("machine/{tag}/solo"), "accesses", min_ms, || {
        black_box(solo.run_trace(black_box(&ops)));
        ops.len() as u64
    }));

    let mut contended = Machine::from_setup_depth(setup, depth, 21);
    contended.set_process(pid);
    contended.set_process_seed(pid, Seed::new(42));
    contended.attach_standard_enemies(setup, depth, &ContentionConfig::default(), 77);
    results.push(bench(format!("machine/{tag}/contended"), "accesses", min_ms, || {
        black_box(contended.run_trace(black_box(&ops)));
        ops.len() as u64
    }));

    results
}

/// The shared-vs-private LLC comparison, measured in one run: the same
/// L2-heavy trace through `Machine::run_trace` on a shared-LLC
/// platform (`Machine::from_setup_shared`), solo and with an active
/// FIR co-runner *inside* the shared cache — the per-PR record of what
/// threading one shared cache through the merge loop costs relative
/// to the private batch path (`contended_machine_suite`'s numbers).
/// A third row times building that contended machine
/// (`from_setup_shared` plus `attach_standard_enemies`) in steady
/// state, once the warm-up call has memoized the enemy trace.
pub fn shared_llc_machine_suite(
    setup: SetupKind,
    depth: HierarchyDepth,
    min_ms: u64,
) -> Vec<Measurement> {
    let pid = ProcessId::new(1);
    let ops = l2_heavy_trace();
    let tag = format!("{}-{}-shared", setup.label(), depth.label());
    let mut results = Vec::with_capacity(3);

    let mut solo = Machine::from_setup_shared(setup, depth, SystemConfig, 21);
    solo.set_process(pid);
    solo.set_process_seed(pid, Seed::new(42));
    results.push(bench(format!("machine/{tag}/solo"), "accesses", min_ms, || {
        black_box(solo.run_trace(black_box(&ops)));
        ops.len() as u64
    }));

    let mut contended = Machine::from_setup_shared(setup, depth, SystemConfig, 21);
    contended.set_process(pid);
    contended.set_process_seed(pid, Seed::new(42));
    contended.attach_standard_enemies(setup, depth, &ContentionConfig::default(), 77);
    results.push(bench(format!("machine/{tag}/contended"), "accesses", min_ms, || {
        black_box(contended.run_trace(black_box(&ops)));
        ops.len() as u64
    }));

    results.push(bench(format!("machine/{tag}/build-contended"), "builds", min_ms, || {
        let mut m = Machine::from_setup_shared(setup, depth, SystemConfig, 21);
        m.attach_standard_enemies(setup, depth, &ContentionConfig::default(), 77);
        black_box(m);
        1
    }));

    results
}

/// The coherence suite, measured in one run: the same L2-heavy trace
/// through `Machine::run_trace` on the shared platform (the batched
/// PR-4 path), then with a coherent segment folded into the trace —
/// reads, upgrade writes and flush broadcasts force the per-op merge
/// walk and the MSI actions — recording what coherence costs the hot
/// path; plus the Flush+Reload campaign throughput on the vulnerable
/// and the randomized setup.
pub fn coherence_suite(setup: SetupKind, min_ms: u64) -> Vec<Measurement> {
    use tscache_sca::flush_reload::{run_flush_reload, FlushReloadConfig};
    let pid = ProcessId::new(1);
    let tag = format!("{}-l2-shared", setup.label());
    let mut results = Vec::with_capacity(4);

    // A trace whose every 13th op touches (and occasionally writes or
    // flushes) a 16-line coherent segment.
    let coherent_base = 0x60_0000u64;
    let ops: Vec<TraceOp> = l2_heavy_trace()
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let shared = Addr::new(coherent_base + ((i as u64 * 7) % 16) * 32);
            match i % 13 {
                0 => TraceOp::read(shared),
                6 => TraceOp::write(shared),
                11 if i % 39 == 11 => TraceOp::flush(shared),
                _ => op,
            }
        })
        .collect();

    let mut coherent =
        Machine::from_setup_shared(setup, HierarchyDepth::TwoLevel, SystemConfig, 21);
    coherent.set_process(pid);
    coherent.set_process_seed(pid, Seed::new(42));
    coherent.add_coherent_range(Addr::new(coherent_base), 16 * 32);
    results.push(bench(format!("machine/{tag}-coherent/solo"), "accesses", min_ms, || {
        black_box(coherent.run_trace(black_box(&ops)));
        ops.len() as u64
    }));

    let mut seed_salt = 0u64;
    results.push(bench("flush-reload/deterministic", "samples", min_ms.max(500), || {
        seed_salt += 1;
        let out =
            run_flush_reload(&FlushReloadConfig::standard(SetupKind::Deterministic, seed_salt))
                .expect("valid flush+reload config");
        black_box(out.samples as u64)
    }));
    let mut ts_salt = 0u64;
    results.push(bench("flush-reload/tscache", "samples", min_ms.max(500), || {
        ts_salt += 1;
        let out = run_flush_reload(&FlushReloadConfig::standard(SetupKind::TsCache, ts_salt))
            .expect("valid flush+reload config");
        black_box(out.samples as u64)
    }));

    results
}

/// The fleet-runner spec the suite benchmarks: Prime+Probe over every
/// setup, eight shards each (32 shards total) — small enough to run a
/// whole campaign per bench iteration, big enough that per-campaign
/// setup (directory, spec write, final artifacts) amortizes the way it
/// does in real sweeps (the smoke sweep is 282 shards), so the measured
/// overhead is the steady-state checkpoint cost, not launch fixed
/// cost.
pub fn fleet_bench_spec() -> tscache_fleet::SweepSpec {
    use tscache_fleet::spec::{AttackKind, DetectionMode, PlatformKind, SweepSpec};
    SweepSpec {
        campaign_seed: 0xbe9c4,
        samples_per_shard: 96,
        shards_per_scenario: 8,
        setups: SetupKind::ALL.to_vec(),
        depths: vec![HierarchyDepth::TwoLevel],
        platforms: vec![PlatformKind::Private],
        contention: vec![false],
        attacks: vec![AttackKind::PrimeProbe],
        detection: vec![DetectionMode::Off],
        defenses: vec![tscache_core::defense::DefenseKind::Off],
    }
}

/// The fleet-executor suite: shard throughput of the raw shard runner
/// (no persistence, no executor) vs the full checkpointed campaign
/// (spec expansion, worker dispatch, group-committed JSONL appends,
/// fsync'd manifest renames, merged report) on the same spec — the
/// per-PR record of what crash-safety costs. The acceptance bar is
/// checkpointed ≥ 0.9× raw.
///
/// The two sides are *interleaved*, one campaign each per round in the
/// same timed window — the checkpoint overhead (a couple of fsyncs per
/// campaign) is the same order as run-to-run compute drift, so timing
/// the sides back-to-back would let drift masquerade as overhead.
/// Campaign directories accumulate under one parent removed after the
/// timed region, so cleanup I/O doesn't bill to the checkpoint path.
pub fn fleet_suite(min_ms: u64) -> Vec<Measurement> {
    use std::time::Instant;
    use tscache_fleet::executor::{launch, ExecutorConfig, RunOutcome};
    use tscache_fleet::fault::FaultPlan;
    use tscache_fleet::job::run_shard;

    let spec = fleet_bench_spec();
    let jobs = spec.jobs().expect("bench spec expands");
    let shards = jobs.len() as u64;

    let cfg = ExecutorConfig { workers: 1, keep_times: false, ..ExecutorConfig::default() };
    let parent = std::env::temp_dir().join(format!("tscache-fleet-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    std::fs::create_dir_all(&parent).expect("create bench campaign parent");

    // Warm up both paths (caches, lazy state, directory metadata).
    for job in &jobs {
        black_box(run_shard(job, false).expect("bench shard runs"));
    }
    launch(&spec, parent.join("warmup"), &cfg, &FaultPlan::none())
        .expect("bench warmup campaign runs");

    let mut raw =
        Measurement { name: "fleet/shards/raw".into(), unit: "shards", units: 0, elapsed_ns: 0 };
    let mut ckpt = Measurement {
        name: "fleet/shards/checkpointed".into(),
        unit: "shards",
        units: 0,
        elapsed_ns: 0,
    };
    let budget = (min_ms as u128) * 1_000_000;
    let mut round = 0u64;
    while raw.elapsed_ns < budget || ckpt.elapsed_ns < budget {
        round += 1;

        let start = Instant::now();
        for job in &jobs {
            black_box(run_shard(job, false).expect("bench shard runs"));
        }
        raw.elapsed_ns += start.elapsed().as_nanos();
        raw.units += shards;

        let dir = parent.join(format!("round-{round}"));
        let start = Instant::now();
        let outcome = launch(&spec, &dir, &cfg, &FaultPlan::none()).expect("bench campaign runs");
        ckpt.elapsed_ns += start.elapsed().as_nanos();
        ckpt.units += shards;
        let RunOutcome::Finished(result) = outcome else { panic!("bench campaign killed") };
        assert!(result.is_complete());
    }
    let _ = std::fs::remove_dir_all(&parent);

    vec![raw, ckpt]
}

/// The online-detection suite: what watching for an attack costs.
///
/// Two interleaved pairs, each side one run per round in the same
/// timed window (the fleet-suite drift discipline):
///
/// * the RTOS schedule with the in-OS detector off vs on — the
///   deployment-relevant number; the acceptance bar is the monitored
///   schedule at ≥ 0.95× the unmonitored one (sampling is a counter
///   read per op-window, not a simulation);
/// * the Prime+Probe detection campaign sampled vs unsampled, in
///   rounds/sec — the sampled side simulates both the benign and the
///   attack scenario (2× the rounds) through `parallel::join`, so its
///   per-round rate also records what the campaign pair costs.
pub fn detector_suite(min_ms: u64) -> Vec<Measurement> {
    use std::time::Instant;
    use tscache_rtos::detector::DetectorConfig;
    use tscache_rtos::os::{OsConfig, TscacheOs};
    use tscache_rtos::Application;
    use tscache_sca::detect::{run_detection_campaign, DetectTarget, DetectionCampaignConfig};

    let hyperperiods = 8u32;
    let jobs = |report: &tscache_rtos::os::CampaignReport| {
        report.times.iter().map(|t| t.len() as u64).sum::<u64>()
    };

    let mut off =
        Measurement { name: "rtos/detector/off".into(), unit: "jobs", units: 0, elapsed_ns: 0 };
    let mut on =
        Measurement { name: "rtos/detector/on".into(), unit: "jobs", units: 0, elapsed_ns: 0 };
    let mut unsampled = Measurement {
        name: "detect/prime-probe/unsampled".into(),
        unit: "rounds",
        units: 0,
        elapsed_ns: 0,
    };
    let mut sampled = Measurement {
        name: "detect/prime-probe/sampled".into(),
        unit: "rounds",
        units: 0,
        elapsed_ns: 0,
    };

    let budget = (min_ms as u128) * 1_000_000;
    let mut salt = 0u64;
    while off.elapsed_ns < budget
        || on.elapsed_ns < budget
        || unsampled.elapsed_ns < budget
        || sampled.elapsed_ns < budget
    {
        salt += 1;

        let config = OsConfig { rng_seed: salt, ..OsConfig::default() };
        let mut os = TscacheOs::try_new(Application::figure3_example(), SetupKind::TsCache, config)
            .expect("valid OS config");
        let start = Instant::now();
        let report = black_box(os.run(hyperperiods));
        off.elapsed_ns += start.elapsed().as_nanos();
        off.units += jobs(&report);

        let config = OsConfig {
            rng_seed: salt,
            detector: Some(DetectorConfig::default()),
            ..OsConfig::default()
        };
        let mut os = TscacheOs::try_new(Application::figure3_example(), SetupKind::TsCache, config)
            .expect("valid OS config");
        let start = Instant::now();
        let report = black_box(os.run(hyperperiods));
        on.elapsed_ns += start.elapsed().as_nanos();
        on.units += jobs(&report);

        let mut cfg =
            DetectionCampaignConfig::standard(DetectTarget::PrimeProbe, SetupKind::TsCache, salt);
        cfg.sample = false;
        let start = Instant::now();
        black_box(run_detection_campaign(&cfg).expect("valid campaign config"));
        unsampled.elapsed_ns += start.elapsed().as_nanos();
        unsampled.units += cfg.rounds as u64;

        cfg.sample = true;
        let start = Instant::now();
        black_box(run_detection_campaign(&cfg).expect("valid campaign config"));
        sampled.elapsed_ns += start.elapsed().as_nanos();
        sampled.units += 2 * cfg.rounds as u64;
    }

    vec![off, on, unsampled, sampled]
}

/// The defense-zoo suite: what each defense policy costs the hot path.
///
/// One measurement per [`DefenseKind`], all interleaved in the same
/// window (the fleet-suite drift discipline): the L2-heavy trace
/// through `Machine::run_trace` on the shared-LLC TSCache platform —
/// shared so the seed-rotation defenses actually rotate — with that
/// single defense armed via [`Machine::apply_defense`]. The acceptance
/// bar is every defended run at ≥ 0.9× `defense/off`: TTL adds a
/// per-set decay sweep on the scalar spill path and a lifetime draw
/// per fill, normalization a per-hit owner check, rotation a counter
/// compare per shared fill — none of which may tax the batch fast
/// path by more than the bar.
pub fn defense_suite(min_ms: u64) -> Vec<Measurement> {
    use std::time::Instant;
    use tscache_core::defense::DefenseKind;

    let pid = ProcessId::new(1);
    let ops = l2_heavy_trace();

    let mut machines: Vec<(Machine, Measurement)> = DefenseKind::ALL
        .into_iter()
        .map(|defense| {
            let mut machine = Machine::from_setup_shared(
                SetupKind::TsCache,
                HierarchyDepth::TwoLevel,
                SystemConfig,
                21,
            );
            machine.set_process(pid);
            machine.set_process_seed(pid, Seed::new(42));
            machine.apply_defense(defense);
            let m = Measurement {
                name: format!("defense/{}", defense.label()),
                unit: "accesses",
                units: 0,
                elapsed_ns: 0,
            };
            (machine, m)
        })
        .collect();

    let budget = (min_ms as u128) * 1_000_000;
    while machines.iter().any(|(_, m)| m.elapsed_ns < budget) {
        for (machine, m) in machines.iter_mut() {
            let start = Instant::now();
            black_box(machine.run_trace(black_box(&ops)));
            m.elapsed_ns += start.elapsed().as_nanos();
            m.units += ops.len() as u64;
        }
    }

    machines.into_iter().map(|(_, m)| m).collect()
}

/// The telemetry suite: what the tracing layer costs the hot path.
///
/// Three interleaved measurements per round on the same L2-heavy
/// trace (the fleet-suite drift discipline):
///
/// * the raw `Hierarchy::access_batch_cycles` walk — the floor the
///   machine path rides on;
/// * a recorder-**off** machine `run_trace` — the absent
///   `Option<RecorderHandle>` must cost one predicted branch; the
///   acceptance bar is ≥ 0.97× the batch floor;
/// * a recorder-**on** machine — the full per-op record cost
///   (digest fold + histogram + ring write), recorded for trajectory,
///   not gated.
pub fn telemetry_suite(min_ms: u64) -> Vec<Measurement> {
    use std::time::Instant;
    use tscache_telemetry::handle;

    let pid = ProcessId::new(1);
    let ops = l2_heavy_trace();
    let setup = SetupKind::TsCache;
    let depth = HierarchyDepth::TwoLevel;

    let mut hier = setup.build_depth(depth, 21);
    hier.set_process_seed(pid, Seed::new(42));

    let mut off = Machine::from_setup_depth(setup, depth, 21);
    off.set_process(pid);
    off.set_process_seed(pid, Seed::new(42));

    let mut on = Machine::from_setup_depth(setup, depth, 21);
    on.set_process(pid);
    on.set_process_seed(pid, Seed::new(42));
    // A small ring: eviction is the steady state, as in long campaigns.
    on.set_recorder(handle(4096));

    let mut batch = Measurement {
        name: "telemetry/hier/batch".into(),
        unit: "accesses",
        units: 0,
        elapsed_ns: 0,
    };
    let mut rec_off = Measurement {
        name: "telemetry/machine/off".into(),
        unit: "accesses",
        units: 0,
        elapsed_ns: 0,
    };
    let mut rec_on = Measurement {
        name: "telemetry/machine/on".into(),
        unit: "accesses",
        units: 0,
        elapsed_ns: 0,
    };

    // Warm-up round.
    black_box(hier.access_batch_cycles(pid, &ops));
    black_box(off.run_trace(&ops));
    black_box(on.run_trace(&ops));

    let budget = (min_ms as u128) * 1_000_000;
    while batch.elapsed_ns < budget || rec_off.elapsed_ns < budget || rec_on.elapsed_ns < budget {
        let start = Instant::now();
        black_box(hier.access_batch_cycles(pid, black_box(&ops)));
        batch.elapsed_ns += start.elapsed().as_nanos();
        batch.units += ops.len() as u64;

        let start = Instant::now();
        black_box(off.run_trace(black_box(&ops)));
        rec_off.elapsed_ns += start.elapsed().as_nanos();
        rec_off.units += ops.len() as u64;

        let start = Instant::now();
        black_box(on.run_trace(black_box(&ops)));
        rec_on.elapsed_ns += start.elapsed().as_nanos();
        rec_on.units += ops.len() as u64;
    }

    vec![batch, rec_off, rec_on]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherence_suite_reports_coherent_and_campaign_rates() {
        let results = coherence_suite(SetupKind::TsCache, 1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "machine/tscache-l2-shared-coherent/solo",
                "flush-reload/deterministic",
                "flush-reload/tscache"
            ]
        );
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }

    #[test]
    fn hierarchy_suite_reports_the_walk() {
        let m = hierarchy_suite(SetupKind::TsCache, HierarchyDepth::ThreeLevel, 1);
        assert_eq!(m.name, "hier/tscache-l3/scalar");
        assert!(m.per_sec() > 0.0);
    }

    #[test]
    fn flush_suite_times_run_boundaries() {
        let m = flush_suite(SetupKind::TsCache, HierarchyDepth::ThreeLevel, 1);
        assert_eq!(m.name, "flush/tscache-l3");
        assert!(m.units > 0 && m.per_sec() > 0.0);
    }

    #[test]
    fn l2_heavy_trace_mixes_ports() {
        let ops = l2_heavy_trace();
        assert!(ops.iter().any(|o| o.kind == tscache_core::hierarchy::AccessKind::Fetch));
        assert!(ops.iter().any(|o| o.kind == tscache_core::hierarchy::AccessKind::Read));
    }

    #[test]
    fn contended_suite_reports_solo_and_contended() {
        let results = contended_machine_suite(SetupKind::TsCache, HierarchyDepth::TwoLevel, 1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["machine/tscache-l2-round-robin/solo", "machine/tscache-l2-round-robin/contended"]
        );
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }

    #[test]
    fn shared_llc_suite_reports_solo_and_contended() {
        let results = shared_llc_machine_suite(SetupKind::TsCache, HierarchyDepth::TwoLevel, 1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "machine/tscache-l2-shared/solo",
                "machine/tscache-l2-shared/contended",
                "machine/tscache-l2-shared/build-contended"
            ]
        );
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
        assert_eq!(results[2].unit, "builds");
    }

    #[test]
    fn fleet_suite_reports_raw_and_checkpointed() {
        let results = fleet_suite(1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["fleet/shards/raw", "fleet/shards/checkpointed"]);
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }

    #[test]
    fn detector_suite_reports_both_interleaved_pairs() {
        let results = detector_suite(1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "rtos/detector/off",
                "rtos/detector/on",
                "detect/prime-probe/unsampled",
                "detect/prime-probe/sampled"
            ]
        );
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }

    #[test]
    fn telemetry_suite_reports_floor_off_and_on() {
        let results = telemetry_suite(1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["telemetry/hier/batch", "telemetry/machine/off", "telemetry/machine/on"]
        );
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }

    #[test]
    fn suite_reports_scalar_and_batch_rows() {
        let results = cache_dispatch_suite(PlacementKind::Modulo, 1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "cache/modulo/enum",
                "cache/modulo/batch",
                "cache/modulo/overflow/enum",
                "cache/modulo/overflow/batch"
            ]
        );
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }

    #[test]
    fn overflow_trace_outgrows_the_l1_placement_memo() {
        let distinct: std::collections::BTreeSet<_> = overflow_trace().into_iter().collect();
        assert_eq!(distinct.len(), 4 * 1024);
        let fits: std::collections::BTreeSet<_> = dispatch_trace().into_iter().collect();
        assert!(fits.len() <= 1024);
    }

    #[test]
    fn placement_suite_reports_every_kind_and_the_l2_engines() {
        let results = placement_suite(1);
        let names: Vec<&str> = results.iter().map(|m| m.name.as_str()).collect();
        let mut expected: Vec<String> =
            PlacementKind::ALL.iter().map(|k| format!("placement/{k}/enum")).collect();
        expected.push("placement/random-modulo/page-cold".into());
        expected.push("placement-l2/modulo/enum".into());
        expected.push("placement-l2/hash-rp/enum".into());
        assert_eq!(names, expected);
        assert!(results.iter().all(|m| m.per_sec() > 0.0));
    }
}
