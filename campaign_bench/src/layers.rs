//! The traced per-layer pass. Spans are recorded here, in the
//! benchmark's own code, around calls into each crate's public
//! functions; nothing inside the program is instrumented. The fleet
//! layer is measured on the workload's own campaign, the lower layers
//! on the workload's own op stream (`streams.rs`).
//!
//! Layer metrics that a workload never exercises (no AES on the pWCET
//! sweep, no shared or contended machine on the private ones) are
//! reported as 0.

use crate::campaign::{self, executor_config, prepare, CampaignRun, Tally};
use crate::report::{json_number, median, quantile, Metric};
use crate::spans::Spans;
use crate::streams::{plaintext, Stream, COHERENT_BASE, COHERENT_LINES, VICTIM_KEY};
use crate::workloads::Workload;
use crate::{expected_digest, workers, Args, Outcome};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use tscache_aes::{AesLayout, SimAes128};
use tscache_core::addr::Addr;
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::{PlacementEngine, PlacementKind};
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_fleet::executor::{render_report, CampaignResult};
use tscache_fleet::fault::FaultPlan;
use tscache_fleet::job::{run_shard_with, ShardOptions};
use tscache_fleet::jsonl::ShardRecord;
use tscache_fleet::spec::{AttackKind, FleetError, SweepSpec};
use tscache_fleet::{campaign_digest, CampaignDir, Manifest};
use tscache_interference::{ContentionConfig, SystemConfig};
use tscache_mbpta::{analyze, merge_shard_times, MbptaConfig};
use tscache_rtos::{Application, OsConfig, TscacheOs};
use tscache_sca::sampling::{CryptoNode, Role, SamplingConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;

/// The measured process of every replay.
const PID: ProcessId = ProcessId::new(1);

/// Replays of a stream behind the exact (not timed) statistics.
const EXACT_REPLAYS: usize = 4;

/// Share of `--seconds` spent on traced-vs-untraced campaign pairs.
const PAIR_SHARE: f64 = 0.25;

/// Slices the rest of `--seconds` is cut into, one per timed
/// lower-layer measurement (placement and replacement take half a
/// slice each; the spare slices absorb each loop's last overrun).
const LAYER_SLICES: f64 = 16.0;

/// Runs `f` (which returns the units of work it did) until `budget`
/// has elapsed, at least once, inside a span; returns ns per unit.
fn per_unit(
    spans: &mut Spans,
    name: &'static str,
    budget: Duration,
    mut f: impl FnMut() -> u64,
) -> f64 {
    let (units, ns) = spans.time(name, |_| {
        let start = Instant::now();
        let mut units = 0u64;
        while units == 0 || start.elapsed() < budget {
            units += f();
        }
        units
    });
    ns as f64 / units as f64
}

/// Like [`per_unit`] for calls that need a fresh object each time:
/// `make` runs untimed, and each `call` gets its own span.
fn per_call<T>(
    spans: &mut Spans,
    name: &'static str,
    budget: Duration,
    mut make: impl FnMut() -> Result<T, String>,
    mut call: impl FnMut(T) -> Result<u64, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let (mut units, mut ns) = (0u64, 0u64);
    while units == 0 || start.elapsed() < budget {
        let object = make()?;
        let (done, call_ns) = spans.time(name, |_| call(object));
        units += done?;
        ns += call_ns;
    }
    Ok(ns as f64 / units as f64)
}

/// Seeds for successive epochs of one replay loop.
struct Epochs(SplitMix64);

impl Epochs {
    fn new(seed: u64) -> Self {
        Epochs(SplitMix64::new(mix64(seed ^ 0x6570_6f63)))
    }

    fn next(&mut self) -> Seed {
        Seed::new(self.0.next_u64())
    }
}

/// The fleet layer on the workload's own campaign.
struct Fleet {
    /// The single-worker campaign.
    serial: CampaignRun,
    /// Seconds the checkpoint layer took to persist and report that
    /// campaign, replayed call by call.
    persist_s: f64,
    /// Standalone `run_shard_with` outputs' raw times:
    /// `(scenario index, shard, times)`.
    times: Vec<(usize, usize, Option<Vec<u64>>)>,
    metrics: Vec<Metric>,
}

/// A launched campaign's durable output, read back before its
/// directory is removed.
struct Launched {
    run: CampaignRun,
    log_bytes: u64,
    records: Vec<ShardRecord>,
}

fn fleet(
    args: &Args,
    work: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
    expected: &mut Option<u64>,
) -> Result<Fleet, String> {
    let w = args.workload;
    let err = |e: FleetError| e.to_string();
    let mut campaign = |spans: &mut Spans, name: &'static str, workers: usize, trace: bool| {
        let p = prepare(w, args.seed, work.join(name)).map_err(err)?;
        let cfg = executor_config(workers, trace);
        let run =
            spans.time(name, |_| campaign::run(&p, &cfg, &FaultPlan::none())).0.map_err(err)?;
        tally.count(&run, expected);
        let cd = CampaignDir::create(&p.dir).map_err(err)?;
        let log_bytes = std::fs::metadata(cd.results_path()).map_err(|e| e.to_string())?.len();
        let records = cd.load().map_err(err)?.records;
        let _ = std::fs::remove_dir_all(&p.dir);
        Ok::<_, String>(Launched { run, log_bytes, records })
    };

    // Traced (the executor's own telemetry on) vs untraced campaigns at
    // full width, interleaved so drift hits both sides alike; they also
    // warm up everything the serial measurements below touch.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < args.seconds * PAIR_SHARE {
        untraced.push(campaign(spans, "fleet.launch.untraced", workers(), false)?.run.wall_s);
        traced.push(campaign(spans, "fleet.launch.traced", workers(), true)?.run.wall_s);
    }

    let spec = w.spec(args.seed);
    let opts = ShardOptions { keep_times: true, trace: false };
    let mut shard_ms = Vec::new();
    let mut times = Vec::new();
    for job in spec.jobs().map_err(err)? {
        let (out, ns) = spans.time("fleet.run_shard", |_| run_shard_with(&job, &opts));
        shard_ms.push(ns as f64 / 1e6);
        times.push((job.scenario_index, job.shard, out.map_err(|e| e.to_string())?.times));
    }

    let serial = campaign(spans, "fleet.launch.serial", 1, false)?;
    let result = serial.run.result.as_ref().ok_or("serial campaign did not finish")?;
    let (persisted, persist_ns) = spans.time("fleet.persist", |s| {
        persist(s, &spec, &work.join("persist"), &serial.records, result)
    });
    persisted.map_err(err)?;
    let persist_s = persist_ns as f64 / 1e9;
    let _ = std::fs::remove_dir_all(work.join("persist"));

    let metrics = vec![
        Metric::new("fleet.shard_ms.p50", median(&shard_ms), "ms"),
        Metric::new("fleet.shard_ms.p90", quantile(&shard_ms, 0.9), "ms"),
        Metric::new(
            "fleet.record_bytes",
            serial.log_bytes as f64 / shard_ms.len().max(1) as f64,
            "bytes",
        ),
        Metric::new("trace_overhead", median(&traced) / median(&untraced), "ratio"),
    ];
    Ok(Fleet { serial: serial.run, persist_s, times, metrics })
}

/// Replays a finished campaign's persistence through the checkpoint
/// layer's public calls, in the executor's order: the spec write, one
/// append per record, a manifest every `checkpoint_every` records and
/// at the end, then the campaign digest and the report. Timed
/// directly, this is the executor's work outside `run_shard` except
/// the merge's EVT fits, which `mbpta.analyze` times.
fn persist(
    spans: &mut Spans,
    spec: &SweepSpec,
    dir: &Path,
    records: &[ShardRecord],
    result: &CampaignResult,
) -> Result<(), FleetError> {
    let none = FaultPlan::none();
    let every = executor_config(1, false).checkpoint_every.max(1);
    let mut cd = CampaignDir::create(dir)?;
    spans.time("fleet.persist.spec", |_| cd.write_spec(&spec.canonical())).0?;
    let mut manifest = Manifest {
        spec_digest: spec.digest(),
        total_shards: records.len() as u64,
        ..Manifest::default()
    };
    for (i, record) in records.iter().enumerate() {
        spans.time("fleet.persist.append", |_| cd.append_record(record, &none)).0?;
        manifest.completed.insert(record.shard as u64, record.result_digest());
        // The executor's cadence; it skips a final manifest that would
        // repeat the last one.
        if (i as u64 + 1).is_multiple_of(every) || i + 1 == records.len() {
            spans.time("fleet.persist.manifest", |_| cd.write_manifest(&manifest, &none)).0?;
        }
    }
    spans
        .time("fleet.persist.report", |_| {
            cd.write_report(&render_report(result), campaign_digest(records))
        })
        .0
}

/// `analysis::analyze` on each pWCET scenario's merged standalone
/// times; each fit must reproduce the executor's merged pWCET exactly.
/// Also returns the fits' total seconds.
fn mbpta(spans: &mut Spans, fleet: &Fleet, result: &CampaignResult) -> (Metric, bool, f64) {
    let mut ms = Vec::new();
    let mut agree = true;
    for (index, scenario) in result.scenarios.iter().enumerate() {
        let Some(expected) = scenario.pwcet else { continue };
        let merged = merge_shard_times(
            fleet
                .times
                .iter()
                .filter(|(s, _, _)| *s == index)
                .map(|(_, shard, t)| (*shard, t.clone().unwrap_or_default()))
                .collect(),
        );
        let (analysis, ns) =
            spans.time("mbpta.analyze", |_| analyze(&merged, &MbptaConfig::default()));
        ms.push(ns as f64 / 1e6);
        agree &= analysis.pwcet(1e-12) == expected;
    }
    let total_s = ms.iter().sum::<f64>() / 1e3;
    (Metric::new("mbpta.analyze_ms", median(&ms), "ms"), agree, total_s)
}

/// The Bernstein sampling configuration of the workload's sweep, if it
/// runs Bernstein shards.
fn sampling_config(w: Workload, seed: u64) -> Option<SamplingConfig> {
    let spec = w.spec(seed);
    if !spec.attacks.contains(&AttackKind::Bernstein) {
        return None;
    }
    let mut cfg = SamplingConfig::standard(SetupKind::TsCache, spec.samples_per_shard, seed);
    if w == Workload::SeedSweepShared {
        cfg.shared_llc = true;
        cfg.contention = Some(ContentionConfig::default());
    }
    Some(cfg)
}

fn sca_aes(args: &Args, spans: &mut Spans, slice: Duration) -> Result<Vec<Metric>, String> {
    let Some(cfg) = sampling_config(args.workload, args.seed) else {
        return Ok(vec![
            Metric::new("sca.collect.ns_per_sample", 0.0, "ns"),
            Metric::new("aes.encrypt.ns", 0.0, "ns"),
            Metric::new("aes.ops_per_encrypt", 0.0, "count"),
        ]);
    };
    let node = || CryptoNode::try_new(cfg, Role::Victim, &VICTIM_KEY).map_err(|e| e.to_string());
    node()?;
    let collect = per_call(spans, "sca.CryptoNode::collect", slice, node, |mut node| {
        Ok(black_box(node.collect()).len() as u64)
    })?;

    let mut layout = Layout::new(0x10_0000);
    let aes = SimAes128::new(&VICTIM_KEY, AesLayout::install(&mut layout, "aes"));
    let mut machine = Machine::from_setup(cfg.setup, args.seed);
    machine.set_process(PID);
    machine.set_process_seed(PID, Seed::new(mix64(args.seed)));
    let mut ops = Vec::new();
    let mut rng = SplitMix64::new(args.seed);
    let encrypt = per_unit(spans, "aes.SimAes128::encrypt_with", slice, || {
        for _ in 0..256 {
            black_box(aes.encrypt_with(&mut machine, &mut ops, &plaintext(&mut rng)));
        }
        256
    });
    Ok(vec![
        Metric::new("sca.collect.ns_per_sample", collect, "ns"),
        Metric::new("aes.encrypt.ns", encrypt, "ns"),
        Metric::new("aes.ops_per_encrypt", ops.len() as f64, "count"),
    ])
}

fn rtos(args: &Args, spans: &mut Spans, slice: Duration) -> Result<Metric, String> {
    let spec = args.workload.spec(args.seed);
    if !spec.attacks.contains(&AttackKind::Rtos) {
        return Ok(Metric::new("rtos.run.ms_per_hyperperiod", 0.0, "ms"));
    }
    // The fleet's RTOS shard shape: coherent-image shared platform,
    // hyperperiods derived from the shard's samples.
    let hyperperiods = (spec.samples_per_shard / 8).clamp(1, 128);
    let config = OsConfig {
        rng_seed: args.seed,
        shared_llc: true,
        coherent_image: true,
        ..OsConfig::default()
    };
    let app = Application::figure3_example();
    let os =
        || TscacheOs::try_new(app.clone(), SetupKind::TsCache, config).map_err(|e| e.to_string());
    let ns = per_call(spans, "rtos.TscacheOs::run", slice, os, |mut os| {
        black_box(os.run(hyperperiods));
        Ok(hyperperiods as u64)
    })?;
    Ok(Metric::new("rtos.run.ms_per_hyperperiod", ns / 1e6, "ms"))
}

/// The machine the workload's shards build: a private solo machine, or
/// (seed sweep) a shared-LLC platform with an enemy co-runner and the
/// coherent segment declared.
fn workload_machine(w: Workload, setup: SetupKind, depth: HierarchyDepth, seed: u64) -> Machine {
    let mut m = if w == Workload::SeedSweepShared {
        let mut m = Machine::from_setup_shared(setup, depth, SystemConfig::default(), seed);
        m.attach_standard_enemies(setup, depth, &ContentionConfig::default(), mix64(seed));
        m.add_coherent_range(Addr::new(COHERENT_BASE), COHERENT_LINES * 32);
        m
    } else {
        Machine::from_setup_depth(setup, depth, seed)
    };
    m.set_process(PID);
    m
}

/// Replays the stream on `machine` (epoch protocol included) and
/// returns the ns spent inside `run_trace`.
fn replay_machine(machine: &mut Machine, stream: &Stream, epochs: &mut Epochs, first: bool) -> u64 {
    if stream.reseed_each || first {
        machine.set_process_seed(PID, epochs.next());
        machine.flush_caches();
    }
    let start = Instant::now();
    black_box(machine.run_trace(black_box(&stream.ops)));
    start.elapsed().as_nanos() as u64
}

/// Times `run_trace` replays of the stream on a fresh machine until
/// `slice` elapses; returns ns per op.
fn machine_ns_per_op(
    spans: &mut Spans,
    name: &'static str,
    mut machine: Machine,
    stream: &Stream,
    seed: u64,
    slice: Duration,
) -> f64 {
    let mut epochs = Epochs::new(seed);
    let ((ns, ops), _) = spans.time(name, |_| {
        let start = Instant::now();
        let (mut ns, mut ops, mut first) = (0u64, 0u64, true);
        while first || start.elapsed() < slice {
            ns += replay_machine(&mut machine, stream, &mut epochs, first);
            ops += stream.ops.len() as u64;
            first = false;
        }
        (ns, ops)
    });
    ns as f64 / ops as f64
}

fn sim(args: &Args, stream: &Stream, spans: &mut Spans, slice: Duration) -> Vec<Metric> {
    let w = args.workload;
    let spec = w.spec(args.seed);
    let mut i = 0usize;
    let build_ns = per_unit(spans, "sim.Machine::from_setup", slice, || {
        let setup = spec.setups[i % spec.setups.len()];
        let depth = spec.depths[i / spec.setups.len() % spec.depths.len()];
        i += 1;
        black_box(workload_machine(w, setup, depth, args.seed ^ i as u64));
        1
    });
    let mut machine = workload_machine(w, stream.setup, HierarchyDepth::TwoLevel, args.seed);
    let mut epochs = Epochs::new(args.seed);
    let flush_ns = per_unit(spans, "sim.flush_reseed", slice, || {
        for _ in 0..64 {
            machine.set_process_seed(PID, epochs.next());
            machine.flush_caches();
        }
        64
    });
    let solo = Machine::from_setup_depth(stream.setup, HierarchyDepth::TwoLevel, args.seed);
    let run_trace =
        machine_ns_per_op(spans, "sim.Machine::run_trace", solo, stream, args.seed, slice);
    vec![
        Metric::new("sim.machine_build.us", build_ns / 1e3, "us"),
        Metric::new("sim.flush_reseed.us", flush_ns / 1e3, "us"),
        Metric::new("sim.run_trace.ns_per_access", run_trace, "ns"),
    ]
}

/// `Hierarchy::access_batch_cycles` on the stream: timed ns per op, and
/// the exact L1D/L2 miss rates of `EXACT_REPLAYS` replays.
fn hierarchy(args: &Args, stream: &Stream, spans: &mut Spans, slice: Duration) -> Vec<Metric> {
    let mut h = stream.setup.build_depth(HierarchyDepth::TwoLevel, args.seed);
    let mut epochs = Epochs::new(args.seed);
    let mut replay = |h: &mut tscache_core::hierarchy::Hierarchy, first: bool| {
        if stream.reseed_each || first {
            h.set_process_seed(PID, epochs.next());
            h.flush_all();
        }
        black_box(h.access_batch_cycles(PID, black_box(&stream.ops)));
    };
    for r in 0..EXACT_REPLAYS {
        replay(&mut h, r == 0);
    }
    let l1d = h.l1d().stats().miss_rate();
    let l2 = h.l2().stats().miss_rate();
    let ns = per_unit(spans, "hierarchy.access_batch_cycles", slice, || {
        replay(&mut h, false);
        stream.ops.len() as u64
    });
    vec![
        Metric::new("hierarchy.ns_per_access", ns, "ns"),
        Metric::new("hierarchy.l1d_miss_rate", l1d, "share"),
        Metric::new("hierarchy.l2_miss_rate", l2, "share"),
    ]
}

/// `Cache::access_batch` on the stream's L1D lines, epoch protocol
/// included; returns ns per access.
fn l1_batch(
    spans: &mut Spans,
    name: &'static str,
    mut cache: Cache,
    lines: &[tscache_core::addr::LineAddr],
    reseed_each: bool,
    seed: u64,
    slice: Duration,
) -> f64 {
    let mut epochs = Epochs::new(seed);
    cache.set_seed(PID, epochs.next());
    per_unit(spans, name, slice, || {
        if reseed_each {
            cache.flush();
            cache.set_seed(PID, epochs.next());
        }
        black_box(cache.access_batch(PID, black_box(lines)));
        lines.len() as u64
    })
}

fn core_layers(args: &Args, stream: &Stream, spans: &mut Spans, slice: Duration) -> Vec<Metric> {
    let geom = CacheGeometry::paper_l1();
    let lines = stream.l1d_lines();
    let (placement, replacement) = stream.setup.l1_policy();
    let l1 = Cache::new("L1D", geom, placement, replacement, args.seed);
    let mut metrics = vec![Metric::new(
        "cache.l1.ns_per_access",
        l1_batch(
            spans,
            "cache.Cache::access_batch",
            l1,
            &lines,
            stream.reseed_each,
            args.seed,
            slice,
        ),
        "ns",
    )];

    // Unmemoized placement over the stream's distinct lines, a fresh
    // seed each pass.
    let distinct = stream.distinct_lines();
    for (kind, name, metric) in [
        (
            PlacementKind::RandomModulo,
            "placement.random-modulo",
            "placement.random-modulo.ns_per_call",
        ),
        (PlacementKind::HashRp, "placement.hash-rp", "placement.hash-rp.ns_per_call"),
        (PlacementKind::RpCache, "placement.rpcache", "placement.rpcache.ns_per_call"),
        (PlacementKind::Modulo, "placement.modulo", "placement.modulo.ns_per_call"),
    ] {
        let mut engine = PlacementEngine::new(kind, &geom);
        let mut epochs = Epochs::new(args.seed);
        let ns = per_unit(spans, name, slice / 2, || {
            let seed = epochs.next();
            for &line in &distinct {
                black_box(engine.place(black_box(line), seed));
            }
            distinct.len() as u64
        });
        metrics.push(Metric::new(metric, ns, "ns"));
    }
    metrics.push(Metric::new("placement.evals_per_access", stream.evals_per_access(), "count"));

    for (kind, name, metric) in [
        (ReplacementKind::Lru, "replacement.lru", "replacement.lru.ns_per_access"),
        (ReplacementKind::Random, "replacement.random", "replacement.random.ns_per_access"),
    ] {
        let cache = Cache::new("L1D", geom, PlacementKind::Modulo, kind, args.seed);
        let ns = l1_batch(spans, name, cache, &lines, stream.reseed_each, args.seed, slice / 2);
        metrics.push(Metric::new(metric, ns, "ns"));
    }
    metrics
}

/// The shared/contended machine's `run_trace`, its share over the bare
/// hierarchy walk, and the exact bus-wait share of `EXACT_REPLAYS`
/// replays. Zero where the workload runs no such machine.
fn interference(
    args: &Args,
    stream: &Stream,
    spans: &mut Spans,
    hierarchy_ns: f64,
    slice: Duration,
) -> (Vec<Metric>, String) {
    if args.workload != Workload::SeedSweepShared {
        let zero =
            |name| Metric::new(name, 0.0, if name.ends_with("share") { "share" } else { "ns" });
        return (
            vec![
                zero("interference.run_trace.ns_per_access"),
                zero("interference.merge_share"),
                zero("interference.bus_wait_share"),
            ],
            "null".into(),
        );
    }
    let mut m = workload_machine(args.workload, stream.setup, HierarchyDepth::TwoLevel, args.seed);
    let mut epochs = Epochs::new(args.seed);
    let (mut cycles, before) = (0u64, m.contention_cycles());
    for r in 0..EXACT_REPLAYS {
        replay_machine(&mut m, stream, &mut epochs, r == 0);
        cycles += m.cycles();
        m.reset_counters();
    }
    let bus_wait = (m.contention_cycles() - before) as f64 / cycles.max(1) as f64;
    let fresh = workload_machine(args.workload, stream.setup, HierarchyDepth::TwoLevel, args.seed);
    let ns = machine_ns_per_op(
        spans,
        "interference.Machine::run_trace",
        fresh,
        stream,
        args.seed,
        slice,
    );
    (
        vec![
            Metric::new("interference.run_trace.ns_per_access", ns, "ns"),
            Metric::new("interference.merge_share", 1.0 - hierarchy_ns / ns, "share"),
            Metric::new("interference.bus_wait_share", bus_wait, "share"),
        ],
        format!(
            "{{\"cycles\": {cycles}, \"contention_cycles\": {}}}",
            m.contention_cycles() - before
        ),
    )
}

/// Per-scenario exact statistics of the serial campaign.
fn scenario_stats(result: &CampaignResult) -> String {
    let mut out = String::from("[");
    for (i, s) in result.scenarios.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let mean = s.summary.as_ref().map_or("null".into(), |m| json_number(m.mean));
        let pwcet = s.pwcet.map_or("null".into(), json_number);
        let _ = write!(
            out,
            "{sep}\n      {{\"key\": \"{}\", \"digest\": \"{:#018x}\", \"mean_cycles\": {mean}, \"pwcet_1e12\": {pwcet}}}",
            s.key, s.digest
        );
    }
    out.push_str("\n    ]");
    out
}

/// The traced pass: every per-layer metric, plus the trace document in
/// `.bench_work/traces/<workload>.json`.
pub fn traced_pass(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut expected = expected_digest(args);
    let started = Instant::now();
    let stream = Stream::build(args.workload, args.seed);

    let (metrics, agree, stats) = spans.time("traced_pass", |spans| {
        let fleet = spans.time("fleet", |s| fleet(args, work, s, &mut tally, &mut expected)).0?;
        let result = fleet.serial.result.clone().ok_or("serial campaign did not finish")?;
        let (analyze_ms, agree, analyze_s) = spans.time("mbpta", |s| mbpta(s, &fleet, &result)).0;

        let left = (args.seconds - started.elapsed().as_secs_f64()).max(LAYER_SLICES * 0.05);
        let slice = Duration::from_secs_f64(left / LAYER_SLICES);
        // The serial launch's time outside `run_shard`: persistence and
        // report (replayed) plus the merge's EVT fits.
        let overhead = (fleet.persist_s + analyze_s) / fleet.serial.wall_s;
        let mut metrics = fleet.metrics;
        metrics.push(Metric::new("fleet.overhead_share", overhead, "share"));
        metrics.push(analyze_ms);
        metrics.extend(spans.time("sca", |s| sca_aes(args, s, slice)).0?);
        metrics.push(spans.time("rtos", |s| rtos(args, s, slice)).0?);
        metrics.extend(spans.time("sim", |s| sim(args, &stream, s, slice)).0);
        let hier = spans.time("hierarchy", |s| hierarchy(args, &stream, s, slice)).0;
        let hierarchy_ns = hier[0].value;
        metrics.extend(hier);
        let (inter, bus) =
            spans.time("interference", |s| interference(args, &stream, s, hierarchy_ns, slice)).0;
        metrics.extend(inter);
        metrics.extend(spans.time("core", |s| core_layers(args, &stream, s, slice)).0);
        let stats = format!(
            "{{\n    \"campaign_digest\": \"{:#018x}\",\n    \"scenarios\": {},\n    \"bus\": {bus}\n  }}",
            result.campaign_digest,
            scenario_stats(&result)
        );
        Ok::<_, String>((metrics, agree, stats))
    })
    .0?;

    let mut metrics = metrics;
    metrics.push(Metric::new("failed_share", tally.failed_share(), "share"));
    let dir = Path::new(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.json", args.workload.name()));
    std::fs::write(&path, spans.to_json(args.workload.name(), args.seed, &stats))
        .map_err(|e| e.to_string())?;
    eprintln!("[bench] trace written to {}", path.display());
    Ok(Outcome { tally, checks_passed: agree, metrics })
}
