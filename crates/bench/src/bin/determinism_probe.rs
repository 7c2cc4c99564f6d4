//! Prints a stable digest of every parallel attack/MBPTA path so CI
//! can diff runs under different `RAYON_NUM_THREADS` values byte for
//! byte. Any dependence of results on the worker-thread count shows up
//! as a digest mismatch.
//!
//! The output is also pinned to the committed golden
//! `crates/bench/determinism_probe.golden`, so a change that moves
//! results the same way at every thread count fails too. Re-record the
//! golden only for an intended model change.
//!
//! Usage (the CI `determinism` job):
//!
//! ```sh
//! RAYON_NUM_THREADS=1 determinism_probe > t1.txt
//! RAYON_NUM_THREADS=8 determinism_probe > t8.txt
//! cmp t1.txt t8.txt
//! diff t1.txt crates/bench/determinism_probe.golden
//! ```

use tscache_core::defense::DefenseKind;
use tscache_core::hierarchy::TraceOp;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::{
    execute, CoRunner, ContentionConfig, CoreReport, CoreRun, EngineScratch, InterferenceOutcome,
};
use tscache_sca::bernstein::run_attack;
use tscache_sca::detect::{run_detection_campaign, DetectTarget, DetectionCampaignConfig};
use tscache_sca::evict_time::run_evict_time;
use tscache_sca::prime_probe::run_prime_probe;
use tscache_sca::sampling::{collect_pair, SamplingConfig};
use tscache_sim::layout::Layout;
use tscache_sim::synthetic::{MatrixMult, PointerChase};
use tscache_sim::workload::{collect_execution_times_par, MeasurementProtocol};
use tscache_telemetry::digest::Fnv64;

fn main() {
    // Prime+Probe and Evict+Time trial fan-outs.
    let pp = run_prime_probe(SetupKind::TsCache, DefenseKind::Off, 256, 11).expect("trials > 0");
    let mut d = Fnv64::new();
    d.write_f64(pp.accuracy);
    d.write_f64(pp.mean_evictions);
    println!("prime_probe {:016x}", d.finish());

    let et =
        run_evict_time(SetupKind::Deterministic, DefenseKind::Off, 256, 13).expect("trials > 0");
    let mut d = Fnv64::new();
    d.write_f64(et.detection_rate);
    println!("evict_time {:016x}", d.finish());

    // Bernstein sampling pair on both hierarchy depths. Frequent
    // reseeds from a cold start keep first touches missing down the
    // hierarchy, so the L3 line digests a walk that reaches the L3 (a
    // warm default campaign never misses the L2, and the two lines
    // would digest the same samples).
    for depth in HierarchyDepth::ALL {
        let mut cfg = SamplingConfig::standard(SetupKind::Mbpta, 1500, 0xd1);
        cfg.depth = depth;
        cfg.reseed_every = 64;
        cfg.warmup_jobs = 0;
        let (a, v) = collect_pair(cfg, &[7u8; 16], &[13u8; 16]).expect("valid sampling config");
        let mut d = Fnv64::new();
        for s in a.iter().chain(&v) {
            d.write_u64(s.cycles);
            for b in s.plaintext {
                d.write_u64(b as u64);
            }
        }
        println!("collect_pair_{depth} {:016x}", d.finish());
    }

    // The full Bernstein analysis pipeline (samples → per-byte sweep).
    let attack = run_attack(SamplingConfig::standard(SetupKind::Deterministic, 2000, 0xa7))
        .expect("valid sampling config");
    let mut d = Fnv64::new();
    for b in &attack.bytes {
        for &s in &b.scores {
            d.write_f64(s);
        }
    }
    println!("bernstein_attack {:016x}", d.finish());

    // A contended Bernstein campaign: co-runner cores, shared-bus
    // queuing and MSHR coalescing must stay bit-identical across
    // worker-thread counts too.
    let mut contended = SamplingConfig::standard(SetupKind::TsCache, 800, 0xc0);
    contended.contention = Some(ContentionConfig::default());
    contended.reseed_every = 64;
    contended.warmup_jobs = 2;
    let (a, v) = collect_pair(contended, &[7u8; 16], &[13u8; 16]).expect("valid sampling config");
    let mut d = Fnv64::new();
    for s in a.iter().chain(&v) {
        d.write_u64(s.cycles);
    }
    println!("contended_collect_pair {:016x}", d.finish());

    // Core-ordering split: permuting two *distinct* enemy cores may
    // shift queuing waits (clock ties resolve by core index — a
    // documented model property), but every cache/MSHR-decided
    // quantity must be ordering-invariant. Checked inside the probe
    // (any divergence aborts the run) so the CI digest diff also
    // covers it.
    let segment = |swap: bool| {
        let mk_enemy = |salt: u64| {
            let mut h = SetupKind::TsCache.build(77 + salt);
            h.set_process_seed(ProcessId::new(9), Seed::new(13 + salt));
            CoRunner::new(
                h,
                ProcessId::new(9),
                TraceOp::mixed_trace(0x11 + salt, 400 + 32 * salt as usize, 1 << 17).into(),
            )
        };
        let mut h = SetupKind::TsCache.build(1);
        h.set_process_seed(ProcessId::new(1), Seed::new(6));
        let mut co = vec![mk_enemy(0), mk_enemy(1)];
        if swap {
            co.swap(0, 1);
        }
        let trace = TraceOp::mixed_trace(0x22, 600, 1 << 18);
        execute(
            &mut [CoreRun { hierarchy: &mut h, pid: ProcessId::new(1), ops: &trace }],
            &mut co,
            None,
            None,
            &mut EngineScratch::default(),
        )
    };
    let (plain, swapped) = (segment(false), segment(true));
    let invariant =
        |r: &CoreReport| (r.ops, r.base_cycles, r.mem_reads, r.mem_writebacks, r.mshr_coalesced);
    // Only the measured core's cache/MSHR outcomes are ordering-
    // invariant in a segment (enemy progress legitimately depends on
    // the interleaving, since the loop stops with the primary); the
    // engine-level per-core invariance is pinned by the unit suite.
    assert_eq!(
        invariant(&plain.cores[0]),
        invariant(&swapped.cores[0]),
        "core ordering leaked into the measured core's cache/MSHR outcomes"
    );
    let mut d = Fnv64::new();
    d.write_u64(plain.cores[0].cycles);
    d.write_u64(plain.cores[0].bus_wait);
    d.write_u64(plain.bus.transactions);
    println!("contended_core_order {:016x}", d.finish());

    // Shared-LLC contended campaigns (enemy cores inside the shared
    // cache, not just on the bus), unpartitioned and per-core
    // partitioned: both must stay bit-identical across worker-thread
    // counts.
    for partition_llc_ways in [0u32, 2] {
        let mut shared = SamplingConfig::standard(SetupKind::TsCache, 800, 0x5c0);
        shared.shared_llc = true;
        shared.partition_llc_ways = partition_llc_ways;
        shared.contention = Some(ContentionConfig::default());
        shared.reseed_every = 64;
        shared.warmup_jobs = 2;
        let (a, v) = collect_pair(shared, &[7u8; 16], &[13u8; 16]).expect("valid sampling config");
        let mut d = Fnv64::new();
        for s in a.iter().chain(&v) {
            d.write_u64(s.cycles);
        }
        let tag = if partition_llc_ways == 0 { "open" } else { "partitioned" };
        println!("shared_llc_collect_pair_{tag} {:016x}", d.finish());
    }

    // Core-order sensitivity on the shared level: with a *full
    // per-core partition* (and disjoint address spaces), permuting the
    // enemy cores must not reach the measured core's cache outcomes —
    // asserted here, like the private-hierarchy property above. On an
    // unpartitioned shared LLC the interleaving legitimately shifts
    // shared-level contents, so only determinism (the digest) is
    // pinned there.
    let shared_segment = |swap: bool, partitioned: bool| -> InterferenceOutcome {
        use tscache_core::addr::Addr;
        let mk_enemy = |salt: u64| {
            let mut h = SetupKind::TsCache.build_private(HierarchyDepth::TwoLevel, 77 + salt);
            h.set_process_seed(ProcessId::new(9 + salt as u16), Seed::new(13 + salt));
            let ops: Vec<TraceOp> =
                TraceOp::mixed_trace(0x11 + salt, 400 + 32 * salt as usize, 1 << 17)
                    .into_iter()
                    .map(|op| TraceOp {
                        kind: op.kind,
                        addr: Addr::new(op.addr.as_u64() + ((1 + salt) << 25)),
                    })
                    .collect();
            CoRunner::new(h, ProcessId::new(9 + salt as u16), ops.into())
        };
        let mut h = SetupKind::TsCache.build_private(HierarchyDepth::TwoLevel, 1);
        h.set_process_seed(ProcessId::new(1), Seed::new(6));
        let mut llc = SetupKind::TsCache.build_shared_llc(HierarchyDepth::TwoLevel, 1);
        llc.set_process_seed(ProcessId::new(1), Seed::new(21));
        llc.set_process_seed(ProcessId::new(9), Seed::new(22));
        llc.set_process_seed(ProcessId::new(10), Seed::new(23));
        if partitioned {
            llc.set_way_partition(ProcessId::new(1), 0, 2);
            llc.set_way_partition(ProcessId::new(9), 2, 3);
            llc.set_way_partition(ProcessId::new(10), 3, 4);
        }
        let mut co = vec![mk_enemy(0), mk_enemy(1)];
        if swap {
            co.swap(0, 1);
        }
        let trace = TraceOp::mixed_trace(0x22, 600, 1 << 18);
        execute(
            &mut [CoreRun { hierarchy: &mut h, pid: ProcessId::new(1), ops: &trace }],
            &mut co,
            Some(&mut llc),
            None,
            &mut EngineScratch::default(),
        )
    };
    for partitioned in [false, true] {
        let (plain, swapped) =
            (shared_segment(false, partitioned), shared_segment(true, partitioned));
        let bus_transactions = plain.bus.transactions;
        let (plain, swapped) = (plain.cores[0], swapped.cores[0]);
        if partitioned {
            let iso = |r: &CoreReport| (r.ops, r.base_cycles, r.mem_reads, r.mem_writebacks);
            assert_eq!(
                iso(&plain),
                iso(&swapped),
                "core ordering reached a fully partitioned core's shared-level outcomes"
            );
        }
        let mut d = Fnv64::new();
        d.write_u64(plain.cycles);
        d.write_u64(plain.base_cycles);
        d.write_u64(swapped.cycles);
        d.write_u64(swapped.base_cycles);
        d.write_u64(bus_transactions);
        let tag = if partitioned { "partitioned" } else { "open" };
        println!("shared_llc_core_order_{tag} {:016x}", d.finish());
    }

    // The coherent Flush+Reload campaigns: sequential by construction,
    // but digested so any accidental thread- or run-order dependence
    // in the coherence machinery (directory, invalidation order, flush
    // broadcasts) shows up as a CI digest mismatch.
    for setup in [SetupKind::Deterministic, SetupKind::TsCache] {
        use tscache_sca::flush_reload::{run_flush_reload, FlushReloadConfig};
        let out = run_flush_reload(&FlushReloadConfig::standard(setup, 0xf1a5))
            .expect("valid flush+reload config");
        let mut d = Fnv64::new();
        for &s in &out.scores {
            d.write_u64(s as u64);
        }
        d.write_u64(out.reload_hits);
        d.write_u64(out.victim_invalidations);
        d.write_f64(out.correct_rank);
        let tag = match setup {
            SetupKind::Deterministic => "deterministic",
            _ => "tscache",
        };
        println!("flush_reload_{tag} {:016x}", d.finish());
    }

    // Online-detection campaigns: the benign/attack scenario pair fans
    // out over `parallel::join`, so the full ROC/latency/event outcome
    // must be worker-count invariant for every target.
    for target in DetectTarget::ALL {
        let cfg = DetectionCampaignConfig::standard(target, SetupKind::Deterministic, 17);
        let out = run_detection_campaign(&cfg).expect("valid campaign config");
        let mut d = Fnv64::new();
        d.write_u64(out.windows);
        for s in out.attack_scores.iter().chain(&out.benign_scores) {
            d.write_f64(*s);
        }
        for p in &out.roc.points {
            d.write_f64(p.threshold);
            d.write_f64(p.fpr);
            d.write_f64(p.tpr);
        }
        d.write_f64(out.operating_threshold);
        for e in &out.events {
            d.write_u64(e.window);
            d.write_f64(e.score);
        }
        d.write_u64(out.detection_latency.unwrap_or(u64::MAX));
        println!("detect_{} {:016x}", target.label(), d.finish());
    }

    // The RTOS-resident detector riding a monitored schedule: window
    // scores and event streams from the in-OS sampler must digest
    // identically across worker counts too.
    {
        use tscache_rtos::detector::DetectorConfig;
        use tscache_rtos::os::{OsConfig, TscacheOs};
        use tscache_rtos::Application;
        let config = OsConfig {
            rng_seed: 0xd7,
            detector: Some(DetectorConfig::default()),
            ..OsConfig::default()
        };
        let mut os = TscacheOs::try_new(Application::figure3_example(), SetupKind::TsCache, config)
            .expect("valid OS config");
        let report = os.run(12);
        let detection = report.detection.expect("detector was enabled");
        let mut d = Fnv64::new();
        d.write_u64(detection.windows);
        d.write_u64(detection.masked);
        for s in &detection.scores {
            d.write_f64(*s);
        }
        for e in &detection.events {
            d.write_u64(e.window);
            d.write_f64(e.score);
        }
        d.write_f64(detection.max_score);
        println!("rtos_detector {:016x}", d.finish());
    }

    // MBPTA parallel measurement collection over batched-replay
    // workloads.
    let protocol = MeasurementProtocol { runs: 64, ..Default::default() };
    for (name, times) in [
        (
            "mbpta_chase",
            collect_execution_times_par(SetupKind::Mbpta, &protocol, || {
                PointerChase::standard(&mut Layout::new(0x10_0000))
            })
            .expect("valid protocol"),
        ),
        (
            "mbpta_matrix",
            collect_execution_times_par(SetupKind::TsCache, &protocol, || {
                MatrixMult::standard(&mut Layout::new(0x10_0000))
            })
            .expect("valid protocol"),
        ),
    ] {
        let mut d = Fnv64::new();
        for t in times {
            d.write_u64(t);
        }
        println!("{name} {:016x}", d.finish());
    }

    // Solo trace replay through `access_batch_cycles` on every setup,
    // depth, write policy and per-level defense: fetches, reads,
    // writes and flushes of recently touched lines, replayed in chunks
    // that two processes take turns issuing. Digests the cycles, every
    // level's statistics and every level's dirty lines.
    {
        use tscache_core::cache::WritePolicy;
        let mut ops = TraceOp::mixed_trace(0x3a1c, 3000, 1 << 15);
        ops.extend(TraceOp::mixed_trace(0x3a1d, 3000, 1 << 19));
        for i in (37..ops.len()).step_by(37) {
            ops[i] = TraceOp::flush(ops[i - 5].addr);
        }
        let pids = [ProcessId::new(1), ProcessId::new(2)];
        let mut d = Fnv64::new();
        for setup in SetupKind::ALL {
            for depth in HierarchyDepth::ALL {
                for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                    for defense in [DefenseKind::Off, DefenseKind::Ttl, DefenseKind::Normalize] {
                        let mut h = setup.build_depth(depth, 0x3a1c);
                        h.set_write_policy(policy);
                        h.apply_defense(defense);
                        h.set_process_seed(pids[0], Seed::new(31));
                        h.set_process_seed(pids[1], Seed::new(32));
                        for (k, chunk) in ops.chunks(250).enumerate() {
                            d.write_u64(h.access_batch_cycles(pids[k % 2], chunk));
                        }
                        for cache in [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels()) {
                            let s = cache.stats();
                            for v in [
                                s.hits(),
                                s.misses(),
                                s.evictions(),
                                s.cross_process_evictions(),
                                s.writebacks(),
                                s.flushes(),
                                s.coh_invalidations(),
                                s.ttl_expiries(),
                                cache.dirty_lines() as u64,
                            ] {
                                d.write_u64(v);
                            }
                        }
                    }
                }
            }
        }
        println!("hierarchy_walk {:016x}", d.finish());
    }
}
