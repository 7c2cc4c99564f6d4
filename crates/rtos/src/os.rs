//! The TSCache OS support: seed management across a cyclic schedule
//! (paper §5 and Fig. 3).
//!
//! On every context switch between runnables of *different* SWCs the OS
//! drains the pipeline, saves the outgoing SWC's seed and restores the
//! incoming one. Once per hyperperiod it draws fresh random seeds and
//! flushes the caches, making execution times across hyperperiods
//! independent (the property §6.2.2 tests).

use crate::detector::{DetectorConfig, DetectorReport, SlidingWindowDetector};
use crate::model::{Application, SwcId};
use crate::schedule::Schedule;
use core::fmt;
use tscache_core::error::ConfigError;
use tscache_core::hierarchy::SharedLlc;
use tscache_core::pmu::{delta_u64, PmuSampler, PmuSnapshot};
use tscache_core::prng::SplitMix64;
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::SetupKind;
use tscache_core::stats::CacheStats;
use tscache_interference::{CoRunner, SystemConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::{Machine, TraceOp};
use tscache_telemetry::{Event, FlushScope, RecorderHandle};

/// How the OS assigns placement seeds (paper §5 discusses the spectrum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPolicy {
    /// One seed per SWC, fresh every hyperperiod — the TSCache rule.
    PerSwc,
    /// A single system-wide seed, fresh every hyperperiod — plain
    /// MBPTA management, attackable (§4).
    SharedGlobal,
    /// A fresh seed before every job release — the far end of the
    /// spectrum; maximal re-randomization, maximal flush cost.
    PerJob,
}

impl fmt::Display for SeedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SeedPolicy::PerSwc => "per-swc",
            SeedPolicy::SharedGlobal => "shared-global",
            SeedPolicy::PerJob => "per-job",
        };
        f.write_str(s)
    }
}

/// Bookkeeping cycles the OS charges per context switch, on top of the
/// pipeline drain.
const CONTEXT_SWITCH_CYCLES: u32 = 30;

/// OS configuration.
#[derive(Debug, Clone, Copy)]
pub struct OsConfig {
    /// Seed assignment policy.
    pub seed_policy: SeedPolicy,
    /// RNG seed for the OS's seed generator.
    pub rng_seed: u64,
    /// Run the platform with a *shared* last-level cache: the measured
    /// core and every pinned-runnable core resolve their last level
    /// against one shared L2, so pinned runnables perturb the measured
    /// core's cache state (not just its bus timing). Pinned runnables
    /// share the application's address space — the same ECU image —
    /// so shared-data hits across cores are part of the model here.
    pub shared_llc: bool,
    /// Keep the shared ECU image *coherent* (shared-LLC platforms
    /// only): the whole application image is declared a coherent
    /// region — cross-core writes invalidate remote copies, flushes
    /// drain platform-wide, and the shared level enforces *inclusion*
    /// over the image (evicting a tracked line back-invalidates every
    /// private copy). The synthetic workloads are read-only over their
    /// data, so the upgrade path stays silent, but inclusion itself is
    /// not free: shared-level capacity evictions now reach into the
    /// private levels, a real time-predictability cost the OS test
    /// suite pins as deterministic.
    pub coherent_image: bool,
    /// Run the online attack detector alongside the schedule: a
    /// counting-mode PMU sampler cuts counter deltas at op-window
    /// boundaries and a sliding-window detector scores them (see
    /// [`crate::detector`]). `None` (the default) costs nothing.
    pub detector: Option<DetectorConfig>,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            seed_policy: SeedPolicy::PerSwc,
            rng_seed: 0x05,
            shared_llc: false,
            coherent_image: false,
            detector: None,
        }
    }
}

/// Execution-time and overhead accounting for a simulated campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// `times[r]` = execution times of runnable `r`'s jobs, in schedule
    /// order across all hyperperiods.
    pub times: Vec<Vec<u64>>,
    /// Context switches performed.
    pub context_switches: u64,
    /// Seed register swaps performed.
    pub seed_swaps: u64,
    /// Whole-cache flushes performed.
    pub flushes: u64,
    /// Cycles spent on OS overhead (drains + bookkeeping).
    pub overhead_cycles: u64,
    /// Cycles spent executing runnables.
    pub work_cycles: u64,
    /// Cycles core 0 lost to shared-bus queuing (non-zero only when
    /// runnables are pinned to other cores).
    pub bus_wait_cycles: u64,
    /// Line copies coherence actions drained from the measured core's
    /// private levels over the campaign (zero unless the platform has
    /// a coherent region *and* something actually writes or flushes
    /// shared lines — read-only sharing stays in S state for free).
    pub coh_invalidations: u64,
    /// What the online detector observed, when
    /// [`OsConfig::detector`] enabled one (`None` otherwise).
    pub detection: Option<DetectorReport>,
}

impl CampaignReport {
    /// An empty report for an application with `runnables` runnables.
    pub fn new(runnables: usize) -> Self {
        CampaignReport {
            times: vec![Vec::new(); runnables],
            context_switches: 0,
            seed_swaps: 0,
            flushes: 0,
            overhead_cycles: 0,
            work_cycles: 0,
            bus_wait_cycles: 0,
            coh_invalidations: 0,
            detection: None,
        }
    }

    /// OS overhead as a fraction of total cycles (the §6.2.3
    /// "negligible overhead" claim).
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.overhead_cycles + self.work_cycles;
        if total == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / total as f64
        }
    }
}

/// The simulated ECU: machine + application + schedule + seed manager.
#[derive(Debug)]
pub struct TscacheOs {
    machine: Machine,
    app: Application,
    schedule: Schedule,
    config: OsConfig,
    workloads: Vec<RunnableWorkload>,
    rng: SplitMix64,
    /// Optional telemetry recorder (see
    /// [`attach_recorder`](Self::attach_recorder)); observer-only.
    recorder: Option<RecorderHandle>,
}

/// Per-runnable synthetic working set, pre-assembled as a memory trace
/// (code-block fetches interleaved with strided loads) so every job
/// replays through `Machine::run_trace`.
#[derive(Debug, Clone)]
struct RunnableWorkload {
    /// The job's memory operations in issue order.
    ops: Vec<TraceOp>,
    /// Instructions retired per job (code blocks + ALU burst).
    instrs: u32,
}

impl TscacheOs {
    /// Builds the OS simulation for `app` on a hierarchy of `setup`.
    /// Runnables pinned to cores other than 0 (see
    /// [`Runnable::on_core`](crate::model::Runnable::on_core)) are not
    /// scheduled on the measured core: each becomes a free-running
    /// co-runner replaying its workload trace on its own hierarchy,
    /// contending for the shared bus — their slots in
    /// [`CampaignReport::times`] stay empty.
    ///
    /// # Errors
    ///
    /// Configuration errors (a coherent image requested on a private
    /// platform or with more pinned runnables than the sharer directory
    /// can name, an invalid detector config) come back as typed
    /// [`ConfigError`]s instead of aborting, so a campaign runner can
    /// quarantine the scenario and keep going.
    pub fn try_new(
        app: Application,
        setup: SetupKind,
        config: OsConfig,
    ) -> Result<Self, ConfigError> {
        if config.coherent_image && !config.shared_llc {
            return Err(ConfigError::incompatible(
                "coherent_image requires a shared-LLC platform (shared_llc = true): \
                 a private hierarchy has no shared level to keep the image coherent in",
            ));
        }
        let pinned: Vec<usize> =
            (0..app.runnables().len()).filter(|&i| app.runnables()[i].core() != 0).collect();
        if config.coherent_image && pinned.len() >= SharedLlc::DIRECTORY_CORES {
            return Err(ConfigError::incompatible(format!(
                "coherent_image supports at most {} pinned runnables, got {}: the sharer \
                 directory names {} cores, the measured core included",
                SharedLlc::DIRECTORY_CORES - 1,
                pinned.len(),
                SharedLlc::DIRECTORY_CORES
            )));
        }
        if let Some(detector) = &config.detector {
            detector.validate()?;
        }
        let schedule = Schedule::build(&app);
        let mut layout = Layout::new(0x20_0000);
        let mut machine = if config.shared_llc {
            Machine::from_setup_shared(
                setup,
                tscache_core::setup::HierarchyDepth::TwoLevel,
                SystemConfig,
                config.rng_seed ^ 0x05_05,
            )
        } else {
            Machine::from_setup(setup, config.rng_seed ^ 0x05_05)
        };
        let workloads: Vec<RunnableWorkload> = app
            .runnables()
            .iter()
            .map(|r| {
                // Scale the working set with the budget: one load per
                // ~25 budgeted cycles, spread over pages, with a code
                // block re-fetched every 8 loads.
                let loads = (r.wcet_budget() / 25).clamp(16, 4096) as u32;
                let data_bytes = (loads as u64 * 32).next_power_of_two().max(4096);
                let code = layout.alloc(&format!("{}.code", r.name()), 512, 32);
                let data = layout.alloc(&format!("{}.data", r.name()), data_bytes, 4096);
                let mut ops = Vec::new();
                let mut blocks = 0u32;
                let mut offset = 0u64;
                for chunk in 0..loads {
                    if chunk % 8 == 0 {
                        machine.push_block_fetches(&mut ops, code.base(), 8);
                        blocks += 1;
                    }
                    ops.push(TraceOp::read(data.at(offset)));
                    offset = (offset + 96) % data.size();
                }
                RunnableWorkload { ops, instrs: 8 * blocks + (r.wcet_budget() / 4) as u32 }
            })
            .collect();
        if config.shared_llc && config.coherent_image {
            // The whole ECU image is one coherent region; co-runners
            // attached below inherit it through the machine.
            let base = 0x20_0000u64;
            machine.add_coherent_range(
                tscache_core::addr::Addr::new(base),
                layout.cursor().saturating_sub(base),
            );
        }
        // Pinned runnables become co-runner cores replaying their
        // workload trace against the shared bus; attaching them is what
        // makes the machine contend.
        for &i in &pinned {
            let r = &app.runnables()[i];
            let enemy_seed = config.rng_seed ^ 0xc0de ^ ((r.core() as u64) << 16) ^ i as u64;
            let enemy = if config.shared_llc {
                setup.build_private(tscache_core::setup::HierarchyDepth::TwoLevel, enemy_seed)
            } else {
                setup.build(enemy_seed)
            };
            machine.add_co_runner(CoRunner::new(
                enemy,
                r.swc().process_id(),
                workloads[i].ops.as_slice().into(),
            ));
        }
        Ok(TscacheOs {
            machine,
            app,
            schedule,
            config,
            workloads,
            rng: SplitMix64::new(config.rng_seed),
            recorder: None,
        })
    }

    /// Attaches a telemetry recorder to the campaign: schedule slices,
    /// detector windows and OS flush boundaries are emitted alongside
    /// the machine's own cache/bus events (the same handle is shared
    /// with the machine, so everything lands in one timeline). The
    /// recorder is strictly an observer — campaign reports are
    /// bit-identical with and without one.
    pub fn attach_recorder(&mut self, recorder: RecorderHandle) {
        self.machine.set_recorder(recorder.clone());
        self.recorder = Some(recorder);
    }

    /// The static schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The application.
    pub fn application(&self) -> &Application {
        &self.app
    }

    /// The shared last-level cache's statistics, when the platform has
    /// one. `None` on private platforms — callers must treat a missing
    /// shared level as data, never unwrap it (a campaign sweep mixes
    /// private and shared scenarios through this same path).
    pub fn shared_llc_stats(&self) -> Option<CacheStats> {
        self.machine.shared_llc().map(|llc| *llc.cache().stats())
    }

    /// The shared last-level cache itself, when the platform has one.
    pub fn shared_llc_cache(&self) -> Option<&tscache_core::cache::Cache> {
        self.machine.shared_llc().map(|llc| llc.cache())
    }

    /// A PMU snapshot of everything the detector monitors: the
    /// measured core's private levels, the shared LLC when present,
    /// and the bus-wait / cycle totals.
    pub fn pmu_snapshot(&self) -> PmuSnapshot {
        let snap = PmuSnapshot::capture(self.machine.hierarchy())
            .with_bus_wait(self.machine.contention_cycles())
            .with_cycles(self.machine.cycles());
        match self.machine.shared_llc() {
            Some(llc) => snap.with_level(llc.cache().stats()),
            None => snap,
        }
    }

    /// The report-accounting snapshot: private hierarchy only, so the
    /// campaign counters keep their historical meaning (the shared
    /// level's own churn is not the measured core's).
    fn core_snapshot(&self) -> PmuSnapshot {
        PmuSnapshot::capture(self.machine.hierarchy())
            .with_bus_wait(self.machine.contention_cycles())
    }

    fn reseed_all(&mut self, report: &mut CampaignReport) {
        let mut assignments: Vec<(ProcessId, Seed)> = Vec::new();
        match self.config.seed_policy {
            SeedPolicy::SharedGlobal => {
                let seed = Seed::random(&mut self.rng);
                for swc in self.app.swcs() {
                    assignments.push((swc.process_id(), seed));
                    report.seed_swaps += 1;
                }
                assignments.push((ProcessId::OS, seed));
            }
            SeedPolicy::PerSwc | SeedPolicy::PerJob => {
                for swc in self.app.swcs() {
                    assignments.push((swc.process_id(), Seed::random(&mut self.rng)));
                    report.seed_swaps += 1;
                }
                assignments.push((ProcessId::OS, Seed::random(&mut self.rng)));
            }
        }
        for &(pid, seed) in &assignments {
            self.machine.set_process_seed(pid, seed);
            // Pinned cores follow the same SWC seed schedule: a
            // runnable keeps one seed wherever it executes (§5).
            for co in self.machine.co_runners_mut() {
                co.hierarchy_mut().set_process_seed(pid, seed);
            }
        }
    }

    fn run_job(&mut self, runnable: usize) -> u64 {
        let w = &self.workloads[runnable];
        let start = self.machine.cycles();
        self.machine.run_trace(&w.ops);
        self.machine.execute(w.instrs);
        delta_u64(self.machine.cycles(), start)
    }

    /// Runs `hyperperiods` full passes of the schedule and returns the
    /// per-runnable execution times plus overhead accounting.
    pub fn run(&mut self, hyperperiods: u32) -> CampaignReport {
        let mut report = CampaignReport::new(self.app.runnables().len());
        let campaign_before = self.core_snapshot();
        // Counting-mode monitoring: one integer add per job on the
        // fast path; snapshots only at window boundaries.
        let mut monitor = self.config.detector.map(|cfg| {
            (PmuSampler::new(cfg.window_ops, self.pmu_snapshot()), SlidingWindowDetector::new(cfg))
        });
        let jobs: Vec<_> = self.schedule.jobs().to_vec();
        let mut current_swc: Option<SwcId> = None;
        for _ in 0..hyperperiods {
            // Hyperperiod boundary: new seeds + flush (§5).
            let t0 = self.machine.cycles();
            self.reseed_all(&mut report);
            self.machine.flush_caches();
            report.flushes += 1;
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().record(t0, Event::CacheFlush { scope: FlushScope::Hyperperiod });
            }
            report.overhead_cycles += delta_u64(self.machine.cycles(), t0);
            if let Some((sampler, detector)) = monitor.as_mut() {
                // The OS owns this flush: swallow its counter churn
                // and mask the cold-restart window that follows.
                detector.note_flush();
                sampler.rebaseline(self.pmu_snapshot());
            }

            for job in &jobs {
                if self.app.runnables()[job.runnable].core() != 0 {
                    // Pinned elsewhere: runs as a co-runner, not on
                    // the measured core's schedule.
                    continue;
                }
                let swc = self.app.runnables()[job.runnable].swc();
                if current_swc != Some(swc) {
                    // Context switch: drain pipeline, save/restore seed.
                    let t0 = self.machine.cycles();
                    self.machine.context_switch(swc.process_id(), CONTEXT_SWITCH_CYCLES);
                    report.context_switches += 1;
                    report.seed_swaps += 1;
                    report.overhead_cycles += delta_u64(self.machine.cycles(), t0);
                    current_swc = Some(swc);
                }
                if self.config.seed_policy == SeedPolicy::PerJob {
                    let seed = Seed::random(&mut self.rng);
                    self.machine.set_process_seed(swc.process_id(), seed);
                    report.seed_swaps += 1;
                    // Per-job reseed requires flushing that SWC's lines
                    // for consistency (§5) — at every level it might
                    // hold them, the shared one included.
                    self.machine.hierarchy_mut().flush_process(swc.process_id());
                    if let Some(llc) = self.machine.shared_llc_mut() {
                        llc.flush_process(swc.process_id());
                    }
                    report.flushes += 1;
                    if let Some(rec) = &self.recorder {
                        rec.borrow_mut().record(
                            self.machine.cycles(),
                            Event::CacheFlush { scope: FlushScope::ProcessSwitch },
                        );
                    }
                    if let Some((sampler, detector)) = monitor.as_mut() {
                        detector.note_flush();
                        sampler.rebaseline(self.pmu_snapshot());
                    }
                }
                let t_job = self.machine.cycles();
                let cycles = self.run_job(job.runnable);
                report.work_cycles += cycles;
                report.times[job.runnable].push(cycles);
                if let Some(rec) = &self.recorder {
                    rec.borrow_mut().record(
                        t_job,
                        Event::ScheduleSlice { runnable: job.runnable as u16, swc: swc.0, cycles },
                    );
                }
                if let Some((sampler, detector)) = monitor.as_mut() {
                    if sampler.note_ops(self.workloads[job.runnable].ops.len() as u64) {
                        let delta = sampler.cut(self.pmu_snapshot());
                        let scored_before = detector.report().windows;
                        let fired = detector.ingest(&delta).is_some();
                        if let Some(rec) = &self.recorder {
                            let rep = detector.report();
                            // Masked windows score nothing — no event.
                            if rep.windows > scored_before {
                                rec.borrow_mut().record(
                                    self.machine.cycles(),
                                    Event::DetectorWindow {
                                        window: rep.windows - 1,
                                        score: rep.scores.last().copied().unwrap_or(0.0),
                                        fired,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
        let campaign_delta = self.core_snapshot().delta(&campaign_before);
        report.bus_wait_cycles = campaign_delta.bus_wait_cycles;
        report.coh_invalidations = campaign_delta.total().coh_invalidations;
        report.detection = monitor.map(|(_, detector)| detector.into_report());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_os(app: Application, setup: SetupKind, config: OsConfig) -> TscacheOs {
        TscacheOs::try_new(app, setup, config).expect("valid OS config")
    }

    fn os(setup: SetupKind, policy: SeedPolicy) -> TscacheOs {
        let config = OsConfig { seed_policy: policy, ..OsConfig::default() };
        new_os(Application::figure3_example(), setup, config)
    }

    #[test]
    fn runs_expected_job_counts() {
        let mut sim = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let report = sim.run(10);
        // R1 and R2: 2 jobs per hyperperiod; R3..R5: 1.
        assert_eq!(report.times[0].len(), 20);
        assert_eq!(report.times[1].len(), 20);
        assert_eq!(report.times[2].len(), 10);
        assert_eq!(report.flushes, 10);
    }

    #[test]
    fn context_switch_and_seed_counts() {
        let mut sim = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let report = sim.run(4);
        // 4 SWC switches per hyperperiod (see schedule tests), plus the
        // first-ever switch into SWC1 on the very first job; later
        // hyperperiods start in the SWC the previous one ended in (SWC2
        // at job R2@10ms) so the boundary switch is counted in the 4.
        assert!(report.context_switches >= 16, "{}", report.context_switches);
        // 3 per-SWC seeds per hyperperiod + 1 per context switch.
        assert!(report.seed_swaps >= 12 + report.context_switches);
    }

    #[test]
    fn overhead_is_small_fraction() {
        let mut sim = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let report = sim.run(20);
        assert!(
            report.overhead_fraction() < 0.01,
            "overhead {:.4} not negligible",
            report.overhead_fraction()
        );
    }

    #[test]
    fn per_job_policy_flushes_more() {
        let mut a = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let mut b = os(SetupKind::TsCache, SeedPolicy::PerJob);
        let ra = a.run(5);
        let rb = b.run(5);
        assert!(rb.flushes > ra.flushes);
        assert!(rb.seed_swaps > ra.seed_swaps);
    }

    #[test]
    fn shared_global_gives_all_swcs_the_same_seed() {
        let config = OsConfig { seed_policy: SeedPolicy::SharedGlobal, ..OsConfig::default() };
        let mut sim = new_os(Application::figure3_example(), SetupKind::Mbpta, config);
        let mut report = CampaignReport::new(0);
        sim.reseed_all(&mut report);
        let h = sim.machine.hierarchy();
        let s1 = h.l1d().seed(SwcId(1).process_id());
        let s2 = h.l1d().seed(SwcId(2).process_id());
        assert_eq!(s1, s2);
    }

    #[test]
    fn per_swc_gives_distinct_seeds() {
        let mut sim = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let mut report = CampaignReport::new(0);
        sim.reseed_all(&mut report);
        let h = sim.machine.hierarchy();
        let s1 = h.l1d().seed(SwcId(1).process_id());
        let s2 = h.l1d().seed(SwcId(2).process_id());
        let s3 = h.l1d().seed(SwcId(3).process_id());
        assert_ne!(s1, s2);
        assert_ne!(s2, s3);
    }

    #[test]
    fn pinned_runnables_become_co_runners() {
        use crate::model::{Runnable, SwcId};
        use core::time::Duration;
        let mut app = Application::figure3_example();
        app.add(Runnable::new("enemy", SwcId(9), Duration::from_millis(20), 60_000).on_core(1));
        let mut sim = new_os(app, SetupKind::TsCache, OsConfig::default());
        let report = sim.run(6);
        // The pinned runnable is never scheduled on core 0…
        assert!(report.times[5].is_empty(), "pinned runnable ran on the measured core");
        // …but its co-runner traffic delays the scheduled jobs.
        assert!(report.bus_wait_cycles > 0, "co-runner never contended on the bus");
        // Scheduled runnables still execute their full job counts.
        assert_eq!(report.times[0].len(), 12);
        assert_eq!(report.times[2].len(), 6);
    }

    #[test]
    fn contended_campaign_dominates_solo_and_reproduces() {
        use crate::model::{Runnable, SwcId};
        use core::time::Duration;
        let contended_app = || {
            let mut app = Application::figure3_example();
            app.add(Runnable::new("enemy", SwcId(9), Duration::from_millis(20), 60_000).on_core(1));
            app
        };
        // Deterministic caches: placement ignores seeds, so the solo
        // and contended campaigns execute identical core-0 schedules
        // and contention can only add cycles, job by job. (On
        // randomized setups the extra SWC shifts the seed stream and
        // the comparison is only distributional.)
        let run =
            |app: Application| new_os(app, SetupKind::Deterministic, OsConfig::default()).run(4);
        let solo = run(Application::figure3_example());
        let contended = run(contended_app());
        let again = run(contended_app());
        assert_eq!(contended.times, again.times, "contended campaign must be reproducible");
        assert_eq!(contended.bus_wait_cycles, again.bus_wait_cycles);
        // Same seeds, same schedule on core 0: contention only adds.
        for (r, (s, c)) in solo.times.iter().zip(&contended.times).enumerate() {
            for (a, b) in s.iter().zip(c) {
                assert!(b >= a, "runnable {r}: contended job cheaper than solo ({b} < {a})");
            }
        }
        assert_eq!(
            contended.work_cycles,
            solo.work_cycles + contended.bus_wait_cycles,
            "contention delta must be exactly the bus/MSHR cycles"
        );
    }

    #[test]
    fn shared_llc_campaign_reproduces_and_contends_in_the_shared_level() {
        use crate::model::{Runnable, SwcId};
        use core::time::Duration;
        let contended_app = || {
            let mut app = Application::figure3_example();
            app.add(Runnable::new("enemy", SwcId(9), Duration::from_millis(20), 60_000).on_core(1));
            app
        };
        let config = OsConfig { shared_llc: true, ..OsConfig::default() };
        let run = || {
            let mut sim = new_os(contended_app(), SetupKind::TsCache, config);
            let report = sim.run(6);
            let llc = sim.shared_llc_stats().unwrap_or_default();
            (report.times.clone(), report.bus_wait_cycles, llc)
        };
        let (times, wait, llc) = run();
        assert_eq!(run(), (times.clone(), wait, llc), "shared campaign must reproduce");
        assert!(wait > 0, "pinned runnable never delayed the measured core");
        assert!(llc.accesses() > 0, "shared level never engaged");
        // The pinned runnable is never scheduled on core 0, but the
        // schedule still runs in full.
        assert!(times[5].is_empty());
        assert_eq!(times[0].len(), 12);
    }

    #[test]
    fn per_job_reseed_keeps_the_shared_llc_consistent() {
        // A per-job reseed moves the SWC's lines to new shared-level
        // sets; without the accompanying LLC flush_process, stale
        // copies survive at the old placement and a line ends up
        // resident twice — the §5 consistency violation this pins.
        let config =
            OsConfig { shared_llc: true, seed_policy: SeedPolicy::PerJob, ..OsConfig::default() };
        let mut sim = new_os(Application::figure3_example(), SetupKind::TsCache, config);
        sim.run(3);
        let Some(llc) = sim.shared_llc_cache() else {
            panic!("shared_llc config must build a shared platform")
        };
        let mut seen = std::collections::BTreeSet::new();
        for (_, _, line, _) in llc.contents() {
            assert!(seen.insert(line.as_u64()), "line {line:?} resident twice in the shared LLC");
        }
    }

    #[test]
    fn coherent_image_campaign_is_inclusive_and_deterministic() {
        use crate::model::{Runnable, SwcId};
        use core::time::Duration;
        // Arming MSI coherence over the whole ECU image makes the
        // shared level *inclusive* over it: its capacity evictions
        // back-invalidate private copies — a genuine cost even for
        // read-only sharing (the upgrade path stays silent, since the
        // workloads never write shared lines). The campaign must see
        // that cost, account it, and stay bit-reproducible.
        let contended_app = || {
            let mut app = Application::figure3_example();
            app.add(Runnable::new("enemy", SwcId(9), Duration::from_millis(20), 60_000).on_core(1));
            app
        };
        let run = |coherent_image: bool| {
            let config = OsConfig { shared_llc: true, coherent_image, ..OsConfig::default() };
            let mut sim = new_os(contended_app(), SetupKind::TsCache, config);
            let report = sim.run(4);
            (report.times.clone(), report.bus_wait_cycles, report.coh_invalidations)
        };
        let (_, _, coh_off) = run(false);
        assert_eq!(coh_off, 0, "invalidations with no coherent region declared");
        let (times_on, wait_on, coh_on) = run(true);
        assert!(
            coh_on > 0,
            "inclusion never back-invalidated a private copy — the region is inert"
        );
        assert_eq!(run(true), (times_on, wait_on, coh_on), "coherent campaign must reproduce");
    }

    #[test]
    fn private_platform_reports_no_shared_level_instead_of_aborting() {
        // The campaign report path must survive a private platform:
        // the shared level is simply absent, not a panic. (Pins the
        // fix for the old `.expect("shared platform")` pattern.)
        let mut sim = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let report = sim.run(3);
        assert!(sim.shared_llc_stats().is_none(), "private platform grew a shared level");
        assert!(sim.shared_llc_cache().is_none());
        assert_eq!(report.times[0].len(), 6, "campaign must still complete in full");
    }

    #[test]
    fn coherent_image_without_shared_llc_is_a_typed_error() {
        let config = OsConfig { coherent_image: true, ..OsConfig::default() };
        let Err(err) =
            TscacheOs::try_new(Application::figure3_example(), SetupKind::TsCache, config)
        else {
            panic!("coherent image on a private platform must be rejected")
        };
        assert!(err.to_string().contains("shared"), "unhelpful error: {err}");
    }

    #[test]
    fn coherent_image_beyond_the_sharer_directory_is_a_typed_error() {
        use crate::model::{Runnable, SwcId};
        use core::time::Duration;
        // The measured core plus 31 pinned runnables fill the 32-bit
        // sharer directory; a 32nd pinned runnable would alias core
        // 32's sharer bit onto core 0.
        let app = |pinned: usize| {
            let mut app = Application::figure3_example();
            for i in 0..pinned as u32 {
                let period = Duration::from_millis(20);
                app.add(Runnable::new(format!("pinned{i}"), SwcId(9), period, 400).on_core(1 + i));
            }
            app
        };
        let config = OsConfig { shared_llc: true, coherent_image: true, ..OsConfig::default() };
        let Err(err) = TscacheOs::try_new(app(32), SetupKind::TsCache, config) else {
            panic!("32 pinned runnables on a coherent image must be rejected")
        };
        assert!(err.to_string().contains("at most 31 pinned runnables"), "unhelpful error: {err}");
        assert!(TscacheOs::try_new(app(31), SetupKind::TsCache, config).is_ok());
    }

    #[test]
    fn invalid_detector_config_is_a_typed_error() {
        let detector = Some(crate::detector::DetectorConfig {
            window_ops: 0,
            ..crate::detector::DetectorConfig::default()
        });
        let config = OsConfig { detector, ..OsConfig::default() };
        assert!(
            TscacheOs::try_new(Application::figure3_example(), SetupKind::TsCache, config).is_err()
        );
    }

    #[test]
    fn benign_campaign_with_detector_stays_silent_and_reproduces() {
        let run = || {
            let config = OsConfig {
                detector: Some(crate::detector::DetectorConfig::default()),
                ..OsConfig::default()
            };
            let mut sim = new_os(Application::figure3_example(), SetupKind::TsCache, config);
            sim.run(8)
        };
        let report = run();
        let detection = report.detection.as_ref().expect("detector was configured");
        assert!(detection.windows > 0, "sampler never cut a window");
        assert!(
            !detection.detected(),
            "benign schedule raised {} events (max score {:.3})",
            detection.events.len(),
            detection.max_score
        );
        assert_eq!(run().detection, report.detection, "detector output must reproduce");
    }

    #[test]
    fn detector_events_reach_the_campaign_report() {
        // With the threshold floored, every scored window fires — the
        // typed-event plumbing into the report is what this pins; the
        // calibrated default threshold is exercised by the benign test
        // above and the campaign suites in `tscache-sca`.
        let detector = crate::detector::DetectorConfig {
            threshold: 0.0,
            ..crate::detector::DetectorConfig::default()
        };
        let config = OsConfig { detector: Some(detector), ..OsConfig::default() };
        let mut sim = new_os(Application::figure3_example(), SetupKind::TsCache, config);
        let report = sim.run(4);
        let detection = report.detection.expect("detector was configured");
        assert!(detection.windows > 0);
        assert_eq!(detection.events.len() as u64, detection.windows);
        assert!(detection.events.iter().all(|e| e.score > 0.0 && e.threshold == 0.0));
    }

    #[test]
    fn randomized_setup_times_vary_across_hyperperiods() {
        let mut sim = os(SetupKind::TsCache, SeedPolicy::PerSwc);
        let report = sim.run(30);
        let r2: std::collections::BTreeSet<u64> = report.times[1].iter().copied().collect();
        assert!(r2.len() > 5, "R2 times too uniform: {} distinct", r2.len());
    }

    #[test]
    fn deterministic_setup_times_stabilize() {
        let mut sim = os(SetupKind::Deterministic, SeedPolicy::PerSwc);
        let report = sim.run(5);
        // After the first hyperperiod, deterministic caches repeat the
        // same pattern every hyperperiod.
        let r1 = &report.times[0];
        assert_eq!(r1[2], r1[4]);
        assert_eq!(r1[3], r1[5]);
    }
}
