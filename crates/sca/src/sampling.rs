//! Timing-sample collection for the Bernstein attack (paper §6.1.1).
//!
//! Two independent "processors" (machines) each run AES-128 plus the
//! surrounding application activity of a real ECU task. The attacker's
//! node uses a known key; the victim's key is secret. Per sample we
//! record `(plaintext, encryption cycles)`.
//!
//! The cache-relevant structure mirrors a real deployment:
//!
//! * the AES tables, key schedule, code and I/O buffers live at fixed
//!   addresses (same binary on both nodes);
//! * between encryptions the task touches its *application working
//!   set*, part of which conflicts with table cache sets — the
//!   self-interference that makes encryption time input-dependent
//!   (Bernstein needs no co-located attacker, §2.2);
//! * periodically the OS runs (its own process and seed), providing
//!   cross-process contention — the events RPCache randomizes;
//! * placement seeds are re-drawn every "hyperperiod" of jobs and
//!   caches flushed, per the paper's §5 seed-management protocol. The
//!   sharing policy (shared vs per-process) comes from the
//!   [`SetupKind`].

use tscache_aes::sim_cipher::{AesLayout, SimAes128};
use tscache_core::addr::Addr;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::parallel;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{HierarchyDepth, SeedSharing, SetupKind};
use tscache_interference::{ContentionConfig, SystemConfig};
use tscache_sim::layout::Layout;
use tscache_sim::machine::{Machine, TraceOp};

/// Which node a sample stream belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The profiled machine with the known key.
    Attacker,
    /// The target machine with the secret key.
    Victim,
}

impl Role {
    fn stream(self) -> u64 {
        match self {
            Role::Attacker => 0xa77a_c4e5,
            Role::Victim => 0x71c7_13b5,
        }
    }
}

/// One timing observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSample {
    /// The (random) plaintext block.
    pub plaintext: [u8; 16],
    /// Cycles the encryption took.
    pub cycles: u64,
}

/// Parameters of a sampling campaign.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Cache setup under attack.
    pub setup: SetupKind,
    /// Hierarchy depth the node runs on (two-level paper platform or
    /// the extended three-level variant with an L3).
    pub depth: HierarchyDepth,
    /// Number of encryptions to time per node.
    pub samples: u32,
    /// Master seed: everything (keys aside) derives from it.
    pub master_seed: u64,
    /// Jobs per seed epoch (hyperperiod); re-seed + flush at each
    /// boundary. 0 means a single epoch for the whole campaign.
    pub reseed_every: u32,
    /// Untimed warm-up jobs run after every epoch flush, so the timed
    /// samples measure the steady state rather than the compulsory-
    /// miss transient (which is layout-independent and would mask the
    /// contention channel on *every* setup).
    pub warmup_jobs: u32,
    /// Table lines the application working set aliases under modulo
    /// (interference intensity; the ablation harness sweeps this).
    pub app_target_lines: u32,
    /// If non-zero, way-partition the L1s: the crypto task fills ways
    /// `0..k`, the OS ways `k..assoc` (the §7 partitioning
    /// alternative). 0 = no partitioning.
    pub partition_task_ways: u32,
    /// When set, each node runs with active co-runner cores (FIR enemy
    /// kernels on their own hierarchies) contending for the shared
    /// bus, so the timed encryptions carry multicore interference.
    pub contention: Option<ContentionConfig>,
    /// When set, the node's last cache level is *shared* with its
    /// co-runner cores (`Machine::from_setup_shared`): enemy traffic
    /// evicts the crypto task's shared-level lines — the cross-core
    /// contention channel — unless `partition_llc_ways` isolates it.
    pub shared_llc: bool,
    /// If non-zero (shared-LLC nodes only), way-partition the shared
    /// level per core: the measured core's processes (task + OS) fill
    /// ways `0..k`, enemy cores ways `k..assoc` — the §7 partitioning
    /// ablation applied at the shared level. 0 = unpartitioned.
    pub partition_llc_ways: u32,
    /// Defense-zoo policy armed on the node's platform. The rotation
    /// defenses need `shared_llc` (validated); the others apply to any
    /// node.
    pub defense: DefenseKind,
}

impl SamplingConfig {
    /// Associativity of the paper platform's L1s (what
    /// `partition_task_ways` partitions).
    const L1_WAYS: u32 = 4;

    /// Associativity of the shared level at either depth (what
    /// `partition_llc_ways` partitions).
    const LLC_WAYS: u32 = 4;

    /// Validates the configuration, so campaign executors can reject a
    /// bad spec up front — as a [`ConfigError`], distinct from a
    /// worker crash — instead of panicking (or silently clamping)
    /// inside a worker thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use tscache_core::setup::SetupKind;
    /// use tscache_sca::sampling::SamplingConfig;
    ///
    /// let mut cfg = SamplingConfig::standard(SetupKind::TsCache, 100, 1);
    /// assert!(cfg.validate().is_ok());
    /// cfg.partition_llc_ways = 2; // but no shared LLC to partition
    /// assert!(cfg.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.samples == 0 {
            return Err(ConfigError::incompatible("sampling campaign needs samples > 0"));
        }
        if self.partition_task_ways >= Self::L1_WAYS {
            return Err(ConfigError::incompatible(format!(
                "partition_task_ways {} leaves no way for the OS (L1 has {} ways)",
                self.partition_task_ways,
                Self::L1_WAYS
            )));
        }
        if self.partition_llc_ways > 0 && !self.shared_llc {
            return Err(ConfigError::incompatible(
                "partition_llc_ways needs shared_llc: there is no shared level to partition",
            ));
        }
        if self.partition_llc_ways >= Self::LLC_WAYS {
            return Err(ConfigError::incompatible(format!(
                "partition_llc_ways {} leaves no way for the enemy cores (the shared level \
                 has {} ways)",
                self.partition_llc_ways,
                Self::LLC_WAYS
            )));
        }
        self.defense.validate_platform(self.shared_llc)
    }

    /// The defaults used by the figure harnesses: 32768-job seed epochs
    /// (a handful of epochs per campaign, so genuine shift-correlations
    /// accumulate across epochs while layout-pair coincidences wash
    /// out), OS ticks every 16 jobs, 8 warm-up jobs per epoch.
    pub fn standard(setup: SetupKind, samples: u32, master_seed: u64) -> Self {
        SamplingConfig {
            setup,
            depth: HierarchyDepth::TwoLevel,
            samples,
            master_seed,
            reseed_every: 32_768,
            warmup_jobs: 8,
            app_target_lines: 10,
            partition_task_ways: 0,
            contention: None,
            shared_llc: false,
            partition_llc_ways: 0,
            defense: DefenseKind::Off,
        }
    }
}

/// OS activity period in jobs: the OS runs before every 16th job.
const OS_NOISE_EVERY: u32 = 16;

/// A simulated ECU node running the AES task.
#[derive(Debug)]
pub struct CryptoNode {
    machine: Machine,
    aes: SimAes128,
    /// Application lines that (under modulo) alias chosen table sets,
    /// four ways deep.
    app_lines: Vec<Addr>,
    /// The task's broader working set (two full pages): under modulo it
    /// adds a uniform, harmless two lines per set, but under randomized
    /// placement its lines clump (Poisson), creating the set congestion
    /// that makes timing layout-dependent on MBPTA-class caches.
    background_lines: Vec<Addr>,
    /// Lines the OS touches on its ticks.
    os_lines: Vec<Addr>,
    task: ProcessId,
    cfg: SamplingConfig,
    role: Role,
    pt_rng: SplitMix64,
    /// Reusable encryption-trace buffer (the batch API's scratch
    /// space), so the million-encryption campaigns do not allocate per
    /// job.
    ops: Vec<TraceOp>,
}

impl CryptoNode {
    /// Builds a node for `role` with the given AES `key`, validating
    /// the configuration first.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when [`SamplingConfig::validate`] rejects `cfg`.
    pub fn try_new(cfg: SamplingConfig, role: Role, key: &[u8; 16]) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::build(cfg, role, key))
    }

    fn build(cfg: SamplingConfig, role: Role, key: &[u8; 16]) -> Self {
        // Random-and-Safe is a platform swap: resolve it up front so
        // the stored config (and its seed-sharing policy) reflect the
        // platform actually built.
        let cfg = SamplingConfig { setup: cfg.defense.effective_setup(cfg.setup), ..cfg };
        let mut layout = Layout::new(0x10_0000);
        let aes_layout = AesLayout::install(&mut layout, "aes");
        let app = layout.alloc("app", 4 * 4096, 4096);
        let background = layout.alloc("background", 2 * 4096, 4096);
        let os = layout.alloc("os", 2 * 4096, 4096);

        let mut machine = if cfg.shared_llc {
            Machine::from_setup_shared(
                cfg.setup,
                cfg.depth,
                SystemConfig,
                cfg.master_seed ^ role.stream(),
            )
        } else {
            Machine::from_setup_depth(cfg.setup, cfg.depth, cfg.master_seed ^ role.stream())
        };
        machine.apply_defense(cfg.defense);
        // Multicore deployment: enemy co-runners on the shared bus
        // (and, on shared-LLC nodes, inside the shared cache).
        if let Some(con) = &cfg.contention {
            machine.attach_standard_enemies(
                cfg.setup,
                cfg.depth,
                con,
                mix64(cfg.master_seed ^ role.stream() ^ 0xb05_u64),
            );
        }
        // §7 at the shared level: per-core way partitions.
        if cfg.shared_llc && cfg.partition_llc_ways > 0 {
            let enemy_pids: Vec<ProcessId> =
                machine.co_runners().iter().map(|co| co.pid()).collect();
            // `validate()` guarantees a shared level when
            // `cfg.shared_llc` is set; stay panic-free regardless.
            if let Some(llc) = machine.shared_llc_mut() {
                let (k, ways) = (cfg.partition_llc_ways, llc.cache().geometry().ways());
                llc.set_way_partition(ProcessId::new(1), 0, k);
                llc.set_way_partition(ProcessId::OS, 0, k);
                for pid in enemy_pids {
                    llc.set_way_partition(pid, k, ways);
                }
            }
        }
        // RPCache protects the crypto tables (P-bit pages) — on the
        // shared level too, where enemy cores contend.
        for t in 0..5 {
            let region = aes_layout.table(t);
            machine.hierarchy_mut().add_protected_range(region.base(), region.size());
            if let Some(llc) = machine.shared_llc_mut() {
                llc.add_protected_range(region.base(), region.size());
            }
        }
        // Optional §7-style way partitioning: task vs OS.
        if cfg.partition_task_ways > 0 {
            let (k, ways) = (cfg.partition_task_ways, SamplingConfig::L1_WAYS);
            machine.hierarchy_mut().set_l1_way_partition(ProcessId::new(1), 0, k);
            machine.hierarchy_mut().set_l1_way_partition(ProcessId::OS, k, ways);
        }

        // Application lines aliased (modulo) onto the sets of selected
        // TE0 and TE2 lines, 4 ways deep — enough to evict a 4-way set.
        let mut app_lines = Vec::new();
        let mut targets = Vec::new();
        for i in 0..(cfg.app_target_lines as u64).div_ceil(2).min(10) {
            targets.push(aes_layout.table(0).at(32 * (3 * i)));
            targets.push(aes_layout.table(2).at(32 * (3 * i + 1)));
        }
        targets.truncate(cfg.app_target_lines as usize);
        for target in &targets {
            let set = (target.as_u64() >> 5) & 127;
            for way in 0..4u64 {
                app_lines.push(Addr::new(app.base().as_u64() + way * 4096 + set * 32));
            }
        }

        // OS lines: eight sets aliasing TE1/TE3 lines, two ways deep.
        let mut os_lines = Vec::new();
        for i in 0..4u64 {
            for (t, l) in [(1u64, 5 * i), (3u64, 5 * i + 2)] {
                let set = (aes_layout.table(t as usize).at(32 * l).as_u64() >> 5) & 127;
                for way in 0..2u64 {
                    os_lines.push(Addr::new(os.base().as_u64() + way * 4096 + set * 32));
                }
            }
        }

        let background_lines: Vec<Addr> =
            (0..background.size() / 32).map(|i| background.at(i * 32)).collect();

        CryptoNode {
            machine,
            aes: SimAes128::new(key, aes_layout),
            app_lines,
            background_lines,
            os_lines,
            task: ProcessId::new(1),
            cfg,
            role,
            pt_rng: SplitMix64::new(mix64(cfg.master_seed ^ role.stream() ^ 0x9_1e57)),
            ops: Vec::with_capacity(256),
        }
    }

    /// The seed for `pid` in epoch `epoch`, following the setup's
    /// sharing policy.
    fn epoch_seed(&self, pid: ProcessId, epoch: u64) -> Seed {
        let base = mix64(self.cfg.master_seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match self.cfg.setup.seed_sharing() {
            SeedSharing::Irrelevant => Seed::ZERO,
            // One system-wide seed per epoch: both nodes, all processes.
            SeedSharing::Shared => Seed::new(base),
            // Unique per (node, process): the TSCache rule.
            SeedSharing::PerProcess => {
                Seed::new(mix64(base ^ self.role.stream() ^ (pid.as_u16() as u64) << 48))
            }
        }
    }

    fn start_epoch(&mut self, epoch: u64) {
        let task_seed = self.epoch_seed(self.task, epoch);
        let os_seed = self.epoch_seed(ProcessId::OS, epoch);
        self.machine.set_process_seed(self.task, task_seed);
        self.machine.set_process_seed(ProcessId::OS, os_seed);
        // §5: the hyperperiod boundary re-seeds and flushes.
        self.machine.flush_caches();
        // Untimed warm-up jobs repopulate the working set so that the
        // timed samples see the steady state.
        let mut warm_rng = SplitMix64::new(mix64(
            self.cfg.master_seed ^ self.role.stream() ^ epoch.wrapping_mul(0xd1ce),
        ));
        for _ in 0..self.cfg.warmup_jobs {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                *b = (warm_rng.next_u32() & 0xff) as u8;
            }
            self.aes.encrypt_with(&mut self.machine, &mut self.ops, &pt);
            self.app_activity();
        }
    }

    fn app_activity(&mut self) {
        for i in 0..self.background_lines.len() {
            self.machine.load(self.background_lines[i]);
        }
        for i in 0..self.app_lines.len() {
            self.machine.load(self.app_lines[i]);
        }
    }

    fn os_tick(&mut self) {
        self.machine.context_switch(ProcessId::OS, 20);
        for i in 0..self.os_lines.len() {
            self.machine.load(self.os_lines[i]);
        }
        self.machine.context_switch(self.task, 20);
    }

    fn random_plaintext(&mut self) -> [u8; 16] {
        let a = self.pt_rng.next_u64().to_le_bytes();
        let b = self.pt_rng.next_u64().to_le_bytes();
        let mut pt = [0u8; 16];
        pt[..8].copy_from_slice(&a);
        pt[8..].copy_from_slice(&b);
        pt
    }

    /// Runs the campaign and returns one [`TimingSample`] per job.
    pub fn collect(&mut self) -> Vec<TimingSample> {
        let mut out = Vec::with_capacity(self.cfg.samples as usize);
        self.machine.set_process(self.task);
        self.start_epoch(0);
        let mut job = 0u32;
        while out.len() < self.cfg.samples as usize {
            if self.cfg.reseed_every > 0 && job > 0 && job.is_multiple_of(self.cfg.reseed_every) {
                self.start_epoch((job / self.cfg.reseed_every) as u64);
            }
            let os_adjacent = job.is_multiple_of(OS_NOISE_EVERY);
            if os_adjacent {
                self.os_tick();
            }
            let pt = self.random_plaintext();
            self.machine.reset_counters();
            self.aes.encrypt_with(&mut self.machine, &mut self.ops, &pt);
            let cycles = self.machine.cycles();
            // Jobs right after an OS tick carry OS-eviction noise that a
            // real attacker trivially filters as outliers; keep them out
            // of the timed stream (they still ran, disturbing the cache).
            if !os_adjacent {
                out.push(TimingSample { plaintext: pt, cycles });
            }
            self.app_activity();
            job += 1;
        }
        out
    }

    /// The node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Borrows the underlying machine (statistics inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

/// Collects attacker and victim sample streams for a setup, as the
/// paper's experiment does (§6.1.1): the attacker's key is known, the
/// victim's is secret.
///
/// # Errors
///
/// [`ConfigError`] when [`SamplingConfig::validate`] rejects `cfg`,
/// before any node is built.
pub fn collect_pair(
    cfg: SamplingConfig,
    attacker_key: &[u8; 16],
    victim_key: &[u8; 16],
) -> Result<(Vec<TimingSample>, Vec<TimingSample>), ConfigError> {
    cfg.validate()?;
    // The two nodes are independent machines with independent RNG
    // streams: run them concurrently (deterministically — each stream
    // is a pure function of (master seed, role), so the result is
    // identical for every thread count).
    Ok(parallel::join(
        || CryptoNode::build(cfg, Role::Attacker, attacker_key).collect(),
        || CryptoNode::build(cfg, Role::Victim, victim_key).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(setup: SetupKind, samples: u32) -> SamplingConfig {
        SamplingConfig::standard(setup, samples, 0xbeef)
    }

    fn new_node(cfg: SamplingConfig, role: Role, key: &[u8; 16]) -> CryptoNode {
        CryptoNode::try_new(cfg, role, key).expect("valid sampling config")
    }

    #[test]
    fn collects_requested_samples() {
        let mut node = new_node(cfg(SetupKind::Deterministic, 50), Role::Victim, &[1; 16]);
        let samples = node.collect();
        assert_eq!(samples.len(), 50);
        assert!(samples.iter().all(|s| s.cycles > 0));
    }

    #[test]
    fn deterministic_timing_varies_with_plaintext() {
        // The engineered app interference makes encryption time depend
        // on which table lines each plaintext touches.
        let mut node = new_node(cfg(SetupKind::Deterministic, 300), Role::Victim, &[7; 16]);
        let samples = node.collect();
        let distinct: std::collections::BTreeSet<u64> =
            samples.iter().skip(10).map(|s| s.cycles).collect();
        assert!(distinct.len() > 3, "only {} distinct timings", distinct.len());
    }

    #[test]
    fn plaintexts_differ_between_roles_and_repeat_per_role() {
        let mut v1 = new_node(cfg(SetupKind::Deterministic, 5), Role::Victim, &[1; 16]);
        let mut v2 = new_node(cfg(SetupKind::Deterministic, 5), Role::Victim, &[2; 16]);
        let mut a = new_node(cfg(SetupKind::Deterministic, 5), Role::Attacker, &[1; 16]);
        let s1 = v1.collect();
        let s2 = v2.collect();
        let s3 = a.collect();
        // Same role, same master seed → same plaintext stream.
        assert_eq!(s1[0].plaintext, s2[0].plaintext);
        // Different role → different stream.
        assert_ne!(s1[0].plaintext, s3[0].plaintext);
    }

    #[test]
    fn shared_seed_setups_agree_across_roles() {
        let a = new_node(cfg(SetupKind::Mbpta, 1), Role::Attacker, &[0; 16]);
        let v = new_node(cfg(SetupKind::Mbpta, 1), Role::Victim, &[1; 16]);
        let pid = ProcessId::new(1);
        assert_eq!(a.epoch_seed(pid, 3), v.epoch_seed(pid, 3));
        assert_ne!(a.epoch_seed(pid, 3), a.epoch_seed(pid, 4));
    }

    #[test]
    fn per_process_seed_setups_disagree_across_roles() {
        let a = new_node(cfg(SetupKind::TsCache, 1), Role::Attacker, &[0; 16]);
        let v = new_node(cfg(SetupKind::TsCache, 1), Role::Victim, &[1; 16]);
        let pid = ProcessId::new(1);
        assert_ne!(a.epoch_seed(pid, 3), v.epoch_seed(pid, 3));
        // And the OS seed differs from the task seed.
        assert_ne!(v.epoch_seed(pid, 3), v.epoch_seed(ProcessId::OS, 3));
    }

    #[test]
    fn three_level_campaign_runs_and_reproduces() {
        let mut c = cfg(SetupKind::TsCache, 30);
        c.depth = HierarchyDepth::ThreeLevel;
        let run = || new_node(c, Role::Victim, &[3; 16]).collect();
        let a = run();
        assert_eq!(a.len(), 30);
        assert_eq!(a, run());
        // The node really runs on a 3-level hierarchy.
        let node = new_node(c, Role::Victim, &[3; 16]);
        assert!(node.machine().hierarchy().l3().is_some());
    }

    #[test]
    fn contended_campaign_runs_and_reproduces() {
        let mut c = cfg(SetupKind::TsCache, 30);
        c.contention = Some(ContentionConfig { write_back: false, ..ContentionConfig::default() });
        // Tight epochs with no warm-up: timed encryptions run against
        // a cold cache, so they genuinely fetch over the shared bus.
        c.reseed_every = 4;
        c.warmup_jobs = 0;
        let run = || new_node(c, Role::Victim, &[3; 16]).collect();
        let contended = run();
        assert_eq!(contended.len(), 30);
        assert_eq!(contended, run());
        // The enemy cores really contend: with cache behaviour pinned
        // (write-through everywhere), every timed encryption costs at
        // least its solo counterpart and some pay real bus waits.
        let mut solo_cfg = c;
        solo_cfg.contention = None;
        let solo = new_node(solo_cfg, Role::Victim, &[3; 16]).collect();
        assert!(solo
            .iter()
            .zip(&contended)
            .all(|(s, c)| c.cycles >= s.cycles && c.plaintext == s.plaintext));
        assert!(solo.iter().zip(&contended).any(|(s, c)| c.cycles > s.cycles));
        let mut node = new_node(c, Role::Victim, &[3; 16]);
        assert!(node.machine().is_contended());
        node.collect();
        assert!(node.machine().contention_cycles() > 0);
    }

    #[test]
    fn shared_llc_campaign_reproduces() {
        let mut c = cfg(SetupKind::TsCache, 30);
        c.shared_llc = true;
        c.contention = Some(ContentionConfig { write_back: false, ..ContentionConfig::default() });
        c.reseed_every = 4;
        c.warmup_jobs = 0;
        let run = |cfg: SamplingConfig| new_node(cfg, Role::Victim, &[3; 16]).collect();
        let contended = run(c);
        assert_eq!(contended.len(), 30);
        assert_eq!(contended, run(c), "shared-LLC campaign must be reproducible");
        let node = new_node(c, Role::Victim, &[3; 16]);
        assert!(node.machine().shared_llc().is_some());
        assert!(node.machine().is_contended());
    }

    #[test]
    fn shared_llc_campaign_sees_cross_core_evictions_unless_partitioned() {
        // A single-epoch campaign long enough for the enemy's stream
        // to pressure the 256 KiB shared level: the crypto task loses
        // lines to the enemy core — unless per-core way partitions
        // isolate it (§7 at the shared level).
        let mut c = cfg(SetupKind::TsCache, 1500);
        c.shared_llc = true;
        c.contention = Some(ContentionConfig { write_back: false, ..ContentionConfig::default() });
        let run = |cfg: SamplingConfig| {
            let mut node = new_node(cfg, Role::Victim, &[3; 16]);
            node.collect();
            let stats = *node.machine().shared_llc().expect("shared platform").cache().stats();
            (stats.evictions(), stats.cross_process_evictions())
        };
        let (evictions, cross) = run(c);
        assert!(evictions > 0, "shared level never filled");
        assert!(cross > 0, "enemy never evicted a task line in the shared LLC");
        let mut part = c;
        part.partition_llc_ways = 2;
        let (_, cross_part) = run(part);
        assert_eq!(cross_part, 0, "partitioned shared LLC still saw cross-core evictions");
    }

    #[test]
    fn campaign_is_reproducible() {
        let run = || {
            let mut node = new_node(cfg(SetupKind::TsCache, 40), Role::Victim, &[9; 16]);
            node.collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validate_rejects_bad_knob_combinations() {
        let ok = cfg(SetupKind::TsCache, 10);
        assert!(ok.validate().is_ok());
        assert!(CryptoNode::try_new(ok, Role::Victim, &[1; 16]).is_ok());

        let mut zero = ok;
        zero.samples = 0;
        assert!(zero.validate().is_err());

        let mut all_ways = ok;
        all_ways.partition_task_ways = 4;
        assert!(all_ways.validate().unwrap_err().to_string().contains("partition_task_ways"));

        let mut llc_no_shared = ok;
        llc_no_shared.partition_llc_ways = 2;
        let err = CryptoNode::try_new(llc_no_shared, Role::Victim, &[1; 16]).unwrap_err();
        assert!(err.to_string().contains("shared_llc"));
        assert!(collect_pair(llc_no_shared, &[0; 16], &[1; 16]).is_err());

        let mut llc_all_ways = ok;
        llc_all_ways.shared_llc = true;
        llc_all_ways.partition_llc_ways = 4;
        let err = CryptoNode::try_new(llc_all_ways, Role::Victim, &[1; 16]).unwrap_err();
        assert!(err.to_string().contains("partition_llc_ways"), "{err}");
        assert!(collect_pair(llc_all_ways, &[0; 16], &[1; 16]).is_err());
    }

    #[test]
    fn way_limits_match_the_built_platform() {
        for depth in [HierarchyDepth::TwoLevel, HierarchyDepth::ThreeLevel] {
            let mut c = cfg(SetupKind::TsCache, 1);
            c.depth = depth;
            c.shared_llc = true;
            let node = new_node(c, Role::Victim, &[1; 16]);
            let llc = node.machine().shared_llc().expect("shared platform");
            assert_eq!(llc.cache().geometry().ways(), SamplingConfig::LLC_WAYS, "{depth}");
            let l1d = node.machine().hierarchy().l1d();
            assert_eq!(l1d.geometry().ways(), SamplingConfig::L1_WAYS, "{depth}");
        }
    }

    #[test]
    fn collect_pair_returns_both_streams() {
        let (a, v) =
            collect_pair(cfg(SetupKind::Deterministic, 10), &[0; 16], &[1; 16]).expect("valid");
        assert_eq!(a.len(), 10);
        assert_eq!(v.len(), 10);
    }
}
