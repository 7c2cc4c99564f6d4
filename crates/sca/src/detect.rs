//! Online-detection campaigns: the repo's attacks run against the
//! sliding-window detector, scored with ROC curves.
//!
//! Each campaign runs the *same victim* twice — once beside a benign
//! co-task, once beside the attacker — while a [`PmuSampler`] cuts one
//! [`PmuDelta`] per `window_rounds` rounds. The two per-window score
//! traces (via [`SlidingWindowDetector::score`]) give:
//!
//! * a **ROC curve** over the full threshold sweep ([`RocCurve`],
//!   trapezoid AUC) — how separable attack windows are from benign
//!   ones under this detector configuration;
//! * a **zero-false-positive operating point**: the threshold is set
//!   to the benign maximum plus a margin, and the attack trace is
//!   replayed through the detector at that threshold, yielding typed
//!   [`DetectionEvent`]s and a **detection latency** in windows;
//! * the attacker's **key-recovery progress** per window, so latency
//!   can be read against how far the attack had gotten when caught.
//!
//! Three targets are wired ([`DetectTarget`]): Prime+Probe on a
//! time-shared L1 (cross-process eviction pressure — the harness
//! raises [`DetectorConfig::cross_weight`]), Flush+Reload through the
//! coherent shared LLC (invalidation storms), and a Bernstein-style
//! co-located thrasher amplifying AES table contention. An *evasion
//! axis* ([`EvasionMode`]) throttles or jitters the attacker to probe
//! how much stealth costs the detector.
//!
//! Everything derives from `master_seed`; traces for the benign and
//! attack scenarios are pure functions of the configuration, so
//! outcomes are bit-identical for any worker-thread count.

use crate::prime_probe::attacked_l1d;
use crate::{key_rank, random_block, seed_machine, shared_llc, TE0_LINES, VICTIM_KEY};
use tscache_aes::sim_cipher::{AesLayout, SimAes128};
use tscache_core::addr::{Addr, LineAddr};
use tscache_core::cache::Cache;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::parallel;
use tscache_core::pmu::{PmuDelta, PmuSampler, PmuSnapshot};
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::seed::ProcessId;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_interference::SystemConfig;
use tscache_rtos::detector::{DetectionEvent, DetectorConfig, SlidingWindowDetector};
use tscache_sim::layout::Layout;
use tscache_sim::machine::Machine;

/// Which attack the detector is scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectTarget {
    /// Prime+Probe on a time-shared L1 (§6.2.1's contention primitive).
    PrimeProbe,
    /// Flush+Reload through the coherent shared LLC.
    FlushReload,
    /// Bernstein-style co-located table thrashing (the active variant
    /// of §6.1.1's attack: the spy amplifies AES timing leakage by
    /// evicting table lines between encryptions).
    Bernstein,
}

impl DetectTarget {
    /// All targets, in canonical order.
    pub const ALL: [DetectTarget; 3] =
        [DetectTarget::PrimeProbe, DetectTarget::FlushReload, DetectTarget::Bernstein];

    /// Stable lower-case label (scenario keys, reports).
    pub fn label(self) -> &'static str {
        match self {
            DetectTarget::PrimeProbe => "prime-probe",
            DetectTarget::FlushReload => "flush-reload",
            DetectTarget::Bernstein => "bernstein",
        }
    }

    /// The detector's cross-process-eviction weight for this target.
    /// The Prime+Probe and Bernstein campaigns monitor a concurrently
    /// shared cache, where sustained cross-process eviction pressure is
    /// the attack; the Flush+Reload campaign relies on the coherence
    /// term alone.
    fn cross_weight(self) -> f64 {
        match self {
            DetectTarget::PrimeProbe | DetectTarget::Bernstein => 4.0,
            DetectTarget::FlushReload => 0.0,
        }
    }
}

/// Attacker stealth strategy — the evasion axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvasionMode {
    /// Full-rate attack, no evasion.
    None,
    /// The attacker acts only every fourth round, diluting each
    /// sampling window's counter signature.
    Throttle,
    /// The attacker touches a pseudo-random half of its lines per
    /// round, trading signal quality for a weaker counter footprint.
    Jitter,
}

impl EvasionMode {
    /// All modes, in canonical order.
    pub const ALL: [EvasionMode; 3] =
        [EvasionMode::None, EvasionMode::Throttle, EvasionMode::Jitter];

    /// Stable lower-case label (scenario keys, reports).
    pub fn label(self) -> &'static str {
        match self {
            EvasionMode::None => "none",
            EvasionMode::Throttle => "throttle",
            EvasionMode::Jitter => "jitter",
        }
    }

    /// Whether the attacker acts this round.
    fn active(self, round: u32) -> bool {
        !matches!(self, EvasionMode::Throttle) || round.is_multiple_of(4)
    }

    /// Whether per-line pseudo-random thinning applies.
    fn jittered(self) -> bool {
        matches!(self, EvasionMode::Jitter)
    }
}

/// Parameters of one detection campaign.
#[derive(Debug, Clone, Copy)]
pub struct DetectionCampaignConfig {
    /// Attack under test.
    pub target: DetectTarget,
    /// Cache setup of the platform.
    pub setup: SetupKind,
    /// Rounds per scenario (one attack iteration each).
    pub rounds: u32,
    /// Rounds per detector sampling window; a trailing partial window
    /// is dropped.
    pub window_rounds: u32,
    /// Master seed; every RNG stream derives from it.
    pub master_seed: u64,
    /// Attacker stealth strategy.
    pub evasion: EvasionMode,
    /// When `false`, the benign run and all PMU sampling are skipped
    /// and only the attack loop executes — the unsampled baseline the
    /// bench suite compares against to price the sampling overhead.
    pub sample: bool,
    /// Defense-zoo policy armed on the platform under test
    /// ([`DefenseKind::Off`] = the undefended baseline).
    pub defense: DefenseKind,
}

/// Margin added to the benign maximum score to form the operating
/// threshold (zero false positives on the benign trace by
/// construction).
pub const OPERATING_MARGIN: f64 = 0.05;

impl DetectionCampaignConfig {
    /// The standard campaign for a target: 192 rounds in 8-round
    /// windows, undefended, with no evasion.
    pub fn standard(target: DetectTarget, setup: SetupKind, master_seed: u64) -> Self {
        DetectionCampaignConfig {
            target,
            setup,
            rounds: 192,
            window_rounds: 8,
            master_seed,
            evasion: EvasionMode::None,
            sample: true,
            defense: DefenseKind::Off,
        }
    }

    /// Validates the campaign parameters. A seed-rotation defense is
    /// refused on the Prime+Probe and Bernstein targets: they run on
    /// private platforms, with no shared level to rotate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rounds == 0 {
            return Err(ConfigError::incompatible("detection campaign needs rounds > 0"));
        }
        if self.window_rounds == 0 || self.window_rounds > self.rounds {
            return Err(ConfigError::incompatible(
                "detection campaign needs 0 < window_rounds <= rounds",
            ));
        }
        self.defense.validate_platform(self.target == DetectTarget::FlushReload)
    }
}

/// One point of a ROC sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Score threshold this point was evaluated at.
    pub threshold: f64,
    /// False-positive rate: benign windows scoring at or above it.
    pub fpr: f64,
    /// True-positive rate: attack windows scoring at or above it.
    pub tpr: f64,
}

/// A ROC curve over the full threshold sweep of two score sets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RocCurve {
    /// Points ordered from the strictest threshold (0, 0) to the most
    /// permissive (1, 1).
    pub points: Vec<RocPoint>,
}

impl RocCurve {
    /// Sweeps every distinct score as a threshold. Empty inputs give
    /// an empty curve (AUC reads as chance).
    pub fn from_scores(attack: &[f64], benign: &[f64]) -> RocCurve {
        if attack.is_empty() || benign.is_empty() {
            return RocCurve::default();
        }
        // Total order, descending: a NaN score (e.g. a degenerate
        // 0/0 window rate) must not abort the campaign — under
        // `total_cmp` NaNs sort to the strict end of the sweep and
        // the curve stays well-formed.
        let mut thresholds: Vec<f64> = attack.iter().chain(benign.iter()).copied().collect();
        thresholds.sort_by(|a, b| b.total_cmp(a));
        thresholds.dedup_by(|a, b| a == b || (a.is_nan() && b.is_nan()));
        let frac_at_least =
            |xs: &[f64], t: f64| xs.iter().filter(|&&x| x >= t).count() as f64 / xs.len() as f64;
        let mut points = vec![RocPoint { threshold: f64::INFINITY, fpr: 0.0, tpr: 0.0 }];
        for t in thresholds {
            points.push(RocPoint {
                threshold: t,
                fpr: frac_at_least(benign, t),
                tpr: frac_at_least(attack, t),
            });
        }
        RocCurve { points }
    }

    /// Trapezoid area under the curve: 1.0 = perfectly separable,
    /// 0.5 = chance (also returned for an empty curve).
    pub fn auc(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.5;
        }
        self.points
            .windows(2)
            .map(|w| match w {
                [a, b] => (b.fpr - a.fpr) * (b.tpr + a.tpr) / 2.0,
                _ => 0.0,
            })
            .sum()
    }
}

/// Everything one detection campaign measured.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutcome {
    /// Attack under test.
    pub target: DetectTarget,
    /// Cache setup of the platform.
    pub setup: SetupKind,
    /// Defense-zoo policy that was armed on the platform.
    pub defense: DefenseKind,
    /// Attacker stealth strategy.
    pub evasion: EvasionMode,
    /// Rounds run per scenario.
    pub rounds: u32,
    /// Full sampling windows cut per scenario.
    pub windows: u64,
    /// Per-window suspicion scores of the attack trace.
    pub attack_scores: Vec<f64>,
    /// Per-window suspicion scores of the benign trace.
    pub benign_scores: Vec<f64>,
    /// Attacker key-recovery progress at each attack window, in
    /// `[0, 1]` (Prime+Probe: cumulative guess accuracy; Flush+Reload:
    /// rank-based; Bernstein: sample-collection fraction).
    pub attack_progress: Vec<f64>,
    /// The full threshold sweep.
    pub roc: RocCurve,
    /// The zero-false-positive operating threshold (benign maximum
    /// plus [`OPERATING_MARGIN`]; infinite when sampling was off).
    pub operating_threshold: f64,
    /// Typed events from replaying the attack trace at the operating
    /// threshold.
    pub events: Vec<DetectionEvent>,
    /// Windows until the first event at the operating threshold
    /// (`None` = the attack was never caught).
    pub detection_latency: Option<u64>,
}

impl DetectionOutcome {
    /// Whether the attack was caught at the operating threshold.
    pub fn detected(&self) -> bool {
        !self.events.is_empty()
    }

    /// Trapezoid AUC of the campaign's ROC sweep.
    pub fn auc(&self) -> f64 {
        self.roc.auc()
    }

    /// Highest attack-window score.
    pub fn max_attack_score(&self) -> f64 {
        self.attack_scores.iter().copied().fold(0.0, f64::max)
    }

    /// Highest benign-window score.
    pub fn max_benign_score(&self) -> f64 {
        self.benign_scores.iter().copied().fold(0.0, f64::max)
    }

    /// The attacker's key-recovery progress at the moment of
    /// detection (`None` = never detected).
    pub fn progress_at_detection(&self) -> Option<f64> {
        self.detection_latency
            .map(|w| self.attack_progress.get(w as usize - 1).copied().unwrap_or(1.0))
    }
}

/// Per-window instrumentation of one scenario run.
#[derive(Default)]
struct WindowTrace {
    deltas: Vec<PmuDelta>,
    progress: Vec<f64>,
}

/// Round-counting wrapper around [`PmuSampler`]: one "op" per attack
/// round, snapshots taken lazily only when a window is due (so the
/// unsampled baseline pays nothing).
struct Recorder {
    sampler: Option<PmuSampler>,
    trace: WindowTrace,
}

impl Recorder {
    fn new(sample: bool, window_rounds: u32, initial: impl FnOnce() -> PmuSnapshot) -> Self {
        Recorder {
            sampler: sample.then(|| PmuSampler::new(window_rounds as u64, initial())),
            trace: WindowTrace::default(),
        }
    }

    fn tick(&mut self, progress: f64, snap: impl FnOnce() -> PmuSnapshot) {
        if let Some(s) = &mut self.sampler {
            if s.note_ops(1) {
                self.trace.deltas.push(s.cut(snap()));
                self.trace.progress.push(progress.clamp(0.0, 1.0));
            }
        }
    }

    fn finish(self) -> WindowTrace {
        self.trace
    }
}

/// A single-level snapshot of a standalone cache.
fn cache_snapshot(cache: &Cache) -> PmuSnapshot {
    PmuSnapshot::from_level_stats(&[*cache.stats()])
}

/// Hierarchy + shared-LLC snapshot of a machine.
fn machine_snapshot(machine: &Machine) -> PmuSnapshot {
    let mut snap = PmuSnapshot::capture(machine.hierarchy());
    if let Some(llc) = machine.shared_llc() {
        snap = snap.with_level(llc.cache().stats());
    }
    snap.with_cycles(machine.cycles())
}

/// Prime+Probe on a persistent time-shared L1. The victim's job is
/// identical in both scenarios: one secret-indexed line (the leak
/// target) plus a 96-line working set. The attacker primes the full
/// cache before the secret access and probes after it; the benign
/// co-task touches a modest 48-line working set instead.
fn prime_probe_trace(cfg: &DetectionCampaignConfig, attack: bool) -> WindowTrace {
    let victim = ProcessId::new(1);
    let other = ProcessId::new(2);
    let mut cache = attacked_l1d(cfg.setup, cfg.defense, cfg.master_seed, 0);

    let prime_lines: Vec<LineAddr> = (0..512u64).map(LineAddr::new).collect();
    let co_lines: Vec<LineAddr> = (0..48u64).map(|i| LineAddr::new(0x20_000 + i)).collect();
    let victim_ws: Vec<LineAddr> = (0..96u64).map(|i| LineAddr::new(0x30_000 + i)).collect();

    let mut victim_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x5ec2e7));
    let mut co_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0xa77ac8));

    let mut rec = Recorder::new(cfg.sample, cfg.window_rounds, || cache_snapshot(&cache));
    let mut probes = 0u64;
    let mut correct = 0u64;
    for round in 0..cfg.rounds {
        let active = attack && cfg.evasion.active(round);
        if active {
            let primed: Vec<LineAddr> = if cfg.evasion.jittered() {
                prime_lines.iter().copied().filter(|_| co_rng.next_u64() & 1 == 0).collect()
            } else {
                prime_lines.clone()
            };
            cache.access_batch(other, &primed);
            // The secret-dependent access the attacker targets.
            let secret = victim_rng.below(128) as u64;
            cache.access(victim, LineAddr::new(0x10_000 + secret));
            probes += 1;
            let evicted = primed.iter().copied().find(|&l| !cache.probe(other, l));
            if evicted.is_some_and(|l| l.index_bits(7) == secret) {
                correct += 1;
            }
            cache.access_batch(victim, &victim_ws);
        } else {
            if !attack {
                cache.access_batch(other, &co_lines);
            }
            let secret = victim_rng.below(128) as u64;
            cache.access(victim, LineAddr::new(0x10_000 + secret));
            cache.access_batch(victim, &victim_ws);
        }
        let progress = if probes == 0 { 0.0 } else { correct as f64 / probes as f64 };
        rec.tick(progress, || cache_snapshot(&cache));
    }
    rec.finish()
}

/// Rank-based Flush+Reload progress: 1 at rank 0 (key byte leads the
/// candidate list), 0 at chance (all 256 candidates tied).
fn rank_progress(votes: &[u32], true_byte: u8) -> f64 {
    (1.0 - key_rank(votes, true_byte) / 127.5).max(0.0)
}

/// Flush+Reload through the coherent shared LLC, as in
/// [`crate::flush_reload`], but with per-window PMU instrumentation.
/// The benign co-runner warms its own disjoint LLC working set and
/// never flushes.
fn flush_reload_trace(
    cfg: &DetectionCampaignConfig,
    attack: bool,
) -> Result<WindowTrace, ConfigError> {
    let setup = cfg.defense.effective_setup(cfg.setup);
    let victim = ProcessId::new(1);
    let attacker = ProcessId::new(2);
    let mut machine =
        Machine::from_setup_shared(setup, HierarchyDepth::TwoLevel, SystemConfig, cfg.master_seed);
    machine.apply_defense(cfg.defense);
    machine.set_process(victim);
    seed_machine(&mut machine, setup, victim, attacker, cfg.master_seed ^ 0x000f_1a54);

    let mut layout = Layout::new(0x10_0000);
    let aes_layout = AesLayout::install(&mut layout, "victim");
    let aes = SimAes128::new(&VICTIM_KEY, aes_layout);
    machine.add_coherent_range(aes_layout.table(0).base(), aes_layout.table_bytes());
    let offset_bits = 5u32;
    let monitored: Vec<(Addr, LineAddr)> = (0..TE0_LINES as u64)
        .map(|l| {
            let addr = Addr::new(aes_layout.table(0).base().as_u64() + l * 32);
            (addr, addr.line(offset_bits))
        })
        .collect();
    let co_region = layout.alloc("co-runner", 4096, 4096);
    let co_lines: Vec<LineAddr> =
        (0..TE0_LINES as u64).map(|l| co_region.at(l * 32).line(offset_bits)).collect();

    let mut pt_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x4e10ad));
    let mut co_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x0f1e57));
    let mut votes = vec![0u32; 256];
    let mut ops = Vec::with_capacity(256);
    let mut rec = Recorder::new(cfg.sample, cfg.window_rounds, || machine_snapshot(&machine));
    for round in 0..cfg.rounds {
        let active = attack && cfg.evasion.active(round);
        let mut flushed = [false; TE0_LINES];
        if active {
            for (l, &(addr, _)) in monitored.iter().enumerate() {
                if !cfg.evasion.jittered() || co_rng.next_u64() & 1 == 0 {
                    machine.flush_line(addr);
                    flushed[l] = true;
                }
            }
        } else if !attack {
            let llc = shared_llc(&mut machine, "flush+reload detection campaign")?;
            for &line in &co_lines {
                llc.cache_mut().access(attacker, line);
            }
        }

        let pt = random_block(&mut pt_rng);
        aes.encrypt_with(&mut machine, &mut ops, &pt);

        if active {
            let llc = shared_llc(&mut machine, "flush+reload detection campaign")?;
            let mut reloaded = [false; TE0_LINES];
            for (l, &(_, line)) in monitored.iter().enumerate() {
                if flushed[l] {
                    reloaded[l] = llc.cache_mut().probe(attacker, line);
                }
            }
            let [pt0, ..] = pt;
            for (k, vote) in votes.iter_mut().enumerate() {
                let line = ((pt0 ^ k as u8) >> 3) as usize;
                if flushed[line] {
                    *vote += reloaded[line] as u32;
                }
            }
        }
        let [victim_key0, ..] = VICTIM_KEY;
        let progress = rank_progress(&votes, victim_key0);
        rec.tick(progress, || machine_snapshot(&machine));
    }
    Ok(rec.finish())
}

/// Bernstein-style co-located thrashing: between the victim's AES
/// jobs, the spy evicts selected T-table sets four ways deep to
/// amplify the timing signal its (passive) sample collection feeds
/// on. The benign co-task touches eight private lines instead.
/// Progress is sample-linear: profile quality grows with samples.
fn bernstein_trace(cfg: &DetectionCampaignConfig, attack: bool) -> WindowTrace {
    let setup = cfg.defense.effective_setup(cfg.setup);
    let task = ProcessId::new(1);
    let spy = ProcessId::new(2);
    let mut machine = Machine::from_setup_depth(setup, HierarchyDepth::TwoLevel, cfg.master_seed);
    machine.apply_defense(cfg.defense);
    machine.set_process(task);
    seed_machine(&mut machine, setup, task, spy, cfg.master_seed ^ 0xbe57e1);

    let mut layout = Layout::new(0x10_0000);
    let aes_layout = AesLayout::install(&mut layout, "victim");
    let aes = SimAes128::new(&VICTIM_KEY, aes_layout);
    // Spy lines aliasing (modulo) ten TE0/TE2 line sets, four ways
    // deep — enough to evict a 4-way set per visit.
    let spy_region = layout.alloc("spy", 4 * 4096, 4096);
    let mut thrash_lines = Vec::new();
    for i in 0..5u64 {
        for (t, l) in [(0usize, 3 * i), (2usize, 3 * i + 1)] {
            let set = (aes_layout.table(t).at(32 * l).as_u64() >> 5) & 127;
            for way in 0..4u64 {
                thrash_lines.push(Addr::new(spy_region.base().as_u64() + way * 4096 + set * 32));
            }
        }
    }
    let co_region = layout.alloc("co-task", 4096, 4096);
    let co_lines: Vec<Addr> = (0..8u64).map(|l| co_region.at(l * 32)).collect();

    let mut pt_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x6be7));
    let mut co_rng = SplitMix64::new(mix64(cfg.master_seed ^ 0x51e17e));
    let mut ops = Vec::with_capacity(256);
    let mut rec = Recorder::new(cfg.sample, cfg.window_rounds, || machine_snapshot(&machine));
    for round in 0..cfg.rounds {
        let active = attack && cfg.evasion.active(round);
        machine.context_switch(spy, 20);
        if active {
            for &addr in &thrash_lines {
                if !cfg.evasion.jittered() || co_rng.next_u64() & 1 == 0 {
                    machine.load(addr);
                }
            }
        } else if !attack {
            for &addr in &co_lines {
                machine.load(addr);
            }
        }
        machine.context_switch(task, 20);

        let pt = random_block(&mut pt_rng);
        aes.encrypt_with(&mut machine, &mut ops, &pt);

        let progress = (round + 1) as f64 / cfg.rounds as f64;
        rec.tick(progress, || machine_snapshot(&machine));
    }
    rec.finish()
}

/// Runs one detection campaign; see the module docs for the protocol.
///
/// # Errors
///
/// A typed [`ConfigError`] on an invalid configuration
/// ([`DetectionCampaignConfig::validate`], a Flush+Reload campaign on
/// a private platform).
pub fn run_detection_campaign(
    cfg: &DetectionCampaignConfig,
) -> Result<DetectionOutcome, ConfigError> {
    cfg.validate()?;
    let trace = |attack: bool| -> Result<WindowTrace, ConfigError> {
        match cfg.target {
            DetectTarget::PrimeProbe => Ok(prime_probe_trace(cfg, attack)),
            DetectTarget::FlushReload => flush_reload_trace(cfg, attack),
            DetectTarget::Bernstein => Ok(bernstein_trace(cfg, attack)),
        }
    };
    // The two scenarios are independent pure functions of the config:
    // run them concurrently, deterministically for any thread count.
    let (benign, attack) = if cfg.sample {
        let (benign, attack) = parallel::join(|| trace(false), || trace(true));
        (benign?, attack?)
    } else {
        (WindowTrace::default(), trace(true)?)
    };

    let weights =
        DetectorConfig { cross_weight: cfg.target.cross_weight(), ..DetectorConfig::default() };
    let score = |d: &PmuDelta| SlidingWindowDetector::score(&weights, d);
    let benign_scores: Vec<f64> = benign.deltas.iter().map(score).collect();
    let attack_scores: Vec<f64> = attack.deltas.iter().map(score).collect();
    let roc = RocCurve::from_scores(&attack_scores, &benign_scores);

    let operating_threshold = if cfg.sample {
        benign_scores.iter().copied().fold(0.0, f64::max) + OPERATING_MARGIN
    } else {
        f64::INFINITY
    };
    let mut detector =
        SlidingWindowDetector::new(DetectorConfig { threshold: operating_threshold, ..weights });
    for delta in &attack.deltas {
        detector.ingest(delta);
    }
    let report = detector.into_report();
    let detection_latency = report.first_detection().map(|w| w + 1);

    Ok(DetectionOutcome {
        target: cfg.target,
        setup: cfg.setup,
        defense: cfg.defense,
        evasion: cfg.evasion,
        rounds: cfg.rounds,
        windows: attack.deltas.len() as u64,
        attack_scores,
        benign_scores,
        attack_progress: attack.progress,
        roc,
        operating_threshold,
        events: report.events,
        detection_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscache_rtos::detector::DetectionKind;

    fn campaign(cfg: &DetectionCampaignConfig) -> DetectionOutcome {
        run_detection_campaign(cfg).expect("valid campaign config")
    }

    #[test]
    fn roc_of_separable_scores_is_one() {
        let roc = RocCurve::from_scores(&[2.0, 3.0, 2.5], &[0.1, 0.2, 0.3]);
        assert!((roc.auc() - 1.0).abs() < 1e-12, "auc {}", roc.auc());
        assert_eq!(roc.points.first().map(|p| (p.fpr, p.tpr)), Some((0.0, 0.0)));
        assert_eq!(roc.points.last().map(|p| (p.fpr, p.tpr)), Some((1.0, 1.0)));
    }

    #[test]
    fn roc_of_identical_scores_is_chance() {
        let xs = [0.5, 0.5, 0.5, 0.5];
        let roc = RocCurve::from_scores(&xs, &xs);
        assert!((roc.auc() - 0.5).abs() < 1e-12, "auc {}", roc.auc());
        assert!((RocCurve::default().auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prime_probe_campaign_is_detected_with_high_auc() {
        let cfg = DetectionCampaignConfig::standard(
            DetectTarget::PrimeProbe,
            SetupKind::Deterministic,
            7,
        );
        let out = campaign(&cfg);
        assert!(out.windows > 0);
        assert!(out.auc() > 0.9, "auc {}", out.auc());
        assert!(out.detected(), "max attack score {}", out.max_attack_score());
        let latency = out.detection_latency.expect("detected");
        assert!(latency <= out.windows, "latency {latency} of {} windows", out.windows);
        let progress = out.progress_at_detection().expect("detected");
        assert!((0.0..=1.0).contains(&progress));
    }

    #[test]
    fn flush_reload_campaign_raises_coherence_events() {
        let cfg = DetectionCampaignConfig::standard(
            DetectTarget::FlushReload,
            SetupKind::Deterministic,
            7,
        );
        let out = campaign(&cfg);
        assert!(out.auc() > 0.9, "auc {}", out.auc());
        assert!(out.detected());
        assert_eq!(
            out.events[0].kind,
            DetectionKind::Coherence,
            "flush storms are coherence noise"
        );
        // The attack works on this platform, so progress climbs.
        assert!(out.progress_at_detection().is_some());
        assert!(*out.attack_progress.last().expect("windows") > 0.5);
    }

    #[test]
    fn flush_reload_detection_survives_tscache_blinding() {
        // Per-process randomization blinds the *reload*, but the flush
        // storm still drains coherent copies — the detector sees the
        // attack even where the attack itself fails.
        let cfg =
            DetectionCampaignConfig::standard(DetectTarget::FlushReload, SetupKind::TsCache, 7);
        let out = campaign(&cfg);
        assert!(out.detected(), "max attack score {}", out.max_attack_score());
        assert!(
            *out.attack_progress.last().expect("windows") < 0.05,
            "TSCache should leave the attack at chance"
        );
    }

    #[test]
    fn bernstein_thrashing_is_detected() {
        let cfg =
            DetectionCampaignConfig::standard(DetectTarget::Bernstein, SetupKind::Deterministic, 7);
        let out = campaign(&cfg);
        assert!(out.auc() > 0.9, "auc {}", out.auc());
        assert!(out.detected());
    }

    #[test]
    fn benign_trace_never_crosses_the_operating_threshold() {
        for target in DetectTarget::ALL {
            let cfg = DetectionCampaignConfig::standard(target, SetupKind::Deterministic, 11);
            let out = campaign(&cfg);
            assert!(
                out.max_benign_score() < out.operating_threshold,
                "{target:?}: benign {} vs threshold {}",
                out.max_benign_score(),
                out.operating_threshold
            );
        }
    }

    #[test]
    fn throttling_weakens_the_counter_signature() {
        let base = DetectionCampaignConfig::standard(
            DetectTarget::PrimeProbe,
            SetupKind::Deterministic,
            7,
        );
        let throttled = DetectionCampaignConfig { evasion: EvasionMode::Throttle, ..base };
        let full = campaign(&base);
        let slow = campaign(&throttled);
        assert!(
            slow.max_attack_score() < full.max_attack_score(),
            "throttle {} vs full {}",
            slow.max_attack_score(),
            full.max_attack_score()
        );
    }

    #[test]
    fn campaign_reproduces_bit_for_bit() {
        for target in DetectTarget::ALL {
            let cfg = DetectionCampaignConfig::standard(target, SetupKind::Mbpta, 13);
            let a = campaign(&cfg);
            let b = campaign(&cfg);
            assert_eq!(a, b, "{target:?} campaign must reproduce");
        }
    }

    #[test]
    fn unsampled_baseline_skips_all_instrumentation() {
        let cfg = DetectionCampaignConfig {
            sample: false,
            ..DetectionCampaignConfig::standard(
                DetectTarget::PrimeProbe,
                SetupKind::Deterministic,
                7,
            )
        };
        let out = campaign(&cfg);
        assert_eq!(out.windows, 0);
        assert!(out.attack_scores.is_empty() && out.benign_scores.is_empty());
        assert!(out.events.is_empty());
        assert!(out.operating_threshold.is_infinite());
        assert!((out.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_campaign_configs_are_typed_errors() {
        let good =
            DetectionCampaignConfig::standard(DetectTarget::Bernstein, SetupKind::TsCache, 1);
        assert!(good.validate().is_ok());
        assert!(DetectionCampaignConfig { rounds: 0, ..good }.validate().is_err());
        assert!(DetectionCampaignConfig { window_rounds: 0, ..good }.validate().is_err());
        assert!(DetectionCampaignConfig { window_rounds: good.rounds + 1, ..good }
            .validate()
            .is_err());
        assert!(run_detection_campaign(&DetectionCampaignConfig { rounds: 0, ..good }).is_err());
    }

    #[test]
    fn rotation_is_refused_on_the_private_targets() {
        for target in DetectTarget::ALL {
            for defense in [DefenseKind::RotatePartition, DefenseKind::RotateCore] {
                let cfg = DetectionCampaignConfig {
                    defense,
                    ..DetectionCampaignConfig::standard(target, SetupKind::TsCache, 7)
                };
                let shared = target == DetectTarget::FlushReload;
                assert_eq!(cfg.validate().is_ok(), shared, "{} under {defense}", target.label());
                if !shared {
                    assert!(run_detection_campaign(&cfg).is_err(), "{}", target.label());
                }
            }
        }
    }

    #[test]
    fn roc_sweep_tolerates_nan_scores() {
        // A degenerate window (0/0 rate) can score NaN. The old
        // descending sort used `partial_cmp(..).expect(..)` and
        // panicked on the first NaN comparison; under `total_cmp` the
        // sweep completes: NaN scores compare above every finite
        // threshold yet never satisfy `score >= t`, so they read as
        // windows the detector never fires on and the finite part of
        // the curve stays well-formed.
        let roc = RocCurve::from_scores(&[f64::NAN, 1.0, 0.8], &[0.2, f64::NAN]);
        assert!(roc.points.len() >= 3);
        let auc = roc.auc();
        assert!(auc.is_finite() && (0.0..=1.0).contains(&auc), "auc {auc}");
        // The same scores without the NaNs separate fully — the NaN
        // windows only dilute, they cannot reorder the sweep.
        let clean = RocCurve::from_scores(&[1.0, 0.8], &[0.2]);
        assert!((clean.auc() - 1.0).abs() < 1e-12);
        assert!(auc < clean.auc());
        // All-NaN inputs also survive and read as an uninformative curve.
        let degenerate = RocCurve::from_scores(&[f64::NAN], &[f64::NAN]);
        assert!(degenerate.auc().is_finite());
    }

    #[test]
    fn defended_campaigns_reproduce_and_blunt_the_attack() {
        let base = DetectionCampaignConfig::standard(
            DetectTarget::PrimeProbe,
            SetupKind::Deterministic,
            7,
        );
        let undefended = campaign(&base);
        let baseline = *undefended.attack_progress.last().expect("windows");
        for defense in [DefenseKind::Ttl, DefenseKind::Normalize, DefenseKind::RandomSafe] {
            let cfg = DetectionCampaignConfig { defense, ..base };
            let a = campaign(&cfg);
            assert_eq!(a, campaign(&cfg), "{defense} must reproduce");
            assert_eq!(a.defense, defense);
            let progress = *a.attack_progress.last().expect("windows");
            // TTL scrambles the probe (random expiries masquerade as
            // victim evictions) and Random-and-Safe randomizes the
            // set mapping outright; normalization is orthogonal to
            // presence probing (it levels *reuse timing*, and this
            // attacker never touches victim-owned lines), so it
            // leaves the guess accuracy exactly where it was.
            match defense {
                DefenseKind::Normalize => {
                    assert_eq!(progress, baseline, "{defense} is orthogonal here")
                }
                _ => assert!(
                    progress < baseline,
                    "{defense}: progress {progress} not blunted vs {baseline}"
                ),
            }
        }
    }
}
