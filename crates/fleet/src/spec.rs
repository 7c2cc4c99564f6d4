//! Declarative sweep specifications and their cartesian expansion.
//!
//! A [`SweepSpec`] names value lists for each axis of the scenario
//! lattice — setup × depth × platform × contention × attack — plus the
//! campaign seed and shard sizing. [`SweepSpec::expand`] takes the
//! cartesian product, drops combinations that do not apply to an
//! attack (Prime+Probe models its own L1, Flush+Reload needs a
//! coherent or replica platform, …), dedupes scenarios whose
//! applicable axes coincide, and emits the flat, ordered scenario
//! list. Shards are numbered globally across that list; shard `i` is
//! seeded `mix64(campaign_seed ^ i)`, which is the whole determinism
//! story — a shard's result is a pure function of the spec, never of
//! worker count, execution order, or how often the campaign was
//! killed.
//!
//! The text format is line-oriented `key = value` (`#` comments),
//! e.g.:
//!
//! ```text
//! campaign_seed     = 0xf1ee7
//! samples_per_shard = 400
//! shards_per_scenario = 4
//! setups    = deterministic, tscache
//! depths    = l2, l3
//! platforms = private, shared, shared-partitioned, coherent
//! contention = off, on
//! attacks   = bernstein, pwcet, prime-probe, flush-reload, rtos
//! detection = off, monitor, throttle, jitter
//! ```

use crate::digest::Fnv64;
use std::fmt;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::prng::mix64;
use tscache_core::setup::{HierarchyDepth, SetupKind};

/// Campaign job families the fleet can dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Bernstein timing-sample collection ([`tscache_sca::sampling`]).
    Bernstein,
    /// MBPTA execution-time collection + pWCET merge
    /// ([`tscache_sim::workload`]).
    Pwcet,
    /// Same-core Prime+Probe trials ([`tscache_sca::prime_probe`]).
    PrimeProbe,
    /// Cross-core Flush+Reload through the coherent LLC
    /// ([`tscache_sca::flush_reload`]).
    FlushReload,
    /// A full RTOS hyperperiod campaign ([`tscache_rtos`]).
    Rtos,
}

impl AttackKind {
    /// Every attack family, in spec order.
    pub const ALL: [AttackKind; 5] = [
        AttackKind::Bernstein,
        AttackKind::Pwcet,
        AttackKind::PrimeProbe,
        AttackKind::FlushReload,
        AttackKind::Rtos,
    ];

    /// Spec-format label.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Bernstein => "bernstein",
            AttackKind::Pwcet => "pwcet",
            AttackKind::PrimeProbe => "prime-probe",
            AttackKind::FlushReload => "flush-reload",
            AttackKind::Rtos => "rtos",
        }
    }
}

/// Memory-platform variants of the scenario lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Private per-core hierarchies (the solo paper platform).
    Private,
    /// A shared last-level cache across cores, unpartitioned.
    Shared,
    /// Shared LLC with per-core way partitions (the §7 ablation).
    SharedPartitioned,
    /// Shared LLC with a coherent (MSI-tracked) region.
    Coherent,
}

impl PlatformKind {
    /// Every platform, in spec order.
    pub const ALL: [PlatformKind; 4] = [
        PlatformKind::Private,
        PlatformKind::Shared,
        PlatformKind::SharedPartitioned,
        PlatformKind::Coherent,
    ];

    /// Spec-format label.
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::Private => "private",
            PlatformKind::Shared => "shared",
            PlatformKind::SharedPartitioned => "shared-partitioned",
            PlatformKind::Coherent => "coherent",
        }
    }
}

/// Online-detection variants of the scenario lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionMode {
    /// No detector: the plain attack campaign (the historical
    /// scenarios — their keys and digests are unchanged).
    Off,
    /// The sliding-window detector watches a full-rate attack. On the
    /// RTOS campaign this arms [`tscache_rtos::os::OsConfig::detector`]
    /// over the benign schedule instead (there is no attacker there —
    /// it pins the zero-false-positive calibration).
    Monitor,
    /// Detector on, attacker throttled to every fourth round.
    Throttle,
    /// Detector on, attacker jittering its line selection.
    Jitter,
}

impl DetectionMode {
    /// Every detection mode, in spec order.
    pub const ALL: [DetectionMode; 4] = [
        DetectionMode::Off,
        DetectionMode::Monitor,
        DetectionMode::Throttle,
        DetectionMode::Jitter,
    ];

    /// Spec-format label.
    pub fn label(self) -> &'static str {
        match self {
            DetectionMode::Off => "off",
            DetectionMode::Monitor => "monitor",
            DetectionMode::Throttle => "throttle",
            DetectionMode::Jitter => "jitter",
        }
    }
}

/// One expanded scenario: a point of the lattice with only the axes
/// that apply to its attack family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Canonical key, e.g. `bernstein/tscache/l3/shared/contended`
    /// (detection scenarios append a sixth segment, e.g.
    /// `prime-probe/tscache/l2/private/solo/monitor`).
    pub key: String,
    /// Attack family.
    pub attack: AttackKind,
    /// Cache setup under test.
    pub setup: SetupKind,
    /// Hierarchy depth (fixed to `l2` where the axis is inapplicable).
    pub depth: HierarchyDepth,
    /// Platform variant (fixed to `private` where inapplicable).
    pub platform: PlatformKind,
    /// Whether enemy co-runners contend on the shared bus.
    pub contended: bool,
    /// Online-detection variant.
    pub detection: DetectionMode,
    /// Defense-zoo policy armed on the platform under test. Non-`Off`
    /// values append a trailing key segment (the defense label), so
    /// historical keys and digests are unchanged.
    pub defense: DefenseKind,
}

/// One unit of work: a scenario shard with its derived seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardJob {
    /// Global shard index across the whole campaign.
    pub shard: usize,
    /// Index of the owning scenario in the expanded list.
    pub scenario_index: usize,
    /// The scenario this shard samples.
    pub scenario: Scenario,
    /// `mix64(campaign_seed ^ shard)` — the only randomness root.
    pub seed: u64,
    /// Samples (runs, trials, …) this shard collects.
    pub samples: u32,
}

/// A declarative sweep specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Master seed; every shard seed derives from it.
    pub campaign_seed: u64,
    /// Samples per shard (meaning per attack: timing samples, protocol
    /// runs, Prime+Probe trials, Flush+Reload rounds; RTOS hyperperiods
    /// derive from it).
    pub samples_per_shard: u32,
    /// Shards per scenario.
    pub shards_per_scenario: u32,
    /// Setup axis.
    pub setups: Vec<SetupKind>,
    /// Depth axis.
    pub depths: Vec<HierarchyDepth>,
    /// Platform axis.
    pub platforms: Vec<PlatformKind>,
    /// Contention axis (`false` = solo, `true` = enemy co-runners).
    pub contention: Vec<bool>,
    /// Attack-family axis.
    pub attacks: Vec<AttackKind>,
    /// Online-detection axis.
    pub detection: Vec<DetectionMode>,
    /// Defense-zoo axis ([`DefenseKind::Off`] = undefended baseline).
    pub defenses: Vec<DefenseKind>,
}

/// Everything that can go wrong running a fleet campaign. The variants
/// matter to the executor's retry logic: [`FleetError::BadSpec`] and
/// [`FleetError::SpecParse`] are configuration errors (never retried);
/// I/O and corruption errors surface to the operator.
#[derive(Debug)]
pub enum FleetError {
    /// The spec expands to an invalid configuration.
    BadSpec(ConfigError),
    /// The spec text does not parse.
    SpecParse {
        /// 1-based line of the offending entry.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// `--resume` against a directory whose checkpoint belongs to a
    /// different spec.
    SpecMismatch {
        /// Digest of the spec being resumed.
        expected: u64,
        /// Digest recorded in the campaign directory.
        found: u64,
    },
    /// Filesystem failure on the campaign directory.
    Io(std::io::Error),
    /// A checkpoint file is damaged beyond the tolerated torn tail.
    Corrupt(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::BadSpec(e) => write!(f, "bad sweep spec: {e}"),
            FleetError::SpecParse { line, msg } => {
                write!(f, "spec parse error, line {line}: {msg}")
            }
            FleetError::SpecMismatch { expected, found } => write!(
                f,
                "resume spec mismatch: spec digest {expected:#x}, campaign dir has {found:#x}"
            ),
            FleetError::Io(e) => write!(f, "campaign I/O error: {e}"),
            FleetError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<ConfigError> for FleetError {
    fn from(e: ConfigError) -> Self {
        FleetError::BadSpec(e)
    }
}

/// Reads one axis list on spec line `line`: every comma-separated item
/// must be a name in `names`; anything else is an unknown `noun`.
fn read_axis<T: Copy>(
    line: usize,
    value: &str,
    names: &[(&str, T)],
    noun: &str,
) -> Result<Vec<T>, FleetError> {
    let items = value.split(',').map(str::trim).filter(|s| !s.is_empty());
    items
        .map(|s| match names.iter().find(|&&(name, _)| name == s) {
            Some(&(_, v)) => Ok(v),
            None => Err(FleetError::SpecParse { line, msg: format!("unknown {noun} `{s}`") }),
        })
        .collect()
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

impl SweepSpec {
    /// The default full-lattice sweep (every axis value, the
    /// figure-harness seed).
    pub fn full(campaign_seed: u64, samples_per_shard: u32, shards_per_scenario: u32) -> Self {
        SweepSpec {
            campaign_seed,
            samples_per_shard,
            shards_per_scenario,
            setups: SetupKind::ALL.to_vec(),
            depths: HierarchyDepth::ALL.to_vec(),
            platforms: PlatformKind::ALL.to_vec(),
            contention: vec![false, true],
            attacks: AttackKind::ALL.to_vec(),
            detection: DetectionMode::ALL.to_vec(),
            defenses: DefenseKind::ALL.to_vec(),
        }
    }

    /// The CI smoke sweep: small but crossing every subsystem —
    /// two setups at the two-level depth, all platforms, both
    /// contention values, every attack family, detection off and
    /// monitoring, the undefended baseline plus one TTL and one
    /// rotation defense; tiny shards so a kill+resume round trip stays
    /// in seconds. It expands to 94 scenarios and 282 shards, 78 of
    /// them contended.
    pub fn smoke() -> Self {
        SweepSpec {
            campaign_seed: 0xf1ee7,
            samples_per_shard: 60,
            shards_per_scenario: 3,
            setups: vec![SetupKind::Deterministic, SetupKind::TsCache],
            depths: vec![HierarchyDepth::TwoLevel],
            platforms: PlatformKind::ALL.to_vec(),
            contention: vec![false, true],
            attacks: AttackKind::ALL.to_vec(),
            detection: vec![DetectionMode::Off, DetectionMode::Monitor],
            defenses: vec![DefenseKind::Off, DefenseKind::Ttl, DefenseKind::RotateCore],
        }
    }

    /// Parses the line-oriented `key = value` spec format.
    pub fn parse(text: &str) -> Result<Self, FleetError> {
        let mut spec = SweepSpec {
            campaign_seed: 0,
            samples_per_shard: 100,
            shards_per_scenario: 1,
            setups: Vec::new(),
            depths: vec![HierarchyDepth::TwoLevel],
            platforms: vec![PlatformKind::Private],
            contention: vec![false],
            attacks: Vec::new(),
            detection: vec![DetectionMode::Off],
            defenses: vec![DefenseKind::Off],
        };
        let err = |line: usize, msg: String| FleetError::SpecParse { line, msg };
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "campaign_seed" => {
                    spec.campaign_seed = parse_u64(value)
                        .ok_or_else(|| err(line_no, format!("bad integer `{value}`")))?;
                }
                "samples_per_shard" => {
                    spec.samples_per_shard =
                        parse_u64(value)
                            .and_then(|v| u32::try_from(v).ok())
                            .ok_or_else(|| err(line_no, format!("bad integer `{value}`")))?;
                }
                "shards_per_scenario" => {
                    spec.shards_per_scenario = parse_u64(value)
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| err(line_no, format!("bad integer `{value}`")))?;
                }
                "setups" => {
                    let names = SetupKind::ALL.map(|k| (k.label(), k));
                    spec.setups = read_axis(line_no, value, &names, "setup")?;
                }
                "depths" => {
                    let names = HierarchyDepth::ALL.map(|d| (d.label(), d));
                    spec.depths = read_axis(line_no, value, &names, "depth")?;
                }
                "platforms" => {
                    let names = PlatformKind::ALL.map(|p| (p.label(), p));
                    spec.platforms = read_axis(line_no, value, &names, "platform")?;
                }
                "contention" => {
                    let names =
                        [("off", false), ("solo", false), ("on", true), ("contended", true)];
                    spec.contention = read_axis(line_no, value, &names, "contention")?;
                }
                "attacks" => {
                    let names = AttackKind::ALL.map(|a| (a.label(), a));
                    spec.attacks = read_axis(line_no, value, &names, "attack")?;
                }
                "detection" => {
                    let names = DetectionMode::ALL.map(|d| (d.label(), d));
                    spec.detection = read_axis(line_no, value, &names, "detection")?;
                }
                "defenses" | "defense" => {
                    let names = DefenseKind::ALL.map(|d| (d.label(), d));
                    spec.defenses = read_axis(line_no, value, &names, "defense")?;
                }
                other => return Err(err(line_no, format!("unknown key `{other}`"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Re-renders the spec in canonical text form (what gets stored in
    /// the campaign directory, and what the spec digest covers).
    pub fn canonical(&self) -> String {
        let join = |items: Vec<&str>| items.join(", ");
        format!(
            "campaign_seed = {:#x}\nsamples_per_shard = {}\nshards_per_scenario = {}\n\
             setups = {}\ndepths = {}\nplatforms = {}\ncontention = {}\nattacks = {}\n\
             detection = {}\ndefenses = {}\n",
            self.campaign_seed,
            self.samples_per_shard,
            self.shards_per_scenario,
            join(self.setups.iter().map(|s| s.label()).collect()),
            join(self.depths.iter().map(|d| d.label()).collect()),
            join(self.platforms.iter().map(|p| p.label()).collect()),
            join(self.contention.iter().map(|c| if *c { "on" } else { "off" }).collect()),
            join(self.attacks.iter().map(|a| a.label()).collect()),
            join(self.detection.iter().map(|d| d.label()).collect()),
            join(self.defenses.iter().map(|d| d.label()).collect()),
        )
    }

    /// Digest of the canonical spec text: what `--resume` checks
    /// before trusting a checkpoint.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.canonical().as_bytes());
        h.finish()
    }

    /// Structural validation (the "bad spec" gate).
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |msg: &str| Err(FleetError::BadSpec(ConfigError::incompatible(msg)));
        if self.samples_per_shard == 0 {
            return bad("samples_per_shard must be > 0");
        }
        if self.shards_per_scenario == 0 {
            return bad("shards_per_scenario must be > 0");
        }
        if self.attacks.is_empty() {
            return bad("attacks axis is empty — nothing to sweep");
        }
        if self.setups.is_empty() {
            return bad("setups axis is empty — nothing to sweep");
        }
        if self.depths.is_empty() || self.platforms.is_empty() || self.contention.is_empty() {
            return bad("depths/platforms/contention axes must each name at least one value");
        }
        if self.detection.is_empty() {
            return bad("detection axis must name at least one value (use `off`)");
        }
        if self.defenses.is_empty() {
            return bad("defenses axis must name at least one value (use `off`)");
        }
        Ok(())
    }

    /// Whether `defense` applies at a canonical lattice point: the
    /// seed-rotation defenses act on the shared level, so they are
    /// vacuous (a guaranteed duplicate of the undefended scenario) on
    /// platforms without one; the RTOS campaign has no defense knob
    /// yet, so its lattice stays defense-off.
    fn defense_applies(attack: AttackKind, platform: PlatformKind, defense: DefenseKind) -> bool {
        if defense == DefenseKind::Off {
            return true;
        }
        if attack == AttackKind::Rtos {
            return false;
        }
        !(defense.needs_shared_level() && platform == PlatformKind::Private)
    }

    /// Whether a lattice point applies to `attack`, and the canonical
    /// (deduped) axis values for it. Returns `None` for combinations
    /// the attack cannot express.
    fn canonicalize(
        attack: AttackKind,
        depth: HierarchyDepth,
        platform: PlatformKind,
        contended: bool,
        detection: DetectionMode,
    ) -> Option<(HierarchyDepth, PlatformKind, bool)> {
        if detection != DetectionMode::Off {
            // Detection campaigns fix their own platform per target:
            // the instrumented Prime+Probe/Bernstein harnesses model a
            // time-shared private hierarchy, Flush+Reload needs the
            // coherent platform, and the RTOS campaign only supports
            // passive monitoring (there is no attacker to throttle).
            return match attack {
                AttackKind::PrimeProbe | AttackKind::Bernstein => {
                    Some((HierarchyDepth::TwoLevel, PlatformKind::Private, false))
                }
                AttackKind::FlushReload => {
                    Some((HierarchyDepth::TwoLevel, PlatformKind::Coherent, false))
                }
                AttackKind::Rtos if detection == DetectionMode::Monitor => {
                    Self::canonicalize(attack, depth, platform, contended, DetectionMode::Off)
                }
                _ => None,
            };
        }
        match attack {
            // The full lattice, minus coherence (Bernstein samples its
            // own process pair; the coherent shared-segment variant is
            // Flush+Reload's).
            AttackKind::Bernstein => {
                if platform == PlatformKind::Coherent {
                    return None;
                }
                Some((depth, platform, contended))
            }
            // The measurement protocol has private/shared platforms
            // (no partition knob) at both depths.
            AttackKind::Pwcet => match platform {
                PlatformKind::Private | PlatformKind::Shared => Some((depth, platform, contended)),
                _ => None,
            },
            // Prime+Probe models a single L1: only the setup axis
            // applies; every other axis collapses to its canonical
            // value (the dedupe that keeps the expansion free of
            // identical scenarios).
            AttackKind::PrimeProbe => {
                Some((HierarchyDepth::TwoLevel, PlatformKind::Private, false))
            }
            // Flush+Reload needs the coherent shared platform (or its
            // partitioned+replicated refutation); depth and contention
            // are internal to the campaign.
            AttackKind::FlushReload => match platform {
                PlatformKind::Coherent | PlatformKind::SharedPartitioned => {
                    Some((HierarchyDepth::TwoLevel, platform, false))
                }
                _ => None,
            },
            // The RTOS campaign: private, shared, or coherent-image
            // platforms; contention comes from pinned runnables, not
            // the contention axis.
            AttackKind::Rtos => match platform {
                PlatformKind::Private | PlatformKind::Shared | PlatformKind::Coherent => {
                    Some((HierarchyDepth::TwoLevel, platform, false))
                }
                _ => None,
            },
        }
    }

    /// Expands the spec into the ordered scenario list.
    pub fn expand(&self) -> Result<Vec<Scenario>, FleetError> {
        self.validate()?;
        let mut out: Vec<Scenario> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &attack in &self.attacks {
            for &setup in &self.setups {
                for &depth in &self.depths {
                    for &platform in &self.platforms {
                        for &contended in &self.contention {
                            for &detection in &self.detection {
                                for &defense in &self.defenses {
                                    let Some((depth, platform, contended)) = Self::canonicalize(
                                        attack, depth, platform, contended, detection,
                                    ) else {
                                        continue;
                                    };
                                    if !Self::defense_applies(attack, platform, defense) {
                                        continue;
                                    }
                                    // Detection-off, defense-off keys keep
                                    // the historical five-segment form, so
                                    // pre-axis campaign checkpoints and
                                    // digests stay valid.
                                    let mut key = format!(
                                        "{}/{}/{}/{}/{}",
                                        attack.label(),
                                        setup.label(),
                                        depth.label(),
                                        platform.label(),
                                        if contended { "contended" } else { "solo" }
                                    );
                                    if detection != DetectionMode::Off {
                                        key.push('/');
                                        key.push_str(detection.label());
                                    }
                                    if defense != DefenseKind::Off {
                                        key.push('/');
                                        key.push_str(defense.label());
                                    }
                                    if !seen.insert(key.clone()) {
                                        continue;
                                    }
                                    out.push(Scenario {
                                        key,
                                        attack,
                                        setup,
                                        depth,
                                        platform,
                                        contended,
                                        detection,
                                        defense,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            return Err(FleetError::BadSpec(ConfigError::incompatible(
                "spec expands to zero scenarios (every lattice point was inapplicable)",
            )));
        }
        Ok(out)
    }

    /// Expands the spec into the flat shard-job list. Shard `i` is
    /// seeded `mix64(campaign_seed ^ i)` — results are a pure function
    /// of the spec.
    pub fn jobs(&self) -> Result<Vec<ShardJob>, FleetError> {
        let scenarios = self.expand()?;
        let mut jobs = Vec::with_capacity(scenarios.len() * self.shards_per_scenario as usize);
        let mut shard = 0usize;
        for (scenario_index, scenario) in scenarios.iter().enumerate() {
            for _ in 0..self.shards_per_scenario {
                jobs.push(ShardJob {
                    shard,
                    scenario_index,
                    scenario: scenario.clone(),
                    seed: mix64(self.campaign_seed ^ shard as u64),
                    samples: self.samples_per_shard,
                });
                shard += 1;
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_canonical() {
        let spec = SweepSpec::smoke();
        let reparsed = SweepSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.digest(), reparsed.digest());
    }

    #[test]
    fn canonical_text_is_pinned() {
        // The spec digest covers this text, and `--resume` compares
        // digests: any byte that moves orphans existing campaign dirs.
        assert_eq!(
            SweepSpec::smoke().canonical(),
            "campaign_seed = 0xf1ee7\nsamples_per_shard = 60\nshards_per_scenario = 3\n\
             setups = deterministic, tscache\ndepths = l2\n\
             platforms = private, shared, shared-partitioned, coherent\ncontention = off, on\n\
             attacks = bernstein, pwcet, prime-probe, flush-reload, rtos\n\
             detection = off, monitor\ndefenses = off, ttl, rotate-core\n"
        );
        assert_eq!(
            SweepSpec::full(1, 2, 3).canonical(),
            "campaign_seed = 0x1\nsamples_per_shard = 2\nshards_per_scenario = 3\n\
             setups = deterministic, rpcache, mbptacache, tscache, random-safe\n\
             depths = l2, l3\nplatforms = private, shared, shared-partitioned, coherent\n\
             contention = off, on\nattacks = bernstein, pwcet, prime-probe, flush-reload, rtos\n\
             detection = off, monitor, throttle, jitter\n\
             defenses = off, ttl, normalize, random-safe, rotate-partition, rotate-core\n"
        );
    }

    #[test]
    fn unknown_axis_values_name_the_axis_and_line() {
        let cases = [
            ("setups", "setup"),
            ("depths", "depth"),
            ("platforms", "platform"),
            ("contention", "contention"),
            ("attacks", "attack"),
            ("detection", "detection"),
            ("defenses", "defense"),
            ("defense", "defense"),
        ];
        for (key, noun) in cases {
            let text = format!("attacks = rtos\nsetups = tscache\n\n{key} = {key}-bogus\n");
            match SweepSpec::parse(&text).unwrap_err() {
                FleetError::SpecParse { line, msg } => {
                    assert_eq!((line, msg), (4, format!("unknown {noun} `{key}-bogus`")));
                }
                other => panic!("wrong error for {key}: {other}"),
            }
        }
        let spec = SweepSpec::parse(
            "attacks = rtos\nsetups = tscache\ncontention = solo, contended, on\n",
        )
        .unwrap();
        assert_eq!(spec.contention, vec![false, true, true]);
        let spec = SweepSpec::parse("attacks = rtos\nsetups = tscache\ndefense = ttl\n").unwrap();
        assert_eq!(spec.defenses, vec![DefenseKind::Ttl]);
    }

    #[test]
    fn smoke_sweep_size_is_pinned() {
        // The README's fleet section and `fleet_bench_spec`'s doc in
        // tscache-bench quote these counts.
        let spec = SweepSpec::smoke();
        assert_eq!(spec.expand().unwrap().len(), 94);
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 282);
        assert_eq!(jobs.iter().filter(|j| j.scenario.contended).count(), 78);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err =
            SweepSpec::parse("attacks = bernstein\nsetups = tscache\nbogus_key = 1").unwrap_err();
        match err {
            FleetError::SpecParse { line, msg } => {
                assert_eq!(line, 3);
                assert!(msg.contains("bogus_key"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = SweepSpec::parse(
            "# a comment\n\nattacks = pwcet # trailing comment\nsetups = mbptacache\n",
        )
        .unwrap();
        assert_eq!(spec.attacks, vec![AttackKind::Pwcet]);
        assert_eq!(spec.setups, vec![SetupKind::Mbpta]);
    }

    #[test]
    fn empty_axes_are_bad_specs() {
        assert!(matches!(
            SweepSpec::parse("setups = tscache").unwrap_err(),
            FleetError::BadSpec(_)
        ));
        let mut spec = SweepSpec::smoke();
        spec.samples_per_shard = 0;
        assert!(matches!(spec.validate().unwrap_err(), FleetError::BadSpec(_)));
    }

    #[test]
    fn expansion_dedupes_inapplicable_axes() {
        // Prime+Probe collapses depth/platform/contention: one scenario
        // per setup no matter how wide those axes are. (Detection and
        // defense pinned off: those axes multiply scenarios by design.)
        let mut spec = SweepSpec::full(1, 10, 1);
        spec.detection = vec![DetectionMode::Off];
        spec.defenses = vec![DefenseKind::Off];
        spec.attacks = vec![AttackKind::PrimeProbe];
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), SetupKind::ALL.len());
        // Flush+Reload keeps exactly the coherent + partitioned pair.
        spec.attacks = vec![AttackKind::FlushReload];
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), 2 * SetupKind::ALL.len());
        assert!(scenarios.iter().all(|s| matches!(
            s.platform,
            PlatformKind::Coherent | PlatformKind::SharedPartitioned
        )));
    }

    #[test]
    fn expansion_with_no_applicable_points_is_an_error() {
        let mut spec = SweepSpec::full(1, 10, 1);
        spec.attacks = vec![AttackKind::FlushReload];
        spec.platforms = vec![PlatformKind::Private];
        // With the detection axis open, Flush+Reload re-canonicalizes
        // onto the coherent machine — the private platform only
        // becomes vacuous once detection is pinned off.
        spec.detection = vec![DetectionMode::Off];
        assert!(matches!(spec.expand().unwrap_err(), FleetError::BadSpec(_)));
    }

    #[test]
    fn shard_seeds_are_position_pure() {
        let spec = SweepSpec::smoke();
        let jobs = spec.jobs().unwrap();
        assert!(jobs.len() >= 18, "smoke spec too small: {}", jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.shard, i);
            assert_eq!(job.seed, mix64(spec.campaign_seed ^ i as u64));
        }
        // Same spec → same jobs, independent of everything else.
        assert_eq!(jobs, spec.jobs().unwrap());
    }

    #[test]
    fn scenario_keys_are_unique() {
        let spec = SweepSpec::full(7, 10, 2);
        let scenarios = spec.expand().unwrap();
        let keys: std::collections::BTreeSet<_> = scenarios.iter().map(|s| &s.key).collect();
        assert_eq!(keys.len(), scenarios.len());
    }

    #[test]
    fn detection_off_keys_match_the_historical_format() {
        let mut spec = SweepSpec::full(7, 10, 1);
        spec.detection = vec![DetectionMode::Off];
        spec.defenses = vec![DefenseKind::Off];
        let with_axis = spec.expand().unwrap();
        assert!(with_axis.iter().all(|s| s.key.split('/').count() == 5));
        assert!(with_axis.iter().all(|s| s.detection == DetectionMode::Off));
        assert!(with_axis.iter().all(|s| s.defense == DefenseKind::Off));
    }

    #[test]
    fn detection_scenarios_collapse_to_their_canonical_platform() {
        let mut spec = SweepSpec::full(7, 10, 1);
        spec.attacks = vec![AttackKind::PrimeProbe, AttackKind::FlushReload, AttackKind::Pwcet];
        spec.detection = vec![DetectionMode::Monitor, DetectionMode::Jitter];
        spec.defenses = vec![DefenseKind::Off];
        let scenarios = spec.expand().unwrap();
        // pWCET has no detection campaign; the others get one scenario
        // per (setup, mode) with a six-segment key.
        assert!(scenarios.iter().all(|s| s.attack != AttackKind::Pwcet));
        assert_eq!(scenarios.len(), 2 * 2 * SetupKind::ALL.len());
        for s in &scenarios {
            assert_eq!(s.key.split('/').count(), 6, "{}", s.key);
            assert!(s.key.ends_with("monitor") || s.key.ends_with("jitter"), "{}", s.key);
            let expected = match s.attack {
                AttackKind::FlushReload => PlatformKind::Coherent,
                _ => PlatformKind::Private,
            };
            assert_eq!(s.platform, expected, "{}", s.key);
        }
    }

    #[test]
    fn rtos_supports_monitoring_but_not_evasion_modes() {
        let mut spec = SweepSpec::full(7, 10, 1);
        spec.attacks = vec![AttackKind::Rtos];
        spec.detection = DetectionMode::ALL.to_vec();
        let scenarios = spec.expand().unwrap();
        assert!(scenarios
            .iter()
            .all(|s| matches!(s.detection, DetectionMode::Off | DetectionMode::Monitor)));
        // Monitoring keeps the full platform sub-lattice of the RTOS
        // campaign (private/shared/coherent), mirroring the off axis.
        let monitored = scenarios.iter().filter(|s| s.detection == DetectionMode::Monitor).count();
        let off = scenarios.iter().filter(|s| s.detection == DetectionMode::Off).count();
        assert_eq!(monitored, off);
    }

    #[test]
    fn detection_axis_roundtrips_and_widens_the_smoke_sweep() {
        let spec = SweepSpec::smoke();
        assert_eq!(spec.detection, vec![DetectionMode::Off, DetectionMode::Monitor]);
        let reparsed = SweepSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(spec, reparsed);
        // A spec without the key parses to the detection-off default.
        let legacy = SweepSpec::parse("attacks = prime-probe\nsetups = tscache\n").unwrap();
        assert_eq!(legacy.detection, vec![DetectionMode::Off]);
        assert!(SweepSpec::parse("attacks = rtos\nsetups = tscache\ndetection = bogus\n").is_err());
    }

    #[test]
    fn defense_axis_roundtrips_and_defaults_off() {
        let spec = SweepSpec::smoke();
        assert_eq!(
            spec.defenses,
            vec![DefenseKind::Off, DefenseKind::Ttl, DefenseKind::RotateCore]
        );
        let reparsed = SweepSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(spec, reparsed);
        // A spec without the key parses to the defense-off default, so
        // pre-axis spec files keep their exact scenario lists.
        let legacy = SweepSpec::parse("attacks = bernstein\nsetups = tscache\n").unwrap();
        assert_eq!(legacy.defenses, vec![DefenseKind::Off]);
        assert!(SweepSpec::parse("attacks = rtos\nsetups = tscache\ndefenses = bogus\n").is_err());
        // An explicitly empty axis is a refusal, not a default.
        assert!(matches!(
            SweepSpec::parse("attacks = rtos\nsetups = tscache\ndefenses =\n").unwrap_err(),
            FleetError::BadSpec(_)
        ));
    }

    #[test]
    fn defense_expansion_skips_inapplicable_points_and_tags_keys() {
        let mut spec = SweepSpec::full(7, 10, 1);
        spec.attacks = vec![AttackKind::Bernstein, AttackKind::Rtos];
        spec.detection = vec![DetectionMode::Off];
        spec.defenses = DefenseKind::ALL.to_vec();
        let scenarios = spec.expand().unwrap();
        for s in &scenarios {
            // The RTOS campaign owns its defenses; the axis never
            // reaches it.
            if s.attack == AttackKind::Rtos {
                assert_eq!(s.defense, DefenseKind::Off, "{}", s.key);
            }
            // Seed rotation needs a shared level to rotate.
            if s.defense.needs_shared_level() {
                assert_ne!(s.platform, PlatformKind::Private, "{}", s.key);
            }
            // Defense-off keys keep the historical form; defended keys
            // append exactly one trailing segment.
            let segments = s.key.split('/').count();
            if s.defense == DefenseKind::Off {
                assert_eq!(segments, 5, "{}", s.key);
            } else {
                assert_eq!(segments, 6, "{}", s.key);
                assert!(s.key.ends_with(s.defense.label()), "{}", s.key);
            }
        }
        // Private bernstein points carry the non-rotation defenses.
        let private_defenses: std::collections::BTreeSet<_> = scenarios
            .iter()
            .filter(|s| s.attack == AttackKind::Bernstein && s.platform == PlatformKind::Private)
            .map(|s| s.defense)
            .collect();
        assert!(private_defenses.contains(&DefenseKind::Ttl));
        assert!(private_defenses.contains(&DefenseKind::Normalize));
        assert!(private_defenses.contains(&DefenseKind::RandomSafe));
        assert!(!private_defenses.contains(&DefenseKind::RotateCore));
        // Shared points carry all six.
        let shared_defenses: std::collections::BTreeSet<_> = scenarios
            .iter()
            .filter(|s| s.attack == AttackKind::Bernstein && s.platform == PlatformKind::Shared)
            .map(|s| s.defense)
            .collect();
        assert_eq!(shared_defenses.len(), DefenseKind::ALL.len());
    }
}
