//! Defense policies orthogonal to placement/replacement kinds.
//!
//! The paper's dual verdict — *leakage closed?* and *time
//! predictability preserved?* — is asked of every cache defense, not
//! just randomized placement. This module names the defenses from the
//! related work (PAPERS.md) as a single axis that composes with any
//! [`SetupKind`](crate::setup::SetupKind):
//!
//! - **TTL evictions** (ClepsydraCache): every fill arms a randomized
//!   per-line lifetime; set accesses decrement resident lifetimes and
//!   deterministically drain expired lines, so an attacker's primed
//!   lines decay before the victim returns.
//! - **Timed-access normalization** (TimeCache): the first access a
//!   process makes to a line another process loaded is *levelled* to
//!   miss latency, so reload/probe timing no longer distinguishes
//!   "victim touched it" from "still cold".
//! - **Random-and-Safe**: a composite configuration pairing randomized
//!   placement with safe (random) replacement and per-process seeds at
//!   every level — the [`SetupKind::RandomSafe`] preset.
//! - **Seed rotation** beyond per-hyperperiod: the shared level
//!   re-derives per-process placement seeds on a deterministic op
//!   cadence, for the whole shared level at once or one core at a
//!   time.
//!
//! All knobs are deterministic: the TTL jitter stream and rotation
//! schedule derive from the owning cache's seed, so scalar and batch
//! walks stay bit-identical and campaigns reproduce.

use core::fmt;

use crate::error::ConfigError;
use crate::setup::SetupKind;

/// Per-line TTL (time-to-live) configuration for ClepsydraCache-style
/// timed evictions.
///
/// Each fill arms the line with `base + uniform(0..=jitter)` remaining
/// accesses-to-its-set; every access to a set decrements the resident
/// lines' lifetimes, and a line whose lifetime hits zero is drained
/// (dirty lines count a writeback, all expiries count
/// [`ttl_expiries`](crate::stats::CacheStats::ttl_expiries)).
///
/// `base == 0` means *infinite* lifetime: the defense is off and the
/// cache is bit-identical to an undefended one.
///
/// # Examples
///
/// ```
/// use tscache_core::defense::TtlConfig;
///
/// let ttl = TtlConfig::standard();
/// assert!(ttl.base > 0);
/// assert!(!TtlConfig { base: 0, jitter: 0 }.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TtlConfig {
    /// Guaranteed lifetime in set-accesses; 0 disables expiry.
    pub base: u8,
    /// Upper bound of the per-fill uniform random lifetime extension.
    pub jitter: u8,
}

impl TtlConfig {
    /// The standard zoo parameters: short enough that primed lines
    /// decay within one probe round, jittered so decay order leaks no
    /// schedule.
    pub const fn standard() -> Self {
        TtlConfig { base: 2, jitter: 3 }
    }

    /// Whether lines actually expire (`base > 0`).
    pub const fn is_finite(&self) -> bool {
        self.base > 0
    }
}

/// Seed-rotation policy on the shared cache level.
///
/// The paper rotates seeds per hyperperiod; the zoo adds finer
/// policies that re-derive per-process placement seeds after every
/// `period` fill requests the shared level resolves, flushing the
/// rotated processes' lines for §5 seed-change consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotationPolicy {
    /// No rotation (per-hyperperiod rotation stays the RTOS's job).
    Off,
    /// Rotate every process's seed on the whole shared level every
    /// `period` fills.
    PerPartition {
        /// Fill requests between rotations.
        period: u64,
    },
    /// Rotate one core's (process's) seed every `period` fills,
    /// round-robin over the processes.
    PerCore {
        /// Fill requests between rotations.
        period: u64,
    },
}

impl RotationPolicy {
    /// The rotation cadence, or `None` when off.
    pub fn period(&self) -> Option<u64> {
        match self {
            RotationPolicy::Off => None,
            RotationPolicy::PerPartition { period } | RotationPolicy::PerCore { period } => {
                Some(*period)
            }
        }
    }
}

/// One defense from the zoo, applied on top of a base
/// [`SetupKind`](crate::setup::SetupKind).
///
/// # Examples
///
/// ```
/// use tscache_core::defense::DefenseKind;
/// use tscache_core::setup::SetupKind;
///
/// assert_eq!(
///     DefenseKind::RandomSafe.effective_setup(SetupKind::Deterministic),
///     SetupKind::RandomSafe,
/// );
/// assert_eq!(
///     DefenseKind::Ttl.effective_setup(SetupKind::Deterministic),
///     SetupKind::Deterministic,
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefenseKind {
    /// Undefended baseline.
    Off,
    /// ClepsydraCache-style per-line TTL evictions at every level.
    Ttl,
    /// TimeCache-style timed-access normalization at every level.
    Normalize,
    /// Random-and-Safe composite configuration (replaces the base
    /// setup with [`SetupKind::RandomSafe`]).
    RandomSafe,
    /// Whole-shared-level seed rotation: every process is re-keyed
    /// and flushed together each period.
    RotatePartition,
    /// Per-core seed rotation on the shared level.
    RotateCore,
}

impl DefenseKind {
    /// Every defense, in canonical sweep order.
    pub const ALL: [DefenseKind; 6] = [
        DefenseKind::Off,
        DefenseKind::Ttl,
        DefenseKind::Normalize,
        DefenseKind::RandomSafe,
        DefenseKind::RotatePartition,
        DefenseKind::RotateCore,
    ];

    /// The default rotation cadence (fill requests between rotations)
    /// for the rotating defenses.
    pub const STANDARD_ROTATION_PERIOD: u64 = 2048;

    /// Stable lowercase label (used in campaign keys and reports).
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::Off => "off",
            DefenseKind::Ttl => "ttl",
            DefenseKind::Normalize => "normalize",
            DefenseKind::RandomSafe => "random-safe",
            DefenseKind::RotatePartition => "rotate-partition",
            DefenseKind::RotateCore => "rotate-core",
        }
    }

    /// The TTL configuration this defense arms, if any.
    pub fn ttl(&self) -> Option<TtlConfig> {
        match self {
            DefenseKind::Ttl => Some(TtlConfig::standard()),
            _ => None,
        }
    }

    /// Whether this defense arms timed-access normalization.
    pub fn normalize(&self) -> bool {
        matches!(self, DefenseKind::Normalize)
    }

    /// The shared-level seed-rotation policy this defense arms.
    pub fn rotation(&self) -> RotationPolicy {
        match self {
            DefenseKind::RotatePartition => {
                RotationPolicy::PerPartition { period: Self::STANDARD_ROTATION_PERIOD }
            }
            DefenseKind::RotateCore => {
                RotationPolicy::PerCore { period: Self::STANDARD_ROTATION_PERIOD }
            }
            _ => RotationPolicy::Off,
        }
    }

    /// The setup a platform should actually be built with: the
    /// Random-and-Safe defense *is* a configuration, so it replaces
    /// the base setup; every other defense composes with it.
    pub fn effective_setup(&self, base: SetupKind) -> SetupKind {
        match self {
            DefenseKind::RandomSafe => SetupKind::RandomSafe,
            _ => base,
        }
    }

    /// Whether this defense needs a shared last level to act at all
    /// (the rotation policies tick on the shared level's fill stream).
    pub fn needs_shared_level(&self) -> bool {
        matches!(self, DefenseKind::RotatePartition | DefenseKind::RotateCore)
    }

    /// Validates the defense against a platform shape, for campaign
    /// executors that must reject a bad spec as a typed
    /// [`ConfigError`] instead of silently no-opping.
    pub fn validate_platform(&self, shared_llc: bool) -> Result<(), ConfigError> {
        if self.needs_shared_level() && !shared_llc {
            return Err(ConfigError::incompatible(
                "seed-rotation defenses act on the shared level; this platform has none",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = DefenseKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            ["off", "ttl", "normalize", "random-safe", "rotate-partition", "rotate-core"],
        );
    }

    #[test]
    fn knob_mapping_is_consistent() {
        assert!(DefenseKind::Off.ttl().is_none());
        assert!(DefenseKind::Ttl.ttl().expect("armed").is_finite());
        assert!(DefenseKind::Normalize.normalize());
        assert!(!DefenseKind::Ttl.normalize());
        assert_eq!(DefenseKind::Off.rotation(), RotationPolicy::Off);
        assert_eq!(
            DefenseKind::RotateCore.rotation().period(),
            Some(DefenseKind::STANDARD_ROTATION_PERIOD),
        );
    }

    #[test]
    fn only_random_safe_replaces_the_setup() {
        for kind in DefenseKind::ALL {
            let eff = kind.effective_setup(SetupKind::Deterministic);
            if kind == DefenseKind::RandomSafe {
                assert_eq!(eff, SetupKind::RandomSafe);
            } else {
                assert_eq!(eff, SetupKind::Deterministic);
            }
        }
    }

    #[test]
    fn rotation_requires_shared_level() {
        assert!(DefenseKind::RotateCore.validate_platform(false).is_err());
        assert!(DefenseKind::RotateCore.validate_platform(true).is_ok());
        assert!(DefenseKind::Ttl.validate_platform(false).is_ok());
    }
}
