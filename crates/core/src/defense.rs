//! Defense policies orthogonal to placement/replacement kinds.
//!
//! The paper's dual verdict — *leakage closed?* and *time
//! predictability preserved?* — is asked of every cache defense, not
//! just randomized placement. This module names the defenses from the
//! related work (PAPERS.md) as a single axis that composes with any
//! [`SetupKind`](crate::setup::SetupKind). A [`DefenseKind`] is the one
//! description of a defense: [`Cache::apply_defense`] arms it on a
//! cache and [`SharedLlc::apply_defense`] on the shared level. The TTL
//! lifetime and the rotation cadence are constants beside the code
//! that applies them.
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
//!   re-derives per-process placement seeds on a deterministic fill
//!   cadence, for the whole shared level at once or one core at a
//!   time.
//!
//! Every defense is deterministic: the TTL lifetime stream and the
//! rotation schedule derive from the owning cache's seed and fill
//! stream, so campaigns reproduce bit for bit.
//!
//! [`Cache::apply_defense`]: crate::cache::Cache::apply_defense
//! [`SharedLlc::apply_defense`]: crate::hierarchy::SharedLlc::apply_defense

use core::fmt;

use crate::error::ConfigError;
use crate::setup::SetupKind;

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
    /// ClepsydraCache-style per-line TTL evictions at every level: each
    /// fill lives [`TTL_BASE`](crate::cache::TTL_BASE) +
    /// uniform(0..=[`TTL_JITTER`](crate::cache::TTL_JITTER)) accesses
    /// to its set, 2 to 5.
    Ttl,
    /// TimeCache-style timed-access normalization at every level.
    Normalize,
    /// Random-and-Safe composite configuration (replaces the base
    /// setup with [`SetupKind::RandomSafe`]).
    RandomSafe,
    /// Whole-shared-level seed rotation: every process is re-keyed
    /// and flushed together once per
    /// [`ROTATION_PERIOD`](crate::hierarchy::ROTATION_PERIOD) (2048)
    /// shared-level fills.
    RotatePartition,
    /// Per-core seed rotation on the shared level: one process,
    /// round-robin, is re-keyed and flushed once per
    /// [`ROTATION_PERIOD`](crate::hierarchy::ROTATION_PERIOD) (2048)
    /// shared-level fills.
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
