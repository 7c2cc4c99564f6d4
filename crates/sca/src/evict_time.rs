//! Evict+Time — the second contention attack primitive (paper §2.2).
//!
//! The attacker evicts one chosen cache set between two victim runs
//! and compares the victim's execution time: a slowdown reveals that
//! the victim uses the targeted set. Under deterministic placement the
//! attacker can walk all sets and map out the victim's footprint; with
//! per-process seeds the "targeted" set lands somewhere unrelated in
//! the victim's layout.

use crate::prime_probe::attacked_l1d;
use tscache_core::addr::LineAddr;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::parallel::par_map_indexed;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::seed::ProcessId;
use tscache_core::setup::SetupKind;

/// Outcome of an Evict+Time campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictTimeOutcome {
    /// Trials run.
    pub trials: u32,
    /// Fraction of trials where the slowdown test correctly decided
    /// whether the victim used the targeted index (0.5 = coin flip).
    pub detection_rate: f64,
}

impl EvictTimeOutcome {
    /// Whether detection beats guessing by a clear margin.
    pub fn leaks(&self) -> bool {
        self.detection_rate > 0.7
    }
}

/// Runs `trials` Evict+Time rounds against the L1D policy of `setup`
/// with a defense-zoo policy armed on the L1 under attack. TTL expiries
/// inject slowdowns uncorrelated with the attacker's target choice;
/// [`DefenseKind::RandomSafe`] swaps in the Random-and-Safe platform;
/// the rotation defenses are no-ops here (single private L1, no shared
/// level).
///
/// Per trial: the victim warms its secret line; the attacker evicts the
/// lines of one target index (four ways deep, at its own addresses);
/// the victim re-runs and the attacker observes whether the re-run
/// missed. Half the trials target the victim's true index, half a
/// different one; the detection rate counts correct decisions.
/// Trials are independent and fan out over worker threads
/// ([`tscache_core::parallel`]); every trial derives its randomness
/// purely from `(master_seed, trial)`, so the outcome is bit-identical
/// for any thread count.
///
/// # Errors
///
/// [`ConfigError`] when `trials` is zero (the rate would be 0/0).
pub fn run_evict_time(
    setup: SetupKind,
    defense: DefenseKind,
    trials: u32,
    master_seed: u64,
) -> Result<EvictTimeOutcome, ConfigError> {
    if trials == 0 {
        return Err(ConfigError::incompatible("evict+time needs trials > 0"));
    }
    let victim = ProcessId::new(1);
    let attacker = ProcessId::new(2);

    let decisions = par_map_indexed(trials as usize, |t| {
        let trial = t as u32;
        let mut trial_rng = SplitMix64::new(mix64(
            master_seed ^ 0xe71c7 ^ (trial as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
        ));
        let mut cache = attacked_l1d(setup, defense, master_seed, trial);
        let secret_index = trial_rng.below(128) as u64;
        let victim_line = LineAddr::new(0x10_000 + secret_index);
        // Victim warms its line.
        cache.access(victim, victim_line);

        // Attacker targets either the true index or a decoy.
        let target_truth = trial.is_multiple_of(2);
        let target_index = if target_truth {
            secret_index
        } else {
            (secret_index + 1 + trial_rng.below(126) as u64) % 128
        };
        // Evict: four attacker lines with those index bits (one per
        // page, so random modulo spreads them independently).
        for way in 0..4u64 {
            cache.access(attacker, LineAddr::new(0x20_000 + way * 128 + target_index));
        }

        // Victim re-runs; the attacker times it (miss = slowdown).
        let slowed = cache.access(victim, victim_line).is_miss();
        // Decision rule: slowdown ⇒ the target was the victim's index.
        slowed == target_truth
    });

    let correct = decisions.iter().filter(|&&c| c).count();
    Ok(EvictTimeOutcome { trials, detection_rate: correct as f64 / trials as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(setup: SetupKind, trials: u32, master_seed: u64) -> EvictTimeOutcome {
        run_evict_time(setup, DefenseKind::Off, trials, master_seed).expect("trials > 0")
    }

    #[test]
    fn zero_trials_is_a_config_error() {
        let err = run_evict_time(SetupKind::Deterministic, DefenseKind::Off, 0, 3).unwrap_err();
        assert!(err.to_string().contains("trials > 0"), "{err}");
    }

    #[test]
    fn deterministic_cache_is_fully_observable() {
        let o = run(SetupKind::Deterministic, 300, 3);
        assert!(o.detection_rate > 0.95, "rate {}", o.detection_rate);
        assert!(o.leaks());
    }

    #[test]
    fn tscache_reduces_detection_to_chance() {
        let o = run(SetupKind::TsCache, 600, 3);
        assert!((o.detection_rate - 0.5).abs() < 0.1, "rate {} not chance-like", o.detection_rate);
        assert!(!o.leaks());
    }

    #[test]
    fn rpcache_disrupts_targeting() {
        let o = run(SetupKind::RpCache, 600, 5);
        assert!(o.detection_rate < 0.8, "rate {}", o.detection_rate);
    }

    #[test]
    fn trials_counted() {
        let o = run(SetupKind::Deterministic, 10, 1);
        assert_eq!(o.trials, 10);
    }
}
