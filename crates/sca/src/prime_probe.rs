//! Prime+Probe — the canonical contention attack primitive (paper
//! §2.2, generalization argument in §6.2.1).
//!
//! The attacker fills the cache with its own lines (*prime*), lets the
//! victim run, then re-touches its lines (*probe*): a missing line
//! reveals a set the victim used. Under deterministic placement the
//! evicted line's index bits identify the victim's accessed address;
//! under per-process random placement the relationship is destroyed.

use tscache_core::addr::LineAddr;
use tscache_core::cache::Cache;
use tscache_core::defense::DefenseKind;
use tscache_core::error::ConfigError;
use tscache_core::geometry::CacheGeometry;
use tscache_core::parallel::par_map_indexed;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::{SeedSharing, SetupKind};

/// Outcome of a Prime+Probe campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimeProbeOutcome {
    /// Trials run.
    pub trials: u32,
    /// Fraction of trials where the attacker's set guess matched the
    /// victim's true index (1/128 ≈ 0.008 is chance level).
    pub accuracy: f64,
    /// Mean number of attacker lines evicted per trial.
    pub mean_evictions: f64,
}

impl PrimeProbeOutcome {
    /// Whether the attacker does meaningfully better than guessing.
    pub fn leaks(&self) -> bool {
        self.accuracy > 8.0 / 128.0
    }
}

/// Runs `trials` Prime+Probe rounds against the L1D policy of `setup`
/// with a [`DefenseKind`] from the zoo layered on top:
/// [`DefenseKind::RandomSafe`] swaps the platform for the
/// Random-and-Safe configuration, and TTL and normalization arm the
/// cache. The rotation defenses are refused: this primitive attacks a
/// single private L1, with no shared level to rotate.
///
/// Per trial the victim accesses one secret line (index drawn from the
/// trial's own RNG stream); the attacker primes the full cache, lets
/// the victim run, probes, and guesses the victim's index from the
/// first evicted prime line.
///
/// Trials are independent and fan out over worker threads
/// ([`tscache_core::parallel`]); every trial derives its randomness
/// purely from `(master_seed, trial)`, so the outcome is bit-identical
/// for any thread count (including `RAYON_NUM_THREADS=1`).
///
/// # Errors
///
/// [`ConfigError`] when `trials` is zero (the rates would be 0/0) or
/// `defense` is a seed-rotation defense.
pub fn run_prime_probe(
    setup: SetupKind,
    defense: DefenseKind,
    trials: u32,
    master_seed: u64,
) -> Result<PrimeProbeOutcome, ConfigError> {
    if trials == 0 {
        return Err(ConfigError::incompatible("prime+probe needs trials > 0"));
    }
    defense.validate_platform(false)?;
    let victim = ProcessId::new(1);
    let attacker = ProcessId::new(2);
    // Prime working set: 4 pages of attacker lines fill every set
    // 4-ways under both modulo and (bijective-per-page) random modulo.
    // Invariant across trials, so built once and shared.
    let prime_lines: Vec<LineAddr> = (0..512u64).map(LineAddr::new).collect();

    let results = par_map_indexed(trials as usize, |t| {
        let trial = t as u32;
        let mut trial_rng = SplitMix64::new(mix64(
            master_seed ^ 0x9199e ^ (trial as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
        ));
        let mut cache = attacked_l1d(setup, defense, master_seed, trial);
        cache.access_batch(attacker, &prime_lines);

        // Victim accesses one secret line.
        let secret_index = trial_rng.below(128) as u64;
        let victim_line = LineAddr::new(0x10_000 + secret_index);
        cache.access(victim, victim_line);

        // Probe: find evicted prime lines without disturbing state.
        let evicted: Vec<LineAddr> =
            prime_lines.iter().copied().filter(|&l| !cache.probe(attacker, l)).collect();
        let guessed_right = evicted
            .first()
            // The attacker's guess: the index bits of its evicted line.
            .is_some_and(|first| first.index_bits(7) == secret_index);
        (guessed_right, evicted.len() as u64)
    });

    let hits = results.iter().filter(|&&(hit, _)| hit).count();
    let total_evictions: u64 = results.iter().map(|&(_, e)| e).sum();
    Ok(PrimeProbeOutcome {
        trials,
        accuracy: hits as f64 / trials as f64,
        mean_evictions: total_evictions as f64 / trials as f64,
    })
}

/// The defended L1D an L1 contention attack runs against in `trial`:
/// the L1 policy of `defense`'s effective setup on the paper L1
/// geometry, with `defense` armed and the victim (pid 1) and the
/// attacker (pid 2) seeded per that setup's sharing policy.
pub(crate) fn attacked_l1d(
    setup: SetupKind,
    defense: DefenseKind,
    master_seed: u64,
    trial: u32,
) -> Cache {
    let setup = defense.effective_setup(setup);
    let (placement, replacement) = setup.l1_policy();
    let rng_seed = master_seed ^ trial as u64;
    let mut cache = Cache::new("L1D", CacheGeometry::paper_l1(), placement, replacement, rng_seed);
    cache.apply_defense(defense);
    let base = mix64(master_seed ^ (trial as u64) << 20);
    let (victim, attacker) = match setup.seed_sharing() {
        SeedSharing::Irrelevant => (Seed::ZERO, Seed::ZERO),
        SeedSharing::Shared => (Seed::new(base), Seed::new(base)),
        SeedSharing::PerProcess => (Seed::new(mix64(base ^ 1)), Seed::new(mix64(base ^ 2))),
    };
    cache.set_seed(ProcessId::new(1), victim);
    cache.set_seed(ProcessId::new(2), attacker);
    cache
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(setup: SetupKind, trials: u32, master_seed: u64) -> PrimeProbeOutcome {
        run_prime_probe(setup, DefenseKind::Off, trials, master_seed).expect("trials > 0")
    }

    #[test]
    fn zero_trials_is_a_config_error() {
        let err = run_prime_probe(SetupKind::Deterministic, DefenseKind::Off, 0, 7).unwrap_err();
        assert!(err.to_string().contains("trials > 0"), "{err}");
    }

    #[test]
    fn deterministic_cache_leaks_reliably() {
        let o = run(SetupKind::Deterministic, 200, 7);
        assert!(o.accuracy > 0.9, "accuracy {}", o.accuracy);
        assert!(o.leaks());
    }

    #[test]
    fn tscache_defeats_prime_probe() {
        let o = run(SetupKind::TsCache, 400, 7);
        assert!(o.accuracy < 0.06, "accuracy {}", o.accuracy);
        assert!(!o.leaks());
    }

    #[test]
    fn rpcache_randomizes_the_observed_set() {
        let o = run(SetupKind::RpCache, 400, 9);
        assert!(o.accuracy < 0.1, "accuracy {}", o.accuracy);
    }

    #[test]
    fn evictions_happen_in_all_setups() {
        for setup in SetupKind::ALL {
            let o = run(setup, 50, 3);
            assert!(o.mean_evictions > 0.4, "{setup}: {}", o.mean_evictions);
        }
    }
}
