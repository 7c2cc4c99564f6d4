//! Bernstein's correlation attack on AES (paper §6.1.1, Fig. 5).
//!
//! The attacker profiles encryption time on a machine with a *known*
//! key, the victim's timings are profiled with the *secret* key, and
//! the per-byte timing signatures are correlated across all 256 key-
//! byte hypotheses. The paper's evaluation keeps, per byte, every value
//! whose correlation is at least the true value's — "the most stringent
//! correlation factor so that the correct value remains feasible" —
//! i.e. the attacker's best case.

use crate::profile::TimingProfile;
use crate::sampling::{collect_pair, SamplingConfig, TimingSample};
use core::fmt;
use tscache_core::error::ConfigError;
use tscache_core::parallel;
use tscache_core::prng::{Prng, SplitMix64};

/// Pearson correlation of two 256-point signatures.
fn correlation(a: &[f64; 256], b: &[f64; 256]) -> f64 {
    let ma = a.iter().sum::<f64>() / 256.0;
    let mb = b.iter().sum::<f64>() / 256.0;
    let mut sab = 0.0;
    let mut saa = 0.0;
    let mut sbb = 0.0;
    for i in 0..256 {
        let da = a[i] - ma;
        let db = b[i] - mb;
        sab += da * db;
        saa += da * da;
        sbb += db * db;
    }
    if saa == 0.0 || sbb == 0.0 {
        0.0
    } else {
        sab / (saa * sbb).sqrt()
    }
}

/// Attack outcome for one key byte.
#[derive(Debug, Clone)]
pub struct ByteAttackResult {
    /// Byte position (0..16).
    pub byte: usize,
    /// The true key byte (known to the evaluation, not the attacker).
    pub true_value: u8,
    /// Correlation score per key-byte hypothesis.
    pub scores: Vec<f64>,
    /// Whether the score landscape is distinguishable from noise (see
    /// [`SIGNIFICANCE_SIGMA`]). Non-significant bytes discard nothing:
    /// a random-looking score vector carries no brute-force guidance,
    /// which is how the paper's TSCache row stays at 2¹²⁸ even though
    /// some values score "higher" by chance.
    pub significant: bool,
    /// Hypotheses the stringent threshold could not discard (always
    /// contains `true_value`).
    pub feasible: Vec<u8>,
}

/// Significance gate for per-byte correlation landscapes, in units of
/// the null standard deviation `1/√(n−3)` of a Pearson correlation
/// over 256 points. The best-aligned hypothesis of pure noise reaches
/// ≈ 2.7σ (max of 256 draws); 4σ keeps the family-wise false-positive
/// rate below 1%.
pub const SIGNIFICANCE_SIGMA: f64 = 4.0;

impl ByteAttackResult {
    /// Number of feasible values left (1 = byte fully recovered,
    /// 256 = nothing learned).
    pub fn feasible_count(&self) -> usize {
        self.feasible.len()
    }

    /// Bits of the byte determined by the attack:
    /// `8 − log2(feasible)`.
    pub fn bits_determined(&self) -> f64 {
        8.0 - (self.feasible_count() as f64).log2()
    }

    /// Whether the attack discarded anything for this byte.
    pub fn is_vulnerable(&self) -> bool {
        self.feasible_count() < 256
    }

    /// Whether hypothesis `v` remains feasible.
    pub fn is_feasible(&self, v: u8) -> bool {
        self.feasible.contains(&v)
    }
}

/// Attack outcome over all 16 key bytes.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Per-byte outcomes, index = byte position.
    pub bytes: Vec<ByteAttackResult>,
}

impl AttackResult {
    /// Total key bits determined (the paper reports 33 of 128 on the
    /// deterministic setup).
    pub fn bits_determined(&self) -> f64 {
        self.bytes.iter().map(|b| b.bits_determined()).sum()
    }

    /// log₂ of the residual keyspace (the paper's 2⁸⁰ / 2¹⁰⁸ / 2¹⁰⁴ /
    /// 2¹²⁸ numbers).
    pub fn residual_keyspace_log2(&self) -> f64 {
        128.0 - self.bits_determined()
    }

    /// Number of bytes where anything was discarded.
    pub fn vulnerable_bytes(&self) -> usize {
        self.bytes.iter().filter(|b| b.is_vulnerable()).count()
    }

    /// Renders the Fig. 5 cell matrix: one row per key byte, one
    /// character per value — `.` discarded (white), `+` feasible
    /// (grey), `#` the true key value (black).
    pub fn matrix(&self) -> String {
        let mut out = String::with_capacity(16 * 257);
        for b in &self.bytes {
            for v in 0..=255u8 {
                out.push(if v == b.true_value {
                    '#'
                } else if b.is_feasible(v) {
                    '+'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }

    /// A terminal-friendly 64-column condensation of
    /// [`matrix`](Self::matrix): each character covers four adjacent
    /// values (`#` if the true value is among them, `+` if any is
    /// feasible, `.` otherwise).
    pub fn matrix_condensed(&self) -> String {
        let mut out = String::with_capacity(16 * 65);
        for b in &self.bytes {
            for group in 0..64u16 {
                let vals = (4 * group)..(4 * group + 4);
                let has_true = vals.clone().any(|v| v as u8 == b.true_value);
                let any_feasible = vals.clone().any(|v| b.is_feasible(v as u8));
                out.push(if has_true {
                    '#'
                } else if any_feasible {
                    '+'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for AttackResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bits determined: {:.1} / 128, residual keyspace: 2^{:.1}, vulnerable bytes: {}/16",
            self.bits_determined(),
            self.residual_keyspace_log2(),
            self.vulnerable_bytes()
        )?;
        write!(f, "{}", self.matrix_condensed())
    }
}

/// Runs the correlation analysis given both nodes' samples and keys.
///
/// For each byte `j` and hypothesis `g`, the victim's signature at
/// plaintext value `v` is matched against the attacker's signature at
/// `v ⊕ g ⊕ k'_j` (aligning both to the table-input domain); the score
/// is the Pearson correlation over the 256 values. The stringent
/// threshold keeps hypotheses scoring at least the true value's score.
pub fn analyze(
    attacker_samples: &[TimingSample],
    attacker_key: &[u8; 16],
    victim_samples: &[TimingSample],
    victim_key: &[u8; 16],
) -> AttackResult {
    // The two profiles aggregate independent streams: build them
    // concurrently, then sweep the 16 key bytes in parallel (each
    // byte's 256-hypothesis correlation sweep is pure, so the result
    // is identical for every thread count).
    let (attacker, victim) = parallel::join(
        || TimingProfile::from_samples(attacker_samples),
        || TimingProfile::from_samples(victim_samples),
    );
    let bytes = parallel::par_map_indexed(16, |j| {
        let sig_v = victim.signature(j);
        let sig_a = attacker.signature(j);
        let mut scores = Vec::with_capacity(256);
        for g in 0..=255u8 {
            // Align: victim plaintext v ↦ table input v ⊕ g; the
            // attacker observed that input at plaintext (v⊕g) ⊕ k'_j.
            let shifted: [f64; 256] =
                core::array::from_fn(|v| sig_a[(v as u8 ^ g ^ attacker_key[j]) as usize]);
            scores.push(correlation(&sig_v, &shifted));
        }
        let true_value = victim_key[j];
        // Null std of a 256-point Pearson correlation.
        let sigma = 1.0 / (253.0f64).sqrt();
        let max_score = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let significant = max_score > SIGNIFICANCE_SIGMA * sigma;
        let feasible: Vec<u8> = if significant {
            let threshold = scores[true_value as usize];
            (0..=255u8).filter(|&g| scores[g as usize] >= threshold).collect()
        } else {
            (0..=255u8).collect()
        };
        ByteAttackResult { byte: j, true_value, scores, significant, feasible }
    });
    AttackResult { bytes }
}

/// End-to-end Bernstein experiment on one cache setup: random victim
/// key, fixed attacker key, sample collection on both nodes, then the
/// correlation analysis.
///
/// # Errors
///
/// [`ConfigError`] when [`SamplingConfig::validate`] rejects `cfg`.
pub fn run_attack(cfg: SamplingConfig) -> Result<AttackResult, ConfigError> {
    let mut rng = SplitMix64::new(cfg.master_seed ^ 0x006b_6579);
    let attacker_key = [0u8; 16];
    let mut victim_key = [0u8; 16];
    for b in victim_key.iter_mut() {
        *b = (rng.next_u32() & 0xff) as u8;
    }
    let (attacker_samples, victim_samples) = collect_pair(cfg, &attacker_key, &victim_key)?;
    Ok(analyze(&attacker_samples, &attacker_key, &victim_samples, &victim_key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_of_identical_signatures_is_one() {
        let sig: [f64; 256] = core::array::from_fn(|i| (i % 7) as f64);
        assert!((correlation(&sig, &sig) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_flat_signature_is_zero() {
        let flat = [0.0; 256];
        let sig: [f64; 256] = core::array::from_fn(|i| i as f64);
        assert_eq!(correlation(&flat, &sig), 0.0);
    }

    /// A synthetic oracle: time = base + bump when the table input's
    /// line is "slow". The attack must recover the key byte exactly up
    /// to the 8-value line ambiguity.
    fn synthetic_samples(key: &[u8; 16], n: u32, seed: u64) -> Vec<TimingSample> {
        let slow_line = |x: u8| matches!(x >> 3, 0 | 5 | 11 | 19 | 26);
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let mut pt = [0u8; 16];
                for b in pt.iter_mut() {
                    *b = (rng.next_u32() & 0xff) as u8;
                }
                let mut cycles = 10_000u64;
                for j in 0..16 {
                    if slow_line(pt[j] ^ key[j]) {
                        cycles += 90;
                    }
                }
                TimingSample { plaintext: pt, cycles }
            })
            .collect()
    }

    #[test]
    fn recovers_synthetic_keys_to_line_granularity() {
        let attacker_key = [0u8; 16];
        let victim_key: [u8; 16] =
            core::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11));
        let a = synthetic_samples(&attacker_key, 30_000, 1);
        let v = synthetic_samples(&victim_key, 30_000, 2);
        let result = analyze(&a, &attacker_key, &v, &victim_key);
        // Every byte leaks: the 8-value line ambiguity leaves exactly
        // 8 feasible candidates (5 bits determined per byte).
        for b in &result.bytes {
            assert!(b.is_feasible(victim_key[b.byte]));
            assert!(b.feasible_count() <= 16, "byte {}: {} candidates", b.byte, b.feasible_count());
        }
        assert!(result.bits_determined() > 60.0, "{result}");
    }

    #[test]
    fn uncorrelated_nodes_learn_nothing_much() {
        // Signatures built from unrelated random noise: the stringent
        // threshold keeps many candidates on average.
        let mut rng = SplitMix64::new(5);
        let noise = |rng: &mut SplitMix64, n: u32| {
            (0..n)
                .map(|_| {
                    let mut pt = [0u8; 16];
                    for b in pt.iter_mut() {
                        *b = (rng.next_u32() & 0xff) as u8;
                    }
                    TimingSample { plaintext: pt, cycles: 10_000 + (rng.next_u32() % 50) as u64 }
                })
                .collect::<Vec<_>>()
        };
        let a = noise(&mut rng, 20_000);
        let v = noise(&mut rng, 20_000);
        let keys = [0u8; 16];
        let result = analyze(&a, &keys, &v, &keys);
        // With pure noise the expected feasible count is ~128 per byte.
        assert!(result.residual_keyspace_log2() > 90.0, "noise leaked too much: {result}");
    }

    #[test]
    fn true_value_always_feasible() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let a = synthetic_samples(&[0u8; 16], 2000, 3);
        let v = synthetic_samples(&key, 2000, 4);
        let result = analyze(&a, &[0u8; 16], &v, &key);
        for b in &result.bytes {
            assert!(b.is_feasible(b.true_value), "byte {} lost the key", b.byte);
        }
    }

    #[test]
    fn matrix_dimensions_and_symbols() {
        let key = [3u8; 16];
        let a = synthetic_samples(&[0u8; 16], 500, 5);
        let v = synthetic_samples(&key, 500, 6);
        let result = analyze(&a, &[0u8; 16], &v, &key);
        let m = result.matrix();
        let rows: Vec<&str> = m.lines().collect();
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.len() == 256));
        // Exactly one '#' per row.
        assert!(rows.iter().all(|r| r.chars().filter(|&c| c == '#').count() == 1));
        let condensed = result.matrix_condensed();
        assert!(condensed.lines().all(|r| r.len() == 64));
    }

    #[test]
    fn bits_metrics_are_consistent() {
        let key = [9u8; 16];
        let a = synthetic_samples(&[0u8; 16], 5000, 7);
        let v = synthetic_samples(&key, 5000, 8);
        let r = analyze(&a, &[0u8; 16], &v, &key);
        assert!((r.bits_determined() + r.residual_keyspace_log2() - 128.0).abs() < 1e-9);
    }
}
