//! The Ljung-Box independence test.
//!
//! MBPTA requires execution times to be independent; the paper (§6.2.2)
//! applies Ljung-Box over 20 lags simultaneously — "a very strong
//! independence test" — at significance α = 0.05.

use crate::gamma::chi2_sf;
use crate::stats::autocorrelation;
use core::fmt;

/// Result of a Ljung-Box test.
#[derive(Debug, Clone, PartialEq)]
pub struct LjungBoxResult {
    /// The Q statistic.
    pub statistic: f64,
    /// Lags tested jointly.
    pub lags: usize,
    /// Asymptotic p-value (chi-square with `lags` dof).
    pub p_value: f64,
    /// The per-lag autocorrelations entering the statistic.
    pub autocorrelations: Vec<f64>,
}

impl LjungBoxResult {
    /// Whether the independence hypothesis survives at level `alpha`.
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

impl fmt::Display for LjungBoxResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ljung-Box Q({}) = {:.3}, p = {:.4}", self.lags, self.statistic, self.p_value)
    }
}

/// Runs the Ljung-Box test over `lags` lags.
///
/// `Q = n(n+2) Σ_k ρ̂_k² / (n−k)`, asymptotically χ²(lags) under
/// independence.
///
/// # Panics
///
/// Panics if the sample is shorter than `lags + 2` observations or
/// `lags == 0`.
///
/// # Examples
///
/// ```
/// use tscache_mbpta::ljung_box::ljung_box;
///
/// // A strongly autocorrelated ramp fails independence.
/// let ramp: Vec<f64> = (0..200).map(|i| i as f64).collect();
/// assert!(!ljung_box(&ramp, 20).passes(0.05));
/// ```
pub fn ljung_box(sample: &[f64], lags: usize) -> LjungBoxResult {
    assert!(lags > 0, "need at least one lag");
    assert!(sample.len() >= lags + 2, "sample of {} too short for {lags} lags", sample.len());
    let n = sample.len() as f64;
    let mut q = 0.0;
    let mut acs = Vec::with_capacity(lags);
    for k in 1..=lags {
        let rho = autocorrelation(sample, k);
        acs.push(rho);
        q += rho * rho / (n - k as f64);
    }
    q *= n * (n + 2.0);
    LjungBoxResult { statistic: q, lags, p_value: chi2_sf(q, lags as u32), autocorrelations: acs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream for test inputs.
    fn noise(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64) / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn white_noise_passes() {
        let mut passes = 0;
        for s in 0..40u64 {
            if ljung_box(&noise(s + 1, 400), 20).passes(0.05) {
                passes += 1;
            }
        }
        // Expect ~95% pass; demand at least 85%.
        assert!(passes >= 34, "only {passes}/40 noise samples passed");
    }

    #[test]
    fn ar1_fails() {
        // x_t = 0.7 x_{t-1} + e_t has strong autocorrelation.
        let e = noise(3, 500);
        let mut x = vec![0.0; 500];
        for i in 1..500 {
            x[i] = 0.7 * x[i - 1] + e[i];
        }
        let r = ljung_box(&x, 20);
        assert!(!r.passes(0.05), "{r}");
        assert!(r.autocorrelations[0] > 0.4);
    }

    #[test]
    fn statistic_grows_with_dependence() {
        let e = noise(9, 400);
        let mut weak = vec![0.0; 400];
        let mut strong = vec![0.0; 400];
        for i in 1..400 {
            weak[i] = 0.2 * weak[i - 1] + e[i];
            strong[i] = 0.9 * strong[i - 1] + e[i];
        }
        assert!(ljung_box(&strong, 20).statistic > ljung_box(&weak, 20).statistic);
    }

    #[test]
    fn p_value_in_unit_interval() {
        let r = ljung_box(&noise(5, 100), 10);
        assert!((0.0..=1.0).contains(&r.p_value));
        assert_eq!(r.lags, 10);
        assert_eq!(r.autocorrelations.len(), 10);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_sample_rejected() {
        ljung_box(&[1.0, 2.0, 3.0], 20);
    }

    #[test]
    fn display_mentions_q_and_p() {
        let s = ljung_box(&noise(1, 50), 5).to_string();
        assert!(s.contains("Ljung-Box Q(5)"));
        assert!(s.contains("p ="));
    }
}
