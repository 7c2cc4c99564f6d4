//! End-to-end MBPTA driver: measurements → i.i.d. tests → EVT →
//! pWCET curve (the full pipeline of paper Fig. 1 left).

use crate::iid::{validate_iid_paper, IidReport};
use crate::pwcet::PwcetCurve;
use crate::stats::{summarize, to_f64, Summary};
use core::fmt;

/// Configuration of the MBPTA pipeline. The i.i.d. gate always runs
/// the paper's protocol (§6.2.2: Ljung-Box over 20 lags and the KS
/// test, at α = 0.05).
#[derive(Debug, Clone, Copy)]
pub struct MbptaConfig {
    /// Block size for block-maxima EVT fitting.
    pub block_size: usize,
}

impl Default for MbptaConfig {
    fn default() -> Self {
        MbptaConfig { block_size: 20 }
    }
}

/// Outcome of an MBPTA analysis.
#[derive(Debug, Clone)]
pub struct MbptaAnalysis {
    /// Descriptive statistics of the measurements.
    pub summary: Summary,
    /// The i.i.d. validation gate.
    pub iid: IidReport,
    /// The fitted pWCET curve. Valid for certification arguments only
    /// when [`iid`](Self::iid) passed.
    pub curve: PwcetCurve,
}

impl MbptaAnalysis {
    /// The pWCET estimate at a target per-run exceedance probability
    /// (e.g. `1e-12` for the automotive budgets of paper Fig. 1).
    pub fn pwcet(&self, exceedance: f64) -> f64 {
        self.curve.quantile(exceedance)
    }

    /// Whether the measurement protocol supports EVT (both i.i.d.
    /// tests passed).
    pub fn is_mbpta_valid(&self) -> bool {
        self.iid.passed()
    }
}

impl fmt::Display for MbptaAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "runs: {}  mean: {:.0}  max: {:.0}",
            self.summary.n, self.summary.mean, self.summary.max
        )?;
        writeln!(f, "{}", self.iid)?;
        write!(f, "{}  pWCET@1e-12: {:.0}", self.curve, self.pwcet(1e-12))
    }
}

/// Runs the MBPTA pipeline on measured cycle counts.
///
/// # Panics
///
/// Panics if the series is too short for the i.i.d. tests or the
/// block size (roughly `max(44, 2·block_size)` runs).
///
/// # Examples
///
/// ```
/// use tscache_mbpta::analysis::{analyze, MbptaConfig};
///
/// let times: Vec<u64> = (0..500).map(|i| 10_000 + (i * 7919 % 97)).collect();
/// let analysis = analyze(&times, &MbptaConfig::default());
/// assert!(analysis.pwcet(1e-9) >= analysis.summary.max);
/// ```
pub fn analyze(times: &[u64], cfg: &MbptaConfig) -> MbptaAnalysis {
    let xs = to_f64(times);
    MbptaAnalysis {
        summary: summarize(&xs),
        iid: validate_iid_paper(&xs),
        curve: PwcetCurve::fit(&xs, cfg.block_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_times(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                12_000 + (state >> 52)
            })
            .collect()
    }

    #[test]
    fn pipeline_runs_and_bounds_observations() {
        let a = analyze(&random_times(1000, 3), &MbptaConfig::default());
        assert!(a.is_mbpta_valid(), "{a}");
        assert!(a.pwcet(1e-12) >= a.summary.max);
    }

    #[test]
    fn pwcet_grows_as_probability_shrinks() {
        let a = analyze(&random_times(1000, 5), &MbptaConfig::default());
        assert!(a.pwcet(1e-15) >= a.pwcet(1e-6));
        assert!(a.pwcet(1e-6) >= a.pwcet(1e-3));
    }

    #[test]
    fn trending_series_is_flagged_invalid() {
        let times: Vec<u64> = (0..500).map(|i| 10_000 + 10 * i).collect();
        let a = analyze(&times, &MbptaConfig::default());
        assert!(!a.is_mbpta_valid());
    }

    #[test]
    fn display_includes_pwcet() {
        let a = analyze(&random_times(500, 9), &MbptaConfig::default());
        assert!(a.to_string().contains("pWCET@1e-12"));
    }
}
