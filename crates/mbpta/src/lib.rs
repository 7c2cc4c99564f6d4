//! # tscache-mbpta — measurement-based probabilistic timing analysis
//!
//! The statistical machinery of MBPTA (paper §2.1): i.i.d. validation
//! (Ljung-Box independence over 20 lags, two-sample Kolmogorov-Smirnov
//! identical-distribution), Extreme Value Theory fitting (Gumbel block
//! maxima, GPD peaks-over-threshold), and pWCET curves — all
//! implemented from first principles.
//!
//! ```
//! use tscache_mbpta::analysis::{analyze, MbptaConfig};
//!
//! // 1000 measured execution times (cycles) → pWCET at 1e-12.
//! let times: Vec<u64> = (0..1000).map(|i| 5_000 + (i * 2654435761u64 % 211)).collect();
//! let analysis = analyze(&times, &MbptaConfig::default());
//! let pwcet = analysis.pwcet(1e-12);
//! assert!(pwcet as f64 >= analysis.summary.max);
//! ```

pub mod analysis;
pub mod cv;
pub mod evt;
pub mod gamma;
pub mod iid;
pub mod ks;
pub mod ljung_box;
pub mod merge;
pub mod pwcet;
pub mod stats;

pub use analysis::{analyze, MbptaAnalysis, MbptaConfig};
pub use cv::{residual_cv, CvResult};
pub use evt::{fit_gumbel, Gumbel};
pub use iid::{validate_iid, validate_iid_paper, IidReport};
pub use ks::{ks_two_sample, KsResult};
pub use ljung_box::{ljung_box, LjungBoxResult};
pub use merge::{merge_shard_times, pooled_summary};
pub use pwcet::{PotPwcet, PwcetCurve};
