//! # tscache-bench — reproduction harnesses and micro-benchmarks
//!
//! One binary per figure/table of the paper's evaluation (see
//! `DESIGN.md` §4 for the experiment index):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig1_pwcet` | Fig. 1 (right): pWCET curve |
//! | `fig4_byte_profile` | Fig. 4: timing deviations per value of input byte 4 |
//! | `fig5_bernstein` | Fig. 5: Bernstein attack effectiveness, 4 setups |
//! | `tab_mbpta_compliance` | §6.2.2: Ljung-Box + KS i.i.d. validation |
//! | `tab_overheads` | §6.2.3: miss rates and seed-management overhead |
//! | `tab_compliance_matrix` | §3–§4: empirical mbpta/sca property matrix |
//! | `tab_contention_attacks` | §6.2.1 generalization: Prime+Probe / Evict+Time |
//!
//! Ablation harnesses extending the paper (`abl_seed_rotation`,
//! `abl_attack_convergence`, `abl_interference`, `abl_partitioning`).
//!
//! The throughput benches (`cargo bench`, [`harness`]-based: the
//! container has no network access, so Criterion is replaced by a
//! small self-contained timer) cover simulator throughput: placement
//! policies, cache accesses, simulated AES, and attack analysis. The
//! `bench_report` binary runs the headline metrics — scalar vs batch
//! cache accesses, placement cost per policy, simulated-AES
//! encryptions/sec, Bernstein samples/sec — and emits a
//! `BENCH_PR<N>.json` perf-trajectory artifact.

// Measuring wall-clock throughput is this crate's entire job; detlint
// likewise scopes its D1 rule to exclude the bench crate.
#![allow(clippy::disallowed_methods)]

pub mod harness;
pub mod suites;

use std::env;

/// Minimal CLI flag reader: `--name value` pairs, with defaults.
///
/// # Examples
///
/// ```
/// use tscache_bench::Args;
///
/// let args = Args::new(&["--samples".into(), "100".into()]);
/// assert_eq!(args.get_u64("samples", 5), 100);
/// assert_eq!(args.get_u64("seed", 7), 7);
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `--key value` pairs from the given argument list.
    pub fn new(argv: &[String]) -> Self {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i + 1 < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                pairs.push((key.to_string(), argv[i + 1].clone()));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    /// Parses the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        let argv: Vec<String> = env::args().skip(1).collect();
        Args::new(&argv)
    }

    /// Reads an integer flag (decimal or 0x-hex), or `default`.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.lookup(key).and_then(|v| parse_u64(&v)).unwrap_or(default)
    }

    /// Reads a float flag, or `default`.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.lookup(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Reads a string flag, or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.lookup(key).unwrap_or_else(|| default.to_string())
    }

    fn lookup(&self, key: &str) -> Option<String> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Renders a proportional ASCII bar for terminal figures.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 { 0 } else { ((value / max) * width as f64).round() as usize };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_and_defaults() {
        let a = Args::new(&[
            "--samples".into(),
            "123".into(),
            "--seed".into(),
            "0xff".into(),
            "stray".into(),
        ]);
        assert_eq!(a.get_u64("samples", 1), 123);
        assert_eq!(a.get_u64("seed", 1), 255);
        assert_eq!(a.get_u64("missing", 42), 42);
        assert_eq!(a.get_f64("alpha", 0.05), 0.05);
    }

    #[test]
    fn last_flag_wins() {
        let a = Args::new(&["--n".into(), "1".into(), "--n".into(), "2".into()]);
        assert_eq!(a.get_u64("n", 0), 2);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
