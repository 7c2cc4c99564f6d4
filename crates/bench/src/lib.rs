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

use std::any::type_name;
use std::env;
use std::process::exit;

/// Minimal CLI flag reader: `--name value` pairs, with defaults. An
/// absent flag reads as its default; a value that does not parse as
/// the flag's type (or, for an integer, does not fit it) ends the
/// process with status 1 and a message naming the flag, rather than
/// running with a value nobody asked for.
///
/// # Examples
///
/// ```
/// use tscache_bench::Args;
///
/// let args = Args::new(&["--samples".into(), "100".into()]);
/// assert_eq!(args.get_int("samples", 5u32), 100);
/// assert_eq!(args.get_int("seed", 7u64), 7);
/// assert_eq!(args.opt_int::<u32>("retries"), None);
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

    /// Reads an integer flag (decimal or 0x-hex) into `T`, or
    /// `default` when the flag is absent. Exits 1 when the value is not
    /// an integer or does not fit `T`, so `--samples 4294967296` for a
    /// `u32` is an error rather than a silent 0.
    pub fn get_int<T: TryFrom<u64>>(&self, key: &str, default: T) -> T {
        self.opt_int(key).unwrap_or(default)
    }

    /// Reads an optional integer flag by presence: `None` when absent,
    /// so every value, `0` and `T::MAX` included, keeps its meaning.
    /// Exits 1 like [`get_int`](Self::get_int).
    pub fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Option<T> {
        self.try_int(key).unwrap_or_else(|e| fail(&e))
    }

    /// Reads a float flag, or `default` when the flag is absent. Exits
    /// 1 when the value is not a number.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.try_f64(key).unwrap_or_else(|e| fail(&e)).unwrap_or(default)
    }

    /// Reads a string flag, or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.lookup(key).unwrap_or_else(|| default.to_string())
    }

    /// The integer reading behind [`opt_int`](Self::opt_int), with the
    /// error message instead of the exit.
    fn try_int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(v) = self.lookup(key) else { return Ok(None) };
        let n = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        };
        match n.and_then(|n| T::try_from(n).ok()) {
            Some(n) => Ok(Some(n)),
            None => Err(format!("--{key} {v}: not a {} integer", type_name::<T>())),
        }
    }

    /// The float reading behind [`get_f64`](Self::get_f64), with the
    /// error message instead of the exit.
    fn try_f64(&self, key: &str) -> Result<Option<f64>, String> {
        let Some(v) = self.lookup(key) else { return Ok(None) };
        v.parse().map(Some).map_err(|_| format!("--{key} {v}: not a number"))
    }

    fn lookup(&self, key: &str) -> Option<String> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }
}

/// Reports a malformed flag and ends the process with status 1.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(1)
}

/// Renders a proportional ASCII bar for terminal figures.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 { 0 } else { ((value / max) * width as f64).round() as usize };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::new(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_pairs_and_defaults() {
        let a = args(&["--samples", "123", "--seed", "0xff", "stray", "--alpha", "0.01"]);
        assert_eq!(a.get_int("samples", 1u32), 123);
        assert_eq!(a.get_int("seed", 1u64), 255);
        assert_eq!(a.get_f64("alpha", 0.05), 0.01);
    }

    #[test]
    fn absent_flags_read_as_their_defaults() {
        let a = args(&["--samples", "123"]);
        assert_eq!(a.get_int("missing", 42u32), 42);
        assert_eq!(a.opt_int::<u64>("missing"), None);
        assert_eq!(a.get_f64("alpha", 0.05), 0.05);
        assert_eq!(a.try_int::<u32>("missing"), Ok(None));
        assert_eq!(a.try_f64("missing"), Ok(None));
    }

    #[test]
    fn malformed_or_out_of_range_values_are_errors_naming_the_flag() {
        let a = args(&["--samples", "1e6", "--n", "4294967296", "--hex", "0x100000000"]);
        assert_eq!(a.try_int::<u32>("samples"), Err("--samples 1e6: not a u32 integer".into()));
        // One past u32::MAX must be refused, not truncated to 0.
        assert_eq!(a.try_int::<u32>("n"), Err("--n 4294967296: not a u32 integer".into()));
        assert_eq!(a.try_int::<u32>("hex"), Err("--hex 0x100000000: not a u32 integer".into()));
        assert_eq!(a.try_int::<u64>("n"), Ok(Some(1 << 32)));
        // One past u64::MAX, decimal or hex, must be refused, not wrapped.
        let a = args(&["--d", "18446744073709551616", "--e", "0x10000000000000000"]);
        let (d, e) = (a.try_int::<u64>("d"), a.try_int::<u64>("e"));
        assert_eq!(d, Err("--d 18446744073709551616: not a u64 integer".into()));
        assert_eq!(e, Err("--e 0x10000000000000000: not a u64 integer".into()));
        let a = args(&["--retries", "-1", "--alpha", "five percent"]);
        assert!(a.try_int::<u32>("retries").unwrap_err().starts_with("--retries -1:"));
        assert_eq!(a.try_f64("alpha"), Err("--alpha five percent: not a number".into()));
    }

    #[test]
    fn integer_flags_fit_their_type_up_to_its_maximum() {
        let a = args(&["--a", "4294967295", "--b", "0xffffffff", "--c", "18446744073709551615"]);
        assert_eq!(a.try_int::<u32>("a"), Ok(Some(u32::MAX)));
        assert_eq!(a.try_int::<u32>("b"), Ok(Some(u32::MAX)));
        assert_eq!(a.try_int::<u64>("c"), Ok(Some(u64::MAX)));
        assert_eq!(a.try_int::<usize>("a"), Ok(Some(u32::MAX as usize)));
    }

    #[test]
    fn last_flag_wins() {
        let a = args(&["--n", "1", "--n", "2"]);
        assert_eq!(a.get_int("n", 0u64), 2);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
