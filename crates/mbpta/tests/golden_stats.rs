//! Golden-fixture regression tests for the MBPTA statistics kernels
//! (`ks`, `ljung_box`, `cv`): fixed deterministic inputs with
//! precomputed expected outputs, pinned so the statistics cannot drift
//! silently under future refactors of the kernels or their shared
//! helpers (`gamma`, `stats`).
//!
//! Statistic values (pure arithmetic over f64) are pinned tightly;
//! p-values route through `exp`/`ln` and get a slightly wider
//! tolerance for libm differences across platforms.

use tscache_mbpta::cv::residual_cv;
use tscache_mbpta::ks::ks_two_sample;
use tscache_mbpta::ljung_box::ljung_box;

/// The fixture stream: the same LCG the kernels' unit tests use, so
/// fixtures are reproducible from the seed alone.
fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / (1u64 << 53) as f64
        })
        .collect()
}

/// An AR(1) series over the fixture stream (dependent input for
/// Ljung-Box).
fn ar1(seed: u64, n: usize, phi: f64) -> Vec<f64> {
    let e = lcg_stream(seed, n);
    let mut x = vec![0.0; n];
    for i in 1..n {
        x[i] = phi * x[i - 1] + e[i];
    }
    x
}

/// Exponential draws (memoryless tail for the CV fixture).
fn exponential(seed: u64, n: usize) -> Vec<f64> {
    lcg_stream(seed, n).into_iter().map(|u| -(1.0 - u).ln()).collect()
}

const STAT_TOL: f64 = 1e-12;
const P_TOL: f64 = 1e-9;

macro_rules! assert_close {
    ($got:expr, $want:expr, $tol:expr, $what:expr) => {{
        let (got, want) = ($got, $want);
        assert!((got - want).abs() <= $tol, "{} drifted: got {got:.15}, pinned {want:.15}", $what);
    }};
}

#[test]
fn ks_two_sample_golden() {
    let a = lcg_stream(1, 400);
    let b = lcg_stream(2, 300);
    let r = ks_two_sample(&a, &b);
    assert_eq!((r.n1, r.n2), (400, 300));
    assert_close!(r.statistic, 0.096666666666667, 1e-12, "KS D (same-dist)");
    assert_close!(r.p_value, 0.076240365574641, P_TOL, "KS p (same-dist)");
    assert!(r.passes(0.05));

    let shifted: Vec<f64> = lcg_stream(3, 350).into_iter().map(|x| x + 0.25).collect();
    let r2 = ks_two_sample(&a, &shifted);
    assert_close!(r2.statistic, 0.3025, STAT_TOL, "KS D (shifted)");
    assert_close!(r2.p_value, 0.000000000000002, P_TOL, "KS p (shifted)");
    assert!(!r2.passes(0.05));
}

#[test]
fn ljung_box_golden() {
    let noise = lcg_stream(7, 500);
    let r = ljung_box(&noise, 20);
    assert_eq!(r.lags, 20);
    assert_eq!(r.autocorrelations.len(), 20);
    assert_close!(r.statistic, 27.210840904446602, 1e-9, "LB Q (noise)");
    assert_close!(r.p_value, 0.129435682991979, P_TOL, "LB p (noise)");
    assert_close!(r.autocorrelations[0], -0.004653550601550, STAT_TOL, "LB rho_1 (noise)");
    assert!(r.passes(0.05));

    let dependent = ar1(9, 400, 0.6);
    let r2 = ljung_box(&dependent, 10);
    assert_close!(r2.statistic, 189.385105659988, 1e-9, "LB Q (ar1)");
    assert_close!(r2.p_value, 0.0, P_TOL, "LB p (ar1)");
    assert_close!(r2.autocorrelations[0], 0.557913289953713, STAT_TOL, "LB rho_1 (ar1)");
    assert!(!r2.passes(0.05));
}

#[test]
fn residual_cv_golden() {
    let exp_tail = exponential(11, 20_000);
    let r = residual_cv(&exp_tail, 0.9);
    assert_eq!(r.n, 2000);
    assert_close!(r.threshold, 2.316749866703695, 1e-9, "CV threshold (exp)");
    assert_close!(r.cv, 1.016981095679915, 1e-9, "CV value (exp)");
    assert_close!(r.band, 0.043826932358996, STAT_TOL, "CV band (exp)");
    assert!(r.passes(), "exponential tail must pass");

    let bounded = lcg_stream(13, 5000);
    let r2 = residual_cv(&bounded, 0.8);
    assert_eq!(r2.n, 1000);
    assert_close!(r2.cv, 0.583774892843159, 1e-9, "CV value (uniform)");
    assert_eq!(r2.diagnosis(), "bounded tail suspected (xi < 0)");
}

#[test]
#[ignore = "fixture generator: cargo test -p tscache-mbpta --test golden_stats -- --ignored --nocapture"]
fn print_golden_values() {
    let a = lcg_stream(1, 400);
    let b = lcg_stream(2, 300);
    let r = ks_two_sample(&a, &b);
    println!("ks same: D={:.15} p={:.15}", r.statistic, r.p_value);
    let shifted: Vec<f64> = lcg_stream(3, 350).into_iter().map(|x| x + 0.25).collect();
    let r2 = ks_two_sample(&a, &shifted);
    println!("ks shifted: D={:.15} p={:.15}", r2.statistic, r2.p_value);

    let noise = lcg_stream(7, 500);
    let lb = ljung_box(&noise, 20);
    println!(
        "lb noise: Q={:.15} p={:.15} rho1={:.15}",
        lb.statistic, lb.p_value, lb.autocorrelations[0]
    );
    let dependent = ar1(9, 400, 0.6);
    let lb2 = ljung_box(&dependent, 10);
    println!(
        "lb ar1: Q={:.15} p={:.15} rho1={:.15}",
        lb2.statistic, lb2.p_value, lb2.autocorrelations[0]
    );

    let exp_tail = exponential(11, 20_000);
    let cv = residual_cv(&exp_tail, 0.9);
    println!("cv exp: n={} thr={:.15} cv={:.15} band={:.15}", cv.n, cv.threshold, cv.cv, cv.band);
    let bounded = lcg_stream(13, 5000);
    let cv2 = residual_cv(&bounded, 0.8);
    println!("cv uniform: n={} cv={:.15}", cv2.n, cv2.cv);
}
