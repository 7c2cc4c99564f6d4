//! Cross-crate integration: the full Bernstein pipeline (simulator +
//! AES + sampling + analysis) reproduces the paper's headline contrast
//! at reduced scale — the deterministic cache leaks key material, the
//! TSCache leaks essentially nothing.

use tscache::core::setup::SetupKind;
use tscache::sca::bernstein::run_attack;
use tscache::sca::sampling::SamplingConfig;

const SAMPLES: u32 = 30_000;
const SEED: u64 = 0xDAC18;

#[test]
fn deterministic_cache_leaks_many_bits() {
    let result = run_attack(SamplingConfig::standard(SetupKind::Deterministic, SAMPLES, SEED))
        .expect("valid sampling config");
    assert!(
        result.bits_determined() > 20.0,
        "expected a strong leak, got {:.1} bits",
        result.bits_determined()
    );
    // The engineered interference targets TE0/TE2 lines, which the
    // first round indexes with the even-family bytes.
    for b in &result.bytes {
        if b.is_vulnerable() {
            assert_eq!(b.byte % 2, 0, "unexpected vulnerable byte {}", b.byte);
        }
    }
}

#[test]
fn tscache_defeats_the_attack() {
    let result = run_attack(SamplingConfig::standard(SetupKind::TsCache, SAMPLES, SEED))
        .expect("valid sampling config");
    assert!(result.bits_determined() < 4.0, "TSCache leaked {:.1} bits", result.bits_determined());
    assert!(result.residual_keyspace_log2() > 124.0);
}

#[test]
fn true_key_value_never_discarded() {
    // The stringent-threshold rule keeps the correct value feasible by
    // construction; verify end-to-end.
    for setup in [SetupKind::Deterministic, SetupKind::RpCache] {
        let result = run_attack(SamplingConfig::standard(setup, 10_000, SEED ^ 7))
            .expect("valid sampling config");
        for b in &result.bytes {
            assert!(b.is_feasible(b.true_value), "{setup}: byte {} lost the key", b.byte);
        }
    }
}

#[test]
fn attack_is_deterministic_given_seed() {
    let cfg = SamplingConfig::standard(SetupKind::Deterministic, 5_000, 0xABCD);
    let a = run_attack(cfg).expect("valid sampling config");
    let b = run_attack(cfg).expect("valid sampling config");
    assert_eq!(a.bits_determined(), b.bits_determined());
    assert_eq!(a.matrix(), b.matrix());
}
