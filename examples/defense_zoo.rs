//! The defense zoo under the paper's dual verdict.
//!
//! For every [`DefenseKind`] this runs (1) the attack suite against a
//! *deterministic* base platform — the vulnerable configuration each
//! defense must rescue — and (2) the MBPTA pipeline on the defended
//! platform, asking the paper's two questions of each defense:
//!
//! * **leakage closed?** — Prime+Probe accuracy, Evict+Time detection
//!   rate, and the cross-core / Flush+Reload key-byte ranks;
//! * **predictability preserved?** — the i.i.d. battery and the
//!   pWCET curve on the defended platform.
//!
//! ```text
//! cargo run --release --example defense_zoo
//! ```
//!
//! The emitted markdown table is the README's "Defense zoo" ablation.

use tscache::core::defense::DefenseKind;
use tscache::core::setup::SetupKind;
use tscache::mbpta::analysis::{analyze, MbptaConfig};
use tscache::sca::cross_core::{run_cross_core_prime_probe, CrossCoreConfig};
use tscache::sca::evict_time::run_evict_time;
use tscache::sca::flush_reload::{run_flush_reload, FlushReloadConfig};
use tscache::sca::prime_probe::run_prime_probe;
use tscache::sim::layout::Layout;
use tscache::sim::synthetic::ArraySweep;
use tscache::sim::workload::{collect_execution_times, MeasurementProtocol};

const SEED: u64 = 0x200e;

struct Verdict {
    defense: DefenseKind,
    pp_accuracy: f64,
    et_rate: f64,
    cc_rank: f64,
    fr_rank: f64,
    iid_passed: bool,
    pwcet12: f64,
    max_observed: f64,
}

fn dual_verdict(defense: DefenseKind) -> Verdict {
    // Leakage half: every attack against the deterministic base — the
    // platform the paper shows leaking — with only `defense` armed.
    let pp = run_prime_probe(SetupKind::Deterministic, defense, 400, SEED).expect("trials > 0");
    let et = run_evict_time(SetupKind::Deterministic, defense, 400, SEED).expect("trials > 0");
    let mut cc_cfg = CrossCoreConfig::standard(SetupKind::Deterministic, SEED);
    cc_cfg.defense = defense;
    let cc = run_cross_core_prime_probe(&cc_cfg).expect("valid cross-core config");
    let mut fr_cfg = FlushReloadConfig::standard(SetupKind::Deterministic, SEED);
    fr_cfg.defense = defense;
    let fr = run_flush_reload(&fr_cfg).expect("valid flush+reload config");

    // Predictability half: the MBPTA battery on the *time-predictable*
    // platform with the same defense armed — does the defense break
    // what randomized placement bought?
    let mut layout = Layout::new(0x10_0000);
    let mut sweep = ArraySweep::standard(&mut layout);
    let protocol = MeasurementProtocol {
        runs: 400,
        rng_seed: SEED,
        shared_llc: defense.needs_shared_level(),
        defense,
        ..Default::default()
    };
    let times = collect_execution_times(SetupKind::TsCache, &mut sweep, &protocol, None)
        .expect("valid protocol");
    let analysis = analyze(&times, &MbptaConfig::default());

    Verdict {
        defense,
        pp_accuracy: pp.accuracy,
        et_rate: et.detection_rate,
        cc_rank: cc.correct_rank,
        fr_rank: fr.correct_rank,
        iid_passed: analysis.is_mbpta_valid(),
        pwcet12: analysis.pwcet(1e-12),
        max_observed: analysis.summary.max,
    }
}

fn main() {
    println!("# Defense zoo — dual verdict\n");
    println!("Attacks against the deterministic base platform; MBPTA on TSCache + defense.\n");
    println!(
        "| defense | P+P accuracy | E+T rate | cross-core rank | F+R rank | leak closed? | i.i.d. | pWCET(1e-12)/max | MBPTA ok? |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for defense in DefenseKind::ALL {
        let v = dual_verdict(defense);
        // "Closed" per channel: P+P at chance (<0.05 vs 1/128 chance,
        // leaking setups score >0.9), E+T near coin flip (<0.6),
        // key-byte ranks outside the top quartile (>=64 of 256).
        let closed =
            v.pp_accuracy < 0.05 && v.et_rate < 0.6 && v.cc_rank >= 64.0 && v.fr_rank >= 64.0;
        println!(
            "| {} | {:.3} | {:.3} | {:.1} | {:.1} | {} | {} | {:.0}/{:.0} | {} |",
            v.defense,
            v.pp_accuracy,
            v.et_rate,
            v.cc_rank,
            v.fr_rank,
            if closed { "yes" } else { "no" },
            if v.iid_passed { "pass" } else { "fail" },
            v.pwcet12,
            v.max_observed,
            if v.iid_passed && v.pwcet12 >= v.max_observed { "yes" } else { "no" },
        );
    }
    println!();
    println!("Chance levels: P+P accuracy 1/128 ≈ 0.008, E+T rate 0.5, ranks 127.5 of 256.");
}
