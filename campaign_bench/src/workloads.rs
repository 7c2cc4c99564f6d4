//! The three benchmark workloads: each is a fleet sweep generated from
//! the `--seed` argument alone. The program under test only ever sees
//! the generated [`SweepSpec`].

use tscache_core::defense::DefenseKind;
use tscache_core::prng::mix64;
use tscache_core::setup::{HierarchyDepth, SetupKind};
use tscache_fleet::spec::{AttackKind, DetectionMode, PlatformKind, SweepSpec};

/// The seed the reference digests below were recorded at (also the
/// `--seed` default).
pub const DEFAULT_SEED: u64 = 0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MBPTA measurement campaigns on the private platform: reseed and
    /// flush every run, so Random Modulo evaluates its Benes network on
    /// most first touches (the placement layer's regime).
    PwcetPrivate,
    /// Fig. 5's Bernstein sampling loop: long seed epochs keep the
    /// placement memo hot; the load falls on AES trace generation, the
    /// batch walk and `sca` sampling.
    BernsteinAes,
    /// Many short shards over the shared-LLC platforms with contention:
    /// executor and checkpoint I/O become a visible share, and the
    /// simulation runs the shared-LLC merge loop, bus/MSHR models, MSI
    /// coherence and the write-back cascade.
    SeedSweepShared,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PwcetPrivate, Workload::BernsteinAes, Workload::SeedSweepShared];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PwcetPrivate => "pwcet-private",
            Workload::BernsteinAes => "bernstein-aes",
            Workload::SeedSweepShared => "seed-sweep-shared",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign digest this workload's spec produces at
    /// [`DEFAULT_SEED`]. A change that alters any simulated outcome
    /// moves it; re-record only for an intended model change.
    pub fn reference_digest(self) -> u64 {
        match self {
            Workload::PwcetPrivate => 0xdb1e_8868_2474_b669,
            Workload::BernsteinAes => 0xd7d2_9161_2d2c_7600,
            Workload::SeedSweepShared => 0x011f_110c_095f_ebcd,
        }
    }

    /// The sweep this workload runs for `seed`. Only the campaign seed
    /// depends on `seed`; the shape (and so the work per campaign) is
    /// fixed, which keeps runs at different seeds comparable.
    pub fn spec(self, seed: u64) -> SweepSpec {
        let base = SweepSpec {
            campaign_seed: mix64(seed ^ self.salt()),
            samples_per_shard: 0,
            shards_per_scenario: 0,
            setups: Vec::new(),
            depths: vec![HierarchyDepth::TwoLevel],
            platforms: vec![PlatformKind::Private],
            contention: vec![false],
            attacks: Vec::new(),
            detection: vec![DetectionMode::Off],
            defenses: vec![DefenseKind::Off],
        };
        match self {
            Workload::PwcetPrivate => SweepSpec {
                samples_per_shard: 100,
                shards_per_scenario: 4,
                setups: vec![
                    SetupKind::Deterministic,
                    SetupKind::Mbpta,
                    SetupKind::TsCache,
                    SetupKind::RandomSafe,
                ],
                depths: HierarchyDepth::ALL.to_vec(),
                attacks: vec![AttackKind::Pwcet],
                ..base
            },
            Workload::BernsteinAes => SweepSpec {
                samples_per_shard: 2000,
                shards_per_scenario: 4,
                setups: vec![
                    SetupKind::Deterministic,
                    SetupKind::RpCache,
                    SetupKind::Mbpta,
                    SetupKind::TsCache,
                ],
                attacks: vec![AttackKind::Bernstein],
                ..base
            },
            Workload::SeedSweepShared => SweepSpec {
                samples_per_shard: 24,
                shards_per_scenario: 6,
                setups: vec![SetupKind::Deterministic, SetupKind::Mbpta, SetupKind::TsCache],
                depths: HierarchyDepth::ALL.to_vec(),
                platforms: vec![
                    PlatformKind::Shared,
                    PlatformKind::SharedPartitioned,
                    PlatformKind::Coherent,
                ],
                contention: vec![true],
                attacks: vec![
                    AttackKind::Pwcet,
                    AttackKind::FlushReload,
                    AttackKind::Rtos,
                    AttackKind::Bernstein,
                ],
                ..base
            },
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::PwcetPrivate => 0x7077_6365,
            Workload::BernsteinAes => 0x6265_726e,
            Workload::SeedSweepShared => 0x7377_6565,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }

    #[test]
    fn specs_are_seed_pure_and_valid() {
        for w in Workload::ALL {
            assert_eq!(w.spec(7), w.spec(7));
            assert_ne!(w.spec(7).campaign_seed, w.spec(8).campaign_seed);
            let jobs = w.spec(7).jobs().expect("workload spec expands");
            assert_eq!(jobs.len(), w.spec(8).jobs().expect("workload spec expands").len());
        }
    }
}
