//! Golden digests of what every replacement policy chooses.
//!
//! The reference model the differential suites check `Cache` against
//! (`tests/model/`) writes LRU and random replacement out on its own,
//! so a policy change that the engine and `Cache` make together still
//! fails there. These constants pin each policy's choices on the
//! engine directly: a fixed sequence of hits, fills and victim calls
//! over whole-set and way-partition ranges, and a two-process L1
//! replay with one process way-partitioned. A change to any victim
//! rule, or to which RNG stream a partitioned fill draws from, moves a
//! constant.

use tscache_core::addr::LineAddr;
use tscache_core::cache::Cache;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::PlacementKind;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::replacement::{ReplacementEngine, ReplacementKind};
use tscache_core::seed::{ProcessId, Seed};

/// One digest per policy, in [`ReplacementKind::ALL`] order.
const GOLDEN: [(ReplacementKind, u64); 2] = [
    (ReplacementKind::Lru, 0x5453_efc7_9a63_30ee),
    (ReplacementKind::Random, 0x4d57_930b_29d4_cfdf),
];

fn fold(h: u64, v: u64) -> u64 {
    mix64(h.rotate_left(7) ^ v)
}

/// Drives the policy engine directly on a 4-way and an 8-way geometry:
/// random hits and fills on a few sets, interleaved with whole-set
/// victims (shared stream) and victims inside proper way partitions
/// (a second stream), on a fresh engine for the second half. Folds
/// every victim.
fn engine_digest(kind: ReplacementKind) -> u64 {
    let mut h = 0u64;
    for geom in [CacheGeometry::paper_l1(), CacheGeometry::new(64, 8, 32).unwrap()] {
        let ways = geom.ways();
        let parts = [(0, 1), (0, ways / 2), (ways / 2, ways), (1, ways - 1), (ways - 1, ways)];
        let mut engine = ReplacementEngine::new(kind, &geom);
        let mut shared = SplitMix64::new(0x5eed);
        let mut part = SplitMix64::new(0x9a27);
        let mut drive = SplitMix64::new(mix64(ways as u64));
        for step in 0..6000 {
            if step == 3000 {
                engine = ReplacementEngine::new(kind, &geom);
            }
            let set = drive.below(8);
            match drive.below(6) {
                0 | 1 => engine.on_hit(set, drive.below(ways)),
                2 => engine.on_fill(set, drive.below(ways)),
                3 => h = fold(h, engine.victim(set, 0, ways, &mut shared) as u64),
                _ => {
                    let (lo, hi) = parts[drive.below(parts.len() as u32) as usize];
                    h = fold(h, engine.victim(set, lo, hi, &mut part) as u64);
                }
            }
        }
    }
    h
}

/// Replays two processes through a modulo-placed paper L1: pid 1 is
/// confined to ways 0..2, pid 2 fills the whole set. Folds the hit
/// sequence, then the final contents.
fn replay_digest(kind: ReplacementKind) -> u64 {
    let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
    let mut cache = Cache::new("L1D", CacheGeometry::paper_l1(), PlacementKind::Modulo, kind, 11);
    cache.set_seed(p1, Seed::new(1));
    cache.set_seed(p2, Seed::new(2));
    cache.set_way_partition(p1, 0, 2);
    let mut rng = SplitMix64::new(0x7e91a);
    let mut recent: Vec<u64> = Vec::new();
    let mut h = 0u64;
    for _ in 0..8000 {
        let pid = if rng.below(2) == 0 { p1 } else { p2 };
        let line = if !recent.is_empty() && rng.below(2) == 0 {
            recent[rng.below(recent.len() as u32) as usize]
        } else {
            let l = rng.below(2048) as u64;
            recent.push(l);
            if recent.len() > 96 {
                recent.remove(0);
            }
            l
        };
        h = fold(h, cache.access(pid, LineAddr::new(line)).is_hit() as u64);
    }
    for (set, way, line, owner) in cache.contents() {
        h = fold(h, ((set as u64) << 40) ^ ((way as u64) << 32) ^ line.as_u64());
        h = fold(h, owner.as_u16() as u64);
    }
    h
}

#[test]
fn every_replacement_policy_chooses_its_recorded_victims() {
    let got: Vec<(ReplacementKind, u64)> = ReplacementKind::ALL
        .into_iter()
        .map(|kind| (kind, fold(engine_digest(kind), replay_digest(kind))))
        .collect();
    for (kind, d) in &got {
        println!("{kind}: {d:#018x}");
    }
    assert_eq!(got, GOLDEN);
}
