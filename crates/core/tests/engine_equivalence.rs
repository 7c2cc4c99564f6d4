//! Differential tests: the packed-metadata `Cache` must match the
//! reference model (`model::ModelCache`) op for op on every policy,
//! write policy, defense and partitioning, plus the partitioning and
//! RPCache-redirection invariants the optimized fill path has to
//! preserve.

mod model;

use model::ModelCache;
use tscache_core::addr::LineAddr;
use tscache_core::cache::{AccessOutcome, Cache, WritePolicy};
use tscache_core::defense::DefenseKind;
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::PlacementKind;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};

/// The coherent range; the protected ranges overlap on purpose (the
/// cache merges them, the model scans them as registered).
const COHERENT: (u64, u64) = (1000, 1200);
const PROTECTED: [(u64, u64); 3] = [(0, 64), (32, 96), (500, 600)];

/// Replays 4,000 ops from three pids through a `Cache` and the model,
/// comparing every op's result, then statistics, contents, dirty lines
/// and the coherence state of the coherent range under every pid. Each
/// op picks one of the last 64 fresh lines, and half the ops draw a
/// fresh one first, so hits, misses, evictions, redirects, normalized
/// transfers and dirty drains all occur.
fn assert_matches_model(
    (placement, replacement): (PlacementKind, ReplacementKind),
    write_policy: WritePolicy,
    defense: DefenseKind,
    partitioned: bool,
) {
    let label = format!("{placement}/{replacement}/{write_policy:?}/{defense}/{partitioned}");
    let geom = CacheGeometry::paper_l1();
    let mut cache = Cache::new("sut", geom, placement, replacement, 0xfeed);
    let mut model = ModelCache::new(geom, placement, replacement, 0xfeed);
    macro_rules! both {
        ($call:ident($($arg:expr),*)) => {{
            cache.$call($($arg),*);
            model.$call($($arg),*);
        }};
    }
    for pid in (1..=3).map(ProcessId::new) {
        both!(set_seed(pid, Seed::new(mix64(0x5eed ^ pid.as_u16() as u64))));
    }
    for (s, e) in PROTECTED {
        both!(add_protected_range(LineAddr::new(s), LineAddr::new(e)));
    }
    both!(add_coherent_range(LineAddr::new(COHERENT.0), LineAddr::new(COHERENT.1)));
    if partitioned {
        both!(set_way_partition(ProcessId::new(1), 0, 2));
        both!(set_way_partition(ProcessId::new(2), 2, 4));
    }
    both!(set_write_policy(write_policy));
    both!(apply_defense(defense));

    let mut rng = SplitMix64::new(mix64(0xabc ^ ((defense as u64) << 8) ^ partitioned as u64));
    let mut recent: Vec<u64> = Vec::new();
    for i in 0..4000 {
        let pid = ProcessId::new(1 + rng.below(3) as u16);
        if recent.is_empty() || rng.below(2) == 0 {
            recent.push(rng.below(2048) as u64);
            if recent.len() > 64 {
                recent.remove(0);
            }
        }
        let line = LineAddr::new(recent[rng.below(recent.len() as u32) as usize]);
        macro_rules! same {
            ($call:ident($($arg:expr),*)) => {
                assert_eq!(
                    cache.$call($($arg),*),
                    model.$call($($arg),*),
                    "{label}: op {i}, {}({pid}, {line}) diverged",
                    stringify!($call)
                )
            };
        }
        match rng.below(1000) {
            0..=449 => same!(access_rw(pid, line, false)),
            450..=749 => same!(access_rw(pid, line, true)),
            750..=849 => same!(probe(pid, line)),
            850..=919 => same!(receive_writeback(pid, line)),
            920..=994 => same!(invalidate_line(pid, line)),
            995..=998 => same!(flush_process(pid)),
            _ => same!(flush()),
        }
    }
    assert_eq!(cache.stats(), model.stats(), "{label}: stats");
    let contents: Vec<_> = cache.contents().collect();
    assert_eq!(contents, model.contents(), "{label}: contents");
    assert_eq!(cache.dirty_lines(), model.dirty_lines(), "{label}: dirty lines");
    for pid in (1..=3).map(ProcessId::new) {
        for line in (COHERENT.0..COHERENT.1).map(LineAddr::new) {
            let (a, b) = (cache.coherence_state(pid, line), model.coherence_state(pid, line));
            assert_eq!(a, b, "{label}: coherence state of {line} under {pid}");
        }
    }
}

#[test]
fn cache_matches_the_model_op_by_op() {
    for placement in PlacementKind::ALL {
        for replacement in ReplacementKind::ALL {
            for write_policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                for defense in [DefenseKind::Off, DefenseKind::Ttl, DefenseKind::Normalize] {
                    for partitioned in [false, true] {
                        let policies = (placement, replacement);
                        assert_matches_model(policies, write_policy, defense, partitioned);
                    }
                }
            }
        }
    }
}

#[test]
fn partition_fills_never_land_outside_pid_ways() {
    // Random traces over every placement: a partitioned process's
    // lines must only ever occupy its way range, even through RPCache
    // contention redirects.
    for placement in PlacementKind::ALL {
        let mut cache =
            Cache::new("part", CacheGeometry::paper_l1(), placement, ReplacementKind::Random, 17);
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        cache.set_seed(p1, Seed::new(1));
        cache.set_seed(p2, Seed::new(2));
        cache.set_way_partition(p1, 0, 1);
        cache.set_way_partition(p2, 1, 4);
        let mut rng = SplitMix64::new(23);
        for step in 0..6000 {
            let pid = if rng.below(2) == 0 { p1 } else { p2 };
            cache.access(pid, LineAddr::new(rng.below(4096) as u64));
            if step % 500 == 0 {
                for (_, way, _, owner) in cache.contents() {
                    match owner.as_u16() {
                        1 => assert!(way < 1, "{placement}: pid1 line in way {way}"),
                        2 => assert!((1..4).contains(&way), "{placement}: pid2 way {way}"),
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

#[test]
fn rpcache_redirect_spares_protected_lines_when_capacity_exists() {
    // Wang & Lee's P-bit: a fill whose LRU victim is a protected
    // crypto-table line is redirected to a random set, where it takes
    // a free way. As long as every set keeps spare capacity, redirected
    // fills therefore never evict protected lines, and the victim's
    // whole protected working set survives the attacker's stream.
    let mut cache = Cache::new(
        "rp",
        CacheGeometry::paper_l1(),
        PlacementKind::RpCache,
        ReplacementKind::Lru,
        5,
    );
    let (victim, attacker) = (ProcessId::new(1), ProcessId::new(2));
    cache.set_seed(victim, Seed::new(8));
    cache.set_seed(attacker, Seed::new(9));
    cache.add_protected_range(LineAddr::new(0), LineAddr::new(128));
    // The victim saturates the cache with four pages — page 0 holds
    // the protected tables — then re-touches the tables, so in every
    // set the LRU victim is an *unprotected* page-1/2/3 line while the
    // protected line is most-recent. Every attacker fill then selects
    // a valid cross-process victim (a contention event, redirected),
    // but neither the original nor the redirect-target slot holds a
    // protected line in LRU position.
    let protected: Vec<LineAddr> = (0..128u64).map(LineAddr::new).collect();
    for page in 0..4u64 {
        for i in 0..128u64 {
            cache.access(victim, LineAddr::new(page * 128 + i));
        }
    }
    for &l in &protected {
        cache.access(victim, l); // refresh: tables become MRU
    }
    let mut redirects = 0u32;
    for i in 0..64u64 {
        let line = LineAddr::new(0x4_0000 + i);
        match cache.access(attacker, line) {
            AccessOutcome::Miss { evicted, redirected } => {
                redirects += redirected as u32;
                if redirected {
                    if let Some(ev) = evicted {
                        assert!(
                            !cache.is_protected_addr(ev.line.as_u64()),
                            "redirected fill evicted protected {}",
                            ev.line
                        );
                    }
                }
            }
            AccessOutcome::Hit => {}
        }
    }
    assert!(redirects > 0, "no redirects happened");
    let survivors = protected.iter().filter(|&&l| cache.probe(victim, l)).count();
    assert_eq!(survivors, 128, "protected tables lost despite LRU shielding");
}

#[test]
fn redirected_fills_stay_within_partition_and_protect_crypto_tables() {
    // Combined invariant: partition + protected range + RPCache.
    let mut cache = Cache::new(
        "combo",
        CacheGeometry::paper_l1(),
        PlacementKind::RpCache,
        ReplacementKind::Lru,
        29,
    );
    let (crypto, os) = (ProcessId::new(1), ProcessId::new(2));
    cache.set_seed(crypto, Seed::new(1));
    cache.set_seed(os, Seed::new(2));
    cache.set_way_partition(crypto, 0, 3);
    cache.set_way_partition(os, 3, 4);
    cache.add_protected_range(LineAddr::new(0), LineAddr::new(160)); // "AES tables"
    for i in 0..160u64 {
        cache.access(crypto, LineAddr::new(i));
    }
    let tables_cached_before =
        (0..160u64).filter(|&i| cache.probe(crypto, LineAddr::new(i))).count();
    // OS streams hard; its fills are confined to way 3 and its
    // contention events are redirected.
    for i in 0..4000u64 {
        cache.access(os, LineAddr::new(0x8_0000 + i));
    }
    for (_, way, _, owner) in cache.contents() {
        if owner == os {
            assert_eq!(way, 3, "OS fill escaped its partition");
        }
    }
    let tables_cached_after =
        (0..160u64).filter(|&i| cache.probe(crypto, LineAddr::new(i))).count();
    assert!(
        tables_cached_after * 2 >= tables_cached_before,
        "OS sweep destroyed the protected tables: {tables_cached_after}/{tables_cached_before}"
    );
}
