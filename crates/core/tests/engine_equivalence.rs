//! Differential tests: the packed-metadata `Cache` must reproduce the
//! seed repository's cache layout (`BoxedCache`, same policy engines)
//! access-for-access, plus the partitioning and RPCache-redirection
//! invariants the optimized fill path has to preserve.

use tscache_core::addr::LineAddr;
use tscache_core::boxed_ref::BoxedCache;
use tscache_core::cache::{AccessOutcome, Cache};
use tscache_core::geometry::CacheGeometry;
use tscache_core::placement::PlacementKind;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::replacement::ReplacementKind;
use tscache_core::seed::{ProcessId, Seed};

/// A mixed-pid recorded trace with locality (reuses a window of recent
/// lines) so hits, misses, evictions and redirects all occur.
fn recorded_trace(len: usize, salt: u64) -> Vec<(ProcessId, LineAddr)> {
    let mut rng = SplitMix64::new(mix64(salt));
    let mut recent: Vec<u64> = Vec::new();
    let mut trace = Vec::with_capacity(len);
    for _ in 0..len {
        let pid = ProcessId::new(1 + rng.below(3) as u16);
        let line = if !recent.is_empty() && rng.below(4) < 2 {
            recent[rng.below(recent.len() as u32) as usize]
        } else {
            let l = rng.below(2048) as u64;
            recent.push(l);
            if recent.len() > 64 {
                recent.remove(0);
            }
            l
        };
        trace.push((pid, LineAddr::new(line)));
    }
    trace
}

fn configure_pair(
    placement: PlacementKind,
    replacement: ReplacementKind,
    with_partitions: bool,
) -> (Cache, BoxedCache) {
    let geom = CacheGeometry::paper_l1();
    let mut cache = Cache::new("sut", geom, placement, replacement, 0xfeed);
    let mut boxed = BoxedCache::new(geom, placement, replacement, 0xfeed);
    for pid in 1..=3u16 {
        let seed = Seed::new(mix64(0x5eed ^ pid as u64));
        cache.set_seed(ProcessId::new(pid), seed);
        boxed.set_seed(ProcessId::new(pid), seed);
    }
    // Overlapping registrations on purpose: the packed cache merges
    // them, the boxed one scans them as-is — lookups must still agree.
    for (s, e) in [(0u64, 64), (32, 96), (500, 600)] {
        cache.add_protected_range(LineAddr::new(s), LineAddr::new(e));
        boxed.add_protected_range(LineAddr::new(s), LineAddr::new(e));
    }
    if with_partitions {
        cache.set_way_partition(ProcessId::new(1), 0, 2);
        boxed.set_way_partition(ProcessId::new(1), 0, 2);
        cache.set_way_partition(ProcessId::new(2), 2, 4);
        boxed.set_way_partition(ProcessId::new(2), 2, 4);
    }
    (cache, boxed)
}

#[test]
fn enum_engine_matches_boxed_reference_on_recorded_traces() {
    for placement in PlacementKind::ALL {
        for replacement in ReplacementKind::ALL {
            for with_partitions in [false, true] {
                let (mut cache, mut boxed) =
                    configure_pair(placement, replacement, with_partitions);
                let trace = recorded_trace(4000, 0xabc ^ with_partitions as u64);
                for (i, &(pid, line)) in trace.iter().enumerate() {
                    let a = cache.access(pid, line);
                    let b = boxed.access(pid, line);
                    assert_eq!(
                        a, b,
                        "{placement}/{replacement} partitions={with_partitions}: \
                         outcome diverged at access {i} ({pid}, {line})"
                    );
                }
                assert_eq!(cache.stats(), boxed.stats(), "{placement}/{replacement}");
                assert_eq!(cache.occupancy(), boxed.occupancy());
                let a: Vec<_> = cache.contents().collect();
                let b: Vec<_> = boxed.contents().collect();
                assert_eq!(a, b, "{placement}/{replacement}: contents diverge");
            }
        }
    }
}

#[test]
fn batch_api_matches_boxed_reference() {
    let geom = CacheGeometry::paper_l1();
    for placement in [PlacementKind::Modulo, PlacementKind::RandomModulo, PlacementKind::RpCache] {
        let mut cache = Cache::new("sut", geom, placement, ReplacementKind::Random, 3);
        let mut boxed = BoxedCache::new(geom, placement, ReplacementKind::Random, 3);
        let pid = ProcessId::new(1);
        cache.set_seed(pid, Seed::new(99));
        boxed.set_seed(pid, Seed::new(99));
        let mut rng = SplitMix64::new(4);
        let lines: Vec<LineAddr> =
            (0..5000).map(|_| LineAddr::new(rng.below(1024) as u64)).collect();
        let out = cache.access_batch(pid, &lines);
        let mut hits = 0u64;
        for &l in &lines {
            hits += boxed.access(pid, l).is_hit() as u64;
        }
        assert_eq!(out.hits, hits, "{placement}");
        assert_eq!(cache.stats(), boxed.stats(), "{placement}");
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
