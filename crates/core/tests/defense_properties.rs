//! Property tests for the defense zoo (`tscache_core::defense`), each
//! defense armed through `apply_defense`: TTL expiry accounting, the
//! identity of the defenses a cache does not act on, timed-access
//! normalization semantics and shared-level seed rotation at
//! `ROTATION_PERIOD`. The hierarchy walk with TTL or normalization
//! armed is checked against the reference model in
//! `hierarchy_differential.rs`.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tscache_core::cache::{AccessOutcome, Cache, WritePolicy};
use tscache_core::defense::DefenseKind;
use tscache_core::geometry::CacheGeometry;
use tscache_core::hierarchy::{SharedLlc, ROTATION_PERIOD};
use tscache_core::placement::PlacementKind;
use tscache_core::prng::{mix64, Prng, SplitMix64};
use tscache_core::seed::{ProcessId, Seed};
use tscache_core::setup::HierarchyDepth;

fn pid(n: u16) -> ProcessId {
    ProcessId::new(n)
}

/// A small cache whose placement is a pure modulo (no contention
/// remaps), so residency only ever changes through fills, evictions
/// and TTL drains — the paths the shadow model below accounts for.
fn small_modulo_cache() -> Cache {
    let geom = CacheGeometry::new(16, 2, 32).unwrap();
    let mut c = Cache::new(
        "L1",
        geom,
        PlacementKind::Modulo,
        tscache_core::replacement::ReplacementKind::Lru,
        0x77,
    );
    c.set_write_policy(WritePolicy::WriteBack);
    c
}

proptest! {
    /// Exact writeback accounting under TTL evictions: replaying a
    /// random read/write trace against a shadow residency model, every
    /// line that leaves the cache (capacity eviction *or* TTL drain)
    /// emits exactly one writeback iff the shadow knows it dirty, and
    /// the drains that aren't capacity evictions are exactly the
    /// recorded TTL expiries.
    #[test]
    fn ttl_drains_write_back_exactly_the_dirty_lines(salt in any::<u64>()) {
        let mut cache = small_modulo_cache();
        cache.apply_defense(DefenseKind::Ttl);
        let mut rng = SplitMix64::new(mix64(salt ^ 0xd4a1));
        let owner = pid(1);

        // Shadow state: resident line → dirty?
        let mut shadow: BTreeMap<u64, bool> = BTreeMap::new();
        let mut expected_writebacks = 0u64;

        for _ in 0..600 {
            let line = tscache_core::addr::LineAddr::new(rng.next_u64() % 64);
            let write = rng.next_u64().is_multiple_of(3);
            let before: BTreeSet<u64> = shadow.keys().copied().collect();
            let was_resident = before.contains(&line.as_u64());
            let out = cache.access_rw(owner, line, write);

            // A resident line that *misses* expired under its own
            // access's TTL tick and was refilled — a departure a
            // before/after contents diff can't see.
            if was_resident && !out.is_hit() && shadow.insert(line.as_u64(), false) == Some(true) {
                expected_writebacks += 1;
            }

            // Re-derive residency from the cache itself (drains happen
            // inside the access), then charge departures to the shadow.
            let after: BTreeSet<u64> =
                cache.contents().map(|(_, _, l, _)| l.as_u64()).collect();
            for gone in before.difference(&after) {
                if shadow.remove(gone) == Some(true) {
                    expected_writebacks += 1;
                }
            }
            shadow.retain(|l, _| after.contains(l));
            let entry = shadow.entry(line.as_u64()).or_insert(false);
            *entry |= write;

            prop_assert_eq!(
                cache.stats().writebacks(),
                expected_writebacks,
                "writebacks diverge from dirty departures"
            );
        }

        // Departures split exactly into capacity evictions and TTL
        // expiries: nothing else ever removes a line on this path, and
        // every miss fills exactly one line.
        prop_assert_eq!(
            cache.stats().misses() - cache.occupancy() as u64,
            cache.stats().evictions() + cache.stats().ttl_expiries(),
            "departures don't split into evictions + expiries"
        );
        // The trace is long enough that the defense actually acted.
        prop_assert!(cache.stats().ttl_expiries() > 0, "TTL never fired");
    }

    /// A defense a cache does not act on (off, Random-and-Safe, which
    /// is a configuration, and the two shared-level rotations), armed
    /// over TTL, leaves the cache bit-identical to an undefended one:
    /// same per-op outcomes, same statistics, same final contents, so
    /// the switch disarmed TTL and no lifetime is ever drawn.
    #[test]
    fn defenses_a_cache_does_not_act_on_are_bit_identical_to_defense_off(
        salt in any::<u64>(),
    ) {
        for kind in [
            DefenseKind::Off,
            DefenseKind::RandomSafe,
            DefenseKind::RotatePartition,
            DefenseKind::RotateCore,
        ] {
            let mut defended = small_modulo_cache();
            let mut bare = small_modulo_cache();
            defended.apply_defense(DefenseKind::Ttl);
            defended.apply_defense(kind);
            prop_assert_eq!(defended.defense(), kind);

            let mut rng = SplitMix64::new(mix64(salt ^ 0x1f1f));
            for _ in 0..400 {
                let line = tscache_core::addr::LineAddr::new(rng.next_u64() % 96);
                let write = rng.next_u64().is_multiple_of(4);
                let a = defended.access_rw(pid(1), line, write);
                let b = bare.access_rw(pid(1), line, write);
                prop_assert_eq!(a, b, "{}", kind);
                prop_assert_eq!(defended.probe(pid(2), line), bare.probe(pid(2), line));
            }
            prop_assert_eq!(defended.stats(), bare.stats(), "{}", kind);
            let da: Vec<_> = defended.contents().collect();
            let db: Vec<_> = bare.contents().collect();
            prop_assert_eq!(da, db, "{}", kind);
        }
    }
}

#[test]
fn normalization_levels_the_first_foreign_access() {
    let mut cache = small_modulo_cache();
    cache.apply_defense(DefenseKind::Normalize);
    let line = tscache_core::addr::LineAddr::new(5);

    // Victim loads the line.
    assert!(!cache.access(pid(1), line).is_hit());
    assert_eq!(cache.occupancy(), 1);

    // The attacker's reload is levelled: reported as a miss, but the
    // line never leaves the cache and nothing is evicted.
    match cache.access(pid(2), line) {
        AccessOutcome::Miss { evicted: None, redirected: false } => {}
        other => panic!("levelled access reported {other:?}"),
    }
    assert_eq!(cache.occupancy(), 1, "levelling must not refill");

    // Ownership transferred: the attacker's second access hits, and
    // the *victim* is now the foreign process.
    assert!(cache.access(pid(2), line).is_hit());
    match cache.access(pid(1), line) {
        AccessOutcome::Miss { evicted: None, .. } => {}
        other => panic!("victim re-access reported {other:?}"),
    }
}

#[test]
fn normalized_probe_hides_foreign_lines() {
    let mut cache = small_modulo_cache();
    let line = tscache_core::addr::LineAddr::new(9);
    cache.access(pid(1), line);

    // Undefended, a probe sees any resident line.
    assert!(cache.probe(pid(2), line));
    cache.apply_defense(DefenseKind::Normalize);
    // Normalized, only the owner does.
    assert!(!cache.probe(pid(2), line));
    assert!(cache.probe(pid(1), line));
    // Probing must not transfer ownership the way an access does.
    assert!(cache.probe(pid(1), line));
}

/// A 32×4 shared level with per-process seeds for three cores.
fn shared_level() -> SharedLlc {
    let geom = CacheGeometry::new(32, 4, 32).unwrap();
    let cache = Cache::new(
        "LLC",
        geom,
        PlacementKind::HashRp,
        tscache_core::replacement::ReplacementKind::Random,
        0x5e,
    );
    let mut llc = SharedLlc::new(cache);
    for p in 1..=3u16 {
        llc.set_process_seed(pid(p), Seed::new(0x1000 + p as u64));
    }
    llc
}

#[test]
fn per_core_rotation_fires_on_schedule_and_flushes_the_rotated_core() {
    let mut llc = shared_level();
    llc.apply_defense(DefenseKind::RotateCore);

    // Seed pid 1 with some lines, then let pids 2 and 3 re-touch one
    // line each until the clock stands one fill short of a period.
    for i in 0..10u64 {
        llc.resolve(pid(1), Some(tscache_core::addr::LineAddr::new(0x9000 + i)), &[]);
    }
    let touch = |llc: &mut SharedLlc, i: u64| {
        let p = pid((i % 2) as u16 + 2);
        llc.resolve(p, Some(tscache_core::addr::LineAddr::new(0xa000 + p.as_u16() as u64)), &[]);
    };
    for i in 10..ROTATION_PERIOD - 1 {
        touch(&mut llc, i);
    }
    let owners = |llc: &SharedLlc| -> BTreeSet<u16> {
        llc.cache().contents().map(|(_, _, _, o)| o.as_u16()).collect()
    };
    assert_eq!(llc.rotation_epoch(), 0);
    assert_eq!(owners(&llc), BTreeSet::from([1, 2, 3]));

    // The period's last fill starts epoch 1, which rotates
    // rotation_base[0] = pid 1: its lines are flushed for seed-change
    // consistency, and the other cores keep theirs.
    touch(&mut llc, ROTATION_PERIOD - 1);
    assert_eq!(llc.rotation_epoch(), 1, "rotation missed its cadence");
    assert_eq!(owners(&llc), BTreeSet::from([2, 3]), "rotated core's lines survived the flush");
}

#[test]
fn per_partition_rotation_rotates_every_process_together() {
    let mut llc = shared_level();
    llc.apply_defense(DefenseKind::RotatePartition);

    // Three processes cycling over ten lines each stay one fill short
    // of the period.
    for i in 0..ROTATION_PERIOD - 1 {
        let p = pid((i % 3) as u16 + 1);
        llc.resolve(p, Some(tscache_core::addr::LineAddr::new(0xb000 + i % 30)), &[]);
    }
    assert_eq!(llc.rotation_epoch(), 0);
    let owners: BTreeSet<u16> = llc.cache().contents().map(|(_, _, _, o)| o.as_u16()).collect();
    assert_eq!(owners, BTreeSet::from([1, 2, 3]));

    // The period's last fill rotates all three processes before it
    // lands, so its line is the only one left.
    let last = tscache_core::addr::LineAddr::new(0xc000);
    llc.resolve(pid(1), Some(last), &[]);
    assert_eq!(llc.rotation_epoch(), 1);
    let resident: Vec<(u64, u16)> =
        llc.cache().contents().map(|(_, _, l, o)| (l.as_u64(), o.as_u16())).collect();
    assert_eq!(resident, [(last.as_u64(), 1)], "a rotated process kept a line");
}

#[test]
fn rotation_reproduces_bit_for_bit() {
    let run = || {
        let mut llc = shared_level();
        llc.apply_defense(DefenseKind::RotateCore);
        // Ten periods of fill requests round-robin over three processes.
        for i in 0..10 * ROTATION_PERIOD {
            let line = tscache_core::addr::LineAddr::new(0x4000 + (i * 7) % 256);
            llc.resolve(pid((i % 3) as u16 + 1), Some(line), &[]);
        }
        let contents: Vec<_> =
            llc.cache().contents().map(|(s, w, l, o)| (s, w, l.as_u64(), o.as_u16())).collect();
        (llc.rotation_epoch(), *llc.cache().stats(), contents)
    };
    let first = run();
    assert_eq!(first, run());
    // The schedule fired once per period.
    assert_eq!(first.0, 10, "epoch {}", first.0);
}

#[test]
fn hierarchy_apply_defense_arms_every_level() {
    let mut h = tscache_core::setup::SetupKind::TsCache.build_depth(HierarchyDepth::ThreeLevel, 7);
    for defense in [DefenseKind::Ttl, DefenseKind::Normalize, DefenseKind::Off] {
        // Arming one defense replaces the previous one at every level.
        h.apply_defense(defense);
        let mut levels = [h.l1i(), h.l1d()].into_iter().chain(h.unified_levels());
        assert!(levels.all(|c| c.defense() == defense), "{defense}");
    }
}
