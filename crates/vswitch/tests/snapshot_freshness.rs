//! Freshness properties of the non-blocking snapshot query plane.
//!
//! The plane promises a *bounded-staleness* read: `query()` never sees
//! packets that were not fed (coverage is conservative at every instant),
//! and after an explicit publish marker drains it sees *everything* fed
//! before the marker — exactly, for any stream, shard count, batch grain
//! and publication interval. The cached and from-scratch query paths must
//! agree whenever the cache is keyed to the current epochs, and once every
//! shard has answered the last marker (`is_fresh`), the live query is the
//! harvest's answer, for flat and windowed fleets alike.

use std::time::{Duration, Instant};

use hhh_core::{HeavyHitter, RhhhConfig};
use hhh_counters::{FrequencyEstimator, MisraGries, SpaceSaving};
use hhh_hierarchy::Lattice;
use hhh_vswitch::{ShardedMonitor, SpawnOptions};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

fn config(seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.01,
        epsilon_s: 0.05,
        delta_s: 0.05,
        seed,
        ..RhhhConfig::default()
    }
}

fn wait_until(mut done: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Feeds `keys`, asks for a fresh publication, waits until every shard
/// has answered it, and returns the live answer beside the harvest's.
fn fresh_and_harvested<E: FrequencyEstimator<u64>>(
    mut mon: ShardedMonitor<u64, E>,
    keys: &[u64],
) -> (Vec<HeavyHitter<u64>>, Vec<HeavyHitter<u64>>) {
    let theta = 0.05;
    for chunk in keys.chunks(1_000) {
        mon.update_batch(chunk);
    }
    mon.publish_now();
    wait_until(|| mon.is_fresh(), "every shard to answer the marker");
    let live = mon.query(theta);
    let harvested = mon.harvest().expect("healthy pipeline").output(theta);
    (live, harvested)
}

fn check_fresh_query_is_the_harvest<E: FrequencyEstimator<u64>>() {
    let name = std::any::type_name::<E>();
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut x = 0xF2E5u64;
    let keys: Vec<u64> = (0..20_000u64)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
            if i % 3 == 0 {
                0x0A14_0000_0808_0808 | (x >> 60)
            } else {
                x >> 8
            }
        })
        .collect();
    for shards in 1..=3 {
        for (n, seed) in [(keys.len(), 5), (2_500, 6)] {
            let spawn = ShardedMonitor::<u64, E>::spawn(lat.clone(), config(seed), shards, 64);
            let (live, harvested) = fresh_and_harvested(spawn.expect("spawn workers"), &keys[..n]);
            assert_eq!(live, harvested, "{name}: flat fleet, K={shards}, n={n}");
            let spawn = ShardedMonitor::<u64, E>::spawn_windowed(
                lat.clone(),
                config(seed),
                shards,
                64,
                9_000,
                3,
            );
            let (live, harvested) = fresh_and_harvested(spawn.expect("spawn workers"), &keys[..n]);
            assert_eq!(live, harvested, "{name}: windowed fleet, K={shards}, n={n}");
        }
    }
}

/// Once `publish_now` has reached every shard (`is_fresh`), the live
/// query answers as the harvest does — flat and windowed fleets, one to
/// three shards, before and after the first rotation, for a Space Saving
/// combine and for the Misra–Gries fold.
#[test]
fn fresh_query_is_the_harvest() {
    check_fresh_query_is_the_harvest::<SpaceSaving<u64>>();
    check_fresh_query_is_the_harvest::<MisraGries<u64>>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At every instant coverage is conservative (`≤` packets fed so
    /// far); after the feed stops and a publish marker drains, coverage
    /// converges to *exactly* the fed count — the snapshot plane neither
    /// invents nor permanently loses packets, whatever the publication
    /// interval.
    #[test]
    fn coverage_is_conservative_then_exact(
        keys in vec(0u64..20_000, 1..2_000),
        shards in 1usize..5,
        batch in select(vec![1usize, 16, 256]),
        publish_every in select(vec![1u64, 4, u64::MAX]),
        seed in any::<u64>(),
    ) {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_with(
            lat,
            config(seed),
            shards,
            batch,
            SpawnOptions { publish_every },
        )
        .expect("spawn workers");

        let mut fed = 0u64;
        for chunk in keys.chunks(257) {
            for &k in chunk {
                mon.update(k);
            }
            fed += chunk.len() as u64;
            prop_assert!(
                mon.query_coverage() <= fed,
                "snapshots claimed packets that were never fed"
            );
        }
        mon.publish_now();
        let total = keys.len() as u64;
        wait_until(|| mon.query_coverage() == total, "exact post-publish coverage");

        // With the epochs settled, the cached query and a from-scratch
        // K-way merge must give the same answer.
        let cached = mon.query(0.05);
        let fresh = mon.query_fresh(0.05);
        prop_assert_eq!(cached, fresh, "cache diverged from the snapshots");

        mon.harvest().expect("healthy pipeline");
    }

    /// Staleness is bounded by the publication interval: with
    /// `publish_every = 1` every batch hand-off publishes, so once the
    /// feed quiesces (flush, no explicit marker needed) the snapshots
    /// converge to full coverage on their own.
    #[test]
    fn auto_publication_converges_without_markers(
        keys in vec(0u64..20_000, 1..1_000),
        shards in 1usize..4,
        seed in any::<u64>(),
    ) {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_with(
            lat,
            config(seed),
            shards,
            32,
            SpawnOptions { publish_every: 1 },
        )
        .expect("spawn workers");
        for &k in &keys {
            mon.update(k);
        }
        mon.flush();
        let total = keys.len() as u64;
        wait_until(|| mon.query_coverage() == total, "auto-published coverage");
        mon.harvest().expect("healthy pipeline");
    }
}
