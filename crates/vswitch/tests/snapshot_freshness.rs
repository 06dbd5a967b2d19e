//! Freshness properties of the non-blocking snapshot query plane.
//!
//! The plane promises a *bounded-staleness* read: `query()` never sees
//! packets that were not fed (coverage is conservative at every instant),
//! and after an explicit publish marker drains it sees *everything* fed
//! before the marker — exactly, for any stream, shard count, batch grain
//! and publication interval. The cached and from-scratch query paths must
//! agree whenever the cache is keyed to the current epochs.

use std::time::{Duration, Instant};

use hhh_core::RhhhConfig;
use hhh_counters::SpaceSaving;
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
