//! Adversarial and degenerate inputs: the algorithms must stay sound (never
//! panic, never violate their conservative bounds) far outside the happy
//! path.

use hhh_core::{ExactHhh, HhhAlgorithm, MergeError, RhhhConfig};
use hhh_counters::SpaceSaving;
use hhh_eval::AlgoKind;
use hhh_hierarchy::{pack2, Lattice};
use hhh_vswitch::{ShardedMonitor, SpawnOptions};

/// A single key flooding the stream — maximal skew.
#[test]
fn single_key_flood() {
    for kind in AlgoKind::roster() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut algo = kind.build(lat.clone(), 0.02, 1);
        for _ in 0..100_000u64 {
            algo.insert(pack2(0x0101_0101, 0x0202_0202));
        }
        let out = algo.query(0.5);
        assert!(
            out.iter().any(|h| h.prefix.node == lat.bottom()),
            "{}: the flooding flow itself must be reported",
            kind.label()
        );
    }
}

/// All-distinct keys — zero skew, nothing should qualify except the root
/// (whose conditioned count is the entire stream).
///
/// N must sit clearly past the slack/θN crossover `(2Z/θ)²·V ≈ 207k` for
/// 10-RHHH (V = 250): below it the conservative sampling slack legitimately
/// admits every monitored candidate, fully-specified junk included.
#[test]
fn all_distinct_keys() {
    for kind in AlgoKind::roster() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut algo = kind.build(lat.clone(), 0.02, 2);
        let mut x = 0x9E37_79B9u64;
        for i in 0..400_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            algo.insert(pack2((x >> 32) as u32, (i as u32) ^ (x as u32)));
        }
        let out = algo.query(0.2);
        // Spread traffic can still aggregate at coarse levels (skewed /8
        // draws), but no fully-specified flow is heavy.
        assert!(
            out.iter().all(|h| h.prefix.node != lat.bottom()),
            "{}: no single flow is heavy in an all-distinct stream",
            kind.label()
        );
    }
}

/// V far larger than N: almost no updates happen; output must stay sane
/// (pre-convergence behaviour degrades gracefully).
#[test]
fn v_much_larger_than_stream() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut algo = hhh_core::Rhhh::<u64>::new(
        lat,
        hhh_core::RhhhConfig {
            epsilon_a: 0.01,
            epsilon_s: 0.01,
            delta_s: 0.001,
            v_scale: 1000, // V = 25_000 with only 10_000 packets
            updates_per_packet: 1,
            seed: 3,
        },
    );
    for i in 0..10_000u64 {
        algo.update(i);
    }
    assert!(!algo.converged());
    assert!(algo.total_updates() <= 10_000);
    // Everything the output says is conservative garbage-in-garbage-out,
    // but it must not panic or produce non-finite numbers.
    for h in algo.output(0.01) {
        assert!(h.conditioned.is_finite());
        assert!(h.freq_upper.is_finite());
    }
}

/// Alternating heavy prefixes — a workload that churns Space Saving's
/// bucket structure and the ancestry tries.
#[test]
fn alternating_phases() {
    for kind in AlgoKind::roster() {
        let lat = Lattice::ipv4_src_bytes();
        let mut algo = kind.build(lat.clone(), 0.02, 4);
        let mut exact = ExactHhh::new(lat.clone());
        let mut x = 17u64;
        for phase in 0..10u32 {
            let hot = u32::from_be_bytes([(phase % 5) as u8 + 10, 0, 0, 0]);
            for _ in 0..20_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                let key = if x.is_multiple_of(2) {
                    hot | ((x as u32) & 0x00FF_FFFF)
                } else {
                    x as u32
                };
                algo.insert(key);
                exact.insert(key);
            }
        }
        // Every phase's hot /8 ends at ~10% of total traffic; all five must
        // be covered by every algorithm (they are exact HHHs at theta=5%).
        let out = algo.query(0.05);
        let got: std::collections::HashSet<_> = out.iter().map(|h| h.prefix).collect();
        for p in exact.hhh(0.05) {
            assert!(
                got.contains(&p),
                "{} lost {} after phase churn",
                kind.label(),
                p.display(&lat)
            );
        }
    }
}

/// Zero-length streams and immediate queries.
#[test]
fn empty_stream_queries() {
    for kind in AlgoKind::roster() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let algo = kind.build(lat, 0.01, 5);
        assert_eq!(algo.packets(), 0);
        assert!(algo.query(0.01).is_empty(), "{}", kind.label());
    }
}

/// A shard worker dying mid-feed must not poison the ingress thread, and
/// the harvest must refuse to merge the partial answer: it surfaces
/// `MergeError::ShardFailed` instead of panicking (or worse, silently
/// under-counting the dead shard's sub-stream).
#[test]
fn dead_shard_mid_feed_surfaces_merge_error() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let config = RhhhConfig {
        epsilon_a: 0.01,
        epsilon_s: 0.05,
        delta_s: 0.05,
        ..RhhhConfig::default()
    };
    let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat.clone(), config, 3, 128)
        .expect("spawn workers");
    let mut x = 0xDEAD_u64;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
        x
    };
    for _ in 0..10_000 {
        mon.update(next());
    }
    mon.inject_shard_failure(2);
    // The channel to shard 2 is (or is about to be) poisoned; the feed
    // must keep running across the death without panicking.
    for _ in 0..50_000 {
        mon.update(next());
    }
    match mon.harvest() {
        Err(MergeError::ShardFailed(msg)) => {
            assert!(msg.contains("shard 2"), "error must name the shard: {msg}");
        }
        Ok(_) => panic!("harvest produced a merged answer from a dead shard"),
        Err(other) => panic!("wrong error kind: {other}"),
    }

    // The windowed pipeline honours the same contract: a pane-ring worker
    // dying mid-window must not panic the feed (nor the pane-rotation
    // broadcasts that cross the dead channel), and the windowed harvest
    // refuses the partial answer.
    let mut mon =
        ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(lat, config, 2, 128, 20_000, 4)
            .expect("spawn workers");
    for _ in 0..10_000 {
        mon.update(next());
    }
    mon.inject_shard_failure(1);
    for _ in 0..30_000 {
        mon.update(next()); // crosses several rotation broadcasts
    }
    match mon.harvest() {
        Err(MergeError::ShardFailed(msg)) => {
            assert!(msg.contains("shard 1"), "error must name the shard: {msg}");
            assert!(
                msg.to_string().contains("injected"),
                "error carries the panic payload: {msg}"
            );
        }
        Ok(_) => panic!("windowed harvest produced an answer from a dead shard"),
        Err(other) => panic!("wrong error kind: {other}"),
    }
}

/// A dead worker on the ring hand-off must not wedge the producer: the
/// ring fills, the producer's spin-then-park backpressure notices the
/// consumer is gone (its receiver drop clears the liveness flag — that
/// runs even on panic unwind) and fails the sends fast instead of parking
/// forever. The live query plane keeps answering from the last published
/// snapshots, and `MergeError::ShardFailed` surfaces only at harvest —
/// exactly the channel-mode contract.
#[test]
fn dead_ring_worker_keeps_producer_and_query_plane_alive() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let config = RhhhConfig {
        epsilon_a: 0.01,
        epsilon_s: 0.05,
        delta_s: 0.05,
        ..RhhhConfig::default()
    };
    // publish_every = MAX: explicit markers are the only publisher, so
    // "every epoch advanced" means "every marker processed" and the
    // snapshot coverage below is exact, not racy.
    let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_with(
        lat,
        config,
        3,
        128,
        SpawnOptions {
            publish_every: u64::MAX,
        },
    )
    .expect("spawn workers");
    let mut x = 0xFEED_u64;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
        x
    };
    for _ in 0..10_000 {
        mon.update(next());
    }
    mon.publish_now();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while mon.snapshot_epochs().contains(&0) {
        assert!(
            std::time::Instant::now() < deadline,
            "snapshots never published"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(mon.query_coverage(), 10_000);

    mon.inject_shard_failure(2);
    // Far more keys than the dead shard's ring can hold (16 slots × 128
    // keys ≈ 2k): without fail-fast liveness detection this feed would
    // park forever on the full ring.
    for _ in 0..200_000 {
        mon.update(next());
    }
    mon.flush();
    assert!(
        mon.handoff_stats()[2].dropped > 0,
        "sends to the dead shard must be counted as dropped, not block"
    );

    // The query plane still answers from the snapshots published before
    // the death — stale for the dead shard, but live and non-blocking.
    assert_eq!(mon.query_coverage(), 10_000);
    let _ = mon.query(0.1);

    match mon.harvest() {
        Err(MergeError::ShardFailed(msg)) => {
            assert!(msg.contains("shard 2"), "error must name the shard: {msg}");
        }
        Ok(_) => panic!("harvest produced a merged answer from a dead shard"),
        Err(other) => panic!("wrong error kind: {other}"),
    }
}

/// Extreme thresholds.
#[test]
fn extreme_thetas() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut algo = AlgoKind::Mst.build(lat, 0.01, 6);
    for i in 0..50_000u64 {
        algo.insert(i % 100);
    }
    // theta = 1.0: only prefixes covering the whole stream can qualify.
    let out = algo.query(1.0);
    for h in &out {
        assert!(h.conditioned >= 50_000.0);
    }
    // Tiny theta: lots of output, but every row internally consistent.
    let out = algo.query(1e-6);
    for h in &out {
        assert!(h.freq_lower <= h.freq_upper);
    }
}
