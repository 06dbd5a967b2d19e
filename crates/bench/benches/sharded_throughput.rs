//! Shard fleet cost model: what sample-then-route and combine-on-query
//! buy and cost.
//!
//! Two groups, plus a hand-off occupancy printout:
//!
//! * `sharded_throughput/pipeline` — end-to-end packets/s of the
//!   [`ShardedMonitor`] (ingress sample → route by masked key → per-shard
//!   flush workers → harvest) for 1, 2 and 4 shards, both Space
//!   Saving layouts, at 10-RHHH fed one packet at a time. One shard is
//!   Figure 8's single measurement VM; more shards are the multi-VM
//!   deployment. On a box with fewer cores than threads the extra shards
//!   measure the *coordination overhead* (route, hand-off, combine) rather
//!   than a speedup — the number a deployment needs to know before
//!   reaching for threads.
//! * hand-off occupancy — one instrumented feed per shard count at a
//!   deliberately small grain (512 samples per hand-off, ~8× the pipeline
//!   group's sends per packet) prints the per-shard ring
//!   occupancy/park/drop counters: how full the rings ran and whether
//!   either side parked.
//! * `sharded_throughput/query` — the non-blocking query plane on a live
//!   4-shard monitor: `cached` re-serves the epoch-keyed combine,
//!   `per-merge` combines the latest snapshots from scratch. Row ids
//!   mirror `windowed_throughput/query` in `update_speed` so CI can
//!   compare the two caches directly; `per-merge` is the per-query
//!   price of shard parallelism.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hhh_bench::Workload;
use hhh_core::RhhhConfig;
use hhh_counters::{CompactSpaceSaving, SpaceSaving};
use hhh_hierarchy::Lattice;
use hhh_vswitch::ShardedMonitor;

const PACKETS: usize = 1_000_000;
const SHARD_BATCH: usize = 4_096;
/// Small grain for the occupancy printout: ~8× more sends per packet than
/// the pipeline group, so the rings see real backpressure.
const HANDOFF_BATCH: usize = 512;

fn config(v_scale: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.001,
        epsilon_s: 0.001,
        delta_s: 0.001,
        v_scale,
        updates_per_packet: 1,
        seed: 0x5AAD,
    }
}

fn pipeline(c: &mut Criterion) {
    let w = Workload::chicago16(PACKETS);
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut g = c.benchmark_group("sharded_throughput/pipeline");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(w.keys2.len() as u64));
    for shards in [1usize, 2, 4] {
        g.bench_function(BenchmarkId::from_parameter(format!("x{shards}")), |b| {
            b.iter(|| {
                let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(
                    lat.clone(),
                    config(10),
                    shards,
                    SHARD_BATCH,
                )
                .expect("spawn workers");
                for &k in &w.keys2 {
                    mon.update(k);
                }
                mon.harvest().expect("healthy pipeline")
            });
        });
        g.bench_function(
            BenchmarkId::from_parameter(format!("x{shards}-compact")),
            |b| {
                b.iter(|| {
                    let mut mon = ShardedMonitor::<u64, CompactSpaceSaving<u64>>::spawn(
                        lat.clone(),
                        config(10),
                        shards,
                        SHARD_BATCH,
                    )
                    .expect("spawn workers");
                    for &k in &w.keys2 {
                        mon.update(k);
                    }
                    mon.harvest().expect("healthy pipeline")
                });
            },
        );
    }
    g.finish();
}

/// Prints ring occupancy per shard; times nothing.
fn handoff_occupancy(_: &mut Criterion) {
    let w = Workload::chicago16(PACKETS);
    let lat = Lattice::ipv4_src_dst_bytes();
    // One instrumented ring feed per shard count: how full the rings ran,
    // how often either side had to park, whether anything was dropped.
    for shards in [1usize, 2, 4] {
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(
            lat.clone(),
            config(10),
            shards,
            HANDOFF_BATCH,
        )
        .expect("spawn workers");
        for &k in &w.keys2 {
            mon.update(k);
        }
        mon.flush();
        for (i, s) in mon.handoff_stats().iter().enumerate() {
            println!(
                "# ring x{shards} shard {i}: sends={} occ-mean={:.2} occ-max={} \
                 full={} parks={} dropped={}",
                s.sends,
                s.mean_occupancy(),
                s.occupancy_max,
                s.full_events,
                s.park_events,
                s.dropped,
            );
        }
        mon.harvest().expect("healthy pipeline");
    }
}

fn query_plane(c: &mut Criterion) {
    let w = Workload::chicago16(PACKETS);
    let lat = Lattice::ipv4_src_dst_bytes();

    // A live 4-shard ring monitor: feed the full trace, publish, and keep
    // the workers alive (parked) while the query plane is measured.
    let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, config(1), 4, SHARD_BATCH)
        .expect("spawn workers");
    for &k in &w.keys2 {
        mon.update(k);
    }
    mon.publish_now();
    let fed = w.keys2.len() as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while mon.query_coverage() < fed && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(mon.query_coverage(), fed, "snapshots cover the full feed");

    let mut g = c.benchmark_group("sharded_throughput/query");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g.bench_function(BenchmarkId::from_parameter("cached"), |b| {
        b.iter(|| mon.query(0.1));
    });
    g.bench_function(BenchmarkId::from_parameter("per-merge"), |b| {
        b.iter(|| mon.query_fresh(0.1));
    });
    g.finish();
    mon.harvest().expect("healthy pipeline");
}

criterion_group!(sharded, pipeline, handoff_occupancy, query_plane);
criterion_main!(sharded);
