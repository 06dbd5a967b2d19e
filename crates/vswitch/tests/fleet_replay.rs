//! Bit-identity oracle for the shard fleet: threads, the ring hand-off and
//! the snapshot plane are *transport*, not *semantics*. For any stream,
//! shard count, batch grain, slice chunking and seed, unwindowed or
//! windowed, unit or weighted feed, the fleet's harvest must equal an
//! in-thread replay of what the fleet promises to do: route each key with
//! `shard_of`, cut each shard's sub-stream at the batch grain and at every
//! global pane boundary, feed per-shard `PaneRing`s seeded with
//! `shard_seed`, and combine the retained panes (or, before the first
//! rotation, the active ones) with one `merge_many` in shard order.

use hhh_core::{HeavyHitter, HhhAlgorithm, PaneRing, RhhhConfig};
use hhh_counters::SpaceSaving;
use hhh_hierarchy::Lattice;
use hhh_vswitch::{shard_of, shard_seed, ShardedMonitor};
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

/// Harvest summary: the ledgers plus the full output table at θ = 0.05.
type Harvest = (u64, u64, u64, Vec<HeavyHitter<u64>>);

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    packets: Vec<(u64, u64)>,
    shards: usize,
    batch: usize,
    /// Packets per `update_batch*` call on the fleet.
    chunk: usize,
    /// `Some((W, G))` for the windowed fleet.
    window: Option<(u64, usize)>,
    weighted: bool,
    seed: u64,
}

fn summarize(merged: &hhh_core::Rhhh<u64, SpaceSaving<u64>>) -> Harvest {
    (
        merged.packets(),
        merged.total_updates(),
        merged.total_weight(),
        merged.output(0.05),
    )
}

/// Feeds the case through a spawned fleet in `chunk`-sized slices and
/// harvests it.
macro_rules! feed_and_harvest {
    ($mon:expr, $case:expr) => {{
        let mut mon = $mon.expect("spawn workers");
        if $case.weighted {
            for part in $case.packets.chunks($case.chunk) {
                mon.update_batch_weighted(part);
            }
        } else {
            let keys: Vec<u64> = $case.packets.iter().map(|&(k, _)| k).collect();
            for part in keys.chunks($case.chunk) {
                mon.update_batch(part);
            }
        }
        summarize(&mon.harvest().expect("healthy fleet"))
    }};
}

fn fleet_harvest(case: &Case) -> Harvest {
    let lat = Lattice::ipv4_src_dst_bytes();
    let cfg = config(case.seed);
    match case.window {
        None => feed_and_harvest!(
            ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, cfg, case.shards, case.batch),
            case
        ),
        Some((window, panes)) => feed_and_harvest!(
            ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(
                lat,
                cfg,
                case.shards,
                case.batch,
                window,
                panes
            ),
            case
        ),
    }
}

/// Hands one shard's buffered sub-stream slice to its ring's active pane.
fn cut(ring: &mut PaneRing<u64, SpaceSaving<u64>>, buf: &mut Vec<(u64, u64)>, weighted: bool) {
    if buf.is_empty() {
        return;
    }
    if weighted {
        ring.active_mut().update_batch_weighted(buf);
    } else {
        let keys: Vec<u64> = buf.iter().map(|&(k, _)| k).collect();
        ring.active_mut().update_batch(&keys);
    }
    buf.clear();
}

fn replay_harvest(case: &Case) -> Harvest {
    let lat = Lattice::ipv4_src_dst_bytes();
    let (pane_len, keep) = match case.window {
        Some((window, panes)) => (window.div_ceil(panes as u64), panes),
        None => (u64::MAX, 1),
    };
    let mut rings: Vec<PaneRing<u64, SpaceSaving<u64>>> = (0..case.shards)
        .map(|shard| {
            let seeded = RhhhConfig {
                seed: shard_seed(case.seed, shard),
                ..config(case.seed)
            };
            PaneRing::new(lat.clone(), seeded, keep)
        })
        .collect();
    let mut bufs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); case.shards];
    let mut fill = 0u64;
    let mut rotations = 0u64;
    for &(key, weight) in &case.packets {
        let shard = shard_of(key, case.shards);
        bufs[shard].push((key, if case.weighted { weight } else { 1 }));
        if bufs[shard].len() == case.batch {
            cut(&mut rings[shard], &mut bufs[shard], case.weighted);
        }
        fill += 1;
        if fill == pane_len {
            for (ring, buf) in rings.iter_mut().zip(&mut bufs) {
                cut(ring, buf, case.weighted);
                ring.rotate();
            }
            fill = 0;
            rotations += 1;
        }
    }
    for (ring, buf) in rings.iter_mut().zip(&mut bufs) {
        cut(ring, buf, case.weighted);
    }
    let mut panes = Vec::new();
    for ring in rings {
        let (active, completed) = ring.into_parts();
        if rotations == 0 {
            panes.push(active);
        } else {
            panes.extend(completed);
        }
    }
    let mut merged = panes.remove(0);
    merged.merge_many(panes);
    summarize(&merged)
}

/// Fails the case, naming its shape, when the fleet and the replay differ.
fn check(case: &Case) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fleet_harvest(case),
        replay_harvest(case),
        "fleet diverged from replay: shards={} batch={} chunk={} window={:?} weighted={}",
        case.shards,
        case.batch,
        case.chunk,
        case.window,
        case.weighted
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The unwindowed fleet harvests exactly the in-thread replay.
    #[test]
    fn flat_fleet_matches_in_thread_replay(
        packets in vec((0u64..50_000, 1u64..1_500), 1..3_000),
        shards in 1usize..5,
        batch in select(vec![1usize, 16, 256]),
        chunk in 1usize..700,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let case = Case { packets, shards, batch, chunk, window: None, weighted, seed };
        check(&case)?;
    }

    /// The windowed fleet does too, across pane rotations: the rotation
    /// markers ride the same hand-off as the batches and cut every shard
    /// at the same global packet index.
    #[test]
    fn windowed_fleet_matches_in_thread_replay(
        packets in vec((0u64..50_000, 1u64..1_500), 1..3_000),
        shards in 1usize..5,
        batch in select(vec![1usize, 16, 256]),
        chunk in 1usize..700,
        panes in 2usize..5,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let case = Case {
            packets,
            shards,
            batch,
            chunk,
            window: Some((1_000, panes)),
            weighted,
            seed,
        };
        check(&case)?;
    }
}
