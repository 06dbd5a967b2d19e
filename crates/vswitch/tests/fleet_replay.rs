//! Replay oracle for the shard fleet: threads, outboxes, the ring
//! hand-off and the snapshot plane are *transport*, not *semantics*.
//!
//! The fleet promises to sample every feed call once at ingress with one
//! `Sampler` seeded from `config.seed` (reseeded at each rotation as a
//! fresh `PaneRing` pane is), route each sampled entry with
//! `shard_of(masked key)`, flush each call's node groups separately into
//! the shard's active pane, freeze the covered panes, and answer with one
//! `Rhhh::combine` of the frozen slices in shard order whose `N` and `W`
//! are what was fed into the covered panes.
//! So:
//!
//! * at one shard the harvest equals inline `Rhhh::update_batch` /
//!   `update_batch_weighted` at the same call chunking, and the windowed
//!   harvest equals `WindowedRhhh::merged_window`;
//! * at two to four shards it equals an in-thread replay of that promise.
//!
//! Equal means bit for bit on the harvested view's `N`, `W`, total and
//! per-node update counts, every node's counters and `Output(θ)`. The counters are small
//! (40 per node), so evictions make the flush grouping observable.

use std::sync::Arc;

use hhh_core::{
    FrozenRhhh, HeavyHitter, Lane, NodeEstimates, PaneRing, Rhhh, RhhhConfig, Sampler, WindowedRhhh,
};
use hhh_counters::Candidate;
use hhh_hierarchy::{Lattice, NodeId};
use hhh_vswitch::{shard_of, ShardedMonitor};
use proptest::prelude::*;
use proptest::sample::select;

/// The harvest's observable state.
type Summary = (
    u64,
    u64,
    u64,
    Vec<(u64, Vec<Candidate<u64>>)>,
    Vec<HeavyHitter<u64>>,
);

fn summarize(m: &FrozenRhhh<u64>) -> Summary {
    let nodes = Lattice::<u64>::ipv4_src_dst_bytes()
        .node_ids()
        .map(|node| (m.node(node).updates(), m.node_candidates(node)))
        .collect();
    (
        m.packets(),
        m.total_weight(),
        m.total_updates(),
        nodes,
        m.output(0.5),
    )
}

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    packets: usize,
    shards: usize,
    batch: usize,
    /// Packets per `update_batch*` call.
    chunk: usize,
    /// `Some((W, G))` for the windowed fleet.
    window: Option<(u64, usize)>,
    weighted: bool,
    v_scale: u64,
    r: u32,
}

impl Case {
    /// `ε_s = 1` keeps ψ below the windows, so their answers converge;
    /// `ε_a = 0.05` gives 40 counters per node.
    fn config(&self) -> RhhhConfig {
        RhhhConfig {
            epsilon_a: 0.05,
            epsilon_s: 1.0,
            delta_s: 0.05,
            v_scale: self.v_scale,
            updates_per_packet: self.r,
            seed: self.seed,
        }
    }

    /// `(key, wire length)` per packet: 30% under one heavy /16 → /32
    /// pair, the rest spread out.
    fn stream(&self) -> Vec<(u64, u64)> {
        let mut x = self.seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 16
        };
        (0..self.packets)
            .map(|i| {
                let k = next();
                let key = if i % 10 < 3 {
                    0x0A14_0000_0808_0808 | ((k & 0xFFFF) << 32)
                } else {
                    k ^ (next() << 32)
                };
                (key, 64 + k % 1_400)
            })
            .collect()
    }
}

/// Feeds the case through a spawned fleet and harvests it.
fn fleet(case: &Case) -> FrozenRhhh<u64> {
    let lat = Lattice::ipv4_src_dst_bytes();
    let cfg = case.config();
    let mut mon = match case.window {
        None => ShardedMonitor::<u64>::spawn(lat, cfg, case.shards, case.batch),
        Some((w, g)) => {
            ShardedMonitor::<u64>::spawn_windowed(lat, cfg, case.shards, case.batch, w, g)
        }
    }
    .expect("spawn workers");
    for part in case.stream().chunks(case.chunk) {
        if case.weighted {
            mon.update_batch_weighted(part);
        } else {
            let keys: Vec<u64> = part.iter().map(|&(k, _)| k).collect();
            mon.update_batch(&keys);
        }
    }
    mon.harvest().expect("healthy fleet")
}

/// One shard, flat: inline `Rhhh` at the same call chunking.
fn inline(case: &Case) -> FrozenRhhh<u64> {
    let mut algo = Rhhh::<u64>::new(Lattice::ipv4_src_dst_bytes(), case.config());
    for part in case.stream().chunks(case.chunk) {
        if case.weighted {
            algo.update_batch_weighted(part);
        } else {
            let keys: Vec<u64> = part.iter().map(|&(k, _)| k).collect();
            algo.update_batch(&keys);
        }
    }
    algo.freeze()
}

/// One shard, windowed: the single-thread pane ring. Before its first
/// rotation the ring's answer is its active pane, which is the flat
/// instance.
fn inline_windowed(case: &Case) -> FrozenRhhh<u64> {
    let (w, g) = case.window.expect("a windowed case");
    let mut win = WindowedRhhh::<u64>::new(Lattice::ipv4_src_dst_bytes(), case.config(), w, g);
    for part in case.stream().chunks(case.chunk) {
        if case.weighted {
            win.update_batch_weighted(part);
        } else {
            let keys: Vec<u64> = part.iter().map(|&(k, _)| k).collect();
            win.update_batch(&keys);
        }
    }
    win.merged_window().unwrap_or_else(|| inline(case))
}

/// Routes one sampler call's groups by masked key and flushes each
/// shard's part of each group into that shard's active pane.
fn route_and_flush<T: Lane<u64>>(rings: &mut [PaneRing<u64>], groups: &[Vec<T>]) {
    for (node, group) in groups.iter().enumerate() {
        let mut parts = vec![Vec::new(); rings.len()];
        for &entry in group {
            parts[shard_of(entry.key(), rings.len())].push(entry);
        }
        for (ring, part) in rings.iter_mut().zip(&mut parts) {
            ring.active_mut().absorb(NodeId(node as u16), part);
        }
    }
}

/// Any shard count: the fleet's promise replayed on this thread.
fn replay(case: &Case) -> FrozenRhhh<u64> {
    let lat = Lattice::ipv4_src_dst_bytes();
    let cfg = case.config();
    let (pane_len, keep) = match case.window {
        Some((w, g)) => (w.div_ceil(g as u64), g),
        None => (u64::MAX, 1),
    };
    let mut sampler = Sampler::new(&lat, &cfg);
    let mut rings: Vec<PaneRing<u64>> = (0..case.shards)
        .map(|_| PaneRing::new(lat.clone(), cfg, keep))
        .collect();
    // Packets and weight fed per pane, the active pane last.
    let mut fed = vec![(0u64, 0u64)];
    for part in case.stream().chunks(case.chunk) {
        let mut rest = part;
        while !rest.is_empty() {
            let fill = fed.last().expect("an active pane").0;
            let (piece, later) = rest.split_at((rest.len() as u64).min(pane_len - fill) as usize);
            if case.weighted {
                route_and_flush(&mut rings, sampler.sample(piece.len(), |i| piece[i]));
            } else {
                route_and_flush(&mut rings, sampler.sample(piece.len(), |i| piece[i].0));
            }
            let pane = fed.last_mut().expect("an active pane");
            pane.0 += piece.len() as u64;
            pane.1 += piece
                .iter()
                .map(|&(_, w)| if case.weighted { w } else { 1 })
                .sum::<u64>();
            if pane.0 == pane_len {
                for ring in &mut rings {
                    ring.rotate();
                }
                sampler.reseed(rings[0].active().config().seed);
                fed.push((0, 0));
            }
            rest = later;
        }
    }
    let rotations = fed.len() - 1;
    let covered = if rotations == 0 {
        &fed[..]
    } else {
        &fed[rotations.saturating_sub(keep)..rotations]
    };
    let packets = covered.iter().map(|p| p.0).sum();
    let weight = covered.iter().map(|p| p.1).sum();
    // Each ring's answer: its active pane frozen before the first
    // rotation, else the panes it froze at rotation.
    let slices: Vec<Arc<FrozenRhhh<u64>>> = rings
        .iter()
        .flat_map(|ring| {
            if rotations == 0 {
                vec![Arc::new(ring.active().freeze())]
            } else {
                ring.completed().cloned().collect()
            }
        })
        .collect();
    let mut view = Rhhh::<u64>::combine(&slices.iter().map(|p| &**p).collect::<Vec<_>>());
    view.note_totals(packets, weight);
    view
}

/// Fails the case, naming its shape, when the fleet and `want` differ.
fn check(case: &Case, want: &FrozenRhhh<u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        summarize(&fleet(case)),
        summarize(want),
        "fleet diverged: {:?}",
        case
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One shard, flat: inline `update_batch` / `update_batch_weighted`
    /// at the same chunking, for V ∈ {H, 10H} and r ∈ {1, 4}.
    #[test]
    fn one_shard_fleet_matches_inline_rhhh(
        seed in any::<u64>(),
        packets in 1usize..4_000,
        batch in select(vec![1usize, 64, 4_096]),
        chunk in 1usize..1_500,
        weighted in any::<bool>(),
        v_scale in select(vec![1u64, 10]),
        r in select(vec![1u32, 4]),
    ) {
        let case = Case {
            seed, packets, shards: 1, batch, chunk, window: None, weighted, v_scale, r,
        };
        check(&case, &inline(&case))?;
        check(&case, &replay(&case))?;
    }

    /// One shard, windowed: `WindowedRhhh::merged_window` at the same
    /// chunking, unit and weighted, across rotations.
    #[test]
    fn one_shard_windowed_fleet_matches_windowed_rhhh(
        seed in any::<u64>(),
        packets in 1usize..4_000,
        batch in select(vec![1usize, 64, 4_096]),
        chunk in 1usize..1_500,
        window in select(vec![600u64, 1_200]),
        panes in 1usize..5,
        weighted in any::<bool>(),
        v_scale in select(vec![1u64, 10]),
    ) {
        let case = Case {
            seed, packets, shards: 1, batch, chunk, window: Some((window, panes)),
            weighted, v_scale, r: 1,
        };
        check(&case, &inline_windowed(&case))?;
    }

    /// Two to four shards, flat: the in-thread replay.
    #[test]
    fn flat_fleet_matches_in_thread_replay(
        seed in any::<u64>(),
        packets in 1usize..4_000,
        shards in 2usize..5,
        batch in select(vec![1usize, 64, 4_096]),
        chunk in 1usize..1_500,
        weighted in any::<bool>(),
        v_scale in select(vec![1u64, 10]),
        r in select(vec![1u32, 4]),
    ) {
        let case = Case {
            seed, packets, shards, batch, chunk, window: None, weighted, v_scale, r,
        };
        check(&case, &replay(&case))?;
    }

    /// Two to four shards, windowed: the replay across rotations, whose
    /// markers ride the same hand-off as the samples.
    #[test]
    fn windowed_fleet_matches_in_thread_replay(
        seed in any::<u64>(),
        packets in 1usize..4_000,
        shards in 2usize..5,
        batch in select(vec![1usize, 64, 4_096]),
        chunk in 1usize..1_500,
        window in select(vec![600u64, 1_200]),
        panes in 1usize..5,
        weighted in any::<bool>(),
        v_scale in select(vec![1u64, 10]),
    ) {
        let case = Case {
            seed, packets, shards, batch, chunk, window: Some((window, panes)), weighted,
            v_scale, r: 1,
        };
        check(&case, &replay(&case))?;
    }
}
