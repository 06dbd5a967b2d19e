//! Differential suite for the read-only query plane: a [`FrozenRhhh`]
//! view over windows of G ∈ {1, 2, 4, 8} panes and over fleets of
//! K ∈ 1..=4 shard instances must keep every counter's contract against
//! exact truth, for every counter in the roster:
//!
//! * the truth is an RHHH over an exact per-key counter, fed the same
//!   packets with the same seeds. Sampling never reads the counter, so it
//!   samples exactly the packets every other counter's instance samples,
//!   and the view of its parts holds each node's true sampled counts;
//! * every node of the view holds the same update count as the truth, and
//!   `lower ≤ truth ≤ upper` for every key the truth or the view holds;
//! * the cached window query, the fresh one and the fresh view's
//!   `Output(θ)` agree entry for entry.
//!
//! The two Space Saving layouts keep identical count multisets on the same
//! scalar feed, and report the same upper bound for every key: a key tied
//! at the minimum is bounded by the min-count whether or not it holds a
//! slot, so the layouts differ only in which of those keys they list. Their
//! views of the same parts must therefore hold the same count multiset,
//! unmonitored bound and update count at every node.

use std::collections::HashMap;

use hhh_core::{FrozenRhhh, Rhhh, RhhhConfig, WindowedRhhh};
use hhh_counters::{
    Candidate, CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, Frozen, LossyCounting,
    MisraGries, SpaceSaving,
};
use hhh_hierarchy::{pack2, shard_of, Lattice};

/// Two thresholds well above the sampling slack `2·Z·√(N·V)` (≈ 0.15·N at
/// N = 16k), where answers hold a few prefixes, and one below it, where
/// nearly every candidate passes line 13 and the answer holds them all.
const THETAS: [f64; 3] = [0.2, 0.35, 0.05];

/// ψ ≈ 1.96·25/0.1² ≈ 4.9k packets, so every window below converges.
fn config(seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.02,
        epsilon_s: 0.1,
        delta_s: 0.05,
        seed,
        ..RhhhConfig::default()
    }
}

/// Two heavy subnets that trade places mid-stream over a tail of `tail`
/// flows.
fn stream(n: usize, seed: u64, tail: u32) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 16) as u32;
            let flow = r % tail;
            match (i % 4, i < n / 2) {
                (0, true) => pack2(0x0A14_0000 | (r & 0xF), 0x0808_0808),
                (0, false) => pack2(0x0B15_0000 | (r & 0xF), 0x0404_0404),
                _ => pack2(
                    flow.wrapping_mul(0x9E37_79B9),
                    flow.wrapping_mul(0x85EB_CA6B),
                ),
            }
        })
        .collect()
}

/// Exact per-key counts: the oracle counter. Its "combine" sums counts.
#[derive(Debug, Clone, Default)]
struct Exact {
    counts: HashMap<u64, u64>,
    updates: u64,
}

impl FrequencyEstimator<u64> for Exact {
    fn with_capacity(_: usize) -> Self {
        Self::default()
    }

    fn increment(&mut self, key: u64) {
        self.add(key, 1);
    }

    fn add(&mut self, key: u64, weight: u64) {
        *self.counts.entry(key).or_insert(0) += weight;
        self.updates += weight;
    }

    fn combine(parts: &[&Frozen<u64>]) -> Frozen<u64> {
        let mut sum = Exact::default();
        for part in parts {
            part.for_each_candidate(|c| sum.add(c.key, c.lower));
        }
        Frozen::freeze(&sum)
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &u64) -> u64 {
        self.lower(key)
    }

    fn lower(&self, key: &u64) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn unmonitored_upper(&self) -> u64 {
        0
    }

    fn candidates(&self) -> Vec<Candidate<u64>> {
        self.counts
            .iter()
            .map(|(&key, &count)| Candidate {
                key,
                upper: count,
                lower: count,
            })
            .collect()
    }

    fn capacity(&self) -> usize {
        usize::MAX
    }
}

/// The view keeps the contract against the truth at every node: the same
/// totals and update counts, and `lower ≤ truth ≤ upper` for every key
/// either side holds.
fn check_against_truth(view: &FrozenRhhh<u64>, truth: &FrozenRhhh<u64>, what: &str) {
    assert_eq!(view.packets(), truth.packets(), "{what}: N");
    assert_eq!(view.total_weight(), truth.total_weight(), "{what}: W");
    assert_eq!(view.slack(), truth.slack(), "{what}: slack");
    assert_eq!(view.converged(), truth.converged(), "{what}: converged");
    for node in Lattice::<u64>::ipv4_src_dst_bytes().node_ids() {
        let (got, exact) = (view.node(node), truth.node(node));
        assert_eq!(
            got.updates(),
            exact.updates(),
            "{what}: node {node:?} updates"
        );
        let keys = exact.candidates().into_iter().chain(got.candidates());
        for key in keys.map(|c| c.key).chain([u64::MAX]) {
            let f = exact.upper(&key);
            assert!(
                got.lower(&key) <= f && f <= got.upper(&key),
                "{what}: node {node:?} key {key:#x}: truth {f} outside [{}, {}]",
                got.lower(&key),
                got.upper(&key)
            );
        }
    }
}

fn window<E: FrequencyEstimator<u64>>(panes: usize) -> WindowedRhhh<u64, E> {
    WindowedRhhh::new(Lattice::ipv4_src_dst_bytes(), config(5), 16_000, panes)
}

fn check_windows<E: FrequencyEstimator<u64>>(tail: u32) {
    let name = std::any::type_name::<E>();
    let keys = stream(40_000, 11, tail);
    for panes in [1usize, 2, 4, 8] {
        let (mut w, mut exact) = (window::<E>(panes), window::<Exact>(panes));
        // Three checkpoints: a partly filled ring, a full one, a slid one.
        for part in [&keys[..17_000], &keys[17_000..29_000], &keys[29_000..]] {
            for chunk in part.chunks(1_000) {
                w.update_batch(chunk);
                exact.update_batch(chunk);
            }
            let what = format!("{name} G={panes} after {} packets", w.total_packets());
            let fresh = w.merged_window().expect("a pane has completed");
            let truth = exact.merged_window().expect("a pane has completed");
            check_against_truth(&fresh, &truth, &what);
            check_against_truth(w.view().expect("a pane has completed"), &truth, &what);
            for theta in THETAS {
                let answer = fresh.output(theta);
                assert_eq!(w.query_fresh(theta), Some(answer.clone()), "{what}: fresh");
                assert_eq!(w.query(theta), Some(answer), "{what}: cached");
            }
        }
    }
}

fn fleet<E: FrequencyEstimator<u64>>(keys: &[u64], shards: usize) -> Vec<Rhhh<u64, E>> {
    let mut parts: Vec<Rhhh<u64, E>> = (0..shards)
        .map(|s| Rhhh::new(Lattice::ipv4_src_dst_bytes(), config(100 + s as u64)))
        .collect();
    for &k in keys {
        parts[shard_of(k, shards)].update(k);
    }
    parts
}

fn view_of<E: FrequencyEstimator<u64>>(parts: &[Rhhh<u64, E>]) -> FrozenRhhh<u64> {
    let frozen: Vec<FrozenRhhh<u64>> = parts.iter().map(Rhhh::freeze).collect();
    Rhhh::<u64, E>::combine(&frozen.iter().collect::<Vec<_>>())
}

fn check_fleets<E: FrequencyEstimator<u64>>(tail: u32) {
    let name = std::any::type_name::<E>();
    let keys = stream(24_000, 23, tail);
    for shards in 1usize..=4 {
        let view = view_of(&fleet::<E>(&keys, shards));
        let truth = view_of(&fleet::<Exact>(&keys, shards));
        check_against_truth(&view, &truth, &format!("{name} K={shards}"));
    }
}

/// Checks one counter over windows and fleets. `tail` is the stream's
/// flow count: 512 makes every node evict at the suite's 55 counters.
/// On the Cuckoo Heavy Keeper every upper bound carries the node's
/// unattributed-mass deficit, which on this tail lifts every candidate
/// over θ; `Output(θ)` costs one pass plus the answer, so that regime is
/// checked too.
fn check_counter<E: FrequencyEstimator<u64>>(tail: u32) {
    check_windows::<E>(tail);
    check_fleets::<E>(tail);
}

/// Per node: the sorted counts, the unmonitored bound and the updates.
fn count_multisets(view: &FrozenRhhh<u64>) -> Vec<(Vec<u64>, u64, u64)> {
    Lattice::<u64>::ipv4_src_dst_bytes()
        .node_ids()
        .map(|node| {
            let frozen = view.node(node);
            let mut counts: Vec<u64> = frozen.candidates().iter().map(|c| c.upper).collect();
            counts.sort_unstable();
            (counts, frozen.unmonitored_upper(), frozen.updates())
        })
        .collect()
}

/// Scalar feeds: the batch flush lets the compact layout pick its own
/// processing order, which changes its count multiset.
#[test]
fn stream_summary_views_match_compact_views() {
    let keys = stream(40_000, 11, 512);
    for panes in [1usize, 2, 4, 8] {
        let mut ss = window::<SpaceSaving<u64>>(panes);
        let mut compact = window::<CompactSpaceSaving<u64>>(panes);
        for chunk in keys.chunks(1_000) {
            for &k in chunk {
                ss.update(k);
                compact.update(k);
            }
            if let (Some(a), Some(b)) = (ss.merged_window(), compact.merged_window()) {
                assert_eq!(count_multisets(&a), count_multisets(&b), "G={panes}");
            }
        }
    }
    let keys = stream(24_000, 23, 512);
    for shards in 1usize..=4 {
        let a = view_of(&fleet::<SpaceSaving<u64>>(&keys, shards));
        let b = view_of(&fleet::<CompactSpaceSaving<u64>>(&keys, shards));
        assert_eq!(count_multisets(&a), count_multisets(&b), "K={shards}");
    }
}

#[test]
fn stream_summary_views_match_exact_truth() {
    check_counter::<SpaceSaving<u64>>(512);
}

#[test]
fn compact_views_match_exact_truth() {
    check_counter::<CompactSpaceSaving<u64>>(512);
}

#[test]
fn misra_gries_views_match_exact_truth() {
    check_counter::<MisraGries<u64>>(512);
}

#[test]
fn lossy_counting_views_match_exact_truth() {
    check_counter::<LossyCounting<u64>>(512);
}

#[test]
fn chk_views_match_exact_truth() {
    check_counter::<CuckooHeavyKeeper<u64>>(512);
}
