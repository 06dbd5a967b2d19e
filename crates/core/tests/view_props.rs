//! Differential suite for the read-only query plane: a [`FrozenRhhh`]
//! view must answer `Output(θ)` as the live `merge_many` + `output` of the
//! same instances does — for every counter in the roster, over windows of
//! G ∈ {1, 2, 4, 8} panes and over fleets of K ∈ 1..=4 shard instances.
//!
//! Stream-summary Space Saving answers match entry for entry: the view
//! keeps the combine's `(count, key)` order, which is the rebuilt stream
//! summary's candidate order. The other layouts list a rebuilt summary's
//! candidates in their own slot or map order, which only reorders
//! prefixes within a lattice level, so their answers must hold the same
//! prefixes with identical `freq_lower` and `freq_upper`.

use hhh_core::{FrozenRhhh, HeavyHitter, Rhhh, RhhhConfig, WindowedRhhh};
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, HeapSpaceSaving, LossyCounting,
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

fn same_answers(
    view: &[HeavyHitter<u64>],
    live: &[HeavyHitter<u64>],
    entry_for_entry: bool,
    what: &str,
) {
    if entry_for_entry {
        assert_eq!(view, live, "{what}: view and live merge disagree");
        return;
    }
    let sorted = |answer: &[HeavyHitter<u64>]| {
        let mut rows: Vec<_> = answer
            .iter()
            .map(|h| (h.prefix.node, h.prefix.key, h.freq_lower, h.freq_upper))
            .collect();
        rows.sort_by_key(|r| (r.0, r.1));
        rows
    };
    assert_eq!(
        sorted(view),
        sorted(live),
        "{what}: view and live merge disagree"
    );
}

/// The view's totals and every node's summary equal the live merge's:
/// the same candidates with the same bounds, the same bound for an
/// unmonitored key and the same update count.
fn check_summaries<E: FrequencyEstimator<u64> + Clone>(
    view: &FrozenRhhh<u64>,
    live: &Rhhh<u64, E>,
    entry_for_entry: bool,
    what: &str,
) {
    assert_eq!(view.total_weight(), live.total_weight(), "{what}: W");
    assert_eq!(view.slack(), live.slack(), "{what}: slack");
    assert_eq!(view.converged(), live.converged(), "{what}: converged");
    for node in live.lattice().node_ids() {
        let (frozen, inst) = (view.node(node), &live.node_instances()[node.index()]);
        let (mut got, mut want) = (frozen.candidates(), inst.candidates());
        if !entry_for_entry {
            got.sort_unstable_by_key(|c| c.key);
            want.sort_unstable_by_key(|c| c.key);
        }
        assert_eq!(got, want, "{what}: node {node:?} candidates");
        // No stream key sets every bit, so u64::MAX is never monitored.
        assert_eq!(
            frozen.unmonitored_upper(),
            inst.upper(&u64::MAX),
            "{what}: node {node:?} unmonitored bound"
        );
        assert_eq!(frozen.updates(), inst.updates(), "{what}: node {node:?}");
    }
}

fn check_windows<E: FrequencyEstimator<u64> + Clone>(entry_for_entry: bool, tail: u32) {
    let name = std::any::type_name::<E>();
    let keys = stream(40_000, 11, tail);
    for panes in [1usize, 2, 4, 8] {
        let mut w =
            WindowedRhhh::<u64, E>::new(Lattice::ipv4_src_dst_bytes(), config(5), 16_000, panes);
        // Three checkpoints: a partly filled ring, a full one, a slid one.
        for part in [&keys[..17_000], &keys[17_000..29_000], &keys[29_000..]] {
            for chunk in part.chunks(1_000) {
                w.update_batch(chunk);
            }
            let live = w.merged_window().expect("a pane has completed");
            let what = format!("{name} G={panes} after {} packets", w.total_packets());
            let view = w.view().expect("a pane has completed");
            check_summaries(view, &live, entry_for_entry, &what);
            for theta in THETAS {
                let answer = live.output(theta);
                same_answers(
                    &w.query_fresh(theta).expect("a pane has completed"),
                    &answer,
                    entry_for_entry,
                    &what,
                );
                same_answers(
                    &w.query(theta).expect("a pane has completed"),
                    &answer,
                    entry_for_entry,
                    &what,
                );
            }
        }
    }
}

fn check_fleets<E: FrequencyEstimator<u64> + Clone>(entry_for_entry: bool, tail: u32) {
    let name = std::any::type_name::<E>();
    let keys = stream(24_000, 23, tail);
    for shards in 1usize..=4 {
        let mut parts: Vec<Rhhh<u64, E>> = (0..shards)
            .map(|s| Rhhh::new(Lattice::ipv4_src_dst_bytes(), config(100 + s as u64)))
            .collect();
        for &k in &keys {
            parts[shard_of(k, shards)].update(k);
        }
        let view = Rhhh::merged_view(&parts.iter().collect::<Vec<_>>());
        let mut live = parts[0].clone();
        live.merge_many(parts[1..].to_vec());
        let what = format!("{name} K={shards}");
        check_summaries(&view, &live, entry_for_entry, &what);
        for theta in THETAS {
            same_answers(
                &view.output(theta),
                &live.output(theta),
                entry_for_entry,
                &what,
            );
        }
    }
}

/// Checks one counter over windows and fleets. `tail` is the stream's
/// flow count: 512 makes every node evict at the suite's 55 counters.
/// On the Cuckoo Heavy Keeper every upper bound carries the node's
/// unattributed-mass deficit, which on this tail lifts every candidate
/// over θ; `Output(θ)` costs one pass plus the answer, so that regime is
/// compared too.
fn check_counter<E: FrequencyEstimator<u64> + Clone>(entry_for_entry: bool, tail: u32) {
    check_windows::<E>(entry_for_entry, tail);
    check_fleets::<E>(entry_for_entry, tail);
}

#[test]
fn stream_summary_views_match_entry_for_entry() {
    check_counter::<SpaceSaving<u64>>(true, 512);
}

#[test]
fn compact_views_match_live_merge() {
    check_counter::<CompactSpaceSaving<u64>>(false, 512);
}

#[test]
fn heap_views_match_live_merge() {
    check_counter::<HeapSpaceSaving<u64>>(false, 512);
}

#[test]
fn misra_gries_views_match_live_merge() {
    check_counter::<MisraGries<u64>>(false, 512);
}

#[test]
fn lossy_counting_views_match_live_merge() {
    check_counter::<LossyCounting<u64>>(false, 512);
}

#[test]
fn chk_views_match_live_merge() {
    check_counter::<CuckooHeavyKeeper<u64>>(false, 512);
}
