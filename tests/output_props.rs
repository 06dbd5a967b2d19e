//! Differential suite for `Output(θ)`: [`extract_hhh`] — one pass over the
//! candidates with the answer set indexed by ancestor — must answer bit for
//! bit as [`reference`], a test-side copy of the direct rendering of
//! Algorithms 1–3 that scans the whole selected set for every candidate and
//! builds `G(p|P)` by pairwise comparison: the same prefixes, in the same
//! order, with the same `freq_lower`, `freq_upper` and `conditioned` down to
//! the last bit.
//!
//! Sources: live RHHH over every counter in the roster, on a 1D and a 2D
//! lattice, as a live instance, a one-part view and a three-part view, at
//! thresholds that put the sampling slack between a tenth of `θN` and
//! twenty times it; MST (slack 0) over every counter; and exact-count maps
//! on a dense mixed-granularity universe where Algorithm 3's "covered" rule
//! fires.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

use hhh_baselines::Mst;
use hhh_core::output::extract_hhh;
use hhh_core::{HeavyHitter, NodeEstimates, Rhhh, RhhhConfig};
use hhh_counters::{
    Candidate, CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, LossyCounting,
    MisraGries, SpaceSaving,
};
use hhh_hierarchy::{pack2, KeyBits, Lattice, NodeId, Prefix};

thread_local! {
    /// Glb add-backs the reference skipped because a third member of
    /// `G(p|P)` covered the glb.
    static COVERED: Cell<u64> = const { Cell::new(0) };
}

/// `G(p|P)` of Definition 2/14 by pairwise comparison.
fn best_generalized<K: KeyBits>(
    lattice: &Lattice<K>,
    p: &Prefix<K>,
    selected: &[HeavyHitter<K>],
) -> Vec<Prefix<K>> {
    let descendants: Vec<Prefix<K>> = selected
        .iter()
        .map(|h| h.prefix)
        .filter(|h| p.strictly_generalizes(h, lattice))
        .collect();
    descendants
        .iter()
        .copied()
        .filter(|h| {
            !descendants
                .iter()
                .any(|h2| h2 != h && h2.strictly_generalizes(h, lattice))
        })
        .collect()
}

/// `calcPred` (Algorithms 2 and 3), scanning the selected set.
fn calc_pred<K: KeyBits, E: NodeEstimates<K>>(
    lattice: &Lattice<K>,
    estimates: &E,
    scale: f64,
    p: &Prefix<K>,
    selected: &[HeavyHitter<K>],
) -> f64 {
    if !selected
        .iter()
        .any(|h| p.strictly_generalizes(&h.prefix, lattice))
    {
        return 0.0;
    }
    let g = best_generalized(lattice, p, selected);
    let mut r = 0.0;
    for h in &g {
        r -= estimates.node_lower(h.node, &h.key) as f64 * scale;
    }
    if lattice.dims() > 1 {
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                let Some(q) = g[i].glb(&g[j], lattice) else {
                    continue;
                };
                let covered = g
                    .iter()
                    .enumerate()
                    .any(|(k, h3)| k != i && k != j && h3.generalizes(&q, lattice));
                if covered {
                    COVERED.with(|c| c.set(c.get() + 1));
                } else {
                    r += estimates.node_upper(q.node, &q.key) as f64 * scale;
                }
            }
        }
    }
    r
}

/// `Output(θ)` over collected candidate lists, scanning the selected set
/// for every candidate.
fn reference<K: KeyBits, E: NodeEstimates<K>>(
    lattice: &Lattice<K>,
    estimates: &E,
    theta: f64,
    n: u64,
    scale: f64,
    slack: f64,
) -> Vec<HeavyHitter<K>> {
    let threshold = theta * n as f64;
    let mut selected: Vec<HeavyHitter<K>> = Vec::new();
    for level in 0..=lattice.depth() {
        for &node in lattice.nodes_at_level(level) {
            for cand in estimates.node_candidates(node) {
                let p = Prefix {
                    key: cand.key,
                    node,
                };
                let f_upper = cand.upper as f64 * scale;
                let f_lower = cand.lower as f64 * scale;
                let conditioned =
                    f_upper + calc_pred(lattice, estimates, scale, &p, &selected) + slack;
                if conditioned >= threshold {
                    selected.push(HeavyHitter {
                        prefix: p,
                        freq_lower: f_lower,
                        freq_upper: f_upper,
                        conditioned,
                    });
                }
            }
        }
    }
    selected
}

fn assert_bit_identical<K: KeyBits>(got: &[HeavyHitter<K>], want: &[HeavyHitter<K>], what: &str) {
    let bits = |h: &HeavyHitter<K>| {
        (
            h.prefix,
            h.freq_lower.to_bits(),
            h.freq_upper.to_bits(),
            h.conditioned.to_bits(),
        )
    };
    let got: Vec<_> = got.iter().map(bits).collect();
    let want: Vec<_> = want.iter().map(bits).collect();
    assert_eq!(got.len(), want.len(), "{what}: answer sizes differ");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{what}: row {i} differs");
    }
}

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// A packed 2D key: heavy subnets with structure at several granularities
/// over a tail of 512 flows, so every node evicts and answers hold
/// prefixes at mixed levels.
fn key2(rng: &mut Lcg, i: usize) -> u64 {
    let r = rng.next() as u32;
    match i % 8 {
        0 => pack2(0x0A14_0000 | (r & 0xFF), 0x0808_0808),
        1 => pack2(0x0A14_0000 | (r & 0x0F), 0x0800_0000 | (r >> 8 & 0xFFFF)),
        2 => pack2(0x0B00_0000 | (r & 0xFF_FFFF), 0x0404_0404),
        3 => pack2(0x0C0D_0E00 | (r & 0x3), 0x0102_0300 | (r >> 4 & 0x3)),
        _ => {
            let flow = r % 512;
            pack2(
                flow.wrapping_mul(0x9E37_79B9),
                flow.wrapping_mul(0x85EB_CA6B),
            )
        }
    }
}

fn keys2(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Lcg(seed);
    (0..n).map(|i| key2(&mut rng, i)).collect()
}

/// The source halves of [`keys2`], as 1D keys.
fn keys1(n: usize, seed: u64) -> Vec<u32> {
    keys2(n, seed)
        .into_iter()
        .map(|k| (k >> 32) as u32)
        .collect()
}

/// Slack ÷ θN from a tenth (a few prefixes) to twenty (every candidate
/// passes line 13).
const SLACK_RATIOS: [f64; 4] = [0.1, 0.5, 2.0, 20.0];

fn config(seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.02,
        epsilon_s: 0.1,
        delta_s: 0.05,
        seed,
        ..RhhhConfig::default()
    }
}

/// `Output(θ)` of a live instance, a one-part view and a three-part view
/// against the reference, at every slack ratio. The streams are long
/// enough that each ratio's θ is at most 1.
fn check_rhhh<K: KeyBits, E: FrequencyEstimator<K>>(lattice: &Lattice<K>, keys: &[K]) {
    let name = std::any::type_name::<E>();
    let mut parts: Vec<Rhhh<K, E>> = (0..3)
        .map(|s| Rhhh::new(lattice.clone(), config(40 + s)))
        .collect();
    for (i, chunk) in keys.chunks(1_000).enumerate() {
        parts[i % 3].update_batch(chunk);
    }
    let live = &parts[0];
    let frozen: Vec<_> = parts.iter().map(Rhhh::freeze).collect();
    let one = Rhhh::<K, E>::combine(&[&frozen[0]]);
    let many = Rhhh::<K, E>::combine(&frozen.iter().collect::<Vec<_>>());
    for ratio in SLACK_RATIOS {
        let what = format!("{name} {} slack/θN={ratio}", lattice.name());
        let theta_at = |slack: f64, weight: u64| {
            let theta = slack / (ratio * weight as f64);
            assert!(theta <= 1.0, "{what}: the stream is too short for θ ≤ 1");
            theta
        };
        let theta = theta_at(live.slack(), live.total_weight());
        assert_bit_identical(
            &live.output(theta),
            &reference(
                lattice,
                live,
                theta,
                live.total_weight(),
                live.scale(),
                live.slack(),
            ),
            &format!("{what}: live"),
        );
        for (view, parts) in [(&one, "one-part"), (&many, "three-part")] {
            let theta = theta_at(view.slack(), view.total_weight());
            assert_bit_identical(
                &view.output(theta),
                &reference(
                    lattice,
                    view,
                    theta,
                    view.total_weight(),
                    view.scale(),
                    view.slack(),
                ),
                &format!("{what}: {parts} view"),
            );
        }
    }
}

/// MST: deterministic estimates, slack 0; low thresholds select most
/// candidates.
fn check_mst<K: KeyBits, E: FrequencyEstimator<K>>(lattice: &Lattice<K>, keys: &[K]) {
    let name = std::any::type_name::<E>();
    let mut mst: Mst<K, E> = Mst::new(lattice.clone(), 0.02);
    for &k in keys {
        mst.update(k);
    }
    for theta in [0.0005, 0.002, 0.01, 0.05, 0.2] {
        assert_bit_identical(
            &mst.output(theta),
            &reference(lattice, &mst, theta, mst.total_weight(), 1.0, 0.0),
            &format!("MST {name} {} θ={theta}", lattice.name()),
        );
    }
}

macro_rules! roster_tests {
    ($($test:ident: $counter:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            let one = Lattice::ipv4_src_bytes();
            let two = Lattice::ipv4_src_dst_bytes();
            check_rhhh::<u32, $counter<u32>>(&one, &keys1(30_000, 3));
            check_rhhh::<u64, $counter<u64>>(&two, &keys2(90_000, 5));
            check_mst::<u32, $counter<u32>>(&one, &keys1(6_000, 7));
            check_mst::<u64, $counter<u64>>(&two, &keys2(6_000, 9));
        }
    )*};
}

roster_tests! {
    stream_summary_output_matches_reference: SpaceSaving,
    compact_output_matches_reference: CompactSpaceSaving,
    misra_gries_output_matches_reference: MisraGries,
    lossy_counting_output_matches_reference: LossyCounting,
    chk_output_matches_reference: CuckooHeavyKeeper,
}

/// Exact per-node counts, with seeded slack between the bounds, visited in
/// key order.
struct MapSource<K> {
    nodes: Vec<Vec<Candidate<K>>>,
    bounds: HashMap<(NodeId, K), (u64, u64)>,
}

impl<K: KeyBits> MapSource<K> {
    fn new(lattice: &Lattice<K>, weighted: &[(K, u64)], rng: &mut Lcg) -> Self {
        let mut nodes = Vec::new();
        let mut bounds = HashMap::new();
        for node in lattice.node_ids() {
            let mut exact: BTreeMap<K, u64> = BTreeMap::new();
            for &(key, w) in weighted {
                *exact.entry(lattice.mask_key(node, key)).or_default() += w;
            }
            let cands: Vec<Candidate<K>> = exact
                .into_iter()
                .map(|(key, count)| {
                    let c = Candidate {
                        key,
                        upper: count + rng.next() % 4,
                        lower: count - (rng.next() % 4).min(count),
                    };
                    bounds.insert((node, key), (c.upper, c.lower));
                    c
                })
                .collect();
            nodes.push(cands);
        }
        Self { nodes, bounds }
    }
}

impl<K: KeyBits> NodeEstimates<K> for MapSource<K> {
    fn for_each_candidate(&self, node: NodeId, f: impl FnMut(Candidate<K>)) {
        self.nodes[node.index()].iter().copied().for_each(f);
    }

    fn node_upper(&self, node: NodeId, key: &K) -> u64 {
        self.bounds.get(&(node, *key)).map_or(0, |b| b.0)
    }

    fn node_lower(&self, node: NodeId, key: &K) -> u64 {
        self.bounds.get(&(node, *key)).map_or(0, |b| b.1)
    }
}

/// The dense universe of `tests/conditioned_semantics.rs` (10.1.x.x →
/// 20.1.x.x, two values per byte), with skewed seeded weights: swept over
/// thresholds and slacks, the answers hold pairwise incomparable prefixes
/// of mixed granularities, such as (/24, /8), (/8, /24) and (/16, /16),
/// whose glbs a third member covers.
#[test]
fn mixed_granularity_maps_match_reference() {
    let lat = Lattice::ipv4_src_dst_bytes();
    COVERED.with(|c| c.set(0));
    for seed in 0..24u64 {
        let mut rng = Lcg(seed);
        let mut weighted = Vec::new();
        for a in 1..=2u8 {
            for b in 1..=2u8 {
                for c in 1..=2u8 {
                    for d in 1..=2u8 {
                        let src = u32::from_be_bytes([10, a, b, 1]);
                        let dst = u32::from_be_bytes([20, c, d, 1]);
                        // Heavy-tailed weights: a few keys dominate.
                        let w = 1 + (rng.next() % 64).pow(3) / 64;
                        weighted.push((pack2(src, dst), w));
                    }
                }
            }
        }
        let src = MapSource::new(&lat, &weighted, &mut rng);
        let n: u64 = weighted.iter().map(|&(_, w)| w).sum();
        // A scale of 1/3 makes every product inexact, so a float sum taken
        // in any other order than the reference's shows in the last bits.
        for (step, scale) in (1..=40).flat_map(|s| [(s, 1.0), (s, 1.0 / 3.0)]) {
            let theta = f64::from(step) / 100.0;
            for slack in [0.0, 0.02 * n as f64, 0.2 * n as f64] {
                assert_bit_identical(
                    &extract_hhh(&lat, &src, theta, n, scale, slack),
                    &reference(&lat, &src, theta, n, scale, slack),
                    &format!("seed {seed} θ={theta} scale={scale} slack={slack}"),
                );
            }
        }
    }
    assert!(
        COVERED.with(Cell::get) > 0,
        "the sweep never exercised the covered-glb rule"
    );
}
