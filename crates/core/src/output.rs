//! The `Output(θ)` procedure of Algorithm 1, shared by RHHH and the MST
//! baseline.
//!
//! Starting from the fully-specified level and walking toward the fully
//! general node, each candidate prefix `p` gets a *conservative* conditioned
//! frequency estimate
//!
//! ```text
//! Ĉ_{p|P} = f̂⁺_p + calcPred(p, P) + slack
//! ```
//!
//! where `calcPred` subtracts the lower-bounded frequencies of the closest
//! already-selected descendants `G(p|P)` (Algorithm 2), and in two
//! dimensions adds back the upper-bounded frequencies of pairwise greatest
//! lower bounds to undo double subtraction (Algorithm 3). `slack` is the
//! `2·Z_{1-δ}·√(N·V)` sampling-error allowance of line 13 — zero for the
//! deterministic baselines.
//!
//! Prefixes with `Ĉ_{p|P} ≥ θN` are added to the output set `P`.
//!
//! # Cost
//!
//! The pass visits every candidate once, in place
//! ([`NodeEstimates::for_each_candidate`]), and the answer set is indexed
//! by ancestor: a selected prefix `h` registers its masked key under each of
//! its strict ancestor nodes (at most `H − 1`). A candidate whose key is not
//! registered at its node generalizes no selected prefix, so its `calcPred`
//! is 0, and below the smallest update count that `slack` lifts to `θN` it
//! fails line 13 on one integer compare. A per-node bit filter answers
//! "registered?" mostly without a hash probe, and a node with no
//! registration at all skips even that. Otherwise the registrations are
//! exactly `p`'s selected descendants, in selection order. Each stays in `G(p|P)` unless a selected
//! prefix sits at a node strictly between (at most `H` probes), and each
//! glb pair's "covered" check probes the glb's ancestors against `G(p|P)`
//! (at most `H` probes). So an answer costs one pass over the candidates,
//! plus at most `H` probes per selected prefix registered at a candidate and
//! per glb pair, instead of a scan of the whole selected set per candidate.

use std::collections::HashMap;

use hhh_counters::{Candidate, IntHashBuilder};
use hhh_hierarchy::{KeyBits, Lattice, NodeId, Prefix};

/// Per-node estimate access in *update-count* units (the `X̂` of
/// Definition 11). The caller supplies the scale that converts update counts
/// into frequencies (`V/r` for RHHH, 1 for MST). Candidate keys are masked to
/// their node, as [`Prefix`] keys are.
pub trait NodeEstimates<K: KeyBits> {
    /// Visits the monitored candidates of the node's counter instance in
    /// the instance's candidate order, without collecting them.
    fn for_each_candidate(&self, node: NodeId, f: impl FnMut(Candidate<K>));

    /// The monitored candidates of the node's counter instance, collected
    /// in visiting order.
    fn node_candidates(&self, node: NodeId) -> Vec<Candidate<K>> {
        let mut out = Vec::new();
        self.for_each_candidate(node, |c| out.push(c));
        out
    }

    /// Upper bound `X̂⁺` for `key` at `node`.
    fn node_upper(&self, node: NodeId, key: &K) -> u64;

    /// Lower bound `X̂⁻` for `key` at `node`.
    fn node_lower(&self, node: NodeId, key: &K) -> u64;
}

/// One reported hierarchical heavy hitter — the `(p, f̂⁻_p, f̂⁺_p)` triple
/// that Algorithm 1 line 16 prints, plus the conditioned estimate that
/// crossed the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter<K> {
    /// The HHH prefix.
    pub prefix: Prefix<K>,
    /// Lower bound on the prefix frequency, `f̂⁻_p`.
    pub freq_lower: f64,
    /// Upper bound on the prefix frequency, `f̂⁺_p`.
    pub freq_upper: f64,
    /// The conservative conditioned-frequency estimate `Ĉ_{p|P}` (includes
    /// the sampling slack) that admitted the prefix.
    pub conditioned: f64,
}

impl<K: KeyBits> HeavyHitter<K> {
    /// Midpoint frequency estimate `f̂_p` (Definition 11 uses `X̂·V`; with
    /// symmetric bounds the midpoint is the natural point estimate).
    #[must_use]
    pub fn freq_estimate(&self) -> f64 {
        (self.freq_lower + self.freq_upper) / 2.0
    }
}

/// "No position" in the selection order, the link list or `G(p|P)`.
const NONE: u32 = u32::MAX;

/// What the answer set records about one `(node, masked key)`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The prefix's own position in the selection order, if selected.
    selected: u32,
    /// First and last link of the selected strict descendants registered
    /// here, in selection order.
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Self = Self {
        selected: NONE,
        head: NONE,
        tail: NONE,
    };
}

/// Per node: masked key → what the answer set holds at that prefix or
/// registered under it, plus a 256-bit filter of the registered keys, so
/// a candidate under no selected prefix is usually settled without a hash
/// probe.
struct Slots<K> {
    maps: Vec<HashMap<K, Slot, IntHashBuilder>>,
    filters: Vec<[u64; 4]>,
}

/// A key's filter word and bit: one multiply of the key's folded halves.
#[inline]
fn filter_bit<K: KeyBits>(key: K) -> (usize, u64) {
    let x = key.to_u128();
    let h = ((x as u64) ^ ((x >> 64) as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 62) as usize, 1 << ((h >> 56) & 63))
}

impl<K: KeyBits> Slots<K> {
    fn new(nodes: usize) -> Self {
        Self {
            maps: vec![HashMap::default(); nodes],
            filters: vec![[0; 4]; nodes],
        }
    }

    fn at(&mut self, node: NodeId, key: K) -> &mut Slot {
        self.maps[node.index()].entry(key).or_insert(Slot::EMPTY)
    }

    /// Appends selection position `s` to the registration list of
    /// `(node, key)`.
    fn register(&mut self, links: &mut Vec<(u32, u32)>, node: NodeId, key: K, s: u32) {
        let (word, bit) = filter_bit(key);
        self.filters[node.index()][word] |= bit;
        let slot = self.at(node, key);
        let link = links.len() as u32;
        links.push((s, NONE));
        if slot.head == NONE {
            slot.head = link;
        } else {
            links[slot.tail as usize].1 = link;
        }
        slot.tail = link;
    }

    /// Whether any selected prefix is registered at `node`.
    fn any_registered(&self, node: NodeId) -> bool {
        self.filters[node.index()] != [0; 4]
    }

    /// The first registration link of `(node, key)`, or `NONE` when it
    /// generalizes no selected prefix.
    #[inline]
    fn registered(&self, node: NodeId, key: &K) -> u32 {
        let (word, bit) = filter_bit(*key);
        if self.filters[node.index()][word] & bit == 0 {
            return NONE;
        }
        self.maps[node.index()].get(key).map_or(NONE, |s| s.head)
    }

    /// The selection position of `node`'s prefix of `key`, or `NONE`.
    fn selected(&self, lattice: &Lattice<K>, node: NodeId, key: K) -> u32 {
        self.maps[node.index()]
            .get(&lattice.mask_key(node, key))
            .map_or(NONE, |s| s.selected)
    }
}

/// The strict ancestors of `node`, nearest levels first, computed on first
/// use. Nearest first lets the probes for a prefix between two others stop
/// early: when one exists, a parent usually is one.
fn strict_ancestors<'c, K: KeyBits>(
    lattice: &Lattice<K>,
    cache: &'c mut [Option<Box<[NodeId]>>],
    node: NodeId,
) -> &'c [NodeId] {
    cache[node.index()].get_or_insert_with(|| {
        let mut above: Vec<NodeId> = lattice
            .node_ids()
            .filter(|&a| a != node && lattice.node_generalizes(a, node))
            .collect();
        above.sort_by_key(|&a| lattice.level(a));
        above.into()
    })
}

/// The answer set `P` under construction, indexed by ancestor.
struct Selection<'a, K: KeyBits> {
    lattice: &'a Lattice<K>,
    /// Frequency units per update count, the slack of line 13 and `θN`.
    scale: f64,
    slack: f64,
    threshold: f64,
    /// `P` in selection order.
    hhh: Vec<HeavyHitter<K>>,
    slots: Slots<K>,
    /// Registration lists: `(selection position, next link)`.
    links: Vec<(u32, u32)>,
    ancestors: Vec<Option<Box<[NodeId]>>>,
    /// `calcPred` scratch: `G(p|P)` with each member's selection position.
    g: Vec<(Prefix<K>, u32)>,
    /// Per selection position, its place in `g` (`NONE` outside `G(p|P)`).
    g_pos: Vec<u32>,
}

impl<'a, K: KeyBits> Selection<'a, K> {
    fn new(lattice: &'a Lattice<K>, scale: f64, slack: f64, threshold: f64) -> Self {
        Self {
            lattice,
            scale,
            slack,
            threshold,
            hhh: Vec::new(),
            slots: Slots::new(lattice.num_nodes()),
            links: Vec::new(),
            ancestors: vec![None; lattice.num_nodes()],
            g: Vec::new(),
            g_pos: Vec::new(),
        }
    }

    /// Adds `h` to `P` and registers it under its strict ancestors.
    fn select(&mut self, h: HeavyHitter<K>) {
        let s = self.hhh.len() as u32;
        let p = h.prefix;
        let Self {
            lattice,
            slots,
            links,
            ancestors,
            ..
        } = self;
        slots.at(p.node, p.key).selected = s;
        for &a in strict_ancestors(lattice, ancestors, p.node) {
            slots.register(links, a, lattice.mask_key(a, p.key), s);
        }
        self.hhh.push(h);
        self.g_pos.push(NONE);
    }

    /// Lines 12–15 for one candidate at `node` whose selected descendants
    /// start at link `head`: the conditioned estimate, and selection when it
    /// reaches `θN`. Kept out of line so the candidate walk inlines.
    #[inline(never)]
    fn evaluate<E: NodeEstimates<K>>(
        &mut self,
        estimates: &E,
        node: NodeId,
        cand: Candidate<K>,
        head: u32,
    ) {
        let scale = self.scale;
        let f_upper = cand.upper as f64 * scale;
        let pred = if head == NONE {
            0.0
        } else {
            self.calc_pred(estimates, node, head)
        };
        let conditioned = f_upper + pred + self.slack;
        if conditioned >= self.threshold {
            self.select(HeavyHitter {
                prefix: Prefix {
                    key: cand.key,
                    node,
                },
                freq_lower: cand.lower as f64 * scale,
                freq_upper: f_upper,
                conditioned,
            });
        }
    }

    /// `calcPred` — Algorithm 2 (one dimension) and Algorithm 3 (two
    /// dimensions), in frequency units (already scaled), for a candidate at
    /// `node` whose selected descendants start at link `head`.
    ///
    /// Returns the (typically negative) correction to add to `f̂⁺_p`.
    fn calc_pred<E: NodeEstimates<K>>(&mut self, estimates: &E, node: NodeId, head: u32) -> f64 {
        let Self {
            lattice,
            scale,
            hhh,
            slots,
            links,
            ancestors,
            g,
            g_pos,
            ..
        } = self;
        let (lattice, scale) = (*lattice, *scale);

        // G(p|P) of Definition 2/14: the selected descendants, in selection
        // order, less those below a selected prefix at a node strictly
        // between theirs and p's. (p itself is not selected yet, so its own
        // node probes harmlessly.)
        g.clear();
        let mut link = head;
        while link != NONE {
            let (s, next) = links[link as usize];
            let h = hhh[s as usize].prefix;
            let shadowed = strict_ancestors(lattice, ancestors, h.node)
                .iter()
                .any(|&m| {
                    lattice.node_generalizes(node, m) && slots.selected(lattice, m, h.key) != NONE
                });
            if !shadowed {
                g_pos[s as usize] = g.len() as u32;
                g.push((h, s));
            }
            link = next;
        }
        let mut r = 0.0;

        // Lines 3–5 (both algorithms): subtract the lower bounds of the
        // closest selected descendants.
        for (h, _) in g.iter() {
            r -= estimates.node_lower(h.node, &h.key) as f64 * scale;
        }

        // Algorithm 3 lines 6–11 (multi-dimensional only): add back the
        // upper bounds of pairwise greatest lower bounds, unless the glb is
        // already covered by (contained in) a third element of G(p|P) — in
        // that case its mass was subtracted as part of that element and
        // adding it back would double-count. (The paper's line 8 writes
        // `q ⪯ h3`; with G(p|P) being the *maximal* descendants, the only
        // consistent reading is `h3 generalizes q`. The rule genuinely fires
        // with mixed granularities, e.g. h = (/24, /8), h' = (/8, /24),
        // h3 = (/16, /16) ⊒ glb(h, h'); the `covered_rule_matches_set_semantics`
        // integration test shows skipping the add-back then reproduces exact
        // set semantics — the skipped term substitutes for the missing
        // triple-intersection correction.) A member of G(p|P) generalizes q
        // only from q's node or one of its ancestors, so the check probes
        // those.
        if lattice.dims() > 1 {
            for i in 0..g.len() {
                for j in (i + 1)..g.len() {
                    let Some(q) = g[i].0.glb(&g[j].0, lattice) else {
                        // No common descendant: the paper treats glb as an
                        // item with count 0 (Definition 12).
                        continue;
                    };
                    let covered = g.len() > 2
                        && std::iter::once(q.node)
                            .chain(strict_ancestors(lattice, ancestors, q.node).iter().copied())
                            .any(|m| {
                                let s = slots.selected(lattice, m, q.key);
                                s != NONE && {
                                    let k = g_pos[s as usize] as usize;
                                    k != NONE as usize && k != i && k != j
                                }
                            });
                    if !covered {
                        r += estimates.node_upper(q.node, &q.key) as f64 * scale;
                    }
                }
            }
        }
        for &(_, s) in g.iter() {
            g_pos[s as usize] = NONE;
        }
        r
    }
}

/// The smallest update count `c` whose estimate with no selected
/// descendant, `c·scale + 0 + slack`, reaches `threshold` (`u64::MAX` when
/// none does). Every step of that expression is monotone in `c` for a
/// non-negative scale, so a candidate below it with no registration fails
/// line 13 without any float work; every other candidate is evaluated
/// exactly.
fn admission_count(scale: f64, slack: f64, threshold: f64) -> u64 {
    if scale < 0.0 {
        return 0;
    }
    let passes = |c: u64| c as f64 * scale + 0.0 + slack >= threshold;
    let (mut lo, mut hi) = (0, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Runs `Output(θ)` over all lattice levels.
///
/// * `n` — stream length (the paper's `N`, in packets).
/// * `scale` — frequency units per update count (`V/r` for RHHH, 1 for
///   deterministic baselines).
/// * `slack` — the additive sampling allowance of line 13
///   (`2·Z_{1-δ}·√(N·V)`), zero for deterministic baselines.
///
/// Returns the selected prefixes in selection order (most specific levels
/// first; within a node, in candidate order).
pub fn extract_hhh<K: KeyBits, E: NodeEstimates<K>>(
    lattice: &Lattice<K>,
    estimates: &E,
    theta: f64,
    n: u64,
    scale: f64,
    slack: f64,
) -> Vec<HeavyHitter<K>> {
    assert!(theta > 0.0 && theta <= 1.0, "theta must lie in (0, 1]");
    let threshold = theta * n as f64;
    let cut = admission_count(scale, slack, threshold);
    let mut selected = Selection::new(lattice, scale, slack, threshold);

    // Level 0 is fully specified; walk upward to the fully-general root.
    // Selections at one node register only above it, so no candidate of a
    // node sees another's selection.
    for level in 0..=lattice.depth() {
        for &node in lattice.nodes_at_level(level) {
            // Registrations only go to strict ancestors, so visiting
            // `node` adds none there.
            let probe = selected.slots.any_registered(node);
            estimates.for_each_candidate(node, |cand| {
                let head = if probe {
                    selected.slots.registered(node, &cand.key)
                } else {
                    NONE
                };
                if head == NONE && cand.upper < cut {
                    return;
                }
                selected.evaluate(estimates, node, cand, head);
            });
        }
    }
    selected.hhh
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_hierarchy::pack2;
    use std::collections::HashMap;

    /// A transparent NodeEstimates backed by exact per-node hash maps, for
    /// testing the output logic in isolation from any counter algorithm.
    struct MapEstimates<K> {
        counts: HashMap<(NodeId, K), u64>,
        nodes: Vec<NodeId>,
    }

    impl<K: KeyBits> MapEstimates<K> {
        fn new(lattice: &Lattice<K>, entries: &[(NodeId, K, u64)]) -> Self {
            let mut counts = HashMap::new();
            for &(node, key, c) in entries {
                counts.insert((node, key), c);
            }
            Self {
                counts,
                nodes: lattice.node_ids().collect(),
            }
        }
    }

    impl<K: KeyBits> NodeEstimates<K> for MapEstimates<K> {
        fn for_each_candidate(&self, node: NodeId, mut f: impl FnMut(Candidate<K>)) {
            let _ = &self.nodes;
            for ((_, k), &c) in self.counts.iter().filter(|((n, _), _)| *n == node) {
                f(Candidate {
                    key: *k,
                    upper: c,
                    lower: c,
                });
            }
        }

        fn node_upper(&self, node: NodeId, key: &K) -> u64 {
            self.counts.get(&(node, *key)).copied().unwrap_or(0)
        }

        fn node_lower(&self, node: NodeId, key: &K) -> u64 {
            self.counts.get(&(node, *key)).copied().unwrap_or(0)
        }
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    /// The worked example of Section 3.1: θN = 100; p1 = <101.*> with
    /// f = 108, p2 = <101.102.*> with f = 102. Both are heavy hitters, but
    /// p1's conditioned frequency is 108 − 102 = 6 < 100, so only p2 is an
    /// HHH prefix.
    #[test]
    fn paper_worked_example_one_dimension() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let n1 = lat.node_by_spec(&[1]); // /8
        let n2 = lat.node_by_spec(&[2]); // /16
        let k1 = ip(101, 0, 0, 0);
        let k2 = ip(101, 102, 0, 0);
        let est = MapEstimates::new(&lat, &[(n1, k1, 108), (n2, k2, 102)]);

        // N = 10_000, θ = 1% -> θN = 100.
        let out = extract_hhh(&lat, &est, 0.01, 10_000, 1.0, 0.0);
        let keys: Vec<(NodeId, u32)> = out.iter().map(|h| (h.prefix.node, h.prefix.key)).collect();
        assert!(keys.contains(&(n2, k2)), "p2 must be an HHH");
        assert!(!keys.contains(&(n1, k1)), "p1 conditioned count is only 6");
    }

    /// Without the descendant, the ancestor qualifies.
    #[test]
    fn ancestor_selected_when_no_descendant() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let n1 = lat.node_by_spec(&[1]);
        let est = MapEstimates::new(&lat, &[(n1, ip(101, 0, 0, 0), 108)]);
        let out = extract_hhh(&lat, &est, 0.01, 10_000, 1.0, 0.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].prefix.node, n1);
        assert_eq!(out[0].conditioned, 108.0);
    }

    /// Two dimensions: the glb add-back prevents double subtraction.
    /// Setup: p = (10.*, *) with two selected descendants
    /// h = (10.1.*, 20.*) and h' = (10.*, 20.*)? — no, h' must be strictly
    /// below p and not comparable to h. Use h = (10.1.*, *) f=60 and
    /// h' = (10.*, 20.*) f=70, glb = (10.1.*, 20.*) f=50.
    /// C_{p|P} = f_p − 60 − 70 + 50.
    #[test]
    fn two_dim_inclusion_exclusion() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let src10 = ip(10, 0, 0, 0);
        let src101 = ip(10, 1, 0, 0);
        let dst20 = ip(20, 0, 0, 0);

        let p_node = lat.node_by_spec(&[1, 0]); // (10.*, *)
        let h_node = lat.node_by_spec(&[2, 0]); // (10.1.*, *)
        let hp_node = lat.node_by_spec(&[1, 1]); // (10.*, 20.*)
        let glb_node = lat.node_by_spec(&[2, 1]); // (10.1.*, 20.*)

        let est = MapEstimates::new(
            &lat,
            &[
                (p_node, pack2(src10, 0), 200),
                (h_node, pack2(src101, 0), 60),
                (hp_node, pack2(src10, dst20), 70),
                (glb_node, pack2(src101, dst20), 50),
            ],
        );

        // θN = 60: the glb entry (level 5, count 50) stays below threshold,
        // h and h' (level 6) are selected, and p's conditioned count is
        // 200 − 60 − 70 + 50 = 120.
        let out = extract_hhh(&lat, &est, 0.006, 10_000, 1.0, 0.0);
        let p_entry = out
            .iter()
            .find(|h| h.prefix.node == p_node)
            .expect("p is an HHH");
        assert_eq!(p_entry.conditioned, 120.0);
    }

    /// Three incomparable descendants in G(p|P): only the compatible pair
    /// contributes a glb add-back; incompatible pairs (different bits under
    /// the common pattern) contribute count 0 per Definition 12.
    #[test]
    fn two_dim_three_descendants_incompatible_pairs() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let p_node = lat.node_by_spec(&[1, 0]); // (10.*, *)
        let n21 = lat.node_by_spec(&[2, 1]);
        let n12 = lat.node_by_spec(&[1, 2]);
        let n22 = lat.node_by_spec(&[2, 2]);

        let h1 = pack2(ip(10, 1, 0, 0), ip(20, 0, 0, 0)); // (10.1.*, 20.*)
        let h2 = pack2(ip(10, 0, 0, 0), ip(20, 1, 0, 0)); // (10.*, 20.1.*)
        let h3 = pack2(ip(10, 2, 0, 0), ip(30, 0, 0, 0)); // (10.2.*, 30.*)
        let glb12 = pack2(ip(10, 1, 0, 0), ip(20, 1, 0, 0)); // (10.1.*, 20.1.*)

        let est = MapEstimates::new(
            &lat,
            &[
                (p_node, pack2(ip(10, 0, 0, 0), 0), 1000),
                (n21, h1, 300),
                (n12, h2, 300),
                (n21, h3, 300),
                (n22, glb12, 100),
            ],
        );

        // θN = 200: glb12 (level 4, count 100) is not selected; h1, h2, h3
        // are. For p: G = {h1, h2, h3}; glb(h1,h2) = glb12 (+100);
        // glb(h1,h3) and glb(h2,h3) are incompatible (10.1 vs 10.2, 20 vs
        // 30) → count 0. C_p = 1000 − 900 + 100 = 200.
        let out = extract_hhh(&lat, &est, 0.002, 100_000, 1.0, 0.0);
        let p_entry = out
            .iter()
            .find(|h| h.prefix.node == p_node)
            .expect("p is an HHH");
        assert_eq!(p_entry.conditioned, 200.0);
        // All three descendants were selected too.
        assert_eq!(out.len(), 4);
    }

    /// Slack admits borderline prefixes (conservativeness) — a prefix just
    /// below θN without slack crosses with it.
    #[test]
    fn slack_is_additive() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let n1 = lat.node_by_spec(&[1]);
        let est = MapEstimates::new(&lat, &[(n1, ip(9, 0, 0, 0), 95)]);
        let none = extract_hhh(&lat, &est, 0.01, 10_000, 1.0, 0.0);
        assert!(none.is_empty());
        let some = extract_hhh(&lat, &est, 0.01, 10_000, 1.0, 10.0);
        assert_eq!(some.len(), 1);
    }

    /// Scale converts update counts into frequencies (Definition 11).
    #[test]
    fn scale_multiplies_counts() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let n1 = lat.node_by_spec(&[1]);
        // 5 updates at scale 25 = 125 estimated packets.
        let est = MapEstimates::new(&lat, &[(n1, ip(9, 0, 0, 0), 5)]);
        let out = extract_hhh(&lat, &est, 0.01, 10_000, 25.0, 0.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].freq_upper, 125.0);
    }

    /// G(p|P) keeps only the closest descendants: the paper's Definition 2
    /// example, P = {<142.14.13.*>, <142.14.13.14>} and p = <142.14.*>,
    /// has G(p|P) = {<142.14.13.*>} only, so p's estimate subtracts the
    /// /24 and not the /32 below it.
    #[test]
    fn best_generalized_excludes_chained() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let deep = lat.node_by_spec(&[4]);
        let mid = lat.node_by_spec(&[3]);
        let p = lat.node_by_spec(&[2]);
        let est = MapEstimates::new(
            &lat,
            &[
                (deep, ip(142, 14, 13, 14), 100),
                (mid, ip(142, 14, 13, 0), 250),
                (p, ip(142, 14, 0, 0), 400),
            ],
        );
        // θN = 100: the /32 (100) and the /24 (250 − 100) are selected,
        // and the /16 gets 400 − 250 = 150, not 400 − 250 − 100.
        let out = extract_hhh(&lat, &est, 0.01, 10_000, 1.0, 0.0);
        let conditioned: Vec<(NodeId, f64)> =
            out.iter().map(|h| (h.prefix.node, h.conditioned)).collect();
        assert_eq!(conditioned, vec![(deep, 100.0), (mid, 150.0), (p, 150.0)]);
    }

    #[test]
    #[should_panic(expected = "theta must lie in (0, 1]")]
    fn rejects_zero_theta() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let est = MapEstimates::<u32>::new(&lat, &[]);
        let _ = extract_hhh(&lat, &est, 0.0, 100, 1.0, 0.0);
    }
}
