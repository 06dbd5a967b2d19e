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

use hhh_counters::Candidate;
use hhh_hierarchy::{KeyBits, Lattice, NodeId, Prefix};

/// Per-node estimate access in *update-count* units (the `X̂` of
/// Definition 11). The caller supplies the scale that converts update counts
/// into frequencies (`V/r` for RHHH, 1 for MST).
pub trait NodeEstimates<K: KeyBits> {
    /// Monitored candidates of the node's counter instance.
    fn node_candidates(&self, node: NodeId) -> Vec<Candidate<K>>;

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

/// `G(p|P)` of Definition 2/14: the elements of `P` strictly generalized by
/// `p` with no intermediate element of `P` between them — the "closest
/// descendants" of `p` inside `P`.
pub fn best_generalized<K: KeyBits>(
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

/// `calcPred` — Algorithm 2 (one dimension) and Algorithm 3 (two
/// dimensions), in frequency units (already scaled).
///
/// Returns the (typically negative) correction to add to `f̂⁺_p`.
fn calc_pred<K: KeyBits, E: NodeEstimates<K>>(
    lattice: &Lattice<K>,
    estimates: &E,
    scale: f64,
    p: &Prefix<K>,
    selected: &[HeavyHitter<K>],
) -> f64 {
    // Most candidates generalize no selected prefix: answer those with
    // one scan, without building G(p|P).
    if !selected
        .iter()
        .any(|h| p.strictly_generalizes(&h.prefix, lattice))
    {
        return 0.0;
    }
    let g = best_generalized(lattice, p, selected);
    let mut r = 0.0;

    // Lines 3–5 (both algorithms): subtract the lower bounds of the closest
    // selected descendants.
    for h in &g {
        r -= estimates.node_lower(h.node, &h.key) as f64 * scale;
    }

    // Algorithm 3 lines 6–11 (multi-dimensional only): add back the upper
    // bounds of pairwise greatest lower bounds, unless the glb is already
    // covered by (contained in) a third element of G(p|P) — in that case its
    // mass was subtracted as part of that element and adding it back would
    // double-count. (The paper's line 8 writes `q ⪯ h3`; with G(p|P) being
    // the *maximal* descendants, the only consistent reading is `h3
    // generalizes q`. The rule genuinely fires with mixed granularities,
    // e.g. h = (/24, /8), h' = (/8, /24), h3 = (/16, /16) ⊒ glb(h, h'); the
    // `covered_rule_matches_set_semantics` integration test shows skipping
    // the add-back then reproduces exact set semantics — the skipped term
    // substitutes for the missing triple-intersection correction.)
    if lattice.dims() > 1 {
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                let Some(q) = g[i].glb(&g[j], lattice) else {
                    // No common descendant: the paper treats glb as an item
                    // with count 0 (Definition 12).
                    continue;
                };
                let covered = g
                    .iter()
                    .enumerate()
                    .any(|(k, h3)| k != i && k != j && h3.generalizes(&q, lattice));
                if !covered {
                    r += estimates.node_upper(q.node, &q.key) as f64 * scale;
                }
            }
        }
    }
    r
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
/// first).
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
    let mut selected: Vec<HeavyHitter<K>> = Vec::new();

    // Level 0 is fully specified; walk upward to the fully-general root.
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
        fn node_candidates(&self, node: NodeId) -> Vec<Candidate<K>> {
            let _ = &self.nodes;
            self.counts
                .iter()
                .filter(|((n, _), _)| *n == node)
                .map(|((_, k), &c)| Candidate {
                    key: *k,
                    upper: c,
                    lower: c,
                })
                .collect()
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

    /// G(p|P) keeps only the closest descendants.
    #[test]
    fn best_generalized_excludes_chained() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        // P = {<142.14.13.*>, <142.14.13.14>}, p = <142.14.*> — the paper's
        // Definition 2 example: G(p|P) = {<142.14.13.*>} only.
        let deep = Prefix {
            key: ip(142, 14, 13, 14),
            node: lat.node_by_spec(&[4]),
        };
        let mid = Prefix {
            key: ip(142, 14, 13, 0),
            node: lat.node_by_spec(&[3]),
        };
        let p = Prefix {
            key: ip(142, 14, 0, 0),
            node: lat.node_by_spec(&[2]),
        };
        let selected = vec![
            HeavyHitter {
                prefix: deep,
                freq_lower: 0.0,
                freq_upper: 0.0,
                conditioned: 0.0,
            },
            HeavyHitter {
                prefix: mid,
                freq_lower: 0.0,
                freq_upper: 0.0,
                conditioned: 0.0,
            },
        ];
        let g = best_generalized(&lat, &p, &selected);
        assert_eq!(g, vec![mid]);
    }

    #[test]
    #[should_panic(expected = "theta must lie in (0, 1]")]
    fn rejects_zero_theta() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let est = MapEstimates::<u32>::new(&lat, &[]);
        let _ = extract_hhh(&lat, &est, 0.0, 100, 1.0, 0.0);
    }
}
