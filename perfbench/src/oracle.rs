//! Off-the-clock check of a final answer against exact ground truth over
//! exactly the packets the answer covers.
//!
//! Every benchmark stream is far shorter than the convergence bound ψ
//! (≈ 8·10⁷ packets at `V = H`, ≈ 8·10⁸ at `V = 10H`), so the configured
//! `ε·N` guarantee does not bind yet. The accuracy bound checked here is
//! the one the program itself charges before ψ: the counter error `ε_a·N`
//! plus the sampling slack `2·Z·√(N·V)` that `Output(θ)` adds to every
//! estimate.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use hhh_core::{ExactHhh, HeavyHitter};
use hhh_hierarchy::{Lattice, NodeId, Prefix};

/// Exact per-prefix totals over the covered packets.
pub trait Truth {
    /// The lattice the totals are kept over.
    fn lattice(&self) -> &Lattice<u64>;

    /// `N`: covered packets, or their total weight on a weighted stream.
    fn total(&self) -> u64;

    /// Exact frequency (or weight) `f_p` of a prefix.
    fn frequency(&self, p: &Prefix<u64>) -> u64;

    /// Sum of squared packet weights under a prefix; `f_p` for unit
    /// weights.
    fn square_sum(&self, p: &Prefix<u64>) -> u64;

    /// All prefixes at `node` whose exact frequency reaches `threshold`.
    fn heavy_prefixes_at(&self, node: NodeId, threshold: f64) -> Vec<Prefix<u64>>;

    /// Exact conditioned frequency `C_{p|P}` by the inclusion–exclusion of
    /// Lemma 6.13, the definition `ExactHhh::conditioned` implements.
    fn conditioned(&self, p: &Prefix<u64>, selected: &[Prefix<u64>]) -> i64 {
        let lattice = self.lattice();
        if selected.iter().any(|h| h.generalizes(p, lattice)) {
            return 0;
        }
        let below: Vec<Prefix<u64>> = selected
            .iter()
            .copied()
            .filter(|h| p.strictly_generalizes(h, lattice))
            .collect();
        let g: Vec<Prefix<u64>> = below
            .iter()
            .copied()
            .filter(|h| {
                !below
                    .iter()
                    .any(|h2| h2 != h && h2.strictly_generalizes(h, lattice))
            })
            .collect();
        let mut c = self.frequency(p) as i64;
        for h in &g {
            c -= self.frequency(h) as i64;
        }
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                if let Some(q) = g[i].glb(&g[j], lattice) {
                    let covered = g
                        .iter()
                        .enumerate()
                        .any(|(k, h3)| k != i && k != j && h3.generalizes(&q, lattice));
                    if !covered {
                        c += self.frequency(&q) as i64;
                    }
                }
            }
        }
        c
    }
}

impl Truth for ExactHhh<u64> {
    fn lattice(&self) -> &Lattice<u64> {
        ExactHhh::lattice(self)
    }

    fn total(&self) -> u64 {
        self.packets()
    }

    fn frequency(&self, p: &Prefix<u64>) -> u64 {
        ExactHhh::frequency(self, p)
    }

    fn square_sum(&self, p: &Prefix<u64>) -> u64 {
        ExactHhh::frequency(self, p)
    }

    fn heavy_prefixes_at(&self, node: NodeId, threshold: f64) -> Vec<Prefix<u64>> {
        ExactHhh::heavy_prefixes_at(self, node, threshold)
    }

    fn conditioned(&self, p: &Prefix<u64>, selected: &[Prefix<u64>]) -> i64 {
        ExactHhh::conditioned(self, p, selected)
    }
}

/// Exact ground truth for a weighted stream. `ExactHhh` counts packets
/// only, so this keeps sums of weights and of squared weights per distinct
/// key. A prefix's sums are added up from those on first use and cached;
/// no per-node table is kept, which keeps memory to one table of keys.
pub struct WeightedTruth {
    lattice: Lattice<u64>,
    /// Distinct keys with their `(Σw, Σw²)`.
    leaves: Vec<(u64, (u64, u64))>,
    total: u64,
    sums: RefCell<HashMap<Prefix<u64>, (u64, u64)>>,
}

impl WeightedTruth {
    /// Builds the truth over `(key, weight)` packets.
    pub fn new(lattice: Lattice<u64>, packets: &[(u64, u64)]) -> Self {
        let mut leaves: HashMap<u64, (u64, u64)> = HashMap::new();
        for &(key, w) in packets {
            let sums = leaves.entry(key).or_default();
            sums.0 += w;
            sums.1 += w * w;
        }
        Self {
            lattice,
            leaves: leaves.into_iter().collect(),
            total: packets.iter().map(|&(_, w)| w).sum(),
            sums: RefCell::default(),
        }
    }

    fn sums(&self, p: &Prefix<u64>) -> (u64, u64) {
        let mask = self.lattice.mask(p.node);
        *self.sums.borrow_mut().entry(*p).or_insert_with(|| {
            self.leaves
                .iter()
                .filter(|&&(key, _)| key & mask == p.key)
                .fold((0, 0), |(w, w2), &(_, s)| (w + s.0, w2 + s.1))
        })
    }
}

impl Truth for WeightedTruth {
    fn lattice(&self) -> &Lattice<u64> {
        &self.lattice
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn frequency(&self, p: &Prefix<u64>) -> u64 {
        self.sums(p).0
    }

    fn square_sum(&self, p: &Prefix<u64>) -> u64 {
        self.sums(p).1
    }

    fn heavy_prefixes_at(&self, node: NodeId, threshold: f64) -> Vec<Prefix<u64>> {
        let mask = self.lattice.mask(node);
        let mut at_node: HashMap<u64, (u64, u64)> = HashMap::new();
        for &(key, (w, w2)) in &self.leaves {
            let s = at_node.entry(key & mask).or_default();
            s.0 += w;
            s.1 += w2;
        }
        let heavy: Vec<Prefix<u64>> = at_node
            .into_iter()
            .filter(|&(_, (w, _))| w as f64 >= threshold)
            .map(|(key, sums)| {
                let p = Prefix { key, node };
                self.sums.borrow_mut().insert(p, sums);
                p
            })
            .collect();
        heavy
    }
}

/// Checks an `Output(θ)` answer against the truth over the packets it
/// covers; returns one line per violation.
///
/// `slack` is the program's sampling slack `2·Z·√(N·V)` for the covered
/// `N`. A prefix's own sampling allowance is the same expression over its
/// packets, `2·Z·√(V·Σw²) = slack·√(Σw²/N)`: never above the slack for
/// unit weights, but above it for a byte-weighted prefix, whose sampled
/// estimate varies with the size of its packets.
///
/// * Accuracy: every reported upper estimate lies within `ε_a·N` plus the
///   larger of the slack and the prefix's allowance of its exact frequency.
/// * Coverage: no unreported prefix has an exact conditioned frequency of
///   at least `θ·N` plus the amount by which its allowance exceeds the
///   slack (zero for unit weights, where this is the paper's coverage
///   condition exactly).
pub fn check(
    truth: &impl Truth,
    answer: &[HeavyHitter<u64>],
    theta: f64,
    epsilon_a: f64,
    slack: f64,
) -> Vec<String> {
    let lattice = truth.lattice();
    let n = truth.total() as f64;
    let allowance = |p: &Prefix<u64>| slack * (truth.square_sum(p) as f64 / n).sqrt();
    let mut violations = Vec::new();
    for h in answer {
        let exact = truth.frequency(&h.prefix) as f64;
        let bound = epsilon_a * n + slack.max(allowance(&h.prefix));
        if (h.freq_upper - exact).abs() > bound {
            violations.push(format!(
                "accuracy: {} estimated {:.0}, exact {exact:.0}, bound {bound:.0}",
                h.prefix.display(lattice),
                h.freq_upper
            ));
        }
    }
    let reported: Vec<Prefix<u64>> = answer.iter().map(|h| h.prefix).collect();
    let reported_set: HashSet<Prefix<u64>> = reported.iter().copied().collect();
    let threshold = theta * n;
    for node in lattice.node_ids() {
        for q in truth.heavy_prefixes_at(node, threshold) {
            if reported_set.contains(&q) {
                continue;
            }
            let limit = threshold + (allowance(&q) - slack).max(0.0);
            let c = truth.conditioned(&q, &reported) as f64;
            if c >= limit {
                violations.push(format!(
                    "coverage: {} unreported with conditioned {c:.0} >= {limit:.0}",
                    q.display(lattice)
                ));
            }
        }
    }
    violations
}
