//! Full and Partial Ancestry — the trie-based deterministic HHH algorithms
//! of Cormode, Korn, Muthukrishnan and Srivastava ("Finding Hierarchical
//! Heavy Hitters in Streaming Data", TKDD 2008; reference [14] of the RHHH
//! paper).
//!
//! # Structure
//!
//! One lossy-counting table per lattice node (matching the paper's stated
//! complexity: `O(H·log(εN)/ε)` space, `O(H·log N)` update): every packet
//! updates each node's table with the node-masked key. Entries carry
//! `(g, Δ)` — occurrences counted since creation plus an upper bound on
//! what was missed before — and entries with `g + Δ ≤ b` are pruned at every
//! bucket boundary (`b = ⌈N/w⌉`, `w = ⌈1/ε⌉`), the Manku–Motwani rule.
//! This yields the deterministic sandwich `g ≤ f ≤ g + Δ ≤ g + εN` per
//! lattice node.
//!
//! # Full vs Partial
//!
//! The strategies differ in how a **new** entry's Δ is derived — the
//! "ancestry" information of the TKDD paper:
//!
//! * **Partial Ancestry**: `Δ = b − 1`, the plain lossy-counting bound. No
//!   extra work.
//! * **Full Ancestry**: `Δ = min(b − 1, min over direct parents of
//!   (g_parent + Δ_parent))` — a prefix can never be more frequent than any
//!   of its generalizations, so a tracked parent's upper bound tightens the
//!   child's. Costs up to two extra probes per miss, buys tighter
//!   estimates.
//!
//! # Why they speed up as ε shrinks
//!
//! A smaller ε means wider buckets and larger tables, so the per-node probe
//! hits an existing entry far more often — the cheap path. This is the
//! empirical effect Figure 5 of the RHHH paper shows for both Ancestry
//! variants, and it is strongest for large H.
//!
//! # Deviation note
//!
//! The TKDD implementation interlinks the per-node tables into tries and
//! rolls pruned counts into parent *trie* nodes. In ≥2 dimensions that
//! roll-up has no single parent (the lattice diamond), and the published
//! variants differ in how they split or duplicate the mass. We instead keep
//! each lattice node's table self-contained (pruned mass is absorbed by Δ,
//! exactly as in Lossy Counting), which preserves the deterministic
//! guarantees, the space bound, and the update-cost shape — the three
//! properties the RHHH evaluation depends on. DESIGN.md records this
//! substitution.

use std::collections::HashMap;

use hhh_core::output::{extract_hhh, HeavyHitter, NodeEstimates};
use hhh_core::HhhAlgorithm;
use hhh_counters::{Candidate, IntHashBuilder};
use hhh_hierarchy::{KeyBits, Lattice, NodeId};

type Map<K, V> = HashMap<K, V, IntHashBuilder>;

/// Which ancestry strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AncestryMode {
    /// Tighten new-entry Δ from tracked parent entries (TKDD'08 strategy 1).
    Full,
    /// Plain lossy-counting Δ (TKDD'08 strategy 2).
    Partial,
}

#[derive(Debug, Clone, Copy)]
struct TrieEntry {
    /// Occurrences counted since this entry was created.
    g: u64,
    /// Upper bound on occurrences missed before creation.
    delta: u64,
}

/// The Full/Partial Ancestry baseline.
#[derive(Debug, Clone)]
pub struct Ancestry<K: KeyBits> {
    lattice: Lattice<K>,
    mode: AncestryMode,
    /// One lossy-counting table per lattice node.
    tables: Vec<Map<K, TrieEntry>>,
    /// Cached masks in node order.
    masks: Vec<K>,
    /// Direct parents per node (1 or 2 for the paper's hierarchies).
    parents: Vec<Vec<NodeId>>,
    /// Node processing order: most general first, so Full-mode parent
    /// probes see this packet's parent updates.
    order: Vec<NodeId>,
    /// Bucket width `w = ⌈1/ε⌉`.
    width: u64,
    /// Current bucket `b` (starts at 1).
    bucket: u64,
    packets: u64,
    epsilon: f64,
}

impl<K: KeyBits> Ancestry<K> {
    /// Creates an instance with error parameter `epsilon` (bucket width
    /// `⌈1/ε⌉`).
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is not in `(0, 1)`.
    #[must_use]
    pub fn new(lattice: Lattice<K>, mode: AncestryMode, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must lie in (0, 1), got {epsilon}"
        );
        let tables = (0..lattice.num_nodes()).map(|_| Map::default()).collect();
        let masks = lattice.node_ids().map(|n| lattice.mask(n)).collect();
        let parents = lattice
            .node_ids()
            .map(|n| lattice.parents(n).to_vec())
            .collect();
        let mut order: Vec<NodeId> = lattice.node_ids().collect();
        order.sort_by_key(|&n| std::cmp::Reverse(lattice.level(n)));
        Self {
            lattice,
            mode,
            tables,
            masks,
            parents,
            order,
            width: (1.0 / epsilon).ceil() as u64,
            bucket: 1,
            packets: 0,
            epsilon,
        }
    }

    /// The configured error parameter ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Total tracked entries across all node tables (the TKDD space bound
    /// is `O(H·log(εN)/ε)`).
    #[must_use]
    pub fn trie_size(&self) -> usize {
        self.tables.iter().map(Map::len).sum()
    }

    /// The lattice this instance measures over.
    #[must_use]
    pub fn lattice(&self) -> &Lattice<K> {
        &self.lattice
    }

    /// Processes one packet: one probe/insert per lattice node, most
    /// general node first.
    pub fn update(&mut self, key: K) {
        self.packets += 1;
        let b = self.bucket;
        for i in 0..self.order.len() {
            let node = self.order[i];
            let masked = key.and(self.masks[node.index()]);
            // Fast path: already tracked.
            if let Some(e) = self.tables[node.index()].get_mut(&masked) {
                e.g += 1;
                continue;
            }
            let delta = match self.mode {
                AncestryMode::Partial => b - 1,
                AncestryMode::Full => {
                    // f_child ≤ f_parent, so any tracked parent's upper
                    // bound caps what this key could have accumulated.
                    let mut d = b - 1;
                    for &p in &self.parents[node.index()] {
                        let pkey = key.and(self.masks[p.index()]);
                        if let Some(pe) = self.tables[p.index()].get(&pkey) {
                            // The parent was updated earlier this packet
                            // (most-general-first order), so subtract this
                            // packet's own contribution.
                            d = d.min((pe.g - 1) + pe.delta);
                        }
                    }
                    d
                }
            };
            self.tables[node.index()].insert(masked, TrieEntry { g: 1, delta });
        }
        if self.packets.is_multiple_of(self.width) {
            self.bucket += 1;
            let nb = self.bucket;
            for table in &mut self.tables {
                table.retain(|_, e| e.g + e.delta > nb);
            }
        }
    }

    /// `Output(θ)` using the standard conditioned-frequency machinery with
    /// deterministic (slack-free) estimates.
    #[must_use]
    pub fn output(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        extract_hhh(&self.lattice, self, theta, self.packets, 1.0, 0.0)
    }
}

impl<K: KeyBits> NodeEstimates<K> for Ancestry<K> {
    fn for_each_candidate(&self, node: NodeId, mut f: impl FnMut(Candidate<K>)) {
        for (&key, e) in &self.tables[node.index()] {
            f(Candidate {
                key,
                upper: e.g + e.delta,
                lower: e.g,
            });
        }
    }

    fn node_upper(&self, node: NodeId, key: &K) -> u64 {
        match self.tables[node.index()].get(key) {
            Some(e) => e.g + e.delta,
            // Untracked keys were pruned (or never seen): bounded by the
            // lossy-counting bucket bound.
            None => self.bucket - 1,
        }
    }

    fn node_lower(&self, node: NodeId, key: &K) -> u64 {
        self.tables[node.index()].get(key).map_or(0, |e| e.g)
    }
}

impl<K: KeyBits> HhhAlgorithm<K> for Ancestry<K> {
    fn insert(&mut self, key: K) {
        self.update(key);
    }

    fn packets(&self) -> u64 {
        self.packets
    }

    fn query(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        self.output(theta)
    }

    fn name(&self) -> String {
        match self.mode {
            AncestryMode::Full => "FullAncestry".to_string(),
            AncestryMode::Partial => "PartialAncestry".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::ExactHhh;
    use hhh_hierarchy::{pack2, Prefix};

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
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

    fn both_modes() -> [AncestryMode; 2] {
        [AncestryMode::Full, AncestryMode::Partial]
    }

    #[test]
    fn exact_counts_before_first_compression() {
        for mode in both_modes() {
            let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
            let mut a = Ancestry::new(lat, mode, 0.01); // w = 100
            for _ in 0..50 {
                a.update(ip(1, 2, 3, 4));
            }
            let out = a.output(0.5);
            let lat = a.lattice();
            let full = out
                .iter()
                .find(|h| h.prefix.node == lat.bottom())
                .expect("fully-specified HHH");
            assert_eq!(full.freq_lower, 50.0);
            assert_eq!(full.freq_upper, 50.0);
        }
    }

    #[test]
    fn bounds_bracket_exact_frequencies() {
        for mode in both_modes() {
            let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
            let mut a = Ancestry::new(lat.clone(), mode, 0.01);
            let mut ex = ExactHhh::new(lat.clone());
            let mut rng = Lcg(7);
            let n = 30_000u64;
            for i in 0..n {
                let key = if i % 5 == 0 {
                    ip(10, 20, (rng.next() % 256) as u8, 0)
                } else {
                    rng.next() as u32
                };
                a.update(key);
                ex.insert(key);
            }
            // Every lattice node's table must deterministically sandwich the
            // truth within εN (+ one bucket of slop for the in-progress
            // bucket).
            let eps_n = (0.01 * n as f64) as u64 + a.width;
            for spec in [1u32, 2, 3] {
                let node = lat.node_by_spec(&[spec]);
                let p = Prefix::of(&lat, node, ip(10, 20, 0, 0));
                let truth = ex.frequency(&p);
                let lower = a.node_lower(node, &p.key);
                let upper = a.node_upper(node, &p.key);
                assert!(lower <= truth, "{mode:?}: lower {lower} > truth {truth}");
                assert!(upper >= truth, "{mode:?}: upper {upper} < truth {truth}");
                assert!(
                    truth - lower <= eps_n,
                    "{mode:?}: undercount {} > {eps_n} at /{}",
                    truth - lower,
                    spec * 8
                );
            }
        }
    }

    #[test]
    fn finds_planted_hhh_and_covers_exact_set() {
        for mode in both_modes() {
            let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
            let mut a = Ancestry::new(lat.clone(), mode, 0.005);
            let mut ex = ExactHhh::new(lat.clone());
            let mut rng = Lcg(13);
            for i in 0..60_000u64 {
                let key = if i % 5 == 0 {
                    pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), ip(8, 8, 8, 8))
                } else {
                    pack2(rng.next() as u32, rng.next() as u32)
                };
                a.update(key);
                ex.insert(key);
            }
            let theta = 0.1;
            let out = a.output(theta);
            let got: std::collections::HashSet<_> = out.iter().map(|h| h.prefix).collect();
            // Coverage: every exact HHH prefix must be reported
            // (approximate HHH never miss true ones — Definition 9).
            for p in ex.hhh(theta) {
                assert!(
                    got.contains(&p),
                    "{mode:?} missed exact HHH {}",
                    p.display(&lat)
                );
            }
        }
    }

    #[test]
    fn full_mode_deltas_never_looser_than_partial() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut full = Ancestry::new(lat.clone(), AncestryMode::Full, 0.01);
        let mut partial = Ancestry::new(lat, AncestryMode::Partial, 0.01);
        let mut rng = Lcg(17);
        for i in 0..20_000u64 {
            let key = if i % 3 == 0 {
                ip(10, 20, 30, (rng.next() % 64) as u8)
            } else {
                rng.next() as u32
            };
            full.update(key);
            partial.update(key);
        }
        // Per-entry Δ in Full mode is capped by parent bounds, so the
        // aggregate slack can only be smaller or equal.
        let sum_delta = |a: &Ancestry<u32>| -> u64 {
            a.tables
                .iter()
                .flat_map(|t| t.values())
                .map(|e| e.delta)
                .sum()
        };
        assert!(sum_delta(&full) <= sum_delta(&partial));
    }

    #[test]
    fn trie_stays_bounded() {
        for mode in both_modes() {
            let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
            let mut a = Ancestry::new(lat, mode, 0.01);
            let mut rng = Lcg(21);
            for _ in 0..100_000 {
                a.update(rng.next() as u32);
            }
            // Space must stay near O(H·log(εN)/ε), far below the number of
            // distinct keys seen (~100k).
            assert!(
                a.trie_size() < 20_000,
                "{mode:?} trie exploded: {}",
                a.trie_size()
            );
        }
    }

    #[test]
    fn pruning_drops_stale_singletons() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut a = Ancestry::new(lat, AncestryMode::Partial, 0.1); // w = 10
        for i in 0..10u32 {
            a.update(ip(9, 9, 0, i as u8));
        }
        // At the boundary (b = 2) every /32 entry has g + Δ = 1 ≤ 2 → gone;
        // coarser nodes kept their aggregates (e.g. /16 has g = 10).
        let bottom = a.lattice().bottom();
        assert_eq!(a.tables[bottom.index()].len(), 0);
        let n16 = a.lattice().node_by_spec(&[2]);
        assert_eq!(a.node_lower(n16, &ip(9, 9, 0, 0)), 10);
    }

    #[test]
    fn names_distinguish_modes() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let f = Ancestry::new(lat.clone(), AncestryMode::Full, 0.01);
        let p = Ancestry::new(lat, AncestryMode::Partial, 0.01);
        assert_eq!(HhhAlgorithm::name(&f), "FullAncestry");
        assert_eq!(HhhAlgorithm::name(&p), "PartialAncestry");
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1)")]
    fn rejects_bad_epsilon() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let _ = Ancestry::new(lat, AncestryMode::Full, 0.0);
    }
}
