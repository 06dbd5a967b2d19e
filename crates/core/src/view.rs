//! Read-only merged RHHH views: the query plane.
//!
//! `Output(θ)` (Algorithm 1, lines 11–16) reads per-node bounds and the
//! stream totals; it never updates. A [`FrozenRhhh`] is everything it
//! reads — one [`Frozen`] node summary per lattice node, plus `N`, `W`
//! and the configuration that fixes the scale, the slack and ψ — built by
//! [`Rhhh::merged_view`] from *borrowed* instances. The window ring and
//! the shard fleet answer every live query through one, so a query clones
//! no pane and rebuilds no live summary; only [`Rhhh::merge_many`] and the
//! harvest still produce an updatable instance.

use hhh_counters::{Candidate, Frozen};
use hhh_hierarchy::{KeyBits, Lattice, NodeId};

use crate::output::{extract_hhh, HeavyHitter, NodeEstimates};
use crate::rhhh::{psi_of, scale_of, slack_of, RhhhConfig};
#[cfg(doc)]
use crate::Rhhh;

/// A read-only RHHH answer source: the merge of one or more [`Rhhh`]
/// instances, frozen per node. Holds the candidates and bounds the live
/// [`Rhhh::merge_many`] of the same instances would, so `Output(θ)` gives
/// the same prefixes with the same bounds.
#[derive(Debug, Clone)]
pub struct FrozenRhhh<K: KeyBits> {
    pub(crate) lattice: Lattice<K>,
    pub(crate) nodes: Vec<Frozen<K>>,
    pub(crate) packets: u64,
    pub(crate) weight: u64,
    pub(crate) config: RhhhConfig,
    /// The performance parameter `V` of the merged instances.
    pub(crate) v: u64,
}

impl<K: KeyBits> FrozenRhhh<K> {
    /// One node's frozen summary.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &Frozen<K> {
        &self.nodes[node.index()]
    }

    /// The packet count `N` the view covers.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The total weight `W` the view covers; the `N` that `Output(θ)`
    /// thresholds against.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.weight
    }

    /// Overrides `N` and `W`, as [`Rhhh::note_totals`] does: a shard
    /// fleet counts a pane's totals at its ingress, not in its slices.
    pub fn note_totals(&mut self, packets: u64, weight: u64) {
        self.packets = packets;
        self.weight = weight;
    }

    /// The convergence bound ψ, as [`Rhhh::psi`].
    #[must_use]
    pub fn psi(&self) -> f64 {
        psi_of(self.v, &self.config)
    }

    /// Whether the covered stream is long enough for the formal
    /// guarantee (`N > ψ`).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.packets as f64 > self.psi()
    }

    /// Frequency units per update count, as [`Rhhh::scale`].
    #[must_use]
    pub fn scale(&self) -> f64 {
        scale_of(self.v, &self.config)
    }

    /// The sampling slack over the covered weight, as [`Rhhh::slack`].
    #[must_use]
    pub fn slack(&self) -> f64 {
        slack_of(self.v, &self.config, self.weight)
    }

    /// Algorithm 1 `Output(θ)` over the view.
    #[must_use]
    pub fn output(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        extract_hhh(
            &self.lattice,
            self,
            theta,
            self.weight,
            self.scale(),
            self.slack(),
        )
    }
}

impl<K: KeyBits> NodeEstimates<K> for FrozenRhhh<K> {
    #[inline]
    fn for_each_candidate(&self, node: NodeId, f: impl FnMut(Candidate<K>)) {
        self.nodes[node.index()].for_each_candidate(f);
    }

    fn node_upper(&self, node: NodeId, key: &K) -> u64 {
        self.nodes[node.index()].upper(key)
    }

    fn node_lower(&self, node: NodeId, key: &K) -> u64 {
        self.nodes[node.index()].lower(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rhhh;
    use hhh_counters::{FrequencyEstimator, SpaceSaving};

    fn config(seed: u64) -> RhhhConfig {
        RhhhConfig {
            epsilon_a: 0.01,
            epsilon_s: 0.05,
            delta_s: 0.05,
            seed,
            ..RhhhConfig::default()
        }
    }

    fn fed(seed: u64, n: u64) -> Rhhh<u64> {
        let mut algo = Rhhh::<u64>::new(hhh_hierarchy::Lattice::ipv4_src_dst_bytes(), config(seed));
        let mut x = seed;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            algo.update(if i % 4 == 0 {
                0x0A14_0000_0808_0808
            } else {
                x >> 8
            });
        }
        algo
    }

    #[test]
    fn view_answers_as_the_live_merge() {
        let parts = [fed(1, 20_000), fed(2, 30_000), fed(3, 10_000)];
        let view = Rhhh::merged_view(&parts.iter().collect::<Vec<_>>());
        let mut live = parts[0].clone();
        live.merge_many(parts[1..].to_vec());
        assert_eq!(view.packets(), 60_000);
        assert_eq!(view.total_weight(), live.total_weight());
        assert_eq!(view.slack(), live.slack());
        assert_eq!(view.psi(), live.psi());
        assert_eq!(view.output(0.05), live.output(0.05));
        for node in live.lattice().node_ids() {
            let inst: &SpaceSaving<u64> = &live.node_instances()[node.index()];
            assert_eq!(view.node(node).candidates(), inst.candidates());
            assert_eq!(view.node(node).updates(), inst.updates());
        }
    }

    #[test]
    fn view_rejects_mismatched_parts() {
        let a = fed(1, 1_000);
        let b = Rhhh::<u64>::new(
            hhh_hierarchy::Lattice::ipv4_src_dst_bytes(),
            RhhhConfig {
                v_scale: 10,
                ..config(2)
            },
        );
        assert!(matches!(
            Rhhh::try_merged_view(&[&a, &b]),
            Err(crate::MergeError::ConfigMismatch(_))
        ));
    }
}
