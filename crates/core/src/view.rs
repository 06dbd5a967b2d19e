//! Read-only RHHH views: the parts every combine reads, and the query
//! plane.
//!
//! `Output(θ)` (Algorithm 1, lines 11–16) reads per-node bounds and the
//! stream totals; it never updates. A [`FrozenRhhh`] is everything it
//! reads — one [`Frozen`] node summary per lattice node, plus `N`, `W`
//! and the configuration that fixes the scale, the slack and ψ. An
//! instance is frozen once, when it stops updating ([`Rhhh::freeze`]): a
//! window pane at its rotation, a shard's pane at each publication, a
//! never-rotated shard pane at the harvest. [`Rhhh::try_combine`] then
//! combines frozen parts only, so no combined summary is ever updated
//! and no live summary is ever rebuilt or cloned to answer a query.

use hhh_counters::{Candidate, Frozen};
use hhh_hierarchy::{KeyBits, Lattice, NodeId};

use crate::output::{extract_hhh, HeavyHitter, NodeEstimates};
use crate::rhhh::{psi_of, scale_of, slack_of, RhhhConfig};
#[cfg(doc)]
use crate::Rhhh;

/// A read-only RHHH answer source: one [`Rhhh`] instance frozen
/// ([`Rhhh::freeze`]), or the combine of several frozen views by each
/// counter family's one combine rule
/// ([`hhh_counters::FrequencyEstimator::combine`]). A frozen instance
/// answers `Output(θ)` exactly as the instance does.
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

    /// The lattice the view measures over.
    #[must_use]
    pub fn lattice(&self) -> &Lattice<K> {
        &self.lattice
    }

    /// The configuration of the instances the view stands for.
    #[must_use]
    pub fn config(&self) -> &RhhhConfig {
        &self.config
    }

    /// The packet count `N` the view covers.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The counter updates the view's nodes absorbed, summed over the
    /// lattice: every sampled packet updates one node (`r` with the
    /// multi-update extension).
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.nodes.iter().map(Frozen::updates).sum()
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
    use hhh_counters::{FrequencyEstimator, Frozen, SpaceSaving};

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
    fn view_combines_nodes_and_sums_totals() {
        let parts = [fed(1, 20_000), fed(2, 30_000), fed(3, 10_000)];
        let frozen: Vec<FrozenRhhh<u64>> = parts.iter().map(Rhhh::freeze).collect();
        let view = Rhhh::<u64>::combine(&frozen.iter().collect::<Vec<_>>());
        assert_eq!(view.packets(), 60_000);
        assert_eq!(view.total_weight(), 60_000);
        // Slack and ψ are those of one instance that saw all 60k packets.
        let mut whole = fed(1, 0);
        whole.note_packets(60_000);
        assert_eq!(view.slack(), whole.slack());
        assert_eq!(view.psi(), whole.psi());
        let updates: u64 = parts.iter().map(|p| p.total_updates()).sum();
        assert_eq!(view.total_updates(), updates);
        for node in parts[0].lattice().node_ids() {
            let column: Vec<&Frozen<u64>> = frozen.iter().map(|f| f.node(node)).collect();
            let want = SpaceSaving::combine(&column);
            assert_eq!(view.node(node).candidates(), want.candidates());
            assert_eq!(view.node(node).updates(), want.updates());
        }
        // One part's view answers as the part itself.
        let single = Rhhh::<u64>::combine(&[&frozen[1]]);
        assert_eq!(single.output(0.05), parts[1].output(0.05));
        assert_eq!(single.slack(), parts[1].slack());
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
            Rhhh::<u64>::try_combine(&[&a.freeze(), &b.freeze()]),
            Err(crate::MergeError::ConfigMismatch(_))
        ));
    }
}
