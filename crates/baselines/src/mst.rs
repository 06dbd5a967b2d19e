//! MST — Hierarchical Heavy Hitters with the Space Saving Algorithm
//! (Mitzenmacher, Steinke, Thaler — ALENEX 2012).
//!
//! The structure is identical to RHHH's: one counter-algorithm instance per
//! lattice node. The difference is the update rule — **all H instances** are
//! updated for every packet, so updates are deterministic, estimates carry
//! no sampling error (scale 1, slack 0), and the per-packet cost is O(H).
//!
//! This is both the strongest-accuracy baseline in Figures 2–4 and the
//! slowest dataplane in Figures 5–6.

use hhh_core::output::{extract_hhh, HeavyHitter, NodeEstimates};
use hhh_core::HhhAlgorithm;
use hhh_counters::{counters_for, Candidate, FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::{KeyBits, Lattice, NodeId};

/// The MST baseline, generic over the per-node counter algorithm.
#[derive(Debug, Clone)]
pub struct Mst<K: KeyBits, E: FrequencyEstimator<K> = SpaceSaving<K>> {
    lattice: Lattice<K>,
    instances: Vec<E>,
    masks: Vec<K>,
    packets: u64,
    weight: u64,
}

impl<K: KeyBits, E: FrequencyEstimator<K>> Mst<K, E> {
    /// Builds an MST instance with per-node error `epsilon_a`
    /// (`⌈1/ε_a⌉` counters per lattice node — `O(H/ε)` total space).
    #[must_use]
    pub fn new(lattice: Lattice<K>, epsilon_a: f64) -> Self {
        let counters = counters_for(epsilon_a, 0.0);
        let instances = (0..lattice.num_nodes())
            .map(|_| E::with_capacity(counters))
            .collect();
        let masks = lattice.node_ids().map(|n| lattice.mask(n)).collect();
        Self {
            lattice,
            instances,
            masks,
            packets: 0,
            weight: 0,
        }
    }

    /// The lattice this instance measures over.
    #[must_use]
    pub fn lattice(&self) -> &Lattice<K> {
        &self.lattice
    }

    /// Updates every lattice node — O(H).
    #[inline]
    pub fn update(&mut self, key: K) {
        self.packets += 1;
        self.weight += 1;
        for (instance, mask) in self.instances.iter_mut().zip(&self.masks) {
            instance.increment(key.and(*mask));
        }
    }

    /// Weighted update of every lattice node — the `O(H·log 1/ε)` weighted
    /// path Section 2 of the RHHH paper attributes to MST.
    #[inline]
    pub fn update_weighted(&mut self, key: K, weight: u64) {
        self.packets += 1;
        self.weight += weight;
        for (instance, mask) in self.instances.iter_mut().zip(&self.masks) {
            instance.add(key.and(*mask), weight);
        }
    }

    /// Total recorded weight (equals `packets()` for unit updates).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.weight
    }

    /// `Output(θ)` with deterministic estimates (no sampling slack).
    #[must_use]
    pub fn output(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        extract_hhh(&self.lattice, self, theta, self.weight, 1.0, 0.0)
    }
}

impl<K: KeyBits, E: FrequencyEstimator<K>> NodeEstimates<K> for Mst<K, E> {
    #[inline]
    fn for_each_candidate(&self, node: NodeId, f: impl FnMut(Candidate<K>)) {
        self.instances[node.index()].for_each_candidate(f);
    }

    fn node_upper(&self, node: NodeId, key: &K) -> u64 {
        self.instances[node.index()].upper(key)
    }

    fn node_lower(&self, node: NodeId, key: &K) -> u64 {
        self.instances[node.index()].lower(key)
    }
}

impl<K: KeyBits, E: FrequencyEstimator<K>> HhhAlgorithm<K> for Mst<K, E> {
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
        "MST".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_hierarchy::pack2;

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

    #[test]
    fn every_node_updated() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mst = Mst::<u64>::new(lat, 0.01);
        let mut rng = Lcg(1);
        for _ in 0..1_000 {
            mst.update(rng.next());
        }
        for node in mst.lattice.node_ids() {
            assert_eq!(mst.instances[node.index()].updates(), 1_000);
        }
        assert_eq!(mst.packets(), 1_000);
    }

    #[test]
    fn deterministic_exactness_on_small_streams() {
        // Below counter capacity, MST is exact: the paper's worked example
        // reproduces precisely.
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut mst = Mst::<u32>::new(lat, 0.001);
        for i in 0..102u32 {
            mst.update(ip(101, 102, (i % 200) as u8, 1));
        }
        for i in 0..6u32 {
            mst.update(ip(101, (110 + i) as u8, 0, 0));
        }
        let mut rng = Lcg(2);
        for _ in 0..(10_000 - 108) {
            let v = rng.next() as u32;
            mst.update(if v >> 24 == 101 { v ^ 0x8000_0000 } else { v });
        }
        let out = mst.output(0.01);
        let lat = mst.lattice();
        let rendered: Vec<String> = out.iter().map(|h| h.prefix.display(lat)).collect();
        assert!(
            rendered.contains(&"101.102.0.0/16".to_string()),
            "{rendered:?}"
        );
        assert!(
            !rendered.contains(&"101.0.0.0/8".to_string()),
            "{rendered:?}"
        );
    }

    #[test]
    fn finds_planted_2d_hhh() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mst = Mst::<u64>::new(lat, 0.005);
        let mut rng = Lcg(3);
        for i in 0..100_000u64 {
            let key = if i % 5 == 0 {
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), ip(8, 8, 8, 8))
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            };
            mst.update(key);
        }
        let out = mst.output(0.1);
        let lat = mst.lattice();
        assert!(
            out.iter()
                .any(|h| h.prefix.display(lat).contains("10.20.0.0/16")),
            "{:?}",
            out.iter()
                .map(|h| h.prefix.display(lat))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn accuracy_within_epsilon() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let eps = 0.01;
        let mut mst = Mst::<u32>::new(lat, eps);
        let heavy = ip(4, 4, 4, 4);
        let mut rng = Lcg(4);
        let n = 50_000u64;
        for i in 0..n {
            if i % 4 == 0 {
                mst.update(heavy);
            } else {
                mst.update(rng.next() as u32);
            }
        }
        let out = mst.output(0.2);
        let entry = out
            .iter()
            .find(|h| h.prefix.key == heavy && h.prefix.node == mst.lattice().bottom())
            .expect("heavy key present");
        let truth = (n / 4) as f64;
        assert!(entry.freq_upper >= truth);
        assert!(entry.freq_upper - truth <= eps * n as f64);
        assert!(entry.freq_lower <= truth);
    }
}
