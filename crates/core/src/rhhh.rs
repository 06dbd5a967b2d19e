//! RHHH — Algorithm 1 of the paper.
//!
//! One counter-algorithm instance per lattice node. Per packet: draw
//! `d ~ Uniform[0, V)`; if `d < H`, mask the key with node `d`'s prefix
//! pattern and increment that node's instance. Everything else — the
//! conditioned-frequency output, the sampling slack, the ψ convergence
//! bound — hangs off this one randomized line.

use hhh_counters::{counters_for, Candidate, FrequencyEstimator, Frozen, SpaceSaving};
use hhh_hierarchy::{KeyBits, Lattice, NodeId};
use hhh_stats::{psi, sampling_slack};

use crate::batch::Sampler;
use crate::output::{extract_hhh, HeavyHitter, NodeEstimates};
use crate::view::FrozenRhhh;
use crate::{HhhAlgorithm, MergeError};

/// Configuration of an RHHH instance.
///
/// The error budget follows Theorem 6.6/6.12: the overall guarantee is
/// `ε = ε_a + ε_s` and `δ = δ_a + 2·δ_s` (Space Saving has `δ_a = 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhhhConfig {
    /// Counter-algorithm error `ε_a` (each instance gets
    /// `⌈(1+ε_s)/ε_a⌉` counters, the over-sampling adjustment of
    /// Corollary 6.5).
    pub epsilon_a: f64,
    /// Sampling error `ε_s` — drives the convergence bound ψ.
    pub epsilon_s: f64,
    /// Sampling confidence `δ_s`; the overall `δ = δ_a + 2·δ_s`.
    pub delta_s: f64,
    /// Performance parameter: `V = v_scale · H` (clamped to at least `H`).
    /// `1` is plain RHHH, `10` is the paper's 10-RHHH.
    pub v_scale: u64,
    /// Independent update draws per packet — the `r` of Corollary 6.8
    /// (converges `r×` faster at `r×` the update cost). Usually 1.
    pub updates_per_packet: u32,
    /// PRNG seed (runs with equal seeds are bit-identical).
    pub seed: u64,
}

impl Default for RhhhConfig {
    /// The paper's operating point: `ε_a = ε_s = 0.001`, `δ_s = 0.001`,
    /// `V = H`.
    fn default() -> Self {
        Self {
            epsilon_a: 1e-3,
            epsilon_s: 1e-3,
            delta_s: 1e-3,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 0x5EED,
        }
    }
}

impl RhhhConfig {
    /// The paper's "10-RHHH": `V = 10·H`, i.e. 90% of packets are ignored.
    #[must_use]
    pub fn ten_rhhh() -> Self {
        Self {
            v_scale: 10,
            ..Self::default()
        }
    }

    /// Overall accuracy guarantee `ε = ε_a + ε_s`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon_a + self.epsilon_s
    }

    /// Overall confidence `δ = δ_a + 2·δ_s` with `δ_a = 0` for the counter
    /// algorithms in this workspace.
    #[must_use]
    pub fn delta(&self) -> f64 {
        2.0 * self.delta_s
    }
}

/// ψ of Theorem 6.3 at performance parameter `v`, divided by `r`
/// (Corollary 6.8) — shared by [`Rhhh::psi`] and the frozen view's.
pub(crate) fn psi_of(v: u64, config: &RhhhConfig) -> f64 {
    psi(v, config.epsilon_s, config.delta_s) / f64::from(config.updates_per_packet)
}

/// Frequency units per recorded update, `V/r`.
pub(crate) fn scale_of(v: u64, config: &RhhhConfig) -> f64 {
    v as f64 / f64::from(config.updates_per_packet)
}

/// The sampling slack `2·Z_{1-δ}·√(W·V/r)` over total weight `weight`.
pub(crate) fn slack_of(v: u64, config: &RhhhConfig, weight: u64) -> f64 {
    if weight == 0 {
        return 0.0;
    }
    let delta = config.delta().min(0.5);
    sampling_slack(
        weight,
        v / u64::from(config.updates_per_packet).max(1),
        delta,
    )
}

/// The RHHH algorithm, generic over key type and per-node counter
/// algorithm (Space Saving by default, per the paper).
#[derive(Debug, Clone)]
pub struct Rhhh<K: KeyBits, E: FrequencyEstimator<K> = SpaceSaving<K>> {
    lattice: Lattice<K>,
    pub(crate) instances: Vec<E>,
    /// The draw state and node masks of both the scalar and the batch
    /// path, plus the batch path's reusable scatter buffers.
    pub(crate) sampler: Sampler<K>,
    pub(crate) packets: u64,
    /// Total recorded weight (equals `packets` for unit updates).
    pub(crate) weight: u64,
    pub(crate) config: RhhhConfig,
    /// Ping-pong buffer for the batch flush's byte-digit radix sort.
    pub(crate) radix: Vec<K>,
}

impl<K: KeyBits, E: FrequencyEstimator<K>> Rhhh<K, E> {
    /// Builds an RHHH instance over `lattice` with the given configuration.
    #[must_use]
    pub fn new(lattice: Lattice<K>, config: RhhhConfig) -> Self {
        assert!(config.v_scale >= 1, "v_scale must be at least 1 (V >= H)");
        assert!(
            config.updates_per_packet >= 1,
            "updates_per_packet must be at least 1"
        );
        let counters = counters_for(config.epsilon_a, config.epsilon_s);
        let instances = (0..lattice.num_nodes())
            .map(|_| E::with_capacity(counters))
            .collect();
        Self {
            sampler: Sampler::new(&lattice, &config),
            lattice,
            instances,
            packets: 0,
            weight: 0,
            config,
            radix: Vec::new(),
        }
    }

    /// The performance parameter `V`.
    #[must_use]
    pub fn v(&self) -> u64 {
        self.sampler.v
    }

    /// The hierarchy size `H`.
    #[must_use]
    pub fn h(&self) -> u64 {
        self.sampler.h
    }

    /// The lattice this instance measures over.
    #[must_use]
    pub fn lattice(&self) -> &Lattice<K> {
        &self.lattice
    }

    /// The configuration this instance was built with.
    #[must_use]
    pub fn config(&self) -> &RhhhConfig {
        &self.config
    }

    /// The convergence bound ψ of Theorem 6.3, adjusted for the r-updates
    /// extension (Corollary 6.8): once `packets() > psi()` the
    /// (δ, ε, θ)-approximate HHH guarantee of Theorem 6.17 holds.
    #[must_use]
    pub fn psi(&self) -> f64 {
        psi_of(self.v(), &self.config)
    }

    /// Whether the stream is long enough for the formal guarantee.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.packets as f64 > self.psi()
    }

    /// Algorithm 1 `Update(x)`: draw, mask, increment — O(1) worst case.
    #[inline]
    pub fn update(&mut self, key: K) {
        self.packets += 1;
        self.weight += 1;
        let s = &mut self.sampler;
        for _ in 0..self.config.updates_per_packet {
            let d = s.rng.bounded(s.v);
            if d < s.h {
                let masked = key.and(s.masks[d as usize]);
                self.instances[d as usize].increment(masked);
            }
        }
    }

    /// Weighted update: one draw per packet, `weight` units recorded at the
    /// selected node. Extension beyond the paper (which analyzes unit
    /// updates for RHHH and notes MST's weighted updates cost
    /// `O(H·log 1/ε)`): frequencies then estimate *traffic volume* (e.g.
    /// bytes) instead of packet counts, and `Output(θ)`'s threshold applies
    /// to total volume. The sampling analysis carries over with `N` replaced
    /// by total weight, at variance inflated by the weight dispersion — the
    /// slack term remains conservative for bounded weights but the formal
    /// ψ bound is only exact for unit weights.
    #[inline]
    pub fn update_weighted(&mut self, key: K, weight: u64) {
        self.packets += 1;
        self.weight += weight;
        let s = &mut self.sampler;
        for _ in 0..self.config.updates_per_packet {
            let d = s.rng.bounded(s.v);
            if d < s.h {
                let masked = key.and(s.masks[d as usize]);
                self.instances[d as usize].add(masked, weight);
            }
        }
    }

    /// Total recorded weight `W` (equals `packets()` for unit updates); the
    /// `N` that `Output(θ)` thresholds against.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.weight
    }

    /// Overrides the packet count `N` and the weight `W` with `n` each
    /// (a unit-weight stream of `n` packets).
    pub fn note_packets(&mut self, n: u64) {
        self.note_totals(n, n);
    }

    /// Overrides the packet count `N` and the total weight `W`. Needed
    /// wherever the instance sees only the sampled sub-stream — the shard
    /// fleet's workers flush samples drawn at ingress, and `N` and `W`
    /// count the packets the ingress saw.
    pub fn note_totals(&mut self, packets: u64, weight: u64) {
        self.packets = packets;
        self.weight = weight;
    }

    /// Frequency scale: each recorded update stands for `V/r` packets
    /// (Definition 11 with the Corollary 6.8 adjustment).
    #[must_use]
    pub fn scale(&self) -> f64 {
        scale_of(self.v(), &self.config)
    }

    /// The sampling slack added to every conditioned-frequency estimate
    /// (Algorithm 1 line 13): `2·Z_{1-δ}·√(N·V/r)`.
    #[must_use]
    pub fn slack(&self) -> f64 {
        slack_of(self.v(), &self.config, self.weight)
    }

    /// Algorithm 1 `Output(θ)`.
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

    /// Total updates delivered to node instances (≈ `N·r·H/V`); diagnostic.
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.instances.iter().map(FrequencyEstimator::updates).sum()
    }

    /// Updates delivered to one node's instance (`X_i` in the balls-and-bins
    /// analysis of Section 6); used by the ψ-convergence experiment.
    #[must_use]
    pub fn node_updates(&self, node: NodeId) -> u64 {
        self.instances[node.index()].updates()
    }

    /// The read-only view of this instance, frozen once: every node's
    /// [`Frozen`] summary plus `N`, `W` and the configuration. It answers
    /// `Output(θ)` exactly as the instance does. A summary that stops
    /// updating — a completed window pane, a published shard snapshot, a
    /// harvested shard, the end of an interval — is frozen here, and every
    /// combine reads frozen parts only.
    #[must_use]
    pub fn freeze(&self) -> FrozenRhhh<K> {
        FrozenRhhh {
            lattice: self.lattice.clone(),
            nodes: self.instances.iter().map(Frozen::freeze).collect(),
            packets: self.packets,
            weight: self.weight,
            config: self.config,
            v: self.v(),
        }
    }

    /// The combine of frozen `parts` — views over the same lattice with the
    /// same accuracy configuration, each summarizing its own sub-stream —
    /// into one view of the union of their streams. This is the
    /// aggregation step of every shard-parallel and windowed deployment:
    /// the window ring, the shard fleet's live queries and its harvest all
    /// answer from one. Node `i` of the result is `E`'s one combine rule
    /// ([`FrequencyEstimator::combine`]) over every part's node `i`, and the
    /// packet and weight totals sum — so `N`, the ψ convergence check and
    /// the sampling slack all recompute over the union.
    ///
    /// Accuracy: the per-node counter error bounds *add* (`ε_a` over the
    /// summed updates, unchanged), and the sampling errors of the parts
    /// are independent, so their variances add — the view's
    /// `slack() = 2·Z·√(N·V)` over the total `N` is exactly the standard
    /// deviation bound of the summed estimators, the same guarantee a
    /// single instance earns on the whole stream. Convergence still
    /// requires the *total* `N > ψ`. Seeds may differ (shards should use
    /// distinct seeds).
    ///
    /// # Errors
    ///
    /// [`MergeError::ConfigMismatch`] when any part's lattice masks or
    /// accuracy/performance configuration (everything but the seed) differ
    /// from the first's.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty.
    pub fn try_combine(parts: &[&FrozenRhhh<K>]) -> Result<FrozenRhhh<K>, MergeError> {
        let (first, rest) = parts
            .split_first()
            .expect("a combine needs at least one part");
        let masks = |l: &Lattice<K>| l.node_ids().map(|n| l.mask(n)).collect::<Vec<_>>();
        let (a, lattice) = (&first.config, masks(&first.lattice));
        for other in rest {
            if masks(&other.lattice) != lattice {
                return Err(MergeError::ConfigMismatch(format!(
                    "lattice `{}` vs `{}`",
                    first.lattice.name(),
                    other.lattice.name()
                )));
            }
            let b = &other.config;
            if (a.epsilon_a, a.epsilon_s, a.delta_s) != (b.epsilon_a, b.epsilon_s, b.delta_s)
                || a.v_scale != b.v_scale
                || a.updates_per_packet != b.updates_per_packet
            {
                return Err(MergeError::ConfigMismatch(format!(
                    "config {a:?} vs {b:?} (seed may differ, everything else must match)"
                )));
            }
        }
        let nodes = (0..first.nodes.len())
            .map(|node| {
                let column: Vec<&Frozen<K>> = parts.iter().map(|p| &p.nodes[node]).collect();
                E::combine(&column)
            })
            .collect();
        Ok(FrozenRhhh {
            lattice: first.lattice.clone(),
            nodes,
            packets: parts.iter().map(|p| p.packets).sum(),
            weight: parts.iter().map(|p| p.weight).sum(),
            config: first.config,
            v: first.v,
        })
    }

    /// [`Rhhh::try_combine`] for callers that construct every part.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or any part is incompatible.
    #[must_use]
    pub fn combine(parts: &[&FrozenRhhh<K>]) -> FrozenRhhh<K> {
        Self::try_combine(parts).unwrap_or_else(|e| panic!("Rhhh::combine: {e}"))
    }
}

impl<K: KeyBits, E: FrequencyEstimator<K>> NodeEstimates<K> for Rhhh<K, E> {
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

impl<K: KeyBits, E: FrequencyEstimator<K>> HhhAlgorithm<K> for Rhhh<K, E> {
    fn insert(&mut self, key: K) {
        self.update(key);
    }

    fn insert_batch(&mut self, keys: &[K]) {
        self.update_batch(keys);
    }

    fn packets(&self) -> u64 {
        self.packets
    }

    fn query(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        self.output(theta)
    }

    fn name(&self) -> String {
        if self.config.v_scale == 1 {
            "RHHH".to_string()
        } else {
            format!("{}-RHHH", self.config.v_scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_hierarchy::pack2;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    /// Deterministic LCG for reproducible synthetic streams in tests.
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
    fn update_rate_is_h_over_v() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut ten = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        let mut rng = Lcg(1);
        let n = 200_000;
        for _ in 0..n {
            ten.update(rng.next());
        }
        let rate = ten.total_updates() as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "update rate {rate}");
        assert_eq!(ten.packets(), n);
    }

    #[test]
    fn v_equals_h_updates_every_packet() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut algo = Rhhh::<u32>::new(lat, RhhhConfig::default());
        let mut rng = Lcg(2);
        for _ in 0..50_000 {
            algo.update(rng.next() as u32);
        }
        assert_eq!(algo.total_updates(), 50_000, "V = H never skips");
    }

    #[test]
    fn updates_spread_evenly_across_nodes() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut algo = Rhhh::<u64>::new(lat, RhhhConfig::default());
        let mut rng = Lcg(3);
        let n = 250_000u64;
        for _ in 0..n {
            algo.update(rng.next());
        }
        let expect = n / 25;
        for node in 0..25usize {
            let u = algo.instances[node].updates();
            assert!(
                (u as i64 - expect as i64).unsigned_abs() < expect / 10,
                "node {node}: {u} vs {expect}"
            );
        }
    }

    #[test]
    fn finds_planted_hierarchical_heavy_hitter() {
        // Plant a /16 source subnet carrying 30% of traffic toward one
        // destination; no single /32 is heavy.
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut algo = Rhhh::<u64>::new(
            lat,
            RhhhConfig {
                // Loose sampling error so ψ ≈ Z·V/ε_s² stays below N.
                epsilon_s: 0.02,
                epsilon_a: 0.005,
                delta_s: 0.05,
                ..RhhhConfig::default()
            },
        );
        let mut rng = Lcg(4);
        let n = 400_000u64;
        for i in 0..n {
            let key = if i % 10 < 3 {
                // 10.20.x.y -> 8.8.8.8, x.y spread uniformly.
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), ip(8, 8, 8, 8))
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            };
            algo.update(key);
        }
        assert!(algo.converged(), "psi = {}, n = {n}", algo.psi());

        let out = algo.output(0.1);
        let lat = algo.lattice();
        let rendered: Vec<String> = out.iter().map(|h| h.prefix.display(lat)).collect();
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32")),
            "missing planted HHH in {rendered:?}"
        );
    }

    #[test]
    fn frequency_estimates_scale_by_v() {
        // With a single dominating key, its estimated frequency must be
        // within the ε·N guarantee of the truth, for both V = H and 10·H.
        for (config, tol_scale) in [(RhhhConfig::default(), 1.0), (RhhhConfig::ten_rhhh(), 1.0)] {
            let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
            let mut algo = Rhhh::<u32>::new(
                lat,
                RhhhConfig {
                    epsilon_s: 0.05,
                    delta_s: 0.05,
                    seed: 42,
                    ..config
                },
            );
            let n = 300_000u64;
            let heavy = ip(1, 2, 3, 4);
            let mut rng = Lcg(5);
            for i in 0..n {
                if i % 2 == 0 {
                    algo.update(heavy);
                } else {
                    algo.update(rng.next() as u32);
                }
            }
            let out = algo.output(0.3);
            let entry = out
                .iter()
                .find(|h| h.prefix.node == algo.lattice().bottom() && h.prefix.key == heavy)
                .unwrap_or_else(|| panic!("{} lost the heavy key", algo.name()));
            let truth = (n / 2) as f64;
            let eps_n = algo.config().epsilon() * n as f64 + algo.slack() * tol_scale;
            assert!(
                (entry.freq_upper - truth).abs() <= eps_n
                    || (entry.freq_lower - truth).abs() <= eps_n,
                "{}: bounds [{}, {}] vs truth {truth} (allow {eps_n})",
                algo.name(),
                entry.freq_lower,
                entry.freq_upper,
            );
        }
    }

    #[test]
    fn multi_update_converges_faster() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let base = Rhhh::<u32>::new(lat.clone(), RhhhConfig::default());
        let boosted = Rhhh::<u32>::new(
            lat,
            RhhhConfig {
                updates_per_packet: 4,
                ..RhhhConfig::default()
            },
        );
        assert!((base.psi() / boosted.psi() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut a = Rhhh::<u64>::new(lat.clone(), RhhhConfig::default());
        let mut b = Rhhh::<u64>::new(lat, RhhhConfig::default());
        let mut rng = Lcg(9);
        for _ in 0..100_000 {
            let k = rng.next();
            a.update(k);
            b.update(k);
        }
        assert_eq!(a.total_updates(), b.total_updates());
        let (oa, ob) = (a.output(0.05), b.output(0.05));
        assert_eq!(oa.len(), ob.len());
        for (x, y) in oa.iter().zip(&ob) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.freq_upper, y.freq_upper);
        }
    }

    #[test]
    fn psi_matches_paper_numbers() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let algo = Rhhh::<u64>::new(lat.clone(), RhhhConfig::default());
        // V = 25, ε_s = δ_s = 0.001 -> ψ ≈ 8.2e7 ("about 100 million").
        assert!(algo.psi() > 7.5e7 && algo.psi() < 9.0e7);
        let ten = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        assert!(ten.psi() > 7.5e8 && ten.psi() < 9.0e8);
    }

    #[test]
    fn empty_stream_output_is_empty() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let algo = Rhhh::<u32>::new(lat, RhhhConfig::default());
        assert!(algo.output(0.01).is_empty());
        assert_eq!(algo.slack(), 0.0);
    }

    #[test]
    fn works_with_other_counter_algorithms() {
        use hhh_counters::{CompactSpaceSaving, CuckooHeavyKeeper, LossyCounting, MisraGries};
        let mut rng = Lcg(11);
        let mut keys = Vec::new();
        for i in 0..100_000u64 {
            keys.push(if i % 3 == 0 {
                ip(9, 9, 0, 0)
            } else {
                rng.next() as u32
            });
        }
        macro_rules! check {
            ($est:ty) => {{
                let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
                let mut algo = Rhhh::<u32, $est>::new(
                    lat,
                    RhhhConfig {
                        epsilon_s: 0.05,
                        delta_s: 0.05,
                        ..RhhhConfig::default()
                    },
                );
                for &k in &keys {
                    algo.update(k);
                }
                let out = algo.output(0.2);
                assert!(
                    !out.is_empty(),
                    "{} found nothing",
                    std::any::type_name::<$est>()
                );
            }};
        }
        check!(CompactSpaceSaving<u32>);
        check!(MisraGries<u32>);
        check!(LossyCounting<u32>);
        check!(CuckooHeavyKeeper<u32>);
    }

    #[test]
    fn weighted_updates_estimate_volume() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut algo = Rhhh::<u32>::new(
            lat,
            RhhhConfig {
                epsilon_s: 0.05,
                delta_s: 0.05,
                ..RhhhConfig::default()
            },
        );
        let mut rng = Lcg(31);
        let n = 200_000u64;
        let heavy = ip(7, 7, 7, 7);
        // The heavy flow sends few packets but large ones: 10% of packets,
        // weight 1400 each; the rest weight 64. Volume share ≈ 70%.
        let mut volume = 0u64;
        for i in 0..n {
            if i % 10 == 0 {
                algo.update_weighted(heavy, 1400);
                volume += 1400;
            } else {
                algo.update_weighted(rng.next() as u32, 64);
                volume += 64;
            }
        }
        assert_eq!(algo.total_weight(), volume);
        assert_eq!(algo.packets(), n);
        let out = algo.output(0.3);
        let entry = out
            .iter()
            .find(|h| h.prefix.key == heavy && h.prefix.node == algo.lattice().bottom())
            .expect("volume-heavy flow reported");
        let truth = (n / 10 * 1400) as f64;
        assert!(
            (entry.freq_upper - truth).abs() < 0.2 * truth,
            "estimate {} vs volume {truth}",
            entry.freq_upper
        );
    }

    #[test]
    fn three_dimensional_lattice_update_and_output() {
        // The paper (via Mitzenmacher et al.) notes the structure extends to
        // higher dimensions. Build a 3D hierarchy: src byte-pairs × dst
        // byte-pairs × port as an extra two-level dimension.
        use hhh_hierarchy::{FieldSpec, Lattice};
        let lat: Lattice<u128> = Lattice::new(
            "3d-src-dst-port",
            vec![
                FieldSpec::new(32, 16),
                FieldSpec::new(32, 16),
                FieldSpec::new(16, 16),
            ],
        );
        assert_eq!(lat.num_nodes(), 3 * 3 * 2);
        let mut algo = Rhhh::<u128>::new(
            lat,
            RhhhConfig {
                epsilon_s: 0.05,
                delta_s: 0.05,
                ..RhhhConfig::default()
            },
        );
        let mut rng = Lcg(35);
        for i in 0..200_000u64 {
            let (src, dst, port) = if i % 4 == 0 {
                // Hot aggregate: 10.20/16 -> anything, port 80.
                (
                    0x0A14_0000u32 | (rng.next() as u32 & 0xFFFF),
                    rng.next() as u32,
                    80u16,
                )
            } else {
                (rng.next() as u32, rng.next() as u32, rng.next() as u16)
            };
            let key = (u128::from(src) << 48) | (u128::from(dst) << 16) | u128::from(port);
            algo.update(key);
        }
        let out = algo.output(0.2);
        assert!(!out.is_empty(), "3D output must produce aggregates");
        for h in &out {
            assert!(h.conditioned.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "v_scale must be at least 1")]
    fn rejects_zero_v_scale() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let _ = Rhhh::<u32>::new(
            lat,
            RhhhConfig {
                v_scale: 0,
                ..RhhhConfig::default()
            },
        );
    }
}
