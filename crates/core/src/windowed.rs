//! Pane-ring sliding-window RHHH for continuous monitoring.
//!
//! The paper sets the performance parameter V for a fixed measurement
//! interval ("When the minimal measurement interval is known in advance,
//! the parameter V can be set to satisfy correctness at the end of the
//! measurement", Section 6.3). Operational deployments need *rolling*
//! answers: "what are the HHHs over the last W packets, right now?".
//!
//! # The pane ring
//!
//! [`WindowedRhhh`] approximates a W-packet sliding window with a ring of
//! `G` sub-epoch **panes**, each an independent [`Rhhh`] instance over
//! `⌈W/G⌉` packets:
//!
//! * the **active** pane absorbs updates — through the scalar path or the
//!   geometric-skip [`Rhhh::update_batch`] / [`Rhhh::update_batch_weighted`]
//!   paths (batches that straddle a pane boundary are split at the
//!   boundary, so pane attribution is exact);
//! * every `⌈W/G⌉` packets the ring **rotates**: the active pane is frozen
//!   ([`Rhhh::freeze`]) and joins the completed set, the oldest completed
//!   pane beyond `G` is dropped, and a fresh pane (fresh deterministic
//!   seed) starts absorbing;
//! * a **query** combines the last `G` frozen panes in a single K-way
//!   pass into a read-only [`FrozenRhhh`] view ([`Rhhh::combine`]) and
//!   runs `Output(θ)` on it.
//!
//! # Coverage and staleness
//!
//! Once `G` panes have completed, every query covers exactly
//! `G·⌈W/G⌉ ≥ W` packets, ending between `0` and `⌈W/G⌉` packets ago (the
//! active pane's fill is the staleness). The covered interval therefore
//! always spans `[W, W + W/G)` packets counted back from "now" — against
//! the classic two-epoch jumping window's `[W, 2W)`, the slop shrinks from
//! a full window to one pane. `G = 1` recovers the jumping window.
//!
//! # Accuracy
//!
//! Each pane is an independent RHHH instance, so the combine analysis of
//! [`Rhhh::try_combine`] applies verbatim: per-pane counter errors add
//! (`Σᵢ ε·Nᵢ = ε·W` — the same class as one instance over the window) and
//! the panes' independent sampling errors add in variance, which the
//! view's `slack()` over the covered `N` charges. The per-query
//! error is bounded by the *summed per-pane bounds*, pinned by the
//! `windowed_props` suite against an exact oracle over the covered range.
//! Convergence of the combined answer needs the covered window to pass ψ;
//! a shorter window answers with [`FrozenRhhh::converged`] false.
//!
//! # Query cost and the cached view
//!
//! Nothing updates a completed pane, so it is frozen once, at rotation:
//! the ring keeps each completed pane as a shared (`Arc`) [`FrozenRhhh`]
//! — its entries, bounds and totals, without the estimator structures or
//! the sampler's scratch — and drops the live pane. [`WindowedRhhh::query`]
//! combines the frozen panes into one [`FrozenRhhh`]: per node, the
//! counter family's one combine rule runs over the G panes (for Space
//! Saving, one hash combine with min-count padding, a linear-time select
//! that drops the union beyond capacity, and a sort of only the kept
//! entries). No live pane is cloned and no stream summary or arena is
//! rebuilt. [`WindowedRhhh::merged_window`] builds the same view without
//! the cache.
//!
//! The view is **cached**: it is built at most once per pane (lazily, after
//! the rotation that invalidated it), so a steady query cadence pays the
//! combine once per `⌈W/G⌉` packets and every other query is one
//! `Output(θ)` scan of the cached view. Measured with perfbench
//! `window-v1` (G = 4 panes of 2¹⁹ packets, ε = 0.001, V = H, on a 2-CPU
//! x86-64 host, medians of ten interleaved 30 s pairs; see ROADMAP
//! "Performance"): a post-rotation query (combine plus `Output`) takes
//! 2.9 ms, and a cached query 0.14 ms.
//! [`WindowedRhhh::query_fresh`] bypasses the cache for callers that want
//! the combine-per-query cost model (and for differential tests).

use std::collections::VecDeque;
use std::sync::Arc;

use hhh_counters::{FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::{KeyBits, Lattice};

use crate::output::HeavyHitter;
use crate::rhhh::{Rhhh, RhhhConfig};
use crate::view::FrozenRhhh;
use crate::HhhAlgorithm;

/// Derives the seed of pane `rotation + 1` from the base seed: panes stay
/// statistically independent while the whole ring remains a pure function
/// of the configuration. [`PaneRing::rotate`] seeds each fresh pane with
/// it, and a shard fleet's ingress reseeds its sampler with it.
#[must_use]
pub fn pane_seed(base: u64, rotation: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rotation.wrapping_add(1))
}

/// A ring of RHHH panes: one active instance absorbing updates plus the
/// last `keep` completed panes, frozen at their rotation, rotated
/// externally.
///
/// This is the storage half of [`WindowedRhhh`], split out so external
/// drivers — the shard workers of `hhh_vswitch`'s windowed pipeline, whose
/// rotation points are dictated by the *global* packet count rather than
/// the local one — can run the same ring with their own rotation trigger.
#[derive(Debug, Clone)]
pub struct PaneRing<K: KeyBits, E: FrequencyEstimator<K> = SpaceSaving<K>> {
    active: Rhhh<K, E>,
    /// Oldest → newest; `len() ≤ keep`. Shared, so a shard fleet's
    /// snapshots publish them without a copy.
    completed: VecDeque<Arc<FrozenRhhh<K>>>,
    keep: usize,
    rotations: u64,
    base_seed: u64,
}

impl<K: KeyBits, E: FrequencyEstimator<K>> PaneRing<K, E> {
    /// Creates a ring retaining the last `keep` completed panes.
    ///
    /// # Panics
    ///
    /// Panics if `keep == 0`.
    #[must_use]
    pub fn new(lattice: Lattice<K>, config: RhhhConfig, keep: usize) -> Self {
        assert!(keep > 0, "must keep at least one completed pane");
        Self {
            active: Rhhh::new(lattice, config),
            completed: VecDeque::with_capacity(keep),
            keep,
            rotations: 0,
            base_seed: config.seed,
        }
    }

    /// The in-progress pane.
    #[must_use]
    pub fn active(&self) -> &Rhhh<K, E> {
        &self.active
    }

    /// Mutable access to the in-progress pane (the update feed).
    pub fn active_mut(&mut self) -> &mut Rhhh<K, E> {
        &mut self.active
    }

    /// Completed panes, frozen, oldest first (at most `keep`).
    pub fn completed(&self) -> impl Iterator<Item = &Arc<FrozenRhhh<K>>> {
        self.completed.iter()
    }

    /// Number of completed panes currently retained.
    #[must_use]
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Total rotations so far (= panes completed over the ring's lifetime,
    /// including panes already aged out).
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Completes the active pane: it is frozen and joins the retained set
    /// (evicting the oldest pane beyond `keep`), the live pane is dropped,
    /// and a fresh pane with a fresh deterministic seed starts absorbing.
    pub fn rotate(&mut self) {
        let lattice = self.active.lattice().clone();
        let mut config = *self.active.config();
        config.seed = pane_seed(self.base_seed, self.rotations);
        let done = std::mem::replace(&mut self.active, Rhhh::new(lattice, config));
        self.completed.push_back(Arc::new(done.freeze()));
        if self.completed.len() > self.keep {
            self.completed.pop_front();
        }
        self.rotations += 1;
    }
}

/// Sliding-window RHHH over a [`PaneRing`]: rotates every `⌈W/G⌉` packets,
/// answers queries over the last `G` completed panes from a cached
/// combined view. See the [module docs](self) for coverage, accuracy and cost.
#[derive(Debug, Clone)]
pub struct WindowedRhhh<K: KeyBits, E: FrequencyEstimator<K> = SpaceSaving<K>> {
    ring: PaneRing<K, E>,
    /// Requested window W (packets).
    window: u64,
    /// Rotation period `⌈W/G⌉`.
    pane_len: u64,
    /// Cached merged view of the retained completed panes; rebuilt
    /// lazily after a rotation invalidates it, so steady query cadences
    /// pay the K-way combine once per pane.
    cached: Option<FrozenRhhh<K>>,
}

impl<K: KeyBits, E: FrequencyEstimator<K>> WindowedRhhh<K, E> {
    /// Creates a sliding-window instance over the last `window` packets,
    /// approximated by `panes` ring panes of `⌈window/panes⌉` packets each.
    ///
    /// The merged per-window guarantee binds only once the window covers
    /// more than the configuration's ψ packets. A shorter window is still
    /// a valid configuration and is not checked here: every answer it
    /// gives reads `N ≤ ψ`, which [`FrozenRhhh::converged`] reports.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `panes == 0`, or `window < panes` (panes
    /// must hold at least one packet).
    #[must_use]
    pub fn new(lattice: Lattice<K>, config: RhhhConfig, window: u64, panes: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(panes > 0, "need at least one pane");
        assert!(
            window >= panes as u64,
            "window must hold at least one packet per pane"
        );
        let pane_len = window.div_ceil(panes as u64);
        Self {
            ring: PaneRing::new(lattice, config, panes),
            window,
            pane_len,
            cached: None,
        }
    }

    /// The requested window W.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The number of panes G in the ring.
    #[must_use]
    pub fn pane_count(&self) -> usize {
        self.ring.keep
    }

    /// The rotation period `⌈W/G⌉` in packets.
    #[must_use]
    pub fn pane_len(&self) -> u64 {
        self.pane_len
    }

    /// Processes one packet; rotates panes at pane boundaries.
    #[inline]
    pub fn update(&mut self, key: K) {
        self.ring.active_mut().update(key);
        if HhhAlgorithm::packets(self.ring.active()) >= self.pane_len {
            self.rotate();
        }
    }

    /// Processes a slice of packets through the geometric-skip batch path.
    /// Batches that straddle one or more pane boundaries are split at each
    /// boundary, so every packet lands in the pane its index dictates —
    /// feeding one straddling batch is bit-identical to feeding the
    /// boundary-aligned sub-batches separately.
    pub fn update_batch(&mut self, keys: &[K]) {
        self.feed(keys, Rhhh::update_batch);
    }

    /// Processes a slice of packets each carrying `weight` units (e.g.
    /// bytes) — the volume feed. Selection stays per packet, and pane
    /// boundaries count packets, not weight, splitting straddling batches
    /// exactly as [`WindowedRhhh::update_batch`] does.
    pub fn update_batch_weighted(&mut self, packets: &[(K, u64)]) {
        self.feed(packets, Rhhh::update_batch_weighted);
    }

    /// Splits `items` at every pane boundary it straddles and hands each
    /// piece to the active pane through `update`.
    fn feed<T>(&mut self, items: &[T], update: impl Fn(&mut Rhhh<K, E>, &[T])) {
        let mut rest = items;
        while !rest.is_empty() {
            let room = self.pane_len - HhhAlgorithm::packets(self.ring.active());
            let (piece, later) = rest.split_at((rest.len() as u64).min(room) as usize);
            update(self.ring.active_mut(), piece);
            if HhhAlgorithm::packets(self.ring.active()) >= self.pane_len {
                self.rotate();
            }
            rest = later;
        }
    }

    fn rotate(&mut self) {
        self.ring.rotate();
        // The completed set changed: the merged snapshot no longer covers
        // the window. Updates into the active pane never invalidate —
        // completed panes are immutable — which is what makes the cache
        // refresh once per pane rather than once per packet.
        self.cached = None;
    }

    /// Panes completed over the monitor's lifetime.
    #[must_use]
    pub fn panes_completed(&self) -> u64 {
        self.ring.rotations()
    }

    /// Packets absorbed by the in-progress pane — the staleness of the
    /// windowed answer, always `< ⌈W/G⌉`.
    #[must_use]
    pub fn current_fill(&self) -> u64 {
        HhhAlgorithm::packets(self.ring.active())
    }

    /// Lifetime packets fed (completed panes plus the active fill).
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.ring.rotations() * self.pane_len + self.current_fill()
    }

    /// Packets covered by the windowed answer right now:
    /// `min(G, completed) · ⌈W/G⌉`, i.e. at least `W` once `G` panes have
    /// completed.
    #[must_use]
    pub fn covered_packets(&self) -> u64 {
        self.ring.completed_len() as u64 * self.pane_len
    }

    /// The absolute packet-index interval `[start, end)` the windowed
    /// answer covers (indices count from 0 over the monitor's lifetime).
    /// `end` trails "now" by [`WindowedRhhh::current_fill`] packets.
    #[must_use]
    pub fn covered_range(&self) -> (u64, u64) {
        let end = self.ring.rotations() * self.pane_len;
        (end - self.covered_packets(), end)
    }

    /// The view over the covered window, built fresh (one combine of the
    /// frozen panes per call, no cache). Its packet and weight totals cover
    /// exactly the retained panes. Queries read the cached
    /// [`WindowedRhhh::view`] instead. `None` until the first rotation.
    #[must_use]
    pub fn merged_window(&self) -> Option<FrozenRhhh<K>> {
        let panes: Vec<&FrozenRhhh<K>> = self.ring.completed().map(|p| &**p).collect();
        (!panes.is_empty()).then(|| Rhhh::<K, E>::combine(&panes))
    }

    /// The cached merged view over the covered window — node estimates,
    /// `N`, slack, ψ and convergence of the answer [`WindowedRhhh::query`]
    /// gives — built if a rotation invalidated it. `None` until the first
    /// rotation.
    pub fn view(&mut self) -> Option<&FrozenRhhh<K>> {
        if self.cached.is_none() {
            self.cached = self.merged_window();
        }
        self.cached.as_ref()
    }

    /// HHHs over the covered window, served from the cached merged view:
    /// the K-way combine runs at most once per pane (after the rotation
    /// that invalidated the view), every other call is just `Output(θ)`
    /// on the view. `None` until the first rotation.
    #[must_use]
    pub fn query(&mut self, theta: f64) -> Option<Vec<HeavyHitter<K>>> {
        self.view().map(|v| v.output(theta))
    }

    /// HHHs over the covered window with a fresh combine per call — the
    /// combine-per-query cost model [`WindowedRhhh::query`]'s cache exists
    /// to avoid; kept for callers that must not observe a cached view (and
    /// as the reference side of the cache-coherence property tests).
    #[must_use]
    pub fn query_fresh(&self, theta: f64) -> Option<Vec<HeavyHitter<K>>> {
        self.merged_window().map(|v| v.output(theta))
    }

    /// The view of the in-progress pane alone (partial; noisier early in
    /// the pane).
    #[must_use]
    pub fn current_view(&self) -> FrozenRhhh<K> {
        self.ring.active().freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_hierarchy::pack2;

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

    /// ψ ≈ 1.96·25/0.01 ≈ 4.9k for the 2D lattice — every window below
    /// uses at least 10k, so its answers are past ψ.
    fn config() -> RhhhConfig {
        RhhhConfig {
            epsilon_a: 0.01,
            epsilon_s: 0.1,
            delta_s: 0.05,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 77,
        }
    }

    #[test]
    fn rotates_every_pane() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut w = WindowedRhhh::<u32>::new(lat, config(), 40_000, 4);
        assert_eq!(w.pane_len(), 10_000);
        let mut rng = Lcg(1);
        for _ in 0..35_000 {
            w.update(rng.next() as u32);
        }
        assert_eq!(w.panes_completed(), 3);
        assert_eq!(w.current_fill(), 5_000);
        assert_eq!(w.total_packets(), 35_000);
        assert_eq!(w.covered_packets(), 30_000, "3 completed panes retained");
        assert_eq!(w.covered_range(), (0, 30_000));
        // Past G completed panes, coverage pins at G panes and slides.
        for _ in 0..20_000 {
            w.update(rng.next() as u32);
        }
        assert_eq!(w.panes_completed(), 5);
        assert_eq!(w.covered_packets(), 40_000);
        assert_eq!(w.covered_range(), (10_000, 50_000));
    }

    #[test]
    fn windowed_answers_age_out_old_traffic() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut w = WindowedRhhh::<u64>::new(lat.clone(), config(), 100_000, 4);
        assert!(w.query(0.1).is_none(), "no pane finished yet");
        let mut rng = Lcg(2);
        // Window 1: heavy subnet A. Window 2: heavy subnet B.
        for i in 0..100_000u64 {
            let key = if i % 3 == 0 {
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), 0x0808_0808)
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            };
            w.update(key);
        }
        let phase1 = w.query(0.1).expect("window complete");
        assert!(
            phase1
                .iter()
                .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
            "window 1 must show subnet A"
        );
        for i in 0..100_000u64 {
            let key = if i % 3 == 0 {
                pack2(0x0B15_0000 | (rng.next() as u32 & 0xFFFF), 0x0808_0808)
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            };
            w.update(key);
        }
        let phase2 = w.query(0.1).expect("window complete");
        assert!(
            phase2
                .iter()
                .any(|h| h.prefix.display(&lat).contains("11.21.0.0/16")),
            "window 2 must show subnet B"
        );
        assert!(
            !phase2
                .iter()
                .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
            "subnet A aged out of the 4-pane window"
        );
    }

    #[test]
    fn cached_query_matches_fresh_merge() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut w = WindowedRhhh::<u64>::new(lat, config(), 20_000, 4);
        let mut rng = Lcg(3);
        let compare = |w: &mut WindowedRhhh<u64>| {
            let cached = w.query(0.05);
            let fresh = w.query_fresh(0.05);
            match (cached, fresh) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.prefix, y.prefix);
                        assert_eq!(x.freq_upper, y.freq_upper);
                    }
                }
                (a, b) => panic!("cache and fresh disagree on availability: {a:?} vs {b:?}"),
            }
        };
        // Across several rotations, a cached query must be bit-identical
        // to a fresh merge — including right after each invalidation.
        for _ in 0..7 {
            for _ in 0..3_000 {
                w.update(rng.next());
            }
            compare(&mut w);
            compare(&mut w); // second hit serves the snapshot
        }
    }

    #[test]
    fn panes_use_distinct_seeds() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut w = WindowedRhhh::<u32>::new(lat, config(), 10_000, 2);
        for i in 0..12_000u32 {
            w.update(i);
        }
        assert_eq!(w.panes_completed(), 2);
        let seeds: Vec<u64> = w.ring.completed().map(|p| p.config().seed).collect();
        assert_eq!(seeds.len(), 2);
        assert_ne!(seeds[0], seeds[1], "completed panes share a seed");
        assert_ne!(
            seeds[1],
            w.ring.active().config().seed,
            "active pane reuses a completed seed"
        );
    }

    #[test]
    fn single_pane_is_the_jumping_window() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let mut w = WindowedRhhh::<u32>::new(lat, config(), 10_000, 1);
        let mut rng = Lcg(9);
        for _ in 0..25_000 {
            w.update(rng.next() as u32);
        }
        assert_eq!(w.pane_len(), 10_000);
        assert_eq!(w.covered_packets(), 10_000, "G = 1 covers exactly W");
        assert_eq!(w.covered_range(), (10_000, 20_000));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let _ = WindowedRhhh::<u32>::new(lat, config(), 0, 4);
    }

    #[test]
    #[should_panic(expected = "need at least one pane")]
    fn zero_panes_rejected() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let _ = WindowedRhhh::<u32>::new(lat, config(), 10_000, 0);
    }

    #[test]
    #[should_panic(expected = "at least one packet per pane")]
    fn window_smaller_than_pane_count_rejected() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
        let _ = WindowedRhhh::<u32>::new(lat, config(), 3, 4);
    }
}
