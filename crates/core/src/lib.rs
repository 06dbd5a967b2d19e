//! # RHHH — Randomized Hierarchical Heavy Hitters
//!
//! A from-scratch reproduction of *Constant Time Updates in Hierarchical
//! Heavy Hitters* (Ben Basat, Einziger, Friedman, Luizelli, Waisbard —
//! SIGCOMM 2017).
//!
//! Hierarchical heavy hitters (HHH) aggregate flows by shared prefixes:
//! in a DDoS, no single source is heavy, but a source subnet is. Prior
//! algorithms update **every** lattice node per packet — Ω(H) work, where
//! H = 25 for the source×destination byte lattice. [`Rhhh`] keeps the same
//! structure (one counter-algorithm instance per lattice node) but updates
//! **at most one node per packet**, chosen uniformly at random, which makes
//! the per-packet cost O(1) worst case (Theorem 6.18) at the price of
//! needing `ψ = Z_{1-δ_s/2}·V·ε_s⁻²` packets to converge (Theorem 6.3).
//!
//! The crate provides:
//!
//! * [`Rhhh`] — Algorithm 1 with the `V` performance knob (`V = H` updates
//!   every packet; `V = 10·H` is the paper's "10-RHHH") and the
//!   multi-update extension of Corollary 6.8.
//! * [`output`] — the `Output(θ)` procedure shared with the deterministic
//!   baselines: conditioned-frequency estimation with `calcPred` in one
//!   dimension (Algorithm 2) and the glb inclusion–exclusion in two
//!   (Algorithm 3).
//! * [`FrozenRhhh`] — a read-only view: an instance frozen once it stops
//!   updating ([`Rhhh::freeze`]), or the combine of frozen views
//!   ([`Rhhh::combine`]); every window and fleet answer reads one.
//! * [`exact`] — exact HHH per Definitions 6–8, used as ground truth by the
//!   evaluation metrics.
//! * [`HhhAlgorithm`] — the interface the evaluation harness uses to drive
//!   RHHH and every baseline uniformly.
//!
//! # Quickstart
//!
//! ```
//! use hhh_core::{Rhhh, RhhhConfig, HhhAlgorithm};
//! use hhh_hierarchy::{Lattice, pack2};
//!
//! // 2D source/destination byte hierarchy (H = 25), V = H.
//! let lattice = Lattice::ipv4_src_dst_bytes();
//! let config = RhhhConfig::default();
//! let mut algo = Rhhh::<u64>::new(lattice, config);
//!
//! // A subnet (10.1.0.0/16 -> 8.8.8.8) sends ~a third of the traffic.
//! let mut x = 1u64;
//! for i in 0..200_000u64 {
//!     x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
//!     let src = if i % 3 == 0 {
//!         0x0A01_0000 | ((x as u32) & 0xFFFF)
//!     } else {
//!         x as u32
//!     };
//!     algo.insert(pack2(src, 0x0808_0808));
//! }
//!
//! let hhhs = algo.query(0.1); // θ = 10%
//! assert!(!hhhs.is_empty());
//! ```

pub mod batch;
pub mod counter;
pub mod exact;
pub mod output;
pub mod radix;
pub mod rhhh;
pub mod sampling;
pub mod view;
pub mod windowed;

pub use batch::{Lane, Sampler};
pub use counter::CounterKind;
pub use exact::ExactHhh;
pub use output::{HeavyHitter, NodeEstimates};
pub use rhhh::{Rhhh, RhhhConfig};
pub use view::FrozenRhhh;
pub use windowed::{pane_seed, PaneRing, WindowedRhhh};

use hhh_hierarchy::KeyBits;

/// Why RHHH instances could not be combined into one view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The instances measure different hierarchies or run incompatible
    /// configurations; the message names the field.
    ConfigMismatch(String),
    /// A parallel pipeline could not produce one of the summaries the
    /// merge needed: a shard worker died (panicked) mid-feed, so its
    /// sub-stream's summary is lost and any merged answer would silently
    /// under-count. The message names the shard and, when available, the
    /// panic payload.
    ShardFailed(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ConfigMismatch(what) => write!(f, "incompatible configurations: {what}"),
            Self::ShardFailed(what) => write!(f, "shard worker failed before harvest: {what}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Uniform driver interface for HHH algorithms — RHHH and the baselines all
/// implement it so the evaluation harness, the benches and the virtual
/// switch monitors can treat them interchangeably.
pub trait HhhAlgorithm<K: KeyBits>: Send {
    /// Processes one packet keyed by `key` (already packed for the
    /// algorithm's lattice).
    fn insert(&mut self, key: K);

    /// Processes a whole slice of packets. The default simply loops
    /// [`Self::insert`]; algorithms with a cheaper slice-at-a-time path
    /// (RHHH's geometric-skip batch update) override it, so callers that
    /// hold packets in bursts — the CLI, the vswitch datapath, the benches
    /// — get the fast path even through `dyn HhhAlgorithm`.
    fn insert_batch(&mut self, keys: &[K]) {
        for &k in keys {
            self.insert(k);
        }
    }

    /// Number of packets processed so far (the paper's `N`).
    fn packets(&self) -> u64;

    /// Runs `Output(θ)` and returns the approximate HHH set.
    fn query(&self, theta: f64) -> Vec<HeavyHitter<K>>;

    /// Short human-readable algorithm name for reports ("RHHH", "MST", …).
    fn name(&self) -> String;
}

impl<K: KeyBits> HhhAlgorithm<K> for Box<dyn HhhAlgorithm<K>> {
    fn insert(&mut self, key: K) {
        (**self).insert(key);
    }

    fn insert_batch(&mut self, keys: &[K]) {
        (**self).insert_batch(keys);
    }

    fn packets(&self) -> u64 {
        (**self).packets()
    }

    fn query(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        (**self).query(theta)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}
