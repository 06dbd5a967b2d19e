//! Heavy-hitter counter algorithms — the per-lattice-node substrate of RHHH.
//!
//! The paper plugs one instance of a counter algorithm into every lattice
//! node (Section 3.2, following the structure of Mitzenmacher et al.). Any
//! algorithm that solves the **(ε, δ)-Frequency Estimation** problem of
//! Definition 4 works:
//!
//! > an algorithm solves (ε, δ)-Frequency Estimation if for any prefix `x`
//! > it provides `f̂_x` such that `Pr(|f_x − f̂_x| ≤ εN) ≥ 1 − δ`.
//!
//! The paper uses **Space Saving** "because it is believed to have an
//! empirical edge over other algorithms" and because its unit update is
//! O(1) worst-case — which is what makes RHHH's whole update O(1)
//! (Theorem 6.18). This crate provides:
//!
//! * [`SpaceSaving`] — the classic stream-summary implementation with true
//!   O(1) worst-case updates (doubly linked count buckets, Metwally et al.
//!   2005).
//! * [`CompactSpaceSaving`] — the same semantics on a tagged SoA arena:
//!   a SwissTable-style 1-byte fingerprint array probed ahead of
//!   temperature-split slot lanes, so misses resolve from the
//!   (L1-resident) tag bytes alone, with a lazily-maintained exact
//!   minimum over a multi-level window of the dense hot lane replacing
//!   the bucket lists (amortized O(1), see the
//!   [module docs](compact_space_saving)).
//! * [`MisraGries`] — the Frequent algorithm (deterministic underestimates,
//!   amortized O(1)).
//! * [`LossyCounting`] — Manku–Motwani buckets (deterministic, δ = 0).
//! * [`CuckooHeavyKeeper`] — a bucketized cuckoo table whose slots carry
//!   HeavyKeeper exponential-decay counts (arXiv 2412.12873):
//!   underestimate-only counts sandwiched by an exact unattributed-mass
//!   deficit, strongest in hit-light, eviction-heavy regimes (see the
//!   [module docs](cuckoo_heavy_keeper)).
//!
//! All of them implement [`FrequencyEstimator`], the crate's rendering of
//! Definition 4 plus the candidate enumeration RHHH's `Output` needs.
//!
//! # Choosing between the Space Saving layouts
//!
//! Both Space Saving implementations evict a true minimum, so their
//! guarantees — and even their count multisets — are identical; they
//! differ only in memory behaviour:
//!
//! * **Stream summary** ([`SpaceSaving`]): strict O(1) *worst case* per
//!   unit update. Pays for it with a separate hash index plus counter and
//!   bucket pointer walks (~100 KB working set at ε = 0.001, several
//!   dependent loads per update). Choose it for scalar (one-packet-at-a-
//!   time) deployments and when tail latency of a single update matters.
//! * **Tagged SoA arena** ([`CompactSpaceSaving`]): O(1) *amortized* (the
//!   rare minimum rescan costs one pass over a dense count array but total
//!   rescan work is bounded by the stream length). A 1-byte fingerprint
//!   array is probed ahead of the slot lanes, so misses — the dominant
//!   case on eviction-heavy tail nodes — resolve without loading any slot
//!   data, and the sorted batch flush amortizes replace-min work across
//!   each group via its [`FrequencyEstimator::flush_group`] hook. Choose
//!   it for the batch flush (`increment_batch` / RHHH's `update_batch`),
//!   where it sets the workspace's best throughput (ROADMAP
//!   "Performance"); RHHH's accuracy is insensitive to the swap (the
//!   counter's internals never leak into the analysis, only Definition 4
//!   does — and the differential suite pins the two layouts to identical
//!   count multisets).
//!
//! # Example
//!
//! ```
//! use hhh_counters::{FrequencyEstimator, SpaceSaving};
//!
//! let mut ss: SpaceSaving<u32> = SpaceSaving::with_capacity(100); // ε_a = 1%
//! for _ in 0..900 { ss.increment(7); }
//! for i in 0..100 { ss.increment(i + 1000); }
//!
//! assert!(ss.upper(&7) >= 900);              // never underestimates
//! assert!(ss.lower(&7) <= 900);              // never overestimates
//! assert!(ss.upper(&7) - ss.lower(&7) <= 10); // error ≤ N/capacity
//! ```

mod compact_space_saving;
mod cuckoo_heavy_keeper;
mod fast_hash;
mod frozen;
mod lossy_counting;
mod misra_gries;
pub mod mix;
mod space_saving;
mod tagged_table;

pub use compact_space_saving::CompactSpaceSaving;
pub use cuckoo_heavy_keeper::CuckooHeavyKeeper;
pub use fast_hash::{FastHasher, IntHashBuilder};
pub use frozen::{merge_entries_many, Frozen};
pub use lossy_counting::LossyCounting;
pub use misra_gries::MisraGries;
pub use space_saving::SpaceSaving;

use std::fmt::Debug;
use std::hash::Hash;

/// Key types accepted by the counter algorithms: cheap to copy, hash,
/// compare and order (ordering lets batch flushes group duplicates).
/// Blanket-implemented for anything suitable (the packed integer keys of
/// `hhh-hierarchy` in particular).
pub trait CounterKey: Copy + Ord + Hash + Debug + Send + 'static {}
impl<T: Copy + Ord + Hash + Debug + Send + 'static> CounterKey for T {}

/// One monitored candidate reported by a counter algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate<K> {
    /// The monitored key.
    pub key: K,
    /// Upper bound on the number of updates for this key (`X̂⁺`).
    pub upper: u64,
    /// Lower bound on the number of updates for this key (`X̂⁻`).
    pub lower: u64,
}

/// The (ε, δ)-Frequency Estimation interface of Definition 4, extended with
/// the candidate enumeration that `Output` (Algorithm 1) requires and the
/// one combine of frozen parts ([`Self::combine`]) that shard-parallel and
/// windowed deployments answer from.
///
/// Implementations count *updates* (the paper's `X_p`); RHHH scales them by
/// `V` to estimate frequencies (Definition 11).
pub trait FrequencyEstimator<K: CounterKey>: Send + 'static {
    /// Creates an instance with `capacity` counters, i.e. `ε_a ≈ 1/capacity`
    /// for the deterministic algorithms.
    ///
    /// # Panics
    ///
    /// Implementations panic when `capacity == 0`.
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Processes one occurrence of `key` — the `INCREMENT` of Algorithm 1
    /// line 5.
    fn increment(&mut self, key: K);

    /// Processes `weight` occurrences of `key` at once — the paper's
    /// weighted-input setting (Section 2 notes MST costs `O(H·log 1/ε)`
    /// per weighted update; the stream-summary implementation here walks
    /// at most the number of distinct counts crossed).
    ///
    /// The default implementation loops [`Self::increment`]; structures
    /// with a cheaper native path override it.
    fn add(&mut self, key: K, weight: u64) {
        for _ in 0..weight {
            self.increment(key);
        }
    }

    /// Processes a slice of occurrences in one call — the sink of RHHH's
    /// batch update path, which delivers each lattice node its selected
    /// packets grouped together.
    ///
    /// Equivalent to calling [`Self::increment`] once per element, in
    /// order. The default implementation does exactly that; structures with
    /// a per-key index override it to reuse the index lookup across runs of
    /// equal consecutive keys (after node masking, runs are common: every
    /// key collapses to zero at the root node, and coarse prefixes collapse
    /// whole subnets).
    fn increment_batch(&mut self, keys: &[K]) {
        for &k in keys {
            self.increment(k);
        }
    }

    /// Processes one *unordered* group of occurrences — the shape RHHH's
    /// batch pipeline produces per lattice node after masking. This is the
    /// estimator's one flush hook. `sort` is the caller's ascending
    /// sorter and must produce exactly `sort_unstable`'s order (RHHH
    /// passes a radix sort that skips the byte positions a node's mask
    /// zeroed). Equal keys are indistinguishable, so any ascending sorter
    /// leaves the same state.
    ///
    /// The default sorts so duplicates become runs for
    /// [`Self::increment_batch`]. An override may pick its own processing
    /// order and batch its evictions ([`CompactSpaceSaving`] chooses
    /// sorted or arrival order from a learned miss-ratio estimate and
    /// serves each run of slot-stealing keys as one minimum-level sweep).
    /// Overrides must evict true minima in the order they process — any
    /// order is a tie-break Definition 4 never observes — so the count
    /// multiset matches per-key processing of that same order exactly;
    /// only the tie-break among equal minima may differ. The slice is
    /// reordered in place.
    fn flush_group(&mut self, keys: &mut [K], sort: &mut dyn FnMut(&mut [K])) {
        sort(keys);
        self.increment_batch(keys);
    }

    /// The combine of `parts` — frozen summaries of *different portions* of
    /// one logical stream, built with the same capacity — into one frozen
    /// summary of the concatenated stream. This is each family's one
    /// combine rule: a summary is frozen once, when it stops updating
    /// ([`Frozen::freeze`]), and every combine reads frozen parts only. A
    /// single part is returned as is.
    ///
    /// The contract every rule keeps (following Mitzenmacher, Steinke &
    /// Thaler's merge analysis for Space-Saving-style summaries):
    ///
    /// * the view's `updates()` is the sum of the parts' update counts;
    /// * the sandwich survives: for every key, `lower(x) ≤ X ≤ upper(x)`
    ///   where `X` is the key's count in the concatenated stream;
    /// * the additive error is at most the *sum* of the parts' per-summary
    ///   error bounds (`n₁/m + … + n_K/m = n/m`), so combining `K` shards of
    ///   one stream costs no accuracy versus one instance of the same
    ///   capacity — only the constant hidden in the per-shard bound.
    ///
    /// The Space Saving layouts combine *exactly*, over all `K` parts at
    /// once ([`merge_entries_many`]). Misra–Gries and Lossy Counting fold
    /// their pairwise rules over the parts in order and emit their entries
    /// in ascending key order, and Cuckoo Heavy Keeper re-inserts the
    /// summed counts largest first, charging every drop to its deficit;
    /// each documents its bound inline.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or the capacities differ.
    fn combine(parts: &[&Frozen<K>]) -> Frozen<K>
    where
        Self: Sized;

    /// Total number of updates processed (the per-instance `X_i`).
    fn updates(&self) -> u64;

    /// Upper bound `X̂⁺_x` on the number of updates of `key`; must satisfy
    /// `X_x ≤ upper(x)` (deterministically, or with the algorithm's δ).
    fn upper(&self, key: &K) -> u64;

    /// Lower bound `X̂⁻_x`; must satisfy `lower(x) ≤ X_x`.
    fn lower(&self, key: &K) -> u64;

    /// The `upper` of any key the instance does not monitor: the Space
    /// Saving min-count (0 while the instance is not full), the Misra–Gries
    /// or Cuckoo Heavy Keeper deficit, or Lossy Counting's `bucket − 1`.
    /// [`Frozen`] views carry it so they answer unmonitored keys as the
    /// live instance does.
    fn unmonitored_upper(&self) -> u64;

    /// All currently monitored candidates with their bounds. Every key whose
    /// update count exceeds `updates()/capacity` is guaranteed to appear
    /// (the heavy-hitter property of Definition 5).
    fn candidates(&self) -> Vec<Candidate<K>>;

    /// Visits [`Self::candidates`] in the same order without collecting
    /// them — the walk `Output(θ)` makes over every node. The default
    /// collects and replays; the Space Saving layouts walk their slots in
    /// place.
    fn for_each_candidate(&self, mut f: impl FnMut(Candidate<K>))
    where
        Self: Sized,
    {
        for c in self.candidates() {
            f(c);
        }
    }

    /// Number of counters the instance was built with.
    fn capacity(&self) -> usize;

    /// The deterministic additive error guarantee after `n` updates:
    /// `n / capacity` for the counter algorithms in this crate.
    fn error_bound(&self) -> u64 {
        self.updates() / self.capacity() as u64
    }
}

/// Number of counters needed for error `epsilon_a`, adjusted for RHHH's
/// over-sampling per Corollary 6.5: a node may receive up to
/// `(1 + ε_s)·N/V` updates instead of `N/V`, so the instance is sized for
/// `ε'_a = ε_a / (1 + ε_s)`.
///
/// The paper's example: "Space Saving requires 1,000 counters for
/// ε_a = 0.001. If we set ε_s = 0.001, we now require 1001 counters."
///
/// # Panics
///
/// Panics when `epsilon_a` is not in `(0, 1]` or `epsilon_s` is negative.
#[must_use]
pub fn counters_for(epsilon_a: f64, epsilon_s: f64) -> usize {
    assert!(
        epsilon_a > 0.0 && epsilon_a <= 1.0,
        "epsilon_a must lie in (0, 1], got {epsilon_a}"
    );
    assert!(epsilon_s >= 0.0, "epsilon_s must be non-negative");
    ((1.0 + epsilon_s) / epsilon_a).ceil() as usize
}

/// Run-length encodes a key slice: invokes `f(key, run_length)` once per
/// maximal run of equal consecutive keys. The `increment_batch` overrides
/// share this so a sorted node group costs one index probe per *distinct*
/// key instead of one per element.
#[inline]
pub(crate) fn for_each_run<K: CounterKey>(keys: &[K], mut f: impl FnMut(K, u64)) {
    let mut i = 0;
    while i < keys.len() {
        let key = keys[i];
        let mut j = i + 1;
        while j < keys.len() && keys[j] == key {
            j += 1;
        }
        f(key, (j - i) as u64);
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_for_matches_paper_example() {
        assert_eq!(counters_for(0.001, 0.001), 1001);
        assert_eq!(counters_for(0.001, 0.0), 1000);
        assert_eq!(counters_for(0.01, 0.0), 100);
    }

    #[test]
    #[should_panic(expected = "epsilon_a must lie in (0, 1]")]
    fn counters_for_rejects_zero() {
        let _ = counters_for(0.0, 0.0);
    }

    #[test]
    fn for_each_run_merges_maximal_runs() {
        let mut seen: Vec<(u32, u64)> = Vec::new();
        for_each_run(&[7u32, 7, 7, 1, 2, 2, 7], |k, w| seen.push((k, w)));
        assert_eq!(seen, vec![(7, 3), (1, 1), (2, 2), (7, 1)]);
        seen.clear();
        for_each_run(&[], |k: u32, w| seen.push((k, w)));
        assert!(seen.is_empty());
    }
}
