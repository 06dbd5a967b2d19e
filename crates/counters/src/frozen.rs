//! Read-only node summaries: the parts every combine reads.
//!
//! `Output(θ)` (Algorithm 1, lines 11–16) only *reads* per-node bounds:
//! the monitored candidates, and `upper`/`lower` for the few keys its
//! `calcPred` correction looks up. A [`Frozen`] holds exactly that — the
//! `(key, count, error)` entries, the bound every unmonitored key obeys,
//! the update count and the capacity the summary was built with — so a
//! summary that stops updating (a completed window pane, a published
//! snapshot, a harvested shard) is frozen once and read from then on
//! without a live, updatable structure (a hash index plus bucket lists, or
//! an arena).
//!
//! [`FrequencyEstimator::combine`] builds the view of several frozen parts
//! by the one combine rule of each counter family: the Space Saving
//! layouts' K-way combine ([`merge_entries_many`]), the Misra–Gries and
//! Lossy Counting pairwise rules folded over the parts, or Cuckoo Heavy
//! Keeper's largest-first re-insert. Each rule reads only the parts'
//! entries and unmonitored-key bounds — all the per-part error analysis of
//! Mitzenmacher, Steinke & Thaler needs.

use std::sync::OnceLock;

use crate::fast_hash::{FastMap, IntHashBuilder};
use crate::{Candidate, CounterKey, FrequencyEstimator};

/// One node's read-only summary: the answers of a live instance, or of the
/// combine of several, with nothing that updates.
///
/// Entries are `(key, count, error)`: `upper = count` and
/// `lower = count − error` for a monitored key. A key absent from the
/// entries has `upper` equal to the part's per-instance bound for an
/// unmonitored key (the Space Saving min-count, the Misra–Gries or Cuckoo
/// Heavy Keeper deficit, Lossy Counting's `bucket − 1`, or 0 while the
/// instance is not full) and `lower = 0`.
#[derive(Debug, Clone)]
pub struct Frozen<K: CounterKey> {
    /// In the live instance's own [`FrequencyEstimator::candidates`] order
    /// for a frozen instance; in `(count, key)` order for a Space Saving
    /// combine of several parts; ascending by key for a Misra–Gries or
    /// Lossy Counting combine.
    entries: Vec<(K, u64, u64)>,
    unmonitored: u64,
    updates: u64,
    capacity: usize,
    /// Key → entry position, built on the first lookup: `Output(θ)` looks
    /// keys up at only the nodes that hold a selected prefix's ancestors,
    /// so most views never pay for an index.
    index: OnceLock<FastMap<K, u32>>,
}

impl<K: CounterKey> Frozen<K> {
    /// The view of one live instance: its candidates in its own order, its
    /// unmonitored-key bound, its update count and its capacity.
    #[must_use]
    pub fn freeze<E: FrequencyEstimator<K>>(part: &E) -> Self {
        let mut entries = Vec::new();
        part.for_each_candidate(|c| entries.push((c.key, c.upper, c.upper - c.lower)));
        Self::from_entries(
            entries,
            part.unmonitored_upper(),
            part.updates(),
            part.capacity(),
        )
    }

    /// A view of raw `(key, count, error)` entries with distinct keys and
    /// `error ≤ count`, the bound every other key obeys, the update count
    /// and the capacity of the summaries it stands for.
    #[must_use]
    pub fn from_entries(
        entries: Vec<(K, u64, u64)>,
        unmonitored: u64,
        updates: u64,
        capacity: usize,
    ) -> Self {
        Self {
            entries,
            unmonitored,
            updates,
            capacity,
            index: OnceLock::new(),
        }
    }

    /// The frame of every family's [`FrequencyEstimator::combine`]: checks
    /// that the parts share one capacity, returns a single part as is, and
    /// otherwise runs the family's `rule` over the parts and that capacity.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or the capacities differ.
    pub(crate) fn combine_by(parts: &[&Self], rule: impl FnOnce(&[&Self], usize) -> Self) -> Self {
        let (first, rest) = parts
            .split_first()
            .expect("a combine needs at least one part");
        for part in rest {
            assert_eq!(
                part.capacity, first.capacity,
                "merge requires equal capacities"
            );
        }
        if rest.is_empty() {
            return (*first).clone();
        }
        rule(parts, first.capacity)
    }

    /// All monitored candidates with their bounds, in entry order.
    #[must_use]
    pub fn candidates(&self) -> Vec<Candidate<K>> {
        self.candidate_iter().collect()
    }

    /// Visits [`Self::candidates`] in entry order without collecting them.
    #[inline]
    pub fn for_each_candidate(&self, f: impl FnMut(Candidate<K>)) {
        self.candidate_iter().for_each(f);
    }

    fn candidate_iter(&self) -> impl Iterator<Item = Candidate<K>> + '_ {
        self.entries.iter().map(|&(key, count, error)| Candidate {
            key,
            upper: count,
            lower: count - error,
        })
    }

    /// Upper bound on the number of updates of `key`.
    #[must_use]
    pub fn upper(&self, key: &K) -> u64 {
        self.entry(key).map_or(self.unmonitored, |e| e.1)
    }

    /// Lower bound on the number of updates of `key`.
    #[must_use]
    pub fn lower(&self, key: &K) -> u64 {
        self.entry(key).map_or(0, |e| e.1 - e.2)
    }

    /// The upper bound every unmonitored key obeys.
    #[must_use]
    pub fn unmonitored_upper(&self) -> u64 {
        self.unmonitored
    }

    /// Total updates the summarized parts processed.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The number of counters of the summaries this view stands for.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn entry(&self, key: &K) -> Option<&(K, u64, u64)> {
        let index = self.index.get_or_init(|| {
            let mut index =
                FastMap::with_capacity_and_hasher(self.entries.len(), Default::default());
            for (i, e) in self.entries.iter().enumerate() {
                index.insert(e.0, i as u32);
            }
            index
        });
        index.get(key).map(|&i| &self.entries[i as usize])
    }
}

/// Combines any number of frozen Space-Saving-style parts in one pass —
/// the Space Saving layouts' [`FrequencyEstimator::combine`]: counts and
/// errors pair up additively — a key absent from a part contributes that
/// part's min-count ([`Frozen::unmonitored_upper`]) to *both* its count
/// and its error (the absent part may have seen it up to `min` times, all
/// of which must stay deniable) — then the union is re-evicted back to
/// `capacity` by dropping minimal counters. Every dropped entry's merged
/// count is bounded by every survivor's, so the merged min-count still
/// bounds any unmonitored key. Because the padding uses each *input's*
/// min-count, a K-way combine is pointwise tighter than folding pairwise
/// merges, whose padding grows with the intermediate merged minima.
///
/// The kept `(key, count, error)` entries come back sorted ascending by
/// `(count, key)`, so the first of them is the merged min-count once the
/// union fills the capacity; the update counts sum.
///
/// Keys are distinct after the combine, so `(count, key)` is a total order
/// on the union: selecting the dropped prefix with a linear-time select
/// and sorting only the kept entries returns exactly what a full sort of
/// the union would.
#[must_use]
pub fn merge_entries_many<K: CounterKey>(parts: &[&Frozen<K>], capacity: usize) -> Frozen<K> {
    let total_min: u64 = parts.iter().map(|p| p.unmonitored).sum();
    let union = parts.iter().map(|p| p.entries.len()).sum();
    // Per key: summed counts and errors over the parts that monitor it,
    // plus the summed min-counts of those parts — the complement against
    // `total_min` is the padding the absent parts owe. The map only holds
    // each key's position, so the sums stay in one dense array.
    let mut slot: FastMap<K, u32> = FastMap::with_capacity_and_hasher(union, IntHashBuilder);
    let mut entries: Vec<(K, u64, u64)> = Vec::with_capacity(union);
    let mut present_min: Vec<u64> = Vec::with_capacity(union);
    for part in parts {
        for &(key, count, error) in &part.entries {
            let i = *slot.entry(key).or_insert_with(|| {
                entries.push((key, 0, 0));
                present_min.push(0);
                (entries.len() - 1) as u32
            }) as usize;
            entries[i].1 += count;
            entries[i].2 += error;
            present_min[i] += part.unmonitored;
        }
    }
    for (e, present) in entries.iter_mut().zip(present_min) {
        let pad = total_min - present;
        e.1 += pad;
        e.2 += pad;
    }
    // Deterministic re-eviction: order by (count, key) so ties among equal
    // minimal counters break the same way on every run.
    let order = |&(key, count, _): &(K, u64, u64)| (count, key);
    let keep_from = entries.len().saturating_sub(capacity);
    if keep_from > 0 {
        entries.select_nth_unstable_by_key(keep_from, order);
        entries.drain(..keep_from);
    }
    entries.sort_unstable_by_key(order);
    let unmonitored = if entries.len() < capacity {
        0
    } else {
        entries[0].1
    };
    let updates = parts.iter().map(|p| p.updates).sum();
    Frozen::from_entries(entries, unmonitored, updates, capacity)
}
