//! Read-only node summaries: the query plane's view of one lattice node.
//!
//! `Output(θ)` (Algorithm 1, lines 11–16) only *reads* per-node bounds:
//! the monitored candidates, and `upper`/`lower` for the few keys its
//! `calcPred` correction looks up. A [`Frozen`] holds exactly that — the
//! `(key, count, error)` entries, the bound every unmonitored key obeys,
//! and the update count — so a combined answer is read without building a
//! live, updatable summary (a hash index plus bucket lists, or an arena)
//! that would only ever be read once.
//!
//! [`FrequencyEstimator::merged_view`] builds one from borrowed parts by
//! the one combine rule of each counter family: the Space Saving layouts'
//! K-way combine ([`crate::merge_entries_many`]) over their borrowed
//! candidates, or a fold of the family's pairwise rule on a scratch copy
//! of the first part.

use std::sync::OnceLock;

use crate::fast_hash::FastMap;
use crate::{combine_parts, Candidate, CounterKey, FrequencyEstimator};

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
    /// In `(count, key)` order for a Space Saving combine of several parts;
    /// otherwise in the (scratch) instance's own
    /// [`FrequencyEstimator::candidates`] order.
    entries: Vec<(K, u64, u64)>,
    unmonitored: u64,
    updates: u64,
    /// Key → entry position, built on the first lookup: `Output(θ)` looks
    /// keys up at only the nodes that hold a selected prefix's ancestors,
    /// so most views never pay for an index.
    index: OnceLock<FastMap<K, u32>>,
}

impl<K: CounterKey> Frozen<K> {
    /// The view of one live instance: its candidates in its own order, its
    /// unmonitored-key bound and its update count.
    #[must_use]
    pub fn freeze<E: FrequencyEstimator<K>>(part: &E) -> Self {
        let entries = part
            .candidates()
            .into_iter()
            .map(|c| (c.key, c.upper, c.upper - c.lower))
            .collect();
        Self::from_entries(entries, part.unmonitored_upper(), part.updates())
    }

    fn from_entries(entries: Vec<(K, u64, u64)>, unmonitored: u64, updates: u64) -> Self {
        Self {
            entries,
            unmonitored,
            updates,
            index: OnceLock::new(),
        }
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

/// The Space Saving layouts' [`FrequencyEstimator::merged_view`]: one part
/// is frozen as is; several run the K-way combine over borrowed
/// candidates. The kept entries come back in `(count, key)` order, and the
/// first of them is the merged min-count once the union fills the
/// capacity.
///
/// # Panics
///
/// Panics when `parts` is empty or the capacities differ.
pub(crate) fn space_saving_view<K: CounterKey, E: FrequencyEstimator<K>>(
    parts: &[&E],
) -> Frozen<K> {
    let (first, rest) = parts
        .split_first()
        .expect("a merged view needs at least one part");
    if rest.is_empty() {
        return Frozen::freeze(*first);
    }
    let entries = combine_parts(parts);
    let unmonitored = if entries.len() < first.capacity() {
        0
    } else {
        entries[0].1
    };
    let updates = parts.iter().map(|p| p.updates()).sum();
    Frozen::from_entries(entries, unmonitored, updates)
}

/// The [`FrequencyEstimator::merged_view`] of the families whose rule
/// combines two summaries at a time (Misra–Gries, Lossy Counting): a
/// scratch copy of `parts[0]` absorbs the rest in order and is frozen. One
/// part is frozen as is.
///
/// # Panics
///
/// Panics when `parts` is empty or the capacities differ.
pub(crate) fn fold_view<K: CounterKey, E: FrequencyEstimator<K> + Clone>(
    parts: &[&E],
    absorb: impl Fn(&mut E, &E),
) -> Frozen<K> {
    let (first, rest) = parts
        .split_first()
        .expect("a merged view needs at least one part");
    if rest.is_empty() {
        return Frozen::freeze(*first);
    }
    let mut scratch = (*first).clone();
    for part in rest {
        assert_eq!(
            part.capacity(),
            scratch.capacity(),
            "merge requires equal capacities"
        );
        absorb(&mut scratch, part);
    }
    Frozen::freeze(&scratch)
}
