//! Misra–Gries / "Frequent" (Demaine, López-Ortiz, Munro — ESA 2002;
//! Karp, Shenker, Papadimitriou — TODS 2003).
//!
//! Keeps `k` counters; a key not monitored when the table is full causes a
//! global decrement, which charges one unit against `k+1` distinct keys at
//! once. Counts therefore *underestimate*: `f − N/(k+1) ≤ count ≤ f`, and
//! the tighter data-dependent deficit `(N − Σcounts)/(k+1)` bounds the
//! underestimation.
//!
//! Referenced in Section 3.1 of the RHHH paper as one of the counter
//! algorithms ([17, 30]) that can replace Space Saving.

use std::collections::BTreeMap;

use crate::fast_hash::FastMap;
use crate::{Candidate, CounterKey, FrequencyEstimator, Frozen};

/// Misra–Gries summary with deterministic underestimates.
///
/// The global decrement makes `increment` O(k) in the worst case but O(1)
/// amortized (every decrement is paid for by an earlier increment).
#[derive(Debug)]
pub struct MisraGries<K> {
    counts: FastMap<K, u64>,
    capacity: usize,
    updates: u64,
    /// Total mass currently stored in `counts` (kept incrementally so the
    /// deficit bound is O(1) to compute).
    stored: u64,
}

impl<K: CounterKey> MisraGries<K> {
    /// Data-dependent upper bound on how much any key's count may
    /// underestimate its true frequency: `(N − Σcounts)/(k+1)`.
    #[must_use]
    pub fn deficit_bound(&self) -> u64 {
        (self.updates - self.stored) / (self.capacity as u64 + 1)
    }

    /// The Misra–Gries combine of Agarwal et al. (*Mergeable Summaries*,
    /// PODS 2012), folded over frozen parts in order from the empty
    /// summary: sum counts (each part's `lower`) key-wise, then subtract
    /// the `(k+1)`-st largest combined count from every entry and drop the
    /// non-positive ones. Each key loses at most that subtrahend while at
    /// least `k+1` entries lose it in full, so the data-dependent deficit
    /// invariant `underestimate ≤ (N − Σcounts)/(k+1)` — and with it the
    /// documented `N/(k+1)` bound over the concatenated stream — survives
    /// merging. Entries come out in ascending key order.
    fn fold(parts: &[&Frozen<K>], capacity: usize) -> Frozen<K> {
        let mut counts: BTreeMap<K, u64> = BTreeMap::new();
        let (mut updates, mut stored) = (0, 0);
        for part in parts {
            updates += part.updates();
            part.for_each_candidate(|c| {
                *counts.entry(c.key).or_insert(0) += c.lower;
                stored += c.lower;
            });
            if counts.len() > capacity {
                let mut sorted: Vec<u64> = counts.values().copied().collect();
                let (_, &mut sub, _) = sorted.select_nth_unstable_by(capacity, |a, b| b.cmp(a));
                counts.retain(|_, c| {
                    let cut = (*c).min(sub);
                    stored -= cut;
                    *c -= cut;
                    *c > 0
                });
            }
        }
        let deficit = (updates - stored) / (capacity as u64 + 1);
        let entries = counts
            .into_iter()
            .map(|(key, c)| (key, c + deficit, deficit))
            .collect();
        Frozen::from_entries(entries, deficit, updates, capacity)
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for MisraGries<K> {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            counts: FastMap::default(),
            capacity,
            updates: 0,
            stored: 0,
        }
    }

    fn increment(&mut self, key: K) {
        self.updates += 1;
        if let Some(c) = self.counts.get_mut(&key) {
            *c += 1;
            self.stored += 1;
            return;
        }
        if self.counts.len() < self.capacity {
            self.counts.insert(key, 1);
            self.stored += 1;
            return;
        }
        // Decrement-all: the arriving key and the k stored keys each give
        // up one unit.
        self.counts.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
        self.stored -= self.capacity as u64;
    }

    fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.updates += weight;
        if let Some(c) = self.counts.get_mut(&key) {
            *c += weight;
            self.stored += weight;
            return;
        }
        self.counts.insert(key, weight);
        self.stored += weight;
        // Weighted decrement-all: repeatedly subtract the minimum count
        // from everyone until the table fits again (each round charges the
        // subtracted mass against capacity+1 distinct keys, preserving the
        // deficit bound).
        while self.counts.len() > self.capacity {
            let m = *self.counts.values().min().expect("non-empty over capacity");
            let before = self.counts.len() as u64;
            self.counts.retain(|_, c| {
                *c -= m;
                *c > 0
            });
            self.stored -= m * before;
        }
    }

    fn increment_batch(&mut self, keys: &[K]) {
        // One table lookup (and at most one weighted decrement round) per
        // run of equal consecutive keys, via the native `add` above — the
        // trait default would pay one lookup per element.
        crate::for_each_run(keys, |key, run| self.add(key, run));
    }

    fn combine(parts: &[&Frozen<K>]) -> Frozen<K> {
        Frozen::combine_by(parts, Self::fold)
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &K) -> u64 {
        self.lower(key) + self.deficit_bound()
    }

    fn lower(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn unmonitored_upper(&self) -> u64 {
        self.deficit_bound()
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        let deficit = self.deficit_bound();
        self.counts
            .iter()
            .map(|(&key, &c)| Candidate {
                key,
                upper: c + deficit,
                lower: c,
            })
            .collect()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn error_bound(&self) -> u64 {
        self.updates / (self.capacity as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exact_when_distinct_keys_fit() {
        let mut mg: MisraGries<u32> = MisraGries::with_capacity(8);
        for _ in 0..5 {
            mg.increment(1);
        }
        for _ in 0..3 {
            mg.increment(2);
        }
        assert_eq!(mg.lower(&1), 5);
        assert_eq!(mg.upper(&1), 5);
        assert_eq!(mg.deficit_bound(), 0);
    }

    #[test]
    fn bounds_bracket_truth_on_adversarial_stream() {
        let k = 9;
        let mut mg: MisraGries<u64> = MisraGries::with_capacity(k);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let mut x = 3u64;
        for i in 0..20_000u64 {
            // Heavy key 0 mixed with a churning tail.
            let key = if i % 2 == 0 { 0 } else { x % 5_000 + 10 };
            x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            mg.increment(key);
            *exact.entry(key).or_default() += 1;
        }
        let n = mg.updates();
        for (key, &f) in &exact {
            assert!(mg.lower(key) <= f, "lower({key}) > truth");
            assert!(mg.upper(key) >= f, "upper({key}) < truth");
            assert!(
                f - mg.lower(key) <= n / (k as u64 + 1),
                "MG deficit bound violated"
            );
        }
    }

    #[test]
    fn majority_element_survives() {
        // With k = 1 this is the Boyer–Moore majority vote.
        let mut mg: MisraGries<u32> = MisraGries::with_capacity(1);
        let stream = [1, 2, 1, 3, 1, 4, 1, 1];
        for k in stream {
            mg.increment(k);
        }
        let cands = mg.candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].key, 1);
    }

    #[test]
    fn decrement_all_clears_singletons() {
        let mut mg: MisraGries<u32> = MisraGries::with_capacity(2);
        mg.increment(1);
        mg.increment(2);
        mg.increment(3); // decrements 1 and 2 to zero, drops them
        assert_eq!(mg.lower(&1), 0);
        assert_eq!(mg.lower(&2), 0);
        assert_eq!(mg.lower(&3), 0); // 3 itself was never inserted
        assert_eq!(mg.deficit_bound(), 1);
    }

    #[test]
    fn stored_mass_accounting() {
        let mut mg: MisraGries<u64> = MisraGries::with_capacity(4);
        let mut x = 11u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            mg.increment(x % 100);
        }
        let stored: u64 = mg.counts.values().sum();
        assert_eq!(stored, mg.stored);
        assert!(mg.counts.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: MisraGries<u32> = MisraGries::with_capacity(0);
    }
}
