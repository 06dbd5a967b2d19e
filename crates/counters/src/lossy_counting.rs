//! Lossy Counting (Manku & Motwani — VLDB 2002).
//!
//! The stream is split into buckets of width `w = capacity`; entries carry
//! `(count, Δ)` where `Δ` bounds how many occurrences may have been missed
//! before the entry was (re-)created. At each bucket boundary, entries with
//! `count + Δ ≤ current bucket` are pruned. Deterministic guarantee
//! (δ = 0): `count ≤ f ≤ count + Δ ≤ count + εN`.
//!
//! Listed in Section 3.1 of the RHHH paper ([33]) among the counter
//! algorithms that satisfy Definition 4 and can replace Space Saving.

use std::collections::BTreeMap;

use crate::fast_hash::FastMap;
use crate::{Candidate, CounterKey, FrequencyEstimator, Frozen};

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    delta: u64,
}

/// Lossy Counting summary.
///
/// Space is O(ε⁻¹·log εN) in the worst case (more than Space Saving's strict
/// `capacity` counters), which is the classical trade-off between the two.
#[derive(Debug)]
pub struct LossyCounting<K> {
    entries: FastMap<K, Entry>,
    /// Bucket width (= capacity, so ε = 1/capacity).
    width: u64,
    /// Current bucket id `b = ⌈N/w⌉`.
    bucket: u64,
    updates: u64,
    capacity: usize,
}

impl<K: CounterKey> LossyCounting<K> {
    /// Number of entries currently stored (can exceed `capacity`,
    /// see the type-level docs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the summary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn prune(&mut self) {
        let b = self.bucket;
        self.entries.retain(|_, e| e.count + e.delta > b);
    }

    /// Documented-bound Lossy Counting combine, folded over frozen parts
    /// in order from the empty summary (bucket 1, no entries). A part's
    /// entry gives `count = lower` and `Δ = upper − lower`, and its bucket
    /// is `unmonitored_upper + 1` exactly, since a bucket starts at 1.
    /// Counts and deltas add for keys tracked on both sides; a key tracked
    /// on only one side takes the other side's `bucket − 1` as extra delta
    /// (the most occurrences that side could have missed). The merged
    /// bucket is `b₁ + b₂ − 1`, so the deterministic guarantee becomes
    /// `count ≤ f ≤ count + ε·(N₁+N₂)` — the two inputs' bounds summed —
    /// and a final prune restores the steady-state invariant
    /// `count + Δ > bucket − 1`. Entries come out in ascending key order.
    fn fold(parts: &[&Frozen<K>], capacity: usize) -> Frozen<K> {
        let mut entries: BTreeMap<K, Entry> = BTreeMap::new();
        let (mut bucket, mut updates) = (1, 0);
        for part in parts {
            updates += part.updates();
            let (b1, b2) = (bucket, part.unmonitored_upper() + 1);
            for e in entries.values_mut() {
                e.delta += b2 - 1;
            }
            part.for_each_candidate(|c| {
                let (count, delta) = (c.lower, c.upper - c.lower);
                match entries.get_mut(&c.key) {
                    Some(e1) => {
                        // Tracked on both sides: replace the padding with
                        // the other side's actual delta.
                        e1.count += count;
                        e1.delta = e1.delta - (b2 - 1) + delta;
                    }
                    None => {
                        let delta = delta + (b1 - 1);
                        entries.insert(c.key, Entry { count, delta });
                    }
                }
            });
            bucket = b1 + b2 - 1;
            entries.retain(|_, e| e.count + e.delta > bucket - 1);
        }
        let entries = entries
            .into_iter()
            .map(|(key, e)| (key, e.count + e.delta, e.delta))
            .collect();
        Frozen::from_entries(entries, bucket - 1, updates, capacity)
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for LossyCounting<K> {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            entries: FastMap::default(),
            width: capacity as u64,
            bucket: 1,
            updates: 0,
            capacity,
        }
    }

    fn increment(&mut self, key: K) {
        self.updates += 1;
        match self.entries.get_mut(&key) {
            Some(e) => e.count += 1,
            None => {
                let delta = self.bucket - 1;
                self.entries.insert(key, Entry { count: 1, delta });
            }
        }
        if self.updates.is_multiple_of(self.width) {
            self.prune();
            self.bucket += 1;
        }
    }

    fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.updates += weight;
        match self.entries.get_mut(&key) {
            Some(e) => e.count += weight,
            None => {
                let delta = self.bucket - 1;
                self.entries.insert(
                    key,
                    Entry {
                        count: weight,
                        delta,
                    },
                );
            }
        }
        // A heavy weight can cross several bucket boundaries at once.
        while self.updates >= self.bucket * self.width {
            self.prune();
            self.bucket += 1;
        }
    }

    fn increment_batch(&mut self, keys: &[K]) {
        // One table lookup per run of equal consecutive keys. `add` is the
        // native weighted path (O(1) plus any bucket boundaries actually
        // crossed), so a merged run costs the same as a single arrival.
        crate::for_each_run(keys, |key, run| self.add(key, run));
    }

    fn combine(parts: &[&Frozen<K>]) -> Frozen<K> {
        Frozen::combine_by(parts, Self::fold)
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &K) -> u64 {
        match self.entries.get(key) {
            Some(e) => e.count + e.delta,
            None => self.unmonitored_upper(),
        }
    }

    fn unmonitored_upper(&self) -> u64 {
        // An absent key may have been pruned with count+Δ ≤ b−1 … but
        // conservatively it could have up to b−1 missed occurrences.
        self.bucket.saturating_sub(1)
    }

    fn lower(&self, key: &K) -> u64 {
        self.entries.get(key).map_or(0, |e| e.count)
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        self.entries
            .iter()
            .map(|(&key, e)| Candidate {
                key,
                upper: e.count + e.delta,
                lower: e.count,
            })
            .collect()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exact_within_first_bucket() {
        let mut lc: LossyCounting<u32> = LossyCounting::with_capacity(100);
        for _ in 0..50 {
            lc.increment(1);
        }
        assert_eq!(lc.lower(&1), 50);
        assert_eq!(lc.upper(&1), 50); // delta = 0 in the first bucket
    }

    #[test]
    fn bounds_bracket_truth() {
        let cap = 20;
        let mut lc: LossyCounting<u64> = LossyCounting::with_capacity(cap);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let mut x = 5u64;
        for i in 0..50_000u64 {
            let key = if i % 3 == 0 { i % 4 } else { x % 2_000 + 10 };
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            lc.increment(key);
            *exact.entry(key).or_default() += 1;
        }
        let n = lc.updates();
        for (key, &f) in &exact {
            assert!(lc.lower(key) <= f, "lower({key}) > truth");
            assert!(
                lc.upper(key) >= f,
                "upper({key}) < truth {f} vs {}",
                lc.upper(key)
            );
            // ε-guarantee: underestimation ≤ εN = N/cap.
            assert!(f - lc.lower(key) <= n / cap as u64 + 1);
        }
    }

    #[test]
    fn pruning_drops_stale_singletons() {
        let mut lc: LossyCounting<u64> = LossyCounting::with_capacity(10);
        // First bucket: ten distinct singletons, all with delta 0, count 1:
        // at the boundary count+delta = 1 ≤ b = 1 → all pruned.
        for k in 0..10u64 {
            lc.increment(k);
        }
        assert!(lc.is_empty(), "{} entries survived", lc.len());
    }

    #[test]
    fn persistent_heavy_key_survives_pruning() {
        let mut lc: LossyCounting<u64> = LossyCounting::with_capacity(10);
        let mut x = 17u64;
        for i in 0..1_000u64 {
            if i % 2 == 0 {
                lc.increment(42);
            } else {
                x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                lc.increment(100 + x % 500);
            }
        }
        assert!(lc.lower(&42) > 400, "heavy key nearly exact");
        assert!(lc.candidates().iter().any(|c| c.key == 42));
    }

    #[test]
    fn unseen_key_upper_is_bucket_bound() {
        let mut lc: LossyCounting<u32> = LossyCounting::with_capacity(10);
        for i in 0..100u32 {
            lc.increment(i % 3);
        }
        // b = ceil(100/10) -> after 100 updates bucket advanced to 11.
        assert_eq!(lc.upper(&999), lc.bucket - 1);
        assert_eq!(lc.lower(&999), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: LossyCounting<u32> = LossyCounting::with_capacity(0);
    }
}
