//! Space Saving on a binary min-heap — the ablation counterpart of the
//! stream-summary implementation.
//!
//! Same estimates and guarantees as [`crate::SpaceSaving`], but `increment`
//! costs O(log 1/ε) sift operations instead of O(1) pointer moves. The
//! `counter_ablation` bench quantifies the gap, substantiating the design
//! note in DESIGN.md that the paper's worst-case O(1) claim (Theorem 6.18)
//! needs the stream-summary structure.

use crate::fast_hash::FastMap;
use crate::{Candidate, CounterKey, FrequencyEstimator, Frozen};

#[derive(Debug, Clone)]
struct Entry<K> {
    key: K,
    count: u64,
    error: u64,
}

/// Heap-based Space Saving. Prefer [`crate::SpaceSaving`] in production; this
/// type exists for benchmarking the data-structure choice.
#[derive(Debug, Clone)]
pub struct HeapSpaceSaving<K> {
    /// Min-heap on `count`; `heap[0]` is the eviction victim.
    heap: Vec<Entry<K>>,
    /// Key → heap position.
    pos: FastMap<K, usize>,
    updates: u64,
    capacity: usize,
}

impl<K: CounterKey> HeapSpaceSaving<K> {
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].count < self.heap[smallest].count {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].count < self.heap[smallest].count {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].count <= self.heap[i].count {
                return;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos.insert(self.heap[a].key, a);
        self.pos.insert(self.heap[b].key, b);
    }

    /// Validates heap order and index consistency (test helper).
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            assert!(
                self.heap[parent].count <= self.heap[i].count,
                "heap order violated at {i}"
            );
        }
        for (i, e) in self.heap.iter().enumerate() {
            assert_eq!(self.pos.get(&e.key), Some(&i), "position index skew");
            assert!(e.error <= e.count);
        }
        assert_eq!(self.pos.len(), self.heap.len());
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for HeapSpaceSaving<K> {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            heap: Vec::with_capacity(capacity),
            pos: FastMap::default(),
            updates: 0,
            capacity,
        }
    }

    fn merge(&mut self, other: Self) {
        self.merge_many(vec![other]);
    }

    /// Same K-way combine as the stream-summary merge (additive
    /// count+error pairing with per-input min-count padding, re-eviction
    /// to capacity), so the merged bound is the documented sum of the
    /// inputs' bounds. The count-ascending entry list is already a valid
    /// min-heap (every parent index precedes — hence bounds — its
    /// children), so the rebuild is one pass with no sifting.
    fn merge_many(&mut self, others: Vec<Self>) {
        if others.is_empty() {
            return;
        }
        let parts: Vec<&Self> = std::iter::once(&*self).chain(&others).collect();
        let (entries, _) = crate::combine_parts(&parts);
        self.updates = parts.iter().map(|p| p.updates).sum();
        self.heap = entries
            .iter()
            .map(|&(key, count, error)| Entry { key, count, error })
            .collect();
        self.pos.clear();
        for (i, &(key, _, _)) in entries.iter().enumerate() {
            self.pos.insert(key, i);
        }
    }

    fn merged_view(parts: &[&Self]) -> Frozen<K> {
        crate::frozen::space_saving_view(parts)
    }

    fn increment(&mut self, key: K) {
        self.updates += 1;
        if let Some(&i) = self.pos.get(&key) {
            self.heap[i].count += 1;
            self.sift_down(i);
            return;
        }
        if self.heap.len() < self.capacity {
            self.heap.push(Entry {
                key,
                count: 1,
                error: 0,
            });
            let i = self.heap.len() - 1;
            self.pos.insert(key, i);
            self.sift_up(i);
            return;
        }
        // Evict the root (minimum).
        let victim = self.heap[0].key;
        self.pos.remove(&victim);
        let root = &mut self.heap[0];
        root.error = root.count;
        root.count += 1;
        root.key = key;
        self.pos.insert(key, 0);
        self.sift_down(0);
    }

    fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.updates += weight;
        if let Some(&i) = self.pos.get(&key) {
            self.heap[i].count += weight;
            self.sift_down(i);
            return;
        }
        if self.heap.len() < self.capacity {
            self.heap.push(Entry {
                key,
                count: weight,
                error: 0,
            });
            let i = self.heap.len() - 1;
            self.pos.insert(key, i);
            self.sift_up(i);
            return;
        }
        let victim = self.heap[0].key;
        self.pos.remove(&victim);
        let root = &mut self.heap[0];
        root.error = root.count;
        root.count += weight;
        root.key = key;
        self.pos.insert(key, 0);
        self.sift_down(0);
    }

    fn increment_batch(&mut self, keys: &[K]) {
        // Run-length merge, mirroring the stream-summary override: one
        // index lookup and one sift per run of equal consecutive keys, so
        // the ablation benches compare batch against batch rather than
        // batch against the default per-element loop.
        crate::for_each_run(keys, |key, run| self.add(key, run));
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &K) -> u64 {
        match self.pos.get(key) {
            Some(&i) => self.heap[i].count,
            None => self.unmonitored_upper(),
        }
    }

    fn unmonitored_upper(&self) -> u64 {
        match self.heap.first() {
            Some(root) if self.heap.len() == self.capacity => root.count,
            _ => 0,
        }
    }

    fn lower(&self, key: &K) -> u64 {
        match self.pos.get(key) {
            Some(&i) => self.heap[i].count - self.heap[i].error,
            None => 0,
        }
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        self.heap
            .iter()
            .map(|e| Candidate {
                key: e.key,
                upper: e.count,
                lower: e.count - e.error,
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
    use crate::SpaceSaving;
    use std::collections::HashMap;

    /// Drives both Space Saving variants with the same stream and checks
    /// they produce identical counts for every monitored key (the
    /// structures are semantically equivalent; only tie-breaking among
    /// equal-count victims may differ, so we compare bounds not victims).
    #[test]
    fn agrees_with_stream_summary_on_bounds() {
        let cap = 8;
        let mut heap: HeapSpaceSaving<u64> = HeapSpaceSaving::with_capacity(cap);
        let mut list: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let mut x = 99u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x % 40;
            heap.increment(key);
            list.increment(key);
            *exact.entry(key).or_default() += 1;
        }
        let n = heap.updates();
        assert_eq!(n, list.updates());
        for (key, &f) in &exact {
            for (upper, lower) in [
                (heap.upper(key), heap.lower(key)),
                (list.upper(key), list.lower(key)),
            ] {
                assert!(upper >= f);
                assert!(lower <= f);
                assert!(upper <= f + n / cap as u64);
            }
        }
        heap.debug_validate();
        list.debug_validate();
    }

    #[test]
    fn exact_below_capacity() {
        let mut h: HeapSpaceSaving<u32> = HeapSpaceSaving::with_capacity(4);
        for _ in 0..7 {
            h.increment(1);
        }
        h.increment(2);
        assert_eq!(h.upper(&1), 7);
        assert_eq!(h.lower(&1), 7);
        assert_eq!(h.upper(&3), 0);
        h.debug_validate();
    }

    #[test]
    fn eviction_takes_minimum() {
        let mut h: HeapSpaceSaving<u32> = HeapSpaceSaving::with_capacity(2);
        h.increment(1);
        h.increment(1);
        h.increment(2);
        h.increment(3); // evicts 2 (count 1)
        assert_eq!(h.upper(&3), 2);
        assert_eq!(h.lower(&3), 1);
        assert!(!h.pos.contains_key(&2));
        h.debug_validate();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: HeapSpaceSaving<u32> = HeapSpaceSaving::with_capacity(0);
    }
}
