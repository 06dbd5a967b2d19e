//! Space Saving (Metwally, Agrawal, El Abbadi — ICDT 2005) on the
//! *stream-summary* structure: a doubly linked list of count buckets, each
//! holding a doubly linked list of counters with that exact count.
//!
//! Every operation — lookup, bump, replace-minimum — touches O(1) pointers,
//! which is the property Theorem 6.18 of the RHHH paper relies on ("if the
//! number is smaller than H, we also update a Space Saving instance, which
//! can be done in O(1) as well [34]").
//!
//! Semantics: the structure keeps `m` counters. A monitored key's counter
//! `count` never underestimates its true update count `X`, and
//! `count − error ≤ X ≤ count`; any unmonitored key satisfies
//! `X ≤ min-count ≤ N/m`.

use crate::fast_hash::FastMap;
use crate::{Candidate, CounterKey, FrequencyEstimator, Frozen};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct CounterSlot<K> {
    key: K,
    count: u64,
    /// Overestimation recorded when this slot was stolen from a victim.
    error: u64,
    bucket: u32,
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone)]
struct BucketSlot {
    count: u64,
    head: u32,
    prev: u32,
    next: u32,
}

/// Space Saving over the O(1) stream-summary structure.
///
/// See the [crate docs](crate) for the role this plays in RHHH and
/// [`FrequencyEstimator`] for the exported bounds.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    counters: Vec<CounterSlot<K>>,
    buckets: Vec<BucketSlot>,
    free_buckets: Vec<u32>,
    /// Bucket with the smallest count (head of the bucket list).
    min_bucket: u32,
    index: FastMap<K, u32>,
    updates: u64,
    capacity: usize,
}

impl<K: CounterKey> SpaceSaving<K> {
    /// Count of the minimum bucket — the upper bound for any unmonitored
    /// key once the structure is full; 0 while it still has free slots.
    #[must_use]
    pub fn min_count(&self) -> u64 {
        if self.counters.len() < self.capacity || self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket as usize].count
        }
    }

    /// Number of monitored keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no key is monitored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    fn alloc_bucket(&mut self, count: u64) -> u32 {
        if let Some(b) = self.free_buckets.pop() {
            let slot = &mut self.buckets[b as usize];
            slot.count = count;
            slot.head = NIL;
            slot.prev = NIL;
            slot.next = NIL;
            b
        } else {
            self.buckets.push(BucketSlot {
                count,
                head: NIL,
                prev: NIL,
                next: NIL,
            });
            (self.buckets.len() - 1) as u32
        }
    }

    /// Unlinks bucket `b` from the bucket list and returns it to the free
    /// pool. The bucket must be empty.
    fn remove_bucket(&mut self, b: u32) {
        debug_assert_eq!(self.buckets[b as usize].head, NIL);
        let (prev, next) = {
            let slot = &self.buckets[b as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.buckets[prev as usize].next = next;
        } else {
            self.min_bucket = next;
        }
        if next != NIL {
            self.buckets[next as usize].prev = prev;
        }
        self.free_buckets.push(b);
    }

    /// Detaches counter `ci` from its bucket's member list (does not free
    /// the bucket even if it becomes empty — callers handle that).
    fn detach(&mut self, ci: u32) {
        let (b, prev, next) = {
            let c = &self.counters[ci as usize];
            (c.bucket, c.prev, c.next)
        };
        if prev != NIL {
            self.counters[prev as usize].next = next;
        } else {
            self.buckets[b as usize].head = next;
        }
        if next != NIL {
            self.counters[next as usize].prev = prev;
        }
    }

    /// Attaches counter `ci` at the head of bucket `b`.
    fn attach(&mut self, ci: u32, b: u32) {
        let old_head = self.buckets[b as usize].head;
        {
            let c = &mut self.counters[ci as usize];
            c.bucket = b;
            c.prev = NIL;
            c.next = old_head;
        }
        if old_head != NIL {
            self.counters[old_head as usize].prev = ci;
        }
        self.buckets[b as usize].head = ci;
        self.counters[ci as usize].count = self.buckets[b as usize].count;
    }

    /// Moves counter `ci` up by `w` counts: detaches it and walks forward
    /// along the (sorted) bucket list to the target count. Cost is the
    /// number of distinct counts crossed — O(1) for `w = 1`, and in the
    /// worst case `O(min(w, capacity))` for weighted updates.
    fn bump_by(&mut self, ci: u32, w: u64) {
        debug_assert!(w >= 1);
        let b = self.counters[ci as usize].bucket;
        let c = self.buckets[b as usize].count;
        let target_count = c + w;

        let only_member =
            self.buckets[b as usize].head == ci && self.counters[ci as usize].next == NIL;
        let next = self.buckets[b as usize].next;
        if only_member && (next == NIL || self.buckets[next as usize].count > target_count) {
            self.buckets[b as usize].count = target_count;
            self.counters[ci as usize].count = target_count;
            return;
        }

        self.detach(ci);
        // Walk to the last bucket with count < target.
        let mut prev = b;
        let mut cur = self.buckets[b as usize].next;
        while cur != NIL && self.buckets[cur as usize].count < target_count {
            prev = cur;
            cur = self.buckets[cur as usize].next;
        }
        let target = if cur != NIL && self.buckets[cur as usize].count == target_count {
            cur
        } else {
            // Insert a fresh bucket between prev and cur.
            let nb = self.alloc_bucket(target_count);
            self.buckets[nb as usize].prev = prev;
            self.buckets[nb as usize].next = cur;
            if cur != NIL {
                self.buckets[cur as usize].prev = nb;
            }
            self.buckets[prev as usize].next = nb;
            nb
        };
        self.attach(ci, target);
        if self.buckets[b as usize].head == NIL {
            self.remove_bucket(b);
        }
    }

    /// Moves counter `ci` from its current bucket to count+1 in O(1).
    fn bump(&mut self, ci: u32) {
        let b = self.counters[ci as usize].bucket;
        let c = self.buckets[b as usize].count;
        let next = self.buckets[b as usize].next;

        let only_member =
            self.buckets[b as usize].head == ci && self.counters[ci as usize].next == NIL;
        if only_member && (next == NIL || self.buckets[next as usize].count > c + 1) {
            // Sole occupant and no neighbouring bucket at c+1: raise the
            // bucket's count in place (keeps the list sorted, zero churn).
            self.buckets[b as usize].count = c + 1;
            self.counters[ci as usize].count = c + 1;
            return;
        }

        self.detach(ci);
        let target = if next != NIL && self.buckets[next as usize].count == c + 1 {
            next
        } else {
            // Insert a fresh bucket with count c+1 right after b.
            let nb = self.alloc_bucket(c + 1);
            self.buckets[nb as usize].prev = b;
            self.buckets[nb as usize].next = next;
            if next != NIL {
                self.buckets[next as usize].prev = nb;
            }
            self.buckets[b as usize].next = nb;
            nb
        };
        self.attach(ci, target);
        if self.buckets[b as usize].head == NIL {
            self.remove_bucket(b);
        }
    }

    /// Validates every structural invariant; used by tests and proptests.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        // Bucket list is sorted ascending and doubly linked.
        let mut b = self.min_bucket;
        let mut last_count = 0u64;
        let mut seen_counters = 0usize;
        let mut prev_b = NIL;
        while b != NIL {
            let bucket = &self.buckets[b as usize];
            assert!(bucket.count > last_count || prev_b == NIL);
            assert_eq!(bucket.prev, prev_b, "bucket back-link broken");
            assert_ne!(bucket.head, NIL, "live bucket must not be empty");
            last_count = bucket.count;

            let mut ci = bucket.head;
            let mut prev_c = NIL;
            while ci != NIL {
                let c = &self.counters[ci as usize];
                assert_eq!(c.bucket, b, "counter points at wrong bucket");
                assert_eq!(c.count, bucket.count, "counter/bucket count skew");
                assert_eq!(c.prev, prev_c, "counter back-link broken");
                assert!(c.error <= c.count, "error exceeds count");
                assert_eq!(
                    self.index.get(&c.key),
                    Some(&ci),
                    "index out of sync for monitored key"
                );
                seen_counters += 1;
                prev_c = ci;
                ci = c.next;
            }
            prev_b = b;
            b = bucket.next;
        }
        assert_eq!(seen_counters, self.counters.len(), "orphaned counters");
        assert_eq!(self.index.len(), self.counters.len(), "index size skew");
        // Every increment raised exactly one guaranteed (count − error) unit
        // and replace-min evictions convert guaranteed mass into error mass,
        // so the guaranteed mass never exceeds the number of updates, and
        // when nothing was ever converted (all errors zero) the ledger
        // balances exactly.
        let guaranteed: u64 = self.counters.iter().map(|c| c.count - c.error).sum();
        assert!(guaranteed <= self.updates, "counted mass exceeds updates");
        if self.counters.iter().all(|c| c.error == 0) {
            assert_eq!(guaranteed, self.updates, "mass lost without evictions");
        }
    }
}

impl<K: CounterKey> SpaceSaving<K> {
    /// The monitored candidates, in counter-slot order.
    fn candidate_iter(&self) -> impl Iterator<Item = Candidate<K>> + '_ {
        self.counters.iter().map(|c| Candidate {
            key: c.key,
            upper: c.count,
            lower: c.count - c.error,
        })
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for SpaceSaving<K> {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            counters: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity + 1),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            // Pre-sized to its lifetime maximum: the index holds at most
            // `capacity` keys, so growth rehashes on the hot path are
            // avoided entirely.
            index: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            updates: 0,
            capacity,
        }
    }

    fn combine(parts: &[&Frozen<K>]) -> Frozen<K> {
        Frozen::combine_by(parts, crate::merge_entries_many)
    }

    #[inline]
    fn increment(&mut self, key: K) {
        self.updates += 1;

        if let Some(&ci) = self.index.get(&key) {
            self.bump(ci);
            return;
        }

        if self.counters.len() < self.capacity {
            // Free slot: start monitoring exactly.
            let ci = self.counters.len() as u32;
            self.counters.push(CounterSlot {
                key,
                count: 0, // set by attach
                error: 0,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(key, ci);
            let b = if self.min_bucket != NIL && self.buckets[self.min_bucket as usize].count == 1 {
                self.min_bucket
            } else {
                let nb = self.alloc_bucket(1);
                self.buckets[nb as usize].next = self.min_bucket;
                if self.min_bucket != NIL {
                    self.buckets[self.min_bucket as usize].prev = nb;
                }
                self.min_bucket = nb;
                nb
            };
            self.attach(ci, b);
            return;
        }

        // Replace the minimum: steal any counter from the min bucket.
        let ci = self.buckets[self.min_bucket as usize].head;
        let victim_count = self.counters[ci as usize].count;
        let old_key = self.counters[ci as usize].key;
        self.index.remove(&old_key);
        {
            let c = &mut self.counters[ci as usize];
            c.key = key;
            c.error = victim_count;
        }
        self.index.insert(key, ci);
        self.bump(ci);
    }

    fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.updates += weight;

        if let Some(&ci) = self.index.get(&key) {
            self.bump_by(ci, weight);
            return;
        }

        if self.counters.len() < self.capacity {
            // Free slot: start monitoring exactly. Reuse the unit-insert
            // path for the bucket plumbing, then raise by the remainder.
            self.updates -= weight; // increment() re-adds one
            self.increment(key);
            self.updates += weight - 1;
            if weight > 1 {
                let ci = self.index[&key];
                self.bump_by(ci, weight - 1);
            }
            return;
        }

        // Replace the minimum with count = victim + weight.
        let ci = self.buckets[self.min_bucket as usize].head;
        let victim_count = self.counters[ci as usize].count;
        let old_key = self.counters[ci as usize].key;
        self.index.remove(&old_key);
        {
            let c = &mut self.counters[ci as usize];
            c.key = key;
            c.error = victim_count;
        }
        self.index.insert(key, ci);
        self.bump_by(ci, weight);
    }

    fn increment_batch(&mut self, keys: &[K]) {
        // Run-length encode consecutive equal keys: one index lookup and
        // one bucket walk per run instead of one per element. `add(k, w)`
        // leaves the structure in exactly the state of `w` increments of
        // `k` (bump_by is the w-fold composition of bump, and the eviction
        // path records the same victim error either way).
        crate::for_each_run(keys, |key, run| {
            if run == 1 {
                self.increment(key);
            } else {
                self.add(key, run);
            }
        });
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &K) -> u64 {
        match self.index.get(key) {
            Some(&ci) => self.counters[ci as usize].count,
            None => self.min_count(),
        }
    }

    fn lower(&self, key: &K) -> u64 {
        match self.index.get(key) {
            Some(&ci) => {
                let c = &self.counters[ci as usize];
                c.count - c.error
            }
            None => 0,
        }
    }

    fn unmonitored_upper(&self) -> u64 {
        self.min_count()
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        self.candidate_iter().collect()
    }

    #[inline]
    fn for_each_candidate(&self, f: impl FnMut(Candidate<K>)) {
        self.candidate_iter().for_each(f);
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
    fn exact_below_capacity() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::with_capacity(10);
        for (key, n) in [(1u32, 5u64), (2, 3), (3, 9)] {
            for _ in 0..n {
                ss.increment(key);
            }
        }
        for (key, n) in [(1u32, 5u64), (2, 3), (3, 9)] {
            assert_eq!(ss.upper(&key), n);
            assert_eq!(ss.lower(&key), n);
        }
        assert_eq!(ss.upper(&999), 0, "unseen key while not full");
        assert_eq!(ss.updates(), 17);
        ss.debug_validate();
    }

    #[test]
    fn replacement_sets_error_and_bounds_hold() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::with_capacity(2);
        ss.increment(1);
        ss.increment(1);
        ss.increment(2);
        // Structure full; key 3 evicts key 2 (count 1).
        ss.increment(3);
        assert_eq!(ss.upper(&3), 2); // victim count + 1
        assert_eq!(ss.lower(&3), 1); // could all be error
        assert_eq!(ss.lower(&2), 0); // evicted
        assert!(ss.upper(&2) >= 1); // min-count bound
        ss.debug_validate();
    }

    #[test]
    fn never_underestimates_and_error_bounded() {
        let cap = 8;
        let mut ss: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        // Deterministic skewed stream.
        let mut x = 0x12345678u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = if i % 3 == 0 { i % 5 } else { x % 64 };
            ss.increment(key);
            *exact.entry(key).or_default() += 1;
        }
        let n = ss.updates();
        for key in exact.keys().chain([&999_999u64]) {
            let f = exact.get(key).copied().unwrap_or(0);
            assert!(ss.upper(key) >= f, "upper({key}) < f");
            assert!(ss.lower(key) <= f, "lower({key}) > f");
            assert!(
                ss.upper(key) <= f + n / cap as u64,
                "error bound violated for {key}: upper {} f {} bound {}",
                ss.upper(key),
                f,
                f + n / cap as u64
            );
        }
        ss.debug_validate();
    }

    #[test]
    fn heavy_hitters_always_monitored() {
        // The Space Saving guarantee: any key with f > N/m is monitored.
        let cap = 10;
        let mut ss: SpaceSaving<u32> = SpaceSaving::with_capacity(cap);
        let mut x = 7u64;
        for i in 0..5_000u64 {
            if i % 4 == 0 {
                ss.increment(42); // 25% of traffic
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ss.increment((x % 1000) as u32 + 100);
            }
        }
        let cands = ss.candidates();
        assert!(cands.iter().any(|c| c.key == 42), "HH lost from summary");
        assert_eq!(cands.len(), cap);
        ss.debug_validate();
    }

    #[test]
    fn min_count_tracks_minimum() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::with_capacity(3);
        assert_eq!(ss.min_count(), 0);
        for k in 0..3 {
            ss.increment(k);
        }
        assert_eq!(ss.min_count(), 1);
        ss.increment(0);
        ss.increment(1);
        ss.increment(2);
        assert_eq!(ss.min_count(), 2);
        ss.debug_validate();
    }

    #[test]
    fn single_counter_capacity() {
        let mut ss: SpaceSaving<u32> = SpaceSaving::with_capacity(1);
        for k in 0..100u32 {
            ss.increment(k);
        }
        // The single counter absorbed every update.
        assert_eq!(ss.upper(&99), 100);
        assert_eq!(ss.len(), 1);
        ss.debug_validate();
    }

    #[test]
    fn total_upper_mass_bounded() {
        // Σ counts ≤ N + m·(N/m): each counter's error ≤ min ≤ N/m.
        let cap = 16usize;
        let mut ss: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut x = 1u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
            ss.increment(x % 512);
        }
        let n = ss.updates();
        let total: u64 = ss.candidates().iter().map(|c| c.upper).sum();
        assert!(total <= n + (cap as u64) * (n / cap as u64));
        ss.debug_validate();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: SpaceSaving<u32> = SpaceSaving::with_capacity(0);
    }

    #[test]
    fn increment_batch_matches_scalar_increments() {
        // Streams with long same-key runs (the shape the RHHH batch path
        // produces after masking) and with no runs at all.
        let mut x = 0xFEED_u64;
        let mut runs: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = x % 17;
            let len = 1 + (x >> 32) % 9;
            for _ in 0..len {
                runs.push(key);
            }
        }
        for cap in [1usize, 4, 16, 64] {
            let mut batched: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
            let mut scalar: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
            batched.increment_batch(&runs);
            for &k in &runs {
                scalar.increment(k);
            }
            assert_eq!(batched.updates(), scalar.updates());
            for key in 0..17u64 {
                assert_eq!(
                    batched.upper(&key),
                    scalar.upper(&key),
                    "cap {cap} key {key}"
                );
                assert_eq!(
                    batched.lower(&key),
                    scalar.lower(&key),
                    "cap {cap} key {key}"
                );
            }
            batched.debug_validate();
        }
    }
}
