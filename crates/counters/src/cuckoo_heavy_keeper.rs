//! Cuckoo Heavy Keeper: a bucketized two-choice cuckoo table whose slots
//! carry HeavyKeeper-style exponential-decay counts.
//!
//! The Space Saving layouts in this crate guard their guarantees with
//! strict minimum evictions: every miss on a full summary steals the
//! global-minimum slot and inherits its count as error. That is exactly
//! the wrong trade in hit-light, eviction-heavy regimes (the tail nodes of
//! an RHHH lattice under churny traffic), where the minimum machinery
//! churns on keys that will never matter. Cuckoo Heavy Keeper (arXiv
//! 2412.12873) takes the opposite bet: keys live in a cuckoo hash table
//! for O(1) two-bucket lookup, and a miss on a full neighbourhood does
//! *not* evict — it plays a biased coin against the locally minimal
//! count, decaying it with probability `b^-count` (b = 1.08). Tail keys
//! rarely win the coin flip against an established heavy, so heavies sit
//! undisturbed while the tail churns against itself.
//!
//! # Layout
//!
//! The table is a power-of-two array of 8-slot buckets, split SoA like
//! [`crate::CompactSpaceSaving`]'s arena: one 7-bit tag byte per slot
//! (high bit = empty, so the SWAR probes of `tagged_table` apply
//! unchanged) and a hot `(key, count)` lane. A key hashes to bucket
//! `b₁ = h & mask` with tag `h >> 57`; its alternate bucket is
//! `b₂ = b₁ ^ spread(tag)`, the standard partial-key cuckoo involution.
//! A probe reads both buckets' tag words (two aligned `u64` loads) and
//! confirms tag matches against the key lane. Inserts fill an empty slot
//! in either bucket, then try a single cuckoo relocation (move one
//! resident to *its* alternate bucket), and only then fall back to decay.
//! The number of occupied slots is capped at `capacity`, so a
//! `CuckooHeavyKeeper` never holds more counters than the Space Saving
//! layouts it is benchmarked against, even though the table itself is
//! sized at twice that for low-collision probing.
//!
//! # Estimate semantics — underestimates plus a mass-deficit bound
//!
//! Counts only ever grow by *genuine, currently-attributed* occurrences:
//! a hit adds its full weight, a takeover starts from the new key's own
//! remaining weight, and decay only shrinks counts. Hence for every key
//! `count(x) ≤ X_x` — the opposite one-sided error of Space Saving — and
//! the structure keeps an exact ledger of everything it failed to
//! attribute: `deficit = updates − Σ counts`. Since
//! `Σ_y (X_y − count(y)) = deficit` with every term non-negative,
//!
//! * `lower(x) = count(x)` and
//! * `upper(x) = count(x) + deficit`
//!
//! sandwich the true count *deterministically*, for monitored and absent
//! keys alike — the same shape as [`crate::MisraGries`]'s deficit bound,
//! without the `1/(k+1)` sharpening (decay removes mass one counter at a
//! time, so the deficit cannot be split). The deficit is data-dependent:
//! near zero on concentrated streams, up to `ε·N`-class on the adversarial
//! tail-heavy ones the HeavyKeeper analysis covers, and the differential
//! suite pins the sandwich (plus heavy-hitter retention) against an exact
//! oracle on four stream shapes.
//!
//! # Combining
//!
//! [`FrequencyEstimator::combine`] combines frozen parts with a
//! *documented* (not Space-Saving-exact) bound: counts for the same key
//! sum across shards (sums of underestimates underestimate the
//! concatenated stream), the union is re-inserted in descending count
//! order, and any entry that finds no slot — capacity or an unresolvable
//! bucket conflict — returns its mass to the deficit. The combined
//! deficit is therefore at most the sum of the shard deficits plus the
//! dropped mass, and the sandwich above holds for the concatenated stream
//! by the same ledger argument.
//!
//! # Determinism
//!
//! Decay coin flips come from an instance-local wyrand stream with a fixed
//! seed, so identical update sequences produce identical tables —
//! `increment_batch` is bit-equivalent to per-key `increment` for runs up
//! to [`MAX_DECAY_TRIALS`] (a weighted miss caps its coin flips there and
//! drops the untried remainder into the deficit, keeping worst-case
//! per-update work O(1)).

use std::hash::BuildHasher;

use crate::fast_hash::IntHashBuilder;
use crate::mix::{hash_u64, wyrand_mix, WY_ADD};
use crate::tagged_table::{zero_bytes, HotSlot, EMPTY};
use crate::{for_each_run, Candidate, CounterKey, FrequencyEstimator, Frozen};

/// Slots per bucket: one aligned tag word per bucket.
const BUCKET: usize = 8;

/// `0x80` in every lane — the per-byte empty marker, SWAR-broadcast.
const LANES_EMPTY: u64 = 0x8080_8080_8080_8080;

/// `0x01` in every lane, for broadcasting a tag byte.
const LANES_LO: u64 = 0x0101_0101_0101_0101;

/// Decay coin flips a single miss may spend, however heavy its weight.
/// Beyond this the remaining weight is dropped into the deficit: the
/// sandwich is unaffected (unattributed mass is exactly what the deficit
/// covers) and per-update work stays O(1). Scalar feeds never reach the
/// cap, so batch/scalar bit-equivalence holds for runs up to it.
pub const MAX_DECAY_TRIALS: u64 = 64;

/// HeavyKeeper's decay base: a count-`c` slot decays with probability
/// `DECAY_BASE^-c`.
const DECAY_BASE: f64 = 1.08;

/// Counts at or above this never decay (`1.08^-220 < 5e-9`; the threshold
/// table rounds to zero there, which is sound — less decay only moves
/// mass from the deficit back into attributed counts).
const DECAY_TABLE: usize = 256;

/// `threshold[c] = ⌊DECAY_BASE^-c · 2⁶⁴⌋`: a wyrand draw below it is a
/// successful decay. Shared by every instance (it depends only on the
/// base), built once.
fn decay_threshold(count: u64) -> u64 {
    static TABLE: std::sync::OnceLock<[u64; DECAY_TABLE]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        std::array::from_fn(|c| {
            let p = DECAY_BASE.powi(-(c as i32));
            // `p == 1.0` (c = 0) must saturate, not wrap.
            if p >= 1.0 {
                u64::MAX
            } else {
                (p * u64::MAX as f64) as u64
            }
        })
    });
    table.get(count as usize).copied().unwrap_or(0)
}

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CuckooHeavyKeeper<K> {
    /// One tag byte per slot, bucket-aligned (8 per bucket, no mirror
    /// bytes — bucket windows never straddle).
    tags: Vec<u8>,
    /// The `(key, count)` lane; `count == 0` marks a free slot, in
    /// lockstep with the tag.
    slots: Vec<HotSlot<K>>,
    /// `bucket count − 1` (bucket count is a power of two).
    bucket_mask: usize,
    /// Maximum occupied slots — the advertised counter budget.
    capacity: usize,
    /// Occupied slots.
    len: usize,
    /// Total weight processed.
    updates: u64,
    /// `Σ counts` — maintained incrementally so `deficit()` is O(1).
    stored: u64,
    /// wyrand state for decay coin flips; fixed seed for determinism.
    rng: u64,
    hasher: IntHashBuilder,
}

impl<K: CounterKey> CuckooHeavyKeeper<K> {
    /// Unattributed mass: `updates − Σ counts`. The deterministic additive
    /// error of every estimate this instance reports (see module docs).
    #[must_use]
    pub fn deficit(&self) -> u64 {
        self.updates - self.stored
    }

    /// Number of monitored keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is monitored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` currently occupies a slot. Read-only: no decay and
    /// no RNG advance.
    #[doc(hidden)]
    #[must_use]
    pub fn monitored(&self, key: &K) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let (b1, b2, tag) = self.route(key);
        self.find_in_bucket(b1, tag, key)
            .or_else(|| self.find_in_bucket(b2, tag, key))
            .is_some()
    }

    /// Builds an instance holding `entries` (distinct keys, descending
    /// insertion works best) with the update ledger forced to `updates`.
    /// Entries that find no slot are dropped — their mass lands in the
    /// deficit, which is exactly the documented combine bound.
    fn from_entries(capacity: usize, updates: u64, entries: &[(K, u64)]) -> Self {
        let mut fresh = Self::with_capacity(capacity);
        fresh.updates = updates;
        for &(key, count) in entries {
            if count > 0 {
                fresh.insert_entry(key, count);
            }
        }
        fresh
    }

    /// `(b₁, b₂, tag)` for a key.
    #[inline]
    fn route(&self, key: &K) -> (usize, usize, u8) {
        let h = self.hasher.hash_one(key);
        let b1 = (h as usize) & self.bucket_mask;
        let tag = (h >> 57) as u8;
        (b1, self.alt_bucket(b1, tag), tag)
    }

    /// The partial-key cuckoo involution: either bucket of a tag maps to
    /// the other. `spread` re-hashes the 7-bit tag so alternates scatter
    /// across the table instead of clustering at small xor offsets.
    #[inline]
    fn alt_bucket(&self, bucket: usize, tag: u8) -> usize {
        bucket ^ (hash_u64(u64::from(tag) | 0x80) as usize & self.bucket_mask)
    }

    /// The bucket's 8 tag bytes as one little-endian word.
    #[inline]
    fn tag_word(&self, bucket: usize) -> u64 {
        let base = bucket * BUCKET;
        u64::from_le_bytes(self.tags[base..base + BUCKET].try_into().unwrap())
    }

    /// Slot index of `key` within `bucket`, if present: SWAR tag match,
    /// then key-lane confirm (tags are 7-bit, so false positives cost one
    /// compare).
    #[inline]
    fn find_in_bucket(&self, bucket: usize, tag: u8, key: &K) -> Option<usize> {
        let mut m = zero_bytes(self.tag_word(bucket) ^ (u64::from(tag) * LANES_LO));
        while m != 0 {
            let i = bucket * BUCKET + (m.trailing_zeros() as usize >> 3);
            if self.slots[i].key == *key && self.slots[i].count > 0 {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    /// First free slot in `bucket`, if any.
    #[inline]
    fn empty_in_bucket(&self, bucket: usize) -> Option<usize> {
        let m = self.tag_word(bucket) & LANES_EMPTY;
        if m == 0 {
            None
        } else {
            Some(bucket * BUCKET + (m.trailing_zeros() as usize >> 3))
        }
    }

    /// Lazily allocates the table on the first key (`HotSlot` needs a
    /// filler key value, as in `TaggedTable::init`).
    fn ensure_init(&mut self, filler: K) {
        if self.slots.is_empty() {
            let slots = (self.capacity * 2).next_power_of_two().max(2 * BUCKET);
            self.tags = vec![EMPTY; slots];
            self.slots = vec![
                HotSlot {
                    key: filler,
                    count: 0,
                };
                slots
            ];
            self.bucket_mask = slots / BUCKET - 1;
        }
    }

    /// Writes `key` into free slot `i`.
    #[inline]
    fn install(&mut self, i: usize, tag: u8, key: K, count: u64) {
        debug_assert_eq!(self.slots[i].count, 0);
        self.tags[i] = tag;
        self.slots[i] = HotSlot { key, count };
        self.stored += count;
        self.len += 1;
    }

    /// One cuckoo kick: move some resident of `b1`/`b2` to its own
    /// alternate bucket if that has space, freeing a slot here. A single
    /// relocation level (no kick chains) keeps the miss path O(1); deeper
    /// conflicts fall through to decay, which the deficit covers.
    fn relocate(&mut self, b1: usize, b2: usize) -> Option<usize> {
        for bucket in [b1, b2] {
            for lane in 0..BUCKET {
                let i = bucket * BUCKET + lane;
                let tag = self.tags[i];
                if tag == EMPTY {
                    continue;
                }
                let alt = self.alt_bucket(bucket, tag);
                if alt == bucket {
                    continue;
                }
                if let Some(j) = self.empty_in_bucket(alt) {
                    self.tags[j] = tag;
                    self.slots[j] = self.slots[i];
                    self.tags[i] = EMPTY;
                    self.slots[i].count = 0;
                    return Some(i);
                }
            }
        }
        None
    }

    /// Index of the minimal occupied slot among both buckets (ties break
    /// to the lowest index, for determinism). `None` only if both buckets
    /// are entirely free, which the caller excludes.
    fn min_slot(&self, b1: usize, b2: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for bucket in [b1, b2] {
            for lane in 0..BUCKET {
                let i = bucket * BUCKET + lane;
                let c = self.slots[i].count;
                if c > 0 && best.is_none_or(|b| c < self.slots[b].count) {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// The HeavyKeeper miss path: spend up to `min(weight,
    /// MAX_DECAY_TRIALS)` coin flips decaying the locally minimal count;
    /// if it reaches zero, the new key takes the slot with all remaining
    /// weight. Unspent weight is left unattributed (deficit).
    fn decay_insert(&mut self, b1: usize, b2: usize, tag: u8, key: K, weight: u64) {
        let mut remaining = weight;
        let mut trials = MAX_DECAY_TRIALS;
        while remaining > 0 && trials > 0 {
            // Re-selected per flip: a decay can change which slot is
            // minimal, and the scalar path re-selects per increment —
            // keeping them identical is what the differential suite pins.
            let Some(i) = self.min_slot(b1, b2) else {
                // Both buckets entirely free yet the counter budget is
                // spent elsewhere: no local victim to decay. Leave the
                // mass unattributed — the deficit covers it.
                return;
            };
            let count = self.slots[i].count;
            self.rng = self.rng.wrapping_add(WY_ADD);
            if wyrand_mix(self.rng) < decay_threshold(count) {
                self.slots[i].count -= 1;
                self.stored -= 1;
                if self.slots[i].count == 0 {
                    // Takeover: the dying key's slot, the new key's mass.
                    self.tags[i] = tag;
                    self.slots[i] = HotSlot {
                        key,
                        count: remaining,
                    };
                    self.stored += remaining;
                    return;
                }
            }
            remaining -= 1;
            trials -= 1;
        }
    }

    /// The single update path: hit → bump; miss → empty slot, one cuckoo
    /// kick, or decay, in that order.
    fn apply(&mut self, key: K, weight: u64) {
        self.ensure_init(key);
        self.updates += weight;
        let (b1, b2, tag) = self.route(&key);
        if let Some(i) = self
            .find_in_bucket(b1, tag, &key)
            .or_else(|| self.find_in_bucket(b2, tag, &key))
        {
            self.slots[i].count += weight;
            self.stored += weight;
            return;
        }
        if self.len < self.capacity {
            if let Some(i) = self
                .empty_in_bucket(b1)
                .or_else(|| self.empty_in_bucket(b2))
            {
                self.install(i, tag, key, weight);
                return;
            }
            if let Some(i) = self.relocate(b1, b2) {
                self.install(i, tag, key, weight);
                return;
            }
        }
        self.decay_insert(b1, b2, tag, key, weight);
    }

    /// Slot index of a monitored key (None when absent).
    fn lookup(&self, key: &K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let (b1, b2, tag) = self.route(key);
        self.find_in_bucket(b1, tag, key)
            .or_else(|| self.find_in_bucket(b2, tag, key))
    }

    /// Checks every structural invariant; test-only.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let mut stored = 0;
        let mut len = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let occupied = self.tags[i] != EMPTY;
            assert_eq!(occupied, slot.count > 0, "tag/count lockstep at {i}");
            if !occupied {
                continue;
            }
            stored += slot.count;
            len += 1;
            let (b1, b2, tag) = self.route(&slot.key);
            let bucket = i / BUCKET;
            assert!(
                bucket == b1 || bucket == b2,
                "slot {i} outside its key's buckets"
            );
            assert_eq!(self.tags[i], tag, "stored tag mismatch at {i}");
        }
        assert_eq!(stored, self.stored, "stored ledger");
        assert_eq!(len, self.len, "len ledger");
        assert!(self.len <= self.capacity, "over capacity");
        assert!(self.stored <= self.updates, "counts exceed updates");
    }

    /// Inserts a distinct `(key, count)` during the combine;
    /// returns whether a slot was found (drops are the caller's deficit).
    fn insert_entry(&mut self, key: K, count: u64) -> bool {
        debug_assert!(count > 0);
        self.ensure_init(key);
        if self.len >= self.capacity {
            return false;
        }
        let (b1, b2, tag) = self.route(&key);
        debug_assert!(self.find_in_bucket(b1, tag, &key).is_none());
        if let Some(i) = self
            .empty_in_bucket(b1)
            .or_else(|| self.empty_in_bucket(b2))
        {
            self.install(i, tag, key, count);
            return true;
        }
        if let Some(i) = self.relocate(b1, b2) {
            self.install(i, tag, key, count);
            return true;
        }
        false
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for CuckooHeavyKeeper<K> {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            tags: Vec::new(),
            slots: Vec::new(),
            bucket_mask: 0,
            capacity,
            len: 0,
            updates: 0,
            stored: 0,
            rng: 0x5EED_C4CC_0000_0001,
            hasher: IntHashBuilder,
        }
    }

    #[inline]
    fn increment(&mut self, key: K) {
        self.apply(key, 1);
    }

    #[inline]
    fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.apply(key, weight);
    }

    fn increment_batch(&mut self, keys: &[K]) {
        // One probe per run of equal consecutive keys; bit-identical to
        // the scalar loop for runs up to MAX_DECAY_TRIALS (module docs).
        for_each_run(keys, |key, run| self.apply(key, run));
    }

    fn combine(parts: &[&Frozen<K>]) -> Frozen<K> {
        // Documented-bound combine (module docs): per-key sums of the
        // parts' counts (their `lower`) stay underestimates of the
        // concatenated stream; re-inserted largest first so capacity and
        // conflict drops hit the smallest counts; every drop returns to the
        // deficit, which prices the combine.
        Frozen::combine_by(parts, |parts, capacity| {
            let mut updates = 0;
            let mut entries = Vec::new();
            for part in parts {
                updates += part.updates();
                part.for_each_candidate(|c| entries.push((c.key, c.lower)));
            }
            entries.sort_unstable_by_key(|a| a.0);
            let mut summed: Vec<(K, u64)> = Vec::with_capacity(entries.len());
            for &(key, count) in &entries {
                match summed.last_mut() {
                    Some(last) if last.0 == key => last.1 += count,
                    _ => summed.push((key, count)),
                }
            }
            // Descending count, key tie-break: deterministic drop order.
            summed.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            Frozen::freeze(&Self::from_entries(capacity, updates, &summed))
        })
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &K) -> u64 {
        let count = self.lookup(key).map_or(0, |i| self.slots[i].count);
        count + self.deficit()
    }

    fn lower(&self, key: &K) -> u64 {
        self.lookup(key).map_or(0, |i| self.slots[i].count)
    }

    fn unmonitored_upper(&self) -> u64 {
        self.deficit()
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        let deficit = self.deficit();
        self.slots
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| Candidate {
                key: s.key,
                upper: s.count + deficit,
                lower: s.count,
            })
            .collect()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn error_bound(&self) -> u64 {
        // Data-dependent deterministic bound: the whole unattributed mass
        // (see module docs); `updates/capacity` does not hold for decay
        // counters.
        self.deficit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn oracle(keys: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &k in keys {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    }

    fn assert_sandwich(chk: &CuckooHeavyKeeper<u64>, truth: &HashMap<u64, u64>) {
        for (&k, &t) in truth {
            assert!(chk.lower(&k) <= t, "lower({k}) = {} > {t}", chk.lower(&k));
            assert!(chk.upper(&k) >= t, "upper({k}) = {} < {t}", chk.upper(&k));
        }
        // Absent key: lower 0, upper is exactly the unattributed deficit.
        assert_eq!(chk.lower(&u64::MAX), 0);
        assert_eq!(chk.upper(&u64::MAX), chk.error_bound());
    }

    #[test]
    fn exact_until_capacity() {
        let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(64);
        let keys: Vec<u64> = (0..64).flat_map(|k| std::iter::repeat_n(k, 3)).collect();
        for &k in &keys {
            chk.increment(k);
        }
        chk.debug_validate();
        assert_eq!(chk.deficit(), 0, "no decay below capacity");
        for k in 0..64 {
            assert_eq!(chk.lower(&k), 3);
            assert_eq!(chk.upper(&k), 3);
        }
    }

    #[test]
    fn heavy_keys_survive_tail_churn() {
        let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(32);
        // Establish 8 heavies, then churn 50k distinct tail keys past them.
        for k in 0..8u64 {
            chk.add(k, 1_000);
        }
        for i in 0..50_000u64 {
            chk.increment(0x1_0000 + i);
        }
        chk.debug_validate();
        for k in 0..8u64 {
            let c = chk.lower(&k);
            assert!(c > 900, "heavy {k} decayed to {c}");
        }
    }

    #[test]
    fn sandwich_holds_on_all_stream_shapes() {
        type Shaper = Box<dyn Fn(u64) -> u64>;
        let shapes: [(&str, Shaper); 4] = [
            ("random", Box::new(|i| hash_u64(i) % 512)),
            // Power-law-ish: key j with weight ~ 1/(j+1).
            (
                "zipf",
                Box::new(|i| u64::from((hash_u64(i) % 4096 + 1).ilog2())),
            ),
            ("distinct", Box::new(|i| i)),
            // Phase change: distinct churn, then a concentrated phase.
            ("phase", Box::new(|i| if i < 4_000 { i } else { i % 16 })),
        ];
        for (name, shape) in shapes {
            let keys: Vec<u64> = (0..8_000).map(&shape).collect();
            let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(64);
            for &k in &keys {
                chk.increment(k);
            }
            chk.debug_validate();
            let truth = oracle(&keys);
            assert_sandwich(&chk, &truth);
            assert_eq!(
                chk.error_bound(),
                chk.updates() - chk.candidates().iter().map(|c| c.lower).sum::<u64>(),
                "{name}: deficit ledger"
            );
        }
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let keys: Vec<u64> = (0..6_000u64).map(|i| hash_u64(i) % 300).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut scalar = CuckooHeavyKeeper::<u64>::with_capacity(48);
        for &k in &sorted {
            scalar.increment(k);
        }
        let mut batch = CuckooHeavyKeeper::<u64>::with_capacity(48);
        batch.increment_batch(&sorted);
        assert_eq!(format!("{scalar:?}"), format!("{batch:?}"));
    }

    #[test]
    fn weighted_add_is_sound_and_bounded() {
        let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(16);
        // Fill, then a huge weighted miss: must not loop O(w), must stay
        // inside the ledger.
        for k in 0..16u64 {
            chk.add(k, 100);
        }
        chk.add(999, 1 << 40);
        chk.debug_validate();
        assert_eq!(chk.updates(), 1_600 + (1 << 40));
        assert!(chk.upper(&999) >= 1 << 40);
    }

    #[test]
    fn merge_keeps_sandwich_over_concatenation() {
        let a_keys: Vec<u64> = (0..5_000u64).map(|i| hash_u64(i) % 200).collect();
        let b_keys: Vec<u64> = (0..5_000u64).map(|i| hash_u64(i ^ 0xABCD) % 350).collect();
        let mut a = CuckooHeavyKeeper::<u64>::with_capacity(64);
        let mut b = CuckooHeavyKeeper::<u64>::with_capacity(64);
        for &k in &a_keys {
            a.increment(k);
        }
        for &k in &b_keys {
            b.increment(k);
        }
        let view = CuckooHeavyKeeper::combine(&[&Frozen::freeze(&a), &Frozen::freeze(&b)]);
        assert_eq!(view.updates(), a.updates() + b.updates());
        let mut all = a_keys;
        all.extend(b_keys);
        for (&k, &t) in &oracle(&all) {
            assert!(view.lower(&k) <= t, "lower({k}) = {} > {t}", view.lower(&k));
            assert!(view.upper(&k) >= t, "upper({k}) = {} < {t}", view.upper(&k));
        }
        // The combined deficit prices every dropped entry, and it is at
        // least the parts' deficits summed.
        assert_eq!(view.lower(&u64::MAX), 0);
        assert!(view.unmonitored_upper() >= a.deficit() + b.deficit());
    }

    #[test]
    fn top_key_estimate_is_tight_on_skewed_streams() {
        // The documented HeavyKeeper behaviour this repo relies on: on a
        // concentrated stream the heavy key's count converges near-exact.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| if i % 3 == 0 { 7 } else { hash_u64(i) % 2_000 })
            .collect();
        let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(64);
        chk.increment_batch(&{
            let mut s = keys.clone();
            s.sort_unstable();
            s
        });
        let truth = oracle(&keys)[&7];
        let est = chk.lower(&7);
        assert!(
            est as f64 >= truth as f64 * 0.9,
            "top key underestimated: {est} vs {truth}"
        );
        assert!(est <= truth);
    }

    #[test]
    fn monitored_probe_has_no_side_effects() {
        let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(8);
        for k in 0..8u64 {
            chk.add(k, 5);
        }
        for i in 0..100u64 {
            chk.increment(1_000 + i);
        }
        let before = format!("{chk:?}");
        for i in 0..2_000u64 {
            let _ = chk.monitored(&i);
        }
        assert_eq!(before, format!("{chk:?}"));
    }
}
