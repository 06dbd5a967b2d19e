//! Differential merge tests: a stream split across K shard summaries and
//! merged back must still satisfy the (ε, δ)-Frequency Estimation sandwich
//! against exact counts of the *whole* stream, with the additive error of
//! the per-shard bounds summed — for every counter algorithm, on random,
//! Zipf, phase-change and adversarial streams.

use hhh_counters::{
    merge_entries_many, Candidate, CompactSpaceSaving, FrequencyEstimator, HeapSpaceSaving,
    LossyCounting, MisraGries, SpaceSaving,
};
use hhh_hierarchy::shard_of;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

fn exact_counts(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0u64) += 1;
    }
    m
}

/// Feeds `stream` into `shards` instances partitioned by key hash, merges
/// them all into one, and returns it together with the summed per-shard
/// deterministic error bounds.
fn shard_and_merge<E: FrequencyEstimator<u64>>(
    stream: &[u64],
    shards: usize,
    capacity: usize,
) -> (E, u64) {
    let mut parts: Vec<E> = (0..shards).map(|_| E::with_capacity(capacity)).collect();
    for &k in stream {
        parts[shard_of(k, shards)].increment(k);
    }
    let summed_bound: u64 = parts.iter().map(|p| p.error_bound()).sum();
    let mut merged = parts.remove(0);
    for part in parts {
        merged.merge(part);
    }
    (merged, summed_bound)
}

/// The sandwich bound of the merge contract: `lower ≤ f ≤ upper` for every
/// key of the stream, and for monitored keys the overestimate (or, for the
/// underestimating structures, the deficit) stays within the summed
/// per-shard error bounds plus one floor-rounding unit per shard.
fn check_merged_sandwich<E: FrequencyEstimator<u64>>(
    stream: &[u64],
    shards: usize,
    capacity: usize,
    overestimating: bool,
) -> (E, Result<(), TestCaseError>) {
    let (merged, summed_bound) = shard_and_merge::<E>(stream, shards, capacity);
    let exact = exact_counts(stream);
    let n = stream.len() as u64;
    let allow = summed_bound + shards as u64;
    let check = (|| {
        prop_assert_eq!(merged.updates(), n, "merged update count must sum");
        let monitored: HashMap<u64, (u64, u64)> = merged
            .candidates()
            .iter()
            .map(|c| (c.key, (c.lower, c.upper)))
            .collect();
        for (key, &f) in &exact {
            prop_assert!(
                merged.upper(key) >= f,
                "merged upper({key}) = {} < truth {f}",
                merged.upper(key)
            );
            prop_assert!(
                merged.lower(key) <= f,
                "merged lower({key}) = {} > truth {f}",
                merged.lower(key)
            );
            if let Some(&(lower, upper)) = monitored.get(key) {
                if overestimating {
                    prop_assert!(
                        upper <= f + allow,
                        "merged overestimate beyond summed bounds for {key}: \
                         upper={upper} f={f} allow={allow}"
                    );
                } else {
                    prop_assert!(
                        f - lower <= allow,
                        "merged deficit beyond summed bounds for {key}: \
                         lower={lower} f={f} allow={allow}"
                    );
                }
            }
        }
        // The heavy-hitter property over the merged stream: any key heavier
        // than the summed bounds must have survived re-eviction.
        let heavy_floor = allow;
        for (key, &f) in &exact {
            if f > heavy_floor {
                prop_assert!(
                    monitored.contains_key(key),
                    "heavy key {key} (f={f} > {heavy_floor}) lost in merge"
                );
            }
        }
        Ok(())
    })();
    (merged, check)
}

fn check_all_counters(stream: &[u64], shards: usize, capacity: usize) {
    let (merged, r) = check_merged_sandwich::<SpaceSaving<u64>>(stream, shards, capacity, true);
    r.unwrap_or_else(|e| panic!("stream-summary: {e}"));
    merged.debug_validate();
    let (merged, r) =
        check_merged_sandwich::<CompactSpaceSaving<u64>>(stream, shards, capacity, true);
    r.unwrap_or_else(|e| panic!("compact: {e}"));
    merged.debug_validate();
    let (merged, r) = check_merged_sandwich::<HeapSpaceSaving<u64>>(stream, shards, capacity, true);
    r.unwrap_or_else(|e| panic!("heap: {e}"));
    merged.debug_validate();
    let (_, r) = check_merged_sandwich::<MisraGries<u64>>(stream, shards, capacity, false);
    r.unwrap_or_else(|e| panic!("misra-gries: {e}"));
    let (_, r) = check_merged_sandwich::<LossyCounting<u64>>(stream, shards, capacity, false);
    r.unwrap_or_else(|e| panic!("lossy-counting: {e}"));
}

#[test]
fn merged_shards_keep_sandwich_on_adversarial_streams() {
    for shards in [2usize, 3, 5] {
        for cap in [4usize, 16, 64] {
            // All-distinct: maximal re-eviction pressure at merge time.
            let distinct: Vec<u64> = (0..3_000u64).collect();
            check_all_counters(&distinct, shards, cap);

            // Single key: the merge must pair the counts exactly.
            let single = vec![42u64; 2_000];
            check_all_counters(&single, shards, cap);

            // Phase change: fill, churn, then a late heavy phase.
            let mut phases: Vec<u64> = (0..800u64).collect();
            phases.extend(std::iter::repeat_n(7u64, 900));
            phases.extend(800..1_600u64);
            phases.extend(std::iter::repeat_n(13u64, 700));
            check_all_counters(&phases, shards, cap);
        }
    }
}

#[test]
fn merged_shards_keep_sandwich_on_zipf_stream() {
    let zipf = hhh_traces::Zipf::new(10_000, 1.2);
    let mut x = 0x5EEDu64;
    let mut uniform = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let stream: Vec<u64> = (0..30_000).map(|_| zipf.sample(&mut uniform)).collect();
    for shards in [2usize, 4, 8] {
        for cap in [16usize, 100, 1_000] {
            check_all_counters(&stream, shards, cap);
        }
    }
}

/// Builds K shard summaries and combines them two ways: the pairwise
/// `merge` fold and the single `merge_many` pass. The K-way combine must
/// keep the sandwich and be pointwise *no looser* than the fold (its
/// padding uses the per-shard minima; the fold pads with the growing
/// intermediate merged minima).
fn check_kway_vs_pairwise<E: FrequencyEstimator<u64>>(stream: &[u64], shards: usize, cap: usize) {
    let build = || {
        let mut parts: Vec<E> = (0..shards).map(|_| E::with_capacity(cap)).collect();
        for &k in stream {
            parts[shard_of(k, shards)].increment(k);
        }
        parts
    };
    let pairwise = {
        let mut parts = build();
        let mut merged = parts.remove(0);
        for part in parts {
            merged.merge(part);
        }
        merged
    };
    let kway = {
        let mut parts = build();
        let mut merged = parts.remove(0);
        merged.merge_many(parts);
        merged
    };
    assert_eq!(kway.updates(), pairwise.updates(), "update counts diverged");
    let exact = exact_counts(stream);
    for (key, &f) in &exact {
        assert!(kway.upper(key) >= f, "kway upper({key}) < truth {f}");
        assert!(kway.lower(key) <= f, "kway lower({key}) > truth {f}");
        assert!(
            kway.upper(key) <= pairwise.upper(key),
            "K-way estimate looser than the pairwise fold for {key}: \
             {} > {}",
            kway.upper(key),
            pairwise.upper(key)
        );
    }
    // `upper` of a never-seen key is the min-count: the unmonitored-key
    // bound must also be no looser than the fold's.
    assert!(
        kway.upper(&u64::MAX) <= pairwise.upper(&u64::MAX),
        "K-way min-count exceeds the fold's"
    );
}

#[test]
fn kway_merge_tighter_than_pairwise_fold() {
    let mut x = 0xACE5u64;
    let stream: Vec<u64> = (0..20_000)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            if i % 5 == 0 {
                i % 7 // recurring heavy keys
            } else {
                x % 4_096 // churning tail
            }
        })
        .collect();
    for shards in [2usize, 3, 4, 8] {
        for cap in [8usize, 64, 256] {
            check_kway_vs_pairwise::<SpaceSaving<u64>>(&stream, shards, cap);
            check_kway_vs_pairwise::<CompactSpaceSaving<u64>>(&stream, shards, cap);
        }
    }
}

#[test]
fn merge_many_handles_empty_and_single() {
    let mut a: SpaceSaving<u64> = SpaceSaving::with_capacity(8);
    for i in 0..30u64 {
        a.increment(i % 6);
    }
    let snapshot: Vec<_> = {
        let mut c = a.candidates();
        c.sort_unstable_by_key(|e| e.key);
        c
    };
    // Zero others: a no-op rebuild.
    a.merge_many(Vec::new());
    let mut after = a.candidates();
    after.sort_unstable_by_key(|e| e.key);
    assert_eq!(after, snapshot);
    a.debug_validate();
    // One other: identical to merge().
    let mut b1: SpaceSaving<u64> = SpaceSaving::with_capacity(8);
    let mut b2: SpaceSaving<u64> = SpaceSaving::with_capacity(8);
    for i in 0..40u64 {
        b1.increment(i % 9);
        b2.increment(i % 9);
    }
    let mut via_merge = a.clone();
    via_merge.merge(b1);
    a.merge_many(vec![b2]);
    assert_eq!(a.updates(), via_merge.updates());
    assert_eq!(a.min_count(), via_merge.min_count());
    a.debug_validate();
}

#[test]
#[should_panic(expected = "merge requires equal capacities")]
fn merge_many_rejects_capacity_mismatch() {
    let mut a: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    let b: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    let c: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(16);
    a.merge_many(vec![b, c]);
}

#[test]
fn merge_below_capacity_is_exact_union() {
    // Disjoint key sets that fit: the merged summary is the exact union,
    // with zero error.
    let mut a: SpaceSaving<u64> = SpaceSaving::with_capacity(16);
    let mut b: SpaceSaving<u64> = SpaceSaving::with_capacity(16);
    for _ in 0..5 {
        a.increment(1);
    }
    for _ in 0..3 {
        a.increment(2);
    }
    for _ in 0..7 {
        b.increment(10);
    }
    b.increment(11);
    a.merge(b);
    assert_eq!(a.updates(), 16);
    for (key, f) in [(1u64, 5u64), (2, 3), (10, 7), (11, 1)] {
        assert_eq!(a.upper(&key), f, "key {key}");
        assert_eq!(a.lower(&key), f, "key {key}");
    }
    assert_eq!(a.len(), 4);
    a.debug_validate();
}

#[test]
fn merge_with_empty_preserves_counts() {
    let mut a: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    for i in 0..20u64 {
        a.increment(i % 5);
    }
    let before: Vec<_> = {
        let mut c = a.candidates();
        c.sort_unstable_by_key(|e| e.key);
        c
    };
    a.merge(CompactSpaceSaving::with_capacity(8));
    let mut after = a.candidates();
    after.sort_unstable_by_key(|e| e.key);
    assert_eq!(before, after);
    assert_eq!(a.updates(), 20);
    a.debug_validate();

    // And merging *into* an empty instance adopts the other's contents.
    let mut empty: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    empty.merge(a);
    let mut adopted = empty.candidates();
    adopted.sort_unstable_by_key(|e| e.key);
    assert_eq!(adopted, after);
    empty.debug_validate();
}

#[test]
fn merge_overflow_re_evicts_to_capacity() {
    // Two full summaries with disjoint keys: the union re-evicts back to
    // capacity, keeping the largest counters, and the merged min-count
    // still bounds every dropped key.
    let cap = 4;
    let mut a: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
    let mut b: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
    for (key, w) in [(1u64, 10u64), (2, 8), (3, 2), (4, 1)] {
        a.add(key, w);
    }
    for (key, w) in [(11u64, 9u64), (12, 7), (13, 2), (14, 1)] {
        b.add(key, w);
    }
    a.merge(b);
    assert_eq!(a.len(), cap);
    assert_eq!(a.updates(), 40);
    // Min-padding: min_a = 1, min_b = 1, so each side's keys carry +1.
    assert_eq!(a.upper(&1), 11);
    assert_eq!(a.lower(&1), 10);
    assert!(a.upper(&3) >= 2, "dropped key still bounded by min-count");
    let min = a.min_count();
    assert!(min >= 3, "kept counters dominate dropped ones (min={min})");
    a.debug_validate();
}

#[test]
#[should_panic(expected = "merge requires equal capacities")]
fn merge_rejects_capacity_mismatch() {
    let mut a: SpaceSaving<u64> = SpaceSaving::with_capacity(8);
    let b: SpaceSaving<u64> = SpaceSaving::with_capacity(16);
    a.merge(b);
}

/// The full-sort combine the select-based engine replaced, kept as its
/// oracle: hash-combine with min-count padding, sort the whole union by
/// `(count, key)`, drop the prefix beyond `capacity`.
fn full_sort_merge_entries(
    sides: &[(Vec<Candidate<u64>>, u64)],
    capacity: usize,
) -> (Vec<(u64, u64, u64)>, u64) {
    let total_min: u64 = sides.iter().map(|(_, min)| min).sum();
    let mut combined: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for (cands, min) in sides {
        for c in cands {
            let e = combined.entry(c.key).or_insert((0, 0, 0));
            e.0 += c.upper;
            e.1 += c.upper - c.lower;
            e.2 += min;
        }
    }
    let mut entries: Vec<(u64, u64, u64)> = combined
        .into_iter()
        .map(|(key, (count, error, present_min))| {
            let pad = total_min - present_min;
            (key, count + pad, error + pad)
        })
        .collect();
    entries.sort_unstable_by_key(|&(key, count, _)| (count, key));
    let keep_from = entries.len().saturating_sub(capacity);
    let discarded = entries[..keep_from].iter().map(|e| e.1 - e.2).sum();
    entries.drain(..keep_from);
    (entries, discarded)
}

/// One side of a combine: distinct keys from a small space (so sides
/// overlap), counts from a narrow range (so counts tie), errors up to the
/// count, and a min-count no larger than the side's smallest count.
fn side() -> impl Strategy<Value = (Vec<Candidate<u64>>, u64)> {
    (vec((0u64..48, 1u64..6, 0u64..6), 0..24), any::<bool>()).prop_map(|(raw, full)| {
        let mut seen = std::collections::HashSet::new();
        let cands: Vec<Candidate<u64>> = raw
            .into_iter()
            .filter(|&(key, _, _)| seen.insert(key))
            .map(|(key, upper, error)| Candidate {
                key,
                upper,
                lower: upper - error.min(upper),
            })
            .collect();
        let min = match cands.iter().map(|c| c.upper).min() {
            Some(min) if full => min,
            _ => 0,
        };
        (cands, min)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The select-based engine returns exactly the full sort's kept
    /// entries, in the same order, with the same discarded mass — for
    /// K = 1..=8 sides, unions smaller and larger than the capacity, and
    /// counts that tie.
    #[test]
    fn select_engine_matches_full_sort_oracle(
        sides in vec(side(), 1..9),
        capacity in 1usize..40,
    ) {
        let got = merge_entries_many(&sides, capacity);
        let want = full_sort_merge_entries(&sides, capacity);
        prop_assert_eq!(got, want);
    }

    /// Random streams, random shard counts: the merged Space Saving
    /// summaries keep the sandwich and their internal invariants.
    #[test]
    fn merged_space_saving_random(
        stream in vec(0u64..64, 1..2_000),
        shards in 2usize..6,
        cap in 1usize..32,
    ) {
        let (merged, r) =
            check_merged_sandwich::<SpaceSaving<u64>>(&stream, shards, cap, true);
        r?;
        merged.debug_validate();
    }

    #[test]
    fn merged_compact_random(
        stream in vec(0u64..64, 1..2_000),
        shards in 2usize..6,
        cap in 1usize..32,
    ) {
        let (merged, r) =
            check_merged_sandwich::<CompactSpaceSaving<u64>>(&stream, shards, cap, true);
        r?;
        merged.debug_validate();
    }

    /// Merging is associative enough for pipelines: left-fold and
    /// right-leaning fold of the same shards give summaries with the same
    /// update count and total guaranteed mass.
    #[test]
    fn merge_fold_order_preserves_ledger(
        stream in vec(0u64..48, 1..1_500),
        cap in 2usize..24,
    ) {
        let build = |part: &[u64]| {
            let mut e: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
            for &k in part {
                e.increment(k);
            }
            e
        };
        let third = (stream.len() / 3).max(1).min(stream.len());
        let (p1, rest) = stream.split_at(third);
        let (p2, p3) = rest.split_at((rest.len() / 2).min(rest.len()));
        // ((1 ⊕ 2) ⊕ 3)
        let mut left = build(p1);
        left.merge(build(p2));
        left.merge(build(p3));
        // (1 ⊕ (2 ⊕ 3))
        let mut tail = build(p2);
        tail.merge(build(p3));
        let mut right = build(p1);
        right.merge(tail);
        prop_assert_eq!(left.updates(), right.updates());
        left.debug_validate();
        right.debug_validate();
    }
}
