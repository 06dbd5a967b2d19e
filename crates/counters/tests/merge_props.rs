//! Differential combine tests: a stream split across K shard summaries,
//! each frozen, and combined into one read-only view
//! (`FrequencyEstimator::combine`) must still satisfy the (ε, δ)-Frequency Estimation sandwich against
//! exact counts of the *whole* stream, with the additive error of the
//! per-shard bounds summed — for every counter algorithm, at K = 1..=4, on
//! random, Zipf, phase-change and adversarial streams.

use hhh_counters::{
    merge_entries_many, Candidate, CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator,
    Frozen, LossyCounting, MisraGries, SpaceSaving,
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

/// Feeds `stream` into `shards` instances partitioned by key hash.
fn shard<E: FrequencyEstimator<u64>>(stream: &[u64], shards: usize, capacity: usize) -> Vec<E> {
    let mut parts: Vec<E> = (0..shards).map(|_| E::with_capacity(capacity)).collect();
    for &k in stream {
        parts[shard_of(k, shards)].increment(k);
    }
    parts
}

/// Freezes every part and combines the frozen parts by `E`'s rule.
fn combine<E: FrequencyEstimator<u64>>(parts: &[&E]) -> Frozen<u64> {
    let frozen: Vec<Frozen<u64>> = parts.iter().map(|p| Frozen::freeze(*p)).collect();
    E::combine(&frozen.iter().collect::<Vec<_>>())
}

fn view_of<E: FrequencyEstimator<u64>>(parts: &[E]) -> Frozen<u64> {
    combine(&parts.iter().collect::<Vec<_>>())
}

/// Keys sorted, so views of different candidate orders compare.
fn sorted(mut c: Vec<Candidate<u64>>) -> Vec<Candidate<u64>> {
    c.sort_unstable_by_key(|e| e.key);
    c
}

/// How a family's bounds lean: Space Saving overestimates within the
/// summed `n/m` bounds, Misra–Gries and Lossy Counting underestimate
/// within them, and Cuckoo Heavy Keeper underestimates by exactly its
/// deficit, which every re-insert drop is charged to.
#[derive(Clone, Copy, PartialEq)]
enum Lean {
    Over,
    Under,
    Deficit,
}

/// The sandwich of the combine contract: `lower ≤ f ≤ upper` for every key
/// of the stream, and for monitored keys the overestimate (or, for the
/// underestimating structures, the deficit) stays within the summed
/// per-shard error bounds plus one floor-rounding unit per shard.
fn check_merged_sandwich<E: FrequencyEstimator<u64>>(
    stream: &[u64],
    shards: usize,
    capacity: usize,
    lean: Lean,
) -> Result<(), TestCaseError> {
    let parts = shard::<E>(stream, shards, capacity);
    let summed_bound: u64 = parts.iter().map(|p| p.error_bound()).sum();
    let view = view_of(&parts);
    let exact = exact_counts(stream);
    let n = stream.len() as u64;
    let allow = summed_bound + shards as u64;
    prop_assert_eq!(view.updates(), n, "merged update count must sum");
    let monitored: HashMap<u64, (u64, u64)> = view
        .candidates()
        .iter()
        .map(|c| (c.key, (c.lower, c.upper)))
        .collect();
    for (key, &f) in &exact {
        prop_assert!(
            view.upper(key) >= f,
            "merged upper({key}) = {} < truth {f}",
            view.upper(key)
        );
        prop_assert!(
            view.lower(key) <= f,
            "merged lower({key}) = {} > truth {f}",
            view.lower(key)
        );
        if let Some(&(lower, upper)) = monitored.get(key) {
            match lean {
                Lean::Over => prop_assert!(
                    upper <= f + allow,
                    "merged overestimate beyond summed bounds for {key}: \
                     upper={upper} f={f} allow={allow}"
                ),
                Lean::Under => prop_assert!(
                    f - lower <= allow,
                    "merged deficit beyond summed bounds for {key}: \
                     lower={lower} f={f} allow={allow}"
                ),
                Lean::Deficit => {}
            }
        }
    }
    if lean == Lean::Deficit {
        // Every unit the view does not attribute is in its deficit, which
        // is at least the shards' deficits summed.
        let attributed: u64 = monitored.values().map(|&(lower, _)| lower).sum();
        prop_assert_eq!(view.unmonitored_upper(), n - attributed);
        prop_assert!(view.unmonitored_upper() >= summed_bound);
        return Ok(());
    }
    if lean == Lean::Over {
        prop_assert!(monitored.len() <= capacity, "view over capacity");
    }
    // The heavy-hitter property over the merged stream: any key heavier
    // than the summed bounds must have survived re-eviction.
    for (key, &f) in &exact {
        if f > allow {
            prop_assert!(
                monitored.contains_key(key),
                "heavy key {key} (f={f} > {allow}) lost in merge"
            );
        }
    }
    Ok(())
}

fn check_all_counters(stream: &[u64], shards: usize, capacity: usize) {
    check_merged_sandwich::<SpaceSaving<u64>>(stream, shards, capacity, Lean::Over)
        .unwrap_or_else(|e| panic!("stream-summary: {e}"));
    check_merged_sandwich::<CompactSpaceSaving<u64>>(stream, shards, capacity, Lean::Over)
        .unwrap_or_else(|e| panic!("compact: {e}"));
    check_merged_sandwich::<MisraGries<u64>>(stream, shards, capacity, Lean::Under)
        .unwrap_or_else(|e| panic!("misra-gries: {e}"));
    check_merged_sandwich::<LossyCounting<u64>>(stream, shards, capacity, Lean::Under)
        .unwrap_or_else(|e| panic!("lossy-counting: {e}"));
    check_merged_sandwich::<CuckooHeavyKeeper<u64>>(stream, shards, capacity, Lean::Deficit)
        .unwrap_or_else(|e| panic!("chk: {e}"));
}

#[test]
fn merged_shards_keep_sandwich_on_adversarial_streams() {
    for shards in 1usize..=4 {
        for cap in [4usize, 16, 64] {
            // All-distinct: maximal re-eviction pressure at combine time.
            let distinct: Vec<u64> = (0..3_000u64).collect();
            check_all_counters(&distinct, shards, cap);

            // Single key: the combine must pair the counts exactly.
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
    for shards in 1usize..=4 {
        for cap in [16usize, 100, 1_000] {
            check_all_counters(&stream, shards, cap);
        }
    }
}

/// A pairwise fold of the same engine, kept as a test-side oracle: each
/// step combines the running result, padded with its own merged
/// min-count, with the next frozen part. Returns the kept candidates by
/// key and the final min-count (the fold's bound for an unmonitored key).
fn pairwise_fold<E: FrequencyEstimator<u64>>(parts: &[E]) -> (HashMap<u64, Candidate<u64>>, u64) {
    let cap = parts[0].capacity();
    let mut acc = Frozen::freeze(&parts[0]);
    for part in &parts[1..] {
        acc = merge_entries_many(&[&acc, &Frozen::freeze(part)], cap);
    }
    let kept = acc.candidates().into_iter().map(|c| (c.key, c)).collect();
    (kept, acc.unmonitored_upper())
}

/// Builds K shard summaries and combines them two ways: the pairwise fold
/// oracle and the view's single K-way pass. The K-way combine must keep
/// the sandwich and be pointwise *no looser* than the fold (its padding
/// uses the per-shard minima; the fold pads with the growing intermediate
/// merged minima).
fn check_kway_vs_pairwise<E: FrequencyEstimator<u64>>(stream: &[u64], shards: usize, cap: usize) {
    let parts = shard::<E>(stream, shards, cap);
    let (fold, fold_min) = pairwise_fold(&parts);
    let fold_upper = |key: &u64| fold.get(key).map_or(fold_min, |c| c.upper);
    let kway = view_of(&parts);
    assert_eq!(
        kway.updates(),
        stream.len() as u64,
        "update counts diverged"
    );
    let exact = exact_counts(stream);
    for (key, &f) in &exact {
        assert!(kway.upper(key) >= f, "kway upper({key}) < truth {f}");
        assert!(kway.lower(key) <= f, "kway lower({key}) > truth {f}");
        assert!(
            kway.upper(key) <= fold_upper(key),
            "K-way estimate looser than the pairwise fold for {key}: \
             {} > {}",
            kway.upper(key),
            fold_upper(key)
        );
    }
    // `upper` of a never-seen key is the min-count: the unmonitored-key
    // bound must also be no looser than the fold's.
    assert!(
        kway.upper(&u64::MAX) <= fold_upper(&u64::MAX),
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

/// A one-part combine is the frozen part as is, in its own candidate
/// order; empty parts add nothing to a combine.
fn check_single_and_empty<E: FrequencyEstimator<u64>>() {
    let mut a = E::with_capacity(8);
    for i in 0..30u64 {
        a.increment(i % 6);
    }
    let frozen = Frozen::freeze(&a);
    let single = E::combine(&[&frozen]);
    assert_eq!(single.candidates(), frozen.candidates());
    assert_eq!(single.unmonitored_upper(), frozen.unmonitored_upper());
    assert_eq!(single.updates(), frozen.updates());
    let empty = E::with_capacity(8);
    for parts in [[&a, &empty], [&empty, &a]] {
        let view = combine(&parts);
        assert_eq!(sorted(view.candidates()), sorted(a.candidates()));
        assert_eq!(view.updates(), 30);
    }
}

#[test]
fn merge_many_handles_empty_and_single() {
    check_single_and_empty::<SpaceSaving<u64>>();
    check_single_and_empty::<CompactSpaceSaving<u64>>();
}

#[test]
#[should_panic(expected = "merge requires equal capacities")]
fn merge_many_rejects_capacity_mismatch() {
    let a: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    let b: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    let c: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(16);
    let _ = combine(&[&a, &b, &c]);
}

#[test]
fn merged_view_rejects_capacity_mismatch_for_every_family() {
    fn panics<E: FrequencyEstimator<u64>>() -> bool {
        let a = E::with_capacity(8);
        let b = E::with_capacity(16);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| combine(&[&a, &b]))).is_err()
    }
    assert!(panics::<SpaceSaving<u64>>(), "stream-summary");
    assert!(panics::<CompactSpaceSaving<u64>>(), "compact");
    assert!(panics::<MisraGries<u64>>(), "misra-gries");
    assert!(panics::<LossyCounting<u64>>(), "lossy-counting");
    assert!(panics::<CuckooHeavyKeeper<u64>>(), "chk");
}

#[test]
fn merge_below_capacity_is_exact_union() {
    // Disjoint key sets that fit: the view is the exact union, with zero
    // error.
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
    let view = combine(&[&a, &b]);
    assert_eq!(view.updates(), 16);
    for (key, f) in [(1u64, 5u64), (2, 3), (10, 7), (11, 1)] {
        assert_eq!(view.upper(&key), f, "key {key}");
        assert_eq!(view.lower(&key), f, "key {key}");
    }
    assert_eq!(view.candidates().len(), 4);
    assert_eq!(view.unmonitored_upper(), 0, "not full: nothing unmonitored");
}

#[test]
fn merge_with_empty_preserves_counts() {
    let mut a: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    for i in 0..20u64 {
        a.increment(i % 5);
    }
    let empty: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(8);
    let before = sorted(a.candidates());
    // Combining with an empty part on either side adopts `a`'s contents.
    for parts in [[&a, &empty], [&empty, &a]] {
        let view = combine(&parts);
        assert_eq!(sorted(view.candidates()), before);
        assert_eq!(view.updates(), 20);
    }
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
    let view = combine(&[&a, &b]);
    assert_eq!(view.candidates().len(), cap);
    assert_eq!(view.updates(), 40);
    // Min-padding: min_a = 1, min_b = 1, so each side's keys carry +1.
    assert_eq!(view.upper(&1), 11);
    assert_eq!(view.lower(&1), 10);
    assert!(
        view.upper(&3) >= 2,
        "dropped key still bounded by min-count"
    );
    let min = view.unmonitored_upper();
    assert!(min >= 3, "kept counters dominate dropped ones (min={min})");
}

#[test]
#[should_panic(expected = "merge requires equal capacities")]
fn merge_rejects_capacity_mismatch() {
    let a: SpaceSaving<u64> = SpaceSaving::with_capacity(8);
    let b: SpaceSaving<u64> = SpaceSaving::with_capacity(16);
    let _ = combine(&[&a, &b]);
}

/// A combine's entries as a key-sorted `(key, lower, upper)` multiset, its
/// update count and its unmonitored-key bound.
type Ledger = (Vec<(u64, u64, u64)>, u64, u64);

fn ledger_of(view: &Frozen<u64>) -> Ledger {
    let mut entries: Vec<(u64, u64, u64)> = view
        .candidates()
        .iter()
        .map(|c| (c.key, c.lower, c.upper))
        .collect();
    entries.sort_unstable();
    (entries, view.updates(), view.unmonitored_upper())
}

/// The reference for the Misra–Gries combine: the pairwise rule as the
/// live summary applied it (Agarwal et al.), on a scratch copy of the
/// first part's counts that absorbs the rest in order. A live part's
/// state reads back through its bounds: `count = lower`, `stored = Σ count`.
fn misra_gries_reference(parts: &[MisraGries<u64>]) -> Ledger {
    let k = parts[0].capacity();
    let state = |p: &MisraGries<u64>| -> HashMap<u64, u64> {
        p.candidates().iter().map(|c| (c.key, c.lower)).collect()
    };
    let mut counts = state(&parts[0]);
    let mut updates = parts[0].updates();
    let mut stored: u64 = counts.values().sum();
    for part in &parts[1..] {
        let other = state(part);
        updates += part.updates();
        stored += other.values().sum::<u64>();
        for (key, c) in other {
            *counts.entry(key).or_insert(0) += c;
        }
        if counts.len() > k {
            let mut all: Vec<u64> = counts.values().copied().collect();
            all.sort_unstable_by(|a, b| b.cmp(a));
            let sub = all[k];
            let mut removed = 0;
            counts.retain(|_, c| {
                let cut = (*c).min(sub);
                removed += cut;
                *c -= cut;
                *c > 0
            });
            stored -= removed;
        }
    }
    let deficit = (updates - stored) / (k as u64 + 1);
    let mut entries: Vec<(u64, u64, u64)> = counts
        .into_iter()
        .map(|(key, c)| (key, c, c + deficit))
        .collect();
    entries.sort_unstable();
    (entries, updates, deficit)
}

/// The reference for the Lossy Counting combine: the live summary's
/// pairwise rule on a scratch copy of the first part, absorbing the rest
/// in order. A live part's state reads back through its bounds:
/// `count = lower`, `Δ = upper − lower`, `bucket = unmonitored + 1`.
fn lossy_counting_reference(parts: &[LossyCounting<u64>]) -> Ledger {
    let state = |p: &LossyCounting<u64>| -> (HashMap<u64, (u64, u64)>, u64) {
        let entries = p
            .candidates()
            .iter()
            .map(|c| (c.key, (c.lower, c.upper - c.lower)))
            .collect();
        (entries, p.unmonitored_upper() + 1)
    };
    let (mut entries, mut bucket) = state(&parts[0]);
    let mut updates = parts[0].updates();
    for part in &parts[1..] {
        let (other, b2) = state(part);
        updates += part.updates();
        let b1 = bucket;
        for e in entries.values_mut() {
            e.1 += b2 - 1;
        }
        for (key, (count, delta)) in other {
            match entries.get_mut(&key) {
                Some(e1) => {
                    e1.0 += count;
                    e1.1 = e1.1 - (b2 - 1) + delta;
                }
                None => {
                    entries.insert(key, (count, delta + (b1 - 1)));
                }
            }
        }
        bucket = b1 + b2 - 1;
        entries.retain(|_, e| e.0 + e.1 > bucket - 1);
    }
    let mut entries: Vec<(u64, u64, u64)> = entries
        .into_iter()
        .map(|(key, (count, delta))| (key, count, count + delta))
        .collect();
    entries.sort_unstable();
    (entries, updates, bucket - 1)
}

/// Splits `stream` into `k` parts of interleaved chunks, so the parts
/// share keys and the rules' both-sides branches run.
fn chunked<E: FrequencyEstimator<u64>>(stream: &[u64], k: usize, capacity: usize) -> Vec<E> {
    let mut parts: Vec<E> = (0..k).map(|_| E::with_capacity(capacity)).collect();
    for (i, chunk) in stream.chunks(97).enumerate() {
        parts[i % k].increment_batch(chunk);
    }
    parts
}

/// The Misra–Gries and Lossy Counting combines over frozen parts keep the
/// live pairwise rules' ledgers exactly — the same `(key, lower, upper)`
/// multiset, update count and unmonitored-key bound — and emit their
/// entries in ascending key order.
fn check_fold_matches_live_rule(stream: &[u64], k: usize, capacity: usize) {
    let mg = chunked::<MisraGries<u64>>(stream, k, capacity);
    let view = view_of(&mg);
    assert_eq!(ledger_of(&view), misra_gries_reference(&mg), "misra-gries");
    let keys: Vec<u64> = view.candidates().iter().map(|c| c.key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "misra-gries order");
    let lc = chunked::<LossyCounting<u64>>(stream, k, capacity);
    let view = view_of(&lc);
    assert_eq!(ledger_of(&view), lossy_counting_reference(&lc), "lossy");
    let keys: Vec<u64> = view.candidates().iter().map(|c| c.key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "lossy order");
}

#[test]
fn misra_gries_and_lossy_folds_match_the_live_rules() {
    // Geometric key frequencies (key j about twice as common as j + 1),
    // shifted by the chunk's position so neighbouring parts share some
    // keys: the parts hold distinct counts, and their union overflows the
    // capacity, so the Misra–Gries cut and the Lossy prune both bite.
    let mut x = 0xF01Du64;
    let stream: Vec<u64> = (0..12_000u64)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            u64::from((x >> 20).trailing_zeros().min(24)) + 3 * ((i / 97) % 4)
        })
        .collect();
    for k in 2..=4 {
        for capacity in [2, 4, 8] {
            check_fold_matches_live_rule(&stream, k, capacity);
        }
    }
}

/// The full-sort combine the select-based engine replaced, kept as its
/// oracle: hash-combine with min-count padding, sort the whole union by
/// `(count, key)`, drop the prefix beyond `capacity`.
fn full_sort_merge_entries(
    sides: &[(Vec<Candidate<u64>>, u64)],
    capacity: usize,
) -> Vec<(u64, u64, u64)> {
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
    entries.drain(..keep_from);
    entries
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
    /// entries, in the same order — for K = 1..=8 sides, unions smaller
    /// and larger than the capacity, and counts that tie.
    #[test]
    fn select_engine_matches_full_sort_oracle(
        sides in vec(side(), 1..9),
        capacity in 1usize..40,
    ) {
        let frozen: Vec<Frozen<u64>> = sides
            .iter()
            .map(|(cands, min)| {
                let entries = cands.iter().map(|c| (c.key, c.upper, c.upper - c.lower)).collect();
                Frozen::from_entries(entries, *min, 0, capacity)
            })
            .collect();
        let got = merge_entries_many(&frozen.iter().collect::<Vec<_>>(), capacity);
        let got: Vec<(u64, u64, u64)> = got
            .candidates()
            .iter()
            .map(|c| (c.key, c.upper, c.upper - c.lower))
            .collect();
        let want = full_sort_merge_entries(&sides, capacity);
        prop_assert_eq!(got, want);
    }

    /// Random streams: the frozen Misra–Gries and Lossy Counting folds
    /// keep the live rules' ledgers at K = 2..=4.
    #[test]
    fn misra_gries_and_lossy_folds_match_on_random_streams(
        stream in vec(0u64..80, 1..1_500),
        k in 2usize..5,
        capacity in 1usize..24,
    ) {
        check_fold_matches_live_rule(&stream, k, capacity);
    }

    /// Random streams, random shard counts: the Space Saving views keep
    /// the sandwich and the summed bound.
    #[test]
    fn merged_space_saving_random(
        stream in vec(0u64..64, 1..2_000),
        shards in 1usize..5,
        cap in 1usize..32,
    ) {
        check_merged_sandwich::<SpaceSaving<u64>>(&stream, shards, cap, Lean::Over)?;
    }

    #[test]
    fn merged_compact_random(
        stream in vec(0u64..64, 1..2_000),
        shards in 1usize..5,
        cap in 1usize..32,
    ) {
        check_merged_sandwich::<CompactSpaceSaving<u64>>(&stream, shards, cap, Lean::Over)?;
    }

    /// The K-way combine does not depend on the order of its parts: any
    /// rotation of the same shards gives the same kept entries, update
    /// count and guaranteed mass.
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
        let (a, b, c) = (build(p1), build(p2), build(p3));
        let left = combine(&[&a, &b, &c]);
        let right = combine(&[&c, &a, &b]);
        prop_assert_eq!(left.updates(), right.updates());
        prop_assert_eq!(left.unmonitored_upper(), right.unmonitored_upper());
        prop_assert_eq!(sorted(left.candidates()), sorted(right.candidates()));
        let guaranteed: u64 = left.candidates().iter().map(|c| c.lower).sum();
        prop_assert!(guaranteed <= left.updates(), "counted mass exceeds updates");
    }
}
