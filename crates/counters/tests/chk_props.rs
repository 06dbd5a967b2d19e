//! Property suites for the [`CuckooHeavyKeeper`] decay counter.
//!
//! CHK is *not* count-multiset exact — decay deliberately forgets tail
//! mass — so the differential pin is its **deterministic deficit
//! sandwich** against an exact oracle: `lower(x) ≤ f(x) ≤ upper(x)` for
//! every key (monitored or absent), with `upper − lower` exactly the
//! unattributed deficit `updates − Σ counts`.

use hhh_counters::{CuckooHeavyKeeper, FrequencyEstimator, Frozen};
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

/// Feeds `stream` through the batch flush path in `group`-sized chunks,
/// the way the RHHH lattice drives its node counters.
fn feed_groups<E: FrequencyEstimator<u64>>(est: &mut E, stream: &[u64], group: usize) {
    for chunk in stream.chunks(group.max(1)) {
        let mut g = chunk.to_vec();
        est.flush_group(&mut g, &mut <[u64]>::sort_unstable);
    }
}

/// The CHK contract: deterministic sandwich for every key, deficit ledger
/// closed, absent keys covered by the deficit alone.
fn check_chk_sandwich(stream: &[u64], cap: usize) -> Result<(), TestCaseError> {
    let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(cap);
    for &k in stream {
        chk.increment(k);
    }
    let exact = exact_counts(stream);
    for (key, &f) in &exact {
        prop_assert!(chk.lower(key) <= f, "lower({key}) > {f}");
        prop_assert!(chk.upper(key) >= f, "upper({key}) < {f}");
        prop_assert_eq!(chk.upper(key) - chk.lower(key), chk.error_bound());
    }
    // Absent key: zero guaranteed mass, deficit-wide band.
    let absent = u64::MAX;
    prop_assert_eq!(chk.lower(&absent), 0);
    prop_assert_eq!(chk.upper(&absent), chk.error_bound());
    // Ledger: deficit is exactly the mass the counts don't carry.
    let stored: u64 = chk.candidates().iter().map(|c| c.lower).sum();
    prop_assert_eq!(chk.error_bound(), chk.updates() - stored);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chk_sandwich_random(stream in vec(0u64..64, 1..2_000), cap in 2usize..32) {
        check_chk_sandwich(&stream, cap)?;
    }

    #[test]
    fn chk_sandwich_wide_universe(stream in vec(any::<u64>(), 1..2_000), cap in 2usize..32) {
        check_chk_sandwich(&stream, cap)?;
    }

    #[test]
    fn chk_batch_flush_matches_scalar(stream in vec(0u64..256, 1..1_500), cap in 2usize..32) {
        // The batch front end must be observationally identical to the
        // scalar loop on the same *sorted* update order.
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        let mut scalar = CuckooHeavyKeeper::<u64>::with_capacity(cap);
        for &k in &sorted {
            scalar.increment(k);
        }
        let mut batch = CuckooHeavyKeeper::<u64>::with_capacity(cap);
        batch.increment_batch(&sorted);
        prop_assert_eq!(format!("{scalar:?}"), format!("{batch:?}"));
    }


    #[test]
    fn chk_merge_bound_holds(
        sa in vec(0u64..128, 1..1_000),
        sb in vec(0u64..128, 1..1_000),
        cap in 4usize..32,
    ) {
        let mut a = CuckooHeavyKeeper::<u64>::with_capacity(cap);
        let mut b = CuckooHeavyKeeper::<u64>::with_capacity(cap);
        for &k in &sa { a.increment(k); }
        for &k in &sb { b.increment(k); }
        let deficit_sum = a.error_bound() + b.error_bound();
        let merged = CuckooHeavyKeeper::combine(&[&Frozen::freeze(&a), &Frozen::freeze(&b)]);
        // Documented combine bound: re-insertion only ever *returns* mass
        // to the deficit, so the merged deficit is at least the shard sum
        // (drops add to it) and the sandwich holds over the concatenation.
        prop_assert_eq!(merged.updates(), a.updates() + b.updates());
        prop_assert!(merged.unmonitored_upper() >= deficit_sum, "merged deficit below shard sum");
        let mut truth = exact_counts(&sa);
        for (k, f) in exact_counts(&sb) {
            *truth.entry(k).or_insert(0) += f;
        }
        for (key, &f) in &truth {
            prop_assert!(merged.lower(key) <= f, "merged chk lower({key}) > {f}");
            prop_assert!(merged.upper(key) >= f, "merged chk upper({key}) < {f}");
        }
    }
}

/// Deterministic four-shape differential sweep (random / zipf / distinct /
/// phase-change), mirroring the per-module test but through the public
/// batch flush path and at a larger scale than proptest cases reach.
#[test]
fn chk_sandwich_on_shaped_streams() {
    type Shaper = Box<dyn Fn(u64) -> u64>;
    let shapes: [(&str, Shaper); 4] = [
        (
            "random",
            Box::new(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52),
        ),
        ("zipf", Box::new(|i| u64::from((i % 4_096 + 1).ilog2()))),
        ("distinct", Box::new(|i| i)),
        ("phase", Box::new(|i| if i < 6_000 { i } else { i % 24 })),
    ];
    for (name, shape) in shapes {
        let stream: Vec<u64> = (0..12_000).map(&shape).collect();
        let mut chk = CuckooHeavyKeeper::<u64>::with_capacity(64);
        feed_groups(&mut chk, &stream, 128);
        let exact = exact_counts(&stream);
        for (key, &f) in &exact {
            assert!(chk.lower(key) <= f, "{name}: lower({key}) > {f}");
            assert!(chk.upper(key) >= f, "{name}: upper({key}) < {f}");
        }
        let stored: u64 = chk.candidates().iter().map(|c| c.lower).sum();
        assert_eq!(chk.error_bound(), chk.updates() - stored, "{name}: ledger");
    }
}
