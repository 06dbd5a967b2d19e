//! Property suites for the PR 7 additions: the [`CuckooHeavyKeeper`]
//! decay counter and the regime-adaptive [`DispatchedEstimator`].
//!
//! CHK is *not* count-multiset exact — decay deliberately forgets tail
//! mass — so the differential pin is its **deterministic deficit
//! sandwich** against an exact oracle: `lower(x) ≤ f(x) ≤ upper(x)` for
//! every key (monitored or absent), with `upper − lower` exactly the
//! unattributed deficit `updates − Σ counts`.
//!
//! The dispatch suite pins the two facts the wrapper's module docs
//! promise: a node that never crosses the hysteresis band is
//! **bit-identical** to the fixed layout fed the same updates, and a
//! migration (same-family or cross-family, forced or organic) preserves
//! the per-key estimate sandwich.

use hhh_counters::{
    CuckooHeavyKeeper, DispatchLayout, DispatchedEstimator, FrequencyEstimator, SpaceSaving,
};
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

/// A dispatched estimator and its fixed twin fed identical updates must
/// have identical inner state whenever no switch happened — the wrapper's
/// probes are read-only and it owns no RNG, so `Debug` output (which
/// renders every field, RNG cursors included) must match exactly.
fn check_never_switch_bit_identity(
    stream: &[u64],
    cap: usize,
    group: usize,
) -> Result<(), TestCaseError> {
    let mut dispatched = DispatchedEstimator::<u64>::with_capacity(cap);
    let mut fixed = SpaceSaving::<u64>::with_capacity(cap);
    feed_groups(&mut dispatched, stream, group);
    feed_groups(&mut fixed, stream, group);
    if dispatched.switch_count() == 0 {
        prop_assert_eq!(dispatched.inner_repr(), format!("{fixed:?}"));
    } else {
        // A switch happened (miss-heavy stream): the compact twin check
        // lives in `migration_keeps_sandwich`; here just require the
        // sandwich still holds.
        for (key, &f) in &exact_counts(stream) {
            prop_assert!(dispatched.lower(key) <= f);
            prop_assert!(dispatched.upper(key) >= f);
        }
    }
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
    fn dispatch_never_switch_is_bit_identical(
        stream in vec(0u64..48, 1..2_000),
        cap in 4usize..32,
        group in 16usize..256,
    ) {
        // Small key universe relative to capacity → hit-heavy → no switch.
        check_never_switch_bit_identity(&stream, cap, group)?;
    }

    #[test]
    fn dispatch_any_stream_keeps_sandwich(
        stream in vec(0u64..1_024, 1..2_000),
        cap in 4usize..32,
        group in 16usize..256,
    ) {
        // Wide universe: switches may or may not fire — either way the
        // estimates must stay a sound sandwich.
        check_never_switch_bit_identity(&stream, cap, group)?;
    }

    #[test]
    fn migration_keeps_sandwich(
        stream in vec(0u64..512, 1..2_000),
        cap in 4usize..32,
        target_ix in 0usize..3,
    ) {
        let target = [
            DispatchLayout::StreamSummary,
            DispatchLayout::Compact,
            DispatchLayout::Chk,
        ][target_ix];
        let mut d = DispatchedEstimator::<u64>::with_capacity(cap);
        feed_groups(&mut d, &stream, 64);
        let updates_before = d.updates();
        d.force_migrate(target);
        prop_assert_eq!(d.active_layout(), target);
        prop_assert_eq!(d.updates(), updates_before, "migration must not lose mass");
        for (key, &f) in &exact_counts(&stream) {
            prop_assert!(d.lower(key) <= f, "lower({key}) > {f} after migration");
            prop_assert!(d.upper(key) >= f, "upper({key}) < {f} after migration");
        }
    }

    #[test]
    fn ss_to_ss_migration_is_exact(stream in vec(0u64..512, 1..2_000), cap in 4usize..32) {
        let mut d = DispatchedEstimator::<u64>::with_capacity(cap);
        let mut fixed = SpaceSaving::<u64>::with_capacity(cap);
        feed_groups(&mut d, &stream, 64);
        feed_groups(&mut fixed, &stream, 64);
        // Only streams that kept the node on the boot layout compare
        // against the fixed twin (a switched node diverged legitimately).
        if d.switch_count() == 0 {
            d.force_migrate(DispatchLayout::Compact);
            d.force_migrate(DispatchLayout::StreamSummary);
            let sort = |mut v: Vec<hhh_counters::Candidate<u64>>| {
                v.sort_unstable_by_key(|a| a.key);
                v
            };
            prop_assert_eq!(sort(d.candidates()), sort(fixed.candidates()));
            prop_assert_eq!(d.updates(), fixed.updates());
        }
    }

    #[test]
    fn merge_across_active_layouts_keeps_sandwich(
        sa in vec(0u64..256, 1..1_000),
        sb in vec(0u64..256, 1..1_000),
        cap in 4usize..32,
        layout_ix in 0usize..3,
    ) {
        let mut a = DispatchedEstimator::<u64>::with_capacity(cap);
        let mut b = DispatchedEstimator::<u64>::with_capacity(cap);
        feed_groups(&mut a, &sa, 64);
        feed_groups(&mut b, &sb, 64);
        b.force_migrate([
            DispatchLayout::StreamSummary,
            DispatchLayout::Compact,
            DispatchLayout::Chk,
        ][layout_ix]);
        let total = a.updates() + b.updates();
        let active = a.active_layout();
        a.merge(b);
        prop_assert_eq!(a.updates(), total);
        prop_assert_eq!(a.active_layout(), active, "merge must not flip the survivor");
        let mut truth = exact_counts(&sa);
        for (k, f) in exact_counts(&sb) {
            *truth.entry(k).or_insert(0) += f;
        }
        for (key, &f) in &truth {
            prop_assert!(a.lower(key) <= f, "merged lower({key}) > {f}");
            prop_assert!(a.upper(key) >= f, "merged upper({key}) < {f}");
        }
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
        a.merge(b);
        // Documented merge bound: re-insertion only ever *returns* mass to
        // the deficit, so the merged deficit is at least the shard sum
        // (drops add to it) and the sandwich holds over the concatenation.
        prop_assert!(a.error_bound() >= deficit_sum, "merged deficit below shard sum");
        let mut truth = exact_counts(&sa);
        for (k, f) in exact_counts(&sb) {
            *truth.entry(k).or_insert(0) += f;
        }
        for (key, &f) in &truth {
            prop_assert!(a.lower(key) <= f, "merged chk lower({key}) > {f}");
            prop_assert!(a.upper(key) >= f, "merged chk upper({key}) < {f}");
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

/// A miss-heavy stream must organically drive the default pair to the
/// compact side exactly once, and the estimates stay sound across the
/// organic (non-forced) migration.
#[test]
fn organic_switch_is_single_and_sound() {
    let stream: Vec<u64> = (0..40_000u64).collect();
    let mut d = DispatchedEstimator::<u64>::with_capacity(32);
    feed_groups(&mut d, &stream, 256);
    assert_eq!(d.active_layout(), DispatchLayout::Compact);
    assert_eq!(d.switch_count(), 1, "hysteresis must not thrash");
    // Distinct stream: every count is 1; sandwich for a late arrival.
    let probe = stream[stream.len() - 1];
    assert!(d.lower(&probe) <= 1);
    assert!(d.upper(&probe) >= 1 || d.lower(&probe) == 0);
}
