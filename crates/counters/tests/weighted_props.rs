//! Property tests for weighted updates: `add(key, w)` must preserve every
//! Definition 4 invariant and agree with `w` repeated increments where the
//! semantics are deterministic.

use hhh_counters::{
    CompactSpaceSaving, FrequencyEstimator, LossyCounting, MisraGries, SpaceSaving,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_weighted_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    vec((0u64..32, 1u64..50), 1..400)
}

fn exact(stream: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &(k, w) in stream {
        *m.entry(k).or_insert(0u64) += w;
    }
    m
}

fn check_weighted<E: FrequencyEstimator<u64>>(
    stream: &[(u64, u64)],
    cap: usize,
    overestimating: bool,
) -> Result<(), TestCaseError> {
    let mut est = E::with_capacity(cap);
    for &(k, w) in stream {
        est.add(k, w);
    }
    let truth = exact(stream);
    let n: u64 = truth.values().sum();
    prop_assert_eq!(est.updates(), n);
    // Weighted error bound: one item of weight w can displace up to w mass,
    // so the additive error scales as (total weight)/capacity plus the
    // largest single weight.
    let w_max = stream.iter().map(|&(_, w)| w).max().unwrap_or(0);
    let eps_n = n / cap as u64 + w_max + 1;
    for (key, &f) in &truth {
        prop_assert!(est.upper(key) >= f, "upper < f for {key}");
        prop_assert!(est.lower(key) <= f, "lower > f for {key}");
        if overestimating {
            prop_assert!(
                est.upper(key) <= f + eps_n,
                "upper {} > f {} + {}",
                est.upper(key),
                f,
                eps_n
            );
        } else {
            prop_assert!(
                f - est.lower(key) <= eps_n,
                "lower {} < f {} - {}",
                est.lower(key),
                f,
                eps_n
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn space_saving_weighted_contract(stream in arb_weighted_stream(), cap in 1usize..16) {
        check_weighted::<SpaceSaving<u64>>(&stream, cap, true)?;
    }

    #[test]
    fn compact_space_saving_weighted_contract(stream in arb_weighted_stream(), cap in 1usize..16) {
        check_weighted::<CompactSpaceSaving<u64>>(&stream, cap, true)?;
    }

    /// Weighted updates drive the two Space Saving layouts to identical
    /// count multisets, exactly like unit updates do.
    #[test]
    fn compact_weighted_matches_stream_summary(
        stream in arb_weighted_stream(), cap in 1usize..16,
    ) {
        let mut flat: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        let mut list: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        for &(k, w) in &stream {
            flat.add(k, w);
            list.add(k, w);
        }
        prop_assert_eq!(flat.updates(), list.updates());
        prop_assert_eq!(flat.min_count(), list.min_count());
        let mass_flat: u64 = flat.candidates().iter().map(|c| c.upper).sum();
        let mass_list: u64 = list.candidates().iter().map(|c| c.upper).sum();
        prop_assert_eq!(mass_flat, mass_list, "count multisets diverged");
        flat.debug_validate();
    }

    /// The flat-arena structure stays internally consistent under weighted
    /// updates (probe chains, lazy minimum, error ≤ count).
    #[test]
    fn compact_weighted_structure(stream in arb_weighted_stream(), cap in 1usize..12) {
        let mut ss: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        for &(k, w) in &stream {
            ss.add(k, w);
        }
        ss.debug_validate();
    }

    #[test]
    fn misra_gries_weighted_contract(stream in arb_weighted_stream(), cap in 1usize..16) {
        check_weighted::<MisraGries<u64>>(&stream, cap, false)?;
    }

    #[test]
    fn lossy_counting_weighted_contract(stream in arb_weighted_stream(), cap in 2usize..16) {
        check_weighted::<LossyCounting<u64>>(&stream, cap, false)?;
    }

    /// The stream-summary structure must stay internally consistent under
    /// weighted updates (bucket order, index coherence, error ≤ count).
    #[test]
    fn space_saving_weighted_structure(stream in arb_weighted_stream(), cap in 1usize..12) {
        let mut ss: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        for &(k, w) in &stream {
            ss.add(k, w);
        }
        ss.debug_validate();
    }

    /// `add(k, w)` must equal `w × increment(k)` exactly for Space Saving —
    /// the count multiset evolution is deterministic given identical
    /// arrival orders.
    #[test]
    fn space_saving_add_equals_repeated_increment(
        stream in vec((0u64..8, 1u64..6), 1..100),
        cap in 1usize..8,
    ) {
        let mut weighted: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut unit: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        for &(k, w) in &stream {
            weighted.add(k, w);
            for _ in 0..w {
                unit.increment(k);
            }
        }
        prop_assert_eq!(weighted.updates(), unit.updates());
        // Identical count multisets (victim tie-breaks may differ, totals
        // cannot).
        let mass = |s: &SpaceSaving<u64>| -> u64 {
            s.candidates().iter().map(|c| c.upper).sum()
        };
        prop_assert!(mass(&weighted) <= mass(&unit),
            "weighted mass {} vs unit {}", mass(&weighted), mass(&unit));
    }

    /// Zero weights are no-ops everywhere.
    #[test]
    fn zero_weight_is_noop(key in any::<u64>()) {
        let mut ss: SpaceSaving<u64> = SpaceSaving::with_capacity(4);
        ss.add(key, 0);
        prop_assert_eq!(ss.updates(), 0);
        prop_assert_eq!(ss.upper(&key), 0);
        let mut lc: LossyCounting<u64> = LossyCounting::with_capacity(4);
        lc.add(key, 0);
        prop_assert_eq!(lc.updates(), 0);
    }
}
