//! Property-based tests: every counter algorithm must honour the
//! (ε, δ)-Frequency Estimation contract of Definition 4 against an exact
//! reference count, on arbitrary streams — plus differential tests pinning
//! the flat-arena [`CompactSpaceSaving`] against the stream-summary
//! [`SpaceSaving`] on random and adversarial streams.

use hhh_counters::{
    CompactSpaceSaving, FrequencyEstimator, LossyCounting, MisraGries, SpaceSaving,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Streams drawn from a small key universe so that collisions and evictions
/// actually happen.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..64, 1..2_000)
}

fn exact_counts(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0u64) += 1;
    }
    m
}

/// Checks the deterministic sandwich `lower ≤ f ≤ upper` and the
/// `upper − f ≤ εN` / `f − lower ≤ εN` error bounds (with `slack` extra
/// allowance for algorithms whose bound constant differs).
fn check_bounds<E: FrequencyEstimator<u64>>(
    stream: &[u64],
    capacity: usize,
    overestimating: bool,
) -> Result<(), TestCaseError> {
    let mut est = E::with_capacity(capacity);
    for &k in stream {
        est.increment(k);
    }
    let exact = exact_counts(stream);
    let n = stream.len() as u64;
    let eps_n = n / capacity as u64 + 1;
    for (key, &f) in &exact {
        prop_assert!(est.upper(key) >= f, "upper < f for {key}");
        prop_assert!(est.lower(key) <= f, "lower > f for {key}");
        if overestimating {
            prop_assert!(
                est.upper(key) <= f + eps_n,
                "over-estimate beyond eps*N for {key}: upper={} f={f} epsN={eps_n}",
                est.upper(key)
            );
        } else {
            prop_assert!(
                f - est.lower(key) <= eps_n,
                "under-estimate beyond eps*N for {key}: lower={} f={f} epsN={eps_n}",
                est.lower(key)
            );
        }
    }
    // A key that never appeared still gets sound bounds.
    prop_assert!(est.lower(&u64::MAX) == 0);
    prop_assert!(est.updates() == n);
    Ok(())
}

/// Differential check of the two Space Saving layouts on one stream: both
/// must process the same number of updates, both must sandwich the truth
/// within the `N/capacity` error bound, and — because each eviction removes
/// a true minimum in either layout — their count multisets and min-counts
/// must match exactly.
fn check_compact_vs_stream_summary(stream: &[u64], cap: usize) {
    let mut flat: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
    let mut list: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
    for &k in stream {
        flat.increment(k);
        list.increment(k);
    }
    assert_eq!(flat.updates(), list.updates(), "update counts diverged");
    assert_eq!(flat.min_count(), list.min_count(), "min-counts diverged");
    let mass = |c: &[hhh_counters::Candidate<u64>]| -> u64 { c.iter().map(|e| e.upper).sum() };
    assert_eq!(
        mass(&flat.candidates()),
        mass(&list.candidates()),
        "count multisets diverged"
    );

    let exact = exact_counts(stream);
    let n = stream.len() as u64;
    let eps_n = n / cap as u64;
    for (key, &f) in &exact {
        for (label, upper, lower) in [
            ("compact", flat.upper(key), flat.lower(key)),
            ("stream-summary", list.upper(key), list.lower(key)),
        ] {
            assert!(lower <= f, "{label}: lower({key}) > truth");
            assert!(upper >= f, "{label}: upper({key}) < truth");
            assert!(
                upper - lower <= eps_n.max(1),
                "{label}: interval wider than N/capacity for {key}: [{lower}, {upper}]"
            );
        }
    }
    flat.debug_validate();
    list.debug_validate();
}

/// Differential check of the bulk-evicting flush against the stream
/// summary fed the same groups *in the same order*: the adaptive flush
/// sorts miss-heavy groups (bulk min-level eviction sweeps) and takes
/// hit-heavy groups in arrival order, and either way it must leave the
/// count multiset — and with it min-count, updates and total mass —
/// exactly where per-key processing of that order leaves it. The
/// reference mirrors the (deterministic, exposed) order decision.
fn check_bulk_flush_vs_stream_summary(stream: &[u64], cap: usize, group: usize) {
    let mut flat: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
    let mut list: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
    for chunk in stream.chunks(group.max(1)) {
        let mut g = chunk.to_vec();
        flat.flush_group(&mut g, &mut <[u64]>::sort_unstable);
        let mut reference = chunk.to_vec();
        if flat.last_flush_sorted() {
            reference.sort_unstable();
        }
        list.increment_batch(&reference);
    }
    assert_eq!(flat.updates(), list.updates(), "update counts diverged");
    assert_eq!(flat.min_count(), list.min_count(), "min-counts diverged");
    let multiset = |c: Vec<hhh_counters::Candidate<u64>>| -> Vec<u64> {
        let mut v: Vec<u64> = c.iter().map(|e| e.upper).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        multiset(flat.candidates()),
        multiset(list.candidates()),
        "count multisets diverged"
    );
    let exact = exact_counts(stream);
    for (key, &f) in &exact {
        assert!(flat.lower(key) <= f, "bulk flush: lower({key}) > truth");
        assert!(flat.upper(key) >= f, "bulk flush: upper({key}) < truth");
    }
    flat.debug_validate();
    list.debug_validate();
}

/// The bulk-evicting flush on adversarial group shapes: all-distinct
/// groups (every post-fill key is a deferred eviction — the miss-heavy
/// regime the tag array targets), single-key groups (pure bumps), and
/// phase changes that interleave hit runs with miss runs.
#[test]
fn bulk_flush_differential_adversarial_streams() {
    for cap in [1usize, 7, 32, 100] {
        for group in [16usize, 256, 4_096] {
            let distinct: Vec<u64> = (0..4_000u64).collect();
            check_bulk_flush_vs_stream_summary(&distinct, cap, group);

            let single = vec![42u64; 3_000];
            check_bulk_flush_vs_stream_summary(&single, cap, group);

            let mut phases: Vec<u64> = (0..1_000u64).collect();
            phases.extend(std::iter::repeat_n(7u64, 1_000));
            phases.extend(1_000..2_000u64);
            check_bulk_flush_vs_stream_summary(&phases, cap, group);
        }
    }
}

/// The adaptive flush-order threshold on a second trace shape (ROADMAP
/// open item (b)): the miss-ratio EWMA was tuned on chicago16's heavy
/// tail, so pin its behaviour on sanjose14-shaped streams. The contract
/// is regime-tracking, not a particular constant: sanjose14's *tail*
/// (distinct never-seen flows — the regime the tag array and bulk sweep
/// target) must hold the sorted sweep, while the *raw* sanjose14 mix —
/// whose top flows absorb most packets of a 512-packet group even at 64
/// counters, making groups hit-heavy by the flush's metric — must settle
/// on arrival order within a few groups; and the count multisets must
/// keep matching a stream summary fed the mirrored order throughout,
/// exactly the assertions the chicago16-shaped adversarial streams above
/// pin (`bulk_flush_all_distinct_group` et al).
#[test]
fn adaptive_flush_order_tracks_regime_on_sanjose14_stream() {
    let mut gen = hhh_traces::TraceGenerator::new(&hhh_traces::TraceConfig::sanjose14());
    let cap = 64usize;
    let mut flat: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
    let mut list: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
    let mirror =
        |flat: &mut CompactSpaceSaving<u64>, list: &mut SpaceSaving<u64>, group: &[u64]| {
            let mut g = group.to_vec();
            flat.flush_group(&mut g, &mut <[u64]>::sort_unstable);
            let mut reference = group.to_vec();
            if flat.last_flush_sorted() {
                reference.sort_unstable();
            }
            list.increment_batch(&reference);
        };
    // First-occurrence-only view of the same generator: the trace's tail.
    let mut seen = std::collections::HashSet::new();
    let distinct_group = |gen: &mut hhh_traces::TraceGenerator,
                          seen: &mut std::collections::HashSet<u64>| {
        let mut g = Vec::with_capacity(512);
        while g.len() < 512 {
            let k = gen.generate().key2();
            if seen.insert(k) {
                g.push(k);
            }
        }
        g
    };

    // Phase 1 — miss-heavy: sanjose14 tail flows (all first occurrences).
    // Every run in the group probes Absent, so the EWMA must hold every
    // group on the sorted bulk-eviction sweep.
    for round in 0..12 {
        let group = distinct_group(&mut gen, &mut seen);
        mirror(&mut flat, &mut list, &group);
        assert!(
            flat.last_flush_sorted(),
            "round {round}: sanjose14 tail groups must take the sorted sweep"
        );
    }

    // Phase 2 — hit-heavy: the raw sanjose14 mix. Its top flows dominate
    // a 512-packet group (most packets bump monitored keys), so after the
    // adaptation lag the EWMA must flip to arrival order and stay there.
    for round in 0..12 {
        let group: Vec<u64> = (0..512).map(|_| gen.generate().key2()).collect();
        mirror(&mut flat, &mut list, &group);
        if round >= 3 {
            assert!(
                !flat.last_flush_sorted(),
                "round {round}: raw sanjose14 groups must settle on arrival order"
            );
        }
    }

    // Phase 3 — back to the tail: the EWMA re-learns the miss regime.
    for round in 0..12 {
        let group = distinct_group(&mut gen, &mut seen);
        mirror(&mut flat, &mut list, &group);
        if round >= 3 {
            assert!(
                flat.last_flush_sorted(),
                "round {round}: the sweep must return with the tail regime"
            );
        }
    }

    // Throughout all three regimes the adaptive order must be
    // guarantee-preserving: same updates, same min-count, same count
    // multiset as per-key processing of the mirrored order.
    assert_eq!(flat.updates(), list.updates(), "update counts diverged");
    assert_eq!(flat.min_count(), list.min_count(), "min-counts diverged");
    let multiset = |c: Vec<hhh_counters::Candidate<u64>>| -> Vec<u64> {
        let mut v: Vec<u64> = c.iter().map(|e| e.upper).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        multiset(flat.candidates()),
        multiset(list.candidates()),
        "count multisets diverged"
    );
    flat.debug_validate();
    list.debug_validate();
}

/// Zipf groups: heavy keys hit, the long tail defers — both paths in one
/// group, across group sizes that straddle the capacity.
#[test]
fn bulk_flush_differential_zipf_stream() {
    let zipf = hhh_traces::Zipf::new(10_000, 1.2);
    let mut x = 0xF00Du64;
    let mut uniform = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let stream: Vec<u64> = (0..30_000).map(|_| zipf.sample(&mut uniform)).collect();
    for cap in [10usize, 100, 1_000] {
        check_bulk_flush_vs_stream_summary(&stream, cap, 512);
    }
}

/// Adversarial streams the random generator is unlikely to produce.
#[test]
fn compact_differential_adversarial_streams() {
    for cap in [1usize, 7, 32, 100] {
        // All-distinct: every post-fill update is an eviction.
        let distinct: Vec<u64> = (0..4_000u64).collect();
        check_compact_vs_stream_summary(&distinct, cap);

        // Single key: pure bump path, no eviction ever.
        let single = vec![42u64; 3_000];
        check_compact_vs_stream_summary(&single, cap);

        // Distinct-then-single and alternating phases: exercises the
        // min-support bookkeeping across fill, churn and bump regimes.
        let mut phases: Vec<u64> = (0..1_000u64).collect();
        phases.extend(std::iter::repeat_n(7u64, 1_000));
        phases.extend(1_000..2_000u64);
        check_compact_vs_stream_summary(&phases, cap);
    }
}

/// Zipf-distributed stream (the empirical shape of the paper's traces):
/// heavy keys bump, the long tail churns the minimum.
#[test]
fn compact_differential_zipf_stream() {
    let zipf = hhh_traces::Zipf::new(10_000, 1.2);
    let mut x = 0x5EEDu64;
    let mut uniform = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let stream: Vec<u64> = (0..30_000).map(|_| zipf.sample(&mut uniform)).collect();
    for cap in [10usize, 100, 1_000] {
        check_compact_vs_stream_summary(&stream, cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn space_saving_contract(stream in arb_stream(), cap in 1usize..32) {
        check_bounds::<SpaceSaving<u64>>(&stream, cap, true)?;
    }

    #[test]
    fn compact_space_saving_contract(stream in arb_stream(), cap in 1usize..32) {
        check_bounds::<CompactSpaceSaving<u64>>(&stream, cap, true)?;
    }

    /// Random-stream differential: flat arena vs stream summary.
    #[test]
    fn compact_differential_random(stream in arb_stream(), cap in 1usize..32) {
        check_compact_vs_stream_summary(&stream, cap);
    }

    /// Random-stream differential for the bulk-evicting flush, across
    /// group sizes.
    #[test]
    fn bulk_flush_differential_random(
        stream in arb_stream(),
        cap in 1usize..32,
        group in 1usize..200,
    ) {
        check_bulk_flush_vs_stream_summary(&stream, cap, group);
    }

    /// The flat-arena internals (probe chains, lazy minimum, support
    /// counts) stay consistent under arbitrary streams.
    #[test]
    fn compact_structure_invariants(stream in arb_stream(), cap in 1usize..16) {
        let mut ss: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        for &k in &stream {
            ss.increment(k);
        }
        ss.debug_validate();
    }

    #[test]
    fn misra_gries_contract(stream in arb_stream(), cap in 1usize..32) {
        check_bounds::<MisraGries<u64>>(&stream, cap, false)?;
    }

    #[test]
    fn lossy_counting_contract(stream in arb_stream(), cap in 2usize..32) {
        check_bounds::<LossyCounting<u64>>(&stream, cap, false)?;
    }

    /// The stream-summary internals stay consistent under arbitrary streams.
    #[test]
    fn space_saving_structure_invariants(stream in arb_stream(), cap in 1usize..16) {
        let mut ss: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        for &k in &stream {
            ss.increment(k);
        }
        ss.debug_validate();
    }

    /// Both Space Saving variants report identical upper bounds for keys
    /// they both monitor with the same count structure — and identical
    /// min-counts, since the count multiset evolution is deterministic.
    #[test]
    fn space_saving_variants_equivalent_total_mass(
        stream in arb_stream(), cap in 1usize..16,
    ) {
        let mut a: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut b: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        for &k in &stream {
            a.increment(k);
            b.increment(k);
        }
        let mass_a: u64 = a.candidates().iter().map(|c| c.upper).sum();
        let mass_b: u64 = b.candidates().iter().map(|c| c.upper).sum();
        prop_assert_eq!(mass_a, mass_b, "count multisets diverged");
    }

    /// Space Saving's heavy-hitter property (Definition 5): every key with
    /// f > N/capacity is among the candidates.
    #[test]
    fn space_saving_keeps_heavy_hitters(stream in arb_stream(), cap in 1usize..32) {
        let mut ss: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        for &k in &stream {
            ss.increment(k);
        }
        let exact = exact_counts(&stream);
        let n = stream.len() as u64;
        let monitored: std::collections::HashSet<u64> =
            ss.candidates().iter().map(|c| c.key).collect();
        for (key, &f) in &exact {
            if f > n / cap as u64 {
                prop_assert!(monitored.contains(key), "heavy key {key} evicted");
            }
        }
    }
}
