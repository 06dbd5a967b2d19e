//! The candidate visitor `Output(θ)` walks — `for_each_candidate` — yields
//! exactly `candidates()`, in the same order: for every counter structure
//! (fed by unit, weighted and batch updates), and for [`Frozen`] views of
//! one part and of several.

use hhh_counters::{
    Candidate, CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, Frozen, LossyCounting,
    MisraGries, SpaceSaving,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn visited<E: FrequencyEstimator<u64>>(e: &E) -> Vec<Candidate<u64>> {
    let mut out = Vec::new();
    e.for_each_candidate(|c| out.push(c));
    out
}

fn visited_frozen(f: &Frozen<u64>) -> Vec<Candidate<u64>> {
    let mut out = Vec::new();
    f.for_each_candidate(|c| out.push(c));
    out
}

fn check<E: FrequencyEstimator<u64>>(stream: &[u64], capacity: usize) {
    let name = std::any::type_name::<E>();
    // Three parts of one stream: unit increments, weighted adds, and a
    // sorted batch.
    let mut parts = [
        E::with_capacity(capacity),
        E::with_capacity(capacity),
        E::with_capacity(capacity),
    ];
    for (i, &k) in stream.iter().enumerate() {
        match i % 3 {
            0 => parts[0].increment(k),
            1 => parts[1].add(k, 1 + k % 7),
            _ => {}
        }
    }
    let mut batch: Vec<u64> = stream.iter().copied().skip(2).step_by(3).collect();
    batch.sort_unstable();
    parts[2].increment_batch(&batch);
    for (i, part) in parts.iter().enumerate() {
        assert_eq!(visited(part), part.candidates(), "{name}: part {i}");
    }
    let frozen: Vec<Frozen<u64>> = parts.iter().map(Frozen::freeze).collect();
    for view in [
        frozen[1].clone(),
        E::combine(&[&frozen[0]]),
        E::combine(&frozen.iter().collect::<Vec<_>>()),
    ] {
        assert_eq!(visited_frozen(&view), view.candidates(), "{name}: view");
    }
}

fn check_every_counter(stream: &[u64], capacity: usize) {
    check::<SpaceSaving<u64>>(stream, capacity);
    check::<CompactSpaceSaving<u64>>(stream, capacity);
    check::<MisraGries<u64>>(stream, capacity);
    check::<LossyCounting<u64>>(stream, capacity);
    check::<CuckooHeavyKeeper<u64>>(stream, capacity);
}

#[test]
fn evicting_instances_visit_their_candidates() {
    // Heavy recurring keys over a churning tail: every structure evicts.
    let mut x = 0x5EEDu64;
    let stream: Vec<u64> = (0..6_000u64)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            if i % 3 == 0 {
                i % 4
            } else {
                (x >> 33) % 500
            }
        })
        .collect();
    check_every_counter(&stream, 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn visitor_yields_candidates_in_order(
        stream in vec(0u64..64, 0..1_500),
        capacity in 1usize..40,
    ) {
        check_every_counter(&stream, capacity);
    }
}
