//! A [`Frozen`] view answers exactly as the live instance it was frozen
//! from, and so does the combine of that one frozen part: the same
//! candidates in the same order, the same `upper` and `lower` for
//! monitored and unmonitored keys alike, and the same capacity — for every
//! counter structure, full or not yet full.

use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, Frozen, LossyCounting, MisraGries,
    SpaceSaving,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Keys past the stream's key space: never monitored.
const UNSEEN: [u64; 3] = [1_000, 77_777, u64::MAX];

fn check_single_part<E: FrequencyEstimator<u64>>(stream: &[u64], capacity: usize) {
    let name = std::any::type_name::<E>();
    let mut live = E::with_capacity(capacity);
    for &k in stream {
        live.increment(k);
    }
    let frozen = Frozen::freeze(&live);
    for view in [E::combine(&[&frozen]), frozen.clone()] {
        assert_eq!(view.candidates(), live.candidates(), "{name}: candidates");
        assert_eq!(view.updates(), live.updates(), "{name}: updates");
        assert_eq!(view.capacity(), live.capacity(), "{name}: capacity");
        let monitored = live.candidates().into_iter().map(|c| c.key);
        let seen = stream.iter().copied();
        for key in monitored.chain(seen).chain(UNSEEN) {
            assert_eq!(view.upper(&key), live.upper(&key), "{name}: upper({key})");
            assert_eq!(view.lower(&key), live.lower(&key), "{name}: lower({key})");
        }
        assert_eq!(
            view.unmonitored_upper(),
            live.upper(&u64::MAX),
            "{name}: unmonitored bound"
        );
    }
}

fn check_every_counter(stream: &[u64], capacity: usize) {
    check_single_part::<SpaceSaving<u64>>(stream, capacity);
    check_single_part::<CompactSpaceSaving<u64>>(stream, capacity);
    check_single_part::<MisraGries<u64>>(stream, capacity);
    check_single_part::<LossyCounting<u64>>(stream, capacity);
    check_single_part::<CuckooHeavyKeeper<u64>>(stream, capacity);
}

#[test]
fn not_yet_full_instance_freezes_exactly() {
    // Five distinct keys into 32 counters: every structure still has room,
    // so an unmonitored key's bound is 0 for the Space Saving layouts.
    let stream: Vec<u64> = (0..60u64).map(|i| i % 5).collect();
    check_every_counter(&stream, 32);
    assert_eq!(
        Frozen::freeze(&SpaceSaving::<u64>::with_capacity(4)).unmonitored_upper(),
        0
    );
}

#[test]
fn full_instance_freezes_exactly() {
    // Heavy recurring keys over a churning tail: every structure evicts.
    let mut x = 0x5EEDu64;
    let stream: Vec<u64> = (0..5_000u64)
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
    fn single_part_view_answers_as_live(
        stream in vec(0u64..64, 0..1_500),
        capacity in 1usize..40,
    ) {
        check_every_counter(&stream, capacity);
    }
}
