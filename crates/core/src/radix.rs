//! Byte-digit LSD radix sort for masked key groups — the block batch
//! pipeline's sorter.
//!
//! The batch flush sorts each lattice node's group so duplicate masked keys
//! become runs (one counter update per run) and so the flat arena can serve
//! slot-stealing keys as bulk minimum-level sweeps. A comparison sort pays
//! `n log n` branchy compares for that; a radix sort pays two linear passes
//! per *digit* — and prefix-masked keys make most digits free. A group at
//! lattice node `(i, j)` of the 2D byte hierarchy varies in at most
//! `i + j` of its 16 byte positions (every masked-off byte is constant
//! zero, and real traffic keeps high header bytes nearly constant too), so
//! the OR/AND sweep below typically finds 1–4 live digits where the
//! comparison sort still walks all 12+ levels.
//!
//! [`radix_sort_keys`] produces exactly `sort_unstable`'s ascending order
//! ([`KeyBits::to_u128`] is order-preserving, and counting passes are
//! stable), and equal keys are indistinguishable — so swapping it into a
//! sorted flush leaves every estimator in a bit-identical state, which is
//! what lets the batch pipeline use it while staying pinned to the
//! `batch_props` oracle's `sort_unstable` flush.

use hhh_hierarchy::KeyBits;

/// Below this length the comparison sort's constant factors win over the
/// histogram passes; `sort_unstable` yields the identical ascending order.
const RADIX_MIN: usize = 128;

/// Above this length the counting passes stop paying: each pass streams
/// the whole group through a ping-pong pair of buffers with a random
/// scatter in between, so once `2 · n · size_of::<K>()` outgrows the L2
/// slice the passes thrash where the comparison sort's partitions stay
/// resident. Measured on the V=H batch regime (≈40 Ki-key groups), radix
/// past this bound loses double digits to `sort_unstable`.
const RADIX_MAX: usize = 16_384;

/// Streaming radix passes beat the comparison sort's branchy levels only
/// while the live digit count stays well under `log2 n`; past this ratio
/// the comparison sort runs instead (identical ascending order either way,
/// so the choice is invisible to the counter state).
const PASS_BUDGET_NUM: u32 = 2;

/// Sorts `keys` ascending — bit-identical ordering to
/// `keys.sort_unstable()` — using one stable counting pass per byte
/// position that actually varies within the group. Groups whose live-byte
/// count is too high for the passes to pay off fall back to
/// `sort_unstable`, which produces the same order. `scratch` is the
/// ping-pong buffer; it is resized as needed and its contents are
/// meaningless afterwards.
pub fn radix_sort_keys<K: KeyBits>(keys: &mut [K], scratch: &mut Vec<K>) {
    let n = keys.len();
    if !(RADIX_MIN..=RADIX_MAX).contains(&n) {
        keys.sort_unstable();
        return;
    }

    // One linear sweep finds the byte positions that can influence the
    // order: bits where the group's keys disagree. All native-width ops —
    // widening to `u128` here costs more than it saves on `u64` keys.
    let mut or_bits = keys[0];
    let mut and_bits = keys[0];
    for &k in &keys[1..] {
        or_bits = or_bits.or(k);
        and_bits = and_bits.and(k);
    }
    let varying = or_bits.and(and_bits.not());
    let bytes = (K::BITS / 8) as usize;
    let mut live = 0u32;
    for d in 0..bytes {
        if byte_at(varying, (8 * d) as u32) != 0 {
            live += 1;
        }
    }
    if live == 0 {
        return; // every key equal: any order is sorted
    }
    // Each live byte costs two streaming passes; `sort_unstable` costs
    // ~log2 n branchy levels (fewer on duplicate-heavy groups). Prefer the
    // comparison sort once the group varies in too many byte positions.
    let log2n = usize::BITS - 1 - n.leading_zeros();
    if PASS_BUDGET_NUM * live > log2n {
        keys.sort_unstable();
        return;
    }

    scratch.clear();
    scratch.resize(n, keys[0]);
    let mut in_keys = true;
    for d in 0..bytes {
        let shift = (8 * d) as u32;
        if byte_at(varying, shift) == 0 {
            continue;
        }
        if in_keys {
            counting_pass(keys, scratch, shift);
        } else {
            counting_pass(scratch, keys, shift);
        }
        in_keys = !in_keys;
    }
    if !in_keys {
        keys.copy_from_slice(scratch);
    }
}

/// The byte of `k` at bit offset `shift`, in the key's native width.
#[inline(always)]
fn byte_at<K: KeyBits>(k: K, shift: u32) -> usize {
    (k.shr(shift).low_u64() & 0xFF) as usize
}

/// One stable counting pass on the byte at `shift`: histogram, exclusive
/// prefix sum, scatter. Stability across passes is what makes LSD radix
/// order low-to-high digits correctly.
#[inline]
fn counting_pass<K: KeyBits>(src: &[K], dst: &mut [K], shift: u32) {
    let mut hist = [0u32; 256];
    for &k in src {
        hist[byte_at(k, shift)] += 1;
    }
    let mut sum = 0u32;
    for h in hist.iter_mut() {
        let c = *h;
        *h = sum;
        sum += c;
    }
    for &k in src {
        let b = byte_at(k, shift);
        dst[hist[b] as usize] = k;
        hist[b] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn check<K: KeyBits>(mut v: Vec<K>) {
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut scratch = Vec::new();
        radix_sort_keys(&mut v, &mut scratch);
        assert_eq!(v, expect);
    }

    #[test]
    fn matches_sort_unstable_on_random_u64() {
        let mut rng = Lcg(1);
        check((0..5_000).map(|_| rng.next()).collect::<Vec<u64>>());
    }

    #[test]
    fn matches_on_prefix_masked_groups() {
        // The shapes the batch flush actually feeds: keys masked to a
        // lattice node, so only a few byte positions vary.
        let mut rng = Lcg(2);
        for mask in [
            0xFF00_0000_0000_0000u64, // node (1, 0): one live byte
            0xFFFF_0000_FF00_0000,    // node (2, 1): three live bytes
            0xFFFF_FFFF_FFFF_FFFF,    // bottom node: all eight
            0x0000_0000_0000_0000,    // root: all keys collapse to zero
        ] {
            check((0..4_000).map(|_| rng.next() & mask).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn matches_on_u32_and_u128_keys() {
        let mut rng = Lcg(3);
        check((0..3_000).map(|_| rng.next() as u32).collect::<Vec<u32>>());
        // Fully random u128s exceed the pass budget (comparison fallback)…
        check(
            (0..3_000)
                .map(|_| (u128::from(rng.next()) << 64) | u128::from(rng.next()))
                .collect::<Vec<u128>>(),
        );
        // …while a masked group with high live bytes runs real passes.
        check(
            (0..3_000)
                .map(|_| u128::from(rng.next() & 0xFFFF) << 100)
                .collect::<Vec<u128>>(),
        );
    }

    #[test]
    fn matches_on_duplicate_heavy_groups() {
        // Heavy-hitter regime: few distinct keys, long runs.
        let mut rng = Lcg(4);
        check(
            (0..4_000)
                .map(|_| (rng.next() % 7) << 56)
                .collect::<Vec<u64>>(),
        );
    }

    #[test]
    fn small_empty_and_single_groups_are_safe() {
        check(Vec::<u64>::new());
        check(vec![42u64]);
        let mut rng = Lcg(5);
        check((0..RADIX_MIN - 1).map(|_| rng.next()).collect::<Vec<u64>>());
    }

    #[test]
    fn oversize_groups_fall_back_to_the_comparison_sort() {
        let mut rng = Lcg(7);
        check(
            (0..RADIX_MAX + 5)
                .map(|_| rng.next() & 0xFFFF)
                .collect::<Vec<u64>>(),
        );
    }

    #[test]
    fn odd_and_even_pass_counts_both_land_in_keys() {
        let mut rng = Lcg(6);
        // One live byte → one pass (result lands in scratch, copied back).
        check(
            (0..1_000)
                .map(|_| rng.next() & 0xFF00)
                .collect::<Vec<u64>>(),
        );
        // Two live bytes → two passes (result lands back in keys).
        check(
            (0..1_000)
                .map(|_| rng.next() & 0xFFFF)
                .collect::<Vec<u64>>(),
        );
    }
}
