//! Packed integer keys.
//!
//! RHHH's update path must be branch-light: Algorithm 1 line 4 is a single
//! bitwise AND between the packet's header fields and the chosen lattice
//! node's mask. We therefore represent keys as plain unsigned integers —
//! `u32` for one IPv4 dimension, `u64` for packed (src, dst) IPv4 pairs, and
//! `u128` for IPv6 — and abstract over them with the [`KeyBits`] trait so the
//! lattice and the algorithms stay monomorphic per hierarchy.

use std::fmt::Debug;
use std::hash::Hash;

/// A fixed-width unsigned integer usable as a lattice key.
///
/// All operations are trivial bit manipulations; implementations exist for
/// `u32`, `u64` and `u128`. Multi-dimensional keys pack their dimensions
/// MSB-first (dimension 0 in the highest bits) — see [`pack2`].
pub trait KeyBits:
    Copy + Clone + Eq + PartialEq + Ord + PartialOrd + Hash + Debug + Send + Sync + 'static
{
    /// Total width of the key in bits.
    const BITS: u32;

    /// The all-zero key.
    fn zero() -> Self;

    /// The all-ones key.
    fn ones() -> Self;

    /// Bitwise AND.
    #[must_use]
    fn and(self, other: Self) -> Self;

    /// Bitwise OR.
    #[must_use]
    fn or(self, other: Self) -> Self;

    /// Bitwise NOT.
    #[must_use]
    fn not(self) -> Self;

    /// Logical left shift; shifting by `>= BITS` yields zero.
    #[must_use]
    fn shl(self, n: u32) -> Self;

    /// Logical right shift; shifting by `>= BITS` yields zero.
    #[must_use]
    fn shr(self, n: u32) -> Self;

    /// Number of set bits.
    fn count_ones(self) -> u32;

    /// Widens a `u64` into the low bits of the key (used by builders and
    /// generators; lossless whenever `BITS >= 64` or the value fits).
    fn from_u64(v: u64) -> Self;

    /// Truncates the key to its low 64 bits (for hashing/diagnostics).
    fn low_u64(self) -> u64;

    /// Zero-extends the key to `u128`. The unsigned order of the result is
    /// exactly the key's `Ord` — digit-by-digit sorts of keys (however the
    /// digits are extracted) therefore reproduce `sort_unstable`'s
    /// ascending order bit for bit.
    fn to_u128(self) -> u128;

    /// A mask covering the bit range `[lo, lo + len)` counted from the least
    /// significant bit. `len == 0` yields zero.
    #[must_use]
    fn range_mask(lo: u32, len: u32) -> Self {
        if len == 0 {
            return Self::zero();
        }
        debug_assert!(lo + len <= Self::BITS);
        let field = if len >= Self::BITS {
            Self::ones()
        } else {
            Self::ones().shr(Self::BITS - len)
        };
        field.shl(lo)
    }
}

macro_rules! impl_key_bits {
    ($t:ty) => {
        impl KeyBits for $t {
            const BITS: u32 = <$t>::BITS;

            #[inline(always)]
            fn zero() -> Self {
                0
            }

            #[inline(always)]
            fn ones() -> Self {
                <$t>::MAX
            }

            #[inline(always)]
            fn and(self, other: Self) -> Self {
                self & other
            }

            #[inline(always)]
            fn or(self, other: Self) -> Self {
                self | other
            }

            #[inline(always)]
            fn not(self) -> Self {
                !self
            }

            #[inline(always)]
            fn shl(self, n: u32) -> Self {
                if n >= <$t>::BITS {
                    0
                } else {
                    self << n
                }
            }

            #[inline(always)]
            fn shr(self, n: u32) -> Self {
                if n >= <$t>::BITS {
                    0
                } else {
                    self >> n
                }
            }

            #[inline(always)]
            fn count_ones(self) -> u32 {
                <$t>::count_ones(self)
            }

            #[inline(always)]
            fn from_u64(v: u64) -> Self {
                v as $t
            }

            #[inline(always)]
            fn low_u64(self) -> u64 {
                self as u64
            }

            #[inline(always)]
            fn to_u128(self) -> u128 {
                self as u128
            }
        }
    };
}

impl_key_bits!(u32);
impl_key_bits!(u64);
impl_key_bits!(u128);

/// Mixes a packed key into a shard index in `[0, shards)` — the canonical
/// key-hash partitioning of the shard-parallel pipelines (one multiply +
/// shift, the flavour of hash NIC RSS uses; both packed halves of a 2D key
/// influence the result). Lives here, at the bottom of the dependency
/// graph, so the pipeline, the evaluation harness and every differential
/// test partition with exactly the same routing.
///
/// # Panics
///
/// Debug-panics when `shards` is zero.
#[inline]
#[must_use]
pub fn shard_of(key: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// Packs a (source, destination) IPv4 pair into a `u64` key with the source
/// in the high 32 bits — the layout used by the 2D lattices.
#[inline(always)]
#[must_use]
pub fn pack2(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// Splits a packed 2D key back into its (source, destination) halves.
#[inline(always)]
#[must_use]
pub fn split2(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_split_roundtrip() {
        let (s, d) = (0xC0A8_0001, 0x0808_0808);
        assert_eq!(split2(pack2(s, d)), (s, d));
        assert_eq!(pack2(0, 0), 0);
        assert_eq!(pack2(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn range_mask_u32() {
        assert_eq!(u32::range_mask(0, 0), 0);
        assert_eq!(u32::range_mask(0, 32), u32::MAX);
        assert_eq!(u32::range_mask(24, 8), 0xFF00_0000);
        assert_eq!(u32::range_mask(0, 8), 0x0000_00FF);
        assert_eq!(u32::range_mask(8, 16), 0x00FF_FF00);
    }

    #[test]
    fn range_mask_u64_dimension_fields() {
        // High 32 bits = src dimension, low 32 = dst dimension.
        assert_eq!(u64::range_mask(32, 32), 0xFFFF_FFFF_0000_0000);
        assert_eq!(u64::range_mask(0, 32), 0x0000_0000_FFFF_FFFF);
        // A /8 source prefix occupies the top byte.
        assert_eq!(u64::range_mask(56, 8), 0xFF00_0000_0000_0000);
    }

    #[test]
    fn range_mask_u128() {
        assert_eq!(u128::range_mask(0, 128), u128::MAX);
        assert_eq!(u128::range_mask(120, 8), 0xFFu128 << 120);
        assert_eq!(u128::range_mask(64, 0), 0);
    }

    #[test]
    fn shifts_saturate_to_zero() {
        assert_eq!(KeyBits::shl(1u32, 32), 0);
        assert_eq!(KeyBits::shr(u32::MAX, 40), 0);
        assert_eq!(KeyBits::shl(1u64, 64), 0);
        assert_eq!(KeyBits::shl(1u128, 128), 0);
    }

    #[test]
    fn trait_ops_match_native() {
        let a = 0xDEAD_BEEFu32;
        let b = 0x0F0F_0F0Fu32;
        assert_eq!(a.and(b), a & b);
        assert_eq!(a.or(b), a | b);
        assert_eq!(KeyBits::not(a), !a);
        assert_eq!(KeyBits::count_ones(b), 16);
        assert_eq!(u32::from_u64(0x1_0000_0001), 1u32);
        assert_eq!(0xFFu32.low_u64(), 0xFF);
        assert_eq!(0xDEAD_BEEFu32.to_u128(), 0xDEAD_BEEFu128);
        assert_eq!(u64::MAX.to_u128(), u128::from(u64::MAX));
    }
}
