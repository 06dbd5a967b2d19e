//! A small, fast hasher for integer keys.
//!
//! The per-packet path hashes one packed integer key per update; SipHash
//! (std's default) costs more than the rest of the update combined. This is
//! an FxHash-style multiply-fold hasher: not DoS-resistant, which is an
//! explicit non-goal — the keys are IP prefixes already attacker-visible,
//! and the counter algorithms' guarantees do not depend on hash quality.
//!
//! The mixing arithmetic itself lives in [`crate::mix`], shared with the
//! batch front end's block hashing; this module is the `Hasher` adapter
//! over it. `hash_u64(v)` through this hasher and [`crate::mix::hash_u64`]
//! are the same function.

use crate::mix;
use std::hash::{BuildHasher, Hasher};

/// Multiply-fold hasher over the written words.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline(always)]
    fn fold(&mut self, word: u64) {
        self.state = mix::fx_fold(self.state, word);
    }
}

impl Hasher for FastHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        mix::fmix64(self.state)
    }

    #[inline(always)]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline(always)]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline(always)]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline(always)]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline(always)]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline(always)]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline(always)]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }
}

/// `BuildHasher` for [`FastHasher`]; use as the `S` parameter of `HashMap`.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHashBuilder;

impl BuildHasher for IntHashBuilder {
    type Hasher = FastHasher;

    #[inline(always)]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// Convenience alias used by the counter implementations.
pub(crate) type FastMap<K, V> = std::collections::HashMap<K, V, IntHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_u64(v: u64) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_ne!(hash_u64(42), hash_u64(43));
    }

    #[test]
    fn low_entropy_prefix_keys_spread() {
        // Masked prefix keys share their low bits (all zero); make sure the
        // hashes still differ in the low-order bits HashMap uses.
        let mut low_bits = HashSet::new();
        for i in 0u64..4096 {
            let key = i << 40; // only high bits vary, like /24 prefixes
            low_bits.insert(hash_u64(key) & 0xFFF);
        }
        // With 4096 samples into 4096 buckets a decent hash fills most
        // buckets; a catastrophic one collapses to a handful.
        assert!(low_bits.len() > 2000, "only {} distinct", low_bits.len());
    }

    #[test]
    fn u128_uses_both_halves() {
        let mut a = FastHasher::default();
        a.write_u128(1);
        let mut b = FastHasher::default();
        b.write_u128(1u128 << 64);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FastHasher::default();
        a.write(b"hello world");
        let mut b = FastHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write(b"hello worle");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn works_in_hashmap() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 500);
    }
}
