//! A fast, deterministic hasher for integer keys.
//!
//! Every load and store the runtime executes looks up its pool, page,
//! frame and cache line in hash maps keyed by plain integers. std's
//! default SipHash guards against adversarial keys, but these keys are
//! ids and page, frame or line numbers the runtime allocates itself, so
//! that guard buys nothing, and its cost was a large share of recording.
//! [`IntHasher`] is one multiply per key word, with no per-process random
//! state, so iteration order is the same in every process. Readers whose
//! output depends on order still sort (the NVM device's crash, the pool
//! inspector, the crash-sweep digest).
//!
//! ```
//! use poat_core::hash::IntMap;
//!
//! let mut frames: IntMap<u64, u64> = IntMap::default();
//! frames.insert(0x7f00_0000, 3);
//! assert_eq!(frames.get(&0x7f00_0000), Some(&3));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-hashing multiplier (2^64 / φ), the same constant the
/// simulator's `PageMap`, the software translation table and the
/// out-of-order store-queue filter use.
const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiplicative hasher for integer keys (see the [module docs](self)).
///
/// Each word is folded in as `state = (state.rotl(5) ^ word) * FIB_MUL`.
/// The product's well-mixed bits are its high ones, but hash tables
/// index with the low bits, so [`finish`](Hasher::finish) rotates the
/// high bits down, as rustc-hash 2 does. Without that fold, keys that
/// differ only in their high bits (64-strided line numbers, `k << 32`)
/// would share buckets. The rotation is 16, not rustc-hash's 26: with
/// this multiplier, 26 leaves 1,024 keys `k << 32` in 455 of 1,024
/// buckets, while 16 spreads each strided family the unit test checks
/// over at least 663.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FIB_MUL);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// The fallback for any other key type: little-endian 8-byte words,
    /// the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(16)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IntHasher`]; every
/// instance hashes alike.
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` over integer keys, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` of integer keys, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn strided_and_high_bit_keys_spread_over_low_bit_buckets() {
        let build = BuildIntHasher::default();
        // Each family is k times a stride, for k in 0..1024.
        let families = [
            ("k", 1u64),
            ("k*64", 64),
            ("k*4096", 4096),
            ("k<<32", 1 << 32),
        ];
        for (name, stride) in families {
            let mut used = [false; 1024];
            for k in 0..1024u64 {
                used[(build.hash_one(k * stride) & 1023) as usize] = true;
            }
            let filled = used.iter().filter(|&&u| u).count();
            assert!(filled >= 512, "{name}: only {filled} of 1024 buckets");
        }
    }

    #[test]
    fn byte_fallback_serves_other_key_types() {
        let mut set: IntSet<(u8, u16)> = IntSet::default();
        for a in 0..16u8 {
            for b in 0..16u16 {
                assert!(set.insert((a, b)));
            }
        }
        assert!(set.contains(&(3, 9)) && !set.contains(&(16, 0)));
        assert_eq!(set.len(), 256);
    }
}
