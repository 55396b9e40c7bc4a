//! Deterministic FxHash-style hashing for *host-side* hash tables.
//!
//! The engine's hot loops (grouping, map-side combining, join builds, dedup)
//! spend a large share of their wall-clock time hashing. The std default
//! (`RandomState`, SipHash-1-3 with per-instance random keys) is built for
//! HashDoS resistance the engine does not need: all keys come from the
//! program under test, not an adversary. [`FxBuildHasher`] swaps in the
//! multiply-xor hash used by rustc (std-only reimplementation, no external
//! crate), which is several times faster on small keys and — having no
//! random state — makes host-side table iteration order reproducible across
//! runs.
//!
//! **This is a wall-clock optimization only.** Partition *placement* goes
//! through [`crate::partitioner::stable_hash`] (SipHash with fixed keys) and
//! is deliberately untouched: simulated schedules, shuffle sizes and the
//! golden figures depend on where records land, never on how a worker's
//! private hash table arranges them. See `DESIGN.md` ("Wall-clock fast path
//! vs. simulated cost model").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Multiplier from FxHash (the golden-ratio-derived constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher (FxHash).
///
/// Not HashDoS-resistant — use only for host-side tables over trusted keys,
/// never for partition placement (that is [`crate::partitioner::stable_hash`]).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// [`BuildHasher`] producing [`FxHasher`]s. Stateless, so every table built
/// from it hashes identically — across instances, threads and runs.
#[derive(Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A [`HashMap`] keyed by [`FxBuildHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed by [`FxBuildHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An empty [`FxHashMap`] (convenience for the `Default`-less hasher param).
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    HashMap::with_hasher(FxBuildHasher)
}

/// An [`FxHashMap`] pre-sized for `capacity` entries (use when an upper
/// bound — a partition's record count — is known, avoiding rehash growth).
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    HashMap::with_capacity_and_hasher(capacity, FxBuildHasher)
}

/// An [`FxHashSet`] pre-sized for `capacity` entries.
pub fn fx_set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    HashSet::with_capacity_and_hasher(capacity, FxBuildHasher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(x: &T) -> u64 {
        FxBuildHasher.hash_one(x)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&(1u32, "x".to_string())), hash_of(&(1u32, "x".to_string())));
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        let hashes: FxHashSet<u64> = (0..10_000u64).map(|i| hash_of(&i)).collect();
        assert!(hashes.len() > 9_990, "near-perfect distribution on sequential keys");
    }

    #[test]
    fn string_tails_are_distinguished() {
        // The partial-word path must not ignore trailing bytes.
        assert_ne!(hash_of(&"abcdefghi"), hash_of(&"abcdefghj"));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn map_and_set_work_as_usual() {
        let mut m = fx_map_with_capacity(4);
        m.insert("k", 1);
        *m.entry("k").or_insert(0) += 1;
        assert_eq!(m["k"], 2);
        let mut s = fx_set_with_capacity(0);
        assert!(s.insert(7u8));
        assert!(!s.insert(7u8));
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m = fx_map();
            for i in 0..100u64 {
                m.insert(i, ());
            }
            m.into_keys().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "no random state: same insertions, same order");
    }
}
