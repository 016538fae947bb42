//! The one hasher for compiler-internal keys.
//!
//! Keys the compiler makes itself — arena ids, symbols, structural keys
//! built from them (CSE, region fingerprints) — need no `RandomState`
//! protection against chosen-key flooding, and SipHash costs several
//! rounds per key. So `lssa-ir`, `lssa-core` and the bytecode compiler key
//! their maps with this fixed multiplicative hasher instead: the "Fx" hash
//! of rustc and Firefox, one rotate, xor and multiply per word. Its output
//! does not depend on a per-process seed, so map iteration order repeats
//! from run to run.
//!
//! Maps keyed directly by text of the program being compiled (the symbol
//! interner's strings, λ variable numbers, the IR parser's value numbers)
//! keep the standard `RandomState`, since their keys come from outside the
//! compiler. Maps keyed by a body's dense ids ([`crate::ids::ValueId`] and
//! friends) usually want a `Vec` indexed by [`crate::ids::ValueId::index`]
//! instead; these aliases are for sparse or structural keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`]; create one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]; create one with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s (zero-sized, so the maps carry no seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Odd multiplier with well-mixed bits (the one rustc uses).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx hasher: `hash = (hash.rotl(5) ^ word) * K` for every word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(x: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashes_are_fixed_across_runs() {
        // No per-process seed: these values hold on every run and machine.
        assert_eq!(hash_of(0u32), 0);
        assert_eq!(hash_of(1u32), K);
        assert_eq!(hash_of(1u32), hash_of(1u64));
        assert_ne!(hash_of("ab"), hash_of("ba"));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn maps_and_sets_work_as_usual() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        let s: FxHashSet<&str> = ["a", "b", "a"].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_order_repeats() {
        let build = || {
            let m: FxHashMap<u64, u64> = (0..64).map(|i| (i * 7919, i)).collect();
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
