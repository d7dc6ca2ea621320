//! Cheap hashing for the compile passes' own tables.
//!
//! A pass that only ever asks "which of the keys seen so far is this one"
//! — the cleanup's CSE over op keys, the memory estimate over rotation
//! classes — uses an [`Interner`]: an insert-only open-addressing table of
//! indices into the keys in insertion order. The standard `HashMap` hashes
//! with SipHash-1-3 under a random key, a defence against adversarial keys
//! that keys made by the compiler itself do not need, at a cost per lookup
//! a LeNet-5 compile pays tens of thousands of times; the interner hashes
//! with FxHash, the multiply-rotate word hash of Firefox and rustc (one
//! rotate, xor and multiply per word), and has no probing machinery to pay
//! for (an unoptimized build runs it several times faster than a
//! `HashMap`).

use std::hash::{Hash, Hasher};

/// The FxHash word hasher (see the module docs).
#[derive(Debug, Default)]
struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The distinct keys seen so far, numbered `0, 1, 2, …` in the order they
/// were first seen.
#[derive(Debug, Clone)]
pub struct Interner<K> {
    /// Indices into `keys` (`u32::MAX` for an empty slot); a power of two
    /// at least twice the keys.
    slots: Vec<u32>,
    keys: Vec<K>,
}

impl<K: Hash + Eq> Interner<K> {
    /// An empty interner with room for `n` keys before it grows.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            slots: vec![u32::MAX; (2 * n).next_power_of_two().max(8)],
            keys: Vec::with_capacity(n),
        }
    }

    /// The number of `key`, numbering it if it is new; and whether it was.
    pub fn intern(&mut self, key: K) -> (usize, bool) {
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mut slot = self.slot_of(&key);
        loop {
            let index = self.slots[slot];
            if index == u32::MAX {
                self.slots[slot] = self.keys.len() as u32;
                self.keys.push(key);
                return (self.keys.len() - 1, true);
            }
            if self.keys[index as usize] == key {
                return (index as usize, false);
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// The keys, by number.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The first slot to probe for `key`: the top bits of its hash, which
    /// a multiplicative hash mixes best.
    fn slot_of(&self, key: &K) -> usize {
        let mut hasher = FastHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        self.slots = vec![u32::MAX; 2 * self.slots.len()];
        for index in 0..self.keys.len() {
            let mut slot = self.slot_of(&self.keys[index]);
            while self.slots[slot] != u32::MAX {
                slot = (slot + 1) & (self.slots.len() - 1);
            }
            self.slots[slot] = index as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_alike_and_distinct_words_apart() {
        let hash = |f: &dyn Fn(&mut FastHasher)| {
            let mut h = FastHasher::default();
            f(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| h.write_u32(7)), hash(&|h| h.write_u32(7)));
        assert_ne!(hash(&|h| h.write_u32(7)), hash(&|h| h.write_u32(8)));
        assert_ne!(hash(&|h| h.write_i128(1)), hash(&|h| h.write_i128(1 << 64)));
        assert_ne!(hash(&|h| h.write(b"abc")), hash(&|h| h.write(b"abd")));
    }

    #[test]
    fn interner_numbers_keys_in_first_seen_order_across_growth() {
        let mut interner = Interner::with_capacity(2);
        for round in 0..2 {
            for i in 0..500u64 {
                let key = i.wrapping_mul(0x9E37_79B9) << 20;
                assert_eq!(interner.intern(key), (i as usize, round == 0));
            }
        }
        assert_eq!(interner.keys().len(), 500);
        assert_eq!(interner.keys()[3], 3u64.wrapping_mul(0x9E37_79B9) << 20);
    }
}
