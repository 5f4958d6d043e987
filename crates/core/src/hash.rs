//! A fixed, fast hasher for the small integer keys of the round loop's
//! per-peer and per-pair tables.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-instance
//! random key: robust against adversarial keys, but it costs tens of
//! nanoseconds per lookup and the simulator's keys are dense peer ids and
//! piece indices that no adversary chooses. [`FxHasher`] is the
//! multiply-rotate word hash popularized by the Rust compiler: one rotate,
//! one xor and one multiply per written word.
//!
//! Switching hashers cannot change a result. `RandomState` already gives
//! every map instance its own key, so map iteration order differs between
//! instances and between runs; any output that is reproducible today
//! cannot depend on that order, and a fixed key changes nothing but
//! order. The tests below pin [`FxHasher::finish`] for a few keys so a
//! silent change to the hash function shows up as a test failure.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier: ⌊2⁶⁴ / π⌋ made odd, as in `rustc-hash`.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher: `h = (h.rotate_left(5) ^ word) * SEED` per
/// written word. Not collision-resistant; use it only for keys that no
/// adversary picks.
///
/// # Example
///
/// ```
/// use coop_incentives::hash::FastMap;
/// use coop_incentives::PeerId;
///
/// let mut m: FastMap<PeerId, u64> = FastMap::default();
/// m.insert(PeerId::new(3), 7);
/// assert_eq!(m[&PeerId::new(3)], 7);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
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
    use crate::PeerId;
    use std::hash::Hash;

    fn fx<T: Hash>(key: &T) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn peer_id_hashes_are_pinned() {
        // One word: (0 ^ i) * SEED.
        assert_eq!(fx(&PeerId::new(0)), 0);
        assert_eq!(fx(&PeerId::new(1)), SEED);
        assert_eq!(fx(&PeerId::new(2)), SEED.wrapping_mul(2));
        assert_eq!(fx(&PeerId::new(7)), 0x3a69_4c02_11ee_4a13);
        assert_eq!(fx(&PeerId::new(u32::MAX)), 0xd5a5_48dd_d8dd_f56b);
    }

    #[test]
    fn peer_pair_hashes_are_pinned() {
        assert_eq!(fx(&(PeerId::new(0), PeerId::new(0))), 0);
        assert_eq!(fx(&(PeerId::new(0), PeerId::new(1))), SEED);
        assert_eq!(fx(&(PeerId::new(1), PeerId::new(2))), 0x6a4b_e67f_f98f_abc8);
        assert_eq!(
            fx(&(PeerId::new(u32::MAX), PeerId::new(5))),
            0xc034_f386_fc9f_f0eb
        );
    }

    #[test]
    fn byte_writes_fold_in_words() {
        // Eight bytes are one word; a short tail is zero-padded.
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[7]);
        assert_eq!(c.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_work_through_the_aliases() {
        let mut m: FastMap<(PeerId, PeerId), u32> = FastMap::default();
        let mut s: FastSet<u32> = FastSet::default();
        for i in 0..1000u32 {
            m.insert((PeerId::new(i), PeerId::new(i + 1)), i);
            s.insert(i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(PeerId::new(500), PeerId::new(501))], 500);
        assert!(s.contains(&999) && !s.contains(&1000));
    }
}
