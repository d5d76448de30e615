//! The hasher for engine-issued integer keys.
//!
//! Transaction ids, page ids, Oids, lock keys, class ids and interned
//! symbols are all small integers the engine hands out itself. Every
//! storage call looks several of them up (transaction table, lock stripe,
//! buffer frame, version chain), so std's SipHash — keyed, byte-oriented
//! and built to resist chosen keys — is paid many times per statement for
//! a guarantee these keys do not need: no client picks them. [`IntHasher`]
//! is an Fx-style multiply instead: one rotate, xor and multiply per word.
//!
//! A bare multiply carries information only *upward*: bit `i` of the
//! product depends on key bits `0..=i` alone. Oids pack as
//! `page << 16 | slot`, so the low bits of `to_u64() * K` depend on the
//! slot only, and a table indexed by low hash bits would put every Oid of
//! one slot number into one bucket. [`IntHasher::finish`] therefore folds
//! the high half of the product into the low half.
//!
//! Keys chosen by clients — names, SQL text, anything from the wire —
//! stay on std's randomly keyed `RandomState`; see DESIGN.md "Integer
//! keys, one hasher".

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The Fx multiplier (`rustc-hash`'s 64-bit constant): odd, with its set
/// bits spread over the whole word.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`partition`] shifts the hash before masking. The tables inside
/// a partition index buckets by the low bits and tag entries with the top
/// seven, so a partition index drawn from the middle of the word leaves
/// both free to vary among the keys that share it.
const PARTITION_SHIFT: u32 = 40;

/// Fx-style hasher for engine-issued integer keys. See the module docs.
#[derive(Default)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`IntHasher`]: unkeyed, so equal keys hash equally in
/// every map and every run.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by an engine-issued integer.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// A `HashSet` of engine-issued integers.
pub type IntSet<K> = HashSet<K, IntBuildHasher>;

/// The [`IntHasher`] hash of one key.
#[inline]
pub(crate) fn int_hash<T: Hash + ?Sized>(key: &T) -> u64 {
    let mut h = IntHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Which of `mask + 1` partitions (stripes, shards) `key` belongs to.
/// `mask + 1` is a power of two; only the first 2^24 are ever chosen.
#[inline]
pub(crate) fn partition<T: Hash + ?Sized>(key: &T, mask: usize) -> usize {
    (int_hash(key) >> PARTITION_SHIFT) as usize & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockKey;
    use crate::oid::{Oid, PageId};
    use crate::txn::TxnId;
    use std::hash::BuildHasher;

    #[test]
    fn one_slot_over_many_pages_spreads_over_the_low_bits() {
        // Oid-shaped keys with the slot fixed: a bare multiply would give
        // every one of them the same low 16 bits.
        for slot in [0u64, 1, 7, 0xFFFF] {
            let low: IntSet<u64> = (0..4096u64)
                .map(|page| int_hash(&(page << 16 | slot)) & 0xFFF)
                .collect();
            assert!(
                low.len() >= 2048,
                "slot {slot}: only {} distinct low-12-bit values over 4096 pages",
                low.len()
            );
        }
    }

    #[test]
    fn partitions_and_buckets_draw_on_different_bits() {
        // Keys that share a partition must still spread over the low bits
        // the partition's own table indexes by.
        let mask = 63;
        let keys: Vec<u64> = (0..65_536u64).map(|page| page << 16 | 3).collect();
        let parts: IntSet<usize> = keys.iter().map(|k| partition(k, mask)).collect();
        assert_eq!(parts.len(), mask + 1, "every partition is used");
        let in_zero: IntSet<u64> = keys
            .iter()
            .filter(|k| partition(*k, mask) == 0)
            .map(|k| int_hash(k) & 0xFF)
            .collect();
        assert!(in_zero.len() >= 128, "{} low-byte values", in_zero.len());
    }

    #[test]
    fn engine_keys_hash_identically_across_maps() {
        let (a, b) = (IntBuildHasher::default(), IntBuildHasher::default());
        let oid = Oid::new(4242, 17);
        let page: PageId = 4242;
        for key in [
            LockKey::Object(oid.to_u64()),
            LockKey::Roots,
            LockKey::Cluster(9),
        ] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(a.hash_one(TxnId(77)), b.hash_one(TxnId(77)));
        assert_eq!(a.hash_one(oid), b.hash_one(oid));
        assert_eq!(a.hash_one(page), b.hash_one(page));
        assert_eq!(a.hash_one(TxnId(77)), int_hash(&TxnId(77)));
        // Two maps filled alike iterate alike: per-layer counts that
        // depend on iteration order repeat from run to run.
        let fill = || -> IntMap<TxnId, u32> { (0..500u64).map(|t| (TxnId(t * 7), 0)).collect() };
        let (m, n) = (fill(), fill());
        assert!(m.keys().eq(n.keys()));
    }

    #[test]
    fn byte_writes_hash_every_byte() {
        let h = |bytes: &[u8]| {
            let mut h = IntHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(h(b"abcdefgh1"), h(b"abcdefgh2"));
        assert_ne!(h(b"a"), h(b"b"));
    }
}
