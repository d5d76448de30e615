//! A persistent hash index.
//!
//! §5.1.3 of the paper: trigger state is stored *outside* the object, "using
//! a hash table to map the object to the set of active triggers associated
//! with it". This module provides that table as a persistent, transactional
//! multimap from `u64` keys (packed Oids, usually) to sets of Oids.
//!
//! Representation: a directory record holding the bucket Oids, plus one
//! record per bucket with its `(key, values)` entries. The table doubles
//! its bucket count when the average chain grows past a threshold. All
//! mutations run inside the caller's transaction, so index updates commit
//! or roll back atomically with the trigger state they reference — which is
//! precisely what lets aborted transactions roll back "their associated
//! events" (§5.5).

use crate::codec::{decode_all, encode_to_vec, Decode, Encode};
use crate::error::Result;
use crate::oid::{ClusterId, Oid};
use crate::storage::Storage;
use crate::txn::TxnId;
use bytes::{BufMut, BytesMut};

/// Average entries per bucket that triggers a doubling.
const SPLIT_THRESHOLD: u64 = 8;

/// Initial bucket count.
const INITIAL_BUCKETS: u32 = 8;

struct Directory {
    cluster: ClusterId,
    buckets: Vec<Oid>,
}

impl Encode for Directory {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.cluster);
        self.buckets.encode(buf);
    }
}

impl Decode for Directory {
    fn decode(buf: &mut &[u8]) -> Result<Directory> {
        Ok(Directory {
            cluster: ClusterId::decode(buf)?,
            buckets: Vec::<Oid>::decode(buf)?,
        })
    }
}

type Bucket = Vec<(u64, Vec<Oid>)>;

fn hash(mut key: u64) -> u64 {
    // SplitMix64 finalizer. Bucket selection takes `hash % len`, i.e. the
    // LOW bits, so the hash needs full avalanche there. (A single
    // Fibonacci multiply does not: its low k bits are a bijection of the
    // key's low k bits, and packed Oids share their low slot bits — big
    // records mean few slots per page, so every key fell into a handful
    // of buckets, chains never shortened, and `grow` doubled the
    // directory unboundedly.)
    key ^= key >> 30;
    key = key.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    key ^= key >> 27;
    key = key.wrapping_mul(0x94D0_49BB_1331_11EB);
    key ^= key >> 31;
    key
}

/// Handle to a persistent hash index. Cheap to copy; all state is in the
/// database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashIndex {
    dir: Oid,
}

impl HashIndex {
    /// Create a fresh index whose records live in `cluster`.
    pub fn create(storage: &Storage, txn: TxnId, cluster: ClusterId) -> Result<HashIndex> {
        let mut buckets = Vec::with_capacity(INITIAL_BUCKETS as usize);
        for _ in 0..INITIAL_BUCKETS {
            let empty: Bucket = Vec::new();
            buckets.push(storage.allocate(txn, cluster, &encode_to_vec(&empty))?);
        }
        let dir = Directory { cluster, buckets };
        let dir_oid = storage.allocate(txn, cluster, &encode_to_vec(&dir))?;
        Ok(HashIndex { dir: dir_oid })
    }

    /// Re-attach to an existing index by its directory Oid.
    pub fn open(dir: Oid) -> HashIndex {
        HashIndex { dir }
    }

    /// The directory Oid (store it in a named root to find the index again).
    pub fn oid(&self) -> Oid {
        self.dir
    }

    fn load_dir(&self, storage: &Storage, txn: TxnId) -> Result<Directory> {
        decode_all(&storage.read(txn, self.dir)?)
    }

    fn store_dir(&self, storage: &Storage, txn: TxnId, dir: &Directory) -> Result<()> {
        storage.update(txn, self.dir, &encode_to_vec(dir))
    }

    fn load_bucket(storage: &Storage, txn: TxnId, oid: Oid) -> Result<Bucket> {
        decode_all(&storage.read(txn, oid)?)
    }

    fn store_bucket(storage: &Storage, txn: TxnId, oid: Oid, bucket: &Bucket) -> Result<()> {
        storage.update(txn, oid, &encode_to_vec(bucket))
    }

    /// The Oid of `key`'s bucket, read from the directory record without
    /// decoding it: the bucket count and then the one 6-byte slot. At tens
    /// of thousands of keys the directory is a multi-chunk overflow record,
    /// and [`Storage::read_range`] touches only the chunk holding the slot.
    fn bucket_of(&self, storage: &Storage, txn: TxnId, key: u64) -> Result<Oid> {
        // Directory wire format: u32 cluster, u32 len, len × 6-byte Oids.
        let count = storage.read_range(txn, self.dir, 4, 4)?;
        let nbuckets = u64::from(u32::from_le_bytes(
            count.as_slice().try_into().expect("4-byte range"),
        ));
        if nbuckets == 0 {
            return Err(crate::error::StorageError::Codec(
                "short hash directory record".into(),
            ));
        }
        let at = 8 + (hash(key) % nbuckets) as usize * 6;
        let slot = storage.read_range(txn, self.dir, at, 6)?;
        Ok(Oid::new(
            u32::from_le_bytes(slot[0..4].try_into().expect("4-byte slice")),
            u16::from_le_bytes(slot[4..6].try_into().expect("2-byte slice")),
        ))
    }

    /// Add `value` under `key`. Duplicate (key, value) pairs are kept out.
    ///
    /// Hot path: only the affected bucket record is rewritten; the
    /// directory is read at one slot and decoded and rewritten only when a
    /// local overflow triggers a table doubling (keeping inserts
    /// O(bucket), the property §5.1.3's trigger index relies on).
    pub fn insert(&self, storage: &Storage, txn: TxnId, key: u64, value: Oid) -> Result<()> {
        let bucket_oid = self.bucket_of(storage, txn, key)?;
        let mut bucket = Self::load_bucket(storage, txn, bucket_oid)?;
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some((_, values)) => {
                if values.contains(&value) {
                    return Ok(());
                }
                values.push(value);
            }
            None => {
                bucket.push((key, vec![value]));
            }
        }
        Self::store_bucket(storage, txn, bucket_oid, &bucket)?;
        // Grow on local overflow: with a good hash, a chain past twice the
        // target average means the table is due for doubling.
        if bucket.len() as u64 > 2 * SPLIT_THRESHOLD {
            let mut dir = self.load_dir(storage, txn)?;
            self.grow(storage, txn, &mut dir)?;
            self.store_dir(storage, txn, &dir)?;
        }
        Ok(())
    }

    fn grow(&self, storage: &Storage, txn: TxnId, dir: &mut Directory) -> Result<()> {
        let old_buckets = dir.buckets.clone();
        let new_len = dir.buckets.len() * 2;
        // Collect all entries, then redistribute into the doubled table.
        let mut entries: Vec<(u64, Vec<Oid>)> = Vec::new();
        for oid in &old_buckets {
            entries.append(&mut Self::load_bucket(storage, txn, *oid)?);
        }
        let mut fresh: Vec<Bucket> = vec![Vec::new(); new_len];
        for (key, values) in entries {
            let idx = (hash(key) % new_len as u64) as usize;
            fresh[idx].push((key, values));
        }
        // Reuse the old bucket records for the first half, allocate the rest.
        for (i, bucket) in fresh.iter().enumerate() {
            if i < old_buckets.len() {
                Self::store_bucket(storage, txn, old_buckets[i], bucket)?;
            } else {
                dir.buckets
                    .push(storage.allocate(txn, dir.cluster, &encode_to_vec(bucket))?);
            }
        }
        Ok(())
    }

    /// All values stored under `key` (empty when absent).
    pub fn get(&self, storage: &Storage, txn: TxnId, key: u64) -> Result<Vec<Oid>> {
        let mut out = Vec::new();
        self.get_into(storage, txn, key, &mut out)?;
        Ok(out)
    }

    /// Fill `out` (cleared first) with the values stored under `key` — the
    /// reuse-a-scratch-buffer sibling of [`HashIndex::get`] for hot paths
    /// like event posting, where a fresh `Vec` per lookup would dominate
    /// the §5.4.5 cost. Probes one directory slot and walks the encoded
    /// bucket record at fixed offsets instead of decoding either into
    /// nested vectors.
    pub fn get_into(
        &self,
        storage: &Storage,
        txn: TxnId,
        key: u64,
        out: &mut Vec<Oid>,
    ) -> Result<()> {
        out.clear();
        let short = |what: &str| crate::error::StorageError::Codec(format!("short {what} record"));
        let bucket_oid = self.bucket_of(storage, txn, key)?;
        // Bucket wire format: u32 entries, each u64 key + u32 len + Oids.
        let raw = storage.read(txn, bucket_oid)?;
        let mut rest: &[u8] = raw.get(4..).ok_or_else(|| short("hash bucket"))?;
        let entries = u32::from_le_bytes(raw[0..4].try_into().expect("4-byte slice"));
        for _ in 0..entries {
            let (head, tail) = rest
                .split_at_checked(12)
                .ok_or_else(|| short("hash bucket"))?;
            let k = u64::from_le_bytes(head[0..8].try_into().expect("8-byte slice"));
            let vlen = u32::from_le_bytes(head[8..12].try_into().expect("4-byte slice")) as usize;
            let values = tail.get(..vlen * 6).ok_or_else(|| short("hash bucket"))?;
            if k == key {
                out.reserve(vlen);
                for v in values.chunks_exact(6) {
                    out.push(Oid::new(
                        u32::from_le_bytes(v[0..4].try_into().expect("4-byte slice")),
                        u16::from_le_bytes(v[4..6].try_into().expect("2-byte slice")),
                    ));
                }
                return Ok(());
            }
            rest = &tail[vlen * 6..];
        }
        Ok(())
    }

    /// Remove one `(key, value)` pair; returns whether it was present.
    pub fn remove(&self, storage: &Storage, txn: TxnId, key: u64, value: Oid) -> Result<bool> {
        let bucket_oid = self.bucket_of(storage, txn, key)?;
        let mut bucket = Self::load_bucket(storage, txn, bucket_oid)?;
        let Some(pos) = bucket.iter().position(|(k, _)| *k == key) else {
            return Ok(false);
        };
        let values = &mut bucket[pos].1;
        let Some(vpos) = values.iter().position(|v| *v == value) else {
            return Ok(false);
        };
        values.remove(vpos);
        if values.is_empty() {
            bucket.remove(pos);
        }
        Self::store_bucket(storage, txn, bucket_oid, &bucket)?;
        Ok(true)
    }

    /// Remove every value under `key`; returns how many were removed.
    pub fn remove_all(&self, storage: &Storage, txn: TxnId, key: u64) -> Result<usize> {
        let bucket_oid = self.bucket_of(storage, txn, key)?;
        let mut bucket = Self::load_bucket(storage, txn, bucket_oid)?;
        let Some(pos) = bucket.iter().position(|(k, _)| *k == key) else {
            return Ok(0);
        };
        let removed = bucket.remove(pos).1.len();
        Self::store_bucket(storage, txn, bucket_oid, &bucket)?;
        Ok(removed)
    }

    /// Number of distinct keys (computed by scanning buckets — used for
    /// monitoring and tests, not on the posting hot path).
    pub fn key_count(&self, storage: &Storage, txn: TxnId) -> Result<u64> {
        Ok(self.entries(storage, txn)?.len() as u64)
    }

    /// Every `(key, values)` entry (for scans and debugging).
    pub fn entries(&self, storage: &Storage, txn: TxnId) -> Result<Vec<(u64, Vec<Oid>)>> {
        let dir = self.load_dir(storage, txn)?;
        let mut out = Vec::new();
        for oid in &dir.buckets {
            out.append(&mut Self::load_bucket(storage, txn, *oid)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::FIRST_USER_CLUSTER;

    fn setup() -> (Storage, TxnId, HashIndex) {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        assert_eq!(c, FIRST_USER_CLUSTER);
        let idx = HashIndex::create(&s, t, c).unwrap();
        (s, t, idx)
    }

    #[test]
    fn insert_get_remove() {
        let (s, t, idx) = setup();
        let v1 = Oid::new(9, 1);
        let v2 = Oid::new(9, 2);
        idx.insert(&s, t, 42, v1).unwrap();
        idx.insert(&s, t, 42, v2).unwrap();
        assert_eq!(idx.get(&s, t, 42).unwrap(), vec![v1, v2]);
        assert!(idx.remove(&s, t, 42, v1).unwrap());
        assert_eq!(idx.get(&s, t, 42).unwrap(), vec![v2]);
        assert!(!idx.remove(&s, t, 42, v1).unwrap());
        assert!(idx.remove(&s, t, 42, v2).unwrap());
        assert!(idx.get(&s, t, 42).unwrap().is_empty());
        assert_eq!(idx.key_count(&s, t).unwrap(), 0);
    }

    #[test]
    fn duplicate_pairs_are_ignored() {
        let (s, t, idx) = setup();
        let v = Oid::new(1, 1);
        idx.insert(&s, t, 7, v).unwrap();
        idx.insert(&s, t, 7, v).unwrap();
        assert_eq!(idx.get(&s, t, 7).unwrap(), vec![v]);
    }

    #[test]
    fn missing_key_is_empty() {
        let (s, t, idx) = setup();
        assert!(idx.get(&s, t, 999).unwrap().is_empty());
        assert_eq!(idx.remove_all(&s, t, 999).unwrap(), 0);
    }

    #[test]
    fn grows_past_threshold() {
        let (s, t, idx) = setup();
        for key in 0..200u64 {
            idx.insert(&s, t, key, Oid::from_u64(key)).unwrap();
        }
        assert_eq!(idx.key_count(&s, t).unwrap(), 200);
        for key in 0..200u64 {
            assert_eq!(
                idx.get(&s, t, key).unwrap(),
                vec![Oid::from_u64(key)],
                "key {key} lost in resize"
            );
        }
        let entries = idx.entries(&s, t).unwrap();
        assert_eq!(entries.len(), 200);
    }

    #[test]
    fn packed_oid_keys_spread_across_buckets() {
        // Regression: keys shaped like packed Oids of big records — many
        // pages, slots only 0..3, so the keys' low 16 bits collide almost
        // entirely. A hash without low-bit avalanche funnels them into a
        // handful of buckets and the table doubles unboundedly (until the
        // directory record itself overflows). The directory must stay
        // proportional to the key count.
        let (s, t, idx) = setup();
        const KEYS: u64 = 600;
        for page in 0..KEYS / 3 {
            for slot in 0..3 {
                idx.insert(
                    &s,
                    t,
                    Oid::new(page as u32 + 10, slot).to_u64(),
                    Oid::new(1, 1),
                )
                .unwrap();
            }
        }
        assert_eq!(idx.key_count(&s, t).unwrap(), KEYS);
        let dir = idx.load_dir(&s, t).unwrap();
        assert!(
            (dir.buckets.len() as u64) <= KEYS / SPLIT_THRESHOLD * 4,
            "directory exploded: {} buckets for {KEYS} keys",
            dir.buckets.len()
        );
    }

    #[test]
    fn trigger_index_load_at_scale_never_strands_a_bucket() {
        // Regression: the trigger index of a 19K-object load, two states
        // per object, committed 64 objects at a time. Empty buckets are
        // 5-byte cells; on a full page the first insert into one must
        // move it and leave a forward stub, which once failed with
        // `database corrupt: forward stub did not fit`.
        let (s, t, idx) = setup();
        s.commit(t).unwrap();
        const KEYS: u32 = 19_200;
        for group in 0..KEYS / 64 {
            let t = s.begin().unwrap();
            for i in group * 64..(group + 1) * 64 {
                let key = Oid::new(100 + i / 6, (i % 6) as u16).to_u64();
                for v in 0..2 {
                    let value = Oid::new(40_000 + i / 40, (i % 40 * 2 + v) as u16);
                    idx.insert(&s, t, key, value).unwrap();
                }
            }
            s.commit(t).unwrap();
        }
        let t = s.begin().unwrap();
        let mut scratch = Vec::new();
        for i in (0..KEYS).step_by(97) {
            let key = Oid::new(100 + i / 6, (i % 6) as u16).to_u64();
            idx.get_into(&s, t, key, &mut scratch).unwrap();
            assert_eq!(scratch.len(), 2, "key {i}");
        }
        assert_eq!(idx.key_count(&s, t).unwrap(), u64::from(KEYS));
        s.commit(t).unwrap();
    }

    #[test]
    fn get_into_matches_get_and_reuses_the_buffer() {
        let (s, t, idx) = setup();
        // Enough keys to force a table doubling, so the byte-walking probe
        // is exercised against a grown directory too.
        for key in 0..200u64 {
            idx.insert(&s, t, key, Oid::from_u64(key)).unwrap();
            idx.insert(&s, t, key, Oid::from_u64(key + 1000)).unwrap();
        }
        let mut scratch = Vec::new();
        for key in 0..200u64 {
            idx.get_into(&s, t, key, &mut scratch).unwrap();
            assert_eq!(scratch, idx.get(&s, t, key).unwrap(), "key {key}");
            assert_eq!(scratch.len(), 2);
        }
        // Missing keys leave the buffer empty, not stale.
        idx.get_into(&s, t, 9_999, &mut scratch).unwrap();
        assert!(scratch.is_empty());
    }

    #[test]
    fn remove_all_clears_key() {
        let (s, t, idx) = setup();
        for i in 0..5u16 {
            idx.insert(&s, t, 1, Oid::new(2, i)).unwrap();
        }
        assert_eq!(idx.remove_all(&s, t, 1).unwrap(), 5);
        assert!(idx.get(&s, t, 1).unwrap().is_empty());
    }

    #[test]
    fn index_survives_commit_and_abort() {
        let (s, t, idx) = setup();
        idx.insert(&s, t, 5, Oid::new(3, 3)).unwrap();
        s.commit(t).unwrap();

        let t2 = s.begin().unwrap();
        idx.insert(&s, t2, 5, Oid::new(3, 4)).unwrap();
        idx.insert(&s, t2, 6, Oid::new(3, 5)).unwrap();
        s.abort(t2).unwrap();

        let t3 = s.begin().unwrap();
        assert_eq!(idx.get(&s, t3, 5).unwrap(), vec![Oid::new(3, 3)]);
        assert!(idx.get(&s, t3, 6).unwrap().is_empty());
        s.commit(t3).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        use ode_testutil::TempDir;
        let dir = TempDir::new("hashidx");
        let idx_oid;
        {
            let s = Storage::create(dir.path(), crate::storage::StorageOptions::default()).unwrap();
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let idx = HashIndex::create(&s, t, c).unwrap();
            idx.insert(&s, t, 11, Oid::new(8, 8)).unwrap();
            s.set_root(t, "idx", idx.oid()).unwrap();
            idx_oid = idx.oid();
            s.commit(t).unwrap();
            s.close().unwrap();
        }
        {
            let s = Storage::open(dir.path(), crate::storage::StorageOptions::default()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.get_root(t, "idx").unwrap(), idx_oid);
            let idx = HashIndex::open(idx_oid);
            assert_eq!(idx.get(&s, t, 11).unwrap(), vec![Oid::new(8, 8)]);
            s.commit(t).unwrap();
        }
    }
}
