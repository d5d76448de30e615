//! A persistent B+-tree index.
//!
//! §5.6 of the paper: disk-based Ode offered B-trees ("full Ode
//! functionality (except for B-trees which do not exist in Dali)"); this
//! module provides that indexing substrate: ordered keys and range
//! scans — the shape an O++ application would use to index class
//! attributes.
//!
//! Representation: every node is an ordinary storage record, so all
//! operations are transactional and locked through the regular object
//! protocol — an aborted transaction rolls back its structural changes
//! with everything else.
//!
//! * Holder record: `{ root: Oid, height: u32, len: u64 }` (its Oid is the
//!   tree's stable identity).
//! * Leaf: `{ keys, values, next }` with a right-sibling chain for scans.
//! * Internal: `{ keys, children }` with `children.len() == keys.len()+1`.
//!
//! Deletion is by lazy removal (no rebalancing): emptied leaves stay in
//! the chain until the tree is rebuilt. This matches the reproduction's
//! needs; a production system would merge under-full nodes.

use crate::codec::{decode_all, decode_bytes, encode_bytes, encode_to_vec, Decode, Encode};
use crate::error::{Result, StorageError};
use crate::oid::{ClusterId, Oid};
use crate::storage::Storage;
use crate::txn::TxnId;
use bytes::{BufMut, BytesMut};

/// Maximum keys per node before it splits.
const MAX_KEYS: usize = 16;

#[derive(Debug, Clone, PartialEq)]
struct Holder {
    root: Oid,
    height: u32,
    len: u64,
    cluster: ClusterId,
}

impl Encode for Holder {
    fn encode(&self, buf: &mut BytesMut) {
        self.root.encode(buf);
        buf.put_u32_le(self.height);
        buf.put_u64_le(self.len);
        buf.put_u32_le(self.cluster);
    }
}
impl Decode for Holder {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(Holder {
            root: Oid::decode(buf)?,
            height: u32::decode(buf)?,
            len: u64::decode(buf)?,
            cluster: ClusterId::decode(buf)?,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        keys: Vec<Vec<u8>>,
        values: Vec<Oid>,
        next: Option<Oid>,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<Oid>,
    },
}

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

impl Encode for Node {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Node::Leaf { keys, values, next } => {
                buf.put_u8(TAG_LEAF);
                (keys.len() as u32).encode(buf);
                for k in keys {
                    encode_bytes(k, buf);
                }
                values.encode(buf);
                next.encode(buf);
            }
            Node::Internal { keys, children } => {
                buf.put_u8(TAG_INTERNAL);
                (keys.len() as u32).encode(buf);
                for k in keys {
                    encode_bytes(k, buf);
                }
                children.encode(buf);
            }
        }
    }
}
impl Decode for Node {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let tag = u8::decode(buf)?;
        let n = u32::decode(buf)? as usize;
        let mut keys = Vec::with_capacity(n.min(MAX_KEYS + 1));
        for _ in 0..n {
            keys.push(decode_bytes(buf)?.to_vec());
        }
        match tag {
            TAG_LEAF => Ok(Node::Leaf {
                keys,
                values: Vec::<Oid>::decode(buf)?,
                next: Option::<Oid>::decode(buf)?,
            }),
            TAG_INTERNAL => Ok(Node::Internal {
                keys,
                children: Vec::<Oid>::decode(buf)?,
            }),
            t => Err(StorageError::Codec(format!("bad btree node tag {t}"))),
        }
    }
}

/// Result of inserting into a subtree: either done in place, or the node
/// split and the parent must add `(sep_key, right)`.
enum InsertOutcome {
    Done,
    Split { sep: Vec<u8>, right: Oid },
}

/// Handle to a persistent B+-tree. All state lives in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    holder: Oid,
}

impl BTree {
    /// Create an empty tree whose nodes live in `cluster`.
    pub fn create(storage: &Storage, txn: TxnId, cluster: ClusterId) -> Result<BTree> {
        let root = storage.allocate(
            txn,
            cluster,
            &encode_to_vec(&Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
                next: None,
            }),
        )?;
        let holder = Holder {
            root,
            height: 0,
            len: 0,
            cluster,
        };
        let holder_oid = storage.allocate(txn, cluster, &encode_to_vec(&holder))?;
        Ok(BTree { holder: holder_oid })
    }

    /// Re-attach to an existing tree by its holder Oid.
    pub fn open(holder: Oid) -> BTree {
        BTree { holder }
    }

    /// The holder Oid (store it under a named root to find the tree).
    pub fn oid(&self) -> Oid {
        self.holder
    }

    fn load_holder(&self, storage: &Storage, txn: TxnId) -> Result<Holder> {
        decode_all(&storage.read(txn, self.holder)?)
    }

    fn store_holder(&self, storage: &Storage, txn: TxnId, holder: &Holder) -> Result<()> {
        storage.update(txn, self.holder, &encode_to_vec(holder))
    }

    fn load_node(storage: &Storage, txn: TxnId, oid: Oid) -> Result<Node> {
        decode_all(&storage.read(txn, oid)?)
    }

    fn store_node(storage: &Storage, txn: TxnId, oid: Oid, node: &Node) -> Result<()> {
        storage.update(txn, oid, &encode_to_vec(node))
    }

    /// Number of entries.
    pub fn len(&self, storage: &Storage, txn: TxnId) -> Result<u64> {
        Ok(self.load_holder(storage, txn)?.len)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self, storage: &Storage, txn: TxnId) -> Result<bool> {
        Ok(self.len(storage, txn)? == 0)
    }

    /// Height (0 = the root is a leaf).
    pub fn height(&self, storage: &Storage, txn: TxnId) -> Result<u32> {
        Ok(self.load_holder(storage, txn)?.height)
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn insert(
        &self,
        storage: &Storage,
        txn: TxnId,
        key: &[u8],
        value: Oid,
    ) -> Result<Option<Oid>> {
        let mut holder = self.load_holder(storage, txn)?;
        let mut replaced = None;
        let outcome = self.insert_rec(
            storage,
            txn,
            &holder,
            holder.root,
            key,
            value,
            &mut replaced,
        )?;
        if let InsertOutcome::Split { sep, right } = outcome {
            // Root split: grow the tree by one level.
            let new_root = storage.allocate(
                txn,
                holder.cluster,
                &encode_to_vec(&Node::Internal {
                    keys: vec![sep],
                    children: vec![holder.root, right],
                }),
            )?;
            holder.root = new_root;
            holder.height += 1;
            storage.metrics().btree_splits.inc();
            storage
                .metrics()
                .emit(|| ode_obs::FlightEvent::BtreeSplit { root: true });
        }
        if replaced.is_none() {
            holder.len += 1;
        }
        self.store_holder(storage, txn, &holder)?;
        Ok(replaced)
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        &self,
        storage: &Storage,
        txn: TxnId,
        holder: &Holder,
        node_oid: Oid,
        key: &[u8],
        value: Oid,
        replaced: &mut Option<Oid>,
    ) -> Result<InsertOutcome> {
        let mut node = Self::load_node(storage, txn, node_oid)?;
        match &mut node {
            Node::Leaf { keys, values, next } => {
                match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        *replaced = Some(values[i]);
                        values[i] = value;
                    }
                    Err(i) => {
                        keys.insert(i, key.to_vec());
                        values.insert(i, value);
                    }
                }
                if keys.len() <= MAX_KEYS {
                    Self::store_node(storage, txn, node_oid, &node)?;
                    return Ok(InsertOutcome::Done);
                }
                // Split the leaf.
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_values = values.split_off(mid);
                let sep = right_keys[0].clone();
                let right = storage.allocate(
                    txn,
                    holder.cluster,
                    &encode_to_vec(&Node::Leaf {
                        keys: right_keys,
                        values: right_values,
                        next: *next,
                    }),
                )?;
                *next = Some(right);
                Self::store_node(storage, txn, node_oid, &node)?;
                storage.metrics().btree_splits.inc();
                storage
                    .metrics()
                    .emit(|| ode_obs::FlightEvent::BtreeSplit { root: false });
                Ok(InsertOutcome::Split { sep, right })
            }
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let child = children[idx];
                match self.insert_rec(storage, txn, holder, child, key, value, replaced)? {
                    InsertOutcome::Done => Ok(InsertOutcome::Done),
                    InsertOutcome::Split { sep, right } => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() <= MAX_KEYS {
                            Self::store_node(storage, txn, node_oid, &node)?;
                            return Ok(InsertOutcome::Done);
                        }
                        // Split the internal node: the middle key moves up.
                        let mid = keys.len() / 2;
                        let up = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // `up` moves to the parent
                        let right_children = children.split_off(mid + 1);
                        let right_oid = storage.allocate(
                            txn,
                            holder.cluster,
                            &encode_to_vec(&Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            }),
                        )?;
                        Self::store_node(storage, txn, node_oid, &node)?;
                        storage.metrics().btree_splits.inc();
                        storage
                            .metrics()
                            .emit(|| ode_obs::FlightEvent::BtreeSplit { root: false });
                        Ok(InsertOutcome::Split {
                            sep: up,
                            right: right_oid,
                        })
                    }
                }
            }
        }
    }

    fn find_leaf(&self, storage: &Storage, txn: TxnId, key: &[u8]) -> Result<Oid> {
        let holder = self.load_holder(storage, txn)?;
        let mut oid = holder.root;
        loop {
            match Self::load_node(storage, txn, oid)? {
                Node::Leaf { .. } => return Ok(oid),
                Node::Internal { keys, children } => {
                    let idx = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    oid = children[idx];
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, storage: &Storage, txn: TxnId, key: &[u8]) -> Result<Option<Oid>> {
        let leaf = self.find_leaf(storage, txn, key)?;
        match Self::load_node(storage, txn, leaf)? {
            Node::Leaf { keys, values, .. } => Ok(keys
                .binary_search_by(|k| k.as_slice().cmp(key))
                .ok()
                .map(|i| values[i])),
            Node::Internal { .. } => unreachable!("find_leaf returns leaves"),
        }
    }

    /// Remove a key; returns its value when present. (Lazy: no structural
    /// rebalancing.)
    pub fn remove(&self, storage: &Storage, txn: TxnId, key: &[u8]) -> Result<Option<Oid>> {
        let leaf = self.find_leaf(storage, txn, key)?;
        let mut node = Self::load_node(storage, txn, leaf)?;
        let Node::Leaf { keys, values, .. } = &mut node else {
            unreachable!("find_leaf returns leaves")
        };
        let Ok(i) = keys.binary_search_by(|k| k.as_slice().cmp(key)) else {
            return Ok(None);
        };
        keys.remove(i);
        let value = values.remove(i);
        Self::store_node(storage, txn, leaf, &node)?;
        let mut holder = self.load_holder(storage, txn)?;
        holder.len -= 1;
        self.store_holder(storage, txn, &holder)?;
        Ok(Some(value))
    }

    /// All `(key, value)` pairs with `start <= key < end` in key order
    /// (pass `None` for an open bound).
    pub fn range(
        &self,
        storage: &Storage,
        txn: TxnId,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Oid)>> {
        let mut out = Vec::new();
        let mut leaf = match start {
            Some(key) => self.find_leaf(storage, txn, key)?,
            None => {
                // Leftmost leaf.
                let holder = self.load_holder(storage, txn)?;
                let mut oid = holder.root;
                loop {
                    match Self::load_node(storage, txn, oid)? {
                        Node::Leaf { .. } => break oid,
                        Node::Internal { children, .. } => oid = children[0],
                    }
                }
            }
        };
        loop {
            let Node::Leaf { keys, values, next } = Self::load_node(storage, txn, leaf)? else {
                unreachable!("leaf chain holds leaves")
            };
            for (k, v) in keys.into_iter().zip(values) {
                if let Some(s) = start {
                    if k.as_slice() < s {
                        continue;
                    }
                }
                if let Some(e) = end {
                    if k.as_slice() >= e {
                        return Ok(out);
                    }
                }
                out.push((k, v));
            }
            match next {
                Some(n) => leaf = n,
                None => return Ok(out),
            }
        }
    }

    /// All entries in key order.
    pub fn scan_all(&self, storage: &Storage, txn: TxnId) -> Result<Vec<(Vec<u8>, Oid)>> {
        self.range(storage, txn, None, None)
    }
}

/// Encode a `u64` so byte-wise order equals numeric order (big-endian) —
/// the standard trick for numeric B-tree keys.
pub fn u64_key(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Encode an `i64` order-preservingly (offset-binary big-endian).
pub fn i64_key(v: i64) -> [u8; 8] {
    (v as u64 ^ 0x8000_0000_0000_0000).to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::FIRST_USER_CLUSTER;

    fn setup() -> (Storage, TxnId, BTree) {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        assert_eq!(c, FIRST_USER_CLUSTER);
        let tree = BTree::create(&s, t, c).unwrap();
        (s, t, tree)
    }

    #[test]
    fn insert_get_roundtrip() {
        let (s, t, tree) = setup();
        assert!(tree.is_empty(&s, t).unwrap());
        for i in 0..100u64 {
            assert!(tree
                .insert(&s, t, &u64_key(i), Oid::from_u64(i))
                .unwrap()
                .is_none());
        }
        assert_eq!(tree.len(&s, t).unwrap(), 100);
        for i in 0..100u64 {
            assert_eq!(
                tree.get(&s, t, &u64_key(i)).unwrap(),
                Some(Oid::from_u64(i)),
                "key {i}"
            );
        }
        assert_eq!(tree.get(&s, t, &u64_key(100)).unwrap(), None);
        assert!(tree.height(&s, t).unwrap() >= 1, "100 keys must split");
    }

    #[test]
    fn overwrite_returns_previous() {
        let (s, t, tree) = setup();
        tree.insert(&s, t, b"k", Oid::new(1, 1)).unwrap();
        let prev = tree.insert(&s, t, b"k", Oid::new(2, 2)).unwrap();
        assert_eq!(prev, Some(Oid::new(1, 1)));
        assert_eq!(tree.get(&s, t, b"k").unwrap(), Some(Oid::new(2, 2)));
        assert_eq!(tree.len(&s, t).unwrap(), 1);
    }

    #[test]
    fn descending_inserts_balance() {
        let (s, t, tree) = setup();
        for i in (0..200u64).rev() {
            tree.insert(&s, t, &u64_key(i), Oid::from_u64(i)).unwrap();
        }
        let all = tree.scan_all(&s, t).unwrap();
        assert_eq!(all.len(), 200);
        // Scan comes out sorted despite reverse insertion.
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(k.as_slice(), &u64_key(i as u64));
            assert_eq!(*v, Oid::from_u64(i as u64));
        }
    }

    #[test]
    fn range_scans_respect_bounds() {
        let (s, t, tree) = setup();
        for i in 0..50u64 {
            tree.insert(&s, t, &u64_key(i * 2), Oid::from_u64(i))
                .unwrap();
        }
        // [10, 20): keys 10,12,14,16,18
        let hits = tree
            .range(&s, t, Some(&u64_key(10)), Some(&u64_key(20)))
            .unwrap();
        assert_eq!(hits.len(), 5);
        assert_eq!(hits[0].0, u64_key(10).to_vec());
        assert_eq!(hits[4].0, u64_key(18).to_vec());
        // Open start.
        let head = tree.range(&s, t, None, Some(&u64_key(6))).unwrap();
        assert_eq!(head.len(), 3);
        // Open end.
        let tail = tree.range(&s, t, Some(&u64_key(90)), None).unwrap();
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn remove_works() {
        let (s, t, tree) = setup();
        for i in 0..60u64 {
            tree.insert(&s, t, &u64_key(i), Oid::from_u64(i)).unwrap();
        }
        for i in (0..60u64).step_by(2) {
            assert_eq!(
                tree.remove(&s, t, &u64_key(i)).unwrap(),
                Some(Oid::from_u64(i))
            );
        }
        assert_eq!(tree.len(&s, t).unwrap(), 30);
        assert_eq!(tree.remove(&s, t, &u64_key(0)).unwrap(), None);
        for i in 0..60u64 {
            let expect = (i % 2 == 1).then(|| Oid::from_u64(i));
            assert_eq!(tree.get(&s, t, &u64_key(i)).unwrap(), expect);
        }
        let all = tree.scan_all(&s, t).unwrap();
        assert_eq!(all.len(), 30);
    }

    #[test]
    fn i64_key_order_is_numeric() {
        let mut keys: Vec<i64> = vec![-5, 3, 0, -1, i64::MIN, i64::MAX, 7];
        let mut encoded: Vec<[u8; 8]> = keys.iter().map(|&v| i64_key(v)).collect();
        keys.sort_unstable();
        encoded.sort_unstable();
        let decoded_order: Vec<[u8; 8]> = keys.iter().map(|&v| i64_key(v)).collect();
        assert_eq!(encoded, decoded_order);
    }

    #[test]
    fn abort_rolls_back_tree_changes() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let tree = BTree::create(&s, t, c).unwrap();
        tree.insert(&s, t, b"keep", Oid::new(1, 1)).unwrap();
        s.commit(t).unwrap();

        let t2 = s.begin().unwrap();
        for i in 0..100u64 {
            tree.insert(&s, t2, &u64_key(i), Oid::from_u64(i)).unwrap();
        }
        s.abort(t2).unwrap();

        let t3 = s.begin().unwrap();
        assert_eq!(tree.len(&s, t3).unwrap(), 1);
        assert_eq!(tree.get(&s, t3, b"keep").unwrap(), Some(Oid::new(1, 1)));
        assert_eq!(tree.get(&s, t3, &u64_key(5)).unwrap(), None);
        s.commit(t3).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        use ode_testutil::TempDir;
        let dir = TempDir::new("btree");
        let tree_oid;
        {
            let s = Storage::create(dir.path(), crate::storage::StorageOptions::default()).unwrap();
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let tree = BTree::create(&s, t, c).unwrap();
            for i in 0..300u64 {
                tree.insert(&s, t, &u64_key(i), Oid::from_u64(i)).unwrap();
            }
            s.set_root(t, "tree", tree.oid()).unwrap();
            tree_oid = tree.oid();
            s.commit(t).unwrap();
            s.close().unwrap();
        }
        {
            let s = Storage::open(dir.path(), crate::storage::StorageOptions::default()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.get_root(t, "tree").unwrap(), tree_oid);
            let tree = BTree::open(tree_oid);
            assert_eq!(tree.len(&s, t).unwrap(), 300);
            assert_eq!(
                tree.get(&s, t, &u64_key(250)).unwrap(),
                Some(Oid::from_u64(250))
            );
            s.commit(t).unwrap();
        }
    }
}
