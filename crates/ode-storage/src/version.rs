//! Per-object version chains — the MVCC substrate for snapshot readers.
//!
//! The paper's §6 observation is that trigger processing "turns reads into
//! writes": every posting advances a persistent FSM state, so even
//! read-mostly workloads collide on S→X upgrades. Striping the lock
//! manager (PR 5) spread that contention; this module removes it for pure
//! readers by giving every object a short chain of *committed* logical
//! values, so a read-only transaction can be served from a consistent
//! snapshot without touching the lock manager at all. Writers keep strict
//! 2PL among themselves — the chains only ever hold committed data plus a
//! per-object "a writer is active" pin.
//!
//! ## Protocol
//!
//! * **Snapshots.** A read-only transaction registers a snapshot at the
//!   current commit sequence `s` and thereafter sees, for every object,
//!   the newest version with `seq <= s`. Registration and the GC-horizon
//!   computation both run under the snapshot-registry mutex, which is the
//!   serialization point that makes "registered ⇒ my versions survive"
//!   airtight.
//! * **Seeding.** Before a writer's *first* page mutation of an object it
//!   captures the object's committed logical value into the chain
//!   (`seq = 0`, correct because at seed time the pages hold exactly the
//!   committed value every live snapshot could need) and pins the entry
//!   with its `TxnId`. Fresh inserts register an empty pinned entry from
//!   *inside* the page latch of the primary-cell insert, closing the
//!   window where a falling-back reader could see the uncommitted cell.
//! * **Install.** At commit — after the WAL Commit record is appended, so
//!   a visible version always implies a log position the read barrier can
//!   wait on — the writer serializes on the commit lock, assigns
//!   `s = seq + 1`, pushes the final logical value of every object in its
//!   write set, publishes `seq = s`, and only then unpins the entries and
//!   opportunistically trims behind the GC horizon.
//! * **Fallback.** An object with no chain entry is read straight from
//!   the pages (per-page latches only), then the chain is *re-checked*: if
//!   an entry appeared, a writer raced the read and the page bytes may be
//!   mid-mutation, so the result — errors included — is discarded and the
//!   read retries through the chain. Absence at both ends of the window
//!   proves the pages held a committed-stable value throughout, because
//!   every mutation path registers its entry before its first page write
//!   and entries are only *removed* while the snapshot registry is empty
//!   (and a falling-back reader's own snapshot keeps it non-empty).
//! * **GC.** Versions superseded by a later version at or below the
//!   horizon (oldest active snapshot, else the current sequence) are
//!   dropped at install time and on full sweeps; whole entries are
//!   reclaimed only when no snapshot is registered — the registry mutex is
//!   held across the removals, so none can register mid-sweep — which
//!   keeps the store empty on write-only workloads.

use crate::oid::ClusterId;
use crate::txn::TxnId;
use ode_obs::Metrics;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One committed logical value of an object. `data = None` is a delete
/// marker: the object does not exist at or after this sequence.
#[derive(Debug, Clone)]
struct Version {
    seq: u64,
    data: Option<Arc<[u8]>>,
}

/// The version chain of a single object, keyed by its primary Oid.
#[derive(Debug)]
struct Chain {
    /// The transaction currently mutating this object's pages, if any.
    /// While set, the entry must not be reclaimed — falling-back readers
    /// rely on its presence to detect the in-flight mutation.
    writer: Option<TxnId>,
    /// Cluster the object belongs to (snapshot cluster scans must find
    /// objects whose cells were already physically purged).
    cluster: ClusterId,
    /// Committed versions in ascending `seq` order. A chain seeded by a
    /// writer starts with the pre-mutation committed value at `seq = 0`;
    /// an uncommitted insert's chain is empty until the install.
    versions: Vec<Version>,
}

/// Outcome of a snapshot visibility check for one object.
#[derive(Debug)]
pub enum SnapshotLookup {
    /// The newest version at or below the snapshot holds this value.
    Value(Arc<[u8]>),
    /// The object is deleted (or not yet created) at the snapshot.
    Deleted,
    /// No chain entry: the pages are authoritative (fall back, re-check).
    Untracked,
}

/// Point-in-time shape of the version store, for tests and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionStats {
    /// Number of objects with a live chain entry.
    pub entries: usize,
    /// Total committed versions retained across all chains.
    pub versions: usize,
    /// Published commit sequence (0 before the first install).
    pub seq: u64,
    /// Number of distinct snapshot sequences currently registered.
    pub active_snapshots: usize,
}

/// The process-wide store of object version chains. See module docs.
pub struct VersionStore {
    shards: Box<[Mutex<HashMap<u64, Chain>>]>,
    /// `shards.len() - 1`; shard count is always a power of two.
    mask: usize,
    /// Last published commit sequence. Stored with `Release` after a full
    /// write set is installed, so a snapshot registered at `s` always
    /// finds every version with `seq <= s` already in place.
    seq: AtomicU64,
    /// Serializes installs: one commit's whole write set becomes visible
    /// at a single sequence number (no torn multi-object reads).
    commit_lock: Mutex<()>,
    /// Registered snapshot sequences with reference counts.
    snapshots: Mutex<BTreeMap<u64, usize>>,
    metrics: Arc<Metrics>,
}

impl VersionStore {
    /// A store with `shards` map shards (rounded up to a power of two).
    pub fn new(shards: usize, metrics: Arc<Metrics>) -> VersionStore {
        let n = shards.max(1).next_power_of_two();
        VersionStore {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
            seq: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
            snapshots: Mutex::new(BTreeMap::new()),
            metrics,
        }
    }

    fn shard(&self, oid: u64) -> &Mutex<HashMap<u64, Chain>> {
        // Oids pack (page, slot); fold the high half in so dense pages
        // still spread over shards.
        &self.shards[((oid ^ (oid >> 32)) as usize) & self.mask]
    }

    /// The last published commit sequence.
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Register a snapshot at the current commit sequence and return it.
    /// Runs under the registry mutex so it serializes against the GC
    /// horizon computation: once this returns, no version the snapshot
    /// can see will be reclaimed until [`VersionStore::release_snapshot`].
    pub fn register_snapshot(&self) -> u64 {
        let mut snaps = self.snapshots.lock();
        let s = self.seq.load(Ordering::Acquire);
        *snaps.entry(s).or_insert(0) += 1;
        s
    }

    /// Release a snapshot. When the oldest registered sequence advances
    /// (or the registry empties), the GC horizon moved: run a full sweep.
    pub fn release_snapshot(&self, s: u64) {
        let horizon_moved = {
            let mut snaps = self.snapshots.lock();
            let was_min = snaps.keys().next() == Some(&s);
            match snaps.get_mut(&s) {
                Some(n) if *n > 1 => {
                    *n -= 1;
                    false
                }
                Some(_) => {
                    snaps.remove(&s);
                    was_min
                }
                None => {
                    debug_assert!(false, "released unregistered snapshot {s}");
                    false
                }
            }
        };
        if horizon_moved {
            self.vacuum();
        }
    }

    /// The newest version of `oid` visible at snapshot `s`.
    pub fn visible(&self, oid: u64, s: u64) -> SnapshotLookup {
        let shard = self.shard(oid).lock();
        match shard.get(&oid) {
            None => SnapshotLookup::Untracked,
            Some(chain) => match chain.versions.iter().rev().find(|v| v.seq <= s) {
                Some(Version { data: Some(d), .. }) => SnapshotLookup::Value(Arc::clone(d)),
                // A delete marker, or an object created after `s` (all
                // versions newer, or none committed yet): logically absent.
                Some(Version { data: None, .. }) | None => SnapshotLookup::Deleted,
            },
        }
    }

    /// Capture `committed` — the object's logical value before any of
    /// `txn`'s mutations — and pin the entry. MUST be called before the
    /// transaction's first page mutation of this object. The `seq = 0`
    /// seed is correct for every live snapshot because entries are only
    /// reclaimed when the pages hold the newest committed value (so at
    /// seed time, pages == committed value for all of them).
    pub fn seed(&self, oid: u64, cluster: ClusterId, txn: TxnId, committed: Vec<u8>) {
        let mut shard = self.shard(oid).lock();
        let chain = shard.entry(oid).or_insert_with(|| Chain {
            writer: None,
            cluster,
            versions: Vec::new(),
        });
        chain.writer = Some(txn);
        chain.cluster = cluster;
        if chain.versions.is_empty() {
            chain.versions.push(Version {
                seq: 0,
                data: Some(Arc::from(committed.into_boxed_slice())),
            });
        }
    }

    /// Register an uncommitted insert's (empty) pinned entry. Called from
    /// *inside* the page latch that inserts the primary cell, so no
    /// falling-back reader can observe the cell before the entry exists.
    /// Committed versions from a previous life of the Oid are kept.
    pub fn note_insert(&self, oid: u64, cluster: ClusterId, txn: TxnId) {
        let mut shard = self.shard(oid).lock();
        let chain = shard.entry(oid).or_insert_with(|| Chain {
            writer: None,
            cluster,
            versions: Vec::new(),
        });
        chain.writer = Some(txn);
        chain.cluster = cluster;
    }

    /// Install the committed values of a write set as one atomic sequence
    /// step. `read` computes each object's final logical value from the
    /// pages (`None` = deleted); it runs before any chain shard is locked.
    /// Returns the new commit sequence.
    pub fn install(
        &self,
        dirty: &[u64],
        mut read: impl FnMut(u64) -> crate::error::Result<(ClusterId, Option<Vec<u8>>)>,
    ) -> crate::error::Result<u64> {
        let _serialize = self.commit_lock.lock();
        let s = self.seq.load(Ordering::Relaxed) + 1;
        let mut values = Vec::with_capacity(dirty.len());
        for &oid in dirty {
            values.push(read(oid)?);
        }
        for (&oid, (cluster, value)) in dirty.iter().zip(values) {
            let mut shard = self.shard(oid).lock();
            let chain = shard.entry(oid).or_insert_with(|| Chain {
                writer: None,
                cluster,
                versions: Vec::new(),
            });
            chain.versions.push(Version {
                seq: s,
                data: value.map(|v| Arc::from(v.into_boxed_slice())),
            });
            self.metrics
                .version_chain_len
                .record(chain.versions.len() as u64);
        }
        // Publish, then unpin: while pinned, no vacuum can reclaim an entry
        // whose pages already hold this commit's value, which a snapshot
        // registered at the previous sequence would otherwise read back
        // through the fallback beside its siblings' older chain values.
        self.seq.store(s, Ordering::Release);
        self.unpin_and_gc(dirty.iter().copied());
        Ok(s)
    }

    /// Unpin `txn`'s entries after its page mutations were rolled back.
    /// Entries are kept — even empty ones — so a reader mid-fallback can
    /// still detect that the pages were mutated inside its read window;
    /// the next registry-empty sweep reclaims them.
    pub fn clear_writer(&self, txn: TxnId, dirty: &[u64]) {
        for &oid in dirty {
            let mut shard = self.shard(oid).lock();
            if let Some(chain) = shard.get_mut(&oid) {
                if chain.writer == Some(txn) {
                    chain.writer = None;
                }
            }
        }
    }

    /// Objects of `cluster` that exist at snapshot `s` according to the
    /// chains — the scan-side complement for objects whose page cells were
    /// physically purged after the snapshot began.
    pub fn cluster_members(&self, cluster: ClusterId, s: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for (&oid, chain) in shard.iter() {
                if chain.cluster != cluster {
                    continue;
                }
                if let Some(v) = chain.versions.iter().rev().find(|v| v.seq <= s) {
                    if v.data.is_some() {
                        out.push(oid);
                    }
                }
            }
        }
        out
    }

    /// GC horizon, read under the registry mutex — the serialization
    /// point against [`VersionStore::register_snapshot`]. When no snapshot
    /// is registered, whole-entry reclamation is allowed and the registry
    /// guard is returned: the caller holds it through its removals, so no
    /// snapshot can register between that decision and the removals and
    /// then read through the fallback a page value newer than its sequence.
    fn horizon(&self) -> (u64, Option<MutexGuard<'_, BTreeMap<u64, usize>>>) {
        let snaps = self.snapshots.lock();
        match snaps.keys().next() {
            Some(&oldest) => (oldest, None),
            None => (self.seq.load(Ordering::Acquire), Some(snaps)),
        }
    }

    /// Unpin the given (just installed) chains and trim them behind the
    /// horizon; reclaim them entirely when no snapshot is registered.
    fn unpin_and_gc(&self, oids: impl Iterator<Item = u64>) {
        let (horizon, registry) = self.horizon();
        let reclaim = registry.is_some();
        let mut dropped = 0u64;
        for oid in oids {
            let mut shard = self.shard(oid).lock();
            if let Some(chain) = shard.get_mut(&oid) {
                chain.writer = None;
                dropped += Self::trim(chain, horizon);
                if reclaim {
                    dropped += chain.versions.len() as u64;
                    shard.remove(&oid);
                }
            }
        }
        if dropped > 0 {
            self.metrics.versions_gced.add(dropped);
        }
    }

    /// Full sweep: trim every chain behind the horizon and — only while
    /// the registry is empty — drop writer-free entries entirely, leaving
    /// the pages authoritative. Entry removal with snapshots registered
    /// would let a falling-back reader miss a rolled-back mutation that
    /// happened inside its read window, so it is never done.
    pub fn vacuum(&self) {
        let (horizon, registry) = self.horizon();
        let reclaim = registry.is_some();
        let mut dropped = 0u64;
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            shard.retain(|_, chain| {
                dropped += Self::trim(chain, horizon);
                if reclaim && chain.writer.is_none() {
                    dropped += chain.versions.len() as u64;
                    false
                } else {
                    true
                }
            });
        }
        if dropped > 0 {
            self.metrics.versions_gced.add(dropped);
        }
    }

    /// Drop versions superseded by a later version with `seq <= horizon`;
    /// returns how many were dropped. The newest version at or below the
    /// horizon is the floor every current and future snapshot can reach.
    fn trim(chain: &mut Chain, horizon: u64) -> u64 {
        let keep_from = chain
            .versions
            .iter()
            .rposition(|v| v.seq <= horizon)
            .unwrap_or(0);
        if keep_from > 0 {
            chain.versions.drain(..keep_from);
        }
        keep_from as u64
    }

    /// Current shape of the store.
    pub fn stats(&self) -> VersionStats {
        let mut entries = 0;
        let mut versions = 0;
        for shard in self.shards.iter() {
            let shard = shard.lock();
            entries += shard.len();
            versions += shard.values().map(|c| c.versions.len()).sum::<usize>();
        }
        VersionStats {
            entries,
            versions,
            seq: self.seq.load(Ordering::Acquire),
            active_snapshots: self.snapshots.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> VersionStore {
        VersionStore::new(4, Arc::new(Metrics::new()))
    }

    fn install_one(vs: &VersionStore, oid: u64, value: Option<&[u8]>) -> u64 {
        vs.install(&[oid], |_| Ok((7, value.map(<[u8]>::to_vec))))
            .unwrap()
    }

    #[test]
    fn untracked_objects_fall_back() {
        let vs = store();
        assert!(matches!(vs.visible(9, 0), SnapshotLookup::Untracked));
    }

    #[test]
    fn snapshot_sees_seed_not_later_install() {
        let vs = store();
        let s = vs.register_snapshot();
        vs.seed(1, 7, TxnId(1), b"old".to_vec());
        // Reader sees the seed while the writer is active...
        match vs.visible(1, s) {
            SnapshotLookup::Value(d) => assert_eq!(&d[..], b"old"),
            other => panic!("expected seed value, got {other:?}"),
        }
        // ...and still after the writer commits a newer version.
        install_one(&vs, 1, Some(b"new"));
        match vs.visible(1, s) {
            SnapshotLookup::Value(d) => assert_eq!(&d[..], b"old"),
            other => panic!("expected old value, got {other:?}"),
        }
        // A snapshot taken after the install sees the new value.
        let s2 = vs.register_snapshot();
        match vs.visible(1, s2) {
            SnapshotLookup::Value(d) => assert_eq!(&d[..], b"new"),
            other => panic!("expected new value, got {other:?}"),
        }
        vs.release_snapshot(s);
        vs.release_snapshot(s2);
    }

    #[test]
    fn uncommitted_insert_is_invisible() {
        let vs = store();
        let s = vs.register_snapshot();
        vs.note_insert(3, 7, TxnId(2));
        assert!(matches!(vs.visible(3, s), SnapshotLookup::Deleted));
        vs.release_snapshot(s);
    }

    #[test]
    fn delete_markers_and_oid_reuse() {
        let vs = store();
        install_one(&vs, 5, Some(b"v1"));
        let s1 = vs.register_snapshot();
        // A deleting writer seeds the committed value before mutating.
        vs.seed(5, 7, TxnId(2), b"v1".to_vec());
        let s_del = install_one(&vs, 5, None);
        let s2 = vs.register_snapshot();
        assert!(s2 >= s_del);
        // Old snapshot still reads v1; new snapshot sees the deletion.
        assert!(matches!(vs.visible(5, s1), SnapshotLookup::Value(_)));
        assert!(matches!(vs.visible(5, s2), SnapshotLookup::Deleted));
        // Oid reuse: a fresh insert pins the entry, keeps history.
        vs.note_insert(5, 7, TxnId(3));
        assert!(matches!(vs.visible(5, s1), SnapshotLookup::Value(_)));
        assert!(matches!(vs.visible(5, s2), SnapshotLookup::Deleted));
        install_one(&vs, 5, Some(b"v2"));
        let s3 = vs.register_snapshot();
        match vs.visible(5, s3) {
            SnapshotLookup::Value(d) => assert_eq!(&d[..], b"v2"),
            other => panic!("expected v2, got {other:?}"),
        }
        vs.release_snapshot(s1);
        vs.release_snapshot(s2);
        vs.release_snapshot(s3);
    }

    #[test]
    fn store_self_empties_without_snapshots() {
        let vs = store();
        vs.seed(1, 7, TxnId(1), b"a".to_vec());
        install_one(&vs, 1, Some(b"b"));
        // No snapshots registered: the install reclaims its own entry.
        assert_eq!(vs.stats().entries, 0);
        assert_eq!(vs.stats().seq, 1);
    }

    #[test]
    fn release_of_last_snapshot_vacuums() {
        let vs = store();
        let s = vs.register_snapshot();
        vs.seed(1, 7, TxnId(1), b"a".to_vec());
        install_one(&vs, 1, Some(b"b"));
        assert_eq!(vs.stats().entries, 1);
        vs.release_snapshot(s);
        assert_eq!(vs.stats().entries, 0);
        assert_eq!(vs.stats().active_snapshots, 0);
    }

    #[test]
    fn trim_keeps_horizon_floor() {
        let vs = store();
        // Commit v1 with no snapshots: the store self-empties and the
        // pages become authoritative for v1.
        install_one(&vs, 1, Some(b"v1"));
        let s = vs.register_snapshot(); // pins the horizon at seq 1
                                        // Each writer seeds the committed floor before mutating.
        vs.seed(1, 7, TxnId(1), b"v1".to_vec());
        install_one(&vs, 1, Some(b"v2"));
        vs.seed(1, 7, TxnId(2), b"v2".to_vec()); // non-empty chain: no-op
        install_one(&vs, 1, Some(b"v3"));
        // The seeded v1 floor survives (it is the newest version at or
        // below the horizon); nothing behind it exists to trim.
        let stats = vs.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.versions, 3);
        match vs.visible(1, s) {
            SnapshotLookup::Value(d) => assert_eq!(&d[..], b"v1"),
            other => panic!("expected v1, got {other:?}"),
        }
        vs.release_snapshot(s);
        assert_eq!(vs.stats().entries, 0);
    }

    #[test]
    fn abort_keeps_entry_until_registry_empty_sweep() {
        let vs = store();
        let s = vs.register_snapshot();
        vs.note_insert(8, 7, TxnId(4));
        vs.clear_writer(TxnId(4), &[8]);
        // Entry survives (reader-window safety) but reads as deleted.
        assert_eq!(vs.stats().entries, 1);
        assert!(matches!(vs.visible(8, s), SnapshotLookup::Deleted));
        vs.release_snapshot(s);
        assert_eq!(vs.stats().entries, 0);
    }

    #[test]
    fn cluster_members_tracks_visibility() {
        let vs = store();
        install_one(&vs, 1, Some(b"live"));
        let s1 = vs.register_snapshot();
        // The deleting writer seeds the committed value first, as always.
        vs.seed(1, 7, TxnId(1), b"live".to_vec());
        install_one(&vs, 1, None);
        let s2 = vs.register_snapshot();
        assert_eq!(vs.cluster_members(7, s1), vec![1]);
        assert!(vs.cluster_members(7, s2).is_empty());
        assert!(vs.cluster_members(8, s1).is_empty());
        vs.release_snapshot(s1);
        vs.release_snapshot(s2);
    }
}
