//! The transactional object heap — the facade of the storage substrate.
//!
//! [`Storage`] plays the role of the paper's *storage manager* layer: "the
//! object manager is built on top of a storage manager which provides much
//! of the required database functionality such as locking, logging,
//! transactions" (§2). One implementation serves both the EOS-like
//! disk-backed engine and the Dali-like main-memory engine; they differ
//! only in the page store behind the same run-time, exactly as Ode and
//! MM-Ode "share a great deal of run-time system code" (§5.6).
//!
//! Capabilities:
//! * `pnew`/`pdelete`-style allocation of byte records identified by stable
//!   [`Oid`]s, grouped into clusters (one cluster per class, like O++).
//! * Strict 2PL via the [`LockManager`]; shared locks for reads, exclusive
//!   for writes, with deadlock detection.
//! * Rollback via in-memory undo (each step also logged, compensation
//!   style); durability via the WAL with repeat-history recovery — redo
//!   in log order from the last complete checkpoint, gated on each page's
//!   LSN so stolen pages never double-apply, then rollback of the
//!   in-flight losers: `apply_undo` of the undo steps redo rebuilt from
//!   the log, all losers' together in reverse log order, each under its
//!   own loser's id, and [`Storage::abort`] of each. Recovery therefore
//!   rolls back with the same logged, LSN-stamped steps as a live abort,
//!   so a crash inside recovery is repaired by the next one. The buffer
//!   pool steals dirty
//!   frames under the WAL-before-data rule, and fuzzy incremental
//!   checkpoints (dirty-page table + active-transaction table in the log)
//!   truncate the WAL behind `min(rec_lsn)` without quiescing writers.
//! * Named roots and a persistent cluster counter for bootstrapping.
//! * Commit dependencies and system transactions for trigger coupling
//!   modes (§5.5).
//!
//! Record representation inside pages (first byte of every cell):
//!
//! | tag | meaning                                    |
//! |-----|--------------------------------------------|
//! | 0   | primary inline data                        |
//! | 1   | forward stub → Oid of the moved record     |
//! | 2   | primary overflow head (len, chunk Oids)    |
//! | 3   | moved inline data (forward target)         |
//! | 4   | overflow chunk                             |
//! | 5   | moved overflow head                        |
//!
//! Cluster scans enumerate primaries (tags 0, 1, 2) so an object is always
//! reported under its original, stable Oid.

use crate::buffer::{BufferPool, PoolStats};
use crate::codec::{decode_all, encode_to_vec, Decode, Encode};
use crate::disk::DiskFile;
use crate::error::{Result, StorageError};
use crate::fault::FaultInjector;
use crate::hash::{IntMap, IntSet};
use crate::lock::{LockKey, LockManager, LockMode, LockStats};
use crate::mem::MemStore;
use crate::oid::{ClusterId, Oid, PageId, FIRST_USER_CLUSTER, SYSTEM_CLUSTER, UNASSIGNED_CLUSTER};
use crate::page::{Page, PageOpError, MAX_RECORD};
use crate::txn::{TxnId, TxnManager, TxnState, UndoOp};
use crate::version::{SnapshotLookup, VersionStats, VersionStore};
use crate::wal::{LogRecord, Wal};
use bytes::{BufMut, BytesMut};
use ode_obs::{FlightEvent, Metrics};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TAG_DATA: u8 = 0;
const TAG_FORWARD: u8 = 1;
const TAG_OVF_HEAD: u8 = 2;
const TAG_MOVED_DATA: u8 = 3;
const TAG_OVF_CHUNK: u8 = 4;
const TAG_MOVED_OVF_HEAD: u8 = 5;
/// A cell deleted by a still-active transaction. The slot and bytes stay
/// reserved (invisible to reads, allocation, and scans) until the deleting
/// transaction commits and physically removes the cell — or aborts and
/// restores the original tag. Releasing them earlier would let a concurrent
/// insert claim the slot, making the delete impossible to undo and handing
/// the object's Oid to an unrelated record. Tombstones appear in the WAL
/// (the tombstoning is logged like any cell update, and replay repeats it
/// transiently) but never in checkpoints: the committing transaction
/// physically purges its tombstones before it leaves the active set, and
/// checkpoints require quiescence.
const TAG_TOMBSTONE: u8 = 6;

/// Max payload bytes in one inline cell (tag byte subtracted).
const MAX_INLINE: usize = MAX_RECORD - 1;

/// A page is considered to "have space" while this many bytes are free.
const SPACE_THRESHOLD: usize = 32;

/// The roots directory is always the very first object allocated.
pub const ROOTS_OID: Oid = Oid::new(1, 0);

/// Which page store backs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// EOS-like: disk pages behind a buffer pool, WAL durability.
    Disk,
    /// Dali-like: main-memory pages; durable via checkpoint + WAL when
    /// opened with a directory, fully volatile otherwise.
    Memory,
}

/// Tuning and policy knobs.
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Engine selection.
    pub engine: EngineKind,
    /// Buffer pool capacity in frames (disk engine only).
    pub buffer_pages: usize,
    /// Whether commits fsync the WAL.
    pub fsync: bool,
    /// Lock-wait safety-net timeout.
    pub lock_timeout: Duration,
    /// Auto-checkpoint after this many commits (0 = only at close).
    /// On the disk engine the commit-path checkpoint is fuzzy (no
    /// quiescence, log truncated incrementally); the memory engine still
    /// checkpoints opportunistically when quiesced.
    pub checkpoint_every: u64,
    /// Run a background thread that takes a fuzzy checkpoint every
    /// interval (disk engine only). `None` disables the thread; commits
    /// and trigger firings proceed concurrently with the checkpointer.
    pub checkpoint_interval: Option<Duration>,
    /// Fault injector routed through the WAL and data files (crash tests).
    pub fault: Option<Arc<FaultInjector>>,
    /// Concurrency-core shard count for the buffer pool, allocator, and
    /// transaction table (rounded to a power of two; the buffer pool also
    /// clamps to `buffer_pages`). `1` reproduces the old single-mutex
    /// behavior.
    pub shards: usize,
    /// Slow-statement threshold. When set, every session statement is
    /// traced and any statement slower than this many microseconds has
    /// its full span tree written to the slow log (stderr) and counted
    /// in `ode_slow_statements`. `None` (the default) disables the slow
    /// log and leaves tracing opt-in per session.
    pub slow_statement_micros: Option<u64>,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            engine: EngineKind::Disk,
            buffer_pages: 256,
            fsync: false,
            lock_timeout: Duration::from_secs(10),
            checkpoint_every: 0,
            checkpoint_interval: None,
            fault: None,
            shards: crate::buffer::DEFAULT_POOL_SHARDS,
            slow_statement_micros: None,
        }
    }
}

impl StorageOptions {
    /// Defaults with the main-memory engine selected.
    pub fn memory() -> StorageOptions {
        StorageOptions {
            engine: EngineKind::Memory,
            ..StorageOptions::default()
        }
    }
}

enum Store {
    Disk(Arc<BufferPool>),
    Mem(MemStore),
}

impl Store {
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        match self {
            Store::Disk(pool) => pool.with_page(id, f),
            Store::Mem(mem) => mem.with_page(id, f),
        }
    }

    fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        match self {
            Store::Disk(pool) => pool.with_page_mut(id, f),
            Store::Mem(mem) => mem.with_page_mut(id, f),
        }
    }

    fn allocate_page(&self) -> Result<PageId> {
        match self {
            Store::Disk(pool) => pool.allocate_page(),
            Store::Mem(mem) => mem.allocate_page(),
        }
    }

    fn ensure_pages(&self, count: u32) -> Result<()> {
        match self {
            Store::Disk(pool) => pool.disk().ensure_pages(count),
            Store::Mem(mem) => mem.ensure_pages(count),
        }
    }

    fn page_count(&self) -> u32 {
        match self {
            Store::Disk(pool) => pool.page_count(),
            Store::Mem(mem) => mem.page_count(),
        }
    }
}

/// Pages pulled from the store in one batch when every allocator shard is
/// out of reusable pages (the shards' "refill" from global growth).
const ALLOC_REFILL_BATCH: usize = 4;

/// Cold-path allocation directory shared by all shards, rebuilt from page
/// tags at open. Only touched when a page changes cluster membership or a
/// cluster is scanned.
#[derive(Default)]
struct AllocGlobal {
    /// All pages belonging to each cluster.
    cluster_pages: IntMap<ClusterId, BTreeSet<PageId>>,
}

/// One shard of the allocation directory; a page's shard is fixed by its
/// id, so `note_space` and the `pick_page` fast path touch one shard mutex
/// instead of a process-wide one.
#[derive(Default)]
struct AllocShard {
    /// Pages per cluster believed to have usable space (this shard only),
    /// each with the shortest cell it was since found too full for
    /// (`usize::MAX` until a probe fails). `pick_page` skips a page for
    /// any cell at least that long without reading it; `note_space`
    /// resets the bound whenever the page's space changes.
    with_space: IntMap<ClusterId, BTreeMap<PageId, usize>>,
    /// Pages not yet assigned to any cluster (this shard only).
    unassigned: BTreeSet<PageId>,
}

/// Serialized contents of the roots directory object.
struct RootsRecord {
    next_cluster: ClusterId,
    roots: Vec<(String, Oid)>,
}

impl Encode for RootsRecord {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.next_cluster);
        self.roots.encode(buf);
    }
}

impl Decode for RootsRecord {
    fn decode(buf: &mut &[u8]) -> Result<RootsRecord> {
        Ok(RootsRecord {
            next_cluster: ClusterId::decode(buf)?,
            roots: Vec::<(String, Oid)>::decode(buf)?,
        })
    }
}

/// Receipt from [`Storage::commit_deferred`]: the durability target the
/// commit must reach before it may be acknowledged. `lsn` is `None` for
/// read-only transactions (nothing to flush) and WAL-less stores; a
/// read-only transaction that overlapped not-yet-durable writers instead
/// carries the log tail it observed in `read_barrier`, which
/// [`Storage::commit_wait`] waits on so an acknowledged read never
/// exposes state recovery could discard.
#[derive(Debug, Clone, Copy)]
#[must_use = "a deferred commit is not durable until commit_wait succeeds"]
pub struct CommitTicket {
    txn: TxnId,
    lsn: Option<u64>,
    read_barrier: Option<u64>,
}

impl CommitTicket {
    /// LSN of the Commit record, if one was written.
    pub fn lsn(&self) -> Option<u64> {
        self.lsn
    }

    /// The committing transaction.
    pub fn txn(&self) -> TxnId {
        self.txn
    }
}

/// The transactional object heap. See module docs.
pub struct Storage {
    store: Store,
    wal: Option<Arc<Wal>>,
    locks: LockManager,
    txns: Arc<TxnManager>,
    /// Per-object committed version chains serving MVCC snapshot readers
    /// (see [`crate::version`]): read-only transactions resolve every read
    /// here or from quiescent pages, never through the lock manager.
    versions: VersionStore,
    alloc_shards: Box<[Mutex<AllocShard>]>,
    /// `alloc_shards.len() - 1`; shard count is always a power of two.
    alloc_mask: usize,
    alloc_global: Mutex<AllocGlobal>,
    options: StorageOptions,
    /// Directory holding data + log files; None for volatile stores.
    dir: Option<std::path::PathBuf>,
    commits_since_checkpoint: Arc<AtomicU64>,
    next_lsn: AtomicU64,
    /// Background fuzzy checkpointer, when `checkpoint_interval` is set.
    checkpointer: Mutex<Option<Checkpointer>>,
    metrics: Arc<Metrics>,
}

/// Handle to the background checkpoint thread: a stop flag + condvar the
/// thread waits its interval on, so shutdown interrupts a sleep instead
/// of waiting it out.
struct Checkpointer {
    stop: Arc<(Mutex<bool>, parking_lot::Condvar)>,
    handle: std::thread::JoinHandle<()>,
}

/// Everything a fuzzy checkpoint needs, Arc'd so the background thread
/// can run one without holding (and thus leaking) the whole [`Storage`].
struct CheckpointShared {
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
    txns: Arc<TxnManager>,
    metrics: Arc<Metrics>,
    fsync: bool,
    commits: Arc<AtomicU64>,
}

/// One fuzzy checkpoint cycle. Runs concurrently with commits, aborts,
/// steals, and other page traffic; the only global synchronization is the
/// WAL appends themselves.
///
/// Protocol (order is load-bearing):
/// 1. Append the `BeginCheckpoint` marker, *then* sample the dirty-page
///    table and the active-transaction table. Anything dirtied or begun
///    too late to be sampled necessarily logs past the marker, so redo
///    from `min(marker, sampled minima)` can miss nothing.
/// 2. Flush every sampled dirty page (each under its shard latch, WAL
///    flushed through the page LSN first — the same WAL-before-data rule
///    a steal obeys).
/// 3. Update the data-file header (page count, checkpoint seq). The file
///    is *not* marked clean: log replay is still required after a crash.
/// 4. Recycle the doublewrite journal — everything it protected is
///    durable (after the data-file sync when fsync is on).
/// 5. Append `EndCheckpoint` carrying the sampled tables and flush: the
///    checkpoint is now complete and recovery may start from it.
/// 6. Truncate the log behind `min(Begin start, current dirty rec_lsns,
///    current active first_lsns)` — recomputed *now*, not at the sample,
///    so pages dirtied or transactions begun mid-checkpoint hold the
///    horizon back exactly as far as redo/undo still need the log.
fn fuzzy_checkpoint(shared: &CheckpointShared) -> Result<u64> {
    let CheckpointShared {
        pool,
        wal,
        txns,
        metrics,
        fsync,
        commits,
    } = shared;
    let (begin_start, begin_end) = wal.append_span(&LogRecord::BeginCheckpoint);
    let dirty = pool.dirty_page_table();
    let active = txns.active_logged_first_lsns();
    let mut ids: Vec<PageId> = dirty.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    for id in ids {
        pool.flush_page(id)?;
    }
    if *fsync {
        pool.sync()?;
    }
    let mut header = pool.disk().read_header()?;
    header.page_count = pool.page_count();
    header.checkpoint_seq += 1;
    header.clean_shutdown = false;
    pool.disk().write_header(header)?;
    if *fsync {
        pool.sync()?;
        pool.disk().sync_dw()?;
    }
    pool.disk().dw_reset()?;
    wal.append(&LogRecord::EndCheckpoint {
        begin_lsn: begin_end,
        dirty,
        active,
    });
    wal.flush()?;
    let horizon = begin_start.min(pool.min_rec_lsn().unwrap_or(u64::MAX)).min(
        txns.active_logged_first_lsns()
            .iter()
            .map(|&(_, first)| first)
            .min()
            .unwrap_or(u64::MAX),
    );
    let freed = wal.truncate_prefix(horizon)?;
    metrics.checkpoints.inc();
    metrics.dpt_size.set(pool.dirty_page_table().len() as u64);
    commits.store(0, Ordering::Relaxed);
    Ok(freed)
}

impl Drop for Storage {
    fn drop(&mut self) {
        // `close` already stopped it; a bare drop (or a crash-simulating
        // test that forgot the storage) must not leave the thread looping
        // on Arcs that outlive the Storage.
        self.stop_checkpointer();
    }
}

impl Storage {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Create a new database in `dir` (which must exist and be empty of
    /// database files).
    pub fn create(dir: &Path, options: StorageOptions) -> Result<Storage> {
        std::fs::create_dir_all(dir)?;
        let store = match options.engine {
            EngineKind::Disk => {
                let disk = DiskFile::create_with(
                    &dir.join("data.odb"),
                    options.fsync,
                    options.fault.clone(),
                )?;
                Store::Disk(Arc::new(BufferPool::with_shards(
                    disk,
                    options.buffer_pages,
                    options.shards,
                )))
            }
            EngineKind::Memory => Store::Mem(MemStore::with_shards(options.shards)),
        };
        let wal = Wal::open_with(&dir.join("wal.log"), options.fsync, options.fault.clone())?;
        wal.reset()?;
        let storage = Storage::assemble(store, Some(wal), options, Some(dir.to_path_buf()));
        storage.bootstrap_roots()?;
        storage.checkpoint()?;
        storage.start_checkpointer();
        Ok(storage)
    }

    /// Open an existing database in `dir`. Recovery always runs — redo of
    /// the log, then rollback of every transaction in flight at the last
    /// shutdown (none after a clean close, whose checkpoint empties the
    /// log) — and a quiesced checkpoint then makes its work durable and
    /// resets the log.
    pub fn open(dir: &Path, options: StorageOptions) -> Result<Storage> {
        let storage = Storage::recover(dir, options)?;
        storage.checkpoint()?;
        storage.start_checkpointer();
        Ok(storage)
    }

    /// Assemble the store in `dir` and recover it: repeat history, then
    /// roll the losers back. The rollback is logged, so until
    /// [`Storage::open`]'s checkpoint resets the log a crash leaves a log
    /// the next recovery repeats exactly.
    fn recover(dir: &Path, options: StorageOptions) -> Result<Storage> {
        let (storage, loser_undo) = Storage::redo(dir, options)?;
        storage.roll_back_losers(loser_undo)?;
        Ok(storage)
    }

    /// Recovery up to the rollback: assemble the store, repeat history,
    /// rebuild the allocation directory (the rollback allocates and notes
    /// freed space like any transaction) and adopt every loser into the
    /// transaction table under its own id. Returns the losers' undo steps
    /// in log order.
    fn redo(dir: &Path, options: StorageOptions) -> Result<(Storage, Vec<(TxnId, UndoOp)>)> {
        let store = match options.engine {
            EngineKind::Disk => {
                let disk = DiskFile::open_with(
                    &dir.join("data.odb"),
                    options.fsync,
                    options.fault.clone(),
                )?;
                Store::Disk(Arc::new(BufferPool::with_shards(
                    disk,
                    options.buffer_pages,
                    options.shards,
                )))
            }
            EngineKind::Memory => {
                let ckpt = dir.join("mem.ckpt");
                if ckpt.exists() {
                    Store::Mem(MemStore::load_from(&ckpt, options.shards)?)
                } else {
                    Store::Mem(MemStore::with_shards(options.shards))
                }
            }
        };
        let wal_path = dir.join("wal.log");
        let records = Wal::read_all(&wal_path)?;
        let wal = Wal::open_with(&wal_path, options.fsync, options.fault.clone())?;
        let storage = Storage::assemble(store, Some(wal), options, Some(dir.to_path_buf()));
        let loser_undo = storage.replay(&records)?;
        storage.rebuild_alloc()?;
        for &(txn, _) in &loser_undo {
            storage.txns.adopt(txn);
        }
        Ok((storage, loser_undo))
    }

    /// Roll back every loser: their undo steps all together, newest
    /// first, then [`Storage::abort`] of each, left only to log its Abort
    /// record and finish it. Interleaved losers must unwind in
    /// reverse log order, not one whole transaction after another: space
    /// one loser's shrink freed and a later loser's insert claimed is
    /// handed back before the shrink is undone. A secondary cell (an
    /// already-moved target, an overflow chunk) cannot relocate, so undone
    /// out of that order its restore could fail for good.
    fn roll_back_losers(&self, loser_undo: Vec<(TxnId, UndoOp)>) -> Result<()> {
        let losers: BTreeSet<TxnId> = loser_undo.iter().map(|&(txn, _)| txn).collect();
        for (txn, op) in loser_undo.into_iter().rev() {
            self.apply_undo(txn, op)?;
        }
        for txn in losers {
            // A relocation above queued undo for its own steps; the
            // rollback they belong to is already complete.
            self.txns.take_undo(txn);
            self.abort(txn)?;
        }
        Ok(())
    }

    /// A fully volatile main-memory database: no files, no WAL, rollback
    /// still works. The closest thing to "just give me a database" for
    /// tests and examples.
    pub fn volatile() -> Storage {
        Storage::volatile_with(StorageOptions::memory())
    }

    /// [`Storage::volatile`] with explicit options (engine is forced to
    /// memory; `shards` and `lock_timeout` are what callers usually come
    /// here for).
    pub fn volatile_with(options: StorageOptions) -> Storage {
        let options = StorageOptions {
            engine: EngineKind::Memory,
            ..options
        };
        let storage = Storage::assemble(
            Store::Mem(MemStore::with_shards(options.shards)),
            None,
            options,
            None,
        );
        storage
            .bootstrap_roots()
            .expect("bootstrap of a volatile store cannot fail");
        storage
    }

    fn assemble(
        store: Store,
        wal: Option<Wal>,
        options: StorageOptions,
        dir: Option<std::path::PathBuf>,
    ) -> Storage {
        // One registry per database: the lock manager, WAL, and buffer pool
        // all record into the same instance, which `Storage::metrics` then
        // exposes to the event and trigger layers above.
        let metrics = Arc::new(Metrics::new());
        let mut wal = wal;
        if let Some(w) = &mut wal {
            w.set_metrics(Arc::clone(&metrics));
        }
        let wal = wal.map(Arc::new);
        let mut store = store;
        if let Store::Disk(pool) = &mut store {
            let pool = Arc::get_mut(pool).expect("pool is unshared at assembly");
            pool.set_metrics(Arc::clone(&metrics));
            if let Some(w) = &wal {
                // Enables steal: dirty frames may be written back once the
                // WAL is flushed through their page LSN.
                pool.attach_wal(Arc::clone(w));
            }
        }
        if let Some(injector) = &options.fault {
            injector.attach_metrics(Arc::clone(&metrics));
        }
        let alloc_shards = options.shards.max(1).next_power_of_two();
        Storage {
            store,
            wal,
            locks: LockManager::with_metrics(options.lock_timeout, Arc::clone(&metrics)),
            txns: Arc::new(TxnManager::with_config(
                options.lock_timeout,
                Arc::clone(&metrics),
                options.shards,
            )),
            versions: VersionStore::new(options.shards, Arc::clone(&metrics)),
            alloc_shards: (0..alloc_shards)
                .map(|_| Mutex::new(AllocShard::default()))
                .collect(),
            alloc_mask: alloc_shards - 1,
            alloc_global: Mutex::new(AllocGlobal::default()),
            options,
            dir,
            commits_since_checkpoint: Arc::new(AtomicU64::new(0)),
            next_lsn: AtomicU64::new(1),
            checkpointer: Mutex::new(None),
            metrics,
        }
    }

    /// Spawn the background fuzzy checkpointer when configured (disk
    /// engine with a WAL and `checkpoint_interval` set). Called after the
    /// initial quiesced checkpoint so the thread never overlaps create/
    /// open-time log resets.
    fn start_checkpointer(&self) {
        let interval = match self.options.checkpoint_interval {
            Some(interval) if !interval.is_zero() => interval,
            _ => return,
        };
        let (pool, wal) = match (&self.store, &self.wal) {
            (Store::Disk(pool), Some(wal)) => (Arc::clone(pool), Arc::clone(wal)),
            _ => return,
        };
        let shared = CheckpointShared {
            pool,
            wal,
            txns: Arc::clone(&self.txns),
            metrics: Arc::clone(&self.metrics),
            fsync: self.options.fsync,
            commits: Arc::clone(&self.commits_since_checkpoint),
        };
        let stop = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ode-checkpointer".into())
            .spawn(move || loop {
                {
                    let mut stopped = thread_stop.0.lock();
                    if !*stopped {
                        thread_stop.1.wait_for(&mut stopped, interval);
                    }
                    if *stopped {
                        return;
                    }
                }
                // Checkpoint failures (e.g. a poisoned WAL under fault
                // injection) must not kill the thread: the condition is
                // surfaced to committers through their own WAL writes, and
                // the next cycle retries.
                let _ = fuzzy_checkpoint(&shared);
            })
            .expect("spawning the checkpointer thread cannot fail");
        *self.checkpointer.lock() = Some(Checkpointer { stop, handle });
    }

    /// Signal and join the background checkpointer, if running.
    /// Idempotent; called from `close` and `Drop`.
    fn stop_checkpointer(&self) {
        let ckpt = self.checkpointer.lock().take();
        if let Some(ckpt) = ckpt {
            *ckpt.stop.0.lock() = true;
            ckpt.stop.1.notify_all();
            let _ = ckpt.handle.join();
        }
    }

    /// The database-wide metrics registry shared by every layer.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The options this storage was assembled with (layers above use the
    /// concurrency knobs to size their own sharded structures).
    pub fn options(&self) -> &StorageOptions {
        &self.options
    }

    fn bootstrap_roots(&self) -> Result<()> {
        let txn = self.begin()?;
        let record = RootsRecord {
            next_cluster: FIRST_USER_CLUSTER,
            roots: Vec::new(),
        };
        let bytes = encode_to_vec(&record);
        let oid = self.allocate(txn, SYSTEM_CLUSTER, &bytes)?;
        debug_assert_eq!(oid, ROOTS_OID, "roots record must land at the fixed Oid");
        self.commit(txn)
    }

    /// Recovery's redo pass: repeat history (ARIES-style) and collect the
    /// losers' undo.
    ///
    /// Every logged cell operation is reapplied in log order regardless of
    /// its transaction's fate — the log includes abort-time rollback steps
    /// (compensation-style), so a transaction with an Abort record is
    /// self-neutralizing and committed operations that physically depend
    /// on an aborted neighbour's page layout (e.g. an update addressed to
    /// a cell an abort relocated, or an insert into space an uncommitted
    /// shrink freed) replay against exactly the layout they saw live.
    /// Transactions still in flight at the crash (neither Commit nor Abort
    /// in the log) are losers: the undo steps of all their records come
    /// back in log order, each with its transaction, for
    /// [`Storage::roll_back_losers`]. A loser whose rollback a crash
    /// interrupted has its compensation records in the list too, so it is
    /// undone along with the work it compensated.
    ///
    /// Two refinements over blind reapply, both required once the buffer
    /// pool steals dirty pages and checkpoints are fuzzy:
    ///
    /// * **Checkpoint-bounded redo.** The scan starts at the last complete
    ///   checkpoint's `min(Begin-marker end, dirty-page rec_lsns, active
    ///   first_lsns)` instead of the log start; records wholly before that
    ///   are only consulted for the winner/loser verdicts.
    /// * **LSN-gated apply.** Each record mutates its page only when the
    ///   page's stamped LSN is older than the record's end LSN; a page
    ///   stolen (written back) after the record was applied live carries a
    ///   newer stamp, and re-applying would double-insert or double-delete.
    ///   Loser undo is collected from the record either way — the effect
    ///   is in the page whether redo or the steal put it there.
    fn replay(&self, records: &[(u64, LogRecord)]) -> Result<Vec<(TxnId, UndoOp)>> {
        let resolved: IntSet<u64> = records
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } | LogRecord::Abort { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        // Redo lower bound from the last complete fuzzy checkpoint (its
        // End record carries the tables sampled just after its Begin
        // marker; anything sampled too late to appear logs past the
        // marker, so the min below can miss nothing).
        let mut redo_start = 0u64;
        for (_, record) in records.iter().rev() {
            if let LogRecord::EndCheckpoint {
                begin_lsn,
                dirty,
                active,
            } = record
            {
                redo_start = dirty
                    .iter()
                    .map(|&(_, rec_lsn)| rec_lsn)
                    .chain(active.iter().map(|&(_, first)| first))
                    .min()
                    .unwrap_or(*begin_lsn)
                    .min(*begin_lsn);
                break;
            }
        }
        let mut loser_undo = Vec::new();
        for (end, record) in records {
            let end = *end;
            if end <= redo_start {
                continue;
            }
            let undo = match record {
                LogRecord::PageAlloc { page, cluster, .. } => {
                    self.store.ensure_pages(page + 1)?;
                    self.store.with_page_mut(*page, |p| {
                        if p.lsn() < end {
                            p.set_cluster(*cluster);
                            p.set_lsn(end);
                        }
                    })?;
                    None
                }
                LogRecord::CellInsert {
                    page, slot, data, ..
                } => {
                    self.store.ensure_pages(page + 1)?;
                    self.store
                        .with_page_mut(*page, |p| {
                            if p.lsn() >= end {
                                return Ok(());
                            }
                            p.insert_at(*slot, data).map(|()| p.set_lsn(end))
                        })?
                        .map_err(|e| {
                            StorageError::Corrupt(format!("replay insert failed: {e:?}"))
                        })?;
                    Some(UndoOp::UndoInsert {
                        page: *page,
                        slot: *slot,
                    })
                }
                LogRecord::CellUpdate {
                    page,
                    slot,
                    data,
                    before,
                    ..
                } => {
                    self.store
                        .with_page_mut(*page, |p| {
                            if p.lsn() >= end {
                                return Ok(());
                            }
                            p.update(*slot, data).map(|()| p.set_lsn(end))
                        })?
                        .map_err(|e| {
                            StorageError::Corrupt(format!("replay update failed: {e:?}"))
                        })?;
                    Some(UndoOp::UndoUpdate {
                        page: *page,
                        slot: *slot,
                        before: before.clone(),
                    })
                }
                LogRecord::CellDelete {
                    page, slot, before, ..
                } => {
                    self.store
                        .with_page_mut(*page, |p| {
                            if p.lsn() >= end {
                                return Ok(());
                            }
                            p.delete(*slot).map(|()| p.set_lsn(end))
                        })?
                        .map_err(|e| {
                            StorageError::Corrupt(format!("replay delete failed: {e:?}"))
                        })?;
                    Some(UndoOp::UndoDelete {
                        page: *page,
                        slot: *slot,
                        before: before.clone(),
                    })
                }
                LogRecord::Begin { .. }
                | LogRecord::Commit { .. }
                | LogRecord::Abort { .. }
                | LogRecord::BeginCheckpoint
                | LogRecord::EndCheckpoint { .. } => None,
            };
            if let Some(op) = undo {
                if !resolved.contains(&record.txn()) {
                    loser_undo.push((TxnId(record.txn()), op));
                }
            }
        }
        Ok(loser_undo)
    }

    /// Rebuild the allocation directory by scanning page tags.
    fn rebuild_alloc(&self) -> Result<()> {
        let mut global = AllocGlobal::default();
        let mut shards: Vec<AllocShard> = (0..self.alloc_shards.len())
            .map(|_| AllocShard::default())
            .collect();
        for id in 1..self.store.page_count() {
            let (cluster, free) = self
                .store
                .with_page(id, |p| (p.cluster(), p.usable_free()))?;
            let shard = &mut shards[self.alloc_shard_of(id)];
            if cluster == UNASSIGNED_CLUSTER {
                shard.unassigned.insert(id);
            } else {
                global.cluster_pages.entry(cluster).or_default().insert(id);
                if free >= SPACE_THRESHOLD {
                    shard
                        .with_space
                        .entry(cluster)
                        .or_default()
                        .insert(id, usize::MAX);
                }
            }
        }
        *self.alloc_global.lock() = global;
        for (slot, shard) in self.alloc_shards.iter().zip(shards) {
            *slot.lock() = shard;
        }
        Ok(())
    }

    /// Flush everything and truncate the log. Requires quiescence: with
    /// transactions active this fails with [`StorageError::NotQuiesced`]
    /// (use [`Storage::checkpoint_fuzzy`] to checkpoint under load).
    pub fn checkpoint(&self) -> Result<()> {
        let active = self.txns.active().len();
        if active != 0 {
            return Err(StorageError::NotQuiesced(active));
        }
        // Quiescence means no snapshot can be registered and no writer is
        // pinning a chain, so this sweep empties the version store: the
        // checkpoint image (pages only) must not be shadowed by superseded
        // versions that would otherwise survive it in memory — the same
        // "no stale state rides through a checkpoint" rule the tombstone
        // purge enforces for deleted cells.
        self.versions.vacuum();
        debug_assert_eq!(
            self.versions.stats().entries,
            0,
            "quiesced vacuum must empty the version store"
        );
        match (&self.store, &self.wal) {
            (Store::Disk(pool), Some(wal)) => {
                wal.flush()?;
                pool.flush_all()?;
                // Page images must be stable before the header declares the
                // checkpoint, and the header must be stable before the log
                // (the only redo source) is truncated.
                if self.options.fsync {
                    pool.sync()?;
                }
                let mut header = pool.disk().read_header()?;
                header.page_count = pool.page_count();
                header.checkpoint_seq += 1;
                header.clean_shutdown = true;
                pool.disk().write_header(header)?;
                if self.options.fsync {
                    pool.sync()?;
                    pool.disk().sync_dw()?;
                }
                // Every in-place page write is now durable, so the
                // doublewrite journal has nothing left to protect.
                pool.disk().dw_reset()?;
                wal.reset()?;
            }
            (Store::Mem(mem), Some(wal)) => {
                wal.flush()?;
                if let Some(dir) = &self.dir {
                    mem.checkpoint_to(&dir.join("mem.ckpt"))?;
                }
                wal.reset()?;
            }
            _ => {}
        }
        self.metrics.checkpoints.inc();
        self.commits_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Take a fuzzy (non-quiescent) checkpoint: flush the sampled dirty-
    /// page table under the WAL-before-data rule, log the checkpoint, and
    /// truncate the WAL behind the recovery horizon — all while commits,
    /// aborts, and trigger firings proceed concurrently. Returns the
    /// number of log bytes freed.
    ///
    /// On the memory engine (whose checkpoint is a full image and needs
    /// quiescence) this degrades to an opportunistic quiesced checkpoint:
    /// busy means no-op, not an error.
    pub fn checkpoint_fuzzy(&self) -> Result<u64> {
        match (&self.store, &self.wal) {
            (Store::Disk(pool), Some(wal)) => {
                let shared = CheckpointShared {
                    pool: Arc::clone(pool),
                    wal: Arc::clone(wal),
                    txns: Arc::clone(&self.txns),
                    metrics: Arc::clone(&self.metrics),
                    fsync: self.options.fsync,
                    commits: Arc::clone(&self.commits_since_checkpoint),
                };
                fuzzy_checkpoint(&shared)
            }
            _ => match self.checkpoint() {
                Ok(()) => Ok(0),
                Err(StorageError::NotQuiesced(_)) => Ok(0),
                Err(e) => Err(e),
            },
        }
    }

    /// Checkpoint and drop the handle. (Dropping without `close` is safe —
    /// recovery replays the log — just slower on next open.)
    pub fn close(self) -> Result<()> {
        self.stop_checkpointer();
        self.checkpoint()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a user transaction. No WAL record is written yet — the Begin
    /// is logged lazily at the transaction's first write, so read-only
    /// transactions never touch the log.
    pub fn begin(&self) -> Result<TxnId> {
        Ok(self.txns.begin(false))
    }

    /// Begin a system transaction (trigger processing, §5.5).
    pub fn begin_system(&self) -> Result<TxnId> {
        Ok(self.txns.begin(true))
    }

    /// Begin a read-only snapshot transaction. Every read it performs is
    /// served at one consistent commit sequence — the MVCC snapshot — and
    /// takes **no lock-manager locks**, so it can neither wait for nor
    /// deadlock with writers (nor force them to wait). Write operations
    /// fail with [`StorageError::ReadOnlyTxn`].
    ///
    /// Durability: the snapshot may include writers whose Commit records
    /// are appended but not yet flushed, so the transaction's begin-time
    /// log tail is remembered and [`Storage::commit_wait`] waits for it —
    /// an acknowledged snapshot read never exposes state recovery could
    /// discard (the same read-barrier rule PR 3 established for 2PL
    /// readers, pinned at begin instead of commit).
    pub fn begin_read_only(&self) -> Result<TxnId> {
        let txn = self.txns.begin(false);
        // Order matters: register the snapshot *first*, then capture the
        // log tail. Any writer whose install is visible at this snapshot
        // appended its Commit record before publishing the sequence, so
        // `end_lsn` taken afterwards covers it.
        let snap = self.versions.register_snapshot();
        let barrier = self.wal.as_ref().and_then(|wal| {
            let end = wal.end_lsn();
            (end > wal.flushed_lsn()).then_some(end)
        });
        self.txns.set_snapshot(txn, snap, barrier);
        Ok(txn)
    }

    /// Whether `txn` is a read-only snapshot transaction.
    pub fn is_read_only(&self, txn: TxnId) -> bool {
        self.txns.snapshot_of(txn).is_some()
    }

    /// Fail unless `txn` is an active writer: `TxnNotActive` when it has
    /// finished, `ReadOnlyTxn` when it is a read-only snapshot transaction
    /// (those may not acquire exclusive locks or mutate pages).
    fn require_writer(&self, txn: TxnId) -> Result<()> {
        match self.txns.active_snapshot(txn)? {
            Some(_) => Err(StorageError::ReadOnlyTxn(txn)),
            None => Ok(()),
        }
    }

    /// Ensure `txn`'s Begin record is in the WAL. Called before taking a
    /// page latch whose closure will append a cell record: cell records
    /// are appended *under* the latch so WAL order is identical to
    /// page-mutation order — the invariant replay's repeat-history pass
    /// depends on. (Begin order itself is immaterial.)
    fn wal_begin(&self, txn: TxnId) -> Result<()> {
        if let Some(wal) = &self.wal {
            // Sample the log tail *before* appending: the recorded
            // first-LSN must lower-bound every record of the transaction,
            // and the checkpointer reads it concurrently.
            let first = wal.end_lsn();
            if self.txns.mark_logged(txn, first)? {
                wal.append(&LogRecord::Begin { txn: txn.0 });
            }
        }
        Ok(())
    }

    /// Declare that `txn` may only commit if `on` commits (the `dependent`
    /// coupling mode's commit dependency).
    pub fn add_commit_dependency(&self, txn: TxnId, on: TxnId) -> Result<()> {
        self.txns.add_dependency(txn, on)
    }

    /// Commit: wait for dependencies, make the log durable, release locks.
    /// Equivalent to [`Storage::commit_deferred`] + [`Storage::commit_wait`];
    /// returns once the commit is durable (group-commit batches concurrent
    /// committers into one fsync).
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let ticket = self.commit_deferred(txn)?;
        self.commit_wait(ticket)
    }

    /// First half of commit: wait for dependencies, append the Commit
    /// record, mark the transaction committed, and release its locks —
    /// WITHOUT waiting for durability. The returned ticket must be passed
    /// to [`Storage::commit_wait`] before the commit is acknowledged to
    /// anyone outside the database.
    ///
    /// The early lock release is safe because WAL order bounds visibility:
    /// a writing transaction that reads this one's writes appends its own
    /// Commit record at a later LSN, so it cannot become durable (and thus
    /// cannot be acknowledged) before this one does, and a read-only
    /// transaction's ticket carries the log tail it observed, which
    /// `commit_wait` waits on. The trigger layer uses the gap to let
    /// dependent system transactions append their Commit records into the
    /// same flush batch as their parent.
    pub fn commit_deferred(&self, txn: TxnId) -> Result<CommitTicket> {
        // Snapshot transactions wrote nothing: no log, no locks, no purge.
        // Their ticket carries the *begin-time* read barrier (every commit
        // visible at the snapshot sits at or below that log tail), and
        // releasing the snapshot unpins the GC horizon.
        if let Some(snap) = self.txns.active_snapshot(txn)? {
            let read_barrier = self.txns.read_barrier_of(txn);
            self.versions.release_snapshot(snap);
            self.txns.finish(txn, TxnState::Committed)?;
            self.metrics.txn_commits.inc();
            self.metrics.emit(|| FlightEvent::TxnCommit { txn: txn.0 });
            return Ok(CommitTicket {
                txn,
                lsn: None,
                read_barrier,
            });
        }
        if let Err(e) = self.txns.await_dependencies(txn) {
            // Dependency failed: this transaction must abort instead.
            self.abort(txn)?;
            return Err(e);
        }
        // Physically remove every cell this transaction tombstoned, each
        // logged and applied under ONE page latch (log order = mutation
        // order, and the page LSN is stamped with the record's exact end
        // so a stolen page never replays the delete twice). Ahead of the
        // Commit record, so recovery repeats the purge exactly when it
        // replays the commit; running it here is irrevocable-safe because
        // dependencies are resolved and nothing past this point can abort
        // the transaction. The slots stayed reserved (tombstoned) until
        // now, so reading them inside the latch is race-free, and the
        // locks are still held, so no reader can observe the purge early.
        let pending = self.txns.take_pending_deletes(txn);
        debug_assert!(
            pending.is_empty() || self.wal.is_none() || self.txns.has_logged(txn),
            "a delete implies a logged txn"
        );
        for oid in &pending {
            let removed = self.store.with_page_mut(oid.page(), |p| {
                let before = p.read(oid.slot()).map(<[u8]>::to_vec).unwrap_or_default();
                let ok = p.delete(oid.slot()).is_ok();
                if ok {
                    let lsn = match &self.wal {
                        Some(wal) => wal.append(&LogRecord::CellDelete {
                            txn: txn.0,
                            page: oid.page(),
                            slot: oid.slot(),
                            before,
                        }),
                        None => self.bump_lsn(),
                    };
                    p.set_lsn(lsn);
                }
                ok
            });
            debug_assert!(
                matches!(removed, Ok(true)),
                "commit-time delete of a tombstoned cell cannot fail"
            );
            let _ = self.note_space(oid.page());
        }
        // Read-only transactions never logged anything: skip the Commit
        // record and the flush entirely.
        let lsn = match &self.wal {
            Some(wal) if self.txns.has_logged(txn) => {
                let lsn = wal.append(&LogRecord::Commit { txn: txn.0 });
                self.txns.set_commit_lsn(txn, lsn);
                Some(lsn)
            }
            _ => None,
        };
        // A read-only transaction may have observed writes whose Commit
        // records are appended but not yet durable (locks release before
        // the flush). Acknowledging the read must imply those writers are
        // durable, so remember the log tail observed now — every write
        // this transaction read committed at or below it — for
        // `commit_wait` to wait on. `None` when the tail is already
        // durable, which keeps the common read-after-durable path free.
        let read_barrier = match &self.wal {
            Some(wal) if lsn.is_none() => {
                let end = wal.end_lsn();
                (end > wal.flushed_lsn()).then_some(end)
            }
            _ => None,
        };
        // Install the committed values of this transaction's write set as
        // one atomic version-store sequence step. Past the commit point
        // (Commit record appended): a purged slot resolves as
        // NoSuchObject, which installs the delete marker snapshot readers
        // need.
        let dirty = self.txns.take_dirty(txn);
        if !dirty.is_empty() {
            self.versions.install(&dirty, |o| {
                let oid = Oid::from_u64(o);
                let cluster = self.cluster_of(oid.page())?;
                match self.resolve(oid) {
                    Ok((_, cell)) => Ok((cluster, Some(self.cell_data(&cell)?))),
                    Err(StorageError::NoSuchObject(_)) => Ok((cluster, None)),
                    Err(e) => Err(e),
                }
            })?;
        }
        self.txns.finish(txn, TxnState::Committed)?;
        self.locks.unlock_all(txn);
        self.metrics.txn_commits.inc();
        self.metrics.emit(|| FlightEvent::TxnCommit { txn: txn.0 });
        Ok(CommitTicket {
            txn,
            lsn,
            read_barrier,
        })
    }

    /// Second half of commit: block until the ticket's Commit record is
    /// durable (`flushed_lsn >= commit_lsn`). Read-only tickets return
    /// immediately unless they observed not-yet-durable writers, in which
    /// case they wait for those writers' Commit records first (a read is
    /// only acknowledged once everything it saw is durable). Runs the
    /// auto-checkpoint policy.
    pub fn commit_wait(&self, ticket: CommitTicket) -> Result<()> {
        if let Some(wal) = &self.wal {
            if let Some(lsn) = ticket.lsn {
                let mut span = ode_trace::span(ode_trace::SpanKind::Commit, "");
                span.payload(ticket.txn.0, lsn);
                wal.commit_wait(lsn)?;
                self.metrics.emit(|| FlightEvent::CommitDurable {
                    txn: ticket.txn.0,
                    lsn,
                });
                drop(span);
            } else if let Some(barrier) = ticket.read_barrier {
                wal.commit_wait(barrier)?;
            }
        }
        if ticket.lsn.is_some() || self.wal.is_none() {
            let n = self
                .commits_since_checkpoint
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            if self.options.checkpoint_every > 0 && n >= self.options.checkpoint_every {
                self.checkpoint_fuzzy()?;
            }
        }
        Ok(())
    }

    /// Abort: apply undo in reverse, release locks.
    ///
    /// Undo runs to completion even when an individual restore fails —
    /// bailing out early would leave the transaction `Active` with its
    /// locks held and its undo list already drained, permanently starving
    /// every later transaction that touches those keys (observed as a
    /// livelock of lock-timeout/retry cycles under the concurrency stress
    /// test). The first restore error is still reported, but the
    /// transaction always finishes and always releases its locks.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let snapshot = self.txns.active_snapshot(txn)?;
        let undo = self.txns.take_undo(txn);
        let mut first_err = None;
        for op in undo.into_iter().rev() {
            if let Err(e) = self.apply_undo(txn, op) {
                first_err.get_or_insert(e);
            }
        }
        // Unpin this transaction's version-chain entries: the rollback
        // above restored the pages to the committed values the chains
        // seeded, so the pins (not the seeds) are what must go. Entries
        // themselves stay — a reader mid-fallback relies on their presence
        // to detect that pages were mutated inside its read window.
        let dirty = self.txns.take_dirty(txn);
        if !dirty.is_empty() {
            self.versions.clear_writer(txn, &dirty);
        }
        if let Some(snap) = snapshot {
            self.versions.release_snapshot(snap);
        }
        if let Some(wal) = &self.wal {
            // Informational only, so a read-only abort stays log-free.
            if self.txns.has_logged(txn) {
                wal.append(&LogRecord::Abort { txn: txn.0 });
            }
        }
        self.txns.finish(txn, TxnState::Aborted)?;
        self.locks.unlock_all(txn);
        self.metrics.txn_aborts.inc();
        self.metrics.emit(|| FlightEvent::TxnAbort { txn: txn.0 });
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Apply one rollback step — and *log* it. Abort-time page repairs are
    /// appended to the WAL as ordinary cell records (compensation-log
    /// style, under the page latch like every cell record), so recovery's
    /// repeat-history pass reproduces the rollback verbatim: a committed
    /// neighbour whose operations physically depend on the repaired layout
    /// (an update addressed to a relocated cell, an insert into freed
    /// space) replays against exactly the state it saw live. The txn's
    /// Begin record is guaranteed present — every undo op stems from a
    /// logged forward op.
    fn apply_undo(&self, txn: TxnId, op: UndoOp) -> Result<()> {
        match op {
            UndoOp::UndoInsert { page, slot } => {
                self.store
                    .with_page_mut(page, |p| {
                        let before = p.read(slot).map(<[u8]>::to_vec).unwrap_or_default();
                        p.delete(slot).map(|()| {
                            let lsn = match &self.wal {
                                Some(wal) => wal.append(&LogRecord::CellDelete {
                                    txn: txn.0,
                                    page,
                                    slot,
                                    before,
                                }),
                                None => self.bump_lsn(),
                            };
                            p.set_lsn(lsn);
                        })
                    })?
                    .map_err(|e| StorageError::Corrupt(format!("undo insert failed: {e:?}")))?;
                self.note_space(page)?;
            }
            UndoOp::UndoUpdate { page, slot, before } => {
                let outcome = self.store.with_page_mut(page, |p| {
                    let prior = p.read(slot).map(<[u8]>::to_vec).unwrap_or_default();
                    p.update(slot, &before).map(|()| {
                        let lsn = match &self.wal {
                            Some(wal) => wal.append(&LogRecord::CellUpdate {
                                txn: txn.0,
                                page,
                                slot,
                                data: before.clone(),
                                before: prior,
                            }),
                            None => self.bump_lsn(),
                        };
                        p.set_lsn(lsn);
                    })
                })?;
                match outcome {
                    Ok(()) => {}
                    Err(PageOpError::Full) => {
                        self.undo_restore_moved(txn, Oid::new(page, slot), &before, true)?;
                    }
                    Err(e) => {
                        return Err(StorageError::Corrupt(format!("undo update failed: {e:?}")));
                    }
                }
                self.note_space(page)?;
            }
            UndoOp::UndoDelete { page, slot, before } => {
                let outcome = self.store.with_page_mut(page, |p| {
                    p.insert_at(slot, &before).map(|()| {
                        let lsn = match &self.wal {
                            Some(wal) => wal.append(&LogRecord::CellInsert {
                                txn: txn.0,
                                page,
                                slot,
                                data: before.clone(),
                            }),
                            None => self.bump_lsn(),
                        };
                        p.set_lsn(lsn);
                    })
                })?;
                match outcome {
                    Ok(()) => {}
                    Err(PageOpError::Full) => {
                        self.undo_restore_moved(txn, Oid::new(page, slot), &before, false)?;
                    }
                    Err(e) => {
                        return Err(StorageError::Corrupt(format!("undo delete failed: {e:?}")));
                    }
                }
                self.note_space(page)?;
            }
        }
        Ok(())
    }

    /// Undo fallback for when the before-image no longer fits at its
    /// original location: pages are shared between transactions, so the
    /// space an update or delete freed may have been claimed by a
    /// concurrent insert before this transaction aborted (or, for a loser
    /// rolled back at recovery, by a transaction that committed before
    /// the crash). The image is
    /// placed on another page of the same cluster and a forward stub left
    /// at the original slot — the same relocation a growing update uses —
    /// keeping the object's Oid and committed value intact.
    ///
    /// Only primary cells can relocate; secondary cells (overflow chunks,
    /// already-moved targets) are anchored by pointers that cannot be
    /// rewritten here, so those fail and surface through [`Storage::abort`]
    /// as a corruption error after lock release.
    fn undo_restore_moved(
        &self,
        txn: TxnId,
        oid: Oid,
        before: &[u8],
        occupied: bool,
    ) -> Result<()> {
        let mut relocated = before.to_vec();
        match before.first() {
            Some(&TAG_DATA) => relocated[0] = TAG_MOVED_DATA,
            Some(&TAG_OVF_HEAD) => relocated[0] = TAG_MOVED_OVF_HEAD,
            tag => {
                return Err(StorageError::Corrupt(format!(
                    "undo restore at {oid} cannot relocate cell with tag {tag:?}"
                )));
            }
        }
        let cluster = self.cluster_of(oid.page())?;
        let target = self.raw_insert(txn, cluster, &relocated, false)?;
        let mut stub = Vec::with_capacity(7);
        stub.push(TAG_FORWARD);
        stub.extend_from_slice(&encode_to_vec(&target));
        if occupied {
            if !self.raw_update(txn, oid, &stub)? {
                return Err(StorageError::Corrupt(format!(
                    "undo forward stub did not fit at {oid}"
                )));
            }
        } else {
            self.store
                .with_page_mut(oid.page(), |p| {
                    p.insert_at(oid.slot(), &stub).map(|()| {
                        let lsn = match &self.wal {
                            Some(wal) => wal.append(&LogRecord::CellInsert {
                                txn: txn.0,
                                page: oid.page(),
                                slot: oid.slot(),
                                data: stub.clone(),
                            }),
                            None => self.bump_lsn(),
                        };
                        p.set_lsn(lsn);
                    })
                })?
                .map_err(|e| StorageError::Corrupt(format!("undo stub insert failed: {e:?}")))?;
        }
        Ok(())
    }

    /// Which allocator shard a page belongs to (fixed by its id).
    fn alloc_shard_of(&self, page: PageId) -> usize {
        (page as usize) & self.alloc_mask
    }

    /// Lock one allocator shard, counting contended acquisitions.
    fn lock_alloc_shard(&self, idx: usize) -> parking_lot::MutexGuard<'_, AllocShard> {
        match self.alloc_shards[idx].try_lock() {
            Some(guard) => guard,
            None => {
                self.metrics.alloc_shard_contention.inc();
                let started = std::time::Instant::now();
                let guard = self.alloc_shards[idx].lock();
                self.metrics
                    .shard_acquire_nanos
                    .record(started.elapsed().as_nanos() as u64);
                guard
            }
        }
    }

    /// Lock the cold-path global allocation directory, counting contended
    /// acquisitions (same family as the shards — it is part of the
    /// allocator's serialization budget).
    fn lock_alloc_global(&self) -> parking_lot::MutexGuard<'_, AllocGlobal> {
        match self.alloc_global.try_lock() {
            Some(guard) => guard,
            None => {
                self.metrics.alloc_shard_contention.inc();
                let started = std::time::Instant::now();
                let guard = self.alloc_global.lock();
                self.metrics
                    .shard_acquire_nanos
                    .record(started.elapsed().as_nanos() as u64);
                guard
            }
        }
    }

    /// Each thread starts its shard probes at its own offset so concurrent
    /// allocators spread across shards (and thus across page latches)
    /// instead of all fighting over the same "best" page.
    fn preferred_alloc_shard(&self) -> usize {
        use std::cell::Cell;
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static PREFERRED: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        PREFERRED.with(|c| {
            if c.get() == usize::MAX {
                c.set(NEXT.fetch_add(1, Ordering::Relaxed));
            }
            c.get()
        }) & self.alloc_mask
    }

    /// Refresh a page's entry in the with-space directory.
    fn note_space(&self, page: PageId) -> Result<()> {
        let (cluster, free) = self
            .store
            .with_page(page, |p| (p.cluster(), p.usable_free()))?;
        if cluster == UNASSIGNED_CLUSTER {
            return Ok(());
        }
        let mut shard = self.lock_alloc_shard(self.alloc_shard_of(page));
        let set = shard.with_space.entry(cluster).or_default();
        if free >= SPACE_THRESHOLD {
            set.insert(page, usize::MAX);
        } else {
            set.remove(&page);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw cell operations (logged + undoable)
    // ------------------------------------------------------------------

    fn bump_lsn(&self) -> u64 {
        self.next_lsn.fetch_add(1, Ordering::Relaxed)
    }

    /// Pick (or create) a page of `cluster` that can hold `len` bytes.
    /// Probes allocator shards round-robin from a per-thread offset; only
    /// falls through to the global growth path when no shard has a usable
    /// page.
    fn pick_page(&self, txn: TxnId, cluster: ClusterId, len: usize) -> Result<PageId> {
        let start = self.preferred_alloc_shard();
        for i in 0..self.alloc_shards.len() {
            let idx = (start + i) & self.alloc_mask;
            let mut shard = self.lock_alloc_shard(idx);
            if let Some(set) = shard.with_space.get_mut(&cluster) {
                // Newest pages first: they are most likely to fit. A page
                // already too full for a cell this long is skipped
                // unread, so a cluster of nearly full pages costs one
                // probe each, not one per insert.
                for (&candidate, too_full_for) in set.iter_mut().rev() {
                    if len >= *too_full_for {
                        continue;
                    }
                    if self.store.with_page(candidate, |p| p.can_insert(len))? {
                        return Ok(candidate);
                    }
                    *too_full_for = len;
                }
            }
        }
        // Reuse an unassigned page from any shard...
        let mut page = None;
        for i in 0..self.alloc_shards.len() {
            let idx = (start + i) & self.alloc_mask;
            if let Some(p) = self.lock_alloc_shard(idx).unassigned.pop_first() {
                page = Some(p);
                break;
            }
        }
        // ...or grow the store by a small batch, keeping the first page
        // and parking the rest as unassigned in their shards so the next
        // few allocations skip the growth path (the shards' refill).
        let page = match page {
            Some(p) => p,
            None => {
                let p = self.store.allocate_page()?;
                for _ in 1..ALLOC_REFILL_BATCH {
                    let extra = self.store.allocate_page()?;
                    self.lock_alloc_shard(self.alloc_shard_of(extra))
                        .unassigned
                        .insert(extra);
                }
                p
            }
        };
        // Begin must be logged before the latch; the PageAlloc record is
        // appended *under* it so log order matches mutation order and the
        // page LSN carries the record's exact end (steal/redo gating).
        self.wal_begin(txn)?;
        self.store.with_page_mut(page, |p| {
            p.set_cluster(cluster);
            let lsn = match &self.wal {
                Some(wal) => wal.append(&LogRecord::PageAlloc {
                    txn: txn.0,
                    page,
                    cluster,
                }),
                None => self.bump_lsn(),
            };
            p.set_lsn(lsn);
        })?;
        self.lock_alloc_global()
            .cluster_pages
            .entry(cluster)
            .or_default()
            .insert(page);
        self.lock_alloc_shard(self.alloc_shard_of(page))
            .with_space
            .entry(cluster)
            .or_default()
            .insert(page, usize::MAX);
        Ok(page)
    }

    /// `track` marks the insert of a *primary* cell: the new Oid is
    /// registered in the version store from inside the page latch, before
    /// any snapshot reader falling back to the pages could observe the
    /// uncommitted cell. Secondary cells (overflow chunks, moved targets)
    /// are unreachable until their primary publishes them, so they stay
    /// untracked.
    fn raw_insert(&self, txn: TxnId, cluster: ClusterId, cell: &[u8], track: bool) -> Result<Oid> {
        if cell.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge(cell.len()));
        }
        loop {
            let page = self.pick_page(txn, cluster, cell.len())?;
            self.wal_begin(txn)?;
            let outcome = self.store.with_page_mut(page, |p| {
                let r = p.insert(cell);
                if let Ok(slot) = r {
                    let lsn = match &self.wal {
                        Some(wal) => wal.append(&LogRecord::CellInsert {
                            txn: txn.0,
                            page,
                            slot,
                            data: cell.to_vec(),
                        }),
                        None => self.bump_lsn(),
                    };
                    p.set_lsn(lsn);
                    if track {
                        self.versions
                            .note_insert(Oid::new(page, slot).to_u64(), cluster, txn);
                    }
                }
                r
            })?;
            match outcome {
                Ok(slot) => {
                    let oid = Oid::new(page, slot);
                    self.txns
                        .push_undo(txn, UndoOp::UndoInsert { page, slot })?;
                    self.note_space(page)?;
                    return Ok(oid);
                }
                Err(PageOpError::Full) => {
                    // Raced with a concurrent insert; demote and retry.
                    self.note_space(page)?;
                    continue;
                }
                Err(e) => {
                    return Err(StorageError::Corrupt(format!("insert failed: {e:?}")));
                }
            }
        }
    }

    /// Try to overwrite the cell at `oid`; Ok(false) when it does not fit.
    fn raw_update(&self, txn: TxnId, oid: Oid, cell: &[u8]) -> Result<bool> {
        if cell.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge(cell.len()));
        }
        self.wal_begin(txn)?;
        let outcome = self.store.with_page_mut(oid.page(), |p| {
            let before = p.read(oid.slot()).map(<[u8]>::to_vec);
            let Some(before) = before else {
                return Err(StorageError::NoSuchObject(oid));
            };
            match p.update(oid.slot(), cell) {
                Ok(()) => {
                    let lsn = match &self.wal {
                        Some(wal) => wal.append(&LogRecord::CellUpdate {
                            txn: txn.0,
                            page: oid.page(),
                            slot: oid.slot(),
                            data: cell.to_vec(),
                            before: before.clone(),
                        }),
                        None => self.bump_lsn(),
                    };
                    p.set_lsn(lsn);
                    Ok(Some(before))
                }
                Err(PageOpError::Full) => Ok(None),
                Err(e) => Err(StorageError::Corrupt(format!("update failed: {e:?}"))),
            }
        })??;
        match outcome {
            Some(before) => {
                self.txns.push_undo(
                    txn,
                    UndoOp::UndoUpdate {
                        page: oid.page(),
                        slot: oid.slot(),
                        before,
                    },
                )?;
                self.note_space(oid.page())?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Delete a cell — in two phases. The cell is tombstoned in place here
    /// (same slot, same length, so the undo is an in-place tag restore that
    /// cannot fail) and physically removed only when the transaction
    /// commits. The WAL mirrors both phases so recovery repeats history
    /// exactly: the tombstoning is logged as a CellUpdate here, and
    /// `commit_deferred` logs the physical CellDelete just ahead of the
    /// Commit record.
    fn raw_delete(&self, txn: TxnId, oid: Oid) -> Result<()> {
        self.wal_begin(txn)?;
        let before = self.store.with_page_mut(oid.page(), |p| {
            let before = p.read(oid.slot()).map(<[u8]>::to_vec);
            let Some(before) = before else {
                return Err(StorageError::NoSuchObject(oid));
            };
            if before.first() == Some(&TAG_TOMBSTONE) {
                return Err(StorageError::NoSuchObject(oid));
            }
            let mut tomb = before.clone();
            tomb[0] = TAG_TOMBSTONE;
            p.update(oid.slot(), &tomb)
                .map_err(|e| StorageError::Corrupt(format!("delete failed: {e:?}")))?;
            let lsn = match &self.wal {
                Some(wal) => wal.append(&LogRecord::CellUpdate {
                    txn: txn.0,
                    page: oid.page(),
                    slot: oid.slot(),
                    data: tomb,
                    before: before.clone(),
                }),
                None => self.bump_lsn(),
            };
            p.set_lsn(lsn);
            Ok(before)
        })??;
        self.txns.push_undo(
            txn,
            UndoOp::UndoUpdate {
                page: oid.page(),
                slot: oid.slot(),
                before,
            },
        )?;
        self.txns.note_pending_delete(txn, oid)?;
        Ok(())
    }

    fn raw_read(&self, oid: Oid) -> Result<Vec<u8>> {
        self.store.with_page(oid.page(), |p| {
            p.read(oid.slot())
                .map(<[u8]>::to_vec)
                .ok_or(StorageError::NoSuchObject(oid))
        })?
    }

    // ------------------------------------------------------------------
    // Record representation helpers
    // ------------------------------------------------------------------

    fn cluster_of(&self, page: PageId) -> Result<ClusterId> {
        self.store.with_page(page, |p| p.cluster())
    }

    /// Build the primary cell for `data`, allocating overflow chunks when
    /// needed. `moved` selects the forward-target tag variants.
    fn build_cell(
        &self,
        txn: TxnId,
        cluster: ClusterId,
        data: &[u8],
        moved: bool,
    ) -> Result<Vec<u8>> {
        if data.len() <= MAX_INLINE {
            let mut cell = Vec::with_capacity(1 + data.len());
            cell.push(if moved { TAG_MOVED_DATA } else { TAG_DATA });
            cell.extend_from_slice(data);
            return Ok(cell);
        }
        // Overflow: slice into chunks of MAX_INLINE bytes.
        let mut chunk_oids = Vec::new();
        for chunk in data.chunks(MAX_INLINE) {
            let mut cell = Vec::with_capacity(1 + chunk.len());
            cell.push(TAG_OVF_CHUNK);
            cell.extend_from_slice(chunk);
            chunk_oids.push(self.raw_insert(txn, cluster, &cell, false)?);
        }
        let mut head = BytesMut::new();
        head.put_u8(if moved {
            TAG_MOVED_OVF_HEAD
        } else {
            TAG_OVF_HEAD
        });
        head.put_u32_le(data.len() as u32);
        chunk_oids.encode(&mut head);
        let head = head.to_vec();
        if head.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        Ok(head)
    }

    /// Decode an overflow head cell into (total_len, chunk oids).
    fn decode_ovf_head(cell: &[u8]) -> Result<(usize, Vec<Oid>)> {
        let mut buf = &cell[1..];
        let total = u32::decode(&mut buf)? as usize;
        let chunks = Vec::<Oid>::decode(&mut buf)?;
        Ok((total, chunks))
    }

    /// Free any secondary storage referenced by a primary/moved cell.
    fn free_secondary(&self, txn: TxnId, cell: &[u8]) -> Result<()> {
        match cell.first() {
            Some(&TAG_OVF_HEAD) | Some(&TAG_MOVED_OVF_HEAD) => {
                let (_, chunks) = Self::decode_ovf_head(cell)?;
                for chunk in chunks {
                    self.raw_delete(txn, chunk)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Resolve `oid` to the physical location of its current data cell and
    /// return that cell's bytes.
    fn resolve(&self, oid: Oid) -> Result<(Oid, Vec<u8>)> {
        let cell = self.raw_read(oid)?;
        match cell.first() {
            Some(&TAG_FORWARD) => {
                let target: Oid = decode_all(&cell[1..])?;
                let cell = self.raw_read(target)?;
                match cell.first() {
                    Some(&TAG_MOVED_DATA) | Some(&TAG_MOVED_OVF_HEAD) => Ok((target, cell)),
                    Some(&TAG_TOMBSTONE) => Err(StorageError::NoSuchObject(oid)),
                    _ => Err(StorageError::Corrupt(format!(
                        "forward stub at {oid} points at a non-moved cell"
                    ))),
                }
            }
            Some(&TAG_DATA) | Some(&TAG_OVF_HEAD) => Ok((oid, cell)),
            // Deleted by a still-active transaction: logically gone.
            Some(&TAG_TOMBSTONE) => Err(StorageError::NoSuchObject(oid)),
            Some(&TAG_MOVED_DATA) | Some(&TAG_MOVED_OVF_HEAD) | Some(&TAG_OVF_CHUNK) => Err(
                StorageError::Corrupt(format!("oid {oid} addresses a secondary cell")),
            ),
            _ => Err(StorageError::Corrupt(format!("empty cell at {oid}"))),
        }
    }

    /// The data bytes of a primary or moved cell, reassembling an
    /// overflow chain (every chunk's length is checked against the head).
    fn cell_data(&self, cell: &[u8]) -> Result<Vec<u8>> {
        match cell.first() {
            Some(&TAG_DATA) | Some(&TAG_MOVED_DATA) => Ok(cell[1..].to_vec()),
            Some(&TAG_OVF_HEAD) | Some(&TAG_MOVED_OVF_HEAD) => {
                let (total, chunks) = Self::decode_ovf_head(cell)?;
                let mismatch = || StorageError::Corrupt("overflow chain length mismatch".into());
                if chunks.len() != total.div_ceil(MAX_INLINE) {
                    return Err(mismatch());
                }
                let mut out = Vec::with_capacity(total);
                for (i, &chunk_oid) in chunks.iter().enumerate() {
                    let chunk = self.raw_read(chunk_oid)?;
                    if chunk.first() != Some(&TAG_OVF_CHUNK) {
                        return Err(StorageError::Corrupt(format!(
                            "expected overflow chunk at {chunk_oid}"
                        )));
                    }
                    if chunk.len() - 1 != (total - i * MAX_INLINE).min(MAX_INLINE) {
                        return Err(mismatch());
                    }
                    out.extend_from_slice(&chunk[1..]);
                }
                Ok(out)
            }
            _ => Err(StorageError::Corrupt("unexpected cell tag".into())),
        }
    }

    // ------------------------------------------------------------------
    // Public object operations
    // ------------------------------------------------------------------

    /// Allocate a new persistent object (`pnew`). Returns its stable Oid.
    pub fn allocate(&self, txn: TxnId, cluster: ClusterId, data: &[u8]) -> Result<Oid> {
        self.require_writer(txn)?;
        let cell = self.build_cell(txn, cluster, data, false)?;
        let oid = self.raw_insert(txn, cluster, &cell, true)?;
        self.txns.track_dirty(txn, oid.to_u64())?;
        self.locks
            .lock(txn, LockKey::Object(oid.to_u64()), LockMode::Exclusive)?;
        Ok(oid)
    }

    /// Read an object's bytes. Snapshot transactions are served at their
    /// registered commit sequence without any lock-manager locks; 2PL
    /// transactions take a shared lock as before.
    pub fn read(&self, txn: TxnId, oid: Oid) -> Result<Vec<u8>> {
        if let Some(s) = self.txns.active_snapshot(txn)? {
            self.metrics.snapshot_reads.inc();
            return self
                .snapshot_lookup(s, oid)?
                .ok_or(StorageError::NoSuchObject(oid));
        }
        self.locks
            .lock(txn, LockKey::Object(oid.to_u64()), LockMode::Shared)?;
        let (_, cell) = self.resolve(oid)?;
        self.cell_data(&cell)
    }

    /// Take the exclusive lock a write of `oid` would take, without
    /// writing — the S→X upgrade of [`Storage::update`] on its own. Used
    /// when a commit owes §6's write lock on a record whose bytes it
    /// leaves unchanged: no WAL record, no version, no dirty page.
    pub fn lock_exclusive(&self, txn: TxnId, oid: Oid) -> Result<()> {
        self.require_writer(txn)?;
        self.locks
            .lock(txn, LockKey::Object(oid.to_u64()), LockMode::Exclusive)
    }

    /// Serve one object read at snapshot `s` (no lock-manager locks).
    ///
    /// The chain answers directly when the object is tracked. Untracked
    /// objects are read from the pages (per-page latches only) and the
    /// chain is *re-checked*: absence on both sides of the page read
    /// proves no writer mutated the object inside the window — every
    /// mutation path registers its chain entry before its first page
    /// write, and entries are never reclaimed while any snapshot (ours
    /// included) is registered. If an entry appeared, the page bytes may
    /// be torn mid-mutation, so the result — errors included — is
    /// discarded and the read retries through the chain.
    fn snapshot_lookup(&self, s: u64, oid: Oid) -> Result<Option<Vec<u8>>> {
        loop {
            match self.versions.visible(oid.to_u64(), s) {
                SnapshotLookup::Value(data) => return Ok(Some(data.to_vec())),
                SnapshotLookup::Deleted => return Ok(None),
                SnapshotLookup::Untracked => {}
            }
            let fallback = match self.resolve(oid) {
                Ok((_, cell)) => self.cell_data(&cell).map(Some),
                Err(StorageError::NoSuchObject(_)) => Ok(None),
                Err(e) => Err(e),
            };
            if matches!(
                self.versions.visible(oid.to_u64(), s),
                SnapshotLookup::Untracked
            ) {
                return fallback;
            }
        }
    }

    /// Overwrite an object's bytes (exclusive lock). The Oid stays valid
    /// even when the record has to move to another page.
    pub fn update(&self, txn: TxnId, oid: Oid, data: &[u8]) -> Result<()> {
        self.require_writer(txn)?;
        self.locks
            .lock(txn, LockKey::Object(oid.to_u64()), LockMode::Exclusive)?;
        self.update_unlocked(txn, oid, data)
    }

    /// The update machinery without object locking (roots updates hold the
    /// dedicated Roots lock instead).
    fn update_unlocked(&self, txn: TxnId, oid: Oid, data: &[u8]) -> Result<()> {
        let (phys, old_cell) = self.resolve(oid)?;
        let cluster = self.cluster_of(oid.page())?;
        // First touch of this object: seed its committed value into the
        // version store before any page mutation. The X lock (or Roots
        // lock) is already held, so the cell just resolved *is* the
        // committed value — no other writer can be mid-flight on it.
        if self.txns.track_dirty(txn, oid.to_u64())? {
            self.versions
                .seed(oid.to_u64(), cluster, txn, self.cell_data(&old_cell)?);
        }
        // Free old overflow chunks first so their space is reusable.
        self.free_secondary(txn, &old_cell)?;
        let moved = phys != oid;
        let new_cell = self.build_cell(txn, cluster, data, moved)?;
        if self.raw_update(txn, phys, &new_cell)? {
            return Ok(());
        }
        // Did not fit where it was: place elsewhere and (re)point the stub.
        let target_cell = self.build_cell(txn, cluster, data, true)?;
        let target = self.raw_insert(txn, cluster, &target_cell, false)?;
        let mut stub = Vec::with_capacity(7);
        stub.push(TAG_FORWARD);
        stub.extend_from_slice(&encode_to_vec(&target));
        if !self.raw_update(txn, oid, &stub)? {
            // Every live cell holds at least a stub's worth of page space
            // (`page::MIN_CELL`), so this fits even on a full page.
            return Err(StorageError::Corrupt(format!(
                "forward stub did not fit at {oid}"
            )));
        }
        if moved {
            // The record had already been moved once; free the old copy.
            self.raw_delete(txn, phys)?;
        }
        Ok(())
    }

    /// Delete an object (`pdelete`).
    pub fn free(&self, txn: TxnId, oid: Oid) -> Result<()> {
        self.require_writer(txn)?;
        self.locks
            .lock(txn, LockKey::Object(oid.to_u64()), LockMode::Exclusive)?;
        let (phys, cell) = self.resolve(oid)?;
        // Seed the committed value before tombstoning (first touch only).
        if self.txns.track_dirty(txn, oid.to_u64())? {
            let cluster = self.cluster_of(oid.page())?;
            self.versions
                .seed(oid.to_u64(), cluster, txn, self.cell_data(&cell)?);
        }
        self.free_secondary(txn, &cell)?;
        self.raw_delete(txn, phys)?;
        if phys != oid {
            self.raw_delete(txn, oid)?;
        }
        Ok(())
    }

    /// Does the object exist? (Shared lock; lock-free for snapshots.)
    pub fn exists(&self, txn: TxnId, oid: Oid) -> Result<bool> {
        if let Some(s) = self.txns.active_snapshot(txn)? {
            self.metrics.snapshot_reads.inc();
            return Ok(self.snapshot_lookup(s, oid)?.is_some());
        }
        self.locks
            .lock(txn, LockKey::Object(oid.to_u64()), LockMode::Shared)?;
        match self.resolve(oid) {
            Ok(_) => Ok(true),
            Err(StorageError::NoSuchObject(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// All object Oids in a cluster (O++'s `for x in cluster` iteration).
    /// Objects are reported under their stable primary Oids.
    pub fn scan_cluster(&self, txn: TxnId, cluster: ClusterId) -> Result<Vec<Oid>> {
        if let Some(s) = self.txns.active_snapshot(txn)? {
            return self.snapshot_scan(s, cluster);
        }
        self.locks
            .lock(txn, LockKey::Cluster(cluster), LockMode::Shared)?;
        let mut oids = Vec::new();
        for page in self.cluster_page_list(cluster) {
            self.store.with_page(page, |p| {
                for (slot, cell) in p.occupied_cells() {
                    match cell.first() {
                        Some(&TAG_DATA) | Some(&TAG_FORWARD) | Some(&TAG_OVF_HEAD) => {
                            oids.push(Oid::new(page, slot));
                        }
                        _ => {}
                    }
                }
            })?;
        }
        Ok(oids)
    }

    /// The pages currently assigned to `cluster` (allocator's view).
    fn cluster_page_list(&self, cluster: ClusterId) -> Vec<PageId> {
        let global = self.lock_alloc_global();
        global
            .cluster_pages
            .get(&cluster)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Cluster scan at snapshot `s` — no cluster lock, no object locks.
    ///
    /// Candidates come from two sides: page enumeration of primary cells
    /// (which may include uncommitted inserts and miss objects whose cells
    /// were purged after the snapshot began) and the version chains'
    /// member list (which covers the purged ones). Every candidate is then
    /// filtered through [`Storage::snapshot_lookup`], whose fallback
    /// protocol rejects anything not committed at the snapshot.
    fn snapshot_scan(&self, s: u64, cluster: ClusterId) -> Result<Vec<Oid>> {
        self.metrics.snapshot_reads.inc();
        let mut candidates: BTreeSet<Oid> = BTreeSet::new();
        for page in self.cluster_page_list(cluster) {
            self.store.with_page(page, |p| {
                for (slot, cell) in p.occupied_cells() {
                    match cell.first() {
                        Some(&TAG_DATA) | Some(&TAG_FORWARD) | Some(&TAG_OVF_HEAD) => {
                            candidates.insert(Oid::new(page, slot));
                        }
                        _ => {}
                    }
                }
            })?;
        }
        for oid in self.versions.cluster_members(cluster, s) {
            candidates.insert(Oid::from_u64(oid));
        }
        let mut oids = Vec::with_capacity(candidates.len());
        for oid in candidates {
            if self.snapshot_lookup(s, oid)?.is_some() {
                oids.push(oid);
            }
        }
        Ok(oids)
    }

    // ------------------------------------------------------------------
    // Roots and clusters
    // ------------------------------------------------------------------

    fn read_roots(&self) -> Result<RootsRecord> {
        let (_, cell) = self.resolve(ROOTS_OID)?;
        decode_all(&self.cell_data(&cell)?)
    }

    fn write_roots(&self, txn: TxnId, record: &RootsRecord) -> Result<()> {
        self.update_unlocked(txn, ROOTS_OID, &encode_to_vec(record))
    }

    /// Allocate a fresh cluster id (persisted in the roots record).
    pub fn create_cluster(&self, txn: TxnId) -> Result<ClusterId> {
        self.require_writer(txn)?;
        self.locks.lock(txn, LockKey::Roots, LockMode::Exclusive)?;
        let mut record = self.read_roots()?;
        let id = record.next_cluster;
        record.next_cluster += 1;
        self.write_roots(txn, &record)?;
        Ok(id)
    }

    /// Look up a named root. Snapshot transactions decode the roots record
    /// via the version store — no Roots lock.
    pub fn get_root(&self, txn: TxnId, name: &str) -> Result<Oid> {
        let record = if let Some(s) = self.txns.active_snapshot(txn)? {
            self.metrics.snapshot_reads.inc();
            let data = self
                .snapshot_lookup(s, ROOTS_OID)?
                .ok_or_else(|| StorageError::Corrupt("roots record missing".into()))?;
            decode_all::<RootsRecord>(&data)?
        } else {
            self.locks.lock(txn, LockKey::Roots, LockMode::Shared)?;
            self.read_roots()?
        };
        record
            .roots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, oid)| *oid)
            .ok_or_else(|| StorageError::NoSuchRoot(name.to_string()))
    }

    /// Create or replace a named root.
    pub fn set_root(&self, txn: TxnId, name: &str, oid: Oid) -> Result<()> {
        self.require_writer(txn)?;
        self.locks.lock(txn, LockKey::Roots, LockMode::Exclusive)?;
        let mut record = self.read_roots()?;
        match record.roots.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = oid,
            None => record.roots.push((name.to_string(), oid)),
        }
        self.write_roots(txn, &record)
    }

    /// Remove a named root (missing names are fine).
    pub fn del_root(&self, txn: TxnId, name: &str) -> Result<()> {
        self.require_writer(txn)?;
        self.locks.lock(txn, LockKey::Roots, LockMode::Exclusive)?;
        let mut record = self.read_roots()?;
        record.roots.retain(|(n, _)| n != name);
        self.write_roots(txn, &record)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Lock-manager counters (experiment E4).
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Reset lock counters.
    pub fn reset_lock_stats(&self) {
        self.locks.reset_stats()
    }

    /// Buffer pool statistics (disk engine; None for memory).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.store {
            Store::Disk(pool) => Some(pool.stats()),
            Store::Mem(_) => None,
        }
    }

    /// Engine kind in use.
    pub fn engine(&self) -> EngineKind {
        self.options.engine
    }

    /// Total pages (including header/reserved page 0).
    pub fn page_count(&self) -> u32 {
        self.store.page_count()
    }

    /// Direct access to the lock manager (the object layer adds its own
    /// lock protocols for trigger descriptors).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// Direct access to the transaction registry.
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txns
    }

    /// The WAL durability watermark, if a WAL is present. Every commit
    /// whose ticket LSN is `<=` this value is durable.
    pub fn wal_flushed_lsn(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.flushed_lsn())
    }

    /// Current on-disk size of the WAL file in bytes (None without a
    /// WAL). Shrinks when a fuzzy checkpoint truncates the prefix — the
    /// steady-state log-size signal the larger-than-RAM bench watches.
    pub fn wal_file_len(&self) -> Option<u64> {
        self.wal.as_ref().and_then(|w| w.file_len().ok())
    }

    /// Total buffer pool frame capacity (disk engine; None for memory).
    /// Once steal is enabled (a WAL is attached) resident pages never
    /// exceed this bound, whatever the working-set size.
    pub fn pool_capacity(&self) -> Option<usize> {
        match &self.store {
            Store::Disk(pool) => Some(pool.capacity()),
            Store::Mem(_) => None,
        }
    }

    /// Per-shard buffer pool statistics (disk engine; None for memory).
    pub fn pool_shard_stats(&self) -> Option<Vec<crate::buffer::ShardStats>> {
        match &self.store {
            Store::Disk(pool) => Some(pool.shard_stats()),
            Store::Mem(_) => None,
        }
    }

    /// Shape of the MVCC version store: live chain entries, retained
    /// versions, the published commit sequence, and registered snapshots.
    pub fn version_stats(&self) -> VersionStats {
        self.versions.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_testutil::TempDir;

    fn disk_storage(dir: &TempDir) -> Storage {
        Storage::create(dir.path(), StorageOptions::default()).unwrap()
    }

    #[test]
    fn allocate_read_roundtrip_volatile() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"payload").unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"payload");
        s.commit(t).unwrap();
        let t2 = s.begin().unwrap();
        assert_eq!(s.read(t2, oid).unwrap(), b"payload");
        s.commit(t2).unwrap();
    }

    #[test]
    fn update_and_free() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"v1").unwrap();
        s.update(t, oid, b"v2 is longer").unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"v2 is longer");
        s.free(t, oid).unwrap();
        assert!(matches!(s.read(t, oid), Err(StorageError::NoSuchObject(_))));
        s.commit(t).unwrap();
    }

    #[test]
    fn abort_rolls_back_everything() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let keep = s.allocate(t, c, b"keep").unwrap();
        s.commit(t).unwrap();

        let t = s.begin().unwrap();
        let gone = s.allocate(t, c, b"gone").unwrap();
        s.update(t, keep, b"dirty").unwrap();
        s.abort(t).unwrap();

        let t = s.begin().unwrap();
        assert_eq!(s.read(t, keep).unwrap(), b"keep");
        assert!(matches!(
            s.read(t, gone),
            Err(StorageError::NoSuchObject(_))
        ));
        s.commit(t).unwrap();
    }

    #[test]
    fn abort_restores_when_freed_space_was_claimed() {
        // Pages are shared between transactions: the space one
        // transaction's shrinking update frees can be claimed by another
        // transaction's insert before the first one aborts. The undo of
        // the shrink then no longer fits in place and must relocate the
        // before-image behind a forward stub — and, regression: it must
        // never bail out of abort with the locks still held.
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let big = vec![7u8; 3000];
        let a = s.allocate(t, c, &big).unwrap();
        s.commit(t).unwrap();

        // Shrink `a`, freeing ~3KB on its page, but do not commit.
        let t1 = s.begin().unwrap();
        s.update(t1, a, b"tiny").unwrap();

        // A concurrent transaction claims most of the freed space.
        let t2 = s.begin().unwrap();
        let b = s.allocate(t2, c, &vec![8u8; 2500]).unwrap();
        s.commit(t2).unwrap();

        // The in-place grow-back is now impossible; abort must still
        // restore the committed value (relocated) and release all locks.
        s.abort(t1).unwrap();

        let t3 = s.begin().unwrap();
        assert_eq!(s.read(t3, a).unwrap(), big);
        assert_eq!(s.read(t3, b).unwrap(), vec![8u8; 2500]);
        // The exclusive lock t1 held on `a` must be gone: this would
        // otherwise block for the full lock timeout and fail.
        s.update(t3, a, b"writable again").unwrap();
        assert_eq!(s.read(t3, a).unwrap(), b"writable again");
        s.commit(t3).unwrap();
    }

    #[test]
    fn forwarding_keeps_oid_stable() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        // Fill a page almost completely so growth forces relocation.
        let oid = s.allocate(t, c, &[1u8; 100]).unwrap();
        let mut fillers = Vec::new();
        for _ in 0..38 {
            fillers.push(s.allocate(t, c, &[2u8; 90]).unwrap());
        }
        // Grow the first record far past the remaining space on its page.
        let big = vec![3u8; 2000];
        s.update(t, oid, &big).unwrap();
        assert_eq!(s.read(t, oid).unwrap(), big);
        // Grow it again (already forwarded): stub must be re-pointed.
        let bigger = vec![4u8; 3000];
        s.update(t, oid, &bigger).unwrap();
        assert_eq!(s.read(t, oid).unwrap(), bigger);
        // Shrink it back; still readable through the same Oid.
        s.update(t, oid, b"small again").unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"small again");
        for f in fillers {
            assert_eq!(s.read(t, f).unwrap(), vec![2u8; 90]);
        }
        s.commit(t).unwrap();
    }

    #[test]
    fn large_objects_overflow() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let oid = s.allocate(t, c, &data).unwrap();
        assert_eq!(s.read(t, oid).unwrap(), data);
        // Update large -> larger.
        let data2: Vec<u8> = (0..30_000u32).map(|i| (i % 13) as u8).collect();
        s.update(t, oid, &data2).unwrap();
        assert_eq!(s.read(t, oid).unwrap(), data2);
        // Update large -> small inline.
        s.update(t, oid, b"tiny").unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"tiny");
        s.free(t, oid).unwrap();
        s.commit(t).unwrap();
    }

    #[test]
    fn scan_cluster_lists_primaries_once() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let mut expected = Vec::new();
        for i in 0..50u32 {
            expected.push(s.allocate(t, c, &i.to_le_bytes()).unwrap());
        }
        // Force one object to move (forwarding) and one to overflow.
        s.update(t, expected[0], &vec![9u8; 3000]).unwrap();
        s.update(t, expected[1], &vec![8u8; 9000]).unwrap();
        let mut scanned = s.scan_cluster(t, c).unwrap();
        scanned.sort();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();
        assert_eq!(scanned, expected_sorted);
        s.commit(t).unwrap();
    }

    #[test]
    fn scan_does_not_cross_clusters() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c1 = s.create_cluster(t).unwrap();
        let c2 = s.create_cluster(t).unwrap();
        s.allocate(t, c1, b"one").unwrap();
        s.allocate(t, c2, b"two").unwrap();
        assert_eq!(s.scan_cluster(t, c1).unwrap().len(), 1);
        assert_eq!(s.scan_cluster(t, c2).unwrap().len(), 1);
        s.commit(t).unwrap();
    }

    #[test]
    fn roots_roundtrip() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"rooted").unwrap();
        s.set_root(t, "main", oid).unwrap();
        assert_eq!(s.get_root(t, "main").unwrap(), oid);
        s.set_root(t, "main", ROOTS_OID).unwrap();
        assert_eq!(s.get_root(t, "main").unwrap(), ROOTS_OID);
        s.del_root(t, "main").unwrap();
        assert!(matches!(
            s.get_root(t, "main"),
            Err(StorageError::NoSuchRoot(_))
        ));
        s.commit(t).unwrap();
    }

    #[test]
    fn disk_persistence_across_reopen() {
        let dir = TempDir::new("store");
        let oid;
        let cluster;
        {
            let s = disk_storage(&dir);
            let t = s.begin().unwrap();
            cluster = s.create_cluster(t).unwrap();
            oid = s.allocate(t, cluster, b"persistent").unwrap();
            s.set_root(t, "obj", oid).unwrap();
            s.commit(t).unwrap();
            s.close().unwrap();
        }
        {
            let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.get_root(t, "obj").unwrap(), oid);
            assert_eq!(s.read(t, oid).unwrap(), b"persistent");
            assert_eq!(s.scan_cluster(t, cluster).unwrap(), vec![oid]);
            // Cluster counter continues, does not collide.
            let c2 = s.create_cluster(t).unwrap();
            assert!(c2 > cluster);
            s.commit(t).unwrap();
        }
    }

    #[test]
    fn crash_recovery_replays_committed_only() {
        let dir = TempDir::new("store");
        let committed;
        let uncommitted;
        {
            let s = disk_storage(&dir);
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            committed = s.allocate(t, c, b"committed").unwrap();
            s.set_root(t, "c", committed).unwrap();
            s.commit(t).unwrap();
            let t2 = s.begin().unwrap();
            uncommitted = s.allocate(t2, c, b"uncommitted").unwrap();
            // Simulate a crash: drop without commit, abort, or checkpoint.
            let _ = uncommitted;
            std::mem::forget(s);
        }
        {
            let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.read(t, committed).unwrap(), b"committed");
            assert!(matches!(
                s.read(t, uncommitted),
                Err(StorageError::NoSuchObject(_))
            ));
            s.commit(t).unwrap();
        }
    }

    #[test]
    fn crash_after_abort_relocation_then_committed_update_recovers() {
        // Review regression (high): an abort that relocates a before-image
        // physically rewrites pages under the *aborting* transaction's
        // records. Recovery must repeat those repairs — a later committed
        // update addresses the relocated page/slot, and skipping the
        // abort's records would make that update unreplayable (page
        // missing or slot empty ⇒ Corrupt ⇒ database unrecoverable).
        let dir = TempDir::new("store");
        let big = vec![7u8; 3000];
        let a;
        let b;
        {
            let s = disk_storage(&dir);
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            a = s.allocate(t, c, &big).unwrap();
            s.commit(t).unwrap();

            // Shrink `a` (freeing ~3KB), let a concurrent commit claim the
            // space, then abort: the undo relocates the before-image to
            // another page behind a forward stub.
            let t1 = s.begin().unwrap();
            s.update(t1, a, b"tiny").unwrap();
            let t2 = s.begin().unwrap();
            b = s.allocate(t2, c, &vec![8u8; 2500]).unwrap();
            s.commit(t2).unwrap();
            s.abort(t1).unwrap();

            // A later committed transaction updates the moved object: its
            // CellUpdate addresses the relocated location.
            let t3 = s.begin().unwrap();
            assert_eq!(s.read(t3, a).unwrap(), big);
            s.update(t3, a, b"updated after relocation").unwrap();
            s.commit(t3).unwrap();
            std::mem::forget(s); // crash: no checkpoint
        }
        let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = s.begin().unwrap();
        assert_eq!(s.read(t, a).unwrap(), b"updated after relocation");
        assert_eq!(s.read(t, b).unwrap(), vec![8u8; 2500]);
        s.commit(t).unwrap();
    }

    #[test]
    fn committed_insert_into_space_freed_by_uncommitted_shrink_recovers() {
        // Review regression (same root cause, pre-existing): a committed
        // insert that claimed space freed by an *in-flight* transaction's
        // shrink must replay — repeat history applies the shrink first,
        // then rolls the loser back (relocating its before-image when the
        // committed insert is in the way).
        let dir = TempDir::new("store");
        let big = vec![5u8; 3000];
        let a;
        let b;
        {
            let s = disk_storage(&dir);
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            a = s.allocate(t, c, &big).unwrap();
            s.commit(t).unwrap();

            let t1 = s.begin().unwrap();
            s.update(t1, a, b"tiny").unwrap();
            let t2 = s.begin().unwrap();
            b = s.allocate(t2, c, &vec![6u8; 2500]).unwrap();
            s.commit(t2).unwrap();
            // Crash with t1 still in flight.
            std::mem::forget(s);
        }
        let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = s.begin().unwrap();
        // The loser's shrink rolled back to the committed value…
        assert_eq!(s.read(t, a).unwrap(), big);
        // …and the committed insert survived.
        assert_eq!(s.read(t, b).unwrap(), vec![6u8; 2500]);
        // The rolled-back object is fully writable (stub chain intact).
        s.update(t, a, b"writable").unwrap();
        assert_eq!(s.read(t, a).unwrap(), b"writable");
        s.commit(t).unwrap();
    }

    #[test]
    fn interleaved_losers_unwind_in_reverse_log_order() {
        // Two losers share a page: the first shrinks an already-moved
        // record in place, the second inserts into the bytes that freed.
        // A moved target cannot relocate, so rolling the first loser back
        // before the second would find no room and fail every open;
        // undone newest first, the insert hands the space back in time.
        for options in [StorageOptions::default(), StorageOptions::memory()] {
            let dir = TempDir::new("store");
            let big = vec![3u8; 3000];
            let (a, b);
            {
                let s = Storage::create(dir.path(), options.clone()).unwrap();
                let t = s.begin().unwrap();
                let c = s.create_cluster(t).unwrap();
                a = s.allocate(t, c, b"a").unwrap();
                s.allocate(t, c, &vec![1u8; 3500]).unwrap();
                s.update(t, a, &big).unwrap();
                s.commit(t).unwrap();
                let (target, _) = s.resolve(a).unwrap();
                assert_ne!(target, a, "the grown record moved");
                let t1 = s.begin().unwrap();
                s.update(t1, a, b"tiny").unwrap();
                let t2 = s.begin().unwrap();
                b = s.allocate(t2, c, &vec![4u8; 2500]).unwrap();
                assert_eq!(b.page(), target.page(), "the insert took the freed bytes");
                s.wal.as_ref().unwrap().flush().unwrap();
                std::mem::forget(s); // crash with t1 and t2 in flight
            }
            let s = Storage::open(dir.path(), options.clone()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.read(t, a).unwrap(), big);
            assert!(matches!(s.read(t, b), Err(StorageError::NoSuchObject(_))));
            s.update(t, a, b"writable").unwrap();
            assert_eq!(s.read(t, a).unwrap(), b"writable");
            s.commit(t).unwrap();
        }
    }

    #[test]
    fn a_crash_inside_recovery_after_its_repairs_reach_disk_recovers() {
        // Pages recovery repaired may reach disk before `open`'s
        // checkpoint resets the log. The next open must then find the
        // loser resolved in the log, not undo it a second time: the
        // repaired pages' LSNs stop redo from re-inserting its cell, so a
        // second undo finds the slot empty. Cut short, the rollback has
        // made only its first step durable, with no Abort record: the
        // loser comes back with that compensation record in its undo
        // list, which must be undone before the work it compensated. Both
        // engines: the memory engine's repaired pages reach disk in its
        // checkpoint image.
        let engines = [StorageOptions::default(), StorageOptions::memory()];
        for (options, cut_short) in engines
            .iter()
            .flat_map(|o| [(o.clone(), false), (o.clone(), true)])
        {
            let dir = TempDir::new("store");
            let (winner, loser);
            {
                let s = Storage::create(dir.path(), options.clone()).unwrap();
                let t = s.begin().unwrap();
                let c = s.create_cluster(t).unwrap();
                winner = s.allocate(t, c, b"winner").unwrap();
                s.commit(t).unwrap();
                let t1 = s.begin().unwrap();
                loser = s.allocate(t1, c, b"loser").unwrap();
                s.update(t1, winner, b"uncommitted").unwrap();
                s.wal.as_ref().unwrap().flush().unwrap();
                std::mem::forget(s); // crash with t1 in flight
            }
            {
                // `open` up to its checkpoint (or only the rollback's
                // first step), whose first steps then put the repaired
                // pages on disk before a crash stops it short of the log
                // reset.
                let s = if cut_short {
                    let (s, mut loser_undo) = Storage::redo(dir.path(), options.clone()).unwrap();
                    let (txn, op) = loser_undo.pop().unwrap();
                    s.apply_undo(txn, op).unwrap();
                    s
                } else {
                    Storage::recover(dir.path(), options.clone()).unwrap()
                };
                s.wal.as_ref().unwrap().flush().unwrap();
                match &s.store {
                    Store::Disk(pool) => {
                        pool.flush_all().unwrap();
                    }
                    Store::Mem(mem) => mem.checkpoint_to(&dir.path().join("mem.ckpt")).unwrap(),
                }
                std::mem::forget(s);
            }
            let s = Storage::open(dir.path(), options.clone()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.read(t, winner).unwrap(), b"winner");
            assert!(matches!(
                s.read(t, loser),
                Err(StorageError::NoSuchObject(_))
            ));
            s.commit(t).unwrap();
        }
    }

    #[test]
    fn read_only_commit_waits_for_observed_writers() {
        // Review regression (medium): commit_deferred releases a writer's
        // locks before its Commit record is durable. A read-only
        // transaction that reads those writes must not be acknowledged
        // until the writer is durable — otherwise a crash could discard
        // state an acknowledged read already observed.
        let dir = TempDir::new("store");
        let s = disk_storage(&dir);
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"v1").unwrap();
        s.commit(t).unwrap();

        // Writer commits logically (locks released) but is not durable.
        let w = s.begin().unwrap();
        s.update(w, oid, b"v2").unwrap();
        let w_ticket = s.commit_deferred(w).unwrap();
        let w_lsn = w_ticket.lsn().unwrap();
        assert!(s.wal_flushed_lsn().unwrap() < w_lsn);

        // The read-only transaction observes the write; its (append-free)
        // commit must drag the watermark past the writer's Commit record
        // before returning.
        let before = s.metrics().snapshot();
        let r = s.begin().unwrap();
        assert_eq!(s.read(r, oid).unwrap(), b"v2");
        let r_ticket = s.commit_deferred(r).unwrap();
        assert!(r_ticket.lsn().is_none(), "read-only: no Commit record");
        s.commit_wait(r_ticket).unwrap();
        assert!(
            s.wal_flushed_lsn().unwrap() >= w_lsn,
            "acknowledged read-only commit implies durable writers"
        );
        let after = s.metrics().snapshot();
        assert_eq!(after.wal_appends, before.wal_appends);
        s.commit_wait(w_ticket).unwrap();
    }

    #[test]
    fn memory_engine_checkpoint_persistence() {
        let dir = TempDir::new("store");
        let oid;
        {
            let s = Storage::create(dir.path(), StorageOptions::memory()).unwrap();
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            oid = s.allocate(t, c, b"mm-ode").unwrap();
            s.set_root(t, "x", oid).unwrap();
            s.commit(t).unwrap();
            s.close().unwrap();
        }
        {
            let s = Storage::open(dir.path(), StorageOptions::memory()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.read(t, oid).unwrap(), b"mm-ode");
            s.commit(t).unwrap();
        }
    }

    #[test]
    fn memory_engine_crash_recovery_via_wal() {
        let dir = TempDir::new("store");
        let oid;
        {
            let s = Storage::create(dir.path(), StorageOptions::memory()).unwrap();
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            oid = s.allocate(t, c, b"logged").unwrap();
            s.set_root(t, "x", oid).unwrap();
            s.commit(t).unwrap();
            std::mem::forget(s); // crash: no checkpoint taken
        }
        {
            let s = Storage::open(dir.path(), StorageOptions::memory()).unwrap();
            let t = s.begin().unwrap();
            assert_eq!(s.read(t, oid).unwrap(), b"logged");
            s.commit(t).unwrap();
        }
    }

    #[test]
    fn operations_require_active_txn() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"x").unwrap();
        s.commit(t).unwrap();
        assert!(matches!(s.read(t, oid), Err(StorageError::TxnNotActive(_))));
        assert!(matches!(s.commit(t), Err(StorageError::TxnNotActive(_))));
    }

    #[test]
    fn two_phase_locking_blocks_writers() {
        use std::sync::Arc;
        let s = Arc::new(Storage::volatile());
        let t1 = s.begin().unwrap();
        let c = s.create_cluster(t1).unwrap();
        let oid = s.allocate(t1, c, b"shared").unwrap();
        s.commit(t1).unwrap();

        let reader = s.begin().unwrap();
        s.read(reader, oid).unwrap();
        let s2 = Arc::clone(&s);
        let writer = std::thread::spawn(move || {
            let w = s2.begin().unwrap();
            s2.update(w, oid, b"written").unwrap();
            s2.commit(w).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !writer.is_finished(),
            "writer must wait for reader's S lock"
        );
        s.commit(reader).unwrap();
        writer.join().unwrap();
        let t = s.begin().unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"written");
        s.commit(t).unwrap();
    }

    #[test]
    fn commit_dependency_aborts_dependent() {
        let s = Storage::volatile();
        let a = s.begin().unwrap();
        let b = s.begin_system().unwrap();
        s.add_commit_dependency(b, a).unwrap();
        s.abort(a).unwrap();
        assert!(matches!(
            s.commit(b),
            Err(StorageError::DependencyAborted { .. })
        ));
        // b was auto-aborted by the failed commit.
        assert_eq!(s.txn_manager().state(b), Some(TxnState::Aborted));
    }

    #[test]
    fn auto_checkpoint_truncates_log() {
        let dir = TempDir::new("store");
        let opts = StorageOptions {
            checkpoint_every: 2,
            ..StorageOptions::default()
        };
        let s = Storage::create(dir.path(), opts).unwrap();
        for i in 0..5u32 {
            let t = s.begin().unwrap();
            let c = if i == 0 {
                s.create_cluster(t).unwrap()
            } else {
                FIRST_USER_CLUSTER
            };
            s.allocate(t, c, b"row").unwrap();
            s.commit(t).unwrap();
        }
        // After ≥2 commits a checkpoint ran; log holds at most 2 commits'
        // worth of records.
        let records = Wal::read_all(&dir.path().join("wal.log")).unwrap();
        let commits = records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Commit { .. }))
            .count();
        assert!(commits < 5, "log should have been truncated, got {commits}");
    }

    #[test]
    fn read_only_commit_skips_the_wal_entirely() {
        let dir = TempDir::new("store");
        let opts = StorageOptions {
            fsync: true,
            ..StorageOptions::default()
        };
        let s = Storage::create(dir.path(), opts).unwrap();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"data").unwrap();
        s.commit(t).unwrap();

        let before = s.metrics().snapshot();
        let t = s.begin().unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"data");
        assert!(s.exists(t, oid).unwrap());
        s.commit(t).unwrap();
        let after = s.metrics().snapshot();
        assert_eq!(after.wal_appends, before.wal_appends, "no WAL appends");
        assert_eq!(after.wal_fsyncs, before.wal_fsyncs, "no WAL fsyncs");
        assert_eq!(after.wal_bytes, before.wal_bytes);
        assert_eq!(after.txn_commits, before.txn_commits + 1);
    }

    #[test]
    fn read_only_abort_skips_the_wal_entirely() {
        let dir = TempDir::new("store");
        let s = disk_storage(&dir);
        let before = s.metrics().snapshot();
        let t = s.begin().unwrap();
        s.abort(t).unwrap();
        let after = s.metrics().snapshot();
        assert_eq!(after.wal_appends, before.wal_appends);
    }

    #[test]
    fn concurrent_commits_group_into_fewer_fsyncs() {
        use std::sync::Barrier;
        let dir = TempDir::new("store");
        let opts = StorageOptions {
            fsync: true,
            ..StorageOptions::default()
        };
        let s = Arc::new(Storage::create(dir.path(), opts).unwrap());
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        s.commit(t).unwrap();

        const N: usize = 8;
        let before = s.metrics().snapshot();
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let t = s.begin().unwrap();
                    s.allocate(t, c, &[i as u8; 16]).unwrap();
                    s.commit(t).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let after = s.metrics().snapshot();
        assert_eq!(
            after.wal_group_size_sum - before.wal_group_size_sum,
            N as u64,
            "every commit rides in exactly one group"
        );
        // All writes landed and are visible.
        let t = s.begin().unwrap();
        assert_eq!(s.scan_cluster(t, c).unwrap().len(), N);
        s.commit(t).unwrap();
    }

    #[test]
    fn commit_deferred_then_wait_is_durable() {
        let dir = TempDir::new("store");
        let s = disk_storage(&dir);
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let oid = s.allocate(t, c, b"deferred").unwrap();
        let ticket = s.commit_deferred(t).unwrap();
        assert!(ticket.lsn().is_some());
        // Committed state is already visible (locks released)…
        assert_eq!(s.txn_manager().state(t), Some(TxnState::Committed));
        s.commit_wait(ticket).unwrap();
        // …and after the wait the watermark covers the commit record.
        assert!(s.wal_flushed_lsn().unwrap() >= ticket.lsn().unwrap());
        let t2 = s.begin().unwrap();
        assert_eq!(s.read(t2, oid).unwrap(), b"deferred");
        s.commit(t2).unwrap();
    }

    #[test]
    fn write_fault_fails_commit_and_recovery_drops_it() {
        let dir = TempDir::new("store");
        let injector = Arc::new(FaultInjector::new());
        let opts = StorageOptions {
            fsync: true,
            fault: Some(Arc::clone(&injector)),
            ..StorageOptions::default()
        };
        let survivor;
        let casualty;
        let cluster;
        {
            let s = Storage::create(dir.path(), opts).unwrap();
            let t = s.begin().unwrap();
            cluster = s.create_cluster(t).unwrap();
            survivor = s.allocate(t, cluster, b"before fault").unwrap();
            s.commit(t).unwrap();

            // Kill the device before any further bytes land: the next
            // commit's batch never reaches the file at all.
            injector.arm_write_cap(0);
            let t = s.begin().unwrap();
            casualty = s.allocate(t, cluster, b"never durable").unwrap();
            assert!(matches!(s.commit(t), Err(StorageError::WalPoisoned(_))));
            // The log stays poisoned even for later transactions.
            let t = s.begin().unwrap();
            s.allocate(t, cluster, b"also doomed").unwrap();
            assert!(matches!(s.commit(t), Err(StorageError::WalPoisoned(_))));
            assert!(injector.tripped());
            std::mem::forget(s); // crash
        }
        injector.disarm();
        let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = s.begin().unwrap();
        assert_eq!(s.read(t, survivor).unwrap(), b"before fault");
        assert!(matches!(
            s.read(t, casualty),
            Err(StorageError::NoSuchObject(_))
        ));
        assert_eq!(s.scan_cluster(t, cluster).unwrap(), vec![survivor]);
        s.commit(t).unwrap();
    }

    #[test]
    fn a_checkpoint_torn_in_its_wal_reset_keeps_later_commits() {
        // A quiesced checkpoint ends with the WAL reset. Tear the reset's
        // header write, reopen, commit an update and crash: the update
        // survives only if the reopened log's LSNs stay above those the
        // checkpoint image stamped on its pages. The memory engine's image
        // is written outside the injector, so its WAL reset is the first
        // write the cap meets.
        let dir = TempDir::new("store");
        let injector = Arc::new(FaultInjector::new());
        let opts = StorageOptions {
            fault: Some(Arc::clone(&injector)),
            ..StorageOptions::memory()
        };
        let (oid, end);
        {
            let s = Storage::create(dir.path(), opts.clone()).unwrap();
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            oid = s.allocate(t, c, b"first").unwrap();
            s.commit(t).unwrap();
            let wal = s.wal.as_ref().unwrap();
            wal.flush().unwrap();
            end = wal.end_lsn();
            injector.arm_write_cap(5);
            assert!(s.checkpoint().is_err());
            std::mem::forget(s); // crash
        }
        injector.disarm();
        {
            let s = Storage::open(dir.path(), opts.clone()).unwrap();
            assert!(
                s.wal.as_ref().unwrap().base_lsn() >= end,
                "LSN clock rewound"
            );
            let t = s.begin().unwrap();
            s.update(t, oid, b"second").unwrap();
            s.commit(t).unwrap();
            std::mem::forget(s); // crash
        }
        let s = Storage::open(dir.path(), opts).unwrap();
        let t = s.begin().unwrap();
        assert_eq!(s.read(t, oid).unwrap(), b"second");
        s.commit(t).unwrap();
    }

    #[test]
    fn many_objects_spread_over_pages() {
        let s = Storage::volatile();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let mut oids = Vec::new();
        for i in 0..2000u32 {
            oids.push(s.allocate(t, c, &encode_to_vec(&i)).unwrap());
        }
        s.commit(t).unwrap();
        let t = s.begin().unwrap();
        for (i, oid) in oids.iter().enumerate() {
            let v: u32 = decode_all(&s.read(t, *oid).unwrap()).unwrap();
            assert_eq!(v as usize, i);
        }
        assert!(s.page_count() > 2, "objects must span multiple pages");
        s.commit(t).unwrap();
    }

    // ------------------------------------------------------------------
    // MVCC snapshot reads
    // ------------------------------------------------------------------

    #[test]
    fn snapshot_rejects_writes() {
        let s = Storage::volatile();
        let (cluster, oid) = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"x").unwrap();
            s.commit(t).unwrap();
            (c, o)
        };
        let r = s.begin_read_only().unwrap();
        assert!(s.is_read_only(r));
        assert!(matches!(
            s.allocate(r, cluster, b"y"),
            Err(StorageError::ReadOnlyTxn(_))
        ));
        assert!(matches!(
            s.update(r, oid, b"y"),
            Err(StorageError::ReadOnlyTxn(_))
        ));
        assert!(matches!(s.free(r, oid), Err(StorageError::ReadOnlyTxn(_))));
        assert!(matches!(
            s.create_cluster(r),
            Err(StorageError::ReadOnlyTxn(_))
        ));
        assert!(matches!(
            s.set_root(r, "r", oid),
            Err(StorageError::ReadOnlyTxn(_))
        ));
        // Reads still work, and commit releases the snapshot.
        assert_eq!(s.read(r, oid).unwrap(), b"x");
        s.commit(r).unwrap();
        assert_eq!(s.version_stats().active_snapshots, 0);
    }

    #[test]
    fn a_finished_snapshot_is_not_active_before_it_is_read_only() {
        let s = Storage::volatile();
        let (cluster, oid) = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"x").unwrap();
            s.commit(t).unwrap();
            (c, o)
        };
        let r = s.begin_read_only().unwrap();
        s.commit(r).unwrap();
        let not_active =
            |res: Result<()>| matches!(res, Err(StorageError::TxnNotActive(t)) if t == r);
        assert!(not_active(s.update(r, oid, b"y")));
        assert!(not_active(s.allocate(r, cluster, b"y").map(|_| ())));
        assert!(not_active(s.free(r, oid)));
        assert!(not_active(s.lock_exclusive(r, oid)));
        assert!(not_active(s.create_cluster(r).map(|_| ())));
        assert!(not_active(s.set_root(r, "r", oid)));
        assert!(not_active(s.del_root(r, "r")));
        assert!(not_active(s.read(r, oid).map(|_| ())));
        assert!(not_active(s.exists(r, oid).map(|_| ())));
        assert!(not_active(s.scan_cluster(r, cluster).map(|_| ())));
        assert!(not_active(s.get_root(r, "r").map(|_| ())));
        assert!(not_active(s.abort(r)));
    }

    #[test]
    fn snapshot_ignores_later_commits_and_uncommitted_writes() {
        let s = Storage::volatile();
        let (cluster, oid) = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"v1").unwrap();
            s.commit(t).unwrap();
            (c, o)
        };
        let r = s.begin_read_only().unwrap();
        // An uncommitted overwrite is invisible...
        let w = s.begin().unwrap();
        s.update(w, oid, b"v2").unwrap();
        let fresh = s.allocate(w, cluster, b"new").unwrap();
        assert_eq!(s.read(r, oid).unwrap(), b"v1");
        assert!(!s.exists(r, fresh).unwrap());
        // ...and stays invisible to this snapshot after the commit.
        s.commit(w).unwrap();
        assert_eq!(s.read(r, oid).unwrap(), b"v1");
        assert!(!s.exists(r, fresh).unwrap());
        assert_eq!(s.scan_cluster(r, cluster).unwrap(), vec![oid]);
        s.commit(r).unwrap();
        // A snapshot begun after the commit sees everything.
        let r2 = s.begin_read_only().unwrap();
        assert_eq!(s.read(r2, oid).unwrap(), b"v2");
        assert!(s.exists(r2, fresh).unwrap());
        assert_eq!(s.scan_cluster(r2, cluster).unwrap(), vec![oid, fresh]);
        s.commit(r2).unwrap();
    }

    #[test]
    fn snapshot_sees_objects_deleted_after_it_began() {
        let s = Storage::volatile();
        let (cluster, oid) = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"doomed").unwrap();
            s.commit(t).unwrap();
            (c, o)
        };
        let r = s.begin_read_only().unwrap();
        let w = s.begin().unwrap();
        s.free(w, oid).unwrap();
        s.commit(w).unwrap();
        // The cell is physically purged, but the chain still answers.
        assert_eq!(s.read(r, oid).unwrap(), b"doomed");
        assert_eq!(s.scan_cluster(r, cluster).unwrap(), vec![oid]);
        s.commit(r).unwrap();
        let r2 = s.begin_read_only().unwrap();
        assert!(!s.exists(r2, oid).unwrap());
        assert!(s.scan_cluster(r2, cluster).unwrap().is_empty());
        s.commit(r2).unwrap();
    }

    #[test]
    fn snapshot_never_sees_aborted_writes() {
        let s = Storage::volatile();
        let (cluster, oid) = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"keep").unwrap();
            s.commit(t).unwrap();
            (c, o)
        };
        let r = s.begin_read_only().unwrap();
        let w = s.begin().unwrap();
        s.update(w, oid, b"discard").unwrap();
        let ghost = s.allocate(w, cluster, b"ghost").unwrap();
        s.abort(w).unwrap();
        assert_eq!(s.read(r, oid).unwrap(), b"keep");
        assert!(!s.exists(r, ghost).unwrap());
        s.commit(r).unwrap();
        let r2 = s.begin_read_only().unwrap();
        assert_eq!(s.read(r2, oid).unwrap(), b"keep");
        assert!(!s.exists(r2, ghost).unwrap());
        s.commit(r2).unwrap();
    }

    #[test]
    fn snapshot_roots_are_versioned() {
        let s = Storage::volatile();
        let oid = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"a").unwrap();
            s.set_root(t, "anchor", o).unwrap();
            s.commit(t).unwrap();
            o
        };
        let r = s.begin_read_only().unwrap();
        let w = s.begin().unwrap();
        s.del_root(w, "anchor").unwrap();
        s.commit(w).unwrap();
        // The old snapshot still resolves the root; a new one does not.
        assert_eq!(s.get_root(r, "anchor").unwrap(), oid);
        s.commit(r).unwrap();
        let r2 = s.begin_read_only().unwrap();
        assert!(matches!(
            s.get_root(r2, "anchor"),
            Err(StorageError::NoSuchRoot(_))
        ));
        s.commit(r2).unwrap();
    }

    #[test]
    fn metrics_reset_keeps_the_pool_level_gauges() {
        let dir = TempDir::new("gauge-reset");
        let s = disk_storage(&dir);
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        s.allocate(t, c, b"data").unwrap();
        s.commit(t).unwrap();
        let before = s.metrics().snapshot();
        assert!(before.buf_resident_pages > 0);
        assert!(before.txn_commits > 0);
        s.metrics().reset();
        let after = s.metrics().snapshot();
        // Counters restart; gauges still mirror the pool's own levels.
        assert_eq!(after.txn_commits, 0);
        assert_eq!(after.buf_resident_pages, before.buf_resident_pages);
        assert_eq!(after.buf_dirty_pages, before.buf_dirty_pages);
        assert_eq!(after.dpt_size, before.dpt_size);
    }

    #[test]
    fn snapshot_reads_take_no_lock_manager_locks() {
        let s = Storage::volatile();
        let (cluster, oid) = {
            let t = s.begin().unwrap();
            let c = s.create_cluster(t).unwrap();
            let o = s.allocate(t, c, b"data").unwrap();
            s.commit(t).unwrap();
            (c, o)
        };
        s.metrics().reset();
        s.reset_lock_stats();
        let r = s.begin_read_only().unwrap();
        assert_eq!(s.read(r, oid).unwrap(), b"data");
        assert!(s.exists(r, oid).unwrap());
        assert_eq!(
            s.get_root(r, "nope").err().map(|e| e.is_abort()),
            Some(false)
        );
        assert_eq!(s.scan_cluster(r, cluster).unwrap(), vec![oid]);
        s.commit(r).unwrap();
        let stats = s.lock_stats();
        let snap = s.metrics().snapshot();
        assert_eq!(stats.immediate_grants, 0, "snapshot reads must not lock");
        assert_eq!(stats.waits, 0);
        assert_eq!(stats.upgrades, 0);
        assert!(snap.snapshot_reads >= 4);
    }

    #[test]
    fn version_store_drains_after_quiesced_checkpoint() {
        let dir = TempDir::new("ckpt-vacuum");
        let s = Storage::create(dir.path(), StorageOptions::memory()).unwrap();
        let r = s.begin_read_only().unwrap();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        let o = s.allocate(t, c, b"v").unwrap();
        s.update(t, o, b"w").unwrap();
        s.commit(t).unwrap();
        // The registered snapshot pins chain entries across the commit.
        assert!(s.version_stats().entries > 0);
        // Busy checkpoint: the reader is active, so the quiesced path
        // refuses with a typed error and nothing changes.
        assert!(matches!(s.checkpoint(), Err(StorageError::NotQuiesced(1))));
        assert!(s.version_stats().entries > 0);
        s.commit(r).unwrap();
        // Quiesced checkpoint: superseded versions must not survive it.
        s.checkpoint().unwrap();
        let stats = s.version_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.versions, 0);
        assert_eq!(stats.active_snapshots, 0);
        s.close().unwrap();
    }

    #[test]
    fn quiesced_checkpoint_returns_not_quiesced_when_busy() {
        // Satellite regression: the quiesced path must fail typed, not
        // silently no-op, while transactions are active.
        let dir = TempDir::new("store");
        let s = disk_storage(&dir);
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        s.allocate(t, c, b"busy").unwrap();
        assert!(matches!(s.checkpoint(), Err(StorageError::NotQuiesced(1))));
        s.commit(t).unwrap();
        s.checkpoint().unwrap();
        s.close().unwrap();
    }

    #[test]
    fn fuzzy_checkpoint_truncates_log_under_active_transactions() {
        let dir = TempDir::new("store");
        let s = disk_storage(&dir);
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        s.commit(t).unwrap();
        // Committed traffic first: these records sit below any later
        // transaction's first LSN, so the horizon can free them.
        for i in 0..20u8 {
            let t = s.begin().unwrap();
            s.allocate(t, c, &[i; 64]).unwrap();
            s.commit(t).unwrap();
        }
        let before_len = s.wal_file_len().unwrap();
        // An in-flight writer pins the horizon at its first LSN but must
        // not block the checkpoint.
        let active = s.begin().unwrap();
        let pinned = s.allocate(active, c, b"in flight").unwrap();
        let ckpts_before = s.metrics().snapshot().checkpoints;
        let freed = s.checkpoint_fuzzy().unwrap();
        assert!(freed > 0, "prefix below the active txn should be freed");
        assert!(s.wal_file_len().unwrap() < before_len);
        assert_eq!(s.metrics().snapshot().checkpoints, ckpts_before + 1);
        s.commit(active).unwrap();
        // Crash and recover from the fuzzy checkpoint (not the log start).
        std::mem::forget(s);
        let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = s.begin().unwrap();
        assert_eq!(s.read(t, pinned).unwrap(), b"in flight");
        assert_eq!(s.scan_cluster(t, c).unwrap().len(), 21);
        s.commit(t).unwrap();
        s.close().unwrap();
    }

    #[test]
    fn recovery_is_exact_with_stolen_pages_and_fuzzy_checkpoints() {
        // A pool far smaller than the working set forces dirty-page
        // steals; interleaved fuzzy checkpoints truncate the log. After a
        // crash, redo must be page-LSN-gated (stolen pages already carry
        // later state) and losers must roll back even when their dirty
        // pages were stolen.
        let dir = TempDir::new("store");
        let opts = StorageOptions {
            buffer_pages: 4,
            ..StorageOptions::default()
        };
        let s = Storage::create(dir.path(), opts).unwrap();
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        s.commit(t).unwrap();
        let mut committed = Vec::new();
        for round in 0..8u8 {
            let t = s.begin().unwrap();
            for i in 0..16u8 {
                committed.push((
                    s.allocate(t, c, &[round * 16 + i; 100]).unwrap(),
                    round * 16 + i,
                ));
            }
            s.commit(t).unwrap();
            if round % 3 == 2 {
                s.checkpoint_fuzzy().unwrap();
            }
        }
        assert!(
            s.pool_stats().unwrap().steals > 0,
            "working set must overflow the pool via steals"
        );
        // A loser whose dirty pages may have been stolen.
        let loser = s.begin().unwrap();
        let ghost = s.allocate(loser, c, &[0xEE; 100]).unwrap();
        s.update(loser, committed[0].0, b"uncommitted overwrite")
            .unwrap();
        std::mem::forget(s); // crash
        let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = s.begin().unwrap();
        for (oid, fill) in &committed {
            assert_eq!(s.read(t, *oid).unwrap(), vec![*fill; 100]);
        }
        assert!(matches!(
            s.read(t, ghost),
            Err(StorageError::NoSuchObject(_))
        ));
        s.commit(t).unwrap();
        s.close().unwrap();
    }

    #[test]
    fn background_checkpointer_cycles_without_stalling_commits() {
        // Tentpole acceptance: continuous commits while the checkpointer
        // cycles — no commit fails, the log shrinks under traffic, and no
        // commit observes a stop-the-world stall.
        let dir = TempDir::new("store");
        let opts = StorageOptions {
            checkpoint_interval: Some(Duration::from_millis(5)),
            ..StorageOptions::default()
        };
        let s = Arc::new(Storage::create(dir.path(), opts).unwrap());
        let t = s.begin().unwrap();
        let c = s.create_cluster(t).unwrap();
        s.commit(t).unwrap();
        let mut latencies = Vec::new();
        let stop_at = std::time::Instant::now() + Duration::from_millis(400);
        let mut i = 0u64;
        while std::time::Instant::now() < stop_at {
            let started = std::time::Instant::now();
            let t = s.begin().unwrap();
            s.allocate(t, c, &i.to_le_bytes()).unwrap();
            s.commit(t).unwrap();
            latencies.push(started.elapsed());
            i += 1;
        }
        let snap = s.metrics().snapshot();
        assert!(
            snap.checkpoints >= 2,
            "checkpointer should have cycled, got {}",
            snap.checkpoints
        );
        assert!(
            snap.wal_truncated_bytes > 0,
            "the log should have been truncated under traffic"
        );
        latencies.sort_unstable();
        let p99 = latencies[latencies.len() * 99 / 100];
        assert!(
            p99 < Duration::from_millis(250),
            "commit p99 {p99:?} suggests a stop-the-world stall"
        );
        let s = Arc::try_unwrap(s).ok().expect("sole owner");
        s.close().unwrap();
        // Clean reopen after a checkpointed run.
        let s = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = s.begin().unwrap();
        assert_eq!(s.scan_cluster(t, c).unwrap().len(), i as usize);
        s.commit(t).unwrap();
        s.close().unwrap();
    }
}
