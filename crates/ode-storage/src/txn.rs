//! Transaction bookkeeping shared by both storage engines.
//!
//! Transactions here are the substrate for everything §5.5 of the paper
//! needs: ordinary user transactions, *system transactions* ("a transaction
//! not explicitly requested by the user, but required for trigger
//! processing" — how `dependent` and `!dependent` actions run), and commit
//! dependencies (a `dependent` trigger's transaction "can commit only if
//! the event detecting transaction does").
//!
//! Rollback is implemented with in-memory undo records captured at
//! operation time, so undo never needs to *read* the log (a page stolen
//! before the abort is simply read back through the buffer pool). Each
//! applied undo step is nevertheless
//! *written* to the log as an ordinary cell record (compensation-log
//! style), so crash recovery can repeat history through aborts — a
//! committed transaction's operations may physically depend on page
//! layout an abort produced (e.g. a relocated cell).
//!
//! The transaction table is striped by transaction id: every storage
//! operation consults it (`require_active`, `push_undo`, ...), so a single
//! table mutex would serialize otherwise-independent transactions. Each
//! stripe has its own condvar; [`TxnManager::finish`] notifies the
//! finished transaction's stripe, which is exactly where
//! [`TxnManager::await_dependencies`] waits for it.
//!
//! A stripe holds *live* transactions only: [`TxnManager::finish`]
//! removes the record, so the table's size (and the checkpointer's scans
//! of it) follows the number of transactions in flight, not the number
//! ever run. Outcomes stay answerable: an aborted id is kept in a compact
//! per-stripe set, and an issued id that is neither live nor aborted has
//! committed ([`TxnManager::begin`] inserts the record before it returns
//! the id, so an id a caller holds is never absent while active).

use crate::error::{Result, StorageError};
use crate::oid::{Oid, PageId};
use ode_obs::Metrics;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of transaction-table stripes (power of two).
pub const DEFAULT_TXN_STRIPES: usize = 8;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Running; may still read and write.
    Active,
    /// Durably finished; effects visible.
    Committed,
    /// Rolled back; effects undone.
    Aborted,
}

/// One cell-level undo action, applied in reverse order on abort.
#[allow(missing_docs)] // fields are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoOp {
    /// Undo an insert: delete the cell again.
    UndoInsert { page: PageId, slot: u16 },
    /// Undo an update: restore the previous cell bytes.
    UndoUpdate {
        page: PageId,
        slot: u16,
        before: Vec<u8>,
    },
    /// Undo a delete: re-insert the previous cell bytes at the same slot.
    UndoDelete {
        page: PageId,
        slot: u16,
        before: Vec<u8>,
    },
}

/// A live (active) transaction.
struct TxnRecord {
    system: bool,
    undo: Vec<UndoOp>,
    /// Cells tombstoned by this transaction's deletes, physically removed
    /// at commit (their slots and bytes stay reserved until then so the
    /// deletes remain undoable and no concurrent insert can take the Oid).
    pending_deletes: Vec<Oid>,
    /// Transactions this one may only commit after (commit dependencies).
    depends_on: Vec<TxnId>,
    /// Whether a WAL Begin record has been written for this transaction.
    /// Stays false for read-only transactions, which therefore skip the
    /// Commit record and flush entirely.
    logged: bool,
    /// Conservative lower bound on the LSN of this transaction's first WAL
    /// record (its Begin), set with `logged` under the stripe lock. The
    /// fuzzy checkpointer's truncation horizon must stay behind the
    /// minimum of these across active transactions.
    first_lsn: Option<u64>,
    /// LSN of this transaction's Commit record, recorded at commit time so
    /// durability waits (`flushed_lsn >= commit_lsn`) can be ordered after
    /// dependency release.
    commit_lsn: Option<u64>,
    /// Primary Oids (as `u64`) whose pages this transaction has mutated —
    /// the write set whose committed values the version store installs at
    /// commit (or unpins on abort).
    dirty: HashSet<u64>,
    /// For read-only transactions: the version-store snapshot sequence
    /// every read is served at. `None` for ordinary (writer) transactions.
    snapshot: Option<u64>,
    /// For read-only transactions: the WAL read barrier captured at begin
    /// time (commit pipeline durability watermark the snapshot may depend
    /// on). `None` when the WAL was already flushed past it.
    read_barrier: Option<u64>,
}

#[derive(Default)]
struct StripeTable {
    /// Active transactions; a record is removed when it finishes.
    live: HashMap<TxnId, TxnRecord>,
    /// Ids of finished transactions that aborted.
    aborted: HashSet<TxnId>,
}

impl StripeTable {
    fn active_mut(&mut self, txn: TxnId) -> Result<&mut TxnRecord> {
        self.live
            .get_mut(&txn)
            .ok_or(StorageError::TxnNotActive(txn))
    }
}

struct TxnStripe {
    txns: Mutex<StripeTable>,
    cv: Condvar,
}

/// Registry of transactions and their states, striped by transaction id.
pub struct TxnManager {
    next: AtomicU64,
    stripes: Box<[TxnStripe]>,
    /// `stripes.len() - 1`; stripe count is always a power of two.
    mask: usize,
    dep_timeout: Duration,
    metrics: Arc<Metrics>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new(Duration::from_secs(10))
    }
}

impl TxnManager {
    /// Create a manager; `dep_timeout` bounds waits on commit dependencies.
    pub fn new(dep_timeout: Duration) -> TxnManager {
        TxnManager::with_config(dep_timeout, Arc::new(Metrics::new()), DEFAULT_TXN_STRIPES)
    }

    /// Fully configured constructor. `stripes` is rounded up to a power of
    /// two; `1` reproduces the pre-striping single-table manager.
    pub fn with_config(dep_timeout: Duration, metrics: Arc<Metrics>, stripes: usize) -> TxnManager {
        let n = stripes.max(1).next_power_of_two();
        TxnManager {
            next: AtomicU64::new(1),
            stripes: (0..n)
                .map(|_| TxnStripe {
                    txns: Mutex::new(StripeTable::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            mask: n - 1,
            dep_timeout,
            metrics,
        }
    }

    fn stripe(&self, txn: TxnId) -> &TxnStripe {
        &self.stripes[(txn.0 as usize) & self.mask]
    }

    /// Lock a transaction's stripe, counting contended acquisitions.
    fn lock_stripe(&self, txn: TxnId) -> MutexGuard<'_, StripeTable> {
        let stripe = self.stripe(txn);
        match stripe.txns.try_lock() {
            Some(guard) => guard,
            None => {
                self.metrics.txn_stripe_contention.inc();
                let started = Instant::now();
                let guard = stripe.txns.lock();
                self.metrics
                    .shard_acquire_nanos
                    .record(started.elapsed().as_nanos() as u64);
                guard
            }
        }
    }

    /// Start a transaction. `system` marks trigger-processing transactions.
    pub fn begin(&self, system: bool) -> TxnId {
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        self.lock_stripe(id).live.insert(
            id,
            TxnRecord {
                system,
                undo: Vec::new(),
                pending_deletes: Vec::new(),
                depends_on: Vec::new(),
                logged: false,
                first_lsn: None,
                commit_lsn: None,
                dirty: HashSet::new(),
                snapshot: None,
                read_barrier: None,
            },
        );
        id
    }

    /// Current state, if the transaction is known (its id was issued).
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        let issued = (1..self.next.load(Ordering::Relaxed)).contains(&txn.0);
        Self::state_in(&self.lock_stripe(txn), txn, issued)
    }

    /// `txn`'s state as recorded in its (locked) stripe.
    fn state_in(table: &StripeTable, txn: TxnId, issued: bool) -> Option<TxnState> {
        if table.live.contains_key(&txn) {
            Some(TxnState::Active)
        } else if table.aborted.contains(&txn) {
            Some(TxnState::Aborted)
        } else {
            issued.then_some(TxnState::Committed)
        }
    }

    /// Whether the transaction was started as a system transaction.
    pub fn is_system(&self, txn: TxnId) -> bool {
        self.lock_stripe(txn)
            .live
            .get(&txn)
            .is_some_and(|r| r.system)
    }

    /// Fail unless `txn` is active.
    pub fn require_active(&self, txn: TxnId) -> Result<()> {
        self.lock_stripe(txn).active_mut(txn).map(|_| ())
    }

    /// Record an undo action for `txn`.
    pub fn push_undo(&self, txn: TxnId, op: UndoOp) -> Result<()> {
        self.lock_stripe(txn).active_mut(txn)?.undo.push(op);
        Ok(())
    }

    /// Take the undo list (newest last) for rollback.
    pub fn take_undo(&self, txn: TxnId) -> Vec<UndoOp> {
        self.lock_stripe(txn)
            .live
            .get_mut(&txn)
            .map(|r| std::mem::take(&mut r.undo))
            .unwrap_or_default()
    }

    /// Record a cell tombstoned by `txn`, to be physically deleted at
    /// commit.
    pub fn note_pending_delete(&self, txn: TxnId, oid: Oid) -> Result<()> {
        self.lock_stripe(txn)
            .active_mut(txn)?
            .pending_deletes
            .push(oid);
        Ok(())
    }

    /// Drain the cells awaiting physical deletion at `txn`'s commit.
    pub fn take_pending_deletes(&self, txn: TxnId) -> Vec<Oid> {
        self.lock_stripe(txn)
            .live
            .get_mut(&txn)
            .map(|r| std::mem::take(&mut r.pending_deletes))
            .unwrap_or_default()
    }

    /// Mark that `txn` has written its WAL Begin record. Returns `true` the
    /// first time (the caller must log Begin then), `false` afterwards.
    /// `first_lsn` is a lower bound on where that Begin will land (the WAL
    /// end sampled *before* the append), recorded with the flag under the
    /// stripe lock so the checkpointer never observes a logged transaction
    /// without a first LSN.
    pub fn mark_logged(&self, txn: TxnId, first_lsn: u64) -> Result<bool> {
        let mut txns = self.lock_stripe(txn);
        let rec = txns.active_mut(txn)?;
        let first = !std::mem::replace(&mut rec.logged, true);
        if first {
            rec.first_lsn = Some(first_lsn);
        }
        Ok(first)
    }

    /// Whether `txn` has written any WAL records (false ⇒ read-only so far).
    pub fn has_logged(&self, txn: TxnId) -> bool {
        self.lock_stripe(txn)
            .live
            .get(&txn)
            .is_some_and(|r| r.logged)
    }

    /// Record the LSN of `txn`'s Commit record.
    pub fn set_commit_lsn(&self, txn: TxnId, lsn: u64) {
        if let Some(rec) = self.lock_stripe(txn).live.get_mut(&txn) {
            rec.commit_lsn = Some(lsn);
        }
    }

    /// LSN of `txn`'s Commit record, if it has been appended.
    pub fn commit_lsn(&self, txn: TxnId) -> Option<u64> {
        self.lock_stripe(txn)
            .live
            .get(&txn)
            .and_then(|r| r.commit_lsn)
    }

    /// Add `oid` to `txn`'s MVCC write set. Returns `true` on the first
    /// insertion — the caller must seed the object's committed value into
    /// the version store before mutating its pages.
    pub fn track_dirty(&self, txn: TxnId, oid: u64) -> Result<bool> {
        Ok(self.lock_stripe(txn).active_mut(txn)?.dirty.insert(oid))
    }

    /// Drain `txn`'s MVCC write set (for install at commit, or unpinning
    /// on abort).
    pub fn take_dirty(&self, txn: TxnId) -> Vec<u64> {
        self.lock_stripe(txn)
            .live
            .get_mut(&txn)
            .map(|r| r.dirty.drain().collect())
            .unwrap_or_default()
    }

    /// Mark `txn` as a read-only snapshot transaction: `seq` is its
    /// version-store snapshot, `barrier` the begin-time WAL read barrier.
    pub fn set_snapshot(&self, txn: TxnId, seq: u64, barrier: Option<u64>) {
        if let Some(rec) = self.lock_stripe(txn).live.get_mut(&txn) {
            rec.snapshot = Some(seq);
            rec.read_barrier = barrier;
        }
    }

    /// The snapshot sequence of a read-only transaction, if `txn` is one.
    pub fn snapshot_of(&self, txn: TxnId) -> Option<u64> {
        self.lock_stripe(txn)
            .live
            .get(&txn)
            .and_then(|r| r.snapshot)
    }

    /// The begin-time WAL read barrier of a read-only transaction.
    pub fn read_barrier_of(&self, txn: TxnId) -> Option<u64> {
        self.lock_stripe(txn)
            .live
            .get(&txn)
            .and_then(|r| r.read_barrier)
    }

    /// Declare that `txn` may only commit if `on` commits.
    pub fn add_dependency(&self, txn: TxnId, on: TxnId) -> Result<()> {
        self.lock_stripe(txn).active_mut(txn)?.depends_on.push(on);
        Ok(())
    }

    /// Block until every dependency of `txn` has resolved; error if any
    /// aborted. Each wait parks on the *dependency's* stripe — the one
    /// [`TxnManager::finish`] notifies.
    pub fn await_dependencies(&self, txn: TxnId) -> Result<()> {
        let deps: Vec<TxnId> = self
            .lock_stripe(txn)
            .live
            .get(&txn)
            .map(|r| r.depends_on.clone())
            .unwrap_or_default();
        for dep in deps {
            // Every id a caller can name was issued before this read.
            let issued = (1..self.next.load(Ordering::Relaxed)).contains(&dep.0);
            let stripe = self.stripe(dep);
            let mut txns = stripe.txns.lock();
            let start = Instant::now();
            loop {
                match Self::state_in(&txns, dep, issued) {
                    Some(TxnState::Committed) => break,
                    Some(TxnState::Aborted) | None => {
                        return Err(StorageError::DependencyAborted { txn, on: dep });
                    }
                    Some(TxnState::Active) => {
                        if stripe
                            .cv
                            .wait_for(&mut txns, Duration::from_millis(20))
                            .timed_out()
                            && start.elapsed() >= self.dep_timeout
                        {
                            return Err(StorageError::LockTimeout(txn));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Transition to a final state and wake dependency waiters. The
    /// record is dropped with its undo list (commit) — callers take it
    /// before aborting; an abort leaves only the id behind.
    pub fn finish(&self, txn: TxnId, state: TxnState) -> Result<()> {
        debug_assert_ne!(state, TxnState::Active);
        {
            let mut txns = self.lock_stripe(txn);
            txns.live
                .remove(&txn)
                .ok_or(StorageError::TxnNotActive(txn))?;
            if state == TxnState::Aborted {
                txns.aborted.insert(txn);
            }
        }
        self.stripe(txn).cv.notify_all();
        Ok(())
    }

    /// (txn id, first LSN) of every active transaction that has logged WAL
    /// records — the active-transaction table a fuzzy checkpoint records,
    /// and whose minimum first LSN bounds log truncation.
    pub fn active_logged_first_lsns(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let txns = stripe.txns.lock();
            out.extend(
                txns.live
                    .iter()
                    .filter(|(_, r)| r.logged)
                    .filter_map(|(&id, r)| r.first_lsn.map(|lsn| (id.0, lsn))),
            );
        }
        out
    }

    /// Ids of all currently active transactions.
    pub fn active(&self) -> Vec<TxnId> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            out.extend(stripe.txns.lock().live.keys().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn begin_assigns_unique_ids() {
        let tm = TxnManager::default();
        let a = tm.begin(false);
        let b = tm.begin(true);
        assert_ne!(a, b);
        assert!(!tm.is_system(a));
        assert!(tm.is_system(b));
        assert_eq!(tm.state(a), Some(TxnState::Active));
    }

    #[test]
    fn finish_transitions_once() {
        let tm = TxnManager::default();
        let t = tm.begin(false);
        tm.finish(t, TxnState::Committed).unwrap();
        assert_eq!(tm.state(t), Some(TxnState::Committed));
        assert!(tm.finish(t, TxnState::Aborted).is_err());
    }

    #[test]
    fn undo_list_roundtrip() {
        let tm = TxnManager::default();
        let t = tm.begin(false);
        tm.push_undo(t, UndoOp::UndoInsert { page: 1, slot: 2 })
            .unwrap();
        tm.push_undo(
            t,
            UndoOp::UndoUpdate {
                page: 1,
                slot: 2,
                before: vec![9],
            },
        )
        .unwrap();
        let undo = tm.take_undo(t);
        assert_eq!(undo.len(), 2);
        assert!(tm.take_undo(t).is_empty());
    }

    #[test]
    fn push_undo_rejects_finished_txn() {
        let tm = TxnManager::default();
        let t = tm.begin(false);
        tm.finish(t, TxnState::Committed).unwrap();
        assert!(tm
            .push_undo(t, UndoOp::UndoInsert { page: 1, slot: 0 })
            .is_err());
    }

    #[test]
    fn dependency_on_committed_passes() {
        let tm = TxnManager::default();
        let a = tm.begin(false);
        tm.finish(a, TxnState::Committed).unwrap();
        let b = tm.begin(true);
        tm.add_dependency(b, a).unwrap();
        tm.await_dependencies(b).unwrap();
    }

    #[test]
    fn dependency_on_aborted_fails() {
        let tm = TxnManager::default();
        let a = tm.begin(false);
        tm.finish(a, TxnState::Aborted).unwrap();
        let b = tm.begin(true);
        tm.add_dependency(b, a).unwrap();
        assert!(matches!(
            tm.await_dependencies(b),
            Err(StorageError::DependencyAborted { .. })
        ));
    }

    #[test]
    fn dependency_waits_for_resolution() {
        let tm = Arc::new(TxnManager::default());
        let a = tm.begin(false);
        let b = tm.begin(true);
        tm.add_dependency(b, a).unwrap();
        let tm2 = Arc::clone(&tm);
        let handle = std::thread::spawn(move || tm2.await_dependencies(b));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished());
        tm.finish(a, TxnState::Committed).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn dependency_waits_across_stripes() {
        // Dependency resolution must work when txn and dependency live in
        // different stripes (ids differ in the low bits).
        let tm = Arc::new(TxnManager::with_config(
            Duration::from_secs(10),
            Arc::new(Metrics::new()),
            8,
        ));
        let mut a = tm.begin(false);
        let mut b = tm.begin(true);
        // Burn ids until the two ids differ in stripe.
        while (a.0 as usize & 7) == (b.0 as usize & 7) {
            a = b;
            b = tm.begin(true);
        }
        tm.add_dependency(b, a).unwrap();
        let tm2 = Arc::clone(&tm);
        let handle = std::thread::spawn(move || tm2.await_dependencies(b));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished());
        tm.finish(a, TxnState::Committed).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn mark_logged_fires_once() {
        let tm = TxnManager::default();
        let t = tm.begin(false);
        assert!(!tm.has_logged(t));
        assert!(tm.mark_logged(t, 17).unwrap());
        assert!(!tm.mark_logged(t, 99).unwrap());
        assert!(tm.has_logged(t));
        // The first LSN is pinned by the first call; later calls are no-ops.
        assert_eq!(tm.active_logged_first_lsns(), vec![(t.0, 17)]);
        assert_eq!(tm.commit_lsn(t), None);
        tm.set_commit_lsn(t, 42);
        assert_eq!(tm.commit_lsn(t), Some(42));
    }

    #[test]
    fn active_logged_first_lsns_skips_readers_and_finished() {
        let tm = TxnManager::default();
        let reader = tm.begin(false);
        let writer = tm.begin(false);
        let done = tm.begin(false);
        tm.mark_logged(writer, 5).unwrap();
        tm.mark_logged(done, 3).unwrap();
        tm.finish(done, TxnState::Committed).unwrap();
        let _ = reader; // never logged
        assert_eq!(tm.active_logged_first_lsns(), vec![(writer.0, 5)]);
    }

    #[test]
    fn dirty_set_dedupes_and_drains() {
        let tm = TxnManager::default();
        let t = tm.begin(false);
        assert!(tm.track_dirty(t, 7).unwrap());
        assert!(!tm.track_dirty(t, 7).unwrap());
        assert!(tm.track_dirty(t, 9).unwrap());
        let mut dirty = tm.take_dirty(t);
        dirty.sort_unstable();
        assert_eq!(dirty, vec![7, 9]);
        assert!(tm.take_dirty(t).is_empty());
        tm.finish(t, TxnState::Committed).unwrap();
        assert!(tm.track_dirty(t, 1).is_err());
    }

    #[test]
    fn snapshot_fields_roundtrip() {
        let tm = TxnManager::default();
        let t = tm.begin(false);
        assert_eq!(tm.snapshot_of(t), None);
        tm.set_snapshot(t, 5, Some(99));
        assert_eq!(tm.snapshot_of(t), Some(5));
        assert_eq!(tm.read_barrier_of(t), Some(99));
    }

    #[test]
    fn active_lists_only_active() {
        let tm = TxnManager::default();
        let a = tm.begin(false);
        let b = tm.begin(false);
        tm.finish(a, TxnState::Committed).unwrap();
        assert_eq!(tm.active(), vec![b]);
    }

    #[test]
    fn table_holds_only_live_transactions() {
        let tm = TxnManager::default();
        let live: Vec<TxnId> = (0..3).map(|_| tm.begin(false)).collect();
        let mut aborted = Vec::new();
        for i in 0..10_000 {
            let t = tm.begin(i % 2 == 0);
            tm.push_undo(t, UndoOp::UndoInsert { page: 1, slot: 0 })
                .unwrap();
            tm.track_dirty(t, i).unwrap();
            if i % 3 == 0 {
                let _ = tm.take_undo(t);
                tm.finish(t, TxnState::Aborted).unwrap();
                aborted.push(t);
            } else {
                tm.finish(t, TxnState::Committed).unwrap();
            }
        }
        let records: usize = tm.stripes.iter().map(|s| s.txns.lock().live.len()).sum();
        assert_eq!(records, live.len());
        let mut active = tm.active();
        active.sort_unstable();
        assert_eq!(active, live);
        // Outcomes of retired transactions are still answered.
        assert_eq!(tm.state(aborted[0]), Some(TxnState::Aborted));
        assert_eq!(tm.state(TxnId(live[2].0 + 2)), Some(TxnState::Committed));
        assert_eq!(tm.state(TxnId(u64::MAX)), None, "never issued");
    }
}
