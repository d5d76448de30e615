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
//! layout an abort produced (e.g. a page an abort's undo compacted).
//! Recovery rolls back a transaction in flight at a crash the same way,
//! after `TxnManager::adopt` re-enters it under its logged id.
//!
//! The transaction table is one mutex-guarded map with one condvar:
//! [`TxnManager::finish`] notifies it, and [`TxnManager::await_dependencies`]
//! waits on it. The table holds *live* transactions only:
//! [`TxnManager::finish`] removes the record, so the table's size (and the
//! checkpointer's scans of it) follows the number of transactions in
//! flight, not the number ever run. Outcomes stay answerable: an aborted id
//! is kept in a compact set, and an issued id that is neither live nor
//! aborted has committed ([`TxnManager::begin`] inserts the record before it
//! returns the id, so an id a caller holds is never absent while active).

use crate::error::{Result, StorageError};
use crate::hash::{IntMap, IntSet};
use crate::oid::PageId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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
    /// Bytes this transaction freed on each page, counted as used by
    /// every other transaction until it ends: its undo may need them back.
    /// No insert, its own included, lands on such a page meanwhile, so a
    /// slot its delete freed is not issued again before the delete ends.
    held: IntMap<PageId, usize>,
    /// Transactions this one may only commit after (commit dependencies).
    depends_on: Vec<TxnId>,
    /// Whether a WAL Begin record has been written for this transaction.
    /// Stays false for read-only transactions, which therefore skip the
    /// Commit record and flush entirely.
    logged: bool,
    /// Conservative lower bound on the LSN of this transaction's first WAL
    /// record (its Begin), set with `logged` under the table lock. The
    /// fuzzy checkpointer's truncation horizon must stay behind the
    /// minimum of these across active transactions.
    first_lsn: Option<u64>,
    /// Primary Oids (as `u64`) whose pages this transaction has mutated —
    /// the write set whose committed values the version store installs at
    /// commit (or unpins on abort).
    dirty: IntSet<u64>,
    /// For read-only transactions: the version-store snapshot sequence
    /// every read is served at. `None` for ordinary (writer) transactions.
    snapshot: Option<u64>,
    /// For read-only transactions: the WAL read barrier captured at begin
    /// time (commit pipeline durability watermark the snapshot may depend
    /// on). `None` when the WAL was already flushed past it.
    read_barrier: Option<u64>,
}

impl TxnRecord {
    fn new(system: bool) -> TxnRecord {
        TxnRecord {
            system,
            undo: Vec::new(),
            held: IntMap::default(),
            depends_on: Vec::new(),
            logged: false,
            first_lsn: None,
            dirty: IntSet::default(),
            snapshot: None,
            read_barrier: None,
        }
    }
}

#[derive(Default)]
struct Table {
    /// Active transactions; a record is removed when it finishes.
    live: IntMap<TxnId, TxnRecord>,
    /// Ids of finished transactions that aborted.
    aborted: IntSet<TxnId>,
}

impl Table {
    fn active_mut(&mut self, txn: TxnId) -> Result<&mut TxnRecord> {
        self.live
            .get_mut(&txn)
            .ok_or(StorageError::TxnNotActive(txn))
    }
}

/// Registry of transactions and their states.
pub struct TxnManager {
    next: AtomicU64,
    table: Mutex<Table>,
    /// Notified by [`TxnManager::finish`]; dependency waiters sleep here.
    finished: Condvar,
    /// Live `(transaction, page)` holdings, counted by page id modulo the
    /// length: at zero, no page of that residue has held bytes.
    holdings: [AtomicUsize; 256],
    dep_timeout: Duration,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new(Duration::from_secs(10))
    }
}

impl TxnManager {
    /// Create a manager; `dep_timeout` bounds waits on commit dependencies.
    pub fn new(dep_timeout: Duration) -> TxnManager {
        TxnManager {
            next: AtomicU64::new(1),
            table: Mutex::new(Table::default()),
            finished: Condvar::new(),
            holdings: [const { AtomicUsize::new(0) }; 256],
            dep_timeout,
        }
    }

    /// Start a transaction. `system` marks trigger-processing transactions.
    pub fn begin(&self, system: bool) -> TxnId {
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        self.table.lock().live.insert(id, TxnRecord::new(system));
        id
    }

    /// Take over a transaction recovery found in flight at a crash, under
    /// the id it logged with, so its rollback is logged under that id and
    /// it can be aborted like a live one. It counts as already logged (no
    /// second Begin record), from LSN 0 as its first-LSN bound. Adopting
    /// an id twice is a no-op; later [`TxnManager::begin`]s never reissue
    /// it.
    pub(crate) fn adopt(&self, txn: TxnId) {
        self.next.fetch_max(txn.0 + 1, Ordering::Relaxed);
        self.table.lock().live.entry(txn).or_insert(TxnRecord {
            logged: true,
            first_lsn: Some(0),
            ..TxnRecord::new(false)
        });
    }

    /// Current state, if the transaction is known (its id was issued).
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        let issued = (1..self.next.load(Ordering::Relaxed)).contains(&txn.0);
        Self::state_in(&self.table.lock(), txn, issued)
    }

    /// `txn`'s state as recorded in the (locked) table.
    fn state_in(table: &Table, txn: TxnId, issued: bool) -> Option<TxnState> {
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
        self.table.lock().live.get(&txn).is_some_and(|r| r.system)
    }

    /// Fail unless `txn` is active; otherwise its snapshot sequence if it
    /// is a read-only transaction, `None` for a writer. One table lock
    /// and one probe: the check every storage entry point starts with.
    pub fn active_snapshot(&self, txn: TxnId) -> Result<Option<u64>> {
        Ok(self.table.lock().active_mut(txn)?.snapshot)
    }

    /// Record an undo action for `txn`.
    pub fn push_undo(&self, txn: TxnId, op: UndoOp) -> Result<()> {
        self.table.lock().active_mut(txn)?.undo.push(op);
        Ok(())
    }

    /// Take the undo list (newest last) for rollback.
    pub fn take_undo(&self, txn: TxnId) -> Vec<UndoOp> {
        self.table
            .lock()
            .live
            .get_mut(&txn)
            .map(|r| std::mem::take(&mut r.undo))
            .unwrap_or_default()
    }

    /// Keep `bytes` that `txn` just freed on `page` as its own until it ends
    /// (called under the page latch, so no one claims them in between).
    pub(crate) fn hold(&self, txn: TxnId, page: PageId, bytes: usize) {
        if let Some(rec) = self.table.lock().live.get_mut(&txn) {
            let held = rec.held.entry(page).or_insert_with(|| {
                self.holdings_of(page).fetch_add(1, Ordering::Relaxed);
                0
            });
            *held += bytes;
        }
    }

    /// Bytes live transactions other than `txn` (all, for `None`) hold on
    /// `page`. With no holding on the page, one relaxed load: a holding is
    /// made under a page latch the caller has since taken, which orders it.
    pub(crate) fn held_by_others(&self, txn: Option<TxnId>, page: PageId) -> usize {
        if self.holdings_of(page).load(Ordering::Relaxed) == 0 {
            return 0;
        }
        self.table
            .lock()
            .live
            .iter()
            .filter(|&(&id, _)| Some(id) != txn)
            .filter_map(|(_, r)| r.held.get(&page))
            .sum()
    }

    fn holdings_of(&self, page: PageId) -> &AtomicUsize {
        &self.holdings[page as usize % self.holdings.len()]
    }

    /// Mark that `txn` has written its WAL Begin record. Returns `true` the
    /// first time (the caller must log Begin then), `false` afterwards.
    /// `first_lsn` is a lower bound on where that Begin will land (the WAL
    /// end sampled *before* the append), recorded with the flag under the
    /// table lock so the checkpointer never observes a logged transaction
    /// without a first LSN.
    pub fn mark_logged(&self, txn: TxnId, first_lsn: u64) -> Result<bool> {
        let mut txns = self.table.lock();
        let rec = txns.active_mut(txn)?;
        let first = !std::mem::replace(&mut rec.logged, true);
        if first {
            rec.first_lsn = Some(first_lsn);
        }
        Ok(first)
    }

    /// Whether `txn` has written any WAL records (false ⇒ read-only so far).
    pub fn has_logged(&self, txn: TxnId) -> bool {
        self.table.lock().live.get(&txn).is_some_and(|r| r.logged)
    }

    /// Add `oid` to `txn`'s MVCC write set. Returns `true` on the first
    /// insertion — the caller must seed the object's committed value into
    /// the version store before mutating its pages.
    pub fn track_dirty(&self, txn: TxnId, oid: u64) -> Result<bool> {
        Ok(self.table.lock().active_mut(txn)?.dirty.insert(oid))
    }

    /// Drain `txn`'s MVCC write set (for install at commit, or unpinning
    /// on abort).
    pub fn take_dirty(&self, txn: TxnId) -> Vec<u64> {
        self.table
            .lock()
            .live
            .get_mut(&txn)
            .map(|r| r.dirty.drain().collect())
            .unwrap_or_default()
    }

    /// Mark `txn` as a read-only snapshot transaction: `seq` is its
    /// version-store snapshot, `barrier` the begin-time WAL read barrier.
    pub fn set_snapshot(&self, txn: TxnId, seq: u64, barrier: Option<u64>) {
        if let Some(rec) = self.table.lock().live.get_mut(&txn) {
            rec.snapshot = Some(seq);
            rec.read_barrier = barrier;
        }
    }

    /// The snapshot sequence of a read-only transaction, if `txn` is one.
    pub fn snapshot_of(&self, txn: TxnId) -> Option<u64> {
        self.table.lock().live.get(&txn).and_then(|r| r.snapshot)
    }

    /// The begin-time WAL read barrier of a read-only transaction.
    pub fn read_barrier_of(&self, txn: TxnId) -> Option<u64> {
        self.table
            .lock()
            .live
            .get(&txn)
            .and_then(|r| r.read_barrier)
    }

    /// Declare that `txn` may only commit if `on` commits.
    pub fn add_dependency(&self, txn: TxnId, on: TxnId) -> Result<()> {
        self.table.lock().active_mut(txn)?.depends_on.push(on);
        Ok(())
    }

    /// Block until every dependency of `txn` has resolved; error if any
    /// aborted.
    pub fn await_dependencies(&self, txn: TxnId) -> Result<()> {
        let deps: Vec<TxnId> = self
            .table
            .lock()
            .live
            .get(&txn)
            .map(|r| r.depends_on.clone())
            .unwrap_or_default();
        for dep in deps {
            // Every id a caller can name was issued before this read.
            let issued = (1..self.next.load(Ordering::Relaxed)).contains(&dep.0);
            let mut txns = self.table.lock();
            let start = Instant::now();
            loop {
                match Self::state_in(&txns, dep, issued) {
                    Some(TxnState::Committed) => break,
                    Some(TxnState::Aborted) | None => {
                        return Err(StorageError::DependencyAborted { txn, on: dep });
                    }
                    Some(TxnState::Active) => {
                        if self
                            .finished
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
    /// before aborting; an abort leaves only the id behind. Returns the pages
    /// its held bytes were on: callers append the Commit or Abort record
    /// first, so any claim on them logs after it.
    pub fn finish(&self, txn: TxnId, state: TxnState) -> Result<Vec<PageId>> {
        debug_assert_ne!(state, TxnState::Active);
        let mut txns = self.table.lock();
        let rec = txns
            .live
            .remove(&txn)
            .ok_or(StorageError::TxnNotActive(txn))?;
        if state == TxnState::Aborted {
            txns.aborted.insert(txn);
        }
        drop(txns);
        self.finished.notify_all();
        for &page in rec.held.keys() {
            self.holdings_of(page).fetch_sub(1, Ordering::Relaxed);
        }
        Ok(rec.held.into_keys().collect())
    }

    /// (txn id, first LSN) of every active transaction that has logged WAL
    /// records — the active-transaction table a fuzzy checkpoint records,
    /// and whose minimum first LSN bounds log truncation.
    pub fn active_logged_first_lsns(&self) -> Vec<(u64, u64)> {
        self.table
            .lock()
            .live
            .iter()
            .filter(|(_, r)| r.logged)
            .filter_map(|(&id, r)| r.first_lsn.map(|lsn| (id.0, lsn)))
            .collect()
    }

    /// Ids of all currently active transactions.
    pub fn active(&self) -> Vec<TxnId> {
        self.table.lock().live.keys().copied().collect()
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
    fn a_finished_dependency_wakes_its_sleeping_waiter_at_once() {
        // The waiter sleeps on the table's condvar with a 20 ms poll.
        // 50 handoffs must take far less than 50 polls, or `finish`
        // skipped a wake.
        const HANDOFFS: u32 = 50;
        let tm = Arc::new(TxnManager::default());
        let started = Instant::now();
        for _ in 0..HANDOFFS {
            let a = tm.begin(false);
            let b = tm.begin(true);
            tm.add_dependency(b, a).unwrap();
            let handle = {
                let tm = Arc::clone(&tm);
                std::thread::spawn(move || tm.await_dependencies(b))
            };
            std::thread::sleep(Duration::from_millis(2));
            tm.finish(a, TxnState::Committed).unwrap();
            handle.join().unwrap().unwrap();
            tm.finish(b, TxnState::Committed).unwrap();
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(20) * HANDOFFS / 2,
            "{HANDOFFS} dependency handoffs took {elapsed:?}"
        );
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
    fn active_snapshot_answers_liveness_and_snapshot_in_one_probe() {
        let tm = TxnManager::default();
        let (writer, reader) = (tm.begin(false), tm.begin(false));
        tm.set_snapshot(reader, 5, None);
        assert_eq!(tm.active_snapshot(writer).unwrap(), None);
        assert_eq!(tm.active_snapshot(reader).unwrap(), Some(5));
        tm.finish(reader, TxnState::Committed).unwrap();
        assert!(matches!(
            tm.active_snapshot(reader),
            Err(StorageError::TxnNotActive(t)) if t == reader
        ));
        assert!(matches!(
            tm.active_snapshot(TxnId(999)),
            Err(StorageError::TxnNotActive(_))
        ));
    }

    #[test]
    fn adopt_keeps_the_logged_id_and_raises_the_counter() {
        let tm = TxnManager::default();
        tm.adopt(TxnId(40));
        let undo = UndoOp::UndoInsert { page: 3, slot: 1 };
        tm.push_undo(TxnId(40), undo.clone()).unwrap();
        tm.adopt(TxnId(40));
        assert_eq!(tm.state(TxnId(40)), Some(TxnState::Active));
        assert!(!tm.mark_logged(TxnId(40), 99).unwrap(), "already logged");
        assert_eq!(tm.active_logged_first_lsns(), vec![(40, 0)]);
        assert_eq!(tm.take_undo(TxnId(40)), vec![undo]);
        assert!(tm.begin(false).0 > 40);
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
        assert_eq!(tm.table.lock().live.len(), live.len());
        let mut active = tm.active();
        active.sort_unstable();
        assert_eq!(active, live);
        // Outcomes of retired transactions are still answered.
        assert_eq!(tm.state(aborted[0]), Some(TxnState::Aborted));
        assert_eq!(tm.state(TxnId(live[2].0 + 2)), Some(TxnState::Committed));
        assert_eq!(tm.state(TxnId(u64::MAX)), None, "never issued");
    }

    #[test]
    fn held_bytes_count_for_others_until_the_holder_finishes() {
        let tm = TxnManager::default();
        let (a, b) = (tm.begin(false), tm.begin(false));
        assert_eq!(tm.held_by_others(None, 7), 0);
        tm.hold(a, 7, 100);
        tm.hold(a, 7, 20);
        tm.hold(a, 9, 5);
        tm.hold(b, 7, 1);
        assert_eq!(tm.held_by_others(Some(a), 7), 1, "a may reuse its own");
        assert_eq!(tm.held_by_others(Some(b), 7), 120);
        assert_eq!(tm.held_by_others(None, 7), 121);
        let mut pages = tm.finish(a, TxnState::Aborted).unwrap();
        pages.sort_unstable();
        assert_eq!(pages, vec![7, 9]);
        assert_eq!(tm.held_by_others(None, 7), 1);
        assert_eq!(tm.held_by_others(None, 9), 0);
        assert_eq!(tm.finish(b, TxnState::Committed).unwrap(), vec![7]);
        assert!(tm.holdings.iter().all(|h| h.load(Ordering::Relaxed) == 0));
    }
}
