//! Transaction boundaries and coupling modes (§4.2, §5.5).
//!
//! Commit processing follows the paper:
//!
//! 1. "Immediately before posting `before tcomplete` events, commit
//!    processing scans the end list and executes the relevant actions."
//! 2. `before tcomplete` is posted to every object on the transaction
//!    event object list (populated when such objects were first accessed).
//! 3. The storage transaction commits.
//! 4. "The routine for committing a transaction scans the dependent list
//!    in one transaction and the !dependent list in another" — system
//!    transactions, with the dependent one carrying a commit dependency on
//!    the detecting transaction.
//!
//! Abort processing posts `before tabort`, rolls everything back (trigger
//! state updates ride the ordinary undo, so "actions of aborted
//! transactions are rolled back, \[and\] so are their associated events"),
//! and then runs the `!dependent` list in a system transaction — the one
//! channel through which an aborted transaction can leave permanent
//! traces, exactly as §5.5 describes.
//!
//! `after tcommit` and `after tabort` are *not* offered; §6 explains why
//! they were dropped (serialization-order and crash-atomicity problems
//! that would require phoenix transactions).

use crate::database::Database;
use crate::error::Result;
use crate::post::Firing;
use ode_storage::{CommitTicket, StorageError, TxnId, TxnState};

/// Bound on end-trigger cascades (end actions scheduling more end
/// triggers).
const MAX_END_ROUNDS: usize = 32;

/// First and largest wait (µs) before rerunning a deadlock victim.
const RETRY_BACKOFF_MIN_US: u64 = 50;
const RETRY_BACKOFF_MAX_US: u64 = 4_000;

/// Sleep before rerun number `attempt` (1-based) of a deadlock victim:
/// bounded exponential backoff, doubling from [`RETRY_BACKOFF_MIN_US`] to
/// at most [`RETRY_BACKOFF_MAX_US`], with the upper half of each wait
/// drawn from a per-thread xorshift so two victims of the same cycle
/// rerun at different times instead of colliding again.
fn retry_backoff(attempt: usize) {
    use std::cell::Cell;
    use std::hash::BuildHasher;
    thread_local! {
        static STATE: Cell<u64> = Cell::new(
            std::collections::hash_map::RandomState::new()
                .hash_one(std::thread::current().id())
                | 1,
        );
    }
    let r = STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    });
    let ceiling = (RETRY_BACKOFF_MIN_US << (attempt - 1).min(16)).min(RETRY_BACKOFF_MAX_US);
    let wait = ceiling / 2 + r % (ceiling / 2 + 1);
    std::thread::sleep(std::time::Duration::from_micros(wait));
}

impl Database {
    /// Begin a transaction.
    pub fn begin(&self) -> Result<TxnId> {
        Ok(self.storage.begin()?)
    }

    /// Run `f` inside a transaction: commit on `Ok`, abort on `Err` (this
    /// is how a trigger action's `tabort` actually takes the transaction
    /// down).
    pub fn with_txn<R>(&self, f: impl FnOnce(TxnId) -> Result<R>) -> Result<R> {
        let txn = self.begin()?;
        match f(txn) {
            Ok(value) => {
                self.commit(txn)?;
                Ok(value)
            }
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    /// Begin a read-only snapshot transaction: every read is served at one
    /// consistent commit point with **no lock-manager locks**, so it can
    /// neither block nor deadlock — the escape hatch from §6's "triggers
    /// turn reads into writes" amplification for pure readers. Event
    /// posting and all write operations fail on such a transaction.
    pub fn begin_read_only(&self) -> Result<TxnId> {
        Ok(self.storage.begin_read_only()?)
    }

    /// Run `f` inside a read-only snapshot transaction. No retry wrapper
    /// is needed — snapshot readers cannot be picked as deadlock victims.
    pub fn with_read_txn<R>(&self, f: impl FnOnce(TxnId) -> Result<R>) -> Result<R> {
        let txn = self.begin_read_only()?;
        match f(txn) {
            Ok(value) => {
                self.commit(txn)?;
                Ok(value)
            }
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    /// Like [`Database::with_txn`], but transparently retries when the
    /// transaction is chosen as a deadlock victim (or hits the lock
    /// timeout) — the §6 observation that triggers raise "the likelihood
    /// of deadlock" makes such victims a normal operating condition, and
    /// the standard response is to rerun the transaction. `tabort` and
    /// other application errors are *not* retried.
    ///
    /// Each rerun waits first (`retry_backoff`): rerun at once, two
    /// symmetric writers can collide again on every attempt.
    pub fn with_txn_retry<R>(
        &self,
        max_attempts: usize,
        f: impl Fn(TxnId) -> Result<R>,
    ) -> Result<R> {
        let mut last = None;
        for attempt in 0..max_attempts.max(1) {
            if attempt > 0 {
                retry_backoff(attempt);
            }
            match self.with_txn(&f) {
                Err(e)
                    if matches!(
                        e,
                        crate::error::OdeError::Storage(StorageError::Deadlock(_))
                            | crate::error::OdeError::Storage(StorageError::LockTimeout(_))
                    ) =>
                {
                    last = Some(e);
                }
                other => return other,
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Commit: end actions, `before tcomplete`, storage commit, then the
    /// dependent/!dependent lists in system transactions.
    ///
    /// The storage commit is split around the detached firings: the
    /// detecting transaction's Commit record is appended and its locks
    /// released with [`ode_storage::Storage::commit_deferred`], the
    /// dependent/!dependent system transactions then run and append *their*
    /// Commit records, and only afterwards does this transaction block on
    /// the durability watermark. One group-commit flush therefore makes the
    /// detecting transaction and its trigger firings durable together,
    /// instead of paying one fsync per system transaction.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let ticket = self.commit_start(txn)?;
        self.commit_wait(ticket)
    }

    /// The logical half of [`Database::commit`]: everything except the
    /// final durability wait. On return the transaction is committed —
    /// its Commit record is in the WAL buffer, its locks are released,
    /// its versions installed, and its dependent/!dependent firings have
    /// run — but the caller must not acknowledge it until
    /// [`Database::commit_wait`] on the returned ticket succeeds. The
    /// wire layer uses this split to let concurrent sessions' tickets
    /// ride one shared group-commit flush.
    pub fn commit_start(&self, txn: TxnId) -> Result<CommitTicket> {
        // Snapshot transactions posted no events and advanced no trigger
        // state, so the whole commit ceremony collapses: drop the (empty)
        // scratchpad, release the snapshot, and wait on the begin-time
        // read barrier so the acknowledged reads are durable.
        if self.storage.is_read_only(txn) {
            let _ = self.drop_txn_local(txn);
            return Ok(self.storage.commit_deferred(txn)?);
        }
        if let Err(e) = self.pre_commit(txn) {
            // An end action or tcomplete trigger aborted the transaction
            // (e.g. tabort, or a constraint check). Take the full abort
            // path, which still honours !dependent firings.
            let _ = self.abort(txn);
            return Err(e);
        }
        let mut local = self.drop_txn_local(txn);
        // One settle pass for every statenum advanced in this
        // transaction — the deferred half of §6's read-becomes-write
        // lock amplification (S locks from cache-miss reads upgrade to X
        // here; only changed statenums are written).
        if let Err(e) = self.flush_trigger_states(txn, &mut local) {
            let _ = self.storage.abort(txn);
            self.run_detached(local.indep_list, None);
            return Err(e);
        }
        self.metrics()
            .commit_queue_depth
            .add((local.dep_list.len() + local.indep_list.len()) as u64);
        match self.storage.commit_deferred(txn) {
            Ok(ticket) => {
                // The dependent list may run as soon as the detecting
                // transaction is logically committed (its locks are free,
                // its Commit record's WAL position fixed); each system
                // transaction's own commit rides the shared flush batch.
                self.run_detached(local.dep_list, Some(txn));
                self.run_detached(local.indep_list, None);
                Ok(ticket)
            }
            Err(e) => {
                // storage.commit_deferred aborts the transaction itself on
                // a failed commit dependency. !dependent actions still run
                // — they are independent of the detecting transaction's
                // fate.
                self.run_detached(local.indep_list, None);
                Err(e.into())
            }
        }
    }

    /// Block until the ticket's commit is durable (the deferred half of
    /// [`Database::commit_start`]).
    pub fn commit_wait(&self, ticket: CommitTicket) -> Result<()> {
        self.storage.commit_wait(ticket).map_err(Into::into)
    }

    /// Abort: post `before tabort`, roll back, then run the `!dependent`
    /// list in a system transaction.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let active = matches!(
            self.storage.txn_manager().state(txn),
            Some(TxnState::Active)
        );
        // Snapshot transactions never accumulate txn-event objects, and
        // posting events on one would fail anyway: skip straight to the
        // storage abort (which releases the snapshot).
        if active && !self.storage.is_read_only(txn) {
            // Best effort: the event postings and any immediate actions
            // they fire are about to be rolled back anyway; their only
            // durable consequence is scheduling !dependent firings.
            let _ = self.post_txn_events(txn, false);
        }
        // Drop the scratchpad wholesale: cached trigger-state advances die
        // here without ever having touched storage.
        let local = self.drop_txn_local(txn);
        self.metrics()
            .abort_queue_depth
            .add(local.indep_list.len() as u64);
        let result = if active {
            self.storage.abort(txn).map_err(Into::into)
        } else {
            Err(crate::error::OdeError::Storage(StorageError::TxnNotActive(
                txn,
            )))
        };
        self.run_detached(local.indep_list, None);
        result
    }

    fn pre_commit(&self, txn: TxnId) -> Result<()> {
        self.drain_end_list(txn)?;
        self.post_txn_events(txn, true)?;
        // tcomplete triggers may themselves schedule end actions.
        self.drain_end_list(txn)?;
        Ok(())
    }

    fn drain_end_list(&self, txn: TxnId) -> Result<()> {
        for _ in 0..MAX_END_ROUNDS {
            let batch: Vec<Firing> = {
                let mut locals = self.txn_local.lock(txn);
                match locals.get_mut(&txn) {
                    Some(local) => std::mem::take(&mut local.end_list),
                    None => Vec::new(),
                }
            };
            if batch.is_empty() {
                return Ok(());
            }
            for firing in batch {
                self.fire(txn, &firing, false)?;
            }
        }
        Err(crate::error::OdeError::Action(
            "end-coupled trigger cascade did not quiesce".into(),
        ))
    }

    /// Post `before tcomplete` / `before tabort` to every object on the
    /// transaction event object list.
    fn post_txn_events(&self, txn: TxnId, complete: bool) -> Result<()> {
        let oids: Vec<ode_storage::Oid> = {
            let locals = self.txn_local.lock(txn);
            locals
                .get(&txn)
                .map(|l| l.txn_event_objects.clone())
                .unwrap_or_default()
        };
        for oid in oids {
            let header = match self.read_raw(txn, oid) {
                Ok((h, _)) => h,
                // Deleted within the transaction: nothing to notify.
                Err(_) => continue,
            };
            let Ok(entry) = self.entry_by_id(header.class_id) else {
                continue;
            };
            for event in entry.td.txn_event_ids(complete) {
                self.post_event(txn, oid, event)?;
            }
        }
        Ok(())
    }

    /// Run detached firings in a fresh system transaction (§5.5: "it
    /// starts a new system transaction … and executes the relevant
    /// actions"). Failures abort only the system transaction and are
    /// counted, not propagated — the user transaction has already
    /// committed or aborted.
    fn run_detached(&self, firings: Vec<Firing>, depends_on: Option<TxnId>) {
        if firings.is_empty() {
            return;
        }
        let coupling = if depends_on.is_some() {
            ode_obs::coupling_label::DEPENDENT
        } else {
            ode_obs::coupling_label::INDEPENDENT
        };
        let run = || -> Result<()> {
            let stxn = self.storage.begin_system()?;
            let mut span = ode_trace::span(ode_trace::SpanKind::SystemTxn, coupling);
            span.payload(stxn.0, depends_on.map_or(0, |t| t.0));
            self.metrics()
                .emit(|| ode_obs::FlightEvent::SystemTxnStarted {
                    txn: stxn.0,
                    parent: depends_on.map(|t| t.0),
                    coupling: ode_obs::SmallStr::new(coupling),
                });
            if let Some(on) = depends_on {
                self.storage.add_commit_dependency(stxn, on)?;
            }
            for firing in &firings {
                if let Err(e) = self.fire(stxn, firing, false) {
                    let _ = self.abort(stxn);
                    return Err(e);
                }
            }
            self.commit(stxn)
        };
        if run().is_err() {
            self.metrics().detached_failures.inc();
        }
    }
}
