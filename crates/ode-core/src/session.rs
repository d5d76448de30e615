//! Per-client state: the [`Session`].
//!
//! Everything the embedded API threads through method arguments — which
//! database, which transaction — gathered into one object. One session
//! per client (the `ode-server` wire layer creates one per connection);
//! sessions are not `Sync` and are driven from a single thread.
//!
//! A session owns at most one open transaction. Statements executed
//! through [`Session::execute`](crate::ddl) run inside it when open, or
//! in a per-statement autocommit transaction otherwise. Read-only
//! sessionized transactions ([`Session::begin_read_only`]) get the MVCC
//! snapshot path: reads take no locks and cannot deadlock.

use crate::database::Database;
use crate::engine::Engine;
use crate::error::{OdeError, Result};
use ode_storage::{CommitTicket, TxnId};
use std::collections::HashMap;
use std::sync::Arc;

/// A commit whose durability wait was deferred
/// ([`Session::set_defer_commits`]): logically committed, locks
/// released, but not yet acknowledged-durable. The holder must call
/// [`Database::commit_wait`] (directly or via [`Session::commit_wait_pending`])
/// before acknowledging the statement to the client.
pub struct PendingCommit {
    /// The database the transaction committed against.
    pub db: Arc<Database>,
    /// The durability ticket from [`Database::commit_start`].
    pub ticket: CommitTicket,
}

/// How a session decides which statements to trace (set by the `TRACE`
/// statement; `EXPLAIN` and a configured slow-statement log force
/// tracing regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Trace nothing (the default; spans cost one dead flag read).
    Off,
    /// Trace every statement.
    On,
    /// Trace every n-th statement.
    Sample(u64),
}

/// A client's connection state: engine, current database, open
/// transaction, span tracing.
pub struct Session {
    engine: Arc<Engine>,
    current: Option<(String, Arc<Database>)>,
    txn: Option<TxnId>,
    pub(crate) trace_mode: TraceMode,
    /// Statements executed since the last sampled trace.
    pub(crate) trace_countdown: u64,
    /// Rendered span tree of the most recent traced statement
    /// (`SHOW TRACE` returns it).
    pub(crate) last_trace: Option<String>,
    /// When true, autocommit statements and explicit `COMMIT`s stop at
    /// [`Database::commit_start`] and stash the ticket in
    /// `pending_commit` instead of blocking on durability.
    defer_commits: bool,
    /// The deferred commit of the last statement, if any (at most one:
    /// the wire layer takes it after every statement).
    pending_commit: Option<PendingCommit>,
    /// Named statements (`PREPARE <name> AS …`).
    pub(crate) prepared: HashMap<String, crate::ddl::Statement>,
}

impl Session {
    /// A fresh session with no current database and no open transaction.
    pub fn new(engine: Arc<Engine>) -> Session {
        engine.stats().session_opened();
        Session {
            engine,
            current: None,
            txn: None,
            trace_mode: TraceMode::Off,
            trace_countdown: 0,
            last_trace: None,
            defer_commits: false,
            pending_commit: None,
            prepared: HashMap::new(),
        }
    }

    /// Defer durability waits: with this set, a statement that commits
    /// (autocommit or explicit `COMMIT`) returns as soon as the commit
    /// is *logical* and parks its [`PendingCommit`] on the session. The
    /// caller must resolve it (see [`Session::take_pending_commit`])
    /// before acknowledging the statement — the wire layer makes a batch
    /// frame's tickets durable with one group-commit flush this way.
    pub fn set_defer_commits(&mut self, defer: bool) {
        self.defer_commits = defer;
    }

    /// Take the deferred commit of the last statement, if it produced
    /// one. The caller owns the durability wait from here.
    pub fn take_pending_commit(&mut self) -> Option<PendingCommit> {
        self.pending_commit.take()
    }

    /// Resolve any deferred commit inline (used on paths that must not
    /// leave the wait to the caller, and before stashing a new one).
    pub fn commit_wait_pending(&mut self) -> Result<()> {
        match self.pending_commit.take() {
            Some(pending) => pending.db.commit_wait(pending.ticket),
            None => Ok(()),
        }
    }

    /// Stash a deferred commit, resolving any previous one first so at
    /// most one ticket is ever parked on the session.
    fn stash_pending(&mut self, db: Arc<Database>, ticket: CommitTicket) -> Result<()> {
        self.commit_wait_pending()?;
        self.pending_commit = Some(PendingCommit { db, ticket });
        Ok(())
    }

    /// The engine this session talks to.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The current database name, if one was selected.
    pub fn current_database(&self) -> Option<&str> {
        self.current.as_ref().map(|(n, _)| n.as_str())
    }

    /// The current database handle; `USE <name>` (or
    /// [`Session::use_database`]) selects one.
    pub fn database(&self) -> Result<&Arc<Database>> {
        self.current
            .as_ref()
            .map(|(_, db)| db)
            .ok_or_else(|| OdeError::Schema("no database selected (USE <name> first)".into()))
    }

    /// Select the current database. Refused while a transaction is open
    /// (it belongs to the previous database).
    pub fn use_database(&mut self, name: &str) -> Result<()> {
        if self.txn.is_some() {
            return Err(OdeError::Schema(
                "cannot switch databases inside a transaction".into(),
            ));
        }
        let db = self.engine.database(name)?;
        self.current = Some((name.to_string(), db));
        Ok(())
    }

    /// The open transaction, if any.
    pub fn txn(&self) -> Option<TxnId> {
        self.txn
    }

    /// Begin a read-write transaction; at most one per session.
    pub fn begin(&mut self) -> Result<TxnId> {
        if self.txn.is_some() {
            return Err(OdeError::Schema("transaction already open".into()));
        }
        let txn = self.database()?.begin()?;
        self.txn = Some(txn);
        self.engine.stats().txn_opened();
        Ok(txn)
    }

    /// Begin a read-only MVCC snapshot transaction (PR 6 semantics: no
    /// locks, no deadlocks, consistent commit point).
    pub fn begin_read_only(&mut self) -> Result<TxnId> {
        if self.txn.is_some() {
            return Err(OdeError::Schema("transaction already open".into()));
        }
        let txn = self.database()?.begin_read_only()?;
        self.txn = Some(txn);
        self.engine.stats().txn_opened();
        Ok(txn)
    }

    /// Commit the open transaction (running its end/dependent/!dependent
    /// firings per the coupling rules). The session transaction is closed
    /// whether the commit succeeds or not.
    pub fn commit(&mut self) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| OdeError::Schema("no open transaction".into()))?;
        self.engine.stats().txn_closed();
        let db = Arc::clone(self.database()?);
        if self.defer_commits {
            let ticket = db.commit_start(txn)?;
            return self.stash_pending(db, ticket);
        }
        db.commit(txn)
    }

    /// Abort the open transaction if there is one — the tabort rule for
    /// errors that happen before a statement ever reaches the executor
    /// (parse errors): a failed statement takes the whole transaction
    /// down, whatever stage it failed at.
    pub(crate) fn abort_open_txn(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.engine.stats().txn_closed();
            if let Ok(db) = self.database() {
                let _ = db.abort(txn);
            }
        }
    }

    /// Abort the open transaction.
    pub fn abort(&mut self) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| OdeError::Schema("no open transaction".into()))?;
        self.engine.stats().txn_closed();
        self.database()?.abort(txn)
    }

    /// Run `f` in the session's transaction scope: inside the open
    /// transaction when there is one (an error aborts it — `tabort`
    /// semantics take the whole transaction down), or in a per-call
    /// autocommit transaction otherwise.
    pub fn with_session_txn<R>(
        &mut self,
        f: impl FnOnce(&Database, TxnId) -> Result<R>,
    ) -> Result<R> {
        let db = Arc::clone(self.database()?);
        match self.txn {
            Some(txn) => match f(&db, txn) {
                Ok(value) => Ok(value),
                Err(e) => {
                    self.txn = None;
                    self.engine.stats().txn_closed();
                    let _ = db.abort(txn);
                    Err(e)
                }
            },
            None if self.defer_commits => {
                // The autocommit analogue of `Database::with_txn`, but
                // stopping at the logical commit and parking the ticket.
                let txn = db.begin()?;
                match f(&db, txn) {
                    Ok(value) => {
                        let ticket = db.commit_start(txn)?;
                        self.stash_pending(db, ticket)?;
                        Ok(value)
                    }
                    Err(e) => {
                        let _ = db.abort(txn);
                        Err(e)
                    }
                }
            }
            None => db.with_txn(|txn| f(&db, txn)),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.engine.stats().session_closed();
        // A dropped connection must not leak its locks.
        if let (Some(txn), Some((_, db))) = (self.txn.take(), self.current.as_ref()) {
            self.engine.stats().txn_closed();
            let _ = db.abort(txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_txn_lifecycle() {
        let engine = Engine::volatile();
        engine.create_database("t").unwrap();
        let mut s = engine.session();
        assert!(s.database().is_err(), "no database selected yet");
        s.use_database("t").unwrap();
        s.begin().unwrap();
        assert!(s.begin().is_err(), "one txn per session");
        assert!(s.use_database("t").is_err(), "no USE inside a txn");
        s.commit().unwrap();
        assert!(s.commit().is_err(), "nothing open");
        s.begin_read_only().unwrap();
        s.abort().unwrap();
    }

    #[test]
    fn dropping_a_session_aborts_its_transaction() {
        let engine = Engine::volatile();
        let db = engine.create_database("t").unwrap();
        {
            let mut s = engine.session();
            s.use_database("t").unwrap();
            s.begin().unwrap();
        }
        // The dropped session's transaction no longer holds anything: a
        // fresh writer proceeds immediately.
        db.with_txn(|_| Ok(())).unwrap();
    }
}
