//! Phoenix transactions — §6's missing piece, implemented.
//!
//! The paper drops `after tcommit` because "it would be very expensive to
//! ensure that after tcommit will be posted even if the system crashes.
//! […] Reasonable semantics for after commit require the use of a
//! *phoenix transaction*, one that once started will never stop trying to
//! execute until it has completed — even if it must be restarted after
//! the system crashes."
//!
//! This module provides exactly that: a durable queue of named work items.
//! [`Database::enqueue_phoenix`] writes a queue record inside the caller's
//! transaction, so the item becomes durable *iff* that transaction commits
//! — giving reliable after-commit semantics without the serialization
//! anomalies §6 worries about (the item is only ever *observed* by
//! [`Database::run_phoenix`], which executes each item in its own system
//! transaction and removes it only on success). After a crash, reopen the
//! database, re-register the handlers, and call `run_phoenix` again: the
//! surviving items run to completion.
//!
//! Handlers are run-time closures registered per session (like class
//! descriptors, §5.1.3); items whose handler is not registered are left in
//! the queue untouched.

use crate::database::Database;
use crate::error::{OdeError, Result};
use bytes::BytesMut;
use ode_storage::codec::{decode_all, decode_bytes, encode_bytes, encode_to_vec, Decode, Encode};
use ode_storage::{ClusterId, Oid, TxnId};
use std::sync::Arc;

/// A phoenix work item handler. Runs inside a dedicated system
/// transaction; returning `Err` aborts that transaction and leaves the
/// item queued for a later retry.
pub type PhoenixHandler = Arc<dyn Fn(&Database, TxnId, &[u8]) -> Result<()> + Send + Sync>;

const ROOT_PHOENIX_CLUSTER: &str = "ode.phoenix_cluster";

/// One durable queue record.
#[derive(Debug, Clone, PartialEq)]
struct PhoenixRecord {
    handler: String,
    payload: Vec<u8>,
    attempts: u32,
}

impl Encode for PhoenixRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.handler.encode(buf);
        encode_bytes(&self.payload, buf);
        self.attempts.encode(buf);
    }
}
impl Decode for PhoenixRecord {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(PhoenixRecord {
            handler: String::decode(buf)?,
            payload: decode_bytes(buf)?.to_vec(),
            attempts: u32::decode(buf)?,
        })
    }
}

/// Outcome of one [`Database::run_phoenix`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhoenixReport {
    /// Items executed and removed.
    pub executed: usize,
    /// Items whose handler failed; they stay queued (attempts bumped).
    pub failed: usize,
    /// Items whose handler is not registered this session; left queued.
    pub unresolved: usize,
}

impl Database {
    /// Register (or replace) the handler behind a phoenix item name.
    pub fn register_phoenix_handler(
        &self,
        name: &str,
        f: impl Fn(&Database, TxnId, &[u8]) -> Result<()> + Send + Sync + 'static,
    ) {
        self.phoenix_handlers
            .write()
            .insert(name.to_string(), Arc::new(f));
    }

    /// Get-or-create the queue's cluster.
    fn phoenix_cluster(&self, txn: TxnId) -> Result<ClusterId> {
        match self.storage.get_root(txn, ROOT_PHOENIX_CLUSTER) {
            Ok(marker) => Ok(marker.page()),
            Err(ode_storage::StorageError::NoSuchRoot(_)) => {
                let cluster = self.storage.create_cluster(txn)?;
                self.storage
                    .set_root(txn, ROOT_PHOENIX_CLUSTER, Oid::new(cluster, 0))?;
                Ok(cluster)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Enqueue a phoenix item inside `txn`. The item becomes durable when
    /// `txn` commits (and vanishes with it when `txn` aborts — enqueueing
    /// *is* the commit hook). Returns the queue record's Oid.
    pub fn enqueue_phoenix<P: Encode>(
        &self,
        txn: TxnId,
        handler: &str,
        payload: &P,
    ) -> Result<Oid> {
        let cluster = self.phoenix_cluster(txn)?;
        let rec = PhoenixRecord {
            handler: handler.to_string(),
            payload: encode_to_vec(payload),
            attempts: 0,
        };
        Ok(self.storage.allocate(txn, cluster, &encode_to_vec(&rec))?)
    }

    /// Number of queued items.
    pub fn pending_phoenix(&self, txn: TxnId) -> Result<usize> {
        match self.storage.get_root(txn, ROOT_PHOENIX_CLUSTER) {
            Ok(marker) => Ok(self.storage.scan_cluster(txn, marker.page())?.len()),
            Err(ode_storage::StorageError::NoSuchRoot(_)) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Execute every queued item whose handler is registered, each in its
    /// own system transaction. Items are removed only when their handler's
    /// transaction commits; failures stay queued with a bumped attempt
    /// counter. Call after every open (and whenever new items may have
    /// accumulated).
    pub fn run_phoenix(&self) -> Result<PhoenixReport> {
        let mut report = PhoenixReport::default();
        // Snapshot the queue in a read transaction.
        let items: Vec<Oid> = {
            let txn = self.storage.begin()?;
            let items = match self.storage.get_root(txn, ROOT_PHOENIX_CLUSTER) {
                Ok(marker) => self.storage.scan_cluster(txn, marker.page())?,
                Err(ode_storage::StorageError::NoSuchRoot(_)) => Vec::new(),
                Err(e) => {
                    let _ = self.storage.abort(txn);
                    return Err(e.into());
                }
            };
            self.storage.commit(txn)?;
            items
        };
        for oid in items {
            let outcome = self.run_phoenix_item(oid)?;
            match outcome {
                ItemOutcome::Executed => report.executed += 1,
                ItemOutcome::Failed => report.failed += 1,
                ItemOutcome::Unresolved => report.unresolved += 1,
                ItemOutcome::Gone => {}
            }
        }
        Ok(report)
    }

    fn run_phoenix_item(&self, oid: Oid) -> Result<ItemOutcome> {
        let handler = {
            // Read the record first (own small transaction).
            let txn = self.storage.begin()?;
            let bytes = match self.storage.read(txn, oid) {
                Ok(b) => b,
                Err(ode_storage::StorageError::NoSuchObject(_)) => {
                    self.storage.commit(txn)?;
                    return Ok(ItemOutcome::Gone);
                }
                Err(e) => {
                    let _ = self.storage.abort(txn);
                    return Err(e.into());
                }
            };
            self.storage.commit(txn)?;
            let rec: PhoenixRecord = decode_all(&bytes)?;
            let Some(handler) = self.phoenix_handlers.read().get(&rec.handler).cloned() else {
                return Ok(ItemOutcome::Unresolved);
            };
            (rec, handler)
        };
        let (rec, handler_fn) = handler;

        // Execute in a dedicated system transaction; the dequeue is part
        // of the same transaction, so "executed" and "removed" are atomic.
        let stxn = self.storage.begin_system()?;
        let result = (|| -> Result<()> {
            handler_fn(self, stxn, &rec.payload)?;
            self.storage.free(stxn, oid)?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.commit(stxn)?;
                Ok(ItemOutcome::Executed)
            }
            Err(_) => {
                let _ = self.abort(stxn);
                // Bump the attempt counter durably (best effort).
                if let Ok(txn) = self.storage.begin() {
                    let bumped = (|| -> Result<()> {
                        let mut rec: PhoenixRecord = decode_all(&self.storage.read(txn, oid)?)?;
                        rec.attempts += 1;
                        self.storage.update(txn, oid, &encode_to_vec(&rec))?;
                        Ok(())
                    })();
                    if bumped.is_ok() {
                        let _ = self.storage.commit(txn);
                    } else {
                        let _ = self.storage.abort(txn);
                    }
                }
                Ok(ItemOutcome::Failed)
            }
        }
    }

    /// Inspect a queued item's attempt counter (monitoring/tests).
    pub fn phoenix_attempts(&self, txn: TxnId, oid: Oid) -> Result<u32> {
        let rec: PhoenixRecord = decode_all(&self.storage.read(txn, oid)?)?;
        Ok(rec.attempts)
    }
}

enum ItemOutcome {
    Executed,
    Failed,
    Unresolved,
    Gone,
}

// Silence the unused-error-variant lint path: OdeError is used in handler
// signatures above.
const _: fn(&str) -> OdeError = |m| OdeError::Schema(m.to_string());
