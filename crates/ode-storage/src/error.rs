//! Error types for the storage substrate.

use crate::oid::{Oid, PageId};
use crate::txn::TxnId;

/// Every storage operation returns this result type.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors surfaced by the storage engines, lock manager, and transaction
/// manager.
#[allow(missing_docs)] // fields are self-describing
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The object identified by the Oid does not exist (never allocated or
    /// already freed).
    NoSuchObject(Oid),
    /// A page id beyond the end of the store was referenced.
    NoSuchPage(PageId),
    /// A record was too large to store even with overflow chaining.
    RecordTooLarge(usize),
    /// The transaction was aborted because the lock manager chose it as a
    /// deadlock victim.
    Deadlock(TxnId),
    /// A lock request timed out.
    LockTimeout(TxnId),
    /// An operation was attempted on a transaction that is no longer active.
    TxnNotActive(TxnId),
    /// A commit dependency failed: the transaction this one depends on
    /// aborted, so this one must abort too.
    DependencyAborted { txn: TxnId, on: TxnId },
    /// The database file is corrupt or has an unexpected format.
    Corrupt(String),
    /// A file was written in an on-disk layout this version does not
    /// read (for example a version-0 data file, whose torn-page repairs
    /// live outside the WAL).
    UnsupportedFormat(String),
    /// Decoding a stored value failed.
    Codec(String),
    /// The named root does not exist.
    NoSuchRoot(String),
    /// The transaction was explicitly aborted by user code (Ode's `tabort`).
    /// Carries an application-supplied reason.
    UserAbort(String),
    /// A WAL write or fsync failed, so the on-disk tail state is unknowable
    /// and no commit can be acknowledged until the log is reopened and
    /// recovered (fail-stop fsync semantics).
    WalPoisoned(String),
    /// A durability wait named an LSN past the end of the log: no record
    /// ends there, so no flush can ever make it durable. Carries the
    /// requested LSN and the log end it was checked against.
    LsnPastEnd { target: u64, end: u64 },
    /// A read-only snapshot transaction attempted a write operation.
    ReadOnlyTxn(TxnId),
    /// A quiesced checkpoint was requested while transactions were still
    /// active (carries how many). Use the fuzzy checkpoint to checkpoint
    /// under load.
    NotQuiesced(usize),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::NoSuchObject(oid) => write!(f, "no such object: {oid}"),
            StorageError::NoSuchPage(p) => write!(f, "no such page: {p}"),
            StorageError::RecordTooLarge(n) => write!(f, "record too large: {n} bytes"),
            StorageError::Deadlock(t) => write!(f, "transaction {t} chosen as deadlock victim"),
            StorageError::LockTimeout(t) => {
                write!(f, "transaction {t} timed out waiting for a lock")
            }
            StorageError::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            StorageError::DependencyAborted { txn, on } => {
                write!(
                    f,
                    "transaction {txn} aborted: commit dependency on {on} failed"
                )
            }
            StorageError::Corrupt(m) => write!(f, "database corrupt: {m}"),
            StorageError::UnsupportedFormat(m) => write!(f, "unsupported file format: {m}"),
            StorageError::Codec(m) => write!(f, "codec error: {m}"),
            StorageError::NoSuchRoot(n) => write!(f, "no such named root: {n:?}"),
            StorageError::UserAbort(m) => write!(f, "transaction aborted by application: {m}"),
            StorageError::WalPoisoned(m) => {
                write!(f, "write-ahead log poisoned by an i/o failure: {m}")
            }
            StorageError::LsnPastEnd { target, end } => {
                write!(f, "durability wait for lsn {target} past the log end {end}")
            }
            StorageError::ReadOnlyTxn(t) => {
                write!(f, "read-only snapshot transaction {t} attempted a write")
            }
            StorageError::NotQuiesced(n) => {
                write!(
                    f,
                    "quiesced checkpoint refused: {n} transaction(s) still active"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl StorageError {
    /// True when the error means "this transaction has been aborted" (victim
    /// of deadlock, dependency failure, or explicit user abort) rather than a
    /// hard environment failure.
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            StorageError::Deadlock(_)
                | StorageError::DependencyAborted { .. }
                | StorageError::UserAbort(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::NoSuchObject(Oid::new(3, 7));
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn abort_classification() {
        assert!(StorageError::Deadlock(TxnId(1)).is_abort());
        assert!(StorageError::UserAbort("over limit".into()).is_abort());
        assert!(!StorageError::Corrupt("x".into()).is_abort());
    }

    #[test]
    fn io_error_converts() {
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(matches!(e, StorageError::Io(_)));
    }
}
