//! # ode-storage — the storage substrate of the Ode reproduction
//!
//! The Ode object manager "is built on top of a storage manager which
//! provides much of the required database functionality such as locking,
//! logging, transactions" (§2 of the paper). Ode shipped on two such
//! managers: the disk-based **EOS** and the main-memory **Dali** (for
//! MM-Ode), sharing one run-time. This crate reproduces that layering:
//!
//! * [`storage::Storage`] — the transactional object heap. One facade, two
//!   engines ([`storage::EngineKind::Disk`] / [`storage::EngineKind::Memory`]),
//!   shared locking/transaction/rollback run-time.
//! * [`page`] — slotted pages; [`disk`] + [`buffer`] — the EOS-like page
//!   file (positional page I/O, a doublewrite journal against torn page
//!   writes) and its steal/no-force buffer pool; [`mem`] — the Dali-like
//!   in-memory page store with checkpoint durability.
//! * [`wal`] — physiological write-ahead logging with ARIES-style
//!   recovery: repeat history from the checkpoint, then abort the losers
//!   through the same logged rollback a live abort uses.
//! * [`hash`] — the one hasher for engine-issued integer keys
//!   ([`IntMap`], [`IntSet`]).
//! * [`fault`] — the fault injector the crash-recovery harness tears
//!   writes and fails fsyncs with.
//! * [`lock`] — strict 2PL with deadlock detection and wait statistics
//!   (the measurement hook for the paper's "triggers turn reads into
//!   writes" observation, §6).
//! * [`txn`] — transactions, system transactions, and commit dependencies
//!   (the substrate for the `dependent`/`!dependent` coupling modes, §5.5).
//! * [`version`] — per-object version chains backing MVCC snapshot reads:
//!   read-only transactions bypass the lock manager entirely, which
//!   removes the §6 read-amplification ceiling for pure readers.
//! * [`btree`] — a persistent B+-tree (disk-Ode's ordered index, §5.6).
//! * [`codec`] — explicit, layout-stable binary encoding (§3, goal 5).
//!
//! ## Quick start
//!
//! ```
//! use ode_storage::storage::Storage;
//!
//! let db = Storage::volatile();
//! let txn = db.begin().unwrap();
//! let cluster = db.create_cluster(txn).unwrap();
//! let oid = db.allocate(txn, cluster, b"hello").unwrap();
//! assert_eq!(db.read(txn, oid).unwrap(), b"hello");
//! db.commit(txn).unwrap();
//! ```

#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod error;
pub mod fault;
pub mod hash;
pub mod lock;
pub mod mem;
pub mod oid;
pub mod page;
pub mod storage;
pub mod txn;
pub mod version;
pub mod wal;

pub use error::{Result, StorageError};
pub use fault::{FaultFile, FaultInjector};
pub use hash::{IntMap, IntSet};
pub use oid::{ClusterId, Oid, PageId};
pub use storage::{CommitTicket, EngineKind, Storage, StorageOptions};
pub use txn::{TxnId, TxnState};
pub use version::{SnapshotLookup, VersionStats};
