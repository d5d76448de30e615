//! The Ode object manager: databases, classes, and persistent objects.
//!
//! A [`Database`] combines a storage engine (EOS-like disk or Dali-like
//! main-memory, §5.6) with the trigger run-time: a persistent schema
//! (class name → class id + cluster), the trigger-state cluster whose
//! records each anchor's header lists (§5.1.3's object → triggers map, see
//! [`crate::object`]), and per-transaction trigger lists (§5.5).
//!
//! Classes are *registered* each session ([`Database::register_class`])
//! exactly as O++ programs carry complete class definitions and recompile
//! the FSMs "every time we compile an O++ program" (§5.1.3) — only
//! class-id/cluster assignments persist.
//!
//! Member-function events are posted by [`Database::invoke`], the stand-in
//! for the O++ compiler's wrapper functions (§5.3): it posts `before f`,
//! runs the body against the object, writes the object back, and posts
//! `after f` — and only for calls through [`PersistentPtr`]s. Methods
//! called on plain Rust values post nothing (design goal 4).

use crate::context::TriggerStats;
use crate::error::{OdeError, Result};
use crate::intern::{Interner, Sym};
use crate::metatype::TypeDescriptor;
use crate::object::{ObjectHeader, OdeObject, PersistentPtr};
use crate::post::Firing;
use crate::trigger::CachedTriggerState;
use bytes::{BufMut, BytesMut};
use ode_events::event::EventTime;
use ode_events::registry::EventRegistry;
use ode_storage::codec::{decode_all, encode_to_vec, Decode, Encode};
use ode_storage::{ClusterId, IntMap, Oid, Storage, StorageOptions, TxnId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A registered class: persistent ids plus the session's descriptor.
#[derive(Clone)]
pub(crate) struct ClassEntry {
    pub id: u32,
    pub cluster: ClusterId,
    /// The class name's interned symbol (same interner as the trigger
    /// records, so hot-path lookups never compare strings).
    pub sym: Sym,
    pub td: Arc<TypeDescriptor>,
}

/// The class directory. Ids and symbols are engine-issued integers and
/// hash with [`IntMap`]; names come from clients and keep std's keyed
/// hasher.
#[derive(Default)]
struct Schema {
    by_name: HashMap<String, ClassEntry>,
    by_id: IntMap<u32, String>,
    by_sym: IntMap<Sym, ClassEntry>,
}

/// The persisted part of the schema.
struct SchemaRecord {
    next_class_id: u32,
    classes: Vec<(String, u32, ClusterId)>,
}

impl Encode for SchemaRecord {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.next_class_id);
        self.classes.encode(buf);
    }
}

impl Decode for SchemaRecord {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(SchemaRecord {
            next_class_id: u32::decode(buf)?,
            classes: Vec::<(String, u32, ClusterId)>::decode(buf)?,
        })
    }
}

/// Per-transaction trigger bookkeeping (§5.5's lists).
#[derive(Default)]
pub(crate) struct TxnLocal {
    /// `end`-coupled firings, run right before commit.
    pub end_list: Vec<Firing>,
    /// `dependent` firings, run in a system transaction after commit.
    pub dep_list: Vec<Firing>,
    /// `!dependent` firings, run in a system transaction after commit *or*
    /// abort.
    pub indep_list: Vec<Firing>,
    /// Objects interested in transaction events, noted on first access.
    pub txn_event_objects: Vec<Oid>,
    /// Volatile local-rule instances (§8 "local rules"), dropped at end of
    /// transaction.
    pub local_triggers: Vec<crate::local::LocalInstance>,
    /// Trigger states touched by this transaction: decoded once on first
    /// advance, dirty `statenum`s settled in one pass at commit — X-locked
    /// always, written only when changed — and simply dropped on abort
    /// (storage was never written).
    pub state_cache: IntMap<Oid, CachedTriggerState>,
}

/// An Ode database: object manager + trigger run-time over a storage
/// engine.
pub struct Database {
    pub(crate) storage: Arc<Storage>,
    registry: Arc<EventRegistry>,
    schema: RwLock<Schema>,
    /// System cluster: the schema record and attribute-index B-tree nodes.
    pub(crate) trigger_cluster: ClusterId,
    /// Every `TriggerState` record and nothing else, so full scans
    /// (`tick`, `SHOW TRIGGERS`, `verify_integrity`) enumerate active
    /// triggers without touching objects.
    pub(crate) state_cluster: ClusterId,
    /// Per-transaction scratch state ([`TxnLocal`]), keyed by transaction.
    pub(crate) txn_local: Mutex<IntMap<TxnId, TxnLocal>>,
    /// Session-wide name interner backing every [`Sym`] in the trigger
    /// run-time.
    pub(crate) interner: Interner,
    /// Metrics snapshot taken at the last [`Database::reset_trigger_stats`];
    /// [`Database::trigger_stats`] is the difference between the live
    /// registry and this baseline (off the hot path — posting itself only
    /// ticks lock-free counters).
    stats_baseline: Mutex<ode_obs::MetricsSnapshot>,
    /// Number of live local-rule instances across all transactions; lets
    /// posting skip the txn-local lock entirely when zero (the common
    /// case).
    pub(crate) live_local_rules: AtomicUsize,
    pub(crate) phoenix_handlers: RwLock<HashMap<String, crate::phoenix::PhoenixHandler>>,
    pub(crate) indexes: RwLock<crate::index::IndexRegistry>,
    /// Classes defined through the DDL surface ([`crate::ddl`]); the mutex
    /// serializes `CREATE CLASS`/`CREATE TRIGGER` descriptor rebuilds.
    pub(crate) ddl: Mutex<crate::ddl::DdlCatalog>,
}

const ROOT_SCHEMA: &str = "ode.schema";
const ROOT_TRIGGER_CLUSTER: &str = "ode.trigger_cluster";
const ROOT_STATE_CLUSTER: &str = "ode.state_cluster";

impl Database {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Create a new database in `dir`.
    pub fn create(dir: &Path, options: StorageOptions) -> Result<Database> {
        let storage = Arc::new(Storage::create(dir, options)?);
        Database::bootstrap(storage)
    }

    /// Open an existing database in `dir` (runs recovery when needed).
    pub fn open(dir: &Path, options: StorageOptions) -> Result<Database> {
        let storage = Arc::new(Storage::open(dir, options)?);
        Database::attach(storage)
    }

    /// A fully volatile in-memory database (tests, examples).
    pub fn volatile() -> Database {
        let storage = Arc::new(Storage::volatile());
        Database::bootstrap(storage).expect("volatile bootstrap cannot fail")
    }

    /// [`Database::volatile`] with explicit storage options (the engine is
    /// forced to memory), e.g. a lock timeout or a slow-statement
    /// threshold.
    pub fn volatile_with(options: StorageOptions) -> Database {
        let storage = Arc::new(Storage::volatile_with(options));
        Database::bootstrap(storage).expect("volatile bootstrap cannot fail")
    }

    fn bootstrap(storage: Arc<Storage>) -> Result<Database> {
        let txn = storage.begin()?;
        let trigger_cluster = storage.create_cluster(txn)?;
        let state_cluster = storage.create_cluster(txn)?;
        let schema_rec = SchemaRecord {
            next_class_id: 1,
            classes: Vec::new(),
        };
        let schema_oid = storage.allocate(txn, trigger_cluster, &encode_to_vec(&schema_rec))?;
        storage.set_root(txn, ROOT_SCHEMA, schema_oid)?;
        // Cluster ids are stored as root "pointers" by packing them into
        // fake Oids (page = cluster id). Small but explicit.
        storage.set_root(txn, ROOT_TRIGGER_CLUSTER, Oid::new(trigger_cluster, 0))?;
        storage.set_root(txn, ROOT_STATE_CLUSTER, Oid::new(state_cluster, 0))?;
        storage.commit(txn)?;
        let registry = Arc::new(EventRegistry::with_metrics(Arc::clone(storage.metrics())));
        Ok(Database {
            storage,
            registry,
            schema: RwLock::new(Schema::default()),
            trigger_cluster,
            state_cluster,
            txn_local: Mutex::default(),
            interner: Interner::default(),
            stats_baseline: Mutex::new(ode_obs::MetricsSnapshot::default()),
            live_local_rules: AtomicUsize::new(0),
            phoenix_handlers: RwLock::new(HashMap::new()),
            indexes: RwLock::new(crate::index::IndexRegistry::default()),
            ddl: Mutex::new(crate::ddl::DdlCatalog::default()),
        })
    }

    fn attach(storage: Arc<Storage>) -> Result<Database> {
        let txn = storage.begin()?;
        let trigger_cluster = storage.get_root(txn, ROOT_TRIGGER_CLUSTER)?.page();
        let state_cluster = match storage.get_root(txn, ROOT_STATE_CLUSTER) {
            Ok(root) => root.page(),
            // Files written before object headers carried their trigger
            // refs kept the map in a separate hash index: opening one
            // would silently show no active triggers.
            Err(ode_storage::StorageError::NoSuchRoot(_)) => {
                storage.abort(txn)?;
                return Err(OdeError::UnsupportedFormat(format!(
                    "no {ROOT_STATE_CLUSTER} root: the file predates trigger refs in \
                     object headers"
                )));
            }
            Err(e) => return Err(e.into()),
        };
        storage.commit(txn)?;
        let registry = Arc::new(EventRegistry::with_metrics(Arc::clone(storage.metrics())));
        Ok(Database {
            storage,
            registry,
            schema: RwLock::new(Schema::default()),
            trigger_cluster,
            state_cluster,
            txn_local: Mutex::default(),
            interner: Interner::default(),
            stats_baseline: Mutex::new(ode_obs::MetricsSnapshot::default()),
            live_local_rules: AtomicUsize::new(0),
            phoenix_handlers: RwLock::new(HashMap::new()),
            indexes: RwLock::new(crate::index::IndexRegistry::default()),
            ddl: Mutex::new(crate::ddl::DdlCatalog::default()),
        })
    }

    /// Checkpoint and close.
    pub fn close(self) -> Result<()> {
        match Arc::try_unwrap(self.storage) {
            Ok(storage) => storage.close()?,
            // Other handles still hold the storage: take a best-effort
            // checkpoint. In-flight transactions make the quiesced path
            // refuse; that is fine — the WAL covers everything.
            Err(shared) => match shared.checkpoint() {
                Ok(()) | Err(ode_storage::StorageError::NotQuiesced(_)) => {}
                Err(e) => return Err(e.into()),
            },
        }
        Ok(())
    }

    /// The event registry used by this database instance. Build class
    /// descriptors against this registry so event ids line up.
    pub fn registry(&self) -> &Arc<EventRegistry> {
        &self.registry
    }

    /// The underlying storage engine (lock statistics, checkpoints…).
    pub fn storage(&self) -> &Arc<Storage> {
        &self.storage
    }

    /// Snapshot of every engine counter — locks, WAL, buffer pool, FSM
    /// compilation/run-time, and trigger firings by coupling mode — as a
    /// plain struct of `u64`s. See
    /// [`MetricsSnapshot::render_prometheus`](ode_obs::MetricsSnapshot::render_prometheus)
    /// for the text exposition format.
    pub fn stats(&self) -> ode_obs::MetricsSnapshot {
        self.storage.metrics().snapshot()
    }

    /// The live database-wide metrics registry (shared with the storage
    /// and event layers).
    pub fn metrics(&self) -> &Arc<ode_obs::Metrics> {
        self.storage.metrics()
    }

    /// Snapshot the always-on flight recorder: the last
    /// [`ode_obs::DEFAULT_FLIGHT_CAPACITY`] trace occurrences across every
    /// engine layer, oldest-first, each with a monotonic timestamp and the
    /// causal ids (txn, trigger, FSM states, LSN) needed to reconstruct
    /// the chain *posted event → FSM advances → firing → system txn →
    /// durable commit*.
    pub fn flight_log(&self) -> Vec<ode_obs::FlightRecord> {
        self.storage.metrics().flight_log()
    }

    /// Flight-log dumps preserved at anomalies (deadlock victim
    /// selection, lock timeout, WAL poisoning), oldest-first.
    pub fn flight_dumps(&self) -> Vec<ode_obs::FlightDump> {
        self.storage.metrics().flight_dumps()
    }

    /// Snapshot of trigger-runtime statistics — a view derived from the
    /// lock-free metrics registry (minus the [`Database::reset_trigger_stats`]
    /// baseline), so the posting hot path never takes a statistics mutex.
    pub fn trigger_stats(&self) -> TriggerStats {
        let snap = self.storage.metrics().snapshot();
        let base = *self.stats_baseline.lock();
        let d = |now: u64, then: u64| now.saturating_sub(then);
        TriggerStats {
            events_posted: d(snap.events_posted, base.events_posted),
            fsm_advances: d(snap.fsm_advances, base.fsm_advances),
            mask_evaluations: d(snap.mask_evaluations, base.mask_evaluations),
            immediate_firings: d(snap.firings_immediate, base.firings_immediate),
            deferred_firings: d(
                snap.firings_end + snap.firings_dependent + snap.firings_independent,
                base.firings_end + base.firings_dependent + base.firings_independent,
            ),
            activations: d(snap.trigger_activations, base.trigger_activations),
            deactivations: d(snap.trigger_deactivations, base.trigger_deactivations),
            detached_failures: d(snap.detached_failures, base.detached_failures),
            index_skips: d(snap.index_skips, base.index_skips),
        }
    }

    /// Reset trigger-runtime statistics (benchmarks). The engine-wide
    /// metrics registry is left untouched; only the
    /// [`Database::trigger_stats`] view rebases to the current counters.
    pub fn reset_trigger_stats(&self) {
        *self.stats_baseline.lock() = self.storage.metrics().snapshot();
    }

    /// The *stored* FSM state number of an active trigger — what is (or
    /// will be, once committed) on disk, bypassing any in-transaction
    /// cached advance. Crash-recovery tests use this to check that trigger
    /// FSM positions roll back and survive with their transaction.
    pub fn trigger_statenum(&self, txn: TxnId, id: crate::trigger::TriggerId) -> Result<u32> {
        let raw = self.storage.read(txn, id.oid())?;
        let rec = crate::trigger::TriggerStateRec::decode_with(&raw, &self.interner)?;
        Ok(rec.statenum)
    }

    // ------------------------------------------------------------------
    // Schema
    // ------------------------------------------------------------------

    fn load_schema_record(&self, txn: TxnId) -> Result<(Oid, SchemaRecord)> {
        let oid = self.storage.get_root(txn, ROOT_SCHEMA)?;
        let rec = decode_all(&self.storage.read(txn, oid)?)?;
        Ok((oid, rec))
    }

    /// The cluster of every class the schema record has ever assigned,
    /// registered this session or not.
    pub(crate) fn class_clusters(&self, txn: TxnId) -> Result<Vec<ClusterId>> {
        let (_, rec) = self.load_schema_record(txn)?;
        Ok(rec.classes.iter().map(|&(_, _, cluster)| cluster).collect())
    }

    /// Register a class descriptor for this session, assigning (or
    /// recovering) its persistent class id and cluster. Base classes are
    /// registered automatically. Idempotent.
    pub fn register_class(&self, td: &Arc<TypeDescriptor>) -> Result<()> {
        for base in td.bases() {
            self.register_class(base)?;
        }
        // Fast path: already registered this session. The read guard must
        // be dropped before the replace path takes the write lock — an
        // `if let` on the guard itself would hold it across the body and
        // self-deadlock.
        let existing = self.schema.read().by_name.get(td.name()).cloned();
        if let Some(entry) = existing {
            if !Arc::ptr_eq(&entry.td, td) {
                // Replace the descriptor (e.g. a rebuilt one); ids persist.
                let mut schema = self.schema.write();
                let entry = ClassEntry {
                    td: Arc::clone(td),
                    ..entry
                };
                schema.by_sym.insert(entry.sym, entry.clone());
                schema.by_name.insert(td.name().to_string(), entry);
            }
            return Ok(());
        }
        let txn = self.storage.begin()?;
        let result = (|| {
            let (schema_oid, mut rec) = self.load_schema_record(txn)?;
            let (id, cluster) = match rec.classes.iter().find(|(name, _, _)| name == td.name()) {
                Some(&(_, id, cluster)) => (id, cluster),
                None => {
                    let id = rec.next_class_id;
                    rec.next_class_id += 1;
                    let cluster = self.storage.create_cluster(txn)?;
                    rec.classes.push((td.name().to_string(), id, cluster));
                    self.storage.update(txn, schema_oid, &encode_to_vec(&rec))?;
                    (id, cluster)
                }
            };
            Ok::<_, OdeError>((id, cluster))
        })();
        match result {
            Ok((id, cluster)) => {
                self.storage.commit(txn)?;
                let sym = self.interner.intern(td.name());
                let entry = ClassEntry {
                    id,
                    cluster,
                    sym,
                    td: Arc::clone(td),
                };
                let mut schema = self.schema.write();
                schema.by_name.insert(td.name().to_string(), entry.clone());
                schema.by_sym.insert(sym, entry);
                schema.by_id.insert(id, td.name().to_string());
                Ok(())
            }
            Err(e) => {
                let _ = self.storage.abort(txn);
                Err(e)
            }
        }
    }

    /// Every registered class name, sorted — DDL-defined and
    /// host-registered alike (`SHOW CLASSES` / `SHOW TRIGGERS`).
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.schema.read().by_name.keys().cloned().collect();
        names.sort();
        names
    }

    /// Look up a registered class's descriptor.
    pub fn descriptor(&self, class: &str) -> Option<Arc<TypeDescriptor>> {
        self.schema
            .read()
            .by_name
            .get(class)
            .map(|e| Arc::clone(&e.td))
    }

    pub(crate) fn entry(&self, class: &str) -> Result<ClassEntry> {
        self.schema
            .read()
            .by_name
            .get(class)
            .cloned()
            .ok_or_else(|| OdeError::Schema(format!("class {class:?} is not registered")))
    }

    /// Hot-path class lookup by interned symbol — one integer-keyed map
    /// probe, no string hashing, no allocation beyond the `Arc` bumps in
    /// the cloned entry.
    pub(crate) fn entry_sym(&self, sym: Sym) -> Result<ClassEntry> {
        self.schema.read().by_sym.get(&sym).cloned().ok_or_else(|| {
            OdeError::Schema(format!(
                "class {:?} is not registered",
                &*self.interner.resolve(sym)
            ))
        })
    }

    pub(crate) fn entry_by_id(&self, id: u32) -> Result<ClassEntry> {
        let schema = self.schema.read();
        let name = schema.by_id.get(&id).ok_or_else(|| {
            OdeError::Schema(format!(
                "unknown class id {id} (class not registered this session?)"
            ))
        })?;
        schema
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| OdeError::Schema(format!("class {name:?} vanished")))
    }

    // ------------------------------------------------------------------
    // Raw record access (shared by object ops and trigger machinery)
    // ------------------------------------------------------------------

    /// The object's header and payload. The payload is the record
    /// `Storage::read` returned, with the header bytes drained off its
    /// front: one allocation per read.
    pub(crate) fn read_raw(&self, txn: TxnId, oid: Oid) -> Result<(ObjectHeader, Vec<u8>)> {
        let mut record = self.storage.read(txn, oid)?;
        let (header, payload) = ObjectHeader::split(&record)?;
        let header_len = record.len() - payload.len();
        record.drain(..header_len);
        Ok((header, record))
    }

    /// Header-only read for paths that never look at the payload (event
    /// posting, class resolution) — skips [`Database::read_raw`]'s payload
    /// copy.
    pub(crate) fn read_header(&self, txn: TxnId, oid: Oid) -> Result<ObjectHeader> {
        let record = self.storage.read(txn, oid)?;
        let (header, _) = ObjectHeader::split(&record)?;
        Ok(header)
    }

    /// True when any transaction holds live local-rule instances — lets
    /// the posting hot path skip the txn-local lock in the common
    /// no-local-rules case.
    pub(crate) fn has_local_rules(&self) -> bool {
        self.live_local_rules.load(Ordering::Relaxed) > 0
    }

    /// Remove (and return) a transaction's local scratchpad, keeping the
    /// live-local-rule count in step. Every commit/abort path funnels
    /// through here.
    pub(crate) fn drop_txn_local(&self, txn: TxnId) -> TxnLocal {
        let local = self.txn_local.lock().remove(&txn).unwrap_or_default();
        if !local.local_triggers.is_empty() {
            self.live_local_rules
                .fetch_sub(local.local_triggers.len(), Ordering::Relaxed);
        }
        local
    }

    pub(crate) fn write_raw(
        &self,
        txn: TxnId,
        oid: Oid,
        header: ObjectHeader,
        payload: &[u8],
    ) -> Result<()> {
        let mut buf = BytesMut::with_capacity(header.encoded_len() + payload.len());
        header.write(&mut buf);
        buf.put_slice(payload);
        self.storage.update(txn, oid, &buf)?;
        Ok(())
    }

    /// Note that an object interested in transaction events was accessed
    /// (the "transaction event object list" of §5.5).
    pub(crate) fn note_txn_interest(&self, txn: TxnId, td: &TypeDescriptor, oid: Oid) {
        if !td.wants_txn_events() {
            return;
        }
        // Snapshot readers never post tcomplete/tabort events — keeping
        // the list empty keeps their commit path entirely event-free.
        if self.storage.is_read_only(txn) {
            return;
        }
        let mut locals = self.txn_local.lock();
        let local = locals.entry(txn).or_default();
        if !local.txn_event_objects.contains(&oid) {
            local.txn_event_objects.push(oid);
        }
    }

    // ------------------------------------------------------------------
    // Object operations
    // ------------------------------------------------------------------

    /// `pnew`: allocate a persistent object.
    pub fn pnew<T: OdeObject>(&self, txn: TxnId, value: &T) -> Result<PersistentPtr<T>> {
        let entry = self.entry(T::CLASS)?;
        let header = ObjectHeader::new(entry.id);
        let mut buf = BytesMut::new();
        header.write(&mut buf);
        value.encode(&mut buf);
        let oid = self.storage.allocate(txn, entry.cluster, &buf)?;
        self.note_txn_interest(txn, &entry.td, oid);
        let payload = &buf[header.encoded_len()..];
        self.maintain_indexes(txn, T::CLASS, oid, None, Some(payload))?;
        Ok(PersistentPtr::from_oid(oid))
    }

    /// `pdelete`: deactivate the object's triggers, unindex it, free it.
    pub fn pdelete<T: OdeObject>(&self, txn: TxnId, ptr: PersistentPtr<T>) -> Result<()> {
        self.deactivate_all(txn, ptr.oid())?;
        let (header, payload) = self.read_raw(txn, ptr.oid())?;
        let entry = self.entry_by_id(header.class_id)?;
        self.maintain_indexes(txn, entry.td.name(), ptr.oid(), Some(&payload), None)?;
        self.storage.free(txn, ptr.oid())?;
        Ok(())
    }

    /// Read a typed copy of the object. The object's dynamic class must be
    /// `T::CLASS` or derived from it (derived payloads must extend the
    /// base layout, like C++ object layout).
    pub fn read<T: OdeObject>(&self, txn: TxnId, ptr: PersistentPtr<T>) -> Result<T> {
        let (header, payload) = self.read_raw(txn, ptr.oid())?;
        let entry = self.entry_by_id(header.class_id)?;
        if !entry.td.is_subclass_of(T::CLASS) {
            return Err(OdeError::TypeMismatch {
                expected: T::CLASS.to_string(),
                actual: entry.td.name().to_string(),
            });
        }
        self.note_txn_interest(txn, &entry.td, ptr.oid());
        let mut slice = &payload[..];
        let value = T::decode(&mut slice).map_err(OdeError::from)?;
        if entry.td.name() == T::CLASS && !slice.is_empty() {
            return Err(OdeError::Schema(format!(
                "{} bytes left over decoding {}",
                slice.len(),
                T::CLASS
            )));
        }
        Ok(value)
    }

    /// Read-modify-write an object *without* posting events (a volatile-
    /// style mutation; use [`Database::invoke`] for member functions).
    /// Requires the exact class (no slicing writes).
    pub fn update_with<T: OdeObject>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<()> {
        let (header, payload) = self.read_raw(txn, ptr.oid())?;
        let entry = self.entry_by_id(header.class_id)?;
        if entry.td.name() != T::CLASS {
            return Err(OdeError::TypeMismatch {
                expected: T::CLASS.to_string(),
                actual: entry.td.name().to_string(),
            });
        }
        self.note_txn_interest(txn, &entry.td, ptr.oid());
        let mut value: T = decode_all(&payload)?;
        f(&mut value);
        let new_payload = encode_to_vec(&value);
        self.maintain_indexes(txn, T::CLASS, ptr.oid(), Some(&payload), Some(&new_payload))?;
        self.write_raw(txn, ptr.oid(), header, &new_payload)
    }

    /// Invoke a member function through a persistent pointer — the
    /// compiler-generated *wrapper function* of §5.3. Posts `before
    /// <method>` (if declared), runs `body` on the object, writes the
    /// object back if it changed, then posts `after <method>` (if
    /// declared). Trigger actions fired by these events run inside this
    /// call; a `tabort` from an action surfaces as an `Err` whose
    /// [`OdeError::is_abort`] is true.
    pub fn invoke<T: OdeObject, R>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        method: &str,
        body: impl FnOnce(&mut T) -> Result<R>,
    ) -> Result<R> {
        self.invoke_inner(txn, ptr, method, None, body)
    }

    /// Like [`Database::invoke`], but attaches the member function's
    /// encoded arguments to the posted `before`/`after` events so masks
    /// (and actions fired by this posting) can inspect them via
    /// [`crate::context::TriggerCtx::event_args`] — the §8 "attributes of
    /// events" extension.
    pub fn invoke_with_args<T: OdeObject, A: Encode, R>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        method: &str,
        args: &A,
        body: impl FnOnce(&mut T) -> Result<R>,
    ) -> Result<R> {
        let encoded = encode_to_vec(args);
        self.invoke_inner(txn, ptr, method, Some(&encoded), body)
    }

    fn invoke_inner<T: OdeObject, R>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        method: &str,
        args: Option<&[u8]>,
        body: impl FnOnce(&mut T) -> Result<R>,
    ) -> Result<R> {
        let oid = ptr.oid();
        // Resolve the dynamic class first (cheap header read).
        let header = self.read_header(txn, oid)?;
        let entry = self.entry_by_id(header.class_id)?;
        if !entry.td.is_subclass_of(T::CLASS) {
            return Err(OdeError::TypeMismatch {
                expected: T::CLASS.to_string(),
                actual: entry.td.name().to_string(),
            });
        }
        self.note_txn_interest(txn, &entry.td, oid);

        if let Some(event) = entry.td.member_event(method, EventTime::Before) {
            self.post_event_with_args(txn, oid, event, args)?;
        }
        // Read *after* the before-event: its triggers may have updated the
        // object.
        let (header, payload) = self.read_raw(txn, oid)?;
        let mut slice = &payload[..];
        let mut value = T::decode(&mut slice).map_err(OdeError::from)?;
        let tail = slice.to_vec(); // derived-class extension bytes
        let result = body(&mut value)?;
        let mut new_payload = encode_to_vec(&value);
        new_payload.extend_from_slice(&tail);
        if new_payload != payload {
            self.maintain_indexes(
                txn,
                entry.td.name(),
                oid,
                Some(&payload),
                Some(&new_payload),
            )?;
            self.write_raw(txn, oid, header, &new_payload)?;
        }
        if let Some(event) = entry.td.member_event(method, EventTime::After) {
            self.post_event_with_args(txn, oid, event, args)?;
        }
        Ok(result)
    }

    /// Post a user-defined event to an object ("user-defined events must
    /// be explicitly posted by the application", §4). The event must be
    /// declared by the object's class.
    pub fn post_user_event<T: OdeObject>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        event: &str,
    ) -> Result<()> {
        let header = self.read_header(txn, ptr.oid())?;
        let entry = self.entry_by_id(header.class_id)?;
        let id = entry
            .td
            .event_id(&ode_events::BasicEvent::user(event))
            .ok_or_else(|| {
                OdeError::Schema(format!(
                    "event {event:?} is not declared by class {}",
                    entry.td.name()
                ))
            })?;
        self.post_event(txn, ptr.oid(), id)
    }

    /// All objects of `T`'s cluster (O++ cluster iteration). Derived
    /// classes live in their own clusters and are not included.
    pub fn scan<T: OdeObject>(&self, txn: TxnId) -> Result<Vec<PersistentPtr<T>>> {
        let entry = self.entry(T::CLASS)?;
        let mut oids = self.storage.scan_cluster(txn, entry.cluster)?;
        oids.sort_unstable();
        Ok(oids.into_iter().map(PersistentPtr::from_oid).collect())
    }

    /// Cluster iteration with a predicate — O++'s
    /// `for (x in cluster) suchthat(pred)` (§2 lists "iterating over
    /// clusters of persistent objects" among O++'s facilities). Returns
    /// matching objects with their pointers. For indexed attributes prefer
    /// [`Database::lookup_by_index`]/[`Database::range_by_index`].
    pub fn select<T: OdeObject>(
        &self,
        txn: TxnId,
        suchthat: impl Fn(&T) -> bool,
    ) -> Result<Vec<(PersistentPtr<T>, T)>> {
        let mut out = Vec::new();
        for ptr in self.scan::<T>(txn)? {
            let value = self.read(txn, ptr)?;
            if suchthat(&value) {
                out.push((ptr, value));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;

    #[derive(Debug, Clone, PartialEq)]
    struct Point {
        x: i32,
        y: i32,
    }

    impl Encode for Point {
        fn encode(&self, buf: &mut BytesMut) {
            self.x.encode(buf);
            self.y.encode(buf);
        }
    }

    impl Decode for Point {
        fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
            Ok(Point {
                x: i32::decode(buf)?,
                y: i32::decode(buf)?,
            })
        }
    }

    impl OdeObject for Point {
        const CLASS: &'static str = "Point";
    }

    fn setup() -> Database {
        let db = Database::volatile();
        let td = ClassBuilder::new("Point").build(db.registry()).unwrap();
        db.register_class(&td).unwrap();
        db
    }

    #[test]
    fn pnew_read_update_delete() {
        let db = setup();
        let txn = db.begin().unwrap();
        let p = db.pnew(txn, &Point { x: 1, y: 2 }).unwrap();
        assert_eq!(db.read(txn, p).unwrap(), Point { x: 1, y: 2 });
        db.update_with(txn, p, |pt| pt.x = 10).unwrap();
        assert_eq!(db.read(txn, p).unwrap().x, 10);
        db.pdelete(txn, p).unwrap();
        assert!(db.read(txn, p).is_err());
        db.commit(txn).unwrap();
    }

    #[test]
    fn unregistered_class_is_an_error() {
        let db = Database::volatile();
        let txn = db.begin().unwrap();
        assert!(matches!(
            db.pnew(txn, &Point { x: 0, y: 0 }),
            Err(OdeError::Schema(_))
        ));
        db.abort(txn).unwrap();
    }

    #[test]
    fn scan_lists_class_objects_in_order() {
        let db = setup();
        let txn = db.begin().unwrap();
        let a = db.pnew(txn, &Point { x: 1, y: 0 }).unwrap();
        let b = db.pnew(txn, &Point { x: 2, y: 0 }).unwrap();
        let scanned = db.scan::<Point>(txn).unwrap();
        assert_eq!(scanned, vec![a, b]);
        db.commit(txn).unwrap();
    }

    #[test]
    fn registration_is_idempotent_and_persistent() {
        use ode_testutil::TempDir;
        let dir = TempDir::new("db");
        let entry_before;
        {
            let db = Database::create(dir.path(), StorageOptions::default()).unwrap();
            let td = ClassBuilder::new("Point").build(db.registry()).unwrap();
            db.register_class(&td).unwrap();
            db.register_class(&td).unwrap();
            entry_before = (
                db.entry("Point").unwrap().id,
                db.entry("Point").unwrap().cluster,
            );
            let txn = db.begin().unwrap();
            db.pnew(txn, &Point { x: 5, y: 5 }).unwrap();
            db.commit(txn).unwrap();
            db.close().unwrap();
        }
        {
            let db = Database::open(dir.path(), StorageOptions::default()).unwrap();
            let td = ClassBuilder::new("Point").build(db.registry()).unwrap();
            db.register_class(&td).unwrap();
            let entry = db.entry("Point").unwrap();
            assert_eq!((entry.id, entry.cluster), entry_before);
            let txn = db.begin().unwrap();
            let pts = db.scan::<Point>(txn).unwrap();
            assert_eq!(pts.len(), 1);
            assert_eq!(db.read(txn, pts[0]).unwrap(), Point { x: 5, y: 5 });
            db.commit(txn).unwrap();
        }
    }

    #[test]
    fn read_rejects_wrong_class() {
        #[derive(Debug)]
        struct Other;
        impl Encode for Other {
            fn encode(&self, _buf: &mut BytesMut) {}
        }
        impl Decode for Other {
            fn decode(_buf: &mut &[u8]) -> ode_storage::Result<Self> {
                Ok(Other)
            }
        }
        impl OdeObject for Other {
            const CLASS: &'static str = "Other";
        }
        let db = setup();
        let other_td = ClassBuilder::new("Other").build(db.registry()).unwrap();
        db.register_class(&other_td).unwrap();
        let txn = db.begin().unwrap();
        let p = db.pnew(txn, &Point { x: 1, y: 2 }).unwrap();
        let as_other: PersistentPtr<Other> = p.cast();
        assert!(matches!(
            db.read(txn, as_other),
            Err(OdeError::TypeMismatch { .. })
        ));
        db.commit(txn).unwrap();
    }
}
