//! Posting basic events and firing triggers (§5.4.5).
//!
//! The algorithm is the paper's, step for step:
//!
//! 1. If the object's control information says it has no active triggers,
//!    stop — "no lookup is required" (footnote 3; our control info is the
//!    flag byte in the object header).
//! 2. Otherwise take the object's active triggers from the same header:
//!    it lists the Oids of their `TriggerState` records (§5.1.3's object →
//!    triggers map, see [`crate::object`]). The read that fetched the
//!    class id already holds them — no second structure is probed.
//! 3. For each `TriggerState`, find the `TriggerInfo` in the *defining*
//!    class's type descriptor (`trigobjtype`, footnote 4), advance its FSM
//!    on the event, evaluate masks until quiescence, and update the stored
//!    `statenum` — the update that "requires acquisition of a write lock"
//!    (§6).
//! 4. "No triggers are fired until all triggers have had the basic event
//!    posted. This is to prevent the action of one trigger from affecting
//!    the mask of another trigger." Immediate actions then run
//!    sequentially (Ode lacks nested transactions, so does this
//!    reproduction; the paper says the same); non-immediate firings go on
//!    the per-transaction lists processed at commit/abort (§5.5).
//! 5. Once-only triggers are deactivated after firing; perpetual ones
//!    stay. A trigger fires "at most once in response to the posting of a
//!    single basic event".
//!
//! ## The hot path
//!
//! Steady-state posting (the §6 cost model) goes through a
//! per-transaction cache: the first advance of a trigger instance reads
//! and decodes its state record once into `CachedTriggerState`; every
//! later advance in the same transaction hits the decoded struct and
//! never touches storage. At commit, one pass
//! (`Database::flush_trigger_states`) settles every instance whose FSM
//! moved: it always takes the X lock — §6's read-becomes-write, kept
//! exactly — but writes only a statenum that differs from the stored one,
//! patched into the retained on-disk image ([`patch_u32_le`]). A cycle
//! that lands back in its stored state (a perpetual trigger after each
//! firing) is settled by the lock alone: no WAL record, no version, no
//! dirty page. Aborts just drop the cache. Names travel as interned
//! `Sym`s and `Arc`s and accounting goes through the lock-free `ode-obs`
//! counters — a steady-state post allocates no `String`.
//!
//! ## Snapshot readers
//!
//! The commit-time write-back of a changed statenum goes through
//! `storage.update`, which under MVCC seeds the state record's committed
//! image and installs the new statenum as a fresh version at the commit
//! sequence — in place of the old "upgrade the S lock to X in place"
//! pattern as far as readers are concerned (writers still serialize
//! under 2PL). An unchanged statenum leaves the record untouched, so a
//! snapshot reader sees the committed value it would have seen anyway. A
//! read-only snapshot transaction therefore observes every trigger
//! statenum exactly as of its snapshot: never a half-flushed batch, never
//! an uncommitted advance. Posting an event on a snapshot transaction is
//! refused up front, since posting is always a write.

use crate::context::TriggerCtx;
use crate::database::{ClassEntry, Database, TxnLocal};
use crate::error::{OdeError, Result};
use crate::metatype::{CouplingMode, TriggerInfo};
use crate::object::{ObjectHeader, OdeObject, PersistentPtr};
use crate::trigger::{CachedTriggerState, TriggerId, TriggerStateRec};
use ode_events::event::EventId;
use ode_events::machine::Advance;
use ode_storage::codec::{encode_to_vec, patch_u32_le, Encode};
use ode_storage::{Oid, StorageError, TxnId};
use std::cell::Cell;
use std::sync::Arc;

/// The number of `trigger` in `entry`'s class, or a schema error naming
/// both.
pub(crate) fn trigger_num(entry: &ClassEntry, trigger: &str) -> Result<usize> {
    entry
        .td
        .trigger(trigger)
        .map(|(num, _)| num)
        .ok_or_else(|| {
            OdeError::Schema(format!(
                "class {:?} has no trigger {trigger:?}",
                entry.td.name()
            ))
        })
}

/// The deepest immediate-firing cascade a statement may build: an action
/// that posts an event whose trigger fires immediately nests one level,
/// on the same stack. A fixed limit, not a knob — 64 levels leave ample
/// stack (a runaway cascade overflowed it at ~400 in debug builds), and
/// hitting it fails the statement with [`OdeError::CascadeTooDeep`].
pub const MAX_CASCADE_DEPTH: usize = 64;

thread_local! {
    /// Trigger actions running on this thread's stack. Actions run
    /// synchronously on the posting thread, so this is exactly the
    /// cascade depth the stack pays for.
    static FIRE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// One level of [`FIRE_DEPTH`], released on every exit path.
struct DepthGuard;

impl DepthGuard {
    fn enter() -> Result<DepthGuard> {
        FIRE_DEPTH.with(|d| {
            if d.get() >= MAX_CASCADE_DEPTH {
                return Err(OdeError::CascadeTooDeep {
                    depth: MAX_CASCADE_DEPTH,
                });
            }
            d.set(d.get() + 1);
            Ok(DepthGuard)
        })
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        FIRE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// A trigger firing captured at detection time. Parameters and anchors
/// are shared (`Arc`) with the state record they were cut from, so the
/// action can run even after the record has been deactivated (once-only)
/// or the detecting transaction has committed (dependent/!dependent) —
/// without copying on the detection path.
#[derive(Debug, Clone)]
pub(crate) struct Firing {
    pub class_sym: crate::intern::Sym,
    pub triggernum: usize,
    pub trigger_name: Arc<str>,
    pub anchor: Oid,
    pub params: Arc<[u8]>,
    pub anchors: Arc<[(String, Oid)]>,
    pub coupling: CouplingMode,
    /// Encoded arguments of the detecting member-function event (§8
    /// event attributes), copied so deferred firings still see them.
    pub event_args: Option<Vec<u8>>,
}

impl Database {
    // ------------------------------------------------------------------
    // Activation / deactivation (§4.1, §5.4.1)
    // ------------------------------------------------------------------

    /// Activate a trigger of `class` (which may be a base class of the
    /// object's dynamic class) on the object behind `ptr`, with encoded
    /// parameters. This is the run-time half of
    /// `credcard->AutoRaiseLimit(1000.0)`.
    pub fn activate<T: OdeObject, P: Encode>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        trigger: &str,
        params: &P,
    ) -> Result<TriggerId> {
        self.activate_raw(
            txn,
            T::CLASS,
            trigger,
            ptr.oid(),
            encode_to_vec(params),
            Vec::new(),
        )
    }

    /// Untyped activation; `anchors` is used by inter-object triggers.
    pub fn activate_raw(
        &self,
        txn: TxnId,
        class: &str,
        trigger: &str,
        anchor: Oid,
        params: Vec<u8>,
        anchors: Vec<(String, Oid)>,
    ) -> Result<TriggerId> {
        let entry = self.entry(class)?;
        let triggernum = trigger_num(&entry, trigger)?;
        let anchor_record = if anchors.is_empty() {
            // Ordinary trigger: the anchor's dynamic class must derive
            // from the defining class.
            let (header, payload) = self.read_raw(txn, anchor)?;
            let dynamic = self.entry_by_id(header.class_id)?;
            if !dynamic.td.is_subclass_of(class) {
                return Err(OdeError::TypeMismatch {
                    expected: class.to_string(),
                    actual: dynamic.td.name().to_string(),
                });
            }
            Some((header, payload))
        } else {
            None
        };
        self.activate_read(
            txn,
            &entry,
            triggernum,
            anchor,
            params,
            anchors,
            anchor_record,
        )
    }

    /// Activation of trigger `triggernum` of `entry`'s class (see
    /// [`trigger_num`]) once, for an ordinary trigger, the anchor has been
    /// checked against that class: `anchor_record` is the anchor as that
    /// check read it, reused to list the new state in its header unless a
    /// start-state mask ran in between. `None` (inter-object triggers)
    /// reads each anchor here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn activate_read(
        &self,
        txn: TxnId,
        entry: &ClassEntry,
        triggernum: usize,
        anchor: Oid,
        params: Vec<u8>,
        anchors: Vec<(String, Oid)>,
        anchor_record: Option<(ObjectHeader, Vec<u8>)>,
    ) -> Result<TriggerId> {
        // Evaluate masks pending in the FSM's start state.
        let info = entry
            .td
            .trigger_by_num(triggernum)
            .expect("resolved by trigger_num");
        let trigger = info.name.as_str();
        let mut mask_err: Option<OdeError> = None;
        let mut masks_ran = false;
        let outcome = info.fsm.activate(|m| {
            masks_ran = true;
            self.eval_mask(
                txn,
                &entry.td,
                m,
                anchor,
                &params,
                &info.name,
                &anchors,
                None,
                &mut mask_err,
            )
        });
        if let Some(e) = mask_err {
            return Err(e);
        }

        let trigger_sym = self.interner.intern(trigger);
        let rec = TriggerStateRec {
            triggernum: triggernum as u32,
            trigger_sym,
            statenum: outcome.state,
            class_sym: entry.sym,
            anchor,
            params: params.into(),
            anchors: anchors.into(),
        };
        let raw = rec.encode_to_vec_with(&self.interner);
        let state_oid = self.storage.allocate(txn, self.state_cluster, &raw)?;
        let id = TriggerId(state_oid);

        // List the state in every anchor's header: an ordinary logged
        // update under the anchor's X lock, so an aborted activation
        // rolls its refs back (§5.5). A missing anchor is an error. An
        // ordinary trigger's one anchor was read above; a mask may have
        // touched it since, so after one ran it is read again.
        let mut anchor_record = anchor_record.filter(|_| !masks_ran);
        for a in rec.anchor_oids() {
            let (mut header, payload) = match anchor_record.take() {
                Some(read) => read,
                None => self.read_raw(txn, a)?,
            };
            header.add_ref(state_oid)?;
            self.write_raw(txn, a, header, &payload)?;
        }
        let metrics = self.metrics();
        metrics.trigger_activations.inc();

        // Seed the cache so the first post in this transaction skips the
        // storage read-back of a record we just wrote.
        let cached = CachedTriggerState {
            rec: rec.clone(),
            trigger_name: self.interner.resolve(trigger_sym),
            raw,
            statenum_offset: TriggerStateRec::statenum_offset(trigger.len()),
            dirty: false,
        };
        self.cache_put(txn, state_oid, cached);

        // An expression matching the empty stream fires at activation.
        if outcome.accepted {
            let firing = Firing {
                class_sym: entry.sym,
                triggernum,
                trigger_name: self.interner.resolve(trigger_sym),
                anchor,
                params: Arc::clone(&rec.params),
                anchors: Arc::clone(&rec.anchors),
                coupling: info.coupling,
                event_args: None,
            };
            let perpetual = info.perpetual;
            if !perpetual {
                self.deactivate(txn, id)?;
            }
            if let Some(f) = self.schedule(txn, firing) {
                self.fire(txn, &f, true)?;
            }
        } else if outcome.status == Advance::Dead {
            // The instance can never fire (anchored mask failed at
            // activation): don't leave garbage behind.
            self.deactivate(txn, id)?;
        }
        Ok(id)
    }

    /// Deactivate a trigger (§4.1's `deactivate(AutoRaise)`): remove its
    /// state record and its ref from every anchor's header (the last ref
    /// clears the has-triggers flag). Returns false when the trigger was
    /// already gone (e.g. a once-only trigger that fired).
    pub fn deactivate(&self, txn: TxnId, id: TriggerId) -> Result<bool> {
        // Drop any cached copy first: the pending statenum dies with the
        // instance, and commit must never resurrect a freed record.
        if let Some(local) = self.txn_local.lock().get_mut(&txn) {
            local.state_cache.remove(&id.0);
        }
        let record = match self.storage.read(txn, id.0) {
            Ok(r) => r,
            Err(StorageError::NoSuchObject(_)) => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        let rec = TriggerStateRec::decode_with(&record, &self.interner)?;
        self.storage.free(txn, id.0)?;
        for a in rec.anchor_oids() {
            let (mut header, payload) = self.read_raw(txn, a)?;
            if header.remove_ref(id.0) {
                self.write_raw(txn, a, header, &payload)?;
            }
        }
        self.metrics().trigger_deactivations.inc();
        Ok(true)
    }

    /// Deactivate every trigger anchored at `oid` (used by `pdelete`,
    /// before the object is freed).
    pub fn deactivate_all(&self, txn: TxnId, oid: Oid) -> Result<usize> {
        let mut n = 0;
        for state_oid in self.read_header(txn, oid)?.refs {
            if self.deactivate(txn, TriggerId(state_oid))? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// The TriggerIds currently active on an object, in activation order.
    /// A deleted object has none.
    pub fn active_triggers(&self, txn: TxnId, oid: Oid) -> Result<Vec<TriggerId>> {
        let refs = match self.read_header(txn, oid) {
            Ok(header) => header.refs,
            Err(OdeError::Storage(StorageError::NoSuchObject(_))) => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(refs.into_iter().map(TriggerId).collect())
    }

    // ------------------------------------------------------------------
    // The transaction-scoped state cache
    // ------------------------------------------------------------------

    /// (Re)insert a cached trigger state. Instances are *taken out* while
    /// they advance (masks and actions may re-enter the database, and the
    /// txn-local mutex is not reentrant), then put back here.
    fn cache_put(&self, txn: TxnId, state_oid: Oid, cached: CachedTriggerState) {
        self.txn_local
            .lock()
            .entry(txn)
            .or_default()
            .state_cache
            .insert(state_oid, cached);
    }

    /// Settle every dirty cached statenum — the single commit-time pass
    /// that replaces the per-advance `storage.update(..)` of the naive
    /// algorithm. An entry is dirty whenever its FSM *moved* this
    /// transaction, and every dirty entry takes the X lock: the write
    /// lock is §6's point, and it is owed even when the cycle returned to
    /// the stored state. Only a statenum that differs from the stored
    /// image's is patched in place ([`patch_u32_le`]; nothing is
    /// re-encoded) and written back. An unchanged one is settled by the
    /// lock alone ([`ode_storage::Storage::lock_exclusive`]): writing the
    /// same bytes would cost a WAL record, a version and a dirty page for
    /// an identity update.
    ///
    /// This is where the read-becomes-write lock amplification now
    /// happens: the S lock taken by the first (cache-miss) read upgrades
    /// to X here instead of inside `post_event`.
    ///
    /// Runs strictly before `storage.commit_deferred`, so the patched
    /// statenum cells sit in the WAL ahead of the transaction's Commit
    /// record: one group-commit flush makes the data mutation and the FSM
    /// position durable atomically, and recovery replays (or drops) them
    /// together.
    pub(crate) fn flush_trigger_states(&self, txn: TxnId, local: &mut TxnLocal) -> Result<()> {
        for (oid, cached) in local.state_cache.iter_mut() {
            if !cached.dirty {
                continue;
            }
            let at = cached.statenum_offset;
            if cached.raw.get(at..at + 4) == Some(&cached.rec.statenum.to_le_bytes()[..]) {
                self.storage.lock_exclusive(txn, *oid)?;
                cached.dirty = false;
                self.metrics().state_writes_skipped.inc();
                continue;
            }
            patch_u32_le(&mut cached.raw, at, cached.rec.statenum)?;
            match self.storage.update(txn, *oid, &cached.raw) {
                Ok(()) => {
                    cached.dirty = false;
                    self.metrics().state_writebacks.inc();
                }
                // Freed behind the cache's back (defensive; deactivate
                // invalidates eagerly).
                Err(StorageError::NoSuchObject(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Run one mask predicate, counting it in `mask_evaluations` and
    /// capturing any error into `slot` (the FSM's eval callback cannot
    /// return a Result). Persistent and local triggers both evaluate
    /// their masks here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn eval_mask(
        &self,
        txn: TxnId,
        td: &crate::metatype::TypeDescriptor,
        mask: ode_events::event::MaskId,
        anchor: Oid,
        params: &[u8],
        trigger_name: &str,
        anchors: &[(String, Oid)],
        event_args: Option<&[u8]>,
        slot: &mut Option<OdeError>,
    ) -> bool {
        self.metrics().mask_evaluations.inc();
        let Some(f) = td.mask_fn(mask) else {
            *slot = Some(OdeError::Schema(format!(
                "class {:?} has no mask {mask}",
                td.name()
            )));
            return false;
        };
        let mut ctx = TriggerCtx {
            db: self,
            txn,
            anchor,
            params,
            trigger_name,
            anchors,
            event_args,
        };
        match f(&mut ctx) {
            Ok(b) => b,
            Err(e) => {
                *slot = Some(e);
                false
            }
        }
    }

    /// Post a basic event to an object (`PostEvent` of §5.4.5). Immediate
    /// firings run inside this call, after every trigger has seen the
    /// event.
    pub(crate) fn post_event(&self, txn: TxnId, anchor: Oid, event: EventId) -> Result<()> {
        self.post_event_with_args(txn, anchor, event, None)
    }

    /// [`Database::post_event`] with optional encoded member-function
    /// arguments attached (§8 event attributes).
    pub(crate) fn post_event_with_args(
        &self,
        txn: TxnId,
        anchor: Oid,
        event: EventId,
        event_args: Option<&[u8]>,
    ) -> Result<()> {
        // Posting advances persistent trigger FSMs — a write. Snapshot
        // readers must fail fast here, not deep inside a trigger action's
        // first storage mutation.
        if self.storage.is_read_only(txn) {
            return Err(OdeError::Storage(StorageError::ReadOnlyTxn(txn)));
        }
        let post_started = std::time::Instant::now();
        let mut post_span = ode_trace::span(ode_trace::SpanKind::Post, "");
        if post_span.is_recording() {
            // The prototype name costs an allocation to resolve; only
            // traced statements pay it.
            if let Some((_, basic)) = self.registry().describe(event) {
                post_span.rename(&basic.to_string());
            }
            post_span.payload(anchor.to_u64(), txn.0);
        }
        let metrics = self.metrics();
        metrics.events_posted.inc();
        metrics.emit(|| ode_obs::FlightEvent::EventPosted {
            event: event.0,
            anchor: anchor.to_u64(),
        });
        let header = self.read_header(txn, anchor)?;

        let mut immediate: Vec<Firing> = Vec::new();
        if header.has_triggers() {
            // The header's refs are this post's own copy: masks and
            // actions that deactivate an instance mid-walk change the
            // stored header, and `advance_one` skips a freed state.
            for state_oid in header.refs {
                if let Some(firing) = self.advance_one(txn, anchor, event, state_oid, event_args)? {
                    if let Some(f) = self.schedule(txn, firing) {
                        immediate.push(f);
                    }
                }
            }
        } else {
            metrics.index_skips.inc();
        }

        // Volatile local rules (§8) advance too — their state never
        // touches storage. Skipped entirely while none are live.
        if self.has_local_rules() {
            for firing in self.advance_local_triggers(txn, anchor, event, event_args)? {
                if let Some(f) = self.schedule(txn, firing) {
                    immediate.push(f);
                }
            }
        }

        // Fire after all posting (paper: conceptually parallel nested
        // transactions; actually sequential, order unspecified).
        for firing in immediate {
            self.fire(txn, &firing, true)?;
        }
        metrics
            .post_micros
            .record(post_started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Advance a single persistent trigger instance; returns a Firing when
    /// it accepted.
    ///
    /// The instance is checked out of the transaction's state cache (or
    /// read and decoded on first touch), advanced without holding any
    /// lock — the FSM callback may re-enter the database — and checked
    /// back in unless it deactivated.
    fn advance_one(
        &self,
        txn: TxnId,
        anchor: Oid,
        event: EventId,
        state_oid: Oid,
        event_args: Option<&[u8]>,
    ) -> Result<Option<Firing>> {
        let metrics = self.metrics();
        let taken = {
            let mut locals = self.txn_local.lock();
            locals
                .entry(txn)
                .or_default()
                .state_cache
                .remove(&state_oid)
        };
        let mut cached = match taken {
            Some(c) => {
                metrics.state_cache_hits.inc();
                c
            }
            None => {
                metrics.state_cache_misses.inc();
                let raw = match self.storage.read(txn, state_oid) {
                    Ok(r) => r,
                    // A concurrent deactivation in this transaction's view.
                    Err(StorageError::NoSuchObject(_)) => return Ok(None),
                    Err(e) => return Err(e.into()),
                };
                let mut rec = TriggerStateRec::decode_with(&raw, &self.interner)?;
                let name = self.interner.resolve(rec.trigger_sym);
                let entry = self.entry_sym(rec.class_sym)?;
                // Resolve the TriggerInfo once per transaction, tolerating
                // reordered definitions from older sessions.
                let resolved = match entry.td.trigger_by_num(rec.triggernum as usize) {
                    Some(info) if info.name == *name => Some(rec.triggernum as usize),
                    _ => entry.td.trigger(&name).map(|(n, _)| n),
                };
                let Some(triggernum) = resolved else {
                    // The class no longer defines this trigger: drop it.
                    self.deactivate(txn, TriggerId(state_oid))?;
                    return Ok(None);
                };
                rec.triggernum = triggernum as u32;
                let statenum_offset = TriggerStateRec::statenum_offset(name.len());
                CachedTriggerState {
                    rec,
                    trigger_name: name,
                    raw,
                    statenum_offset,
                    dirty: false,
                }
            }
        };

        let entry = self.entry_sym(cached.rec.class_sym)?;
        let triggernum = cached.rec.triggernum as usize;
        let Some(info) = entry.td.trigger_by_num(triggernum) else {
            self.deactivate(txn, TriggerId(state_oid))?;
            return Ok(None);
        };
        let info: &TriggerInfo = info;
        if cached.rec.statenum as usize >= info.fsm.len() {
            // Stale state from an older definition of the trigger.
            self.deactivate(txn, TriggerId(state_oid))?;
            return Ok(None);
        }

        // Inter-object triggers see anchor-qualified event ids.
        let fsm_event = if cached.rec.anchors.is_empty() {
            event
        } else {
            self.qualify_event(event, anchor, &cached.rec.anchors)
        };

        let from_state = cached.rec.statenum;
        let mut fsm_span = ode_trace::span(ode_trace::SpanKind::FsmAdvance, "");
        if fsm_span.is_recording() {
            fsm_span.rename(&cached.trigger_name);
            fsm_span.payload(from_state as u64, from_state as u64);
        }
        let mut mask_err: Option<OdeError> = None;
        let outcome = info.fsm.post(cached.rec.statenum, fsm_event, |m| {
            self.eval_mask(
                txn,
                &entry.td,
                m,
                cached.rec.anchor,
                &cached.rec.params,
                &info.name,
                &cached.rec.anchors,
                event_args,
                &mut mask_err,
            )
        });
        metrics.fsm_advances.inc();
        if let Some(e) = mask_err {
            // Leave the instance checked in and untouched, exactly like
            // the pre-cache code left storage untouched on a mask error.
            self.cache_put(txn, state_oid, cached);
            return Err(e);
        }

        match outcome.status {
            Advance::Ignored => {
                self.cache_put(txn, state_oid, cached);
                Ok(None)
            }
            Advance::Dead => {
                // The instance can never fire again.
                self.deactivate(txn, TriggerId(state_oid))?;
                Ok(None)
            }
            Advance::Moved => {
                fsm_span.payload(from_state as u64, outcome.state as u64);
                let firing = outcome.accepted.then(|| Firing {
                    class_sym: cached.rec.class_sym,
                    triggernum,
                    trigger_name: Arc::clone(&cached.trigger_name),
                    anchor: cached.rec.anchor,
                    params: Arc::clone(&cached.rec.params),
                    anchors: Arc::clone(&cached.rec.anchors),
                    coupling: info.coupling,
                    event_args: event_args.map(<[u8]>::to_vec),
                });
                if outcome.accepted && !info.perpetual {
                    // Once-only: deactivate now, fire from the copy.
                    self.deactivate(txn, TriggerId(state_oid))?;
                    self.metrics().once_only_deactivations.inc();
                } else {
                    // Advancing the FSM updates the trigger descriptor —
                    // but the write (§6's read-becomes-write effect) is
                    // deferred to commit, batched per instance.
                    cached.rec.statenum = outcome.state;
                    cached.dirty = true;
                    self.cache_put(txn, state_oid, cached);
                }
                Ok(firing)
            }
        }
    }

    /// Translate an event id to its anchor-qualified form for inter-object
    /// FSMs (see [`crate::interobject`]).
    fn qualify_event(&self, event: EventId, anchor: Oid, anchors: &[(String, Oid)]) -> EventId {
        let Some((class, basic)) = self.registry().describe(event) else {
            return event;
        };
        let Some((name, _)) = anchors.iter().find(|(_, o)| *o == anchor) else {
            return event;
        };
        self.registry()
            .lookup(&crate::interobject::qualified_class(&class, name), &basic)
            .unwrap_or(event)
    }

    /// Route a firing by coupling mode; returns it back for `Immediate`.
    pub(crate) fn schedule(&self, txn: TxnId, firing: Firing) -> Option<Firing> {
        match firing.coupling {
            CouplingMode::Immediate => Some(firing),
            CouplingMode::End => {
                let mut locals = self.txn_local.lock();
                locals.entry(txn).or_default().end_list.push(firing);
                None
            }
            CouplingMode::Dependent => {
                let mut locals = self.txn_local.lock();
                locals.entry(txn).or_default().dep_list.push(firing);
                None
            }
            CouplingMode::Independent => {
                let mut locals = self.txn_local.lock();
                locals.entry(txn).or_default().indep_list.push(firing);
                None
            }
        }
    }

    /// Execute a trigger action. Fails with [`OdeError::CascadeTooDeep`]
    /// instead of nesting past [`MAX_CASCADE_DEPTH`] actions on one stack.
    pub(crate) fn fire(&self, txn: TxnId, firing: &Firing, _immediate: bool) -> Result<()> {
        let _depth = DepthGuard::enter()?;
        let entry = self.entry_sym(firing.class_sym)?;
        let info = entry
            .td
            .trigger_by_num(firing.triggernum)
            .filter(|i| *i.name == *firing.trigger_name)
            .or_else(|| entry.td.trigger(&firing.trigger_name).map(|(_, i)| i))
            .ok_or_else(|| {
                OdeError::Schema(format!(
                    "trigger {:?} of class {:?} vanished before firing",
                    firing.trigger_name,
                    self.interner.resolve(firing.class_sym)
                ))
            })?;
        let metrics = self.metrics();
        let coupling = match firing.coupling {
            CouplingMode::Immediate => {
                metrics.firings_immediate.inc();
                ode_obs::coupling_label::IMMEDIATE
            }
            CouplingMode::End => {
                metrics.firings_end.inc();
                ode_obs::coupling_label::END
            }
            CouplingMode::Dependent => {
                metrics.firings_dependent.inc();
                ode_obs::coupling_label::DEPENDENT
            }
            CouplingMode::Independent => {
                metrics.firings_independent.inc();
                ode_obs::coupling_label::INDEPENDENT
            }
        };
        // Open the action span first so the TriggerFired record is
        // stamped with it.
        let mut action_span = ode_trace::span(ode_trace::SpanKind::Action, "");
        if action_span.is_recording() {
            action_span.rename(&firing.trigger_name);
        }
        metrics.emit(|| ode_obs::FlightEvent::TriggerFired {
            trigger: ode_obs::SmallStr::new(&firing.trigger_name),
            coupling: ode_obs::SmallStr::new(coupling),
        });
        let mut ctx = TriggerCtx {
            db: self,
            txn,
            anchor: firing.anchor,
            params: &firing.params,
            trigger_name: &firing.trigger_name,
            anchors: &firing.anchors,
            event_args: firing.event_args.as_deref(),
        };
        let action_started = std::time::Instant::now();
        let result = (info.action)(&mut ctx);
        metrics
            .action_micros
            .record(action_started.elapsed().as_micros() as u64);
        result
    }
}
