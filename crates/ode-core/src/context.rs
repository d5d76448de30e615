//! Execution context for trigger masks and actions.
//!
//! When a mask is evaluated (§5.4.2) or an action fired (§5.4.5) the code
//! runs against the trigger's *anchor object* (Ode triggers "are rooted at
//! objects", §7) with the parameters captured at activation time ("instead
//! of collecting and storing basic event parameters, parameters are passed
//! in at trigger activation time", §7).

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::object::{OdeObject, PersistentPtr};
use ode_storage::codec::{decode_all, encode_to_vec, Decode, Encode};
use ode_storage::{Oid, TxnId};

/// Counters for the trigger run-time (benchmarks and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriggerStats {
    /// Basic events posted (after index-skip short-circuit).
    pub events_posted: u64,
    /// Per-trigger FSM advances performed.
    pub fsm_advances: u64,
    /// Mask predicate evaluations.
    pub mask_evaluations: u64,
    /// Immediate actions executed.
    pub immediate_firings: u64,
    /// end/dependent/!dependent actions executed.
    pub deferred_firings: u64,
    /// Trigger activations.
    pub activations: u64,
    /// Trigger deactivations (explicit, once-only, or dead).
    pub deactivations: u64,
    /// Detached (dependent/!dependent) actions that failed; their system
    /// transaction was aborted.
    pub detached_failures: u64,
    /// Posts that stopped at the per-object has-triggers flag: no trigger
    /// lookup (§5.4.5 footnote 3).
    pub index_skips: u64,
}

/// What a mask or action sees while it runs.
pub struct TriggerCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) txn: TxnId,
    pub(crate) anchor: Oid,
    pub(crate) params: &'a [u8],
    pub(crate) trigger_name: &'a str,
    /// Named anchors for inter-object triggers (empty otherwise).
    pub(crate) anchors: &'a [(String, Oid)],
    /// Encoded arguments of the member-function event being processed
    /// (§8 "attributes of events"): available to masks during posting and
    /// to actions of triggers fired by that posting.
    pub(crate) event_args: Option<&'a [u8]>,
}

impl<'a> TriggerCtx<'a> {
    /// The database the trigger lives in.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The transaction the mask/action runs in. For `immediate` and `end`
    /// couplings this is the detecting transaction; for `dependent` and
    /// `!dependent` it is the separate system transaction (§5.5).
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The anchor object's Oid.
    pub fn anchor_oid(&self) -> Oid {
        self.anchor
    }

    /// The anchor as a typed persistent pointer.
    pub fn anchor<T: OdeObject>(&self) -> PersistentPtr<T> {
        PersistentPtr::from_oid(self.anchor)
    }

    /// Read the anchor object.
    pub fn object<T: OdeObject>(&self) -> Result<T> {
        self.db.read(self.txn, self.anchor::<T>())
    }

    /// Mutate the anchor object in place (no member-function events are
    /// posted; actions that should post events call
    /// [`Database::invoke`] instead).
    pub fn update_object<T: OdeObject>(&self, f: impl FnOnce(&mut T)) -> Result<()> {
        self.db.update_with(self.txn, self.anchor::<T>(), f)
    }

    /// Decode the trigger's activation parameters.
    pub fn params<P: Decode>(&self) -> Result<P> {
        Ok(decode_all(self.params)?)
    }

    /// Raw parameter bytes.
    pub fn raw_params(&self) -> &[u8] {
        self.params
    }

    /// Decode the arguments of the member-function event that caused this
    /// mask evaluation / firing, if the event was posted with arguments
    /// (see `Database::invoke_with_args`). The §8 extension: "allowing
    /// each member function event to look at the parameters passed to the
    /// corresponding member function, at least in masks".
    pub fn event_args<A: Decode>(&self) -> Result<Option<A>> {
        match self.event_args {
            None => Ok(None),
            Some(bytes) => Ok(Some(decode_all(bytes)?)),
        }
    }

    /// Raw encoded event arguments, if any.
    pub fn raw_event_args(&self) -> Option<&[u8]> {
        self.event_args
    }

    /// The trigger's name (e.g. for audit messages).
    pub fn trigger_name(&self) -> &str {
        self.trigger_name
    }

    /// Named anchor of an inter-object trigger.
    pub fn named_anchor(&self, name: &str) -> Result<Oid> {
        self.anchors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, oid)| *oid)
            .ok_or_else(|| OdeError::Schema(format!("no anchor named {name:?}")))
    }

    /// All named anchors (inter-object triggers).
    pub fn anchors(&self) -> &[(String, Oid)] {
        self.anchors
    }

    /// Abort the surrounding transaction (Ode's `tabort`, which §6 notes
    /// had to be allowed outside static transaction blocks precisely so
    /// trigger actions could use it). Return this from an action:
    ///
    /// ```ignore
    /// return Err(ctx.tabort("Over Limit"));
    /// ```
    pub fn tabort(&self, reason: &str) -> OdeError {
        OdeError::tabort(reason)
    }
}

/// Encode trigger activation parameters (helper shared by activation
/// paths).
pub fn encode_params<P: Encode>(params: &P) -> Vec<u8> {
    encode_to_vec(params)
}
