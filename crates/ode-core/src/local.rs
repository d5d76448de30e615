//! Local rules — the §8 "future work" the paper sketches, implemented.
//!
//! "Including local rules would be useful, since they are low cost and
//! useful for a variety of tasks. No persistent storage is required for
//! such triggers, only data structures that can be deallocated at
//! end-of-transaction. Also, such triggers never require obtaining write
//! locks for the purpose of processing trigger events. They can be used
//! internally to efficiently implement constraints."
//!
//! A local trigger is activated for the current transaction only: its FSM
//! state lives in the per-transaction per-transaction scratchpad
//! scratchpad, advancing it takes no locks and writes nothing, and the
//! instance evaporates when the transaction ends (commit or abort).
//! Coupling is restricted to `immediate` and `end` — a local rule cannot
//! outlive its transaction, so the detached modes make no sense for it.

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::intern::Sym;
use crate::metatype::CouplingMode;
use crate::object::{OdeObject, PersistentPtr};
use crate::post::Firing;
use ode_events::event::EventId;
use ode_events::machine::Advance;
use ode_storage::codec::{encode_to_vec, Encode};
use ode_storage::{Oid, TxnId};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A volatile trigger instance (never stored).
#[derive(Debug, Clone)]
pub struct LocalInstance {
    pub(crate) class_sym: Sym,
    pub(crate) triggernum: usize,
    pub(crate) trigger_name: Arc<str>,
    pub(crate) anchor: Oid,
    pub(crate) params: Arc<[u8]>,
    pub(crate) statenum: u32,
}

impl Database {
    /// Activate a trigger as a *local rule*: it monitors events for the
    /// remainder of this transaction only. The trigger definition is an
    /// ordinary class trigger; only its activation is transient.
    pub fn activate_local<T: OdeObject, P: Encode>(
        &self,
        txn: TxnId,
        ptr: PersistentPtr<T>,
        trigger: &str,
        params: &P,
    ) -> Result<()> {
        let entry = self.entry(T::CLASS)?;
        let (triggernum, info) = entry.td.trigger(trigger).ok_or_else(|| {
            OdeError::Schema(format!("class {:?} has no trigger {trigger:?}", T::CLASS))
        })?;
        if !matches!(info.coupling, CouplingMode::Immediate | CouplingMode::End) {
            return Err(OdeError::Schema(format!(
                "local rule {trigger:?} must use immediate or end coupling, not {}",
                info.coupling
            )));
        }
        let params: Arc<[u8]> = encode_to_vec(params).into();
        let anchor = ptr.oid();

        let mut mask_err: Option<OdeError> = None;
        let outcome = info.fsm.activate(|m| {
            self.eval_mask(
                txn,
                &entry.td,
                m,
                anchor,
                &params,
                &info.name,
                &[],
                None,
                &mut mask_err,
            )
        });
        if let Some(e) = mask_err {
            return Err(e);
        }
        self.metrics().trigger_activations.inc();
        let trigger_name = self.interner.resolve(self.interner.intern(trigger));

        if outcome.accepted {
            let firing = Firing {
                class_sym: entry.sym,
                triggernum,
                trigger_name: Arc::clone(&trigger_name),
                anchor,
                params: Arc::clone(&params),
                anchors: Vec::new().into(),
                coupling: info.coupling,
                event_args: None,
            };
            if let Some(f) = self.schedule(txn, firing) {
                self.fire(txn, &f, true)?;
            }
            if !info.perpetual {
                return Ok(());
            }
        }
        if outcome.status == Advance::Dead {
            return Ok(());
        }
        let instance = LocalInstance {
            class_sym: entry.sym,
            triggernum,
            trigger_name,
            anchor,
            params,
            statenum: outcome.state,
        };
        self.txn_local
            .lock()
            .entry(txn)
            .or_default()
            .local_triggers
            .push(instance);
        self.live_local_rules.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of live local rules in this transaction (introspection).
    pub fn local_trigger_count(&self, txn: TxnId) -> usize {
        self.txn_local
            .lock()
            .get(&txn)
            .map(|l| l.local_triggers.len())
            .unwrap_or(0)
    }

    /// Advance the local rules anchored at `anchor` on `event`; called by
    /// `post_event`. Instances are taken out of the scratchpad while mask
    /// code runs (which may re-enter the database) and merged back after.
    pub(crate) fn advance_local_triggers(
        &self,
        txn: TxnId,
        anchor: Oid,
        event: EventId,
        event_args: Option<&[u8]>,
    ) -> Result<Vec<Firing>> {
        let mut instances = {
            let mut locals = self.txn_local.lock();
            match locals.get_mut(&txn) {
                Some(local) if !local.local_triggers.is_empty() => {
                    std::mem::take(&mut local.local_triggers)
                }
                _ => return Ok(Vec::new()),
            }
        };

        let taken = instances.len();
        let mut firings = Vec::new();
        let mut error = None;
        instances.retain_mut(|inst| {
            if error.is_some() || inst.anchor != anchor {
                return true;
            }
            let Ok(entry) = self.entry_sym(inst.class_sym) else {
                return false;
            };
            let Some(info) = entry.td.trigger_by_num(inst.triggernum) else {
                return false;
            };
            let mut mask_err: Option<OdeError> = None;
            let outcome = info.fsm.post(inst.statenum, event, |m| {
                self.eval_mask(
                    txn,
                    &entry.td,
                    m,
                    inst.anchor,
                    &inst.params,
                    &info.name,
                    &[],
                    event_args,
                    &mut mask_err,
                )
            });
            self.metrics().fsm_advances.inc();
            if let Some(e) = mask_err {
                error = Some(e);
                return true;
            }
            match outcome.status {
                Advance::Ignored => true,
                Advance::Dead => false,
                Advance::Moved => {
                    inst.statenum = outcome.state;
                    if outcome.accepted {
                        firings.push(Firing {
                            class_sym: inst.class_sym,
                            triggernum: inst.triggernum,
                            trigger_name: Arc::clone(&inst.trigger_name),
                            anchor: inst.anchor,
                            params: Arc::clone(&inst.params),
                            anchors: Vec::new().into(),
                            coupling: info.coupling,
                            event_args: event_args.map(<[u8]>::to_vec),
                        });
                        info.perpetual
                    } else {
                        true
                    }
                }
            }
        });
        let dropped = taken - instances.len();
        if dropped > 0 {
            self.live_local_rules.fetch_sub(dropped, Ordering::Relaxed);
        }

        // Merge back (mask code may have activated more local rules).
        {
            let mut locals = self.txn_local.lock();
            let local = locals.entry(txn).or_default();
            instances.append(&mut local.local_triggers);
            local.local_triggers = instances;
        }
        match error {
            Some(e) => Err(e),
            None => Ok(firings),
        }
    }
}
