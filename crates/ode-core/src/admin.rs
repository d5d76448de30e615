//! Administrative checks: verify the invariants that tie the trigger
//! run-time's persistent structures together.
//!
//! The §5 design spreads trigger machinery across two places — the
//! object header, whose flag (§5.4.5 footnote 3) and trigger-state list
//! form the object → triggers map of §5.1.3, and the `TriggerState`
//! records (§5.4.1) — and correctness depends on them agreeing.
//! [`Database::verify_integrity`] walks both and reports every violation;
//! tests run it after torture scenarios, and operators can run it any
//! time.

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::trigger::TriggerStateRec;
use ode_storage::{Oid, StorageError, TxnId};
use std::collections::HashSet;

/// One integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityIssue {
    /// An object's header lists a missing or undecodable TriggerState.
    DanglingRef {
        /// The object whose header holds the ref.
        anchor: Oid,
        /// The missing state record.
        state: Oid,
    },
    /// A TriggerState is not listed in one of its anchors' headers (or
    /// the anchor is gone).
    MissingRef {
        /// The anchor lacking the ref.
        anchor: Oid,
        /// The state record.
        state: Oid,
    },
    /// A record in the trigger-state cluster does not decode.
    UndecodableState {
        /// The record.
        state: Oid,
    },
    /// A TriggerState names a trigger its (registered) class lacks.
    UnknownTrigger {
        /// The state record.
        state: Oid,
        /// Defining class named by the record.
        class: String,
        /// Trigger name that failed to resolve.
        trigger: String,
    },
    /// A TriggerState's FSM state number is out of range for the compiled
    /// machine.
    StaleStateNumber {
        /// The state record.
        state: Oid,
        /// The stored state number.
        statenum: u32,
        /// The machine's state count.
        fsm_len: usize,
    },
}

/// Report from [`Database::verify_integrity`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// All violations found (empty = healthy).
    pub issues: Vec<IntegrityIssue>,
    /// TriggerState records inspected.
    pub states_checked: usize,
    /// Objects whose headers list active triggers.
    pub anchors_checked: usize,
}

impl IntegrityReport {
    /// No violations?
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }
}

impl Database {
    /// Cross-check the object headers' trigger refs against the
    /// trigger-state records, both ways. Read-only; scans every state
    /// record and every object of every class. Classes must be registered
    /// for trigger-name and FSM checks to apply (unregistered classes are
    /// skipped).
    pub fn verify_integrity(&self, txn: TxnId) -> Result<IntegrityReport> {
        let mut report = IntegrityReport::default();
        // State → anchors: each anchor's header must list the state.
        let mut valid = HashSet::new();
        for state in self.storage.scan_cluster(txn, self.state_cluster)? {
            let record = self.storage.read(txn, state)?;
            let Ok(rec) = TriggerStateRec::decode_with(&record, &self.interner) else {
                report
                    .issues
                    .push(IntegrityIssue::UndecodableState { state });
                continue;
            };
            report.states_checked += 1;
            valid.insert(state);
            for anchor in rec.anchor_oids() {
                let listed = match self.read_header(txn, anchor) {
                    Ok(header) => header.refs.contains(&state),
                    Err(OdeError::Storage(StorageError::NoSuchObject(_))) => false,
                    Err(e) => return Err(e),
                };
                if !listed {
                    report
                        .issues
                        .push(IntegrityIssue::MissingRef { anchor, state });
                }
            }
            // Descriptor checks, when the class is registered.
            let class_name = self.interner.resolve(rec.class_sym);
            let trigger_name = self.interner.resolve(rec.trigger_sym);
            if let Some(td) = self.descriptor(&class_name) {
                let resolved = td
                    .trigger_by_num(rec.triggernum as usize)
                    .filter(|i| *i.name == *trigger_name)
                    .or_else(|| td.trigger(&trigger_name).map(|(_, i)| i));
                match resolved {
                    None => report.issues.push(IntegrityIssue::UnknownTrigger {
                        state,
                        class: class_name.to_string(),
                        trigger: trigger_name.to_string(),
                    }),
                    Some(info) => {
                        if rec.statenum as usize >= info.fsm.len() {
                            report.issues.push(IntegrityIssue::StaleStateNumber {
                                state,
                                statenum: rec.statenum,
                                fsm_len: info.fsm.len(),
                            });
                        }
                    }
                }
            }
        }
        // Header → states: every listed ref must name a decodable state.
        for cluster in self.class_clusters(txn)? {
            for anchor in self.storage.scan_cluster(txn, cluster)? {
                let header = self.read_header(txn, anchor)?;
                if header.has_triggers() {
                    report.anchors_checked += 1;
                }
                for state in header.refs {
                    if !valid.contains(&state) {
                        report
                            .issues
                            .push(IntegrityIssue::DanglingRef { anchor, state });
                    }
                }
            }
        }
        Ok(report)
    }
}
