//! Timed triggers — the §8 extension: "timed triggers, where the passage
//! of time can be used to produce events, are also of interest".
//!
//! The database keeps no wall clock; instead the application (or an
//! external scheduler) drives named logical timers with
//! [`Database::tick`]. A tick posts the corresponding `timer <name>` event
//! to every object that currently has active triggers and whose class
//! declares that timer event — so expressions like
//! `after Buy, timer month_end` ("a purchase with no event until month
//! end") work with the ordinary FSM machinery.
//!
//! Tick cost scales with the *interested* objects: per armed object the
//! tick reads only the record header (never the payload), and the
//! timer-name-to-event resolution is memoized per dynamic class, so a
//! tick over N armed objects of C classes does C descriptor lookups and
//! zero allocations per object. Armed objects whose class does not
//! declare the timer are counted in the `tick_skips` metric and otherwise
//! cost one header read.

use crate::database::Database;
use crate::error::Result;
use crate::trigger::TriggerStateRec;
use ode_events::event::EventId;
use ode_storage::{IntMap, TxnId};
use std::collections::hash_map::Entry;

impl Database {
    /// Advance the named logical timer by one tick. Returns the number of
    /// objects the tick event was posted to.
    pub fn tick(&self, txn: TxnId, timer: &str) -> Result<usize> {
        // Only objects with active triggers can care; enumerate the
        // anchors of the trigger-state records rather than every object
        // in the database.
        let mut anchors = Vec::new();
        for state in self.storage.scan_cluster(txn, self.state_cluster)? {
            let raw = self.storage.read(txn, state)?;
            anchors.extend(TriggerStateRec::decode_with(&raw, &self.interner)?.anchor_oids());
        }
        anchors.sort_unstable();
        anchors.dedup();
        // class id → declared `timer <timer>` event, resolved at most
        // once per class per tick (the resolution walks the descriptor's
        // event list comparing strings; armed objects share few classes).
        let mut per_class: IntMap<u32, Option<EventId>> = IntMap::default();
        let mut posted = 0;
        for oid in anchors {
            let Ok(header) = self.read_header(txn, oid) else {
                continue;
            };
            let event = match per_class.entry(header.class_id) {
                Entry::Occupied(slot) => *slot.get(),
                Entry::Vacant(slot) => *slot.insert(
                    self.entry_by_id(header.class_id)
                        .ok()
                        .and_then(|entry| entry.td.timer_event(timer)),
                ),
            };
            match event {
                Some(event) => {
                    self.post_event(txn, oid, event)?;
                    posted += 1;
                }
                None => self.metrics().tick_skips.inc(),
            }
        }
        Ok(posted)
    }
}
