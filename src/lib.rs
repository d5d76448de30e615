//! # ode — a Rust reproduction of the Ode active database
//!
//! This workspace reimplements *The Ode Active Database: Trigger Semantics
//! and Implementation* (Lieuwen, Gehani, Arlein; ICDE 1996): an object
//! database whose **triggers** pair *composite events* — recognised by
//! finite state machines compiled from a regular-expression-like event
//! algebra — with actions, under the full set of ECA coupling modes.
//!
//! The facade re-exports the three layers:
//!
//! * [`storage`] (`ode-storage`) — the EOS-like disk engine and Dali-like
//!   main-memory engine: slotted pages, buffer pool, WAL + recovery,
//!   strict 2PL with deadlock detection, transactions with commit
//!   dependencies, and a persistent B+-tree.
//! * [`events`] (`ode-events`) — basic events, the run-time `eventRep`
//!   registry of globally unique event integers, the event-expression
//!   parser, and the NFA→DFA compiler with mask states (the paper's
//!   Figure 1 machine compiles exactly).
//! * [`core`] (`ode-core`) — the object manager and trigger run-time:
//!   classes, persistent objects and pointers, wrapper-function event
//!   posting, trigger activation/deactivation, coupling modes,
//!   transaction events, plus the paper's future-work extensions (local
//!   rules, timed triggers, inter-object triggers).
//!
//! A fourth crate, [`obs`] (`ode-obs`), threads a lock-free metrics
//! registry and optional tracing hooks through all three:
//! `Database::stats()` snapshots every engine counter (lock waits, WAL
//! fsyncs, FSM transitions, firings by coupling mode, …) and
//! `MetricsSnapshot::render_prometheus()` formats them for scraping.
//!
//! ## Quickstart
//!
//! ```
//! use ode::prelude::*;
//! use bytes::BytesMut;
//!
//! #[derive(Debug, Clone)]
//! struct Thermometer { celsius: f32 }
//!
//! impl Encode for Thermometer {
//!     fn encode(&self, buf: &mut BytesMut) { self.celsius.encode(buf); }
//! }
//! impl Decode for Thermometer {
//!     fn decode(buf: &mut &[u8]) -> ode::storage::Result<Self> {
//!         Ok(Thermometer { celsius: f32::decode(buf)? })
//!     }
//! }
//! impl OdeObject for Thermometer {
//!     const CLASS: &'static str = "Thermometer";
//! }
//!
//! let db = Database::volatile();
//! let class = ClassBuilder::new("Thermometer")
//!     .after_event("SetTemp")
//!     .mask("TooHot", |ctx| {
//!         let t: Thermometer = ctx.object()?;
//!         Ok(t.celsius > 100.0)
//!     })
//!     .trigger("Alarm", "after SetTemp & TooHot()",
//!              CouplingMode::Immediate, Perpetual::Yes,
//!              |ctx| Err(ctx.tabort("too hot")))
//!     .build(db.registry())
//!     .unwrap();
//! db.register_class(&class).unwrap();
//!
//! let sensor = db.with_txn(|txn| {
//!     let s = db.pnew(txn, &Thermometer { celsius: 20.0 })?;
//!     db.activate(txn, s, "Alarm", &())?;
//!     Ok(s)
//! }).unwrap();
//!
//! // Fine:
//! db.with_txn(|txn| db.invoke(txn, sensor, "SetTemp",
//!     |t: &mut Thermometer| { t.celsius = 90.0; Ok(()) })).unwrap();
//! // Fires the alarm, aborting the transaction:
//! let err = db.with_txn(|txn| db.invoke(txn, sensor, "SetTemp",
//!     |t: &mut Thermometer| { t.celsius = 120.0; Ok(()) })).unwrap_err();
//! assert!(err.is_abort());
//! ```

pub use ode_core as core;
pub use ode_events as events;
pub use ode_obs as obs;
pub use ode_storage as storage;

/// The commonly needed names in one import.
pub mod prelude {
    pub use ode_core::{
        BasicEvent, ClassBuilder, CouplingMode, Database, Decode, Encode, EngineKind,
        InterClassBuilder, MonitoredClassBuilder, MonitoredSpace, OdeClass, OdeError, OdeObject,
        Perpetual, PersistentPtr, StorageOptions, TriggerCtx, TriggerId, TxnId,
    };
    pub use ode_obs::{Metrics, MetricsSnapshot};
}

pub use prelude::*;
