//! # ode-core — the Ode object manager and trigger run-time
//!
//! This crate is the paper's primary contribution: the integration of
//! composite-event triggers into an object database (*The Ode Active
//! Database: Trigger Semantics and Implementation*, ICDE 1996).
//!
//! A [`Database`] layers on `ode-storage` (EOS-like disk engine or
//! Dali-like main-memory engine — regular Ode vs MM-Ode, §5.6) and
//! provides:
//!
//! * **Classes** with declared events and triggers —
//!   [`class::ClassBuilder`] plays the O++ compiler, interning events in
//!   the run-time registry (§5.2) and compiling trigger expressions to
//!   FSMs (§5.1).
//! * **Persistent objects** ([`Database::pnew`], [`object::PersistentPtr`])
//!   whose member functions, when invoked *through persistent pointers*
//!   via [`Database::invoke`], post `before`/`after` events exactly like
//!   the compiler-generated wrapper functions of §5.3. Volatile use of the
//!   same Rust types costs nothing (design goals 3–4).
//! * **Triggers**: activation/deactivation (§4.1), persistent trigger
//!   state outside the object, listed by Oid in each anchor's header as
//!   the object→triggers map (§5.1.3), event posting with mask quiescence and
//!   fire-after-all-posted (§5.4.5), perpetual vs once-only (§4),
//!   and all four coupling modes with transaction events (§4.2, §5.5).
//! * **Extensions** the paper lists as future work: local rules
//!   ([`local`]), timed triggers ([`timed`]), and inter-object triggers
//!   ([`interobject`]).
//!
//! See the crate examples (`credit_card.rs` reproduces §4 end to end) and
//! the workspace DESIGN.md for the paper-to-module map.

#![warn(missing_docs)]

pub mod admin;
pub mod class;
pub mod context;
pub mod coupling;
pub mod database;
pub mod ddl;
pub mod engine;
pub mod error;
pub mod index;
mod intern;
pub mod interobject;
pub mod local;
pub mod metatype;
pub mod monitored;
pub mod object;
pub mod phoenix;
pub mod post;
pub mod session;
pub mod timed;
pub mod trigger;

pub use admin::{IntegrityIssue, IntegrityReport};
pub use class::{ClassBuilder, Perpetual};
pub use context::{TriggerCtx, TriggerStats};
pub use database::Database;
pub use ddl::{DdlError, Statement};
pub use engine::Engine;
pub use error::{OdeError, Result};
pub use interobject::InterClassBuilder;
pub use metatype::{CouplingMode, TriggerInfo, TypeDescriptor};
pub use monitored::{MonitoredClass, MonitoredClassBuilder, MonitoredPtr, MonitoredSpace};
pub use object::{OdeObject, PersistentPtr};
pub use phoenix::{PhoenixHandler, PhoenixReport};
pub use session::{PendingCommit, Session};
pub use trigger::TriggerId;

// Re-exports so applications need only this crate (plus the codec traits
// every persistent class implements).
pub use bytes;
pub use ode_derive::OdeClass;
pub use ode_events::event::{BasicEvent, EventId, EventTime};
pub use ode_storage::codec::{Decode, Encode};
pub use ode_storage::{EngineKind, Oid, Storage, StorageError, StorageOptions, TxnId};
