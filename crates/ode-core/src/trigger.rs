//! Persistent trigger state (§5.4.1).
//!
//! "The trigger state is stored in a persistent data structure, since it
//! must persist across transactions":
//!
//! ```text
//! persistent struct TriggerState {
//!     unsigned int triggernum;
//!     persistent void *trigobj;
//!     int statenum;
//!     persistent metatype *trigobjtype;
//! };
//! typedef persistent TriggerState *TriggerId;
//! ```
//!
//! Our record carries the same fields — `triggernum`, the anchor object
//! (`trigobj`), the FSM state (`statenum`), and the defining class
//! (`trigobjtype`, needed "because of inheritance since an object can have
//! active triggers from several base classes") — plus the activation
//! parameters (the paper subclasses `TriggerState` per trigger to hold
//! them, e.g. `CredCardAutoRaiseLimitStruct`; we store them as an encoded
//! blob) and, for the inter-object extension, the named anchor list.
//!
//! On disk the class and trigger are stored *by name* (robust against
//! id reassignment between sessions); in memory they are interned
//! `Sym`s so the posting hot path never touches a `String`. Shared
//! fields (`params`, `anchors`) sit behind `Arc`s, making the
//! record — and the `Firing`s cut from it — cheap to clone.
//!
//! [`TriggerId`] is, as in the paper, simply the persistent pointer to the
//! state record.
//!
//! Because the record lives in ordinary storage, its `statenum` advances
//! participate in MVCC like any object write: the committing transaction
//! installs a changed statenum as a fresh version (an unchanged one is not
//! rewritten, so no version is needed), so a read-only snapshot
//! transaction (e.g. [`Database::trigger_statenum`] inside
//! `with_read_txn`) sees a committed-prefix-consistent FSM position
//! without taking the §6 read lock at all.
//!
//! [`Database::trigger_statenum`]: crate::database::Database::trigger_statenum

use crate::intern::{Interner, Sym};
use bytes::{BufMut, BytesMut};
use ode_storage::codec::{decode_bytes, decode_str, encode_bytes, Decode, Encode};
use ode_storage::{Oid, StorageError};
use std::sync::Arc;

/// Handle for deactivating a trigger — "trigger activation returns a
/// TriggerId which can be used to deactivate the trigger" (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriggerId(pub(crate) Oid);

impl TriggerId {
    /// The underlying persistent state record's Oid.
    pub fn oid(&self) -> Oid {
        self.0
    }

    /// Rebuild a TriggerId from a stored Oid (e.g. kept in an application
    /// object across transactions, as `AutoRaise` is in §4.1).
    pub fn from_oid(oid: Oid) -> TriggerId {
        TriggerId(oid)
    }
}

impl std::fmt::Display for TriggerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trigger@{}", self.0)
    }
}

/// The persistent trigger state record (in-memory, interned form).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TriggerStateRec {
    /// Index into the defining class's trigger table.
    pub triggernum: u32,
    /// Trigger name (redundant with `triggernum`; used to re-resolve if a
    /// class definition reorders its triggers between sessions).
    pub trigger_sym: Sym,
    /// Current FSM state.
    pub statenum: u32,
    /// Defining class (`trigobjtype`).
    pub class_sym: Sym,
    /// Anchor object (`trigobj`).
    pub anchor: Oid,
    /// Encoded activation parameters.
    pub params: Arc<[u8]>,
    /// Named anchors (inter-object triggers only; empty otherwise).
    pub anchors: Arc<[(String, Oid)]>,
}

impl TriggerStateRec {
    /// Encode in the on-disk (name-based) layout: `triggernum`,
    /// `trigger_name`, `statenum`, `class_name`, `anchor`, params blob,
    /// anchors.
    pub fn encode_with(&self, interner: &Interner, buf: &mut BytesMut) {
        self.triggernum.encode(buf);
        interner.resolve(self.trigger_sym).encode(buf);
        self.statenum.encode(buf);
        interner.resolve(self.class_sym).encode(buf);
        self.anchor.encode(buf);
        encode_bytes(&self.params, buf);
        buf.put_u32_le(self.anchors.len() as u32);
        for a in self.anchors.iter() {
            a.encode(buf);
        }
    }

    /// Encode into a fresh `Vec` (activation path; not hot).
    pub fn encode_to_vec_with(&self, interner: &Interner) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.encode_with(interner, &mut buf);
        buf.to_vec()
    }

    /// Decode the full record, interning the names, and require every
    /// byte consumed (like `decode_all`).
    pub fn decode_with(mut bytes: &[u8], interner: &Interner) -> ode_storage::Result<Self> {
        let buf = &mut bytes;
        let rec = TriggerStateRec {
            triggernum: u32::decode(buf)?,
            trigger_sym: interner.intern(decode_str(buf)?),
            statenum: u32::decode(buf)?,
            class_sym: interner.intern(decode_str(buf)?),
            anchor: Oid::decode(buf)?,
            params: Arc::from(decode_bytes(buf)?),
            anchors: Vec::<(String, Oid)>::decode(buf)?.into(),
        };
        if !buf.is_empty() {
            return Err(StorageError::Codec(format!(
                "{} trailing bytes after TriggerState decode",
                buf.len()
            )));
        }
        Ok(rec)
    }

    /// Every object whose header lists this record: the anchor plus, for
    /// inter-object triggers, each named anchor — sorted, without repeats.
    pub fn anchor_oids(&self) -> Vec<Oid> {
        let mut oids = vec![self.anchor];
        oids.extend(self.anchors.iter().map(|(_, o)| *o));
        oids.sort_unstable();
        oids.dedup();
        oids
    }

    /// Byte offset of `statenum` within the encoded record: after the
    /// `u32` triggernum and the length-prefixed trigger name.
    pub fn statenum_offset(trigger_name_len: usize) -> usize {
        4 + 4 + trigger_name_len
    }
}

/// A trigger state checked into the per-transaction cache: the decoded
/// record plus the on-disk image it came from. `statenum` advances in
/// `rec` only; the image is patched (at [`statenum_offset`]) and written
/// back in one pass at commit when `dirty`. Aborts simply drop the
/// cache — storage was never touched.
///
/// `dirty` is raised by any advance that *moved* the FSM — even one
/// whose cycle returns to the stored state (arm → fire → start). Commit
/// then takes the write lock either way, preserving §6's
/// read-becomes-write amplification (once per transaction instead of once
/// per posting), but writes the record only when `statenum` differs from
/// the one in `raw`.
///
/// [`statenum_offset`]: TriggerStateRec::statenum_offset
#[derive(Debug, Clone)]
pub(crate) struct CachedTriggerState {
    /// Decoded, interned record; `statenum` is the live (in-txn) state.
    pub rec: TriggerStateRec,
    /// Resolved trigger name, shared with the interner — firings clone the
    /// `Arc`, never the characters.
    pub trigger_name: Arc<str>,
    /// The encoded record as read from (or first written to) storage.
    pub raw: Vec<u8>,
    /// Byte offset of `statenum` inside `raw`.
    pub statenum_offset: usize,
    /// The FSM moved this transaction: settle the record at commit.
    pub dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(interner: &Interner) -> TriggerStateRec {
        TriggerStateRec {
            triggernum: 1,
            trigger_sym: interner.intern("AutoRaiseLimit"),
            statenum: 2,
            class_sym: interner.intern("CredCard"),
            anchor: Oid::new(3, 4),
            params: vec![0, 0, 122, 68].into(), // 1000.0f32
            anchors: vec![(String::from("stock"), Oid::new(5, 6))].into(),
        }
    }

    #[test]
    fn state_record_roundtrips() {
        let interner = Interner::default();
        let rec = sample(&interner);
        let bytes = rec.encode_to_vec_with(&interner);
        let back = TriggerStateRec::decode_with(&bytes, &interner).unwrap();
        assert_eq!(back, rec);
        // Decoding with a *fresh* interner must also work (symbols are
        // session-local, the wire format is not).
        let other = Interner::default();
        let again = TriggerStateRec::decode_with(&bytes, &other).unwrap();
        assert_eq!(again.statenum, rec.statenum);
        assert_eq!(&*other.resolve(again.class_sym), "CredCard");
    }

    #[test]
    fn statenum_offset_points_at_statenum() {
        let interner = Interner::default();
        let mut rec = sample(&interner);
        let mut bytes = rec.encode_to_vec_with(&interner);
        let offset = TriggerStateRec::statenum_offset("AutoRaiseLimit".len());
        ode_storage::codec::patch_u32_le(&mut bytes, offset, 77).unwrap();
        let back = TriggerStateRec::decode_with(&bytes, &interner).unwrap();
        rec.statenum = 77;
        assert_eq!(back, rec);
    }

    #[test]
    fn trigger_id_roundtrips_via_oid() {
        let id = TriggerId::from_oid(Oid::new(9, 9));
        assert_eq!(TriggerId::from_oid(id.oid()), id);
        assert!(id.to_string().contains("9:9"));
    }
}
