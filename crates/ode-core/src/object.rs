//! Persistent objects and typed persistent pointers.
//!
//! O++ splits memory into volatile and persistent halves (§2): persistent
//! objects are created with `pnew`, addressed through *persistent
//! pointers*, and only invocations through persistent pointers post
//! trigger events. [`PersistentPtr<T>`] is the Rust spelling of
//! `persistent T*`; plain `&T`/`&mut T` references are the volatile side
//! and never touch the trigger machinery (design goal 4: "the trigger
//! facilities should not add any overhead to volatile object accesses").
//!
//! On disk every object record is
//!
//! ```text
//! [class_id u32][flags u8]                      -- no active triggers
//! [class_id u32][flags u8][n u16][n × Oid]      -- FLAG_HAS_TRIGGERS set
//! ```
//!
//! followed by the payload. The class id names the object's *dynamic*
//! class (needed for event posting with inheritance), and the flag byte
//! carries the "this object has active triggers" bit the paper uses to
//! skip the trigger lookup entirely for trigger-free objects (§5.4.5,
//! footnote 3). When the bit is set, the header also lists the Oids of
//! the object's active `TriggerState` records: §5.1.3's object → triggers
//! map, kept in the anchor the post already reads. The bit is set exactly
//! when the list is non-empty. The payload layout is whatever the class's
//! [`OdeObject`] codec writes — and because trigger *state* lives outside
//! the object, attaching or removing triggers never changes it (design
//! goal 5).

use crate::error::{OdeError, Result};
use bytes::{BufMut, BytesMut};
use ode_storage::codec::{Decode, Encode};
use ode_storage::Oid;
use std::marker::PhantomData;

/// A persistent class: a codec plus a class name that must match the name
/// the class was registered under.
pub trait OdeObject: Encode + Decode {
    /// The class name, linking values to their [`crate::metatype::TypeDescriptor`].
    const CLASS: &'static str;
}

/// Flag bit: the object has at least one active trigger, and its header
/// carries the trigger-state list.
const FLAG_HAS_TRIGGERS: u8 = 0b0000_0001;

/// Bytes of the fixed header part: class id and flag byte.
const FIXED_LEN: usize = 5;

/// Encoded size of one [`Oid`] in the trigger-state list.
const OID_LEN: usize = 6;

/// Decoded object record header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ObjectHeader {
    pub class_id: u32,
    /// The object's active `TriggerState` records, in activation order.
    pub refs: Vec<Oid>,
}

impl ObjectHeader {
    /// The header of a freshly created object: no active triggers.
    pub fn new(class_id: u32) -> ObjectHeader {
        ObjectHeader {
            class_id,
            refs: Vec::new(),
        }
    }

    pub fn has_triggers(&self) -> bool {
        !self.refs.is_empty()
    }

    /// Encoded header length: where the payload starts.
    pub fn encoded_len(&self) -> usize {
        match self.refs.len() {
            0 => FIXED_LEN,
            n => FIXED_LEN + 2 + n * OID_LEN,
        }
    }

    /// Add a trigger-state ref. The count is a `u16` on disk.
    pub fn add_ref(&mut self, state: Oid) -> Result<()> {
        if self.refs.len() >= usize::from(u16::MAX) {
            return Err(OdeError::Schema(format!(
                "object has {} active triggers, the most one header holds",
                self.refs.len()
            )));
        }
        self.refs.push(state);
        Ok(())
    }

    /// Remove a trigger-state ref; false when it was not there.
    pub fn remove_ref(&mut self, state: Oid) -> bool {
        let before = self.refs.len();
        self.refs.retain(|r| *r != state);
        self.refs.len() != before
    }

    pub fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.class_id);
        if self.refs.is_empty() {
            buf.put_u8(0);
            return;
        }
        buf.put_u8(FLAG_HAS_TRIGGERS);
        let n = u16::try_from(self.refs.len()).expect("add_ref caps the list at u16::MAX");
        buf.put_u16_le(n);
        for r in &self.refs {
            r.encode(buf);
        }
    }

    /// Split a stored record into (header, payload). Malformed bytes are
    /// an error, never a panic.
    pub fn split(record: &[u8]) -> Result<(ObjectHeader, &[u8])> {
        let corrupt = |what: &str| OdeError::Schema(format!("object record {what}"));
        let Some((fixed, mut rest)) = record.split_first_chunk::<FIXED_LEN>() else {
            return Err(corrupt("too short"));
        };
        let class_id = u32::from_le_bytes([fixed[0], fixed[1], fixed[2], fixed[3]]);
        let refs = match fixed[4] {
            0 => Vec::new(),
            FLAG_HAS_TRIGGERS => {
                let Some((n, tail)) = rest.split_first_chunk::<2>() else {
                    return Err(corrupt("truncated in its trigger list"));
                };
                let n = usize::from(u16::from_le_bytes(*n));
                if n == 0 {
                    return Err(corrupt("flags triggers but lists none"));
                }
                if tail.len() < n * OID_LEN {
                    return Err(corrupt("truncated in its trigger list"));
                }
                rest = tail;
                let mut refs = Vec::with_capacity(n);
                for _ in 0..n {
                    refs.push(Oid::decode(&mut rest)?);
                }
                refs
            }
            other => return Err(corrupt(&format!("has unknown flag bits {other:#04x}"))),
        };
        Ok((ObjectHeader { class_id, refs }, rest))
    }
}

/// A typed persistent pointer (`persistent T*`). `Copy`, cheap, and
/// storable inside other persistent objects.
pub struct PersistentPtr<T> {
    oid: Oid,
    _type: PhantomData<fn() -> T>,
}

impl<T> PersistentPtr<T> {
    /// Wrap a raw Oid. The type is asserted, not checked — checks happen
    /// at dereference time against the stored class id.
    pub fn from_oid(oid: Oid) -> PersistentPtr<T> {
        PersistentPtr {
            oid,
            _type: PhantomData,
        }
    }

    /// The underlying object identifier.
    pub fn oid(&self) -> Oid {
        self.oid
    }

    /// Reinterpret as a pointer to another class (e.g. derived → base).
    /// Like the raw constructor, validity is checked at dereference.
    pub fn cast<U>(&self) -> PersistentPtr<U> {
        PersistentPtr::from_oid(self.oid)
    }
}

// Manual impls: derive would bound T unnecessarily.
impl<T> Clone for PersistentPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PersistentPtr<T> {}

impl<T> PartialEq for PersistentPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.oid == other.oid
    }
}
impl<T> Eq for PersistentPtr<T> {}

impl<T> std::hash::Hash for PersistentPtr<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.oid.hash(state);
    }
}

impl<T> std::fmt::Debug for PersistentPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PersistentPtr({})", self.oid)
    }
}

impl<T> Encode for PersistentPtr<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.oid.encode(buf);
    }
}

impl<T> Decode for PersistentPtr<T> {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(PersistentPtr::from_oid(Oid::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_storage::codec::{decode_all, encode_to_vec};

    struct Dummy;

    #[test]
    fn ptr_roundtrips_through_codec() {
        let p: PersistentPtr<Dummy> = PersistentPtr::from_oid(Oid::new(7, 3));
        let bytes = encode_to_vec(&p);
        let q: PersistentPtr<Dummy> = decode_all(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn cast_preserves_oid() {
        let p: PersistentPtr<Dummy> = PersistentPtr::from_oid(Oid::new(1, 2));
        let q: PersistentPtr<u8> = p.cast();
        assert_eq!(p.oid(), q.oid());
    }

    fn encoded(class_id: u32, refs: &[Oid], payload: &[u8]) -> (ObjectHeader, BytesMut) {
        let h = ObjectHeader {
            class_id,
            refs: refs.to_vec(),
        };
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), h.encoded_len());
        buf.put_slice(payload);
        (h, buf)
    }

    #[test]
    fn header_roundtrip_and_flags() {
        for (refs, flag) in [(vec![], 0), (vec![Oid::new(4, 1), Oid::new(4, 2)], 1)] {
            let (h, buf) = encoded(9, &refs, b"payload");
            assert_eq!(buf[4], flag, "the flag is set exactly when refs exist");
            assert_eq!(ObjectHeader::split(&buf).unwrap(), (h, &b"payload"[..]));
        }
    }

    #[test]
    fn short_record_rejected() {
        assert!(ObjectHeader::split(&[1, 2]).is_err());
    }

    #[test]
    fn malformed_headers_rejected() {
        // The flag with an empty list, a truncated list, unknown flag bits.
        for bad in [
            &[1, 0, 0, 0, 1, 0, 0][..],
            &[1, 0, 0, 0, 1, 2, 0, 1, 2],
            &[1, 0, 0, 0, 0x80],
        ] {
            assert!(ObjectHeader::split(bad).is_err(), "{bad:?}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The header decoder never panics on arbitrary bytes. The
            /// flag byte and the list count are biased toward the values
            /// that reach the list decoder.
            #[test]
            fn split_never_panics(
                raw in prop::collection::vec(any::<u8>(), 0..16),
                flag in prop_oneof![Just(0u8), Just(FLAG_HAS_TRIGGERS), any::<u8>()],
                count in prop_oneof![0..4u16, any::<u16>()],
                tail in prop::collection::vec(any::<u8>(), 0..40),
            ) {
                let _ = ObjectHeader::split(&raw);
                let mut bytes = vec![7, 0, 0, 0, flag];
                bytes.extend_from_slice(&count.to_le_bytes());
                bytes.extend_from_slice(&tail);
                for len in 0..=bytes.len() {
                    let _ = ObjectHeader::split(&bytes[..len]);
                }
            }

            /// `write` then `split` round-trips any header and payload.
            #[test]
            fn write_split_roundtrips(
                class_id in any::<u32>(),
                refs in prop::collection::vec((any::<u32>(), any::<u16>()), 0..8),
                payload in prop::collection::vec(any::<u8>(), 0..16),
            ) {
                let refs: Vec<Oid> = refs.into_iter().map(|(p, s)| Oid::new(p, s)).collect();
                let (h, buf) = encoded(class_id, &refs, &payload);
                prop_assert_eq!(ObjectHeader::split(&buf).unwrap(), (h, &payload[..]));
            }
        }
    }
}
