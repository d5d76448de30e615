//! A small explicit binary codec.
//!
//! The paper is emphatic that adding or removing triggers must not change
//! persistent object layout (§3 design goal 5). We make layout an explicit,
//! hand-written concern rather than deriving it: every persistent type
//! implements [`Encode`]/[`Decode`] with a fixed, documented byte layout.
//! All integers are little-endian; variable-length data is length-prefixed
//! with a u32.

use crate::error::{Result, StorageError};
use bytes::{Buf, BufMut, BytesMut};

/// Serialize `self` by appending bytes to `buf`.
pub trait Encode {
    /// Append the encoded form of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// Deserialize from a byte slice, consuming the bytes read.
pub trait Decode: Sized {
    /// Decode a value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self>;
}

/// Encode a value into a fresh `Vec<u8>`.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.to_vec()
}

/// Decode a value and require that every byte was consumed.
pub fn decode_all<T: Decode>(mut bytes: &[u8]) -> Result<T> {
    let v = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(StorageError::Codec(format!(
            "{} trailing bytes after decode",
            bytes.len()
        )));
    }
    Ok(v)
}

/// Overwrite the little-endian `u32` at `offset` inside an already-encoded
/// buffer. Used to patch a single fixed-offset field (e.g. a trigger
/// record's `statenum`) without re-encoding the whole record.
pub fn patch_u32_le(buf: &mut [u8], offset: usize, value: u32) -> Result<()> {
    let len = buf.len();
    let end = offset.saturating_add(4);
    let slice = buf
        .get_mut(offset..end)
        .filter(|s| s.len() == 4)
        .ok_or_else(|| {
            StorageError::Codec(format!(
                "patch_u32_le at {offset} out of bounds for {len}-byte buffer"
            ))
        })?;
    slice.copy_from_slice(&value.to_le_bytes());
    Ok(())
}

fn need(buf: &&[u8], n: usize, what: &str) -> Result<()> {
    if buf.len() < n {
        Err(StorageError::Codec(format!(
            "short input decoding {what}: need {n}, have {}",
            buf.len()
        )))
    } else {
        Ok(())
    }
}

macro_rules! int_codec {
    ($ty:ty, $put:ident, $get:ident, $n:expr) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut &[u8]) -> Result<$ty> {
                need(buf, $n, stringify!($ty))?;
                Ok(buf.$get())
            }
        }
    };
}

int_codec!(u8, put_u8, get_u8, 1);
int_codec!(u16, put_u16_le, get_u16_le, 2);
int_codec!(u32, put_u32_le, get_u32_le, 4);
int_codec!(u64, put_u64_le, get_u64_le, 8);
int_codec!(i8, put_i8, get_i8, 1);
int_codec!(i16, put_i16_le, get_i16_le, 2);
int_codec!(i32, put_i32_le, get_i32_le, 4);
int_codec!(i64, put_i64_le, get_i64_le, 8);
int_codec!(f32, put_f32_le, get_f32_le, 4);
int_codec!(f64, put_f64_le, get_f64_le, 8);

impl Encode for () {
    fn encode(&self, _buf: &mut BytesMut) {}
}

impl Decode for () {
    fn decode(_buf: &mut &[u8]) -> Result<()> {
        Ok(())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(buf: &mut &[u8]) -> Result<bool> {
        need(buf, 1, "bool")?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StorageError::Codec(format!("invalid bool byte {b}"))),
        }
    }
}

/// Append a length-prefixed byte string: `len u32 | bytes`, the same
/// bytes a `Vec<u8>` encodes to, written with one bulk copy.
pub fn encode_bytes(bytes: &[u8], buf: &mut BytesMut) {
    buf.reserve(4 + bytes.len());
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Decode a length-prefixed byte string ([`encode_bytes`]' layout),
/// borrowing it from the input instead of copying it.
pub fn decode_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    need(buf, 4, "byte string length")?;
    let len = buf.get_u32_le() as usize;
    need(buf, len, "byte string body")?;
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

/// Decode a length-prefixed UTF-8 string, borrowing it from the input.
pub fn decode_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    std::str::from_utf8(decode_bytes(buf)?)
        .map_err(|e| StorageError::Codec(format!("invalid utf8: {e}")))
}

impl Encode for str {
    fn encode(&self, buf: &mut BytesMut) {
        encode_bytes(self.as_bytes(), buf);
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_str().encode(buf);
    }
}

impl Decode for String {
    fn decode(buf: &mut &[u8]) -> Result<String> {
        decode_str(buf).map(str::to_owned)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Vec<T>> {
        need(buf, 4, "vec length")?;
        let len = buf.get_u32_le() as usize;
        // Guard against hostile lengths: never pre-reserve more than the
        // remaining input could possibly hold (1 byte per element minimum).
        let mut v = Vec::with_capacity(len.min(buf.len()));
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Option<T>> {
        need(buf, 1, "option tag")?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            b => Err(StorageError::Codec(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut &[u8]) -> Result<(A, B)> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(buf: &mut &[u8]) -> Result<(A, B, C)> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_all(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123_456_789u32);
        roundtrip(u64::MAX);
        roundtrip(-12i8);
        roundtrip(i16::MIN);
        roundtrip(-123_456i32);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-2.25f64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn string_roundtrip() {
        roundtrip(String::from(""));
        roundtrip(String::from("hello, Ode"));
        roundtrip(String::from("ünïcode ✓"));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, String::from("x")));
        roundtrip((1u8, 2u16, 3u32));
    }

    #[test]
    fn byte_strings_encode_like_vec_u8_and_decode_borrowed() {
        for bytes in [&[][..], &[0, 1, 2, 255][..], &[7; 300][..]] {
            let mut buf = BytesMut::new();
            encode_bytes(bytes, &mut buf);
            assert_eq!(&buf[..], &encode_to_vec(&bytes.to_vec())[..]);
            let mut input = &buf[..];
            assert_eq!(decode_bytes(&mut input).unwrap(), bytes);
            assert!(input.is_empty());
        }
        assert!(decode_bytes(&mut &[3, 0, 0, 0, 1, 2][..]).is_err());
        assert!(decode_str(&mut &[1, 0, 0, 0, 0xFF][..]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert!(decode_all::<u32>(&bytes).is_err());
    }

    #[test]
    fn short_input_rejected() {
        assert!(decode_all::<u32>(&[1, 2]).is_err());
        assert!(decode_all::<String>(&[5, 0, 0, 0, b'a']).is_err());
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(decode_all::<bool>(&[2]).is_err());
        assert!(decode_all::<Option<u8>>(&[7]).is_err());
    }

    #[test]
    fn patch_u32_le_rewrites_in_place() {
        // (u32, String, u32): patch the trailing u32 at its fixed offset.
        let mut bytes = encode_to_vec(&(7u32, String::from("abc"), 1u32));
        let offset = 4 + 4 + 3;
        patch_u32_le(&mut bytes, offset, 9).unwrap();
        let back: (u32, String, u32) = decode_all(&bytes).unwrap();
        assert_eq!(back, (7, String::from("abc"), 9));
    }

    #[test]
    fn patch_u32_le_rejects_out_of_bounds() {
        let mut bytes = vec![0u8; 6];
        assert!(patch_u32_le(&mut bytes, 3, 1).is_err());
        assert!(patch_u32_le(&mut bytes, usize::MAX - 2, 1).is_err());
        patch_u32_le(&mut bytes, 2, 0xAABBCCDD).unwrap();
        assert_eq!(&bytes[2..], &[0xDD, 0xCC, 0xBB, 0xAA]);
    }

    #[test]
    fn hostile_vec_length_does_not_overallocate() {
        // Length claims 2^31 elements but only 4 header bytes exist.
        let bytes = [0xFF, 0xFF, 0xFF, 0x7F];
        assert!(decode_all::<Vec<u64>>(&bytes).is_err());
    }
}
