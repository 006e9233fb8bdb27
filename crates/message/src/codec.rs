//! Compact binary codec used to serialize rollouts and DNN parameters.
//!
//! The paper serializes message bodies with Python pickle before inserting them
//! into the object store. We substitute an explicit little-endian binary format
//! with varint-compressed lengths and a memcpy fast path for `f32` tensors (the
//! dominant payload of both rollouts and parameter blobs).
//!
//! The format is self-delimiting: every [`Encode`] implementation writes exactly
//! the bytes its matching [`Decode`] implementation consumes, so values can be
//! concatenated freely.

use std::fmt;

/// Error produced when decoding malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A varint ran longer than 10 bytes.
    VarintOverflow,
    /// An enum discriminant or tag byte was out of range.
    InvalidTag(u8),
    /// A declared length exceeds the remaining input (corrupt stream).
    LengthOverflow { declared: usize, remaining: usize },
    /// String data was not valid UTF-8.
    InvalidUtf8,
    /// A value that must span its whole buffer ended this many bytes early.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            DecodeError::LengthOverflow { declared, remaining } => {
                write!(f, "declared length {declared} exceeds remaining {remaining} bytes")
            }
            DecodeError::InvalidUtf8 => write!(f, "string data was not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} bytes left after the value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sequential reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Ends a read that must span the whole buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] if any byte is left unconsumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(DecodeError::VarintOverflow);
            }
            // The 10th byte (shift 63) contributes a single bit; any higher
            // payload bits would be shifted out of range. `<< 63` would drop
            // them silently, decoding a wrong value — reject instead.
            if shift == 63 && (b & 0x7e) != 0 {
                return Err(DecodeError::VarintOverflow);
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Consumes a varint-prefixed length, validating against remaining input.
    pub fn length(&mut self) -> Result<usize, DecodeError> {
        let declared = self.varint()? as usize;
        if declared > self.remaining() {
            return Err(DecodeError::LengthOverflow { declared, remaining: self.remaining() });
        }
        Ok(declared)
    }
}

/// Appends a LEB128 varint to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Exact number of bytes [`write_varint`] emits for `v`.
pub const fn varint_len(v: u64) -> usize {
    // ceil(bits / 7), with 0 taking one byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Types that can serialize themselves into the codec's binary format.
pub trait Encode {
    /// Appends the encoded form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Exact number of bytes [`encode`](Encode::encode) will append. Lets
    /// [`to_bytes`](Encode::to_bytes) size its buffer in one allocation
    /// instead of growing through the doubling schedule while a multi-MB
    /// tensor streams in.
    fn encoded_size(&self) -> usize;

    /// Convenience: encodes into a fresh buffer, allocating exactly once.
    fn to_bytes(&self) -> Vec<u8> {
        let size = self.encoded_size();
        let mut out = Vec::with_capacity(size);
        self.encode(&mut out);
        debug_assert_eq!(out.len(), size, "encoded_size() disagreed with encode()");
        out
    }
}

/// Types that can deserialize themselves from the codec's binary format.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] if the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes a value that must span the whole of `buf`.
    ///
    /// # Errors
    ///
    /// As [`decode`](Decode::decode), or [`DecodeError::TrailingBytes`] if
    /// the value ends before `buf` does.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

macro_rules! impl_codec_le {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned exact size")))
            }
        }
    )*};
}

impl_codec_le!(u16, u32, u64, i32, i64, f32, f64);

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn encoded_size(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_size(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }
    fn encoded_size(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.varint()? as usize)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn encoded_size(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_size)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Bulk little-endian decode of `len` 4-byte words into a fresh `Vec<T>`.
///
/// On little-endian targets this is one allocation plus one memcpy; on
/// big-endian targets it falls back to the caller-supplied per-element loop.
/// `bytes.len()` must equal `len * 4`.
macro_rules! decode_words_le {
    ($t:ty, $bytes:expr, $len:expr) => {{
        let (bytes, len): (&[u8], usize) = ($bytes, $len);
        debug_assert_eq!(bytes.len(), len * 4);
        if cfg!(target_endian = "little") {
            let mut out: Vec<$t> = Vec::with_capacity(len);
            // SAFETY: `bytes` holds exactly `len * 4` initialized bytes, the
            // destination has capacity for `len` words, and every bit pattern
            // is a valid `$t`. The regions cannot overlap (fresh allocation).
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    out.as_mut_ptr().cast::<u8>(),
                    len * 4,
                );
                out.set_len(len);
            }
            out
        } else {
            bytes
                .chunks_exact(4)
                .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
                .collect()
        }
    }};
}

/// Bulk little-endian encode of a 4-byte-word slice (the mirror of
/// [`decode_words_le`]).
macro_rules! encode_words_le {
    ($vals:expr, $out:expr) => {{
        if cfg!(target_endian = "little") {
            let bytes = unsafe {
                std::slice::from_raw_parts($vals.as_ptr().cast::<u8>(), $vals.len() * 4)
            };
            $out.extend_from_slice(bytes);
        } else {
            for v in $vals.iter() {
                $out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }};
}

impl Encode for Vec<f32> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        encode_words_le!(self, out);
    }
    fn encoded_size(&self) -> usize {
        varint_len(self.len() as u64) + self.len() * 4
    }
}

impl Decode for Vec<f32> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = Vec::new();
        decode_f32s_into(r, &mut out)?;
        Ok(out)
    }
}

/// Decodes a length-prefixed `f32` tensor into a caller-owned buffer,
/// replacing its contents — the allocation-free mirror of
/// `Vec::<f32>::decode` for hot receive paths that recycle buffers. On
/// little-endian targets this is a single memcpy; `out` only grows, so a
/// warmed-up buffer is reused in place.
///
/// # Errors
///
/// Any [`DecodeError`] if the input is truncated or malformed.
pub fn decode_f32s_into(r: &mut Reader<'_>, out: &mut Vec<f32>) -> Result<(), DecodeError> {
    let len = r.varint()? as usize;
    let need = len.checked_mul(4).ok_or(DecodeError::LengthOverflow {
        declared: len,
        remaining: r.remaining(),
    })?;
    if need > r.remaining() {
        return Err(DecodeError::LengthOverflow { declared: need, remaining: r.remaining() });
    }
    let bytes = r.take(need)?;
    out.clear();
    if cfg!(target_endian = "little") {
        out.reserve(len);
        // SAFETY: `bytes` holds exactly `len * 4` initialized bytes, the
        // destination has capacity for `len` words, and every bit pattern is
        // a valid `f32`. The regions cannot overlap (`out` is caller-owned,
        // `bytes` borrows the input).
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), need);
            out.set_len(len);
        }
    } else {
        out.extend(
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)"))),
        );
    }
    Ok(())
}

impl Encode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self);
    }
    fn encoded_size(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length()?;
        Ok(r.take(len)?.to_vec())
    }
}

impl Encode for Vec<u32> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        encode_words_le!(self, out);
    }
    fn encoded_size(&self) -> usize {
        varint_len(self.len() as u64) + self.len() * 4
    }
}

impl Decode for Vec<u32> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.varint()? as usize;
        let need = len.saturating_mul(4);
        if need > r.remaining() {
            return Err(DecodeError::LengthOverflow { declared: need, remaining: r.remaining() });
        }
        let bytes = r.take(need)?;
        Ok(decode_words_le!(u32, bytes, len))
    }
}

impl Encode for Vec<usize> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for v in self {
            write_varint(out, *v as u64);
        }
    }
    fn encoded_size(&self) -> usize {
        varint_len(self.len() as u64)
            + self.iter().map(|v| varint_len(*v as u64)).sum::<usize>()
    }
}

impl Decode for Vec<usize> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.varint()? as usize;
        if len > r.remaining() {
            // Each element takes at least one byte.
            return Err(DecodeError::LengthOverflow { declared: len, remaining: r.remaining() });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(r.varint()? as usize);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_size(), "encoded_size mismatch");
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(123u16);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-5i32);
        round_trip(i64::MIN);
        round_trip(3.75f32);
        round_trip(-2.5f64);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(String::from("hello, 世界"));
        round_trip(Option::<u32>::None);
        round_trip(Some(77u32));
        round_trip(vec![1.0f32, -2.0, 3.5]);
        round_trip(Vec::<f32>::new());
        round_trip(vec![1u8, 2, 3]);
        round_trip(vec![10u32, 20, 30]);
        round_trip(vec![0usize, 1, usize::MAX]);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_len_matches_write_varint() {
        for v in [0u64, 1, 127, 128, 16383, 16384, (1 << 35) - 1, 1 << 35, u64::MAX - 1, u64::MAX]
        {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v), "v = {v}");
        }
    }

    #[test]
    fn varint_rejects_noncanonical_tenth_byte() {
        // Ten continuation bytes whose final byte carries bits above 2^63:
        // the old decoder shifted them out silently and returned a wrong
        // value; they must error instead.
        for last in [0x02u8, 0x7f, 0x42] {
            let mut buf = vec![0x80u8; 9];
            buf.push(last);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Err(DecodeError::VarintOverflow), "last = {last:#04x}");
        }
        // u64::MAX itself (final byte 0x01) stays decodable.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x01);
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint().unwrap(), u64::MAX);
    }

    #[test]
    fn varint_rejects_eleven_bytes() {
        let buf = [0x80u8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn huge_u32_vec_length_errors_without_overflow() {
        // A declared element count near usize::MAX must produce a clean
        // LengthOverflow: the old code computed `len * 4` unchecked when
        // building the error, overflowing in debug builds.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.push(0);
        assert!(matches!(
            Vec::<u32>::from_bytes(&buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bulk_word_decode_matches_per_element() {
        let vals: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2_654_435_761).wrapping_add(i)).collect();
        round_trip(vals);
        let vals: Vec<f32> = (0..1000).map(|i| i as f32 * -0.37).collect();
        let bytes = vals.to_bytes();
        let mut r = Reader::new(&bytes);
        let len = r.varint().unwrap() as usize;
        let raw = r.take(len * 4).unwrap();
        for (i, chunk) in raw.chunks_exact(4).enumerate() {
            assert_eq!(f32::from_le_bytes(chunk.try_into().unwrap()), vals[i]);
        }
    }

    #[test]
    fn decode_f32s_into_reuses_buffer() {
        let vals: Vec<f32> = (0..64).map(|i| i as f32 * 0.125 - 3.0).collect();
        let bytes = vals.to_bytes();
        let mut out = vec![9.0f32; 128]; // stale content is replaced, capacity kept
        let cap = out.capacity();
        let mut r = Reader::new(&bytes);
        decode_f32s_into(&mut r, &mut out).unwrap();
        assert_eq!(out, vals);
        assert_eq!(out.capacity(), cap, "no reallocation when capacity suffices");
        assert!(r.is_empty());
        // Truncated input errors without touching validity guarantees.
        let mut r = Reader::new(&bytes[..bytes.len() - 2]);
        assert!(decode_f32s_into(&mut r, &mut out).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = vec![1.0f32, 2.0].to_bytes();
        assert!(matches!(
            Vec::<f32>::from_bytes(&bytes[..bytes.len() - 1]),
            Err(DecodeError::LengthOverflow { .. }) | Err(DecodeError::UnexpectedEof)
        ));
        assert_eq!(u32::from_bytes(&[1, 2]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn invalid_bool_tag_errors() {
        assert_eq!(bool::from_bytes(&[2]), Err(DecodeError::InvalidTag(2)));
    }

    #[test]
    fn length_overflow_detected() {
        // Declares a 1000-byte string but provides 2 bytes.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1000);
        buf.extend_from_slice(&[1, 2]);
        assert!(matches!(String::from_bytes(&buf), Err(DecodeError::LengthOverflow { .. })));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&buf), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn values_concatenate() {
        let mut buf = Vec::new();
        42u32.encode(&mut buf);
        String::from("x").encode(&mut buf);
        vec![1.0f32].encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(u32::decode(&mut r).unwrap(), 42);
        assert_eq!(String::decode(&mut r).unwrap(), "x");
        assert_eq!(Vec::<f32>::decode(&mut r).unwrap(), vec![1.0]);
        assert!(r.is_empty());
    }

    #[test]
    fn from_bytes_rejects_trailing_bytes() {
        assert_eq!(u64::from_bytes(&[0; 8]), Ok(0));
        assert_eq!(u64::from_bytes(&[0; 9]), Err(DecodeError::TrailingBytes(1)));
        let mut buf = String::from("x").to_bytes();
        buf.extend_from_slice(&[1, 2, 3]);
        assert_eq!(String::from_bytes(&buf), Err(DecodeError::TrailingBytes(3)));
    }
}
