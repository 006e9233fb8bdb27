//! Chunked compression container: splits large bodies into independently
//! compressed LZ4 frames.
//!
//! The legacy path compressed a whole >1 MiB body as one LZ4 block on one
//! core, and forced each receiver to decompress it on a single core too. This
//! container splits the body into fixed 256 KiB spans, each compressed (or
//! stored raw when compression does not pay) as an *independent* frame, so:
//!
//! * compression and decompression parallelize across a worker pool
//!   (`xingtian-comm::pool`) — every chunk is self-contained;
//! * the decoder learns the exact uncompressed size up front and allocates
//!   once ([`lz4::decompress_sized`]) instead of guessing `input.len() * 3`.
//!
//! # Wire format
//!
//! All integers are LEB128 varints:
//!
//! ```text
//! total_uncompressed_len | chunk_count | chunk*
//! chunk := flag (1 byte: 0 raw, 1 lz4) | uncompressed_len | stored_len | payload
//! ```
//!
//! The container carries no magic: the message [`Header`](crate::Header)
//! distinguishes chunked bodies from legacy single-block ones via
//! [`CompressionKind`](crate::CompressionKind).
//!
//! # Hostile-input guards
//!
//! [`parse_chunked`] validates *all* metadata — total length against
//! [`MAX_TOTAL_LEN`], per-chunk lengths against [`MAX_CHUNK_LEN`], stored
//! lengths against the remaining input, chunk count against the declared
//! total, and the sum of chunk lengths against the prefix — before any
//! output allocation happens, so a lying length prefix cannot trigger an
//! over-allocation, and per-chunk decoding rejects frames whose decoded size
//! disagrees with their declared size.

use crate::lz4::{self, Lz4Error};
use std::fmt;

/// Uncompressed span covered by one chunk.
pub const CHUNK_SIZE: usize = 256 * 1024;
/// Decompression-bomb guard: maximum total uncompressed body size (2 GiB).
pub const MAX_TOTAL_LEN: usize = 2 * 1024 * 1024 * 1024;
/// Decompression-bomb guard: maximum single-chunk uncompressed size. Honest
/// encoders emit [`CHUNK_SIZE`] chunks; the slack tolerates future tuning.
pub const MAX_CHUNK_LEN: usize = 4 * 1024 * 1024;

/// Chunk payload flag: stored verbatim.
const FLAG_RAW: u8 = 0;
/// Chunk payload flag: LZ4 block.
const FLAG_LZ4: u8 = 1;

/// Error produced when parsing or decompressing a chunk container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The container ended before the declared chunks were read.
    Truncated,
    /// The declared total uncompressed length exceeds [`MAX_TOTAL_LEN`].
    TotalTooLarge { declared: usize },
    /// A chunk declared an uncompressed length above [`MAX_CHUNK_LEN`].
    ChunkTooLarge { declared: usize },
    /// The declared chunk count is impossible for the declared total length.
    BadChunkCount { count: usize, total_len: usize },
    /// Chunk uncompressed lengths do not sum to the declared total.
    LengthMismatch { declared: usize, sum: usize },
    /// Unknown chunk flag byte.
    BadFlag(u8),
    /// A raw chunk's stored length differs from its uncompressed length.
    RawLengthMismatch { declared: usize, stored: usize },
    /// An LZ4 chunk failed to decode.
    Lz4(Lz4Error),
    /// A varint was malformed or overflowed.
    BadVarint,
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Truncated => write!(f, "chunk container ended mid-chunk"),
            ChunkError::TotalTooLarge { declared } => {
                write!(f, "declared total length {declared} exceeds cap {MAX_TOTAL_LEN}")
            }
            ChunkError::ChunkTooLarge { declared } => {
                write!(f, "declared chunk length {declared} exceeds cap {MAX_CHUNK_LEN}")
            }
            ChunkError::BadChunkCount { count, total_len } => {
                write!(f, "chunk count {count} impossible for total length {total_len}")
            }
            ChunkError::LengthMismatch { declared, sum } => {
                write!(f, "chunk lengths sum to {sum} but container declares {declared}")
            }
            ChunkError::BadFlag(b) => write!(f, "unknown chunk flag {b:#04x}"),
            ChunkError::RawLengthMismatch { declared, stored } => {
                write!(f, "raw chunk declares {declared} bytes but stores {stored}")
            }
            ChunkError::Lz4(e) => write!(f, "chunk lz4 error: {e}"),
            ChunkError::BadVarint => write!(f, "malformed varint in chunk container"),
        }
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChunkError::Lz4(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Lz4Error> for ChunkError {
    fn from(e: Lz4Error) -> Self {
        ChunkError::Lz4(e)
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, ChunkError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *input.get(*pos).ok_or(ChunkError::Truncated)?;
        *pos += 1;
        if shift == 63 && (b & 0x7e) != 0 {
            return Err(ChunkError::BadVarint);
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(ChunkError::BadVarint);
        }
    }
}

/// One chunk's metadata, referencing its payload by byte range so callers can
/// fan chunks out to workers without copying (e.g. by cloning a shared
/// `Bytes` handle and indexing with `payload`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRef {
    /// Whether the payload is an LZ4 block (`true`) or stored raw (`false`).
    pub compressed: bool,
    /// Size of this chunk once decompressed.
    pub uncompressed_len: usize,
    /// Byte range of the payload within the container.
    pub payload: std::ops::Range<usize>,
    /// Byte offset of this chunk's decoded bytes within the reassembled body.
    pub output_offset: usize,
}

/// Parsed view of a chunk container: validated metadata, zero payload copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedBody {
    /// Total uncompressed length declared by (and validated against) the
    /// per-chunk lengths.
    pub total_len: usize,
    /// Per-chunk metadata in body order.
    pub chunks: Vec<ChunkRef>,
}

/// Splits `len` bytes into the chunk spans an encoder must produce.
pub fn chunk_spans(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..len.div_ceil(CHUNK_SIZE).max(1)).map(move |i| {
        let start = i * CHUNK_SIZE;
        start..(start + CHUNK_SIZE).min(len)
    })
}

/// Parses and fully validates a chunk container without touching payload
/// bytes. See the module docs for the guards enforced; after `Ok`, every
/// `ChunkRef.payload` range is in bounds and the total length is trustworthy
/// to pre-allocate.
pub fn parse_chunked(input: &[u8]) -> Result<ChunkedBody, ChunkError> {
    let mut pos = 0usize;
    let total_len = read_varint(input, &mut pos)? as usize;
    if total_len > MAX_TOTAL_LEN {
        return Err(ChunkError::TotalTooLarge { declared: total_len });
    }
    let count = read_varint(input, &mut pos)? as usize;
    // An honest encoder emits ceil(total / CHUNK_SIZE) chunks (one for the
    // empty body); allow nothing looser, so `count` cannot be inflated to
    // allocate an oversized metadata vector.
    if count != total_len.div_ceil(CHUNK_SIZE).max(1) {
        return Err(ChunkError::BadChunkCount { count, total_len });
    }
    let mut chunks = Vec::with_capacity(count);
    let mut sum = 0usize;
    for _ in 0..count {
        let flag = *input.get(pos).ok_or(ChunkError::Truncated)?;
        pos += 1;
        let compressed = match flag {
            FLAG_RAW => false,
            FLAG_LZ4 => true,
            other => return Err(ChunkError::BadFlag(other)),
        };
        let uncompressed_len = read_varint(input, &mut pos)? as usize;
        if uncompressed_len > MAX_CHUNK_LEN {
            return Err(ChunkError::ChunkTooLarge { declared: uncompressed_len });
        }
        let stored_len = read_varint(input, &mut pos)? as usize;
        if stored_len > input.len() - pos {
            return Err(ChunkError::Truncated);
        }
        if !compressed && stored_len != uncompressed_len {
            return Err(ChunkError::RawLengthMismatch {
                declared: uncompressed_len,
                stored: stored_len,
            });
        }
        chunks.push(ChunkRef {
            compressed,
            uncompressed_len,
            payload: pos..pos + stored_len,
            output_offset: sum,
        });
        pos += stored_len;
        sum += uncompressed_len;
    }
    if sum != total_len {
        return Err(ChunkError::LengthMismatch { declared: total_len, sum });
    }
    Ok(ChunkedBody { total_len, chunks })
}

/// Incrementally builds a chunk container. Chunks must be pushed in body
/// order and match [`chunk_spans`] of the total length declared to [`new`].
///
/// [`new`]: ChunkedBuilder::new
pub struct ChunkedBuilder {
    out: Vec<u8>,
    declared_total: usize,
    pushed: usize,
}

impl ChunkedBuilder {
    /// Starts a container for a body of `total_len` uncompressed bytes.
    pub fn new(total_len: usize) -> Self {
        assert!(total_len <= MAX_TOTAL_LEN, "body exceeds chunk container cap");
        let count = total_len.div_ceil(CHUNK_SIZE).max(1);
        // Compressed chunks are at worst slightly larger than raw (they would
        // then be stored raw), so the raw size plus per-chunk overhead is a
        // tight capacity bound.
        let mut out = Vec::with_capacity(total_len + count * 12 + 20);
        write_varint(&mut out, total_len as u64);
        write_varint(&mut out, count as u64);
        ChunkedBuilder { out, declared_total: total_len, pushed: 0 }
    }

    /// Appends one chunk, choosing the smaller of the raw bytes and
    /// `compressed` (an LZ4 block of exactly those bytes). Pass `None` to
    /// store raw unconditionally.
    pub fn push_chunk(&mut self, raw: &[u8], compressed: Option<&[u8]>) {
        assert!(raw.len() <= MAX_CHUNK_LEN, "chunk exceeds per-chunk cap");
        match compressed {
            Some(c) if c.len() < raw.len() => {
                self.out.push(FLAG_LZ4);
                write_varint(&mut self.out, raw.len() as u64);
                write_varint(&mut self.out, c.len() as u64);
                self.out.extend_from_slice(c);
            }
            _ => {
                self.out.push(FLAG_RAW);
                write_varint(&mut self.out, raw.len() as u64);
                write_varint(&mut self.out, raw.len() as u64);
                self.out.extend_from_slice(raw);
            }
        }
        self.pushed += raw.len();
    }

    /// Finishes the container.
    ///
    /// # Panics
    ///
    /// If the pushed chunks do not cover exactly the declared total length.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(
            self.pushed, self.declared_total,
            "chunk builder fed {} bytes but declared {}",
            self.pushed, self.declared_total
        );
        self.out
    }
}

/// Decodes one chunk's payload into a fresh buffer and validates its length.
pub fn decompress_chunk(
    compressed: bool,
    payload: &[u8],
    uncompressed_len: usize,
) -> Result<Vec<u8>, ChunkError> {
    if compressed {
        Ok(lz4::decompress_sized(payload, uncompressed_len)?)
    } else {
        if payload.len() != uncompressed_len {
            return Err(ChunkError::RawLengthMismatch {
                declared: uncompressed_len,
                stored: payload.len(),
            });
        }
        Ok(payload.to_vec())
    }
}

/// Compresses `input` into a chunk container on the calling thread, using one
/// [`CompressContext`](lz4::CompressContext) across all chunks. The parallel
/// variant lives in `xingtian-comm::pool`.
pub fn compress_chunked(input: &[u8]) -> Vec<u8> {
    let mut ctx = lz4::CompressContext::new();
    let mut builder = ChunkedBuilder::new(input.len());
    let mut scratch = Vec::new();
    for span in chunk_spans(input.len()) {
        let raw = &input[span];
        scratch.clear();
        ctx.compress_into(raw, &mut scratch);
        builder.push_chunk(raw, Some(&scratch));
    }
    builder.finish()
}

/// Decompresses a chunk container on the calling thread.
///
/// # Errors
///
/// Any [`ChunkError`]; the output is allocated only after the container's
/// metadata has been fully validated.
pub fn decompress_chunked(input: &[u8]) -> Result<Vec<u8>, ChunkError> {
    let parsed = parse_chunked(input)?;
    let mut out = Vec::with_capacity(parsed.total_len + 8);
    for chunk in &parsed.chunks {
        let payload = &input[chunk.payload.clone()];
        if chunk.compressed {
            let before = out.len();
            lz4::decompress_into(payload, &mut out)?;
            if out.len() - before != chunk.uncompressed_len {
                return Err(ChunkError::Lz4(Lz4Error::LengthMismatch {
                    expected: chunk.uncompressed_len,
                    got: out.len() - before,
                }));
            }
        } else {
            out.extend_from_slice(payload);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollout_like(len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        let mut i = 0u32;
        while data.len() + 4 <= len {
            data.extend_from_slice(&((i % 17) as f32 * 0.25).to_le_bytes());
            i += 1;
        }
        data.resize(len, 0xee);
        data
    }

    fn random_like(len: usize) -> Vec<u8> {
        let mut state = 0x243f6a8885a308d3u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xff) as u8
            })
            .collect()
    }

    #[test]
    fn round_trips_across_sizes() {
        for len in [0usize, 1, 1000, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 777]
        {
            let data = rollout_like(len);
            let container = compress_chunked(&data);
            assert_eq!(decompress_chunked(&container).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn incompressible_chunks_are_stored_raw() {
        let data = random_like(CHUNK_SIZE + 100);
        let container = compress_chunked(&data);
        // Raw storage costs only the per-chunk framing.
        assert!(container.len() < data.len() + 64);
        let parsed = parse_chunked(&container).unwrap();
        assert!(parsed.chunks.iter().all(|c| !c.compressed));
        assert_eq!(decompress_chunked(&container).unwrap(), data);
    }

    #[test]
    fn compressible_body_shrinks() {
        let data = rollout_like(2 * CHUNK_SIZE);
        let container = compress_chunked(&data);
        assert!(container.len() < data.len() / 4);
    }

    #[test]
    fn parse_exposes_offsets_and_spans() {
        let data = rollout_like(2 * CHUNK_SIZE + 123);
        let container = compress_chunked(&data);
        let parsed = parse_chunked(&container).unwrap();
        assert_eq!(parsed.total_len, data.len());
        assert_eq!(parsed.chunks.len(), 3);
        assert_eq!(parsed.chunks[0].output_offset, 0);
        assert_eq!(parsed.chunks[1].output_offset, CHUNK_SIZE);
        assert_eq!(parsed.chunks[2].output_offset, 2 * CHUNK_SIZE);
        for chunk in &parsed.chunks {
            let payload = &container[chunk.payload.clone()];
            let decoded =
                decompress_chunk(chunk.compressed, payload, chunk.uncompressed_len).unwrap();
            assert_eq!(
                decoded,
                &data[chunk.output_offset..chunk.output_offset + chunk.uncompressed_len]
            );
        }
    }

    #[test]
    fn rejects_total_above_cap() {
        let mut evil = Vec::new();
        write_varint(&mut evil, (MAX_TOTAL_LEN as u64) + 1);
        write_varint(&mut evil, 1);
        assert!(matches!(
            parse_chunked(&evil),
            Err(ChunkError::TotalTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_inflated_chunk_count() {
        let mut evil = Vec::new();
        write_varint(&mut evil, 100);
        write_varint(&mut evil, u32::MAX as u64);
        assert!(matches!(
            parse_chunked(&evil),
            Err(ChunkError::BadChunkCount { .. })
        ));
    }

    #[test]
    fn rejects_lying_chunk_length() {
        // Container whose single chunk claims more uncompressed bytes than
        // the total declares.
        let mut evil = Vec::new();
        write_varint(&mut evil, 10);
        write_varint(&mut evil, 1);
        evil.push(FLAG_RAW);
        write_varint(&mut evil, 11);
        write_varint(&mut evil, 11);
        evil.extend_from_slice(&[0u8; 11]);
        assert!(matches!(
            parse_chunked(&evil),
            Err(ChunkError::LengthMismatch { declared: 10, sum: 11 })
        ));
    }

    #[test]
    fn rejects_chunk_above_per_chunk_cap() {
        let total = MAX_CHUNK_LEN + 1;
        let mut evil = Vec::new();
        write_varint(&mut evil, total as u64);
        write_varint(&mut evil, total.div_ceil(CHUNK_SIZE) as u64);
        evil.push(FLAG_RAW);
        write_varint(&mut evil, total as u64);
        assert!(matches!(
            parse_chunked(&evil),
            Err(ChunkError::ChunkTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_truncated_mid_chunk() {
        let data = rollout_like(CHUNK_SIZE + 50);
        let container = compress_chunked(&data);
        for cut in [container.len() - 1, container.len() / 2, 3, 1] {
            let err = decompress_chunked(&container[..cut]).unwrap_err();
            assert!(
                matches!(err, ChunkError::Truncated | ChunkError::Lz4(_)),
                "cut {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_flag() {
        let data = rollout_like(100);
        let mut container = compress_chunked(&data);
        // The flag byte of the single chunk sits right after the two prefix
        // varints (both short for this size).
        let mut pos = 0usize;
        read_varint(&container, &mut pos).unwrap();
        read_varint(&container, &mut pos).unwrap();
        container[pos] = 0x7f;
        assert_eq!(parse_chunked(&container), Err(ChunkError::BadFlag(0x7f)));
    }

    #[test]
    fn rejects_compressed_chunk_with_wrong_decoded_len() {
        // Take an honest compressed container and shrink the declared
        // uncompressed length of its chunk: decode must fail, not mis-size.
        let data = rollout_like(1000);
        let container = compress_chunked(&data);
        let parsed = parse_chunked(&container).unwrap();
        assert!(parsed.chunks[0].compressed, "fixture must compress");
        let payload = &container[parsed.chunks[0].payload.clone()];
        let err = decompress_chunk(true, payload, 999).unwrap_err();
        assert!(matches!(err, ChunkError::Lz4(Lz4Error::LengthMismatch { .. })));
    }

    #[test]
    fn varint_rejects_overflow() {
        let evil = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&evil, &mut pos), Err(ChunkError::BadVarint));
    }

    #[test]
    fn empty_body_round_trips() {
        let container = compress_chunked(&[]);
        let parsed = parse_chunked(&container).unwrap();
        assert_eq!(parsed.total_len, 0);
        assert_eq!(parsed.chunks.len(), 1);
        assert_eq!(decompress_chunked(&container).unwrap(), Vec::<u8>::new());
    }
}
