//! From-scratch LZ4 block compression — the data-plane fast path.
//!
//! The paper compresses message bodies larger than 1 MiB with LZ4 before they
//! enter the shared-memory object store (§4.1). No third-party compression
//! crate is used; this module implements the LZ4 *block* format directly:
//!
//! * a greedy hash-table matcher (16-bit hash of 4-byte windows) with skip
//!   acceleration through incompressible regions,
//! * sequences of `token | literals | 2-byte LE offset | extended match length`,
//! * the standard end-of-block restrictions (final sequence is literal-only,
//!   matches never extend into the last five bytes).
//!
//! Three fast-path properties keep the per-byte cost low:
//!
//! * [`CompressContext`] owns the 256 KiB hash table and is reused across
//!   calls via an epoch trick (entries are stamped with a monotonically
//!   advancing base offset, so stale entries read as empty) — no per-call
//!   allocation or zeroing. [`compress`] keeps one context per thread.
//! * Match extension compares eight bytes at a time (`u64` XOR +
//!   `trailing_zeros`) instead of byte-wise.
//! * [`decompress`] copies matches in 8-byte "wild copy" chunks whenever the
//!   match offset permits, falling back to pattern replication only for
//!   overlapping runs; [`decompress_sized`] additionally pre-sizes the output
//!   from a known uncompressed length (the chunk container's length prefix)
//!   instead of the `input.len() * 3` guess.
//!
//! The output of [`compress`] is a valid LZ4 block decodable by any conformant
//! decoder, and [`decompress`] decodes any valid block (overlapping matches
//! included) — including blocks produced by older versions of this module.

use std::cell::RefCell;
use std::fmt;

/// Minimum match length encodable by the LZ4 block format.
const MIN_MATCH: usize = 4;
/// Matches may not extend into the final `LAST_LITERALS` bytes of the input.
const LAST_LITERALS: usize = 5;
/// The last match must start at least this many bytes before the end.
const MF_LIMIT: usize = 12;
/// Maximum back-reference distance (2-byte offset).
const MAX_DISTANCE: usize = 65_535;
/// Hash table entries (16-bit hash).
const HASH_SIZE: usize = 1 << 16;
/// After `2^SKIP_TRIGGER` consecutive failed probes the search step doubles,
/// so incompressible regions are skimmed instead of hashed byte by byte.
const SKIP_TRIGGER: u32 = 6;
/// Slack reserved past the logical end of decoder output so wild copies may
/// overshoot by up to one word without touching unreserved memory.
const WILD_PAD: usize = 8;

/// Error produced when decompressing a malformed LZ4 block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lz4Error {
    /// The compressed stream ended in the middle of a sequence.
    Truncated,
    /// A match offset was zero or pointed before the start of the output.
    InvalidOffset { offset: usize, decoded: usize },
    /// The decoded output length differed from the declared uncompressed
    /// length (corrupt stream or lying length prefix).
    LengthMismatch { expected: usize, got: usize },
}

impl fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "compressed stream ended mid-sequence"),
            Lz4Error::InvalidOffset { offset, decoded } => {
                write!(f, "match offset {offset} invalid with {decoded} bytes decoded")
            }
            Lz4Error::LengthMismatch { expected, got } => {
                write!(f, "declared uncompressed length {expected} but decoded {got} bytes")
            }
        }
    }
}

impl std::error::Error for Lz4Error {}

/// Worst-case compressed size of `len` input bytes (all literals plus length
/// bytes). Useful for sizing output buffers so compression never reallocates.
pub const fn max_compressed_len(len: usize) -> usize {
    len + len / 255 + 16
}

#[inline]
fn hash(v: u32) -> usize {
    ((v.wrapping_mul(2_654_435_761) >> 16) & 0xffff) as usize
}

#[inline]
fn read_u32(buf: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(buf[i..i + 4].try_into().expect("read_u32 in bounds"))
}

#[inline]
fn read_u64(buf: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(buf[i..i + 8].try_into().expect("read_u64 in bounds"))
}

fn write_length(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    debug_assert!(offset > 0 && offset <= MAX_DISTANCE);
    debug_assert!(match_len >= MIN_MATCH);
    let lit_len = literals.len();
    let ml_code = match_len - MIN_MATCH;
    let token = ((lit_len.min(15) as u8) << 4) | (ml_code.min(15) as u8);
    out.push(token);
    if lit_len >= 15 {
        write_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml_code >= 15 {
        write_length(out, ml_code - 15);
    }
}

fn emit_final_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    let token = (lit_len.min(15) as u8) << 4;
    out.push(token);
    if lit_len >= 15 {
        write_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
}

/// Counts how many bytes match between `input[m..]` and `input[i..]`, never
/// reading at or past `limit`. Eight bytes are compared per step; the first
/// differing byte is located with `trailing_zeros` (`read_u64` is
/// little-endian on every target, so byte 0 is the lowest byte).
#[inline]
fn extend_match(input: &[u8], mut m: usize, mut i: usize, limit: usize) -> usize {
    let start = i;
    while i + 8 <= limit {
        let x = read_u64(input, i) ^ read_u64(input, m);
        if x != 0 {
            return i - start + (x.trailing_zeros() >> 3) as usize;
        }
        i += 8;
        m += 8;
    }
    while i < limit && input[m] == input[i] {
        i += 1;
        m += 1;
    }
    i - start
}

/// A reusable LZ4 compression context.
///
/// Owns the match-finder hash table. Entries are stored as `base + pos + 1`
/// where `base` advances by the input length after every call: entries written
/// by earlier calls compare `<= base` and therefore read as empty, which makes
/// the table reusable without the 256 KiB zeroing `vec![0u32; 1 << 16]` paid
/// per call before this existed. The table is re-zeroed only when `base`
/// would overflow `u32` (once every ~4 GiB of compressed input).
pub struct CompressContext {
    table: Box<[u32]>,
    base: u32,
}

impl Default for CompressContext {
    fn default() -> Self {
        CompressContext::new()
    }
}

impl fmt::Debug for CompressContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompressContext").field("base", &self.base).finish_non_exhaustive()
    }
}

impl CompressContext {
    /// Creates a context with an empty match table.
    pub fn new() -> Self {
        CompressContext { table: vec![0u32; HASH_SIZE].into_boxed_slice(), base: 0 }
    }

    /// Compresses `input` into a fresh LZ4 block.
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(max_compressed_len(input.len()));
        self.compress_into(input, &mut out);
        out
    }

    /// Compresses `input`, appending the LZ4 block to `out`.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        let len = input.len();
        assert!(len <= u32::MAX as usize - 2, "LZ4 block input too large ({len} bytes)");
        if len < MF_LIMIT {
            emit_final_literals(out, input);
            return;
        }
        out.reserve(max_compressed_len(len));
        if (self.base as usize) + len + 1 > u32::MAX as usize {
            self.table.fill(0);
            self.base = 0;
        }
        let base = self.base;
        self.base += len as u32;

        let match_limit = len - LAST_LITERALS;
        // The last match must begin before `len - MF_LIMIT + 1`.
        let search_end = len - MF_LIMIT + 1;
        let mut anchor = 0usize;
        let mut i = 0usize;
        let mut probes = 1u32 << SKIP_TRIGGER;

        while i < search_end {
            let h = hash(read_u32(input, i));
            let entry = self.table[h];
            self.table[h] = base + i as u32 + 1;
            if entry > base {
                let cand = (entry - base - 1) as usize;
                if i - cand <= MAX_DISTANCE && read_u32(input, cand) == read_u32(input, i) {
                    let ml = MIN_MATCH
                        + extend_match(input, cand + MIN_MATCH, i + MIN_MATCH, match_limit);
                    emit_sequence(out, &input[anchor..i], i - cand, ml);
                    i += ml;
                    anchor = i;
                    probes = 1 << SKIP_TRIGGER;
                    continue;
                }
            }
            i += (probes >> SKIP_TRIGGER) as usize;
            probes += 1;
        }
        emit_final_literals(out, &input[anchor..]);
    }

    /// Test hook: advances `base` to exercise the epoch-overflow reset.
    #[cfg(test)]
    fn force_base(&mut self, base: u32) {
        self.base = base;
    }
}

thread_local! {
    static TLS_CTX: RefCell<CompressContext> = RefCell::new(CompressContext::new());
}

/// Compresses `input` into an LZ4 block using this thread's cached
/// [`CompressContext`] (no per-call table allocation).
///
/// The empty input compresses to a single zero token byte. The output is not
/// guaranteed to be smaller than the input (e.g. for random data); callers that
/// care should compare lengths, as [`crate::should_compress`] does.
pub fn compress(input: &[u8]) -> Vec<u8> {
    TLS_CTX.with(|ctx| ctx.borrow_mut().compress(input))
}

fn read_length(input: &[u8], pos: &mut usize, base: usize) -> Result<usize, Lz4Error> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *input.get(*pos).ok_or(Lz4Error::Truncated)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Appends `match_len` bytes replicated from `offset` bytes behind the output
/// cursor. `offset` has been validated as `1..=out.len()`.
///
/// Fast paths: non-overlapping matches (`offset >= 8`) copy eight bytes per
/// step ("wild copy" — up to 7 bytes of slop spill into reserved capacity and
/// are overwritten or discarded by `set_len`); `offset == 1` is a memset; the
/// remaining overlapping offsets replicate the pattern by doubling until eight
/// bytes of history exist, then wild-copy at a distance that is a multiple of
/// the period.
fn copy_match(out: &mut Vec<u8>, offset: usize, match_len: usize) {
    out.reserve(match_len + WILD_PAD);
    let len = out.len();
    let end = len + match_len;
    // SAFETY: capacity holds `end + WILD_PAD` bytes. Every 8-byte copy below
    // reads only initialized bytes (strictly behind the write cursor) and
    // writes within reserved capacity; `set_len(end)` exposes exactly the
    // `match_len` replicated bytes.
    unsafe {
        let base = out.as_mut_ptr();
        if offset >= 8 {
            let mut src = base.add(len - offset);
            let mut dst = base.add(len);
            let dst_end = base.add(end);
            while dst < dst_end {
                std::ptr::copy_nonoverlapping(src, dst, 8);
                src = src.add(8);
                dst = dst.add(8);
            }
        } else if offset == 1 {
            std::ptr::write_bytes(base.add(len), *base.add(len - 1), match_len);
        } else {
            let pattern = len - offset;
            let mut filled = len;
            while filled - pattern < 8 && filled < end {
                let run = filled - pattern;
                std::ptr::copy_nonoverlapping(base.add(pattern), base.add(filled), run);
                filled += run;
            }
            if filled < end {
                // `dist` is a power-of-two multiple of the period, so copying
                // from `dist` behind continues the same repeating pattern.
                let dist = filled - pattern;
                let mut src = base.add(filled - dist);
                let mut dst = base.add(filled);
                let dst_end = base.add(end);
                while dst < dst_end {
                    std::ptr::copy_nonoverlapping(src, dst, 8);
                    src = src.add(8);
                    dst = dst.add(8);
                }
            }
        }
        out.set_len(end);
    }
}

/// Decompresses an LZ4 block produced by [`compress`] (or any conformant
/// encoder), appending the decoded bytes to `out`.
///
/// # Errors
///
/// Returns [`Lz4Error`] when the stream is truncated or a match offset points
/// outside the bytes this call has decoded. On error, `out` may hold a
/// partially decoded prefix.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), Lz4Error> {
    let start_len = out.len();
    let mut pos = 0usize;
    if input.is_empty() {
        return Err(Lz4Error::Truncated);
    }
    loop {
        let token = *input.get(pos).ok_or(Lz4Error::Truncated)?;
        pos += 1;
        let lit_len = read_length(input, &mut pos, (token >> 4) as usize)?;
        if lit_len > input.len() - pos {
            return Err(Lz4Error::Truncated);
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if pos == input.len() {
            // Final sequence carries literals only.
            return Ok(());
        }
        if pos + 2 > input.len() {
            return Err(Lz4Error::Truncated);
        }
        let offset =
            u16::from_le_bytes(input[pos..pos + 2].try_into().expect("2 bytes")) as usize;
        pos += 2;
        let decoded = out.len() - start_len;
        if offset == 0 || offset > decoded {
            return Err(Lz4Error::InvalidOffset { offset, decoded });
        }
        let match_len = MIN_MATCH + read_length(input, &mut pos, (token & 0x0f) as usize)?;
        copy_match(out, offset, match_len);
    }
}

/// Decompresses an LZ4 block into a fresh buffer, guessing the output size.
///
/// When the uncompressed length is known (e.g. from the chunk container's
/// length prefix) prefer [`decompress_sized`], which allocates exactly once.
///
/// # Errors
///
/// Returns [`Lz4Error`] when the stream is truncated or a match offset points
/// outside the already-decoded output.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::with_capacity(input.len().saturating_mul(3).saturating_add(WILD_PAD));
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Decompresses an LZ4 block whose uncompressed length is known in advance.
///
/// The output buffer is pre-sized exactly (plus wild-copy slack), so decoding
/// performs a single allocation, and the decoded length is validated against
/// `uncompressed_len` — a stream that decodes to any other length is rejected.
///
/// # Errors
///
/// Any [`Lz4Error`]; [`Lz4Error::LengthMismatch`] when the stream decodes to a
/// different number of bytes than declared.
pub fn decompress_sized(input: &[u8], uncompressed_len: usize) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::with_capacity(uncompressed_len.saturating_add(WILD_PAD));
    decompress_into(input, &mut out)?;
    if out.len() != uncompressed_len {
        return Err(Lz4Error::LengthMismatch { expected: uncompressed_len, got: out.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "round trip failed for len {}", data.len());
        let s = decompress_sized(&c, data.len()).unwrap();
        assert_eq!(s, data, "sized round trip failed for len {}", data.len());
    }

    #[test]
    fn empty_round_trips() {
        round_trip(&[]);
    }

    #[test]
    fn tiny_inputs_round_trip() {
        for n in 0..MF_LIMIT + 4 {
            round_trip(&vec![b'a'; n]);
        }
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let data = vec![0xabu8; 100_000];
        let c = compress(&data);
        assert!(c.len() < data.len() / 100, "compressed {} of {}", c.len(), data.len());
        round_trip(&data);
    }

    #[test]
    fn text_like_input_round_trips() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .iter()
            .copied()
            .cycle()
            .take(10_000)
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn pseudo_random_input_round_trips() {
        let mut state = 1u64;
        let data: Vec<u8> = (0..65_537)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_decodes() {
        // Periodic data exercises every overlap-copy path: offset == 1
        // (memset), 2..=7 (pattern doubling), and >= 8 (plain wild copy).
        for period in 1..=9usize {
            let data: Vec<u8> =
                (0..1000).map(|i| b'a' + (i % period) as u8).collect();
            round_trip(&data);
        }
    }

    #[test]
    fn f32_runs_round_trip() {
        // Runs of one repeated f32 word — the dominant shape of rollout
        // payloads — produce offset-4 overlapping matches.
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(&((i / 640) as f32 * 0.25).to_le_bytes());
        }
        round_trip(&data);
    }

    #[test]
    fn long_distance_matches_round_trip() {
        // Two identical 8 KiB chunks separated by 60 KiB of filler sit just
        // inside the 64 KiB window.
        let chunk: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let mut data = chunk.clone();
        data.extend(std::iter::repeat_n(0u8, 50_000));
        data.extend_from_slice(&chunk);
        round_trip(&data);
    }

    #[test]
    fn context_reuse_round_trips() {
        // A reused context must never resolve a match against a stale entry
        // from an earlier input (the epoch trick's core invariant).
        let mut ctx = CompressContext::new();
        for round in 0..50usize {
            let data: Vec<u8> =
                (0..10_000).map(|i| ((i * (round + 3)) % 251) as u8).collect();
            let c = ctx.compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "round {round}");
        }
    }

    #[test]
    fn context_epoch_overflow_resets_cleanly() {
        let mut ctx = CompressContext::new();
        let data: Vec<u8> = (0..50_000).map(|i| (i % 241) as u8).collect();
        let c = ctx.compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // Force `base` to the wrap boundary: the next call must re-zero the
        // table rather than interpret huge stale entries as fresh candidates.
        ctx.force_base(u32::MAX - 10);
        let c = ctx.compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        let c = ctx.compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_empty() {
        assert_eq!(decompress(&[]), Err(Lz4Error::Truncated));
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // Token: 1 literal, match follows; offset 5 with only 1 byte decoded.
        let bad = [0x10u8, b'x', 5, 0, 0];
        assert!(matches!(decompress(&bad), Err(Lz4Error::InvalidOffset { .. })));
    }

    #[test]
    fn decompress_rejects_truncated_literals() {
        // Token declares 10 literals but only 2 follow.
        let bad = [0xa0u8, b'x', b'y'];
        assert_eq!(decompress(&bad), Err(Lz4Error::Truncated));
    }

    #[test]
    fn decompress_rejects_zero_offset() {
        let bad = [0x10u8, b'x', 0, 0, 0];
        assert!(matches!(decompress(&bad), Err(Lz4Error::InvalidOffset { offset: 0, .. })));
    }

    #[test]
    fn decompress_sized_rejects_lying_length() {
        let data = vec![7u8; 4096];
        let c = compress(&data);
        assert_eq!(
            decompress_sized(&c, 4095),
            Err(Lz4Error::LengthMismatch { expected: 4095, got: 4096 })
        );
        assert_eq!(
            decompress_sized(&c, 5000),
            Err(Lz4Error::LengthMismatch { expected: 5000, got: 4096 })
        );
        assert_eq!(decompress_sized(&c, 4096).unwrap(), data);
    }

    #[test]
    fn decompress_into_appends_and_scopes_offsets() {
        // Offsets are validated against bytes decoded by *this* call, not the
        // whole buffer, so a block cannot reach into unrelated prefix bytes.
        let mut out = vec![9u8; 16];
        let bad = [0x10u8, b'x', 4, 0, 0]; // offset 4 with 1 byte decoded
        assert!(matches!(
            decompress_into(&bad, &mut out),
            Err(Lz4Error::InvalidOffset { offset: 4, decoded: 1 })
        ));
        let mut out = vec![1u8, 2, 3];
        let c = compress(b"hello world hello world hello world");
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert_eq!(&out[3..], b"hello world hello world hello world");
    }

    #[test]
    fn rollout_like_payload_round_trips() {
        // f32 payloads with small dynamic range, as produced by the codec.
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.extend_from_slice(&((i % 17) as f32 * 0.25).to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len());
        round_trip(&data);
    }
}
