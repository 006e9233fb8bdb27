//! Differential round-trip tests for the compression data plane.
//!
//! Two invariants protect wire/store compatibility:
//!
//! 1. For a corpus of rollout-like, parameter-like, and random payloads, the
//!    chunked container and the raw LZ4 block codec its frames are built from
//!    both decompress back to the original bytes (and agree with each other).
//! 2. An LZ4 block produced by the *pre-chunking* compressor (captured below
//!    as a golden vector before the fast-path rewrite) still decodes with the
//!    block decoder every chunk frame goes through.

use bytes::Bytes;
use xingtian_message::{chunk, decompress_body, lz4, CompressionKind};

fn rollout_like(len: usize) -> Vec<u8> {
    // Small-dynamic-range f32 words, the dominant shape of rollout batches.
    let mut data = Vec::with_capacity(len);
    let mut i = 0u32;
    while data.len() + 4 <= len {
        data.extend_from_slice(&((i % 17) as f32 * 0.25).to_le_bytes());
        i += 1;
    }
    data.resize(len, 0);
    data
}

fn param_like(len: usize) -> Vec<u8> {
    // Long runs of identical f32 words, like a freshly initialized ParamBlob.
    let mut data = Vec::with_capacity(len);
    let mut i = 0u32;
    while data.len() + 4 <= len {
        data.extend_from_slice(&((i / 4096) as f32 * 0.01).to_le_bytes());
        i += 1;
    }
    data.resize(len, 0);
    data
}

fn random_like(len: usize) -> Vec<u8> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xff) as u8
        })
        .collect()
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let big = 3 * chunk::CHUNK_SIZE + 4321;
    vec![
        ("rollout_small", rollout_like(2_000)),
        ("rollout_big", rollout_like(big)),
        ("param_small", param_like(2_000)),
        ("param_big", param_like(big)),
        ("random_small", random_like(2_000)),
        ("random_big", random_like(big)),
        ("empty", Vec::new()),
        ("one_byte", vec![42u8]),
    ]
}

#[test]
fn chunked_and_block_codecs_agree_on_corpus() {
    for (name, payload) in corpus() {
        // Raw single-block codec.
        let via_block = lz4::decompress(&lz4::compress(&payload))
            .unwrap_or_else(|e| panic!("{name}: block decode failed: {e}"));
        // Chunked container path.
        let container = Bytes::from(chunk::compress_chunked(&payload));
        let via_chunked = decompress_body(&container, CompressionKind::Lz4Chunked)
            .unwrap_or_else(|e| panic!("{name}: chunked decode failed: {e}"));
        assert_eq!(via_block, payload, "{name}: block round trip");
        assert_eq!(&via_chunked[..], &via_block[..], "{name}: codecs disagree");
    }
}

#[test]
fn chunked_container_survives_reparse() {
    // The container's parse metadata must describe exactly the bytes the
    // builder wrote, for every corpus entry.
    for (name, payload) in corpus() {
        let container = chunk::compress_chunked(&payload);
        let parsed = chunk::parse_chunked(&container)
            .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        assert_eq!(parsed.total_len, payload.len(), "{name}");
        let mut reassembled = Vec::with_capacity(parsed.total_len);
        for c in &parsed.chunks {
            let decoded =
                chunk::decompress_chunk(c.compressed, &container[c.payload.clone()], c.uncompressed_len)
                    .unwrap_or_else(|e| panic!("{name}: chunk decode failed: {e}"));
            assert_eq!(reassembled.len(), c.output_offset, "{name}: offsets contiguous");
            reassembled.extend_from_slice(&decoded);
        }
        assert_eq!(reassembled, payload, "{name}");
    }
}

/// LZ4 block emitted by the compressor as it existed *before* the fast-path
/// rewrite (per-call hash table, byte-wise match extension), for the payload
/// `rollout_like(2000)`. Captured by running that compressor; the block
/// decoder every chunk frame goes through must keep reading it.
const GOLDEN_LEGACY_BLOCK: &str = "11000100f12f803e0000003f0000403f0000803f0000a03f\
0000c03f0000e03f00000040000010400000204000003040000040400000504000006040000070400000804043001f00\
4400ffffffffffffff75503f0000c03f";

fn from_hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

#[test]
fn golden_pre_rewrite_block_still_decodes() {
    let block = Bytes::from(from_hex(GOLDEN_LEGACY_BLOCK));
    let expected = rollout_like(2000);
    let decoded = lz4::decompress(&block).expect("golden block decodes");
    assert_eq!(decoded, expected);
    // And the sized decoder agrees when told the true length.
    assert_eq!(lz4::decompress_sized(&block, 2000).unwrap(), expected);
}

#[test]
fn new_compressor_output_decodes_with_plain_decoder() {
    // The rewritten compressor must stay within the LZ4 block format: its
    // output must decode without any knowledge of contexts or chunking.
    for (name, payload) in corpus() {
        let block = lz4::compress(&payload);
        assert_eq!(lz4::decompress(&block).unwrap(), payload, "{name}");
    }
}
