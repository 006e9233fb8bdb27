//! Golden-vector decode tests: one committed wire fixture per
//! [`CompressionKind`], decoded with today's code and checked against a
//! committed expectation. This pins *decode compatibility*, not encoder
//! bytes — encoders are free to improve, but bodies already on the wire (or
//! in checkpoint stores) must decode forever.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p xingtian-message --test golden_kinds
//! ```
//!
//! and commit the updated `tests/golden/*.bin` files.

use bytes::Bytes;
use std::path::PathBuf;
use xingtian_message::{chunk, decompress_body, param, CompressionKind};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn regen() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some()
}

/// Loads `name.bin`, or writes `bytes` to it first under `GOLDEN_REGEN`.
fn fixture(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = golden_dir().join(format!("{name}.bin"));
    if regen() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, bytes).expect("write fixture");
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GOLDEN_REGEN=1 to create it",
            path.display()
        )
    })
}

/// The seeded payload every fixture derives from: deterministic f32s with a
/// compressible structure (repeating prefix) plus a noisy tail.
fn seeded_f32s(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                return 0.25; // repetition for the LZ4 kinds to chew on
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn from_le_bytes(bytes: &[u8]) -> Vec<f32> {
    assert_eq!(bytes.len() % 4, 0, "expectation file is whole f32s");
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
}

// ---------------------------------------------------------------- transport

/// `None` and `Lz4Chunked` both decode through [`decompress_body`] back to
/// the exact raw payload.
#[test]
fn transport_kinds_decode_committed_bodies() {
    let payload = le_bytes(&seeded_f32s(4096, 21));

    let cases: [(&str, CompressionKind, Vec<u8>); 2] = [
        ("none", CompressionKind::None, payload.clone()),
        ("lz4_chunked", CompressionKind::Lz4Chunked, chunk::compress_chunked(&payload)),
    ];
    for (name, kind, encoded) in cases {
        let body = Bytes::from(fixture(name, &encoded));
        let decoded = decompress_body(&body, kind)
            .unwrap_or_else(|e| panic!("golden {name} failed to decode: {e:?}"));
        assert_eq!(decoded.as_ref(), payload.as_slice(), "golden {name} payload changed");
    }
}

// -------------------------------------------------------------- param plane

/// Decodes a param-plane fixture starting from `held` and returns the result.
fn apply(name: &str, encoded: &[u8], held_version: u64, held: &[f32]) -> Vec<f32> {
    let body = fixture(name, encoded);
    let mut buf = held.to_vec();
    let mut scratch = Vec::new();
    let version = param::apply_frame(&body, held_version, &mut buf, &mut scratch)
        .unwrap_or_else(|e| panic!("golden {name} failed to decode: {e:?}"));
    assert_eq!(version, 2, "golden {name} carries version 2");
    buf
}

/// Checks decoded values against the committed expectation (regenerated
/// alongside the frame, so both sides of the contract are frozen together).
fn assert_matches_expectation(name: &str, decoded: &[f32]) {
    let expected = from_le_bytes(&fixture(&format!("{name}.expect"), &le_bytes(decoded)));
    assert_eq!(decoded.len(), expected.len(), "golden {name} length changed");
    for (i, (got, want)) in decoded.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "golden {name} value {i} changed: {got} != {want}"
        );
    }
}

#[test]
fn delta_f32_golden_decodes_bit_exactly() {
    let base = seeded_f32s(4096, 31);
    let params: Vec<f32> = base.iter().enumerate().map(|(i, b)| b + i as f32 * 1e-6).collect();
    let encoded = param::encode_delta_f32(2, 1, &params, &base);
    assert_eq!(
        param::peek_frame(&encoded).unwrap().kind,
        CompressionKind::DeltaF32,
        "fixture kind byte"
    );

    let decoded = apply("delta_f32", &encoded, 1, &base);
    // Delta-f32 is bit-lossless, so the expectation is the input itself —
    // checked directly on top of the committed .expect file.
    for (got, want) in decoded.iter().zip(&params) {
        assert_eq!(got.to_bits(), want.to_bits(), "delta f32 is bit-lossless");
    }
    assert_matches_expectation("delta_f32", &decoded);
}

#[test]
fn quantized_i8_golden_decodes_bit_exactly() {
    let values = seeded_f32s(4096, 37);
    let mut recon = Vec::new();
    let encoded = param::encode_quantized_i8(2, &values, &mut recon);

    // A quantized frame decodes from nothing (it is self-contained).
    let decoded = apply("quantized_i8", &encoded, 0, &[]);
    assert_matches_expectation("quantized_i8", &decoded);
    // The committed frame must stay within the quantization error bound of
    // the original values, per QUANT_GROUP-sized group.
    for (group, dec) in values
        .chunks(xingtian_message::QUANT_GROUP)
        .zip(decoded.chunks(xingtian_message::QUANT_GROUP))
    {
        let max_abs = group.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bound = max_abs / 127.0 * 0.5 + 1e-6;
        for (v, d) in group.iter().zip(dec) {
            assert!((v - d).abs() <= bound, "quantization error out of bound: {v} vs {d}");
        }
    }
}

#[test]
fn delta_quantized_i8_golden_decodes_bit_exactly() {
    let base = seeded_f32s(4096, 41);
    let deltas: Vec<f32> = (0..base.len()).map(|i| (i as f32).sin() * 1e-3).collect();
    let mut recon_d = Vec::new();
    let encoded = param::encode_delta_quantized_i8(2, 1, &deltas, &mut recon_d);

    let decoded = apply("delta_quantized_i8", &encoded, 1, &base);
    assert_matches_expectation("delta_quantized_i8", &decoded);
    // And it must equal base + dequantized delta exactly, the receiver's
    // documented reconstruction rule.
    for ((got, b), d) in decoded.iter().zip(&base).zip(&recon_d) {
        assert_eq!(got.to_bits(), (b + d).to_bits());
    }
}

/// Hostile bodies under *any* kind byte return typed errors, never panic —
/// including discriminants no current kind uses.
#[test]
fn adversarial_bodies_decode_to_errors_not_panics() {
    let mut junk: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(37) % 251) as u8).collect();
    for kind in CompressionKind::ALL {
        let body = Bytes::copy_from_slice(&junk);
        if kind.is_transport() {
            let _ = decompress_body(&body, kind);
        } else if kind.is_param_plane() {
            let mut buf = vec![0.0f32; 8];
            let mut scratch = Vec::new();
            let _ = param::apply_frame(&junk, 0, &mut buf, &mut scratch);
        }
    }
    // Unknown discriminants at the frame level: every possible kind byte.
    for d in 0..=u8::MAX {
        junk[0] = d;
        let mut buf = vec![0.0f32; 8];
        let mut scratch = Vec::new();
        let _ = param::apply_frame(&junk, 0, &mut buf, &mut scratch);
        let _ = param::peek_frame(&junk);
    }
}
