//! Message model, binary codec, and LZ4 compression for the XingTian DRL framework.
//!
//! XingTian (Middleware '22) moves data between *explorer* and *learner* processes
//! through an asynchronous communication channel. Every unit of transfer is a
//! [`Message`]: a lightweight [`Header`] carrying routing metadata plus an opaque
//! [`Body`] of bytes (serialized rollouts or DNN parameters).
//!
//! This crate provides the three substrate pieces the channel needs:
//!
//! * [`header`] / [`message`] — the message model (source, destinations, kind,
//!   object id, sequence numbers, timing probes).
//! * [`codec`] — a compact self-describing binary encoding ([`codec::Encode`] /
//!   [`codec::Decode`]) used to serialize rollout batches and parameter blobs.
//!   The paper uses Python pickle; we use an explicit, versioned format instead.
//! * [`lz4`] — a from-scratch LZ4 block compressor/decompressor. The paper
//!   compresses bodies larger than 1 MiB with LZ4 by default (§4.1); so do we.
//!
//! # Examples
//!
//! ```
//! use xingtian_message::{Header, Message, MessageKind, ProcessId};
//! use bytes::Bytes;
//!
//! let header = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)],
//!                          MessageKind::Rollout);
//! let msg = Message::new(header, Bytes::from(vec![0u8; 128]));
//! assert_eq!(msg.body.len(), 128);
//! ```

pub mod chunk;
pub mod codec;
pub mod header;
pub mod lz4;
pub mod message;
pub mod param;
pub mod serve;

pub use chunk::ChunkError;
pub use header::{CompressionKind, Header, MessageKind, ProcessId, ProcessRole};
pub use message::{Body, Message, COMPRESSION_THRESHOLD};
pub use param::{ParamCodecError, ParamFrameHeader, QUANT_GROUP};
pub use serve::{InferReply, InferRequest};

use bytes::Bytes;

/// How much of a body's head [`should_compress`] runs LZ4 on before paying
/// for the full pass.
pub const COMPRESSION_PROBE_BYTES: usize = 64 * 1024;

/// The one transport-compression decision: `body` is over `threshold` *and*
/// LZ4 of its first [`COMPRESSION_PROBE_BYTES`] (on this thread's cached
/// [`lz4::CompressContext`]) comes out smaller than those bytes — the
/// container's own "keep it only if smaller" rule, applied to a sample.
///
/// The probe reads only the head: a body whose head is incompressible and
/// whose tail is not ships raw. That is the trade for never paying a full
/// pass on bodies that cannot shrink (encoded `f32` observations, random or
/// already-compressed bytes).
pub fn should_compress(body: &[u8], threshold: usize) -> bool {
    if body.len() <= threshold {
        return false;
    }
    let head = &body[..body.len().min(COMPRESSION_PROBE_BYTES)];
    lz4::compress(head).len() < head.len()
}

/// Decompress a stored body according to its header's [`CompressionKind`].
///
/// Restores the chunked container ([`chunk`]) the channel compresses into.
/// Parameter-plane kinds ([`CompressionKind::is_param_plane`]) pass through
/// *unchanged*: they are stateful encodings that only the consuming workhorse
/// (which holds the base version and error-feedback state) can decode — see
/// [`param`].
///
/// # Errors
///
/// Returns [`ChunkError`] if the stored bytes are malformed.
pub fn decompress_body(body: &Bytes, kind: CompressionKind) -> Result<Bytes, ChunkError> {
    match kind {
        CompressionKind::None => Ok(body.clone()),
        CompressionKind::Lz4Chunked => Ok(Bytes::from(chunk::decompress_chunked(body)?)),
        CompressionKind::DeltaF32
        | CompressionKind::QuantizedI8
        | CompressionKind::DeltaQuantizedI8 => Ok(body.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_body_round_trips() {
        let body = Bytes::from(vec![42u8; 2 * 1024 * 1024]);
        let out = Bytes::from(chunk::compress_chunked(&body));
        assert!(out.len() < body.len());
        let restored = decompress_body(&out, CompressionKind::Lz4Chunked).unwrap();
        assert_eq!(restored, body);
    }

    const MIB: usize = 1024 * 1024;

    fn random_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9e3779b97f4a7c15u64;
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
    fn incompressible_body_is_left_alone() {
        // A pseudo-random payload larger than the threshold should be kept verbatim.
        assert!(!should_compress(&random_bytes(2 * MIB), COMPRESSION_THRESHOLD), "the probe rejects it");
    }

    #[test]
    fn zeros_pass_the_probe() {
        let body = vec![0u8; 2 * MIB];
        assert!(should_compress(&body, COMPRESSION_THRESHOLD));
    }

    #[test]
    fn encoded_texture_latent_rollout_fails_the_probe() {
        // What `synth_atari` emits: a fixed texture in [-1, 1] modulating a
        // 16-dim latent that moves every step, 84x84 f32 per observation,
        // codec-encoded step after step. Ratio ~1.00 under full LZ4.
        use codec::Encode;
        let (obs_dim, latent_dim) = (84 * 84, 16);
        let texture: Vec<f32> = (0..obs_dim as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e3779b97f4a7c15) ^ 7;
                ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        let noise = random_bytes(1 << 16);
        let mut body = Vec::new();
        for step in 0..40 {
            let latent: Vec<f32> = (0..latent_dim)
                .map(|j| noise[(step * latent_dim + j) % noise.len()] as f32 / 127.5 - 1.0)
                .collect();
            let obs: Vec<f32> = (0..obs_dim).map(|i| texture[i] * latent[i % latent_dim]).collect();
            obs.encode(&mut body);
            (step as u8).encode(&mut body);
        }
        assert!(body.len() > COMPRESSION_THRESHOLD, "{} bytes", body.len());
        assert!(!should_compress(&body, COMPRESSION_THRESHOLD));
    }

    #[test]
    fn only_the_head_is_sampled() {
        // The documented trade-off: a random first 64 KiB followed by 2 MiB
        // of zeros ships raw, although the full pass would shrink it ~30x.
        let mut body = random_bytes(COMPRESSION_PROBE_BYTES);
        body.resize(COMPRESSION_PROBE_BYTES + 2 * MIB, 0);
        assert!(chunk::compress_chunked(&body).len() < body.len() / 8);
        assert!(!should_compress(&body, COMPRESSION_THRESHOLD));
    }

    #[test]
    fn a_body_at_or_under_the_threshold_is_never_compressed() {
        for len in [0, 1, COMPRESSION_PROBE_BYTES, COMPRESSION_THRESHOLD - 1, COMPRESSION_THRESHOLD]
        {
            assert!(!should_compress(&vec![0u8; len], COMPRESSION_THRESHOLD), "{len} bytes");
        }
        assert!(should_compress(&vec![0u8; COMPRESSION_THRESHOLD + 1], COMPRESSION_THRESHOLD));
    }
}
