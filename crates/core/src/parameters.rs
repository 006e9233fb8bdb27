//! The learner↔explorer parameter plane: delta bases, error feedback, and
//! the broadcast/nack protocol.
//!
//! [`ParamBroadcaster`] lives beside the learner's training loop and turns
//! each `param_blob` into the smallest frame every destination can decode.
//! In `FullF32` mode that is always the full blob and the broadcaster keeps
//! nothing but its counters. The delta and quantized modes hold the state a
//! delta needs ([`DeltaState`]):
//!
//! * a ring of the last [`RING_DEPTH`] *reconstructed* parameter vectors
//!   (what receivers actually hold, bit-for-bit — for quantized modes that is
//!   the dequantized form, not the learner's own weights) keyed by version,
//!   as candidate delta bases;
//! * per receiver the last version `sent`; a delta frame is only emitted
//!   when every destination of the broadcast was last sent the *same*
//!   version and that version is still in the ring. Anything else — fresh
//!   receiver, respawned receiver, destinations out of sync, delta bigger
//!   than full — falls back to a full-f32 blob (`CompressionKind::None`, so
//!   the ordinary transport LZ4 path still applies to it);
//! * for the quantized modes, an error-feedback accumulator
//!   (arXiv:1812.03239): quantization error is added back into the next
//!   broadcast instead of being lost, so the explorers' policies track the
//!   learner's weights without bias. Full sends are exact and zero it.
//!
//! The channel is sender-initiated, and under its per-sender FIFO `sent` is
//! already what each receiver holds, so a receiver that applies a frame (or
//! drops a stale one) answers nothing. Only a frame it cannot apply is
//! answered, with a [`crate::messages::ParamNack`] carrying the version it
//! still holds: the nack rebases `sent`, so the next broadcast to it goes out
//! full — this is how a respawned explorer (which lost its base) rejoins the
//! delta chain. In `FullF32` mode every frame is a full blob, so a nack is
//! only counted.
//!
//! [`ParamReceiver`] is the explorer half: it holds the single current
//! reconstruction and applies frames *in place* into recycled buffers
//! (nothing is allocated per broadcast once warm).
//!
//! The hand-off over a channel is written once, for the learner, explorers
//! and the serving fleet alike: [`EncodedBroadcast::send`] is the publish
//! half (the one place a `Parameters` header is stamped),
//! [`ParamReceiver::on_parameters`] the subscribe half (ingest, consume, nack
//! what cannot be applied). A version is encoded **once**: a quantized encode
//! consumes the previous one's error-feedback residual and reconstructs
//! differently, and error feedback is only unbiased while the sender's model
//! of each receiver is exact — so a sender with several destination groups (a
//! rolling fleet swap) sends one frame to each, and a repeated encode of a
//! version replaces its ring entry rather than shadow it.

use crate::messages::ParamNack;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use xingtian_algos::payload::ParamBlob;
use xingtian_comm::{Endpoint, ParamCompression};
use xingtian_message::codec::{decode_f32s_into, Decode, Encode, Reader};
use xingtian_message::{param, CompressionKind, Header, Message, MessageKind, ProcessId};
use xt_telemetry::{CounterHandle, Telemetry};

/// Recent parameter versions a delta-mode broadcaster keeps as candidate
/// delta bases. Deep enough for a destination group that was last sent a
/// version a few broadcasts back (a rolling swap, an explorer outside an
/// IMPALA notify list); a destination older than the ring just gets a full
/// send.
pub const RING_DEPTH: usize = 8;

/// A parameter broadcast ready to send: the encoded body plus the
/// [`CompressionKind`] to stamp on the header.
#[derive(Debug)]
pub struct EncodedBroadcast {
    /// Encoded body (a param-plane frame, or a plain [`ParamBlob`] for full
    /// sends).
    pub body: Bytes,
    /// Header compression kind (`None` for full sends — the transport LZ4
    /// threshold still applies to those).
    pub compression: CompressionKind,
    /// The parameter version carried.
    pub version: u64,
}

impl EncodedBroadcast {
    /// The publish half of the hand-off: sends this frame from `endpoint` to
    /// `dst` as one `Parameters` message (callable once per destination
    /// group; the body is shared). Returns whether the endpoint accepted it.
    pub fn send(&self, endpoint: &Endpoint, dst: Vec<ProcessId>) -> bool {
        let mut header = Header::new(endpoint.pid(), dst, MessageKind::Parameters)
            .with_param_version(self.version);
        header.compression = self.compression;
        endpoint.send(Message::new(header, self.body.clone()))
    }
}

/// Learner-side encoder for the parameter plane. See the module docs.
#[derive(Debug)]
pub struct ParamBroadcaster {
    /// The delta and quantized modes' bookkeeping; `None` in `FullF32` mode.
    delta: Option<DeltaState>,
    full_sends: CounterHandle,
    delta_sends: CounterHandle,
    nacks: CounterHandle,
}

impl ParamBroadcaster {
    /// Creates a broadcaster in `mode`, reporting into `telemetry`.
    pub fn new(mode: ParamCompression, telemetry: &Telemetry) -> Self {
        ParamBroadcaster {
            delta: (mode != ParamCompression::FullF32).then(|| DeltaState {
                mode,
                ring: VecDeque::with_capacity(RING_DEPTH + 1),
                sent: HashMap::new(),
                err: Vec::new(),
            }),
            full_sends: telemetry.counter("param.full_sends"),
            delta_sends: telemetry.counter("param.delta_sends"),
            nacks: telemetry.counter("param.nacks"),
        }
    }

    /// Encodes a broadcast of `blob` to `dst` and, in the delta modes, updates
    /// the delta-base bookkeeping (each destination is now assumed to hold
    /// `blob.version` until it nacks).
    pub fn encode(&mut self, blob: &ParamBlob, dst: &[u32]) -> EncodedBroadcast {
        match self.delta.as_mut().and_then(|state| state.encode(blob, dst)) {
            Some(frame) => {
                self.delta_sends.inc();
                frame
            }
            None => {
                self.full_sends.inc();
                EncodedBroadcast {
                    body: Bytes::from(blob.to_bytes()),
                    compression: CompressionKind::None,
                    version: blob.version,
                }
            }
        }
    }

    /// Folds a receiver's nack: it holds `nack.held`, possibly nothing after
    /// a respawn. The delta modes rebase `sent` to that, so the next
    /// broadcast either deltas from a ring entry it truly holds or finds no
    /// common base and goes out full; `FullF32` only counts it.
    pub fn on_nack(&mut self, nack: &ParamNack) {
        self.nacks.inc();
        if let Some(state) = &mut self.delta {
            state.sent.insert(nack.receiver, nack.held);
        }
    }

    /// Decodes a nack message and folds it ([`Self::on_nack`]); a malformed
    /// body folds nothing. Returns what was folded.
    pub fn on_nack_message(&mut self, msg: &Message) -> Option<ParamNack> {
        let nack = ParamNack::from_bytes(&msg.body).ok()?;
        self.on_nack(&nack);
        Some(nack)
    }
}

/// What a delta or quantized broadcaster knows about its receivers. See the
/// module docs.
#[derive(Debug)]
struct DeltaState {
    /// `DeltaF32`, `QuantizedI8` or `DeltaQuantizedI8`.
    mode: ParamCompression,
    /// `(version, receiver-visible reconstruction)`, oldest first.
    ring: VecDeque<(u64, Vec<f32>)>,
    /// Last version sent to each receiver (== what it holds, under FIFO
    /// delivery, until a nack says otherwise).
    sent: HashMap<u32, u64>,
    /// Error-feedback accumulator for the quantized modes.
    err: Vec<f32>,
}

/// A frame's body and compression kind, with what a receiver of it holds.
type Frame = (Vec<u8>, CompressionKind, Vec<f32>);

impl DeltaState {
    /// The delta or quantized frame of `blob` for `dst`, or `None` where only
    /// a full send will do; either way `dst` is now credited with
    /// `blob.version` and the ring holds what they will reconstruct.
    fn encode(&mut self, blob: &ParamBlob, dst: &[u32]) -> Option<EncodedBroadcast> {
        let (version, n) = (blob.version, blob.params.len());
        // A resized network invalidates every old base and the error
        // accumulator.
        self.ring.retain(|(_, r)| r.len() == n);
        if self.err.len() != n {
            self.err.clear();
            self.err.resize(n, 0.0);
        }
        let base = self.common_base(dst);
        let frame = match self.mode {
            ParamCompression::DeltaF32 => base.and_then(|idx| self.delta_f32(blob, idx)),
            ParamCompression::QuantizedI8 => self.quant(blob),
            ParamCompression::DeltaQuantizedI8 => base.and_then(|idx| self.delta_quant(blob, idx)),
            ParamCompression::FullF32 => unreachable!("a full-f32 broadcaster keeps no delta state"),
        };
        for &e in dst {
            self.sent.insert(e, version);
        }
        let Some((body, compression, recon)) = frame else {
            // A full send is exact: nothing is left to feed back.
            self.err.fill(0.0);
            self.push_ring(version, blob.params.clone());
            return None;
        };
        self.push_ring(version, recon);
        Some(EncodedBroadcast { body: Bytes::from(body), compression, version })
    }

    /// The delta base usable for *all* of `dst`: every destination was last
    /// sent the same version and the ring still holds its reconstruction.
    /// (`min` over unequal versions would be wrong — a receiver holding a
    /// *newer* version cannot apply a delta from an older base.)
    fn common_base(&self, dst: &[u32]) -> Option<usize> {
        let mut it = dst.iter();
        let first = *self.sent.get(it.next()?)?;
        if !it.all(|e| self.sent.get(e) == Some(&first)) {
            return None;
        }
        self.ring.iter().position(|(v, _)| *v == first)
    }

    /// One entry per version: a repeated encode replaces what it ringed.
    fn push_ring(&mut self, version: u64, recon: Vec<f32>) {
        self.ring.retain(|(v, _)| *v != version);
        self.ring.push_back((version, recon));
        while self.ring.len() > RING_DEPTH {
            self.ring.pop_front();
        }
    }

    fn delta_f32(&self, blob: &ParamBlob, base: usize) -> Option<Frame> {
        let (base_version, base_params) = &self.ring[base];
        let body =
            param::encode_delta_f32(blob.version, *base_version, &blob.params, base_params);
        (body.len() < blob.encoded_size())
            .then(|| (body, CompressionKind::DeltaF32, blob.params.clone()))
    }

    fn quant(&mut self, blob: &ParamBlob) -> Option<Frame> {
        // Compensated values: re-inject the quantization error of every
        // previous broadcast.
        let values: Vec<f32> =
            blob.params.iter().zip(&self.err).map(|(p, e)| p + e).collect();
        let mut recon = Vec::new();
        let body = param::encode_quantized_i8(blob.version, &values, &mut recon);
        if body.len() >= blob.encoded_size() {
            return None;
        }
        self.feed_back(&values, &recon);
        Some((body, CompressionKind::QuantizedI8, recon))
    }

    fn delta_quant(&mut self, blob: &ParamBlob, base: usize) -> Option<Frame> {
        let values: Vec<f32> =
            blob.params.iter().zip(&self.err).map(|(p, e)| p + e).collect();
        let (base_version, base_params) = &self.ring[base];
        let deltas: Vec<f32> = values.iter().zip(base_params).map(|(v, b)| v - b).collect();
        let mut recon_d = Vec::new();
        let body =
            param::encode_delta_quantized_i8(blob.version, *base_version, &deltas, &mut recon_d);
        if body.len() >= blob.encoded_size() {
            return None;
        }
        // The receiver computes `held[i] + dq[i]` — reproduce the identical
        // f32 add so the ring entry matches receiver state bit-for-bit.
        let recon: Vec<f32> =
            base_params.iter().zip(&recon_d).map(|(b, d)| b + d).collect();
        self.feed_back(&values, &recon);
        Some((body, CompressionKind::DeltaQuantizedI8, recon))
    }

    /// What the receiver will not hold of the compensated `values` is carried
    /// into the next broadcast.
    fn feed_back(&mut self, values: &[f32], recon: &[f32]) {
        for ((e, v), r) in self.err.iter_mut().zip(values).zip(recon) {
            *e = v - r;
        }
    }
}

/// What [`ParamReceiver::ingest`] did with a broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Applied; the receiver now holds this version. Not answered: the
    /// sender already assumes it.
    Applied(u64),
    /// Older than (or equal to) what the receiver already holds; ignored
    /// and not answered.
    Stale,
    /// Could not be decoded (missing base, count mismatch, corrupt frame).
    /// Nack with the held version so the sender rebases.
    Rejected {
        /// The version the receiver still holds.
        held: u64,
    },
}

/// Explorer-side decoder state: the current parameter reconstruction, updated
/// in place from whatever frame kind arrives. Warm steady state allocates
/// nothing per broadcast.
#[derive(Debug)]
pub struct ParamReceiver {
    /// Current reconstruction, exposed as a [`ParamBlob`] so it can be handed
    /// straight to `Agent::apply_params`.
    blob: ParamBlob,
    /// Recycled decompression scratch.
    scratch: Vec<u8>,
}

impl Default for ParamReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamReceiver {
    /// A receiver holding nothing (version 0, empty parameters).
    pub fn new() -> Self {
        ParamReceiver {
            blob: ParamBlob { version: 0, params: Vec::new() },
            scratch: Vec::new(),
        }
    }

    /// The version currently held.
    pub fn version(&self) -> u64 {
        self.blob.version
    }

    /// The current reconstruction, ready for `Agent::apply_params`.
    pub fn blob(&self) -> &ParamBlob {
        &self.blob
    }

    /// The subscribe half of the hand-off, for the receiver its sender knows
    /// as `id`: ingests the `Parameters` message `msg`. Applied ⇒ `consume`
    /// gets the new reconstruction; undecodable against what is held (a
    /// respawn lost the base, a corrupt frame) ⇒ a nack with the held
    /// version, so the sender rebases and resends full; stale ⇒ nothing.
    /// Only the nack is a reply.
    pub fn on_parameters(
        &mut self,
        endpoint: &Endpoint,
        id: u32,
        msg: &Message,
        consume: impl FnOnce(&ParamBlob),
    ) {
        match self.ingest(msg.header.compression, &msg.body) {
            IngestOutcome::Applied(_) => consume(&self.blob),
            IngestOutcome::Stale => {}
            IngestOutcome::Rejected { held } => {
                let nack = ParamNack { receiver: id, held };
                endpoint.send_encoded(vec![msg.header.src], MessageKind::ParamAck, &nack);
            }
        }
    }

    /// Applies one `Parameters` body (full blob or param-plane frame,
    /// dispatched on the header's `compression`) to the held reconstruction.
    pub fn ingest(&mut self, compression: CompressionKind, body: &[u8]) -> IngestOutcome {
        let held = self.blob.version;
        if compression.is_param_plane() {
            match param::peek_frame(body) {
                Ok(hdr) if hdr.version <= held => IngestOutcome::Stale,
                Ok(_) => match param::apply_frame(
                    body,
                    held,
                    &mut self.blob.params,
                    &mut self.scratch,
                ) {
                    Ok(v) => {
                        self.blob.version = v;
                        IngestOutcome::Applied(v)
                    }
                    Err(_) => IngestOutcome::Rejected { held },
                },
                Err(_) => IngestOutcome::Rejected { held },
            }
        } else {
            // Full ParamBlob (transport compression was already stripped by
            // the endpoint's receiver thread). Decoded into the recycled
            // params buffer.
            let mut r = Reader::new(body);
            let Ok(version) = u64::decode(&mut r) else {
                return IngestOutcome::Rejected { held };
            };
            if version < held {
                return IngestOutcome::Stale;
            }
            // The parameters must end the body (as for `ParamBlob::from_bytes`);
            // checked first, since the decode writes over the held ones.
            let mut len = r.clone();
            if len.varint().ok().and_then(|n| usize::try_from(n).ok()?.checked_mul(4)) != Some(len.remaining()) {
                return IngestOutcome::Rejected { held };
            }
            match decode_f32s_into(&mut r, &mut self.blob.params) {
                Ok(()) => {
                    self.blob.version = version;
                    IngestOutcome::Applied(version)
                }
                Err(_) => IngestOutcome::Rejected { held },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(version: u64, n: usize, seed: u64) -> ParamBlob {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        let params = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        ParamBlob { version, params }
    }

    fn drift(b: &ParamBlob, magnitude: f32) -> ParamBlob {
        let noise = blob(0, b.params.len(), b.version + 99);
        ParamBlob {
            version: b.version + 1,
            params: b
                .params
                .iter()
                .zip(&noise.params)
                .map(|(p, n)| p + n * magnitude)
                .collect(),
        }
    }

    #[test]
    fn first_broadcast_is_full_then_deltas_chain_losslessly() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, &t);
        let mut rx = ParamReceiver::new();
        let dst = [0u32, 1, 2];
        let mut b = blob(1, 4096, 7);
        let enc = tx.encode(&b, &dst);
        assert_eq!(enc.compression, CompressionKind::None, "no base yet: full");
        assert_eq!(rx.ingest(enc.compression, &enc.body), IngestOutcome::Applied(1));
        for _ in 0..10 {
            b = drift(&b, 1e-4);
            let enc = tx.encode(&b, &dst);
            assert_eq!(enc.compression, CompressionKind::DeltaF32);
            assert_eq!(
                rx.ingest(enc.compression, &enc.body),
                IngestOutcome::Applied(b.version)
            );
            for (got, want) in rx.blob().params.iter().zip(&b.params) {
                assert_eq!(got.to_bits(), want.to_bits(), "delta chain is bit-lossless");
            }
        }
    }

    #[test]
    fn unequal_destination_versions_force_full_fallback() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, &t);
        let b1 = blob(1, 256, 3);
        // Explorer 0 got v1; explorer 1 never got anything.
        tx.encode(&b1, &[0]);
        let b2 = drift(&b1, 1e-3);
        let enc = tx.encode(&b2, &[0, 1]);
        assert_eq!(enc.compression, CompressionKind::None, "mixed bases: full");
        // Now both hold v2; the next broadcast deltas.
        let b3 = drift(&b2, 1e-3);
        assert_eq!(tx.encode(&b3, &[0, 1]).compression, CompressionKind::DeltaF32);
    }

    /// A full-blob body is a `ParamBlob` to its last byte: one more byte is a
    /// rejection, and the held parameters stay as they were.
    #[test]
    fn a_full_blob_with_trailing_bytes_is_rejected() {
        let mut rx = ParamReceiver::new();
        let b1 = blob(1, 64, 7);
        assert_eq!(rx.ingest(CompressionKind::None, &b1.to_bytes()), IngestOutcome::Applied(1));
        let mut body = blob(2, 64, 8).to_bytes();
        body.push(0);
        assert_eq!(rx.ingest(CompressionKind::None, &body), IngestOutcome::Rejected { held: 1 });
        assert_eq!(rx.blob(), &b1, "the held parameters are untouched");
    }

    #[test]
    fn nack_rebases_and_heals_with_a_full_send() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, &t);
        let mut b = blob(1, 256, 5);
        tx.encode(&b, &[0]);
        b = drift(&b, 1e-3);
        let enc = tx.encode(&b, &[0]);
        assert_eq!(enc.compression, CompressionKind::DeltaF32);
        // A respawned explorer 0 holds nothing and nacks with version 0.
        let mut fresh = ParamReceiver::new();
        assert_eq!(
            fresh.ingest(enc.compression, &enc.body),
            IngestOutcome::Rejected { held: 0 }
        );
        tx.on_nack(&ParamNack { receiver: 0, held: 0 });
        b = drift(&b, 1e-3);
        let enc = tx.encode(&b, &[0]);
        assert_eq!(enc.compression, CompressionKind::None, "healed with a full send");
        assert_eq!(fresh.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
        // And the chain resumes.
        b = drift(&b, 1e-3);
        let enc = tx.encode(&b, &[0]);
        assert_eq!(enc.compression, CompressionKind::DeltaF32);
        assert_eq!(fresh.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
    }

    #[test]
    fn replica_joining_mid_chain_converges_after_exactly_one_full_send() {
        // The serving-plane attach case: a replica dies and its replacement
        // joins mid-delta-chain holding no base version, while the
        // broadcaster's bookkeeping still credits that index with the old
        // chain. The join must cost exactly one full send — the nack
        // rebases the broadcaster once, and the chain resumes as deltas
        // for everyone.
        let t = Telemetry::enabled();
        let full_sends = t.counter("param.full_sends");
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, &t);
        let mut veteran = ParamReceiver::new();
        let mut original = ParamReceiver::new();

        // Establish a chain to both destinations: one boot full send, then
        // deltas, nobody answering.
        let mut b = blob(1, 512, 3);
        let enc = tx.encode(&b, &[0, 1]);
        assert_eq!(veteran.ingest(enc.compression, &enc.body), IngestOutcome::Applied(1));
        assert_eq!(original.ingest(enc.compression, &enc.body), IngestOutcome::Applied(1));
        for _ in 0..3 {
            b = drift(&b, 1e-3);
            let enc = tx.encode(&b, &[0, 1]);
            assert_eq!(enc.compression, CompressionKind::DeltaF32);
            assert_eq!(veteran.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
            assert_eq!(original.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
        }
        let boot_fulls = full_sends.get();

        // Destination 1 respawns with empty state; the broadcaster does not
        // know. The next broadcast is still a delta against the common base:
        // the veteran applies it, the joiner holds no base and nacks.
        let mut joiner = ParamReceiver::new();
        drop(original);
        b = drift(&b, 1e-3);
        let enc = tx.encode(&b, &[0, 1]);
        assert_eq!(enc.compression, CompressionKind::DeltaF32, "stale bookkeeping still deltas");
        assert_eq!(veteran.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
        assert_eq!(joiner.ingest(enc.compression, &enc.body), IngestOutcome::Rejected { held: 0 });
        tx.on_nack(&ParamNack { receiver: 1, held: 0 });

        // Self-heal: the send after the nack is full, both sides apply it...
        b = drift(&b, 1e-3);
        let enc = tx.encode(&b, &[0, 1]);
        assert_eq!(enc.compression, CompressionKind::None, "nack forces a rebase");
        assert_eq!(veteran.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
        assert_eq!(joiner.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
        assert_eq!(full_sends.get(), boot_fulls + 1, "the join costs exactly one full send");

        // ...and the chain resumes as deltas for the whole group, bit-exact.
        for _ in 0..3 {
            b = drift(&b, 1e-3);
            let enc = tx.encode(&b, &[0, 1]);
            assert_eq!(enc.compression, CompressionKind::DeltaF32);
            assert_eq!(veteran.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
            assert_eq!(joiner.ingest(enc.compression, &enc.body), IngestOutcome::Applied(b.version));
        }
        assert_eq!(full_sends.get(), boot_fulls + 1, "no further full sends after healing");
        for (a, c) in joiner.blob().params.iter().zip(&b.params) {
            assert_eq!(a.to_bits(), c.to_bits(), "joiner reconstruction is bit-exact");
        }
    }

    #[test]
    fn quantized_error_feedback_keeps_reconstruction_unbiased() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaQuantizedI8, &t);
        let mut rx = ParamReceiver::new();
        let mut b = blob(1, 4096, 11);
        let enc = tx.encode(&b, &[0]);
        rx.ingest(enc.compression, &enc.body);
        let mut max_err = 0.0f32;
        for _ in 0..50 {
            b = drift(&b, 1e-3);
            let enc = tx.encode(&b, &[0]);
            assert!(matches!(rx.ingest(enc.compression, &enc.body), IngestOutcome::Applied(_)));
            max_err = rx
                .blob()
                .params
                .iter()
                .zip(&b.params)
                .map(|(r, p)| (r - p).abs())
                .fold(max_err, f32::max);
        }
        // Error feedback bounds drift: without it, per-step quantization
        // error (~delta_scale/2 each round) accumulates linearly over the 50
        // rounds; with it the reconstruction stays within a couple of
        // quantization steps of the truth.
        assert!(max_err < 5e-4, "reconstruction drifted: max err {max_err}");
    }

    #[test]
    fn a_version_encoded_twice_is_ringed_once() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaQuantizedI8, &t);
        let b1 = blob(1, 1024, 23);
        tx.encode(&b1, &[0, 1]);
        // The same version to two destination groups: the second encode
        // consumes the first's residual and reconstructs differently. The
        // ring must not keep both under one version, where `common_base`
        // would hand every destination the first.
        let b2 = drift(&b1, 1e-3);
        assert_eq!(tx.encode(&b2, &[0]).compression, CompressionKind::DeltaQuantizedI8);
        assert_eq!(tx.encode(&b2, &[1]).compression, CompressionKind::DeltaQuantizedI8);
        let ring = &tx.delta.as_ref().expect("a delta mode keeps a ring").ring;
        assert_eq!(ring.iter().filter(|(v, _)| *v == 2).count(), 1);
        assert_eq!(ring.len(), 2, "one entry per version");
    }

    #[test]
    fn stale_frames_are_ignored_not_applied() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::QuantizedI8, &t);
        let mut rx = ParamReceiver::new();
        let b1 = blob(5, 128, 13);
        let enc1 = tx.encode(&b1, &[0]);
        let b2 = drift(&b1, 1e-2);
        let enc2 = tx.encode(&b2, &[0]);
        assert!(matches!(rx.ingest(enc2.compression, &enc2.body), IngestOutcome::Applied(6)));
        assert_eq!(rx.ingest(enc1.compression, &enc1.body), IngestOutcome::Stale);
        assert_eq!(rx.version(), 6);
    }

    #[test]
    fn resized_network_invalidates_bases() {
        let t = Telemetry::disabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, &t);
        let b1 = blob(1, 128, 17);
        tx.encode(&b1, &[0]);
        // Same explorer, different parameter count: must not delta.
        let b2 = blob(2, 256, 19);
        assert_eq!(tx.encode(&b2, &[0]).compression, CompressionKind::None);
    }

    /// `FullF32` keeps no ring, no `sent` map and no error accumulator: every
    /// broadcast is the blob's own bytes, and a nack is only counted.
    #[test]
    fn a_full_f32_broadcaster_keeps_no_delta_state() {
        let t = Telemetry::enabled();
        let mut tx = ParamBroadcaster::new(ParamCompression::FullF32, &t);
        let mut b = blob(1, 256, 29);
        for _ in 0..3 {
            let enc = tx.encode(&b, &[0, 1]);
            assert_eq!(enc.compression, CompressionKind::None);
            assert_eq!(&enc.body[..], &b.to_bytes()[..]);
            b = drift(&b, 1e-3);
        }
        tx.on_nack(&ParamNack { receiver: 1, held: 0 });
        assert!(tx.delta.is_none());
        assert_eq!(t.counter("param.full_sends").get(), 3);
        assert_eq!(t.counter("param.nacks").get(), 1);
    }
}
