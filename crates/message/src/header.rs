//! Message headers: the lightweight routing metadata that flows through the
//! header queues and ID queues of the communication channel.
//!
//! The paper keeps header queues "always filled in with lightweight metadata"
//! (§3.2.1) while the bulky bodies live in the shared-memory object store. A
//! [`Header`] therefore stays small and `Clone`-cheap: destinations are a short
//! vector (a rollout goes to the single learner; a parameter broadcast fans out
//! to many explorers).

use crate::codec::{varint_len, write_varint, Decode, DecodeError, Encode, Reader};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The role a process plays in a DRL algorithm deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessRole {
    /// Interacts with the environment and generates rollouts.
    Explorer,
    /// Trains the DNN and broadcasts updated parameters.
    Learner,
    /// Manages lifecycle, statistics, and control commands.
    Controller,
    /// Relays messages between processes and machines.
    Broker,
    /// Hosts a store-resident replay shard: ingests rollouts beside the
    /// object store and answers sample requests (xt-replay).
    Replay,
    /// A policy-serving replica: answers observation→action inference
    /// queries at high QPS from a hot-swappable policy snapshot (xt-serve).
    Server,
}

impl fmt::Display for ProcessRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessRole::Explorer => write!(f, "explorer"),
            ProcessRole::Learner => write!(f, "learner"),
            ProcessRole::Controller => write!(f, "controller"),
            ProcessRole::Broker => write!(f, "broker"),
            ProcessRole::Replay => write!(f, "replay"),
            ProcessRole::Server => write!(f, "server"),
        }
    }
}

/// Identifies a process within a deployment: a role plus an index.
///
/// Indices are global across machines; the broker's routing table maps each
/// `ProcessId` to the machine hosting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId {
    /// Role of the process.
    pub role: ProcessRole,
    /// Index among processes of the same role (e.g. explorer 3).
    pub index: u32,
}

impl ProcessId {
    /// Identifier of the `index`-th explorer.
    pub fn explorer(index: u32) -> Self {
        ProcessId { role: ProcessRole::Explorer, index }
    }

    /// Identifier of the `index`-th learner (most algorithms use learner 0).
    pub fn learner(index: u32) -> Self {
        ProcessId { role: ProcessRole::Learner, index }
    }

    /// Identifier of the `index`-th controller (0 is the center controller).
    pub fn controller(index: u32) -> Self {
        ProcessId { role: ProcessRole::Controller, index }
    }

    /// Identifier of the `index`-th broker.
    pub fn broker(index: u32) -> Self {
        ProcessId { role: ProcessRole::Broker, index }
    }

    /// Identifier of the `index`-th replay shard (xt-replay service).
    pub fn replay(index: u32) -> Self {
        ProcessId { role: ProcessRole::Replay, index }
    }

    /// Identifier of the `index`-th policy-serving replica (xt-serve).
    pub fn server(index: u32) -> Self {
        ProcessId { role: ProcessRole::Server, index }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.role, self.index)
    }
}

/// Every role in declaration order; a role's wire tag is its position here.
const ROLES: [ProcessRole; 6] = {
    use ProcessRole::*;
    [Explorer, Learner, Controller, Broker, Replay, Server]
};

/// A pid list, the body of a liveness beacon: a varint count, then per pid
/// its role tag (one byte) and its index (`u32` LE).
impl Encode for Vec<ProcessId> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for pid in self {
            out.push(pid.role as u8);
            out.extend_from_slice(&pid.index.to_le_bytes());
        }
    }
    fn encoded_size(&self) -> usize {
        varint_len(self.len() as u64) + self.len() * 5
    }
}

impl Decode for Vec<ProcessId> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        (0..r.length()?)
            .map(|_| {
                let tag = r.u8()?;
                let role = *ROLES.get(usize::from(tag)).ok_or(DecodeError::InvalidTag(tag))?;
                Ok(ProcessId { role, index: u32::decode(r)? })
            })
            .collect()
    }
}

/// What a message carries. The router does not inspect bodies; the kind lets
/// endpoints dispatch without deserializing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A batch of rollout steps from an explorer to the learner.
    Rollout,
    /// Updated DNN parameters broadcast from the learner to explorers.
    Parameters,
    /// A step count (one codec `u64`) for the center controller: a learner
    /// reports the steps a session consumed, an explorer those a rollout took.
    Stats,
    /// Lifecycle/control command from a controller.
    Control,
    /// Benchmark payload used by the dummy DRL algorithm (§5.1).
    Dummy,
    /// Periodic liveness beacon from a broker (`src`) to the deployment's
    /// failure detector; its body is the `Vec<ProcessId>` of the broker's
    /// live endpoints. Control-plane prioritized: a backpressured data plane
    /// must never delay liveness evidence.
    Heartbeat,
    /// The answer to a rollout, naming its source explorer (a codec `u32`): the
    /// process that took it has handed it back for recycling. The learner
    /// answers the explorer; a replay shard answers the learner, which wakes
    /// and passes the answer on.
    RolloutAnswer,
    /// A parameter receiver's nack: a broadcast it could not apply (a delta
    /// without its base, a corrupt frame), carrying the version it still
    /// holds, so the sender's delta-base bookkeeping rebases and its next
    /// frame goes out full. Applied broadcasts are not answered. Tiny and
    /// control-plane prioritized.
    ParamAck,
    /// A gradient between learner shards: a lockstep round's slot blob, or a
    /// relaxed round's LAPG-gated upload (arXiv:1812.03239). Priority lane:
    /// paced by the learners' own training.
    Gradient,
    /// A client's observation batch bound for a policy-serving replica
    /// (xt-serve). Rides the priority lane: a latency-SLO inference query
    /// must never queue behind a back-pressured rollout stream.
    InferRequest,
    /// A serving replica's answer to an [`MessageKind::InferRequest`]: the
    /// selected actions (or an explicit shed). Priority lane, same reasoning.
    InferReply,
}

impl MessageKind {
    /// Whether bodies of this kind enter an object store on the *priority
    /// lane* — admitted without waiting for the segment's capacity gate and
    /// excluded from its data-plane occupancy — on every path into every
    /// machine's store (local submit, remote arrival).
    ///
    /// The match is exhaustive on purpose: a new kind must choose its lane to
    /// compile. Everything on the priority lane must be bounded by something
    /// other than the gate it bypasses; each arm says what.
    pub const fn priority_lane(self) -> bool {
        match self {
            // Data plane: bulky, produced at explorer fan-in rate. Waiting at
            // the gate *is* the channel's back-pressure on these.
            MessageKind::Rollout | MessageKind::Dummy => false,
            // Lifecycle commands and statistics must flow even when the data
            // plane is fully back-pressured, or a stalled learner could never
            // be shut down. Tiny: a shutdown per process, a step count per
            // rollout or training session.
            MessageKind::Control | MessageKind::Stats => true,
            // A backpressured data plane must never delay liveness evidence.
            // One pid list per machine per interval.
            MessageKind::Heartbeat => true,
            // One per rollout taken (two under store-resident replay: shard to
            // learner, learner to explorer): bounded by window × explorers,
            // since an explorer sends nothing past its window unanswered.
            MessageKind::RolloutAnswer => true,
            // A rebase stuck behind a backed-up data plane would keep a
            // receiver without its base rejecting deltas exactly when the
            // wire is busiest. At most one small nack per broadcast a
            // receiver could not apply.
            MessageKind::ParamAck => true,
            // The learner is the data plane's drain: blocked admitting its
            // own broadcast into a rollout-saturated store it could never
            // fetch again — capacity waiting on the only process that frees
            // capacity. In-flight volume is bounded by the learner's own
            // training pace, not by explorer fan-in, so it cannot run away.
            MessageKind::Parameters => true,
            // Learner to learner, and a shard is the drain of the rollouts
            // addressed to it: blocked admitting its own gradient into a store
            // full of them, a lockstep shard would wedge the round. Bounded
            // like `Parameters`, by the learners' own training: `GRAD_SLOTS`
            // blobs per lockstep round, one LAPG-gated upload per peer per
            // gossip round.
            MessageKind::Gradient => true,
            // Latency-SLO bound: a millisecond-budget query must never queue
            // behind a back-pressured rollout stream. Serving replicas bound
            // their own admission with explicit sheds, so the lane stays
            // finite.
            MessageKind::InferRequest | MessageKind::InferReply => true,
        }
    }
}

/// How a message body stored in the object store is compressed.
///
/// The kinds split into two classes:
///
/// * The **transport** kind ([`Lz4Chunked`](CompressionKind::Lz4Chunked)) is
///   applied and removed by the channel itself — the receiving endpoint's
///   monitoring thread restores the logical body before delivery.
/// * **Parameter-plane** kinds ([`DeltaF32`](CompressionKind::DeltaF32),
///   [`QuantizedI8`](CompressionKind::QuantizedI8),
///   [`DeltaQuantizedI8`](CompressionKind::DeltaQuantizedI8)) are stateful:
///   decoding needs the receiver's reconstruction state (its last applied
///   parameter vector), so the channel passes these bodies through untouched
///   and the consuming workhorse decodes them ([`crate::param`]).
///
/// Wire discriminant 1 is unclaimed: it named a single-LZ4-block body that
/// nothing produces since the chunked container replaced it, and it now
/// decodes to [`crate::codec::DecodeError::InvalidTag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CompressionKind {
    /// Body stored verbatim.
    #[default]
    None,
    /// The body is a chunk container of independent LZ4 frames
    /// (`xingtian_message::chunk`).
    Lz4Chunked,
    /// Parameter broadcast delta-encoded against a base version: the XOR of
    /// the f32 bit patterns against the receiver-held base, byte-plane
    /// transposed and chunk-compressed. Bit-lossless.
    DeltaF32,
    /// Parameter broadcast quantized to int8 with one f32 scale per group of
    /// values (lossy; the encoder keeps an error-feedback accumulator).
    QuantizedI8,
    /// Delta against a base version, then int8-quantized with per-group
    /// scales (lossy; error feedback on the encoder side).
    DeltaQuantizedI8,
}

impl CompressionKind {
    /// True for transport compression the channel itself removes before
    /// delivery (receiving endpoints decompress these and hand the workhorse
    /// the logical body).
    pub fn is_transport(self) -> bool {
        self == CompressionKind::Lz4Chunked
    }

    /// True for parameter-plane encodings that need receiver state to decode;
    /// the channel delivers these bodies untouched (`crate::param`).
    pub fn is_param_plane(self) -> bool {
        matches!(
            self,
            CompressionKind::DeltaF32
                | CompressionKind::QuantizedI8
                | CompressionKind::DeltaQuantizedI8
        )
    }

    /// Stable wire discriminant of this kind (the inverse of
    /// [`CompressionKind::from_discriminant`]).
    pub const fn discriminant(self) -> u8 {
        match self {
            CompressionKind::None => 0,
            CompressionKind::Lz4Chunked => 2,
            CompressionKind::DeltaF32 => 3,
            CompressionKind::QuantizedI8 => 4,
            CompressionKind::DeltaQuantizedI8 => 5,
        }
    }

    /// Decodes a wire discriminant, returning a typed error — never panicking —
    /// on bytes no kind claims (hostile or future-version input).
    ///
    /// # Errors
    ///
    /// [`crate::codec::DecodeError::InvalidTag`] for unknown discriminants.
    pub const fn from_discriminant(d: u8) -> Result<Self, crate::codec::DecodeError> {
        Ok(match d {
            0 => CompressionKind::None,
            2 => CompressionKind::Lz4Chunked,
            3 => CompressionKind::DeltaF32,
            4 => CompressionKind::QuantizedI8,
            5 => CompressionKind::DeltaQuantizedI8,
            other => return Err(crate::codec::DecodeError::InvalidTag(other)),
        })
    }

    /// Every kind, in discriminant order (test and telemetry enumeration).
    pub const ALL: [CompressionKind; 5] = [
        CompressionKind::None,
        CompressionKind::Lz4Chunked,
        CompressionKind::DeltaF32,
        CompressionKind::QuantizedI8,
        CompressionKind::DeltaQuantizedI8,
    ];

    /// Stable lowercase name (telemetry counter suffixes, figs output).
    pub const fn name(self) -> &'static str {
        match self {
            CompressionKind::None => "none",
            CompressionKind::Lz4Chunked => "lz4_chunked",
            CompressionKind::DeltaF32 => "delta_f32",
            CompressionKind::QuantizedI8 => "quantized_i8",
            CompressionKind::DeltaQuantizedI8 => "delta_quantized_i8",
        }
    }
}

impl crate::codec::Encode for CompressionKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.discriminant());
    }
    fn encoded_size(&self) -> usize {
        1
    }
}

impl crate::codec::Decode for CompressionKind {
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::DecodeError> {
        CompressionKind::from_discriminant(r.u8()?)
    }
}

static NEXT_MESSAGE_ID: AtomicU64 = AtomicU64::new(1);

/// Routing metadata attached to every message.
///
/// Headers travel through the shared communicator queue, the per-destination
/// ID queues, and the receive buffer; the body itself stays in the object
/// store until the final hop.
#[derive(Debug, Clone)]
pub struct Header {
    /// Globally unique message identifier.
    pub id: u64,
    /// Producing process.
    pub src: ProcessId,
    /// Consuming processes. Rollouts have one destination (the learner);
    /// parameter broadcasts list every target explorer. Shared so that a
    /// 256-way broadcast clones one pointer, not 256 copies of a 256-entry
    /// list — header clones are O(1) regardless of fan-out.
    pub dst: Arc<[ProcessId]>,
    /// Payload kind.
    pub kind: MessageKind,
    /// Object-store id of the body, attached by `Broker::submit` on the
    /// producer's thread once the body has been inserted into the
    /// shared-memory communicator. `None` while the message is still inside
    /// the producing process.
    pub object_id: Option<u64>,
    /// Uncompressed body length in bytes.
    pub len: usize,
    /// How the stored body is compressed.
    pub compression: CompressionKind,
    /// Per-sender sequence number (used by on-policy algorithms to match
    /// rollout versions with parameter versions).
    pub seq: u64,
    /// Version of the DNN parameters that produced (or constitutes) this body.
    pub param_version: u64,
    /// When the producing workhorse thread created the message. Used to derive
    /// the transmission-latency distributions of Figs. 8–10.
    pub created_at: Instant,
}

impl Header {
    /// Creates a header with a fresh globally unique id.
    pub fn new(src: ProcessId, dst: impl Into<Arc<[ProcessId]>>, kind: MessageKind) -> Self {
        Header {
            id: NEXT_MESSAGE_ID.fetch_add(1, Ordering::Relaxed),
            src,
            dst: dst.into(),
            kind,
            object_id: None,
            len: 0,
            compression: CompressionKind::None,
            seq: 0,
            param_version: 0,
            created_at: Instant::now(),
        }
    }

    /// Sets the per-sender sequence number (builder style).
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the parameter version (builder style).
    pub fn with_param_version(mut self, version: u64) -> Self {
        self.param_version = version;
        self
    }

    /// True if `pid` is among the destinations.
    pub fn targets(&self, pid: ProcessId) -> bool {
        self.dst.contains(&pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_ids_are_unique() {
        let a = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        let b = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn targets_checks_destinations() {
        let h = Header::new(
            ProcessId::learner(0),
            vec![ProcessId::explorer(0), ProcessId::explorer(2)],
            MessageKind::Parameters,
        );
        assert!(h.targets(ProcessId::explorer(0)));
        assert!(h.targets(ProcessId::explorer(2)));
        assert!(!h.targets(ProcessId::explorer(1)));
        assert!(!h.targets(ProcessId::learner(0)));
    }

    #[test]
    fn every_kind_has_its_lane() {
        use MessageKind::*;
        let lanes = [
            (Rollout, false),
            (Parameters, true),
            (Stats, true),
            (Control, true),
            (Dummy, false),
            (Heartbeat, true),
            (RolloutAnswer, true),
            (ParamAck, true),
            (Gradient, true),
            (InferRequest, true),
            (InferReply, true),
        ];
        for (kind, priority) in lanes {
            assert_eq!(kind.priority_lane(), priority, "{kind:?}");
        }
    }

    #[test]
    fn process_id_display_is_stable() {
        assert_eq!(ProcessId::explorer(3).to_string(), "explorer-3");
        assert_eq!(ProcessId::learner(0).to_string(), "learner-0");
    }

    #[test]
    fn pid_lists_round_trip_and_every_truncation_is_an_error() {
        use crate::codec::{Decode, Encode};
        // 200 pids: a two-byte count, every role, indices up to u32::MAX.
        let pids: Vec<ProcessId> = (0..200u32)
            .map(|i| ProcessId { role: ROLES[i as usize % ROLES.len()], index: i.wrapping_mul(0x0101_0101) })
            .chain([ProcessId::server(u32::MAX)])
            .collect();
        let body = pids.to_bytes();
        assert_eq!(body.len(), pids.encoded_size());
        assert_eq!(Vec::<ProcessId>::from_bytes(&body), Ok(pids));
        for cut in 0..body.len() {
            assert!(Vec::<ProcessId>::from_bytes(&body[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(Vec::<ProcessId>::from_bytes(&[0]), Ok(Vec::new()));
    }

    #[test]
    fn an_unknown_role_tag_is_a_typed_error() {
        use crate::codec::{Decode, DecodeError};
        for tag in ROLES.len() as u8..=u8::MAX {
            let body = [1, tag, 0, 0, 0, 0];
            assert_eq!(Vec::<ProcessId>::from_bytes(&body), Err(DecodeError::InvalidTag(tag)));
        }
    }

    #[test]
    fn compression_kind_discriminants_round_trip() {
        for kind in CompressionKind::ALL {
            assert_eq!(CompressionKind::from_discriminant(kind.discriminant()), Ok(kind));
            // Exactly one of the two classes (or neither, for None).
            assert!(!(kind.is_transport() && kind.is_param_plane()));
            assert_eq!(kind == CompressionKind::None, !kind.is_transport() && !kind.is_param_plane());
        }
    }

    #[test]
    fn unknown_compression_discriminant_is_a_typed_error() {
        use crate::codec::DecodeError;
        for d in std::iter::once(1).chain(6..=u8::MAX) {
            assert_eq!(CompressionKind::from_discriminant(d), Err(DecodeError::InvalidTag(d)));
        }
    }

    #[test]
    fn builder_setters_apply() {
        let h = Header::new(ProcessId::explorer(1), vec![ProcessId::learner(0)], MessageKind::Rollout)
            .with_seq(9)
            .with_param_version(4);
        assert_eq!(h.seq, 9);
        assert_eq!(h.param_version, 4);
    }
}
