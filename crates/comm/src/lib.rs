//! The asynchronous communication channel of XingTian (paper §3.2.1).
//!
//! XingTian replaces receiver-initiated ("pull") communication with a
//! sender-initiated, aggressive push pipeline:
//!
//! ```text
//! workhorse thread ──▶ send ──▶ object store (shared-memory communicator)
//!                        │
//!                        └──▶ algorithm-agnostic router (same thread)
//!                                 │               │
//!                          local ID queues   uplink ──▶ remote broker
//!                                 │                      (via netsim)
//!                         receiver thread ──▶ receive buffer ──▶ workhorse
//! ```
//!
//! Every hop is event-driven: `send` writes the body into the store and
//! routes its header on the producer's own thread, waiting at the capacity
//! gate while the store is full (the back-pressure), and each monitoring
//! thread blocks on a queue `pop` and reacts the moment a message header
//! appears, so data transmission starts as soon as the data exist and
//! overlaps with the computation of both endpoints. Bodies live in the
//! [`store::ObjectStore`] and move by reference (O(1) `Bytes` clones); only
//! headers flow through queues.
//!
//! The control plane is built for fan-out: the object store is lock-striped
//! with per-entry atomic fetch credits, the routing tables are read-mostly
//! [`snapshot::SnapshotCell`] snapshots borrowed without locks on every message,
//! broadcasts enqueue one shared `Arc<Header>` per destination, and each
//! uplink thread coalesces the envelopes queued for its link into bounded
//! wire batches.
//!
//! Each mechanism on that path is written once, as a method of the
//! per-machine hub in [`router`]: one admission into the store, which picks
//! the priority or the capacity-gated lane from
//! [`xingtian_message::MessageKind::priority_lane`] whether the body was
//! submitted on this machine or arrived from another one; one settlement of
//! a fetch credit nobody will spend; and every message the channel loses, at
//! any hop, is counted in [`Broker::dropped`].
//!
//! The public surface:
//!
//! * [`Buffer`] — the channel's one blocking queue: receive buffers, ID
//!   queues, uplink feeds, the delay line and the worker pool's queues.
//! * [`ObjectStore`] — zero-copy shared body store with fan-out refcounts:
//!   create → write → seal over recycled size-class slabs.
//! * [`Broker`] — per-machine communication hub: object store, routing table,
//!   and fabric links to peer brokers over a [`netsim::Cluster`].
//! * [`Endpoint`] — what an explorer/learner process holds: `send`, plus its
//!   receive buffer and the receiver thread that fills it.
//! * [`SnapshotCell`] — the one lock-free-read publish cell (epoch
//!   reclamation): the routing tables here, the hot-swapped policy in
//!   `xt-serve`.
//!
//! # Examples
//!
//! ```
//! use xingtian_comm::{Broker, CommConfig};
//! use xingtian_message::{Header, Message, MessageKind, ProcessId};
//! use netsim::Cluster;
//! use bytes::Bytes;
//!
//! let cluster = Cluster::single();
//! let broker = Broker::new(0, cluster, CommConfig::default());
//! let explorer = broker.endpoint(ProcessId::explorer(0));
//! let learner = broker.endpoint(ProcessId::learner(0));
//!
//! let header = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)],
//!                          MessageKind::Rollout);
//! explorer.send(Message::new(header, Bytes::from_static(b"rollout bytes")));
//! let got = learner.recv().expect("delivered");
//! assert_eq!(&got.body[..], b"rollout bytes");
//! ```

pub mod broker;
pub mod buffer;
pub mod endpoint;
pub mod inject;
pub mod pool;
pub mod router;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use broker::{connect_brokers, Broker};
pub use buffer::Buffer;
pub use endpoint::Endpoint;
pub use inject::{InjectDecision, InjectionStats, RouteInjector};
pub use pool::WorkPool;
pub use router::SplitPlan;
pub use snapshot::SnapshotCell;
pub use stats::TransmissionStats;
pub use store::{ObjectId, ObjectStore, Reservation};

use xingtian_message::ProcessId;

/// Compression policy for message bodies entering the object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Never compress.
    Off,
    /// LZ4-compress bodies larger than the given threshold in bytes
    /// (the paper's default threshold is 1 MiB).
    Threshold(usize),
}

impl Default for Compression {
    fn default() -> Self {
        Compression::Threshold(xingtian_message::COMPRESSION_THRESHOLD)
    }
}

/// Parameter-plane encoding for learner→explorer broadcasts (see
/// `xingtian_message::param`). Transport compression (the [`Compression`]
/// threshold) handles arbitrary bodies; this picks the *stateful* codec the
/// learner uses for `MessageKind::Parameters` specifically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParamCompression {
    /// Full f32 blobs every broadcast (the pre-parameter-plane behavior).
    #[default]
    FullF32,
    /// Bit-lossless XOR deltas against the receiver's last-known version,
    /// with full-f32 fallback when no common base exists.
    DeltaF32,
    /// Int8 quantized absolute values with learner-side error feedback.
    QuantizedI8,
    /// Int8 quantized deltas with error feedback — smallest on the wire.
    DeltaQuantizedI8,
}

/// Liveness-beacon configuration of a broker.
///
/// When set, one beacon thread per broker sends `monitor` one
/// [`xingtian_message::MessageKind::Heartbeat`] every `interval_ms` whose `src`
/// is the broker and whose body lists its local endpoints not in the `Broker`
/// role; a broker with none sends nothing. An endpoint is listed from the
/// first beat after its registration until its close. Heartbeats ride the
/// ordinary channel (store → ID queue or uplink), so a pid goes unlisted for
/// exactly the failures a detector should see — a dead process (its endpoint
/// is gone), a closed endpoint, a severed link to the monitor's machine —
/// never for a sender compressing or back-pressured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Beacon period in milliseconds.
    pub interval_ms: u64,
    /// The process that aggregates liveness (the failure detector's inbox).
    pub monitor: ProcessId,
}

impl HeartbeatConfig {
    /// The beacon period as a [`std::time::Duration`].
    pub fn interval(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.interval_ms)
    }
}

/// Configuration of the communication channel.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// Body compression policy (paper §4.1).
    pub compression: Compression,
    /// Receive-buffer budget in bytes ([`Buffer::with_budget`]; the default,
    /// 16 MiB, holds eight 2 MB rollouts) for workhorse endpoints (explorers
    /// and the learner). Bounded buffers let a stalled consumer backpressure
    /// the channel end to end; `Some(1)` means one message at a time, `None`
    /// restores unbounded buffers. Control-plane endpoints are always unbounded.
    pub endpoint_recv_bytes: Option<usize>,
    /// Liveness beacons (off by default: heartbeats to an unregistered
    /// monitor would tally as routing drops).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Parameter-broadcast encoding (defaults to full f32 blobs). Consumed by
    /// the learner/explorer workhorses, not the channel itself: the channel
    /// just carries the pre-encoded bodies through untouched.
    pub param_compression: ParamCompression,
    /// Object-store segment capacity in bytes (`None` = the default
    /// 128 MiB). Small capacities back-pressure aggressive senders sooner —
    /// the elastic supervisor's occupancy signal, and a test's lever for
    /// inducing it.
    pub store_capacity: Option<usize>,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            compression: Compression::default(),
            endpoint_recv_bytes: Some(16 << 20),
            heartbeat: None,
            param_compression: ParamCompression::default(),
            store_capacity: None,
        }
    }
}

impl CommConfig {
    /// A configuration with compression disabled (used by the dummy-algorithm
    /// transmission benchmarks, whose payloads are incompressible by design).
    pub fn uncompressed() -> Self {
        CommConfig { compression: Compression::Off, ..CommConfig::default() }
    }

    /// Enables liveness beacons to `monitor` every `interval_ms` milliseconds
    /// (builder style).
    pub fn with_heartbeat(mut self, interval_ms: u64, monitor: ProcessId) -> Self {
        self.heartbeat = Some(HeartbeatConfig { interval_ms, monitor });
        self
    }

    /// Sets the object-store segment capacity in bytes (builder style).
    pub fn with_store_capacity(mut self, bytes: usize) -> Self {
        self.store_capacity = Some(bytes);
        self
    }

    /// Selects the parameter-broadcast encoding (builder style).
    pub fn with_param_compression(mut self, kind: ParamCompression) -> Self {
        self.param_compression = kind;
        self
    }
}
