//! The asynchronous communication channel of XingTian (paper §3.2.1).
//!
//! XingTian replaces receiver-initiated ("pull") communication with a
//! sender-initiated, aggressive push pipeline:
//!
//! ```text
//! workhorse thread ──▶ send ──▶ shared-memory communicator
//!                               (object store + header queue)
//!                                          │
//!                               algorithm-agnostic router
//!                                 │               │
//!                          local ID queues   remote broker
//!                                 │           (via netsim)
//!                         receiver thread ──▶ receive buffer ──▶ workhorse
//! ```
//!
//! Every hop is event-driven: `send` writes the body into the store on the
//! producer's own thread, waiting at the capacity gate while the store is
//! full (the back-pressure), and each monitoring thread blocks on a queue
//! `pop` and reacts the moment a message header appears, so data transmission
//! starts as soon as the data exist and overlaps with the computation of both
//! endpoints. Bodies live in the [`store::ObjectStore`] and move by reference
//! (O(1) `Bytes` clones); only headers flow through queues.
//!
//! The control plane is built for fan-out: the object store is lock-striped
//! with per-entry atomic fetch credits, the routing tables are read-mostly
//! [`snapshot::SnapshotCell`] snapshots borrowed without locks on every message,
//! broadcasts enqueue one shared `Arc<Header>` per destination, and the router
//! drains its queue in batches, grouping remote traffic per machine per burst.
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
//! * [`Buffer`] — the intra-process receive buffer.
//! * [`ObjectStore`] — zero-copy shared body store with fan-out refcounts.
//! * [`Broker`] — per-machine communication hub: communicator, router thread,
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
pub use store::{ObjectId, ObjectStore};

use serde::{Deserialize, Serialize};
use xingtian_message::ProcessId;

/// Compression policy for message bodies entering the object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
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
/// ordinary channel (store → router → uplink), so a pid goes unlisted for
/// exactly the failures a detector should see — a dead process (its endpoint
/// is gone), a closed endpoint, a severed link to the monitor's machine —
/// never for a sender compressing or back-pressured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Stable 64-bit mix of a process id (splitmix64 finalizer over role+index).
/// Router sharding and the serve fleet's client-to-replica assignment use it
/// to spread deterministically and independently of `HashMap` seeding.
pub fn pid_hash(pid: ProcessId) -> u64 {
    let mut x = ((pid.role as u64) << 32) ^ u64::from(pid.index) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Configuration of the communication channel.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    #[serde(default)]
    pub param_compression: ParamCompression,
    /// Router shards per broker. One router thread saturates around the
    /// fanout the paper measures; sharding by destination hash lets routing
    /// throughput scale with cores while preserving per-(src,dst) FIFO
    /// (every message to a given destination takes the shard that owns it,
    /// a broadcast split over the shards its destinations hash to).
    #[serde(default = "default_router_shards")]
    pub router_shards: usize,
    /// Object-store segment capacity in bytes (`None` = the default
    /// 128 MiB). Small capacities back-pressure aggressive senders sooner —
    /// the elastic supervisor's occupancy signal, and a test's lever for
    /// inducing it.
    #[serde(default)]
    pub store_capacity: Option<usize>,
}

#[allow(dead_code)]
fn default_router_shards() -> usize {
    1
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            compression: Compression::default(),
            endpoint_recv_bytes: Some(16 << 20),
            heartbeat: None,
            param_compression: ParamCompression::default(),
            router_shards: 1,
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

    /// Sets the number of router shards per broker (builder style; clamped
    /// to at least one).
    pub fn with_router_shards(mut self, shards: usize) -> Self {
        self.router_shards = shards.max(1);
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
