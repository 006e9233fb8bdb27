//! The serving fleet: N replicas, consistent-hash routing, supervision.
//!
//! [`ServeFleet::start`] boots `replicas` serving processes from one
//! parameter blob (typically `checkpoint::load_latest`). Clients pick their
//! replica with a stable splitmix hash of its process id ([`pid_hash`]), so a
//! client sticks to one replica and the fleet spreads load without
//! coordination.
//!
//! Supervision is the training plane's: a replica's serve loop and its
//! parameter sink are each a [`xingtian::supervisor::Slot`], and [`poll`]
//! runs the supervisor's reap/respawn state machine ([`Slot::reap`]) over
//! both — unbounded budget, no detector to wait for. A serve loop that
//! exited dirty (endpoint death) comes back on the latest checkpoint, else
//! on the replica's in-memory policy; a sink that died, alone or not, comes
//! back seeded with the policy being served, so the delta chain resumes
//! after at most one nack. [`shutdown`] broadcasts `Shutdown` to every
//! replica and sink, which drain their in-flight requests before exiting.
//!
//! [`ParamPublisher`] is the learner-side attachment point: it wraps a
//! [`ParamBroadcaster`] addressing the fleet's parameter sinks, so a live
//! training loop (or a bench thread standing in for one) hot-swaps the
//! whole fleet with the same delta/quantized frames explorers receive — one
//! frame per version, which a rolling swap sends N times.
//!
//! [`poll`]: ServeFleet::poll
//! [`shutdown`]: ServeFleet::shutdown

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use xingtian::checkpoint::load_latest;
use xingtian::deployment::spawn_process;
use xingtian::messages::ControlCommand;
use xingtian::supervisor::{Reap, Slot};
use xingtian::ParamBroadcaster;
use xingtian_algos::ParamBlob;
use xingtian_comm::{Broker, Endpoint, ParamCompression, SnapshotCell};
use xingtian_message::codec::Encode;
use xingtian_message::{MessageKind, ProcessId};

use crate::policy::Policy;
use crate::replica::{run_param_sink, ReplicaOutcome, ServeReplica};
use crate::{ServeConfig, CLIENT_OFFSET, PARAM_SINK_OFFSET};

/// Controller index of the fleet's own control endpoint.
const FLEET_CONTROL: u32 = CLIENT_OFFSET - 1;
/// Controller index of the [`ParamPublisher`] endpoint (unbounded recv, so
/// a burst of acks from a large fleet can never back-pressure the sender).
const PUBLISHER: u32 = CLIENT_OFFSET - 2;

/// Stable 64-bit mix of a process id (splitmix64 finalizer over role+index).
/// The fleet's client-to-replica assignment uses it to spread
/// deterministically and independently of `HashMap` seeding.
pub fn pid_hash(pid: ProcessId) -> u64 {
    let mut x = ((pid.role as u64) << 32) ^ u64::from(pid.index) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Aggregate outcome of a fleet's lifetime.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetReport {
    /// Requests answered with actions, summed over replicas.
    pub served_requests: u64,
    /// Observation rows inferred, summed over replicas.
    pub served_rows: u64,
    /// Requests answered with explicit `Shed` replies.
    pub sheds: u64,
    /// Serve loops and parameter sinks respawned after dirty deaths.
    pub respawns: u64,
}

struct Replica {
    cell: Arc<SnapshotCell<Policy>>,
    serve: Slot<ReplicaOutcome>,
    sink: Slot<()>,
}

/// A running fleet of serving replicas. See the module docs.
pub struct ServeFleet {
    broker: Broker,
    config: ServeConfig,
    control: Endpoint,
    replicas: Vec<Replica>,
    respawns: u64,
}

impl ServeFleet {
    /// Boots `config.replicas` replicas, all serving `initial`.
    pub fn start(broker: &Broker, config: ServeConfig, initial: &ParamBlob) -> Self {
        config.validate();
        let sizes = config.sizes();
        let replicas = (0..config.replicas as u32)
            .map(|index| {
                let cell = Arc::new(SnapshotCell::new(Policy::from_blob(&sizes, initial)));
                let sink = spawn_sink(broker, &sizes, index, Arc::clone(&cell), initial.clone());
                Replica {
                    serve: Slot::new(spawn_serve(broker, &config, index, Arc::clone(&cell))),
                    sink: Slot::new(sink),
                    cell,
                }
            })
            .collect();
        ServeFleet {
            broker: broker.clone(),
            config,
            control: broker.endpoint(ProcessId::controller(FLEET_CONTROL)),
            replicas,
            respawns: 0,
        }
    }

    /// The replica `client` should address: consistent-hash assignment, so
    /// each client sticks to one replica and load spreads uniformly.
    pub fn replica_for(&self, client: ProcessId) -> ProcessId {
        ProcessId::server((pid_hash(client) % self.replicas.len() as u64) as u32)
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Parameter version each replica currently serves (test/ops probe).
    pub fn versions(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.cell.with(|p| p.version)).collect()
    }

    /// Supervision tick: respawns serve loops that died dirty — reloading
    /// the latest checkpoint when one is configured and readable, else the
    /// replica's in-memory policy — and sinks that died (a sink returns only
    /// on shutdown, which consumes the fleet, so one found finished here is
    /// dead), seeded with the policy being served. Returns respawns performed.
    pub fn poll(&mut self) -> u64 {
        let mut respawned = 0;
        for (index, r) in (0..).zip(&mut self.replicas) {
            if let Reap::Respawn { .. } = r.serve.reap(u32::MAX, |o| !o.clean, || true) {
                let checkpoint =
                    self.config.checkpoint_dir.as_ref().and_then(|dir| load_latest(dir).ok());
                if let Some(blob) = checkpoint.filter(|b| b.version != r.cell.with(|p| p.version)) {
                    r.cell.publish(Policy::from_blob(&self.config.sizes(), &blob));
                }
                let cell = Arc::clone(&r.cell);
                r.serve.restart(spawn_serve(&self.broker, &self.config, index, cell));
                respawned += 1;
            }
            if let Reap::Respawn { .. } = r.sink.reap(u32::MAX, |()| true, || true) {
                let (cell, seed) = (Arc::clone(&r.cell), r.cell.load().to_blob());
                let sizes = self.config.sizes();
                r.sink.restart(spawn_sink(&self.broker, &sizes, index, cell, seed));
                respawned += 1;
            }
        }
        self.respawns += respawned;
        respawned
    }

    /// Broadcasts `Shutdown`, waits for every replica to drain its in-flight
    /// requests, and reports the fleet's lifetime totals.
    pub fn shutdown(mut self) -> FleetReport {
        let body = Bytes::from(ControlCommand::Shutdown.to_bytes());
        let dst = (0..self.replicas.len() as u32)
            .flat_map(|i| [ProcessId::server(i), ProcessId::server(PARAM_SINK_OFFSET + i)])
            .collect();
        self.control.send_to(dst, MessageKind::Control, body);
        let mut report = FleetReport { respawns: self.respawns, ..FleetReport::default() };
        for r in &mut self.replicas {
            r.serve.join(true);
            r.sink.join(true);
            for outcome in &r.serve.outcomes {
                report.served_requests += outcome.served_requests;
                report.served_rows += outcome.served_rows;
                report.sheds += outcome.sheds;
            }
        }
        self.control.close();
        report
    }
}

fn spawn_serve(
    broker: &Broker,
    config: &ServeConfig,
    index: u32,
    cell: Arc<SnapshotCell<Policy>>,
) -> JoinHandle<ReplicaOutcome> {
    let endpoint = broker.endpoint(ProcessId::server(index));
    let replica = ServeReplica { endpoint, cell, config: config.clone() };
    spawn_process(format!("serve-{index}"), move || replica.run()).expect("spawn serve thread")
}

fn spawn_sink(
    broker: &Broker,
    sizes: &[usize],
    index: u32,
    cell: Arc<SnapshotCell<Policy>>,
    seed: ParamBlob,
) -> JoinHandle<()> {
    let sink_index = PARAM_SINK_OFFSET + index;
    let endpoint = broker.endpoint(ProcessId::server(sink_index));
    let sizes = sizes.to_vec();
    spawn_process(format!("serve-sink-{index}"), move || {
        run_param_sink(endpoint, cell, sizes, sink_index, seed)
    })
    .expect("spawn sink thread")
}

/// Learner-side attachment: broadcasts parameter versions to every replica's
/// sink with the same delta/quantized encoder the training plane uses.
pub struct ParamPublisher {
    endpoint: Endpoint,
    broadcaster: ParamBroadcaster,
    sinks: Vec<u32>,
    acked: u64,
    nacked: u64,
}

impl ParamPublisher {
    /// A publisher addressing a `replicas`-wide fleet on `broker`.
    pub fn new(broker: &Broker, replicas: usize, compression: ParamCompression) -> Self {
        let endpoint = broker.endpoint(ProcessId::controller(PUBLISHER));
        let broadcaster = ParamBroadcaster::new(compression, endpoint.telemetry());
        ParamPublisher {
            endpoint,
            broadcaster,
            sinks: (0..replicas as u32).map(|i| PARAM_SINK_OFFSET + i).collect(),
            acked: 0,
            nacked: 0,
        }
    }

    /// Broadcasts `blob` to every sink; returns the version sent.
    ///
    /// Folds in pending acks first so the encoder's delta-base bookkeeping
    /// is as fresh as possible when it picks a common base.
    pub fn publish(&mut self, blob: &ParamBlob) -> u64 {
        self.publish_staggered(blob, Duration::ZERO)
    }

    /// Like [`publish`], but pauses `gap` between per-sink sends.
    ///
    /// A zero gap is one fanned-out broadcast. A small positive gap turns
    /// the swap into a rolling update: each replica's sink wakes, rebuilds,
    /// and acks in its own scheduling quantum instead of all at once — on
    /// core-starved hosts a simultaneous fleet-wide swap is exactly the
    /// kind of thundering herd that blows the inference tail latency.
    ///
    /// Either way the version is encoded **once** and every sink is sent
    /// that frame, so every replica reconstructs the same weights and the
    /// encoder's model of what they hold stays exact.
    ///
    /// [`publish`]: ParamPublisher::publish
    pub fn publish_staggered(&mut self, blob: &ParamBlob, gap: Duration) -> u64 {
        self.pump_acks();
        let frame = self.broadcaster.encode(blob, &self.sinks);
        // One message to everyone, or one message per sink `gap` apart.
        let sinks = self.sinks.clone();
        let group = if gap.is_zero() { sinks.len().max(1) } else { 1 };
        for (i, dst) in sinks.chunks(group).enumerate() {
            if i > 0 {
                std::thread::sleep(gap);
                self.pump_acks();
            }
            frame.send(&self.endpoint, dst.iter().map(|&s| ProcessId::server(s)).collect());
        }
        blob.version
    }

    /// Drains ack/nack replies into the broadcaster. Returns acks folded.
    pub fn pump_acks(&mut self) -> usize {
        let mut n = 0;
        while let Some(msg) = self.endpoint.try_recv() {
            if msg.header.kind != MessageKind::ParamAck {
                continue;
            }
            if let Some(ack) = self.broadcaster.on_ack_message(&msg) {
                if ack.applied {
                    self.acked += 1;
                } else {
                    self.nacked += 1;
                }
                n += 1;
            }
        }
        n
    }

    /// Positive acks folded so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Nacks folded so far (each one forces a rebase toward a full send).
    pub fn nacked(&self) -> u64 {
        self.nacked
    }

    /// Closes the publisher's endpoint.
    pub fn close(self) {
        self.endpoint.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Cluster;
    use tinynn::{Activation, Mlp};
    use xingtian_comm::CommConfig;
    use xt_telemetry::Telemetry;

    const SIZES: [usize; 4] = [4, 32, 32, 2];
    const LAST: u64 = 7;

    /// Walks a 2-replica fleet v2..=LAST with `DeltaQuantizedI8` frames sent
    /// `gap` apart; returns each replica's parameter bits at every version.
    fn walk(gap: Duration) -> Vec<[Vec<u32>; 2]> {
        let telemetry = Telemetry::enabled();
        let broker =
            Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());
        let params = Mlp::new(&SIZES, Activation::Relu, 1).params().to_vec();
        let mut blob = ParamBlob { version: 1, params };
        let config = ServeConfig::new(2, SIZES[0], SIZES[3]).with_hidden(SIZES[1..3].to_vec());
        let fleet = ServeFleet::start(&broker, config, &blob);
        let mut publisher = ParamPublisher::new(&broker, 2, ParamCompression::DeltaQuantizedI8);
        let mut seen = Vec::new();
        for version in 2..=LAST {
            blob.version = version;
            for (i, p) in blob.params.iter_mut().enumerate() {
                *p += 1e-3 * (((i as u64 * 31 + version * 17) % 13) as f32 - 6.0);
            }
            publisher.publish_staggered(&blob, gap);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while fleet.versions() != vec![version; 2] {
                assert!(std::time::Instant::now() < deadline, "fleet never reached v{version}");
                publisher.pump_acks();
                std::thread::sleep(Duration::from_millis(1));
            }
            seen.push([0, 1].map(|r: usize| {
                let policy = fleet.replicas[r].cell.load();
                policy.mlp.params().iter().map(|p| p.to_bits()).collect()
            }));
        }
        assert!(
            telemetry.counter("param.delta_sends").get() >= LAST - 2,
            "the walk must ride quantized deltas, not full sends"
        );
        fleet.shutdown();
        publisher.close();
        broker.shutdown();
        seen
    }

    #[test]
    fn a_rolling_swap_gives_every_replica_the_same_weights() {
        let rolling = walk(Duration::from_millis(2));
        for (i, [a, b]) in rolling.iter().enumerate() {
            assert!(a == b, "replicas differ at v{}", i + 2);
        }
        assert!(rolling == walk(Duration::ZERO), "a rolling swap and a fanned-out one must agree");
    }
}
