//! Channel integration tests: compression over the simulated NIC, fabric
//! reconfiguration, memory accounting under broadcast fan-out, and liveness
//! beacons that no producer parked in `send` can hold up.

use bytes::Bytes;
use netsim::{Cluster, ClusterSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian_comm::{connect_brokers, Broker, CommConfig, Compression, Endpoint};
use xingtian_message::codec::Decode;
use xingtian_message::{CompressionKind, Header, Message, MessageKind, ProcessId};
use xt_telemetry::Telemetry;

fn compressible_payload(len: usize) -> Bytes {
    // Small dynamic range of f32-like words: LZ4 compresses this heavily.
    let mut v = Vec::with_capacity(len);
    for i in 0..len / 4 {
        v.extend_from_slice(&((i % 7) as f32).to_le_bytes());
    }
    v.resize(len, 0);
    Bytes::from(v)
}

fn incompressible_payload(len: usize) -> Bytes {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        v.extend_from_slice(&state.to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

/// Polls `cond` until it holds or `secs` pass; returns whether it held.
fn eventually(secs: u64, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn compression_reduces_nic_traffic() {
    let spec = ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0);
    let payload = compressible_payload(4 * 1024 * 1024);

    let mut wire_bytes = Vec::new();
    for compression in [Compression::Off, Compression::Threshold(1 << 20)] {
        let cluster = Cluster::new(spec.clone());
        let b0 = Broker::new(0, cluster.clone(), CommConfig { compression, ..CommConfig::default() });
        let b1 = Broker::new(1, cluster, CommConfig { compression, ..CommConfig::default() });
        let learner = b0.endpoint(ProcessId::learner(0));
        let explorer = b1.endpoint(ProcessId::explorer(0));
        connect_brokers(&[b0.clone(), b1.clone()]);

        explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload.clone());
        let got = learner.recv_timeout(Duration::from_secs(10)).expect("delivered");
        assert_eq!(got.body, payload, "payload survives compression round trip");
        wire_bytes.push(b1.cluster().machine(1).tx().stats().bytes());
        drop(explorer);
        drop(learner);
        b0.shutdown();
        b1.shutdown();
    }
    assert_eq!(wire_bytes[0], payload.len() as u64, "uncompressed sends raw bytes");
    assert!(
        wire_bytes[1] < wire_bytes[0] / 4,
        "LZ4 should shrink the wire traffic 4x+: {} vs {}",
        wire_bytes[1],
        wire_bytes[0]
    );
}

#[test]
fn endpoints_added_after_connection_become_routable() {
    let cluster = Cluster::new(ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0));
    let b0 = Broker::new(0, cluster.clone(), CommConfig::default());
    let b1 = Broker::new(1, cluster, CommConfig::default());
    connect_brokers(&[b0.clone(), b1.clone()]);

    // New processes join after the fabric exists; re-running connect_brokers
    // merges the fresh routes without starting a second uplink per pair.
    let learner = b0.endpoint(ProcessId::learner(0));
    let explorer = b1.endpoint(ProcessId::explorer(0));
    connect_brokers(&[b0.clone(), b1.clone()]);

    explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"late"));
    let got = learner.recv_timeout(Duration::from_secs(10)).expect("late route works");
    assert_eq!(&got.body[..], b"late");
    drop(explorer);
    drop(learner);
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn broadcast_keeps_one_resident_copy() {
    // Fan-out to many explorers must not multiply resident memory: one body
    // in the store regardless of destination count, freed after the last
    // fetch (the paper's "no significant extra memory overheads").
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorers: Vec<_> = (0..8).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
    let body = Bytes::from(vec![1u8; 1024 * 1024]);
    learner.send_to((0..8).map(ProcessId::explorer).collect(), MessageKind::Parameters, body.clone());

    // While in flight, the store never holds more than one copy.
    let mut peak = 0;
    for e in &explorers {
        let m = e.recv_timeout(Duration::from_secs(10)).expect("broadcast arrives");
        assert_eq!(m.body.len(), body.len());
        peak = peak.max(broker.store().peak_bytes());
    }
    assert!(
        peak <= 2 * body.len(),
        "store held {} bytes for an 8-way broadcast of {}",
        peak,
        body.len()
    );
    drop(explorers);
    drop(learner);
    broker.shutdown();
}

/// One explorer sends `body` as a `Rollout`, then 100 one-byte rollouts, to a
/// learner on the last of `machines` machines; returns the 101 messages in
/// arrival order and the deployment's telemetry. Zero drops and empty stores
/// are asserted once every broker is shut down.
fn body_then_smalls(machines: usize, body: &Bytes) -> (Vec<Message>, Telemetry) {
    let cluster = Cluster::new(
        ClusterSpec::default().machines(machines).nic_bandwidth(1e9).latency_secs(0.0),
    );
    let telemetry = Telemetry::with_time_source(1 << 12, cluster.time_source());
    let brokers: Vec<_> = (0..machines)
        .map(|m| Broker::with_telemetry(m, cluster.clone(), CommConfig::default(), telemetry.clone()))
        .collect();
    let explorer = brokers[0].endpoint(ProcessId::explorer(0));
    let learner = brokers[machines - 1].endpoint(ProcessId::learner(0));
    connect_brokers(&brokers);
    explorer.send_to(vec![learner.pid()], MessageKind::Rollout, body.clone());
    for i in 0..100u8 {
        explorer.send_to(vec![learner.pid()], MessageKind::Rollout, Bytes::from(vec![i]));
    }
    let got = (0..101)
        .map(|_| learner.recv_timeout(Duration::from_secs(30)).expect("all messages delivered"))
        .collect();
    drop((explorer, learner));
    for b in &brokers {
        b.shutdown();
        assert_eq!(b.dropped(), 0, "machine {}", b.machine());
        assert!(b.store().is_empty(), "machine {}", b.machine());
    }
    (got, telemetry)
}

#[test]
fn a_large_body_keeps_its_place_ahead_of_later_smalls() {
    // Per-(src,dst) FIFO for every size: an over-threshold body is compressed
    // (or, failing the probe, left raw) on the producer's thread inside `send`,
    // so the 100 smalls sent after it arrive after it, on one machine or
    // across the wire, and the counters book exactly one of the two forms.
    for compresses in [false, true] {
        let body = if compresses { compressible_payload(2 << 20) } else { incompressible_payload(2 << 20) };
        let container_len = xingtian_message::chunk::compress_chunked(&body).len() as u64;
        assert_eq!(container_len < body.len() as u64 / 4, compresses);
        // (comm.bytes_on_wire.none, comm.bytes_on_wire.lz4_chunked)
        let on_wire = if compresses { (100, container_len) } else { (body.len() as u64 + 100, 0) };
        for machines in [1, 2] {
            let (got, telemetry) = body_then_smalls(machines, &body);
            let case = format!("compressible: {compresses}, {machines} machines");
            let rank = got.iter().position(|m| m.body.len() > 1);
            assert_eq!(rank, Some(0), "the body arrives first ({case})");
            assert!(got[0].body == body, "the body arrives intact ({case})");
            assert_eq!(got[0].header.compression, CompressionKind::None, "{case}");
            for (i, m) in got[1..].iter().enumerate() {
                assert_eq!(&m.body[..], &[i as u8], "smalls in order ({case})");
            }
            let bytes = |kind: &str| telemetry.counter(&format!("comm.bytes_on_wire.{kind}")).get();
            assert_eq!((bytes("none"), bytes("lz4_chunked")), on_wire, "{case}");
            assert_eq!(telemetry.counter("comm.compress_skipped").get(), u64::from(!compresses), "{case}");
        }
    }
}

#[test]
fn a_broadcast_stays_ahead_of_later_unicasts() {
    // Per-(src,dst) FIFO whatever the destination list: a learner's broadcast
    // to eight explorers, then one answer to each. On 2 machines the
    // explorers sit across the wire, behind one uplink.
    const ROUNDS: u8 = 50;
    for machines in [1, 2] {
        let cluster = Cluster::new(
            ClusterSpec::default().machines(machines).nic_bandwidth(1e9).latency_secs(0.0),
        );
        let brokers: Vec<_> = (0..machines).map(|m| Broker::new(m, cluster.clone(), CommConfig::default())).collect();
        let learner = brokers[0].endpoint(ProcessId::learner(0));
        let explorers: Vec<_> = (0..8).map(|i| brokers[machines - 1].endpoint(ProcessId::explorer(i))).collect();
        connect_brokers(&brokers);
        let all: Vec<ProcessId> = explorers.iter().map(Endpoint::pid).collect();
        for round in 0..ROUNDS {
            learner.send_to(all.clone(), MessageKind::Parameters, Bytes::from(vec![round, 0]));
            for &e in &all {
                learner.send_to(vec![e], MessageKind::RolloutAnswer, Bytes::from(vec![round, 1]));
            }
        }
        for (i, e) in explorers.iter().enumerate() {
            for round in 0..ROUNDS {
                for (kind, tag) in [(MessageKind::Parameters, 0), (MessageKind::RolloutAnswer, 1)] {
                    let got = e.recv_timeout(Duration::from_secs(10)).expect("delivered");
                    let case = format!("explorer {i}, round {round}, {machines} machines");
                    assert_eq!((got.header.kind, &got.body[..]), (kind, &[round, tag][..]), "{case}");
                }
            }
        }
        drop((learner, explorers));
        for b in &brokers {
            b.shutdown();
            assert_eq!(b.dropped(), 0, "machine {}", b.machine());
            assert!(b.store().is_empty(), "machine {}", b.machine());
        }
    }
}

#[test]
fn four_producers_fan_out_to_1024_destinations_in_order() {
    // Point-to-point fan-out on one broker: 4 producers, each routing on its
    // own thread, send round-robin over 1 024 destinations. Every destination
    // gets each producer's messages exactly once and in the order sent.
    const DESTINATIONS: u32 = 1024;
    const PRODUCERS: u32 = 4;
    const ROUNDS: u32 = 8;
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let dsts: Vec<_> = (0..DESTINATIONS).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let endpoint = broker.endpoint(ProcessId::learner(p));
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    for d in 0..DESTINATIONS {
                        let mut body = vec![0u8; 64];
                        body[..4].copy_from_slice(&round.to_le_bytes());
                        endpoint.send_to(vec![ProcessId::explorer(d)], MessageKind::Rollout, Bytes::from(body));
                    }
                }
            })
        })
        .collect();
    for e in &dsts {
        let mut next = [0u32; PRODUCERS as usize];
        for _ in 0..PRODUCERS * ROUNDS {
            let m = e.recv_timeout(Duration::from_secs(30)).unwrap_or_else(|| panic!("{} starved", e.pid()));
            let round = u32::from_le_bytes(m.body[..4].try_into().unwrap());
            let from = m.header.src.index as usize;
            assert_eq!(round, next[from], "{} out of order from {}", e.pid(), m.header.src);
            next[from] += 1;
        }
        assert!(e.try_recv().is_none(), "exactly its count at {}", e.pid());
    }
    for p in producers {
        p.join().unwrap();
    }
    drop(dsts);
    broker.shutdown();
    assert_eq!(broker.dropped(), 0);
    assert!(broker.store().is_empty());
}

#[test]
fn an_uplink_coalesces_back_to_back_sends() {
    // The uplink thread is the only batching of remote traffic: while one
    // 5 ms transfer is on the wire, the sends queued behind it leave together
    // in the next one.
    const SENDS: u32 = 200;
    let cluster =
        Cluster::new(ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.005));
    let brokers: Vec<_> = (0..2).map(|m| Broker::new(m, cluster.clone(), CommConfig::default())).collect();
    let explorer = brokers[0].endpoint(ProcessId::explorer(0));
    let learner = brokers[1].endpoint(ProcessId::learner(0));
    connect_brokers(&brokers);
    for i in 0..SENDS {
        let mut body = vec![0u8; 64];
        body[..4].copy_from_slice(&i.to_le_bytes());
        explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(body));
    }
    for i in 0..SENDS {
        let m = learner.recv_timeout(Duration::from_secs(10)).expect("delivered");
        assert_eq!(u32::from_le_bytes(m.body[..4].try_into().unwrap()), i, "in order");
    }
    let transfers = cluster.machine(0).tx().stats().transfers();
    assert!(transfers < 50, "{SENDS} sends took {transfers} transfers");
    drop((explorer, learner));
    for b in &brokers {
        b.shutdown();
        assert_eq!(b.dropped(), 0, "machine {}", b.machine());
        assert!(b.store().is_empty(), "machine {}", b.machine());
    }
}

#[test]
fn chunk_parallel_channel_matches_serial_decode() {
    // Differential check at the channel level: a body large enough for many
    // chunks arrives byte-identical whether decompressed by the receiver's
    // pool-parallel path (in the channel) or decoded serially here from the
    // same container.
    let payload = compressible_payload(8 * 1024 * 1024);
    let container = xingtian_comm::pool::compress_chunked_parallel(
        xingtian_comm::pool::shared_pool(),
        &payload,
    );
    let serial = xingtian_message::chunk::decompress_chunked(&container).expect("serial decode");
    assert_eq!(Bytes::from(serial), payload);

    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let explorer = broker.endpoint(ProcessId::explorer(0));
    let learner = broker.endpoint(ProcessId::learner(0));
    explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload.clone());
    let got = learner.recv_timeout(Duration::from_secs(30)).expect("delivered");
    assert_eq!(got.body, payload, "channel (parallel) decode matches original");
    drop(explorer);
    drop(learner);
    broker.shutdown();
}

#[test]
fn bidirectional_traffic_flows_concurrently() {
    // Rollouts up, parameters down, both directions live at once.
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = broker.endpoint(ProcessId::explorer(0));
    for i in 0..20u8 {
        explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i]));
        learner.send_to(vec![ProcessId::explorer(0)], MessageKind::Parameters, Bytes::from(vec![100 + i]));
    }
    for i in 0..20u8 {
        assert_eq!(learner.recv_timeout(Duration::from_secs(5)).unwrap().body[0], i);
        assert_eq!(explorer.recv_timeout(Duration::from_secs(5)).unwrap().body[0], 100 + i);
    }
    drop(explorer);
    drop(learner);
    broker.shutdown();
}

#[test]
fn broadcast_to_256_explorers_across_two_machines_drops_nothing() {
    // The control-plane stress case the fast path is built for: a learner on
    // machine 0 broadcasts parameters to 256 explorers split across two
    // machines, several rounds. Every explorer sees every round exactly once
    // and in order, nothing is dropped, and both object stores are empty once
    // all credits are consumed (128 local fetches + one uplink fetch on the
    // source; 128 fetches per envelope on the peer).
    const EXPLORERS: u32 = 256;
    const ROUNDS: u8 = 4;
    let cluster = Cluster::new(
        ClusterSpec::default().machines(2).nic_bandwidth(1e12).latency_secs(0.0),
    );
    let b0 = Broker::new(0, cluster.clone(), CommConfig::uncompressed());
    let b1 = Broker::new(1, cluster, CommConfig::uncompressed());
    let learner = b0.endpoint(ProcessId::learner(0));
    let explorers: Vec<_> = (0..EXPLORERS)
        .map(|i| {
            let broker = if i % 2 == 0 { &b0 } else { &b1 };
            broker.endpoint(ProcessId::explorer(i))
        })
        .collect();
    connect_brokers(&[b0.clone(), b1.clone()]);

    let dst: Vec<ProcessId> = (0..EXPLORERS).map(ProcessId::explorer).collect();
    for round in 0..ROUNDS {
        assert!(learner.send_to(
            dst.clone(),
            MessageKind::Parameters,
            Bytes::from(vec![round; 1024]),
        ));
    }
    for e in &explorers {
        for round in 0..ROUNDS {
            let m = e
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("{} missed round {round}", e.pid()));
            assert_eq!(m.body[0], round, "rounds arrive in order at {}", e.pid());
            assert_eq!(m.body.len(), 1024);
        }
        assert!(e.try_recv().is_none(), "exactly one copy per round at {}", e.pid());
    }
    assert_eq!(b0.dropped(), 0, "source broker dropped nothing");
    assert_eq!(b1.dropped(), 0, "peer broker dropped nothing");
    assert!(b0.store().is_empty(), "every source-store credit was consumed");
    assert!(b1.store().is_empty(), "every peer-store credit was consumed");

    drop(learner);
    drop(explorers);
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn control_passes_a_full_store_from_either_machine() {
    // The lane is a property of the message, not of the path it took: with
    // machine 1's store held full by a learner that never receives, a
    // `Control` for another machine-1 process is delivered at once whether it
    // was submitted on machine 1 or arrived over the uplink from machine 0
    // (where remote arrival used to wait at the capacity gate behind the
    // rollouts, parking the whole uplink).
    let cluster =
        Cluster::new(ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0));
    let config = CommConfig { endpoint_recv_bytes: Some(1), ..CommConfig::default() }
        .with_store_capacity(4096);
    let b0 = Broker::new(0, cluster.clone(), config.clone());
    let b1 = Broker::new(1, cluster, config);
    let learner = b1.endpoint(ProcessId::learner(0));
    let explorer = b1.endpoint(ProcessId::explorer(0));
    let watcher = b1.endpoint(ProcessId::controller(9));
    let near = b1.endpoint(ProcessId::controller(1));
    let far = b0.endpoint(ProcessId::controller(0));
    connect_brokers(&[b0.clone(), b1.clone()]);

    // One rollout lands in the learner's one-message receive buffer, one is held
    // by its receiver thread, one fills the store, and the fourth parks the
    // explorer's producer in `send` at the gate, two more behind it on that
    // thread: three inserted.
    let producer = std::thread::spawn(move || {
        for i in 0..6u8 {
            explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i; 4000]));
        }
        explorer
    });
    let full = eventually(10, || b1.store().live_bytes() == 4000 && b1.store().inserted() == 3);
    let held = !producer.is_finished();

    near.send_to(vec![watcher.pid()], MessageKind::Control, Bytes::from(vec![1u8; 200]));
    let from_near = watcher.recv_timeout(Duration::from_secs(2));
    far.send_to(vec![watcher.pid()], MessageKind::Control, Bytes::from(vec![2u8; 200]));
    let from_far = watcher.recv_timeout(Duration::from_secs(2));
    let data_share = b1.store().data_occupancy();

    // Unwedge before asserting: the producer is parked on the full store
    // until the learner drains it.
    for i in 0..6u8 {
        let m = learner.recv_timeout(Duration::from_secs(10)).expect("rollout drains");
        assert_eq!(m.body[0], i, "rollouts stay FIFO through the back-pressure");
    }
    let explorer = producer.join().expect("producer");
    assert!(held, "the producer was held in send while the store was full");
    assert!(full, "the rollouts filled machine 1's store");
    assert_eq!(from_near.expect("local control passes the full store").body[0], 1);
    assert_eq!(from_far.expect("remote control passes the full store").body[0], 2);
    assert!(data_share <= 4000.0 / 4096.0, "control bytes are not data occupancy: {data_share}");
    drop((learner, explorer, watcher, near, far));
    b0.shutdown();
    b1.shutdown();
    assert_eq!(b0.dropped() + b1.dropped(), 0);
    assert!(b0.store().is_empty() && b1.store().is_empty());
}

#[test]
fn parameters_parked_for_a_busy_explorer_do_not_hold_the_data_lane() {
    // An explorer parked in `send` cannot drain its own inbox, so parameters
    // addressed to it stay resident. The gate counts data-lane bytes only:
    // those parameters must not keep another explorer's rollout from the
    // learner, or the learner starves and nobody frees space.
    let config = CommConfig { endpoint_recv_bytes: Some(1), ..CommConfig::default() }
        .with_store_capacity(4096);
    let broker = Broker::new(0, Cluster::single(), config);
    let learner = broker.endpoint(ProcessId::learner(0));
    // Declared before `busy`, so a failed assertion closes `busy` first,
    // which frees the store for a producer still parked at the gate.
    let other = Arc::new(broker.endpoint(ProcessId::explorer(1)));
    let busy = broker.endpoint(ProcessId::explorer(0));
    // One in the busy explorer's receive buffer, one with its receiver
    // thread, one resident: 3 000 B of a 4 096 B store.
    for round in 0..3u8 {
        assert!(learner.send_to(vec![busy.pid()], MessageKind::Parameters, Bytes::from(vec![round; 3000])));
    }
    assert!(eventually(10, || broker.store().inserted() == 3 && broker.store().live_bytes() == 3000));
    let (producer, to) = (Arc::clone(&other), learner.pid());
    let sent =
        std::thread::spawn(move || producer.send_to(vec![to], MessageKind::Rollout, Bytes::from(vec![7u8; 2000])));
    let rollout = learner.recv_timeout(Duration::from_secs(2));
    assert_eq!(rollout.expect("the rollout passes parked parameters").body, Bytes::from(vec![7u8; 2000]));
    assert!(sent.join().expect("producer"));
    for round in 0..3u8 {
        assert_eq!(busy.recv_timeout(Duration::from_secs(10)).expect("parameters kept").body[0], round);
    }
    drop((other, busy, learner));
    broker.shutdown();
    assert_eq!(broker.dropped(), 0);
    assert!(broker.store().is_empty());
}

#[test]
fn parameters_of_any_size_stay_out_of_data_occupancy() {
    // A compressible broadcast body above the compression threshold is
    // stored as a container, an incompressible one raw; both must come out on
    // the same priority lane a small one takes, or paper-scale parameter
    // traffic pins the elastic supervisor's congestion signal and queues
    // behind data-plane capacity.
    for (body, compressed) in [
        (compressible_payload(2 << 20), true),
        (incompressible_payload(2 << 20), false),
        (incompressible_payload(64 << 10), false),
    ] {
        let len = body.len();
        let stored = xingtian_comm::pool::compress_for_transport(
            body.clone(),
            xingtian_message::COMPRESSION_THRESHOLD,
        )
        .0
        .len();
        assert_eq!(stored < len, compressed, "{len} B stored as {stored} B");
        let config = CommConfig { endpoint_recv_bytes: Some(1), ..CommConfig::default() };
        let broker = Broker::new(0, Cluster::single(), config);
        let learner = broker.endpoint(ProcessId::learner(0));
        let explorer = broker.endpoint(ProcessId::explorer(0));
        for _ in 0..4 {
            learner.send_to(vec![ProcessId::explorer(0)], MessageKind::Parameters, body.clone());
        }
        // The explorer is not receiving: one body sits in its receive buffer,
        // one with its receiver thread, two stay resident in the store. Two
        // can also be resident for a moment before the fourth is inserted.
        let settled = || broker.store().inserted() == 4 && broker.store().len() == 2;
        assert!(eventually(20, settled), "two bodies resident ({len} B)");
        assert_eq!(broker.store().live_bytes(), 2 * stored);
        assert_eq!(broker.store().data_occupancy(), 0.0, "{len}-byte parameters on the data lane");
        for _ in 0..4 {
            assert_eq!(explorer.recv_timeout(Duration::from_secs(10)).expect("delivered").body, body);
        }
        drop((learner, explorer));
        broker.shutdown();
        assert!(broker.store().is_empty());
    }
}

#[test]
fn an_undecodable_body_is_a_counted_drop() {
    // The receiver thread is the last hop: a body it cannot decompress never
    // reaches the workhorse, so it must show up in `dropped()` like a message
    // lost anywhere else, with its store credit spent.
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let mut header =
        Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
    header.compression = CompressionKind::Lz4Chunked;
    assert!(broker.submit(Message::new(header, Bytes::from_static(b"not a chunk container"))));
    assert!(eventually(10, || broker.dropped() == 1), "dropped = {}", broker.dropped());
    assert!(learner.recv_timeout(Duration::from_millis(50)).is_none(), "nothing to deliver");
    assert!(broker.store().is_empty(), "the fetch spent the credit");
    drop(learner);
    broker.shutdown();
    assert_eq!(broker.dropped(), 1);
}

/// Beacon period of the liveness tests; a detector gives a process about six
/// of these before it declares it down.
const BEAT: Duration = Duration::from_millis(15);

/// Over at least 600 ms and until `done()` holds, the longest `monitor` went
/// without a heartbeat listing `pid` — window start to first beat, beat to
/// beat, last beat to window end — and the number of such beats.
fn largest_beat_gap(monitor: &Endpoint, pid: ProcessId, done: impl Fn() -> bool) -> (Duration, usize) {
    while monitor.try_recv().is_some() {}
    let start = Instant::now();
    let (mut last, mut gap, mut beats) = (start, Duration::ZERO, 0);
    while start.elapsed() < Duration::from_millis(600) || !done() {
        let Some(m) = monitor.recv_timeout(Duration::from_millis(1)) else { continue };
        let listed = || Vec::<ProcessId>::from_bytes(&m.body).expect("a beat lists pids");
        if m.header.kind == MessageKind::Heartbeat && listed().contains(&pid) {
            gap = gap.max(last.elapsed());
            last = Instant::now();
            beats += 1;
        }
    }
    (gap.max(last.elapsed()), beats)
}

#[test]
fn a_sender_parked_at_a_full_store_keeps_beating() {
    // The explorer's producer is parked in `send` at the store's capacity
    // gate behind a learner that is not receiving: it is live and
    // back-pressured, and its beats must keep coming, or the detector
    // declares it down.
    let monitor = ProcessId::broker(u32::MAX);
    let config = CommConfig { endpoint_recv_bytes: Some(1), ..CommConfig::default() }
        .with_store_capacity(4096)
        .with_heartbeat(BEAT.as_millis() as u64, monitor);
    let broker = Broker::new(0, Cluster::single(), config);
    let mon = broker.endpoint(monitor);
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = broker.endpoint(ProcessId::explorer(0));
    let (pid, to) = (explorer.pid(), learner.pid());
    // As in `control_passes_a_full_store_from_either_machine`: the fourth
    // rollout parks the producer at the gate, two wait behind it. Beats
    // are inserted too, on the priority lane, so only the data lane tells.
    let producer = std::thread::spawn(move || {
        for i in 0..6u8 {
            explorer.send_to(vec![to], MessageKind::Rollout, Bytes::from(vec![i; 4000]));
        }
        explorer
    });
    let store = broker.store();
    let data_full = || store.data_occupancy() * store.capacity() as f64 == 4000.0;
    let parked = eventually(10, data_full);
    let (gap, beats) = largest_beat_gap(&mon, pid, || true);
    let still_parked = data_full() && !producer.is_finished();
    for i in 0..6u8 {
        let m = learner.recv_timeout(Duration::from_secs(10)).expect("rollout drains");
        assert_eq!(m.body[0], i);
    }
    let explorer = producer.join().expect("producer");
    assert!(parked && still_parked, "the producer sat at the gate for the whole window");
    assert!(gap < 4 * BEAT, "{beats} beats in 600 ms, largest gap {gap:?}");
    drop((explorer, learner, mon));
    broker.shutdown();
    assert_eq!(broker.dropped(), 0);
}

/// Passes the compressibility probe, but LZ4 takes long over it and saves
/// under a third: a slow full pass on the producer's thread.
fn slow_to_compress(len: usize) -> Bytes {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let v = (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((i % 84) / 8) as u8 + (state & 3) as u8
        })
        .collect::<Vec<u8>>();
    Bytes::from(v)
}

#[test]
fn a_sender_inside_a_compression_pass_keeps_beating() {
    const PASSES: usize = 3;
    let body = slow_to_compress(32 << 20);
    assert!(xingtian_message::should_compress(&body, xingtian_message::COMPRESSION_THRESHOLD));
    let monitor = ProcessId::broker(u32::MAX);
    let telemetry = Telemetry::with_capacity(1 << 8);
    let config = CommConfig::default().with_heartbeat(BEAT.as_millis() as u64, monitor);
    let broker = Broker::with_telemetry(0, Cluster::single(), config, telemetry.clone());
    let mon = broker.endpoint(monitor);
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = broker.endpoint(ProcessId::explorer(0));
    let (gap, beats) = std::thread::scope(|s| {
        let intact = || learner.recv_timeout(Duration::from_secs(60)).is_some_and(|m| m.body == body);
        let received = s.spawn(move || (0..PASSES).all(|_| intact()));
        // The passes run inside `send`, on the producer's own thread.
        s.spawn(|| {
            for _ in 0..PASSES {
                explorer.send_to(vec![learner.pid()], MessageKind::Rollout, body.clone());
            }
        });
        let gap = largest_beat_gap(&mon, explorer.pid(), || received.is_finished());
        assert!(received.join().unwrap(), "every body arrives intact");
        gap
    });
    let passes = telemetry.histogram("comm.compress_ns");
    let pass_ms = passes.histogram().map_or(0, |h| h.sum()) / 1_000_000;
    assert_eq!(passes.histogram().map(|h| h.count()), Some(PASSES as u64), "full passes");
    assert!(gap < 4 * BEAT, "{beats} beats across {pass_ms} ms of passes, largest gap {gap:?}");
    drop((explorer, learner, mon));
    broker.shutdown();
    assert_eq!(broker.dropped(), 0);
}
