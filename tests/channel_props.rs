//! Property-based tests of the channel's delivery guarantees: every message
//! reaches each destination exactly once, in per-sender order, and the object
//! store never leaks, across randomized topologies and traffic patterns.

use bytes::Bytes;
use netsim::{Cluster, ClusterSpec};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xingtian_comm::pool::compress_for_transport;
use xingtian_comm::{connect_brokers, Broker, CommConfig, Compression};
use xingtian_message::{Header, Message, MessageKind, ProcessId, COMPRESSION_THRESHOLD};

#[derive(Debug, Clone)]
struct Traffic {
    machines: usize,
    explorers: usize,
    /// Messages per explorer; each message is (destination learner?, payload
    /// tag byte). Destinations cycle among learner + other explorers.
    messages_per_explorer: usize,
}

fn traffic_strategy() -> impl Strategy<Value = Traffic> {
    (1usize..=3, 1usize..=5, 1usize..=8).prop_map(|(machines, explorers, messages_per_explorer)| {
        Traffic { machines, explorers, messages_per_explorer }
    })
}

/// Every kind, data plane first; [`MessageKind::priority_lane`] says which is which.
const KINDS: [MessageKind; 11] = [
    MessageKind::Rollout,
    MessageKind::Dummy,
    MessageKind::Gradient,
    MessageKind::Control,
    MessageKind::Stats,
    MessageKind::Heartbeat,
    MessageKind::ParamAck,
    MessageKind::Parameters,
    MessageKind::RolloutAnswer,
    MessageKind::InferRequest,
    MessageKind::InferReply,
];

/// Incompressible, so a body is stored at its own length on either path.
fn noise(len: usize) -> Bytes {
    let mut state = 0x2545_f491_4f6c_dd1du64;
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

/// Compressible: 4 KiB of noise over and over, which LZ4's window shrinks,
/// so over the threshold it passes the probe and is stored as a container.
fn repeated_noise(len: usize) -> Bytes {
    Bytes::from(noise(4096).iter().copied().cycle().take(len).collect::<Vec<u8>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_message_is_delivered_exactly_once(t in traffic_strategy()) {
        let cluster = Cluster::new(
            ClusterSpec::default().machines(t.machines).nic_bandwidth(1e9).latency_secs(0.0),
        );
        let brokers: Vec<Broker> = (0..t.machines)
            .map(|m| Broker::new(m, cluster.clone(), CommConfig::default()))
            .collect();
        // Learner on machine 0; explorers round-robin across machines.
        let learner = brokers[0].endpoint(ProcessId::learner(0));
        let explorers: Vec<_> = (0..t.explorers)
            .map(|i| brokers[i % t.machines].endpoint(ProcessId::explorer(i as u32)))
            .collect();
        connect_brokers(&brokers);

        for (e, ep) in explorers.iter().enumerate() {
            for m in 0..t.messages_per_explorer {
                let payload = Bytes::from(vec![e as u8, m as u8]);
                prop_assert!(ep.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload));
            }
        }

        let expected = t.explorers * t.messages_per_explorer;
        let mut seen: HashMap<(u8, u8), usize> = HashMap::new();
        let mut last_seq: HashMap<u8, i32> = HashMap::new();
        for _ in 0..expected {
            let msg = learner.recv_timeout(Duration::from_secs(10));
            prop_assert!(msg.is_some(), "starved waiting for {expected} messages");
            let msg = msg.unwrap();
            let key = (msg.body[0], msg.body[1]);
            *seen.entry(key).or_default() += 1;
            // Per-sender FIFO: message index must be strictly increasing.
            let prev = last_seq.entry(msg.body[0]).or_insert(-1);
            prop_assert!((msg.body[1] as i32) > *prev, "per-sender order violated");
            *prev = msg.body[1] as i32;
        }
        prop_assert!(learner.try_recv().is_none(), "no duplicates");
        prop_assert_eq!(seen.len(), expected, "each message exactly once");
        prop_assert!(seen.values().all(|&c| c == 1));

        drop(explorers);
        drop(learner);
        for b in &brokers {
            // All credits consumed: nothing may remain resident.
            prop_assert!(b.store().is_empty(), "object store leaked");
            b.shutdown();
        }
    }

    #[test]
    fn broadcasts_fan_out_exactly_once_per_destination(
        explorers in 1usize..=6,
        broadcasts in 1usize..=5,
    ) {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let learner = broker.endpoint(ProcessId::learner(0));
        let eps: Vec<_> = (0..explorers)
            .map(|i| broker.endpoint(ProcessId::explorer(i as u32)))
            .collect();
        for b in 0..broadcasts {
            let dst: Vec<ProcessId> = (0..explorers).map(|i| ProcessId::explorer(i as u32)).collect();
            prop_assert!(learner.send_to(dst, MessageKind::Parameters, Bytes::from(vec![b as u8])));
        }
        for ep in &eps {
            for b in 0..broadcasts {
                let msg = ep.recv_timeout(Duration::from_secs(10));
                prop_assert!(msg.is_some());
                prop_assert_eq!(msg.unwrap().body[0], b as u8, "broadcast order preserved");
            }
            prop_assert!(ep.try_recv().is_none());
        }
        prop_assert!(broker.store().is_empty(), "fan-out credits all consumed");
        drop(eps);
        drop(learner);
        broker.shutdown();
    }

    #[test]
    fn a_message_keeps_its_lane_on_every_path(
        // (kind, body class, sent from machine 1, to the other machine)
        script in proptest::collection::vec(
            (0usize..11, 0usize..3, any::<bool>(), any::<bool>()),
            1usize..13,
        ),
    ) {
        // Lane x path x size: 64 B and incompressible 2 MiB bodies are
        // admitted raw, compressible 2 MiB ones as the container their sender
        // thread compressed them into, remote ones once more on arrival.
        // Receivers hold back, so what is resident — and on which lane the
        // store booked it — can be read off exactly.
        let cluster = Cluster::new(
            ClusterSpec::default().machines(2).nic_bandwidth(1e12).latency_secs(0.0),
        );
        let config = CommConfig { endpoint_recv_bytes: Some(1), ..CommConfig::default() };
        let brokers: Vec<Broker> =
            (0..2).map(|m| Broker::new(m, cluster.clone(), config.clone())).collect();
        let senders: Vec<_> =
            (0..2).map(|m| brokers[m].endpoint(ProcessId::controller(m as u32))).collect();
        let receivers: Vec<_> =
            (0..2).map(|m| brokers[m].endpoint(ProcessId::learner(m as u32))).collect();
        connect_brokers(&brokers);

        // Each class is stored in the form `compress_for_transport` gives it,
        // on either machine: only the compressible one as a smaller container.
        const COMPRESSED: usize = 2;
        let bodies = [noise(64), noise(2 << 20), repeated_noise(2 << 20)];
        let stored: Vec<usize> = bodies
            .iter()
            .map(|b| compress_for_transport(b.clone(), COMPRESSION_THRESHOLD).0.len())
            .collect();
        prop_assert_eq!(&stored[..COMPRESSED], &[64, 2 << 20]);
        prop_assert!(stored[COMPRESSED] < bodies[COMPRESSED].len() / 4);
        let mut inserts = [0u64; 2];
        let mut bound_for = [0usize; 2];
        for (seq, &(kind, class, from, remote)) in script.iter().enumerate() {
            let (from, to) = (from as usize, from as usize ^ remote as usize);
            let header = Header::new(senders[from].pid(), vec![receivers[to].pid()], KINDS[kind])
                .with_seq(seq as u64);
            prop_assert!(senders[from].send(Message::new(header, bodies[class].clone())));
            inserts[from] += 1;
            inserts[to] += remote as u64;
            bound_for[to] += 1;
        }
        // Quiescence: every body admitted wherever it has to be, and each
        // receiver holding its two (one in the one-message receive buffer, one in
        // its receiver thread's hand) with the rest resident behind them.
        let deadline = Instant::now() + Duration::from_secs(30);
        while (0..2).any(|m| {
            let store = brokers[m].store();
            store.inserted() != inserts[m] || store.len() != bound_for[m].saturating_sub(2)
        }) {
            prop_assert!(Instant::now() < deadline, "channel never went quiet");
            std::thread::sleep(Duration::from_millis(1));
        }
        let booked: Vec<(usize, f64)> = brokers
            .iter()
            .map(|b| (b.store().live_bytes(), b.store().data_occupancy() * b.store().capacity() as f64))
            .collect();

        let mut seen = vec![0usize; script.len()];
        for (m, receiver) in receivers.iter().enumerate() {
            let mut last: HashMap<ProcessId, u64> = HashMap::new();
            let (mut resident, mut resident_data) = (0usize, 0usize);
            for rank in 0..bound_for[m] {
                let msg = receiver.recv_timeout(Duration::from_secs(10));
                prop_assert!(msg.is_some(), "machine {m} starved at {rank}/{}", bound_for[m]);
                let msg = msg.unwrap();
                let seq = msg.header.seq as usize;
                let (kind, class, from, remote) = script[seq];
                prop_assert_eq!(msg.header.kind, KINDS[kind]);
                prop_assert_eq!(&msg.body, &bodies[class]);
                prop_assert_eq!(from as usize ^ remote as usize, m, "delivered to the wrong machine");
                seen[seq] += 1;
                // FIFO per (src, dst) across every size class.
                if let Some(prev) = last.insert(msg.header.src, msg.header.seq) {
                    prop_assert!(prev < msg.header.seq, "order violated: {prev} before {seq}");
                }
                // The first two had already left the store at quiescence.
                if rank >= 2 {
                    resident += stored[class];
                    if !KINDS[kind].priority_lane() {
                        resident_data += stored[class];
                    }
                }
            }
            prop_assert!(receiver.try_recv().is_none(), "no duplicates");
            prop_assert_eq!(booked[m].0, resident, "resident bytes on machine {}", m);
            prop_assert_eq!(booked[m].1, resident_data as f64, "data-lane bytes on machine {}", m);
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "each message exactly once: {seen:?}");

        drop(senders);
        drop(receivers);
        for b in &brokers {
            b.shutdown();
            prop_assert_eq!(b.dropped(), 0);
            prop_assert!(b.store().is_empty(), "object store leaked");
        }
    }
}

/// Back-pressure is measured in bytes: body size x receive budget, every cell.
/// With the consumer stalled the receive buffer holds `max(budget, one
/// message)` and no more, the store's data lane then fills, and the senders
/// stop in `insert`; once the consumer resumes, everything drains in
/// per-sender FIFO and nothing is dropped, discarded or left behind.
#[test]
fn a_stalled_consumer_backpressures_in_bytes_through_the_store() {
    let default_budget = CommConfig::default().endpoint_recv_bytes.expect("bounded by default");
    for len in [64usize, 64 << 10, 2 << 20] {
        for budget in [1usize, 256 << 10, default_budget] {
            let cell = format!("{len} B bodies, {budget} B budget");
            // What one staged message counts, and what then fits where.
            let unit = len + std::mem::size_of::<Message>();
            let buffered = (budget / unit).max(1);
            let resident = 3;
            let config = CommConfig {
                compression: Compression::Off,
                endpoint_recv_bytes: Some(budget),
                ..CommConfig::default()
            }
            .with_store_capacity(resident * len + len / 2);
            let broker = Broker::new(0, Cluster::single(), config);
            // The learner is declared last, so it is dropped first: a failed
            // assertion below then releases the stalled senders instead of
            // hanging the unwind on joining them.
            let explorers: Vec<_> = (0..2).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
            let learner = broker.endpoint(ProcessId::learner(0));

            // The receive buffer, the receiver thread's hand and the store
            // absorb this many; four more have nowhere to go.
            let absorbed = buffered + 1 + resident;
            let per_sender = (absorbed + 4).div_ceil(2);
            let total = 2 * per_sender;
            let pattern = noise(len);
            for seq in 0..per_sender {
                for (e, explorer) in explorers.iter().enumerate() {
                    let mut body = pattern.to_vec();
                    body[0] = e as u8;
                    body[1..9].copy_from_slice(&(seq as u64).to_le_bytes());
                    assert!(explorer.send_to(vec![learner.pid()], MessageKind::Rollout, body.into()));
                }
            }

            let store = broker.store();
            let deadline = Instant::now() + Duration::from_secs(60);
            while store.inserted() != absorbed as u64 || learner.pending() != buffered {
                assert!(learner.pending() * unit <= budget.max(unit), "{cell}: receive buffer over budget");
                assert!(Instant::now() < deadline, "{cell}: never filled ({} inserted)", store.inserted());
                std::thread::sleep(Duration::from_millis(1));
            }
            // Full and stuck: the data lane has no room for one more body,
            // and senders that still hold messages (each sender thread has at
            // most one in hand, the rest staged) insert nothing.
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(store.inserted(), absorbed as u64, "{cell}: a sender got past a full store");
            assert_eq!(learner.pending(), buffered, "{cell}: receive buffer over budget");
            assert_eq!(store.len(), resident, "{cell}");
            assert_eq!(store.data_occupancy() * store.capacity() as f64, (resident * len) as f64, "{cell}");
            assert!(store.live_bytes() + len > store.capacity(), "{cell}: data lane not full");

            let mut next = [0u64; 2];
            for got in 0..total {
                let msg = learner
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|| panic!("{cell}: starved at {got}/{total}"));
                let (e, seq) = (msg.body[0] as usize, u64::from_le_bytes(msg.body[1..9].try_into().unwrap()));
                assert_eq!(seq, next[e], "{cell}: explorer {e} out of order");
                next[e] += 1;
                assert_eq!(msg.body[9..], pattern[9..], "{cell}: body corrupted");
            }
            assert!(learner.try_recv().is_none(), "{cell}: duplicate");
            assert!(store.is_empty(), "{cell}: object store leaked");
            drop(explorers);
            drop(learner);
            broker.shutdown();
            assert_eq!((broker.dropped(), broker.departed_discards()), (0, 0), "{cell}");
        }
    }
}
