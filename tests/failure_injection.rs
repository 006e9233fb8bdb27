//! Failure injection at the channel level: slow and dying explorers must not
//! stall the decentralized pipeline (the paper's §3.2.1 argument that
//! independent communication and computation never block each other).

use bytes::Bytes;
use netsim::Cluster;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::{MessageKind, ProcessId};

#[test]
fn dead_explorer_does_not_stall_the_learner() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let healthy = broker.endpoint(ProcessId::explorer(0));
    let dying = broker.endpoint(ProcessId::explorer(1));

    dying.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"last words"));
    drop(dying); // explorer 1 "crashes" — endpoint closed, threads joined

    for i in 0..50u8 {
        healthy.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i]));
    }
    let mut received = 0;
    while learner.recv_timeout(Duration::from_secs(5)).is_some() {
        received += 1;
        if received == 51 {
            break;
        }
    }
    assert_eq!(received, 51, "all messages, including the dying explorer's last, arrive");
    broker.shutdown();
}

#[test]
fn broadcast_to_a_dead_explorer_does_not_leak_the_store() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let alive = broker.endpoint(ProcessId::explorer(0));
    let dead = broker.endpoint(ProcessId::explorer(1));
    drop(dead);

    learner.send_to(
        vec![ProcessId::explorer(0), ProcessId::explorer(1)],
        MessageKind::Parameters,
        Bytes::from(vec![1u8; 1024]),
    );
    let got = alive.recv_timeout(Duration::from_secs(5)).expect("live explorer gets the broadcast");
    assert_eq!(got.body.len(), 1024);
    // The dead destination's credit must be reclaimed so the store drains.
    for _ in 0..100 {
        if broker.store().is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(broker.store().is_empty(), "store leaked a credit for the dead explorer");
    // A destination that deregistered on death is *departed*, not a routing
    // failure: the discard is tallied separately and never counts as a drop.
    assert!(broker.departed_discards() >= 1, "the discard is accounted");
    assert_eq!(broker.dropped(), 0, "a departed destination is not a routing failure");
    broker.shutdown();
}

#[test]
fn slow_consumer_backpressures_instead_of_oom() {
    // A learner that never drains: the producer must block in `send` on the
    // store capacity rather than queueing unbounded bytes anywhere.
    let config = CommConfig::uncompressed();
    let broker = Broker::new(0, Cluster::single(), config);
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = Arc::new(broker.endpoint(ProcessId::explorer(0)));
    let payload = Bytes::from(vec![0u8; 8 * 1024 * 1024]);
    // Offer far more than the 128 MiB segment without consuming.
    let returned = Arc::new(AtomicU64::new(0));
    let producer = {
        let (explorer, returned, payload) = (Arc::clone(&explorer), Arc::clone(&returned), payload.clone());
        std::thread::spawn(move || {
            for _ in 0..64 {
                explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload.clone());
                returned.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    let resident = broker.store().live_bytes();
    assert!(
        resident <= broker.store().capacity() + payload.len(),
        "store stayed within its segment: {resident} bytes resident"
    );
    assert!(!producer.is_finished(), "the producer is held in send while the store is full");
    assert_eq!(
        returned.load(Ordering::SeqCst),
        broker.store().inserted(),
        "every send that returned put its body in the store: nothing staged outside it"
    );
    // Draining the learner releases the backlog.
    let mut got = 0;
    while learner.recv_timeout(Duration::from_secs(10)).is_some() {
        got += 1;
        if got == 64 {
            break;
        }
    }
    assert_eq!(got, 64, "backpressure released once the consumer drained");
    producer.join().expect("producer");
    drop(explorer);
    drop(learner);
    broker.shutdown();
}

#[test]
fn slow_explorer_does_not_hold_back_fast_ones() {
    // Off-policy pattern: the learner consumes whatever arrives; a slow
    // explorer's silence must not delay fast explorers' messages.
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let fast = broker.endpoint(ProcessId::explorer(0));
    let _slow = broker.endpoint(ProcessId::explorer(1)); // never sends

    let t0 = std::time::Instant::now();
    for i in 0..10u8 {
        fast.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i]));
    }
    for _ in 0..10 {
        assert!(learner.recv_timeout(Duration::from_secs(5)).is_some());
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "no waiting on the silent explorer");
    broker.shutdown();
}
