//! Hot parameter swap under continuous inference traffic.
//!
//! The core serving-plane guarantee: a live learner (here a publisher
//! thread standing in for one) can walk the fleet through a chain of
//! parameter versions while clients keep hammering it, and (a) every
//! request is answered — served or explicitly shed, never silently
//! dropped — and (b) every replica lands on the final version.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::Cluster;
use tinynn::{Activation, Mlp};
use xingtian_algos::ParamBlob;
use xingtian_comm::{Broker, CommConfig, ParamCompression};
use xingtian_message::ProcessId;
use xt_serve::{ParamPublisher, ServeClient, ServeConfig, ServeFleet};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 4;
const ACTIONS: usize = 2;

fn blob(version: u64, seed: u64) -> ParamBlob {
    let mlp = Mlp::new(&[OBS_DIM, 32, 32, ACTIONS], Activation::Relu, seed);
    ParamBlob { version, params: mlp.params().to_vec() }
}

#[test]
fn fleet_swaps_under_load_without_dropping_requests() {
    let telemetry = Telemetry::enabled();
    let broker =
        Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());
    let config = ServeConfig::new(2, OBS_DIM, ACTIONS)
        .with_hidden(vec![32, 32])
        .with_batching(64, 100);
    let fleet = ServeFleet::start(&broker, config, &blob(1, 1));

    // Two load threads, one pinned to each replica, open-loop with a
    // bounded outstanding window.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..2u32)
        .map(|i| {
            let broker = broker.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = ServeClient::new(&broker, i, 2);
                client.set_target(ProcessId::server(i));
                let obs = vec![0.25f32; OBS_DIM * 4];
                let mut replies = Vec::new();
                let mut versions_seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    if client.outstanding() < 32 {
                        client.send(&obs, 4);
                    } else {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    replies.clear();
                    client.poll(&mut replies);
                    for r in &replies {
                        if !r.shed {
                            versions_seen.insert(r.param_version);
                        }
                    }
                }
                for r in client.drain(Duration::from_secs(10)) {
                    if !r.shed {
                        versions_seen.insert(r.param_version);
                    }
                }
                (client.sent, client.answered, client.shed, versions_seen)
            })
        })
        .collect();

    // Walk the fleet v2..=v6 while traffic flows.
    let mut publisher = ParamPublisher::new(&broker, 2, ParamCompression::DeltaQuantizedI8);
    for v in 2..=6 {
        publisher.publish(&blob(v, 100 + v));
        let deadline = Instant::now() + Duration::from_secs(5);
        while fleet.versions().iter().any(|&got| got < v) {
            assert!(Instant::now() < deadline, "fleet never reached version {v}");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);

    let mut sent = 0;
    let mut answered = 0;
    let mut shed = 0;
    for loader in loaders {
        let (s, a, d, versions) = loader.join().unwrap();
        assert_eq!(s, a + d, "every request answered: served or an explicit shed");
        assert!(versions.len() >= 2, "traffic should observe multiple versions, got {versions:?}");
        sent += s;
        answered += a;
        shed += d;
    }
    assert!(answered > 0, "load actually served");
    assert_eq!(fleet.versions(), vec![6, 6]);
    assert!(
        telemetry.counter("serve.swaps").get() >= 10,
        "5 versions x 2 replicas should all swap"
    );

    let report = fleet.shutdown();
    assert_eq!(report.served_requests, answered);
    assert_eq!(report.sheds, shed);
    assert_eq!(report.respawns, 0);
    assert!(sent > 0);
    publisher.close();
    broker.shutdown();
}
