//! Fleet lifecycle: shed semantics, drain-on-shutdown, supervised respawn.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use netsim::Cluster;
use tinynn::{Activation, Mlp};
use xingtian::checkpoint::{CheckpointConfig, Checkpointer};
use xingtian_algos::{LearnerState, ParamBlob};
use xingtian_comm::{Broker, CommConfig, ParamCompression};
use xingtian_message::ProcessId;
use xt_serve::{ParamPublisher, ServeClient, ServeConfig, ServeFleet, PARAM_SINK_OFFSET};

const OBS_DIM: usize = 4;
const ACTIONS: usize = 2;

fn blob(version: u64, seed: u64) -> ParamBlob {
    let mlp = Mlp::new(&[OBS_DIM, 8, ACTIONS], Activation::Relu, seed);
    ParamBlob { version, params: mlp.params().to_vec() }
}

fn config() -> ServeConfig {
    ServeConfig::new(1, OBS_DIM, ACTIONS).with_hidden(vec![8])
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn overload_sheds_explicitly_and_never_drops() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let mut cfg = config().with_batching(4, 50).with_shed_watermark(4);
    // Make each batch artificially slow so a burst visibly outruns capacity.
    cfg.debug_infer_delay_us = 10_000;
    let fleet = ServeFleet::start(&broker, cfg, &blob(1, 1));

    let mut client = ServeClient::new(&broker, 0, 1);
    client.set_target(ProcessId::server(0));
    let obs = vec![0.5f32; OBS_DIM];
    for _ in 0..100 {
        client.send(&obs, 1);
    }
    let replies = client.drain(Duration::from_secs(30));
    assert_eq!(replies.len(), 100, "all 100 requests answered");
    assert_eq!(client.sent, client.answered + client.shed);
    assert!(client.shed > 0, "a 100-deep burst past a 4-deep watermark must shed");
    assert!(client.answered > 0, "the fleet still serves while shedding");
    for r in &replies {
        if r.shed {
            assert!(r.actions.is_empty(), "sheds carry no actions");
        } else {
            assert_eq!(r.actions.len(), 1);
        }
    }

    let report = fleet.shutdown();
    assert_eq!(report.served_requests + report.sheds, 100);
    broker.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let mut cfg = config().with_batching(4, 50).with_shed_watermark(1_000);
    cfg.debug_infer_delay_us = 5_000;
    let fleet = ServeFleet::start(&broker, cfg, &blob(1, 1));

    let mut client = ServeClient::new(&broker, 0, 1);
    client.set_target(ProcessId::server(0));
    let obs = vec![0.5f32; OBS_DIM];
    for _ in 0..40 {
        client.send(&obs, 1);
    }
    // Let the burst reach the replica's queue, then shut down mid-backlog:
    // the drain protocol must answer everything already accepted.
    std::thread::sleep(Duration::from_millis(30));
    let report = fleet.shutdown();
    let replies = client.drain(Duration::from_secs(10));
    assert_eq!(replies.len(), 40, "shutdown drained the whole backlog");
    assert_eq!(client.answered, 40, "high watermark: everything served, nothing shed");
    assert_eq!(report.served_requests, 40);
    broker.shutdown();
}

#[test]
fn dead_replica_respawns_from_latest_checkpoint() {
    let dir = tmpdir("respawn");
    // The checkpoint on disk is *newer* than the blob the fleet booted
    // with, so a respawn visibly reloads rather than recycling memory.
    let mut ckpt = Checkpointer::new(CheckpointConfig::new(&dir, 1)).unwrap();
    let state = LearnerState { blob: blob(3, 33), ..LearnerState::default() };
    ckpt.on_session(|| state).expect("checkpoint written");

    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let fleet_cfg = config().with_checkpoint_dir(&dir);
    let mut fleet = ServeFleet::start(&broker, fleet_cfg, &blob(1, 1));
    assert_eq!(fleet.versions(), vec![1]);

    // Kill the serving endpoint out from under the replica.
    broker.close_endpoint(ProcessId::server(0));
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut respawned = 0;
    while respawned == 0 {
        assert!(Instant::now() < deadline, "supervisor never respawned the replica");
        respawned = fleet.poll();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(fleet.versions(), vec![3], "respawn reloads the latest checkpoint");

    // The resurrected replica serves again.
    let mut client = ServeClient::new(&broker, 0, 1);
    client.set_target(ProcessId::server(0));
    let reply = client
        .infer_blocking(&[0.5f32; OBS_DIM], 1, Duration::from_secs(5))
        .expect("respawned replica answers");
    assert!(!reply.shed);
    assert_eq!(reply.param_version, 3);

    let report = fleet.shutdown();
    assert_eq!(report.respawns, 1);
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Publishes `blob` and waits for the one-replica fleet to serve it.
fn swap_lands(publisher: &mut ParamPublisher, fleet: &ServeFleet, blob: &ParamBlob) -> bool {
    publisher.publish(blob);
    let deadline = Instant::now() + Duration::from_secs(2);
    while fleet.versions() != vec![blob.version] && Instant::now() < deadline {
        publisher.pump_acks();
        std::thread::sleep(Duration::from_millis(2));
    }
    fleet.versions() == vec![blob.version]
}

#[test]
fn a_sink_that_dies_alone_respawns_and_rejoins_the_chain() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let mut fleet = ServeFleet::start(&broker, config(), &blob(1, 1));
    let mut publisher = ParamPublisher::new(&broker, 1, ParamCompression::DeltaF32);
    assert!(swap_lands(&mut publisher, &fleet, &blob(2, 2)), "the chain works before the death");

    // Kill the parameter sink's endpoint; the serve loop lives on. Without
    // a respawn the replica would serve v2 forever and every later frame
    // would be an unknown-destination drop.
    broker.close_endpoint(ProcessId::server(PARAM_SINK_OFFSET));
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.poll() == 0 {
        assert!(Instant::now() < deadline, "supervisor never respawned the sink");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The new sink holds the policy the replica serves, so the chain
    // resumes; at worst one nack rebases the publisher to a full send.
    let landed = swap_lands(&mut publisher, &fleet, &blob(3, 3))
        || swap_lands(&mut publisher, &fleet, &blob(4, 4));
    assert!(landed, "a newer version must land on the respawned sink");
    assert!(publisher.nacked() <= 1, "rejoining costs at most one nack");

    let report = fleet.shutdown();
    assert_eq!(report.respawns, 1);
    publisher.close();
    broker.shutdown();
}

#[test]
fn consistent_hash_spreads_clients_across_replicas() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let mut cfg = config();
    cfg.replicas = 4;
    let fleet = ServeFleet::start(&broker, cfg, &blob(1, 1));

    let mut hit = [false; 4];
    for i in 0..64u32 {
        let target = fleet.replica_for(ProcessId::controller(i));
        assert_eq!(target.role, xingtian_message::ProcessRole::Server);
        hit[target.index as usize] = true;
        // Stable: the same client always lands on the same replica.
        assert_eq!(target, fleet.replica_for(ProcessId::controller(i)));
    }
    assert!(hit.iter().all(|&h| h), "64 clients over 4 replicas should hit every one");

    fleet.shutdown();
    broker.shutdown();
}
