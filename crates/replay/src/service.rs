//! The replay shard service: the channel-side process that owns ingestion.
//!
//! Explorers address their rollout messages to `ProcessId::replay(s)`, the
//! service of the learner shard `s` that owns them, instead of the learner. The service pops each batch from its receive buffer
//! (already staged by the asynchronous channel), decodes it once into the
//! shared [`ReplayPlane`], and recycles the decode buffers — this is the one
//! and only decode the batch ever gets. Recycling is where the rollout is
//! answered: one tiny control-plane [`MessageKind::RolloutAnswer`] naming
//! the rollout's source goes to the learner. It wakes the learner, whose
//! training loop runs without receiving any rollout payload at all, and the
//! learner passes the answer on to the source when it reads it. The shard
//! ingests as fast as explorers send, so an answer sent from here would let
//! them run ahead of training: the surplus is ingested and never trained.

use std::sync::Arc;
use xingtian_algos::payload::BatchDecoder;
use xingtian_algos::ReplayPlane;
use xingtian_comm::Endpoint;
use xingtian_message::{MessageKind, ProcessId};

/// What the service reports when it stops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Rollout batches ingested.
    pub batches_ingested: u64,
    /// Transitions ingested (post eligibility filter).
    pub steps_ingested: u64,
}

/// Runs a replay shard until its endpoint is closed, answering every
/// ingested rollout to `learner`, the one learner shard that samples
/// `plane` (a deployment runs one service and one plane per learner shard).
///
/// The supervisor's shutdown broadcast targets explorers and learner shards;
/// the deployment closes this service's endpoint from the broker side
/// (`Broker::close_endpoint`) once every learner has joined (the service
/// must outlive its learner, which may keep sampling until its last training
/// session). Closing the ID queue still delivers every rollout already
/// routed here, so each of them is ingested before `recv` returns `None`.
pub fn run_replay_service(endpoint: Endpoint, plane: Arc<ReplayPlane>, learner: ProcessId) -> ReplayOutcome {
    let mut decoder = BatchDecoder::new();
    let mut outcome = ReplayOutcome::default();
    while let Some(msg) = endpoint.recv() {
        if msg.header.kind != MessageKind::Rollout {
            continue;
        }
        let Ok(batch) = decoder.decode(&msg.body) else { continue };
        let inserted = plane.ingest_batch(&batch);
        decoder.recycle(batch);
        outcome.batches_ingested += 1;
        outcome.steps_ingested += inserted as u64;
        // The answer names the source explorer.
        endpoint.send_encoded(vec![learner], MessageKind::RolloutAnswer, &msg.header.src.index);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use xingtian_message::codec::Encode;
    use netsim::Cluster;
    use std::time::Duration;
    use xingtian_algos::payload::{RolloutBatch, RolloutStep};
    use xingtian_algos::ReplayConfig;
    use xingtian_comm::{Broker, CommConfig};
    use xingtian_message::codec::Decode;
    use xt_telemetry::Telemetry;

    fn rollout(n: usize) -> RolloutBatch {
        RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: (0..n)
                .map(|i| RolloutStep {
                    observation: vec![i as f32],
                    action: 0,
                    reward: i as f32,
                    done: false,
                    behavior_logits: vec![],
                    value: 0.0,
                    next_observation: Some(vec![i as f32 + 1.0]),
                })
                .collect(),
            bootstrap_observation: vec![],
        }
    }

    #[test]
    fn service_ingests_and_notifies() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let learner = broker.endpoint(ProcessId::learner(0));
        let replay_ep = broker.endpoint(ProcessId::replay(0));

        let telemetry = Telemetry::enabled();
        let plane = Arc::new(ReplayPlane::new(ReplayConfig::uniform(64, 1), &telemetry));
        let service = {
            let plane = plane.clone();
            std::thread::spawn(move || run_replay_service(replay_ep, plane, ProcessId::learner(0)))
        };

        // Explorer pushes rollouts to the replay shard, not the learner. The
        // first is ragged (regression: its observations reached the arena's
        // dimension assert and panicked the ingester); the service must stay
        // alive for the good one behind it, and answer both, once each.
        let mut ragged = rollout(6);
        ragged.steps[0].observation = vec![0.0; 3];
        ragged.steps[1].next_observation = Some(Vec::new());
        let source = ProcessId::explorer(7);
        let explorer = broker.endpoint(source);
        for (batch, total) in [(ragged, 4), (rollout(10), 14)] {
            assert!(explorer.send_to(
                vec![ProcessId::replay(0)],
                MessageKind::Rollout,
                Bytes::from(batch.to_bytes())
            ));
            let notice = learner.recv().expect("learner woken by the shard");
            assert_eq!(notice.header.kind, MessageKind::RolloutAnswer);
            assert_eq!(u32::from_bytes(&notice.body).ok(), Some(source.index), "the answer names the source");
            assert_eq!(plane.total_inserted(), total, "answered after the ingest");
        }
        assert_eq!(plane.total_inserted(), 14);
        assert_eq!(telemetry.counter("replay.rejected").get(), 2);

        broker.close_endpoint(ProcessId::replay(0));
        let outcome = service.join().expect("service thread must not panic");
        assert_eq!(outcome, ReplayOutcome { batches_ingested: 2, steps_ingested: 14 });
        // Every answer was routed before the join returned, so a marker sent
        // now queues behind any extra one in the learner's ID queue.
        assert!(explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"end")));
        let next = learner.recv().expect("the marker arrives");
        assert_eq!(&next.body[..], b"end", "one answer per batch");
        assert_eq!(plane.integrity().dangling_slots, 0);
        learner.close();
        explorer.close();
        broker.shutdown();
    }

    #[test]
    fn closing_the_endpoint_ingests_every_rollout_routed_before_it() {
        // A closed ID queue still delivers the headers already routed to the
        // shard, so a close issued right after the last send still lets the
        // service ingest all of them before `recv` returns `None`.
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let learner = broker.endpoint(ProcessId::learner(0));
        let replay_ep = broker.endpoint(ProcessId::replay(0));
        let plane = Arc::new(ReplayPlane::new(ReplayConfig::uniform(1024, 1), &Telemetry::disabled()));
        let service = {
            let plane = plane.clone();
            std::thread::spawn(move || run_replay_service(replay_ep, plane, ProcessId::learner(0)))
        };
        let explorer = broker.endpoint(ProcessId::explorer(0));
        for _ in 0..50 {
            let body = Bytes::from(rollout(4).to_bytes());
            assert!(explorer.send_to(vec![ProcessId::replay(0)], MessageKind::Rollout, body));
        }
        let start = std::time::Instant::now();
        broker.close_endpoint(ProcessId::replay(0));
        let outcome = service.join().expect("service thread must not panic");
        assert!(start.elapsed() < Duration::from_secs(1), "joined in {:?}", start.elapsed());
        assert_eq!(outcome.batches_ingested, 50);
        assert_eq!(plane.integrity().dangling_slots, 0);
        learner.close();
        explorer.close();
        broker.shutdown();
        assert_eq!(broker.dropped(), 0);
    }
}
