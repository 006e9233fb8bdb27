//! Passive rollout workers driven by the centralized driver.

use bytes::Bytes;
use std::sync::mpsc::{Receiver, Sender};
use gymlite::{Environment, EpisodeTracker};
use netsim::MachineId;
use xingtian_algos::api::Agent;
use xingtian_algos::payload::{ParamBlob, RolloutBatch, RolloutStep};
use xingtian_message::codec::{Decode, Encode};

/// A task submitted by the driver.
#[derive(Debug)]
pub enum WorkerRequest {
    /// Run `steps` environment steps (applying `weights` first if present)
    /// and stage the serialized rollout for the driver to pull.
    Sample {
        /// Serialized [`ParamBlob`] to install before sampling.
        weights: Option<Bytes>,
        /// Environment steps to take.
        steps: usize,
    },
    /// Terminate the worker.
    Shutdown,
}

/// A completed sampling task, staged in the worker's local object store until
/// the driver pulls it.
#[derive(Debug)]
pub struct WorkerResponse {
    /// Producing worker index.
    pub worker: u32,
    /// Machine hosting the worker (the pull's source).
    pub machine: MachineId,
    /// Serialized [`RolloutBatch`].
    pub payload: Bytes,
}

/// A rollout worker: one environment, one agent, a request queue.
pub struct RolloutWorker {
    /// Worker index within the deployment.
    pub index: u32,
    /// Hosting machine.
    pub machine: MachineId,
    /// The environment to interact with.
    pub env: Box<dyn Environment>,
    /// The agent choosing actions.
    pub agent: Box<dyn Agent>,
    /// Task queue from the driver.
    pub requests: Receiver<WorkerRequest>,
    /// Result queue to the driver.
    pub responses: Sender<WorkerResponse>,
}

impl RolloutWorker {
    /// Serves sampling tasks until shutdown, returning episode statistics.
    pub fn run(mut self) -> EpisodeTracker {
        let mut tracker = EpisodeTracker::default();
        let mut obs = self.env.reset();
        while let Ok(request) = self.requests.recv() {
            let WorkerRequest::Sample { weights, steps } = request else { break };
            if let Some(w) = weights {
                if let Ok(blob) = ParamBlob::from_bytes(&w) {
                    self.agent.apply_params(&blob);
                }
            }
            let batch = generate_rollout(
                self.index,
                self.env.as_mut(),
                self.agent.as_mut(),
                &mut tracker,
                &mut obs,
                steps,
            );
            // Serialize on the worker (parallel across workers, as with Ray
            // tasks); the bytes now sit in the worker's local store until the
            // driver pulls them.
            let payload = Bytes::from(batch.to_bytes());
            if self
                .responses
                .send(WorkerResponse { worker: self.index, machine: self.machine, payload })
                .is_err()
            {
                break;
            }
        }
        tracker
    }
}

/// Runs `steps` environment steps with `agent`, producing a rollout batch.
/// Shared by every baseline (and structurally identical to what the XingTian
/// explorer records), so the training data is framework-independent.
pub fn generate_rollout(
    worker: u32,
    env: &mut dyn Environment,
    agent: &mut dyn Agent,
    tracker: &mut EpisodeTracker,
    obs: &mut Vec<f32>,
    steps: usize,
) -> RolloutBatch {
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let selection = agent.act(obs);
        let step = env.step(selection.action);
        tracker.record_step(step.reward, step.done);
        out.push(RolloutStep {
            observation: std::mem::take(obs),
            action: selection.action as u32,
            reward: step.reward,
            done: step.done,
            behavior_logits: selection.logits,
            value: selection.value,
            next_observation: agent.records_next_observation().then(|| step.observation.clone()),
        });
        *obs = if step.done { env.reset() } else { step.observation };
    }
    RolloutBatch {
        explorer: worker,
        param_version: agent.param_version(),
        steps: out,
        bootstrap_observation: obs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use gymlite::CartPole;
    use xingtian_algos::{DqnAgent, DqnConfig};

    fn tiny_agent() -> Box<dyn Agent> {
        let mut c = DqnConfig::new(4, 2);
        c.hidden = vec![8];
        Box::new(DqnAgent::new(c, 0))
    }

    #[test]
    fn worker_serves_sampling_tasks() {
        let (req_tx, req_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        let worker = RolloutWorker {
            index: 3,
            machine: 0,
            env: Box::new(CartPole::new(1)),
            agent: tiny_agent(),
            requests: req_rx,
            responses: resp_tx,
        };
        let handle = std::thread::spawn(move || worker.run());
        req_tx.send(WorkerRequest::Sample { weights: None, steps: 10 }).unwrap();
        let resp = resp_rx.recv().unwrap();
        assert_eq!(resp.worker, 3);
        let batch = RolloutBatch::from_bytes(&resp.payload).unwrap();
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.explorer, 3);
        req_tx.send(WorkerRequest::Shutdown).unwrap();
        let tracker = handle.join().unwrap();
        assert_eq!(tracker.total_steps(), 10);
    }

    #[test]
    fn generate_rollout_spans_episode_boundaries() {
        let mut env = CartPole::new(2);
        let mut agent = tiny_agent();
        let mut tracker = EpisodeTracker::default();
        let mut obs = env.reset();
        let batch = generate_rollout(0, &mut env, agent.as_mut(), &mut tracker, &mut obs, 300);
        assert_eq!(batch.len(), 300);
        assert!(batch.steps.iter().any(|s| s.done), "300 random steps must end an episode");
        assert!(tracker.episodes() >= 1);
        // DQN agents record full transitions.
        assert!(batch.steps[0].next_observation.is_some());
    }
}
