//! The sampled-minibatch wire protocol: `SampleRequest` → `SampleView`.
//!
//! A learner that does not co-reside with a replay shard asks for minibatches
//! instead of raw rollout batches. The request is a seeded sampling order —
//! tiny, control-plane prioritized — and the response is a [`SampleView`]:
//! the minibatch already gathered into structure-of-arrays form, so the
//! requester replays it straight into its training buffers with a single
//! copy and zero decode-time allocations beyond the view itself.
//!
//! [`RemoteSampler`] drives the exchange over netsim's kernel-bypass NIC
//! fast path ([`netsim::BypassPath`]): the per-machine replay shard answers
//! without a broker hop, so a remote sample costs two bypass messages
//! (request + view) instead of two kernel-stack broker deliveries.

use netsim::{BypassPath, MachineId, RpcReceipt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xingtian_message::codec::{Decode, DecodeError, Encode, Reader};

use xingtian_algos::{ReplayPlane, SampleSink};

/// A seeded request for one sampled minibatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRequest {
    /// Minibatch size.
    pub n: u32,
    /// Sample proportional to priority (otherwise uniform).
    pub prioritized: bool,
    /// Importance-weight exponent β (ignored for uniform sampling).
    pub beta: f32,
    /// RNG seed for the draw — the requester controls the trajectory, the
    /// shard just executes it.
    pub seed: u64,
}

impl Encode for SampleRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        self.prioritized.encode(out);
        self.beta.encode(out);
        self.seed.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.n.encoded_size() + self.prioritized.encoded_size() + self.beta.encoded_size() + self.seed.encoded_size()
    }
}

impl Decode for SampleRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SampleRequest {
            n: u32::decode(r)?,
            prioritized: bool::decode(r)?,
            beta: f32::decode(r)?,
            seed: u64::decode(r)?,
        })
    }
}

/// One sampled minibatch in structure-of-arrays form.
///
/// Built by pointing the plane's sampler at the view (it implements
/// [`SampleSink`]); consumed by replaying it into the learner's own sink via
/// [`SampleView::replay_into`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleView {
    /// Observation dimension of every transition.
    pub obs_dim: u32,
    /// Concatenated observations (`n * obs_dim` floats).
    pub observations: Vec<f32>,
    /// Concatenated next observations (zeros where absent).
    pub next_observations: Vec<f32>,
    /// Whether each transition has a successor state (0/1).
    pub has_next: Vec<u8>,
    /// Actions.
    pub actions: Vec<u32>,
    /// Rewards.
    pub rewards: Vec<f32>,
    /// Terminal flags (0/1).
    pub dones: Vec<u8>,
    /// Importance weights (empty for uniform sampling).
    pub weights: Vec<f32>,
}

impl SampleView {
    /// An empty view expecting transitions of `obs_dim` floats.
    pub fn with_obs_dim(obs_dim: usize) -> Self {
        SampleView { obs_dim: obs_dim as u32, ..SampleView::default() }
    }

    /// Transitions in the view.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the view holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Pushes the view's transitions (and weights, if any) into `sink` in the
    /// order the shard sampled them — the plane's weight-then-transition
    /// per-pick order.
    pub fn replay_into(&self, sink: &mut dyn SampleSink) {
        let dim = self.obs_dim as usize;
        for i in 0..self.len() {
            if !self.weights.is_empty() {
                sink.push_weight(self.weights[i]);
            }
            let base = i * dim;
            let obs = &self.observations[base..base + dim];
            let next = (self.has_next[i] != 0).then(|| &self.next_observations[base..base + dim]);
            sink.push_transition(obs, next, self.actions[i], self.rewards[i], self.dones[i] != 0);
        }
    }
}

impl SampleSink for SampleView {
    fn push_transition(&mut self, observation: &[f32], next_observation: Option<&[f32]>, action: u32, reward: f32, done: bool) {
        debug_assert_eq!(observation.len(), self.obs_dim as usize, "observation dimension mismatch");
        self.observations.extend_from_slice(observation);
        match next_observation {
            Some(next) => {
                self.next_observations.extend_from_slice(next);
                self.has_next.push(1);
            }
            None => {
                self.next_observations.extend(std::iter::repeat_n(0.0, observation.len()));
                self.has_next.push(0);
            }
        }
        self.actions.push(action);
        self.rewards.push(reward);
        self.dones.push(if done { 1 } else { 0 });
    }

    fn push_weight(&mut self, weight: f32) {
        self.weights.push(weight);
    }
}

impl Encode for SampleView {
    fn encode(&self, out: &mut Vec<u8>) {
        self.obs_dim.encode(out);
        self.observations.encode(out);
        self.next_observations.encode(out);
        self.has_next.encode(out);
        self.actions.encode(out);
        self.rewards.encode(out);
        self.dones.encode(out);
        self.weights.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.obs_dim.encoded_size()
            + self.observations.encoded_size()
            + self.next_observations.encoded_size()
            + self.has_next.encoded_size()
            + self.actions.encoded_size()
            + self.rewards.encoded_size()
            + self.dones.encoded_size()
            + self.weights.encoded_size()
    }
}

impl Decode for SampleView {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SampleView {
            obs_dim: u32::decode(r)?,
            observations: Vec::<f32>::decode(r)?,
            next_observations: Vec::<f32>::decode(r)?,
            has_next: Vec::<u8>::decode(r)?,
            actions: Vec::<u32>::decode(r)?,
            rewards: Vec::<f32>::decode(r)?,
            dones: Vec::<u8>::decode(r)?,
            weights: Vec::<f32>::decode(r)?,
        })
    }
}

/// Executes `req` against `plane`: the shard-side half of the protocol.
/// Deterministic — the trajectory is fully defined by the request's seed and
/// the plane's contents.
pub fn answer(plane: &ReplayPlane, req: &SampleRequest) -> SampleView {
    let mut view = SampleView::with_obs_dim(plane.obs_dim());
    let mut rng = StdRng::seed_from_u64(req.seed);
    if req.prioritized {
        plane.sample_prioritized(req.n as usize, f64::from(req.beta), &mut rng, &mut view, &mut Vec::new());
    } else {
        plane.sample_uniform(req.n as usize, &mut rng, &mut view);
    }
    view
}

/// A learner-side handle for sampling from a replay shard on another machine
/// over the kernel-bypass fast path.
#[derive(Debug)]
pub struct RemoteSampler {
    path: BypassPath,
    plane: Arc<ReplayPlane>,
    learner_machine: MachineId,
}

impl RemoteSampler {
    /// Connects the learner's machine to the shard's machine. `path` must be
    /// pinned between `learner_machine` and the machine hosting `plane`.
    pub fn new(path: BypassPath, plane: Arc<ReplayPlane>, learner_machine: MachineId) -> Self {
        RemoteSampler { path, plane, learner_machine }
    }

    /// One remote sample: ships the request over the bypass path, the shard
    /// answers, the view ships back. Blocks for the modeled wire time of both
    /// messages; returns the view and the round-trip receipt.
    pub fn sample(&self, req: &SampleRequest) -> (SampleView, RpcReceipt) {
        let request = self.path.send(self.learner_machine, req.to_bytes().len());
        let view = answer(&self.plane, req);
        let (responder, _) = {
            let (a, b) = self.path.endpoints();
            if a == self.learner_machine { (b, a) } else { (a, b) }
        };
        let response = self.path.send(responder, view.to_bytes().len());
        let receipt = RpcReceipt {
            start_nanos: request.start_nanos,
            end_nanos: response.end_nanos,
            duration: request.duration + response.duration,
        };
        (view, receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xingtian_algos::ReplayConfig;
    use netsim::{Cluster, ClusterSpec};
    use xingtian_algos::payload::{RolloutBatch, RolloutStep};
    use xt_telemetry::Telemetry;

    fn filled_plane(prioritized: bool) -> ReplayPlane {
        let config = if prioritized {
            ReplayConfig::prioritized(32, 2, 0.6)
        } else {
            ReplayConfig::uniform(32, 2)
        };
        let plane = ReplayPlane::new(config, &Telemetry::disabled());
        let batch = RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: (0..20)
                .map(|i| RolloutStep {
                    observation: vec![i as f32, -(i as f32)],
                    action: (i % 3) as u32,
                    reward: i as f32 * 0.25,
                    done: i == 19,
                    behavior_logits: vec![],
                    value: 0.0,
                    next_observation: Some(vec![i as f32 + 1.0, 0.0]),
                })
                .collect(),
            bootstrap_observation: vec![],
        };
        plane.ingest_batch(&batch);
        plane
    }

    #[test]
    fn request_and_view_round_trip() {
        let req = SampleRequest { n: 32, prioritized: true, beta: 0.4, seed: 99 };
        assert_eq!(SampleRequest::from_bytes(&req.to_bytes()).unwrap(), req);

        let view = answer(&filled_plane(false), &SampleRequest { n: 8, prioritized: false, beta: 0.0, seed: 1 });
        assert_eq!(view.len(), 8);
        assert_eq!(SampleView::from_bytes(&view.to_bytes()).unwrap(), view);
    }

    #[test]
    fn answer_is_deterministic_in_the_seed() {
        let plane = filled_plane(true);
        let req = SampleRequest { n: 16, prioritized: true, beta: 0.4, seed: 7 };
        assert_eq!(answer(&plane, &req), answer(&plane, &req));
        let other = answer(&plane, &SampleRequest { seed: 8, ..req });
        assert_ne!(answer(&plane, &req), other, "different seed draws a different minibatch");
        assert_eq!(answer(&plane, &req).weights.len(), 16, "prioritized views carry weights");
    }

    #[test]
    fn view_replay_preserves_the_stream() {
        let plane = filled_plane(false);
        let req = SampleRequest { n: 8, prioritized: false, beta: 0.0, seed: 3 };
        let view = answer(&plane, &req);
        // Replaying the view into a second view must reproduce it exactly.
        let mut echo = SampleView::with_obs_dim(plane.obs_dim());
        view.replay_into(&mut echo);
        assert_eq!(echo, view);
    }

    #[test]
    fn remote_sampling_skips_the_kernel_stack() {
        let cluster = Cluster::new(ClusterSpec::default().machines(2).virtual_time(true));
        let plane = Arc::new(filled_plane(false));
        let path = BypassPath::new(cluster.clone(), 0, 1);
        let sampler = RemoteSampler::new(path, plane.clone(), 0);
        let req = SampleRequest { n: 8, prioritized: false, beta: 0.0, seed: 3 };
        let (view, receipt) = sampler.sample(&req);
        assert_eq!(view, answer(&plane, &req), "remote view matches a local answer");
        // Both messages went over the bypass path: far under one kernel hop.
        let kernel_one_way = std::time::Duration::from_secs_f64(netsim::DEFAULT_LATENCY_SECS);
        assert!(receipt.duration < kernel_one_way, "rtt {:?} must undercut a single kernel hop", receipt.duration);
    }
}
