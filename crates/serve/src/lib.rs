//! xt-serve: the policy-serving plane.
//!
//! Training ends with a parameter blob; deployment starts with traffic. This
//! crate turns a trained policy into a high-QPS inference service running on
//! the same comm fabric the training plane uses — no second transport, no
//! serialization regime switch:
//!
//! * [`ServeReplica`] — a serving process (`ProcessRole::Server`) running an
//!   adaptive micro-batcher: it collects [`InferRequest`]s up to `max_batch`
//!   rows or `max_wait_us`, then answers the whole batch with **one** fused
//!   `Mlp::forward_ws` pass, amortizing per-query inference cost exactly as
//!   vectorized environment stepping does on the training side.
//! * [`Policy`] in an [`xingtian_comm::SnapshotCell`] — the comm fabric's
//!   lock-free publish cell is the hot-swap slot, so a live learner's
//!   delta/quantized parameter broadcasts (ingested through the parameter
//!   plane's shared subscriber, as explorers do) swap weights mid-traffic
//!   without ever stalling an inference pass.
//! * [`ServeFleet`] — N replicas behind the consistent-hash router
//!   ([`fleet::pid_hash`]) under the training plane's `Slot`
//!   reap/respawn state machine: serve loops respawn from the latest
//!   checkpoint, sinks from the policy being served; drain-on-shutdown.
//! * Graceful degradation — replicas bound their admission queue and answer
//!   excess load with explicit `Shed` replies ([`InferReply::shed`]) instead
//!   of unbounded latency; a well-formed request is *never* silently dropped.
//! * SLO observability — `serve.qps`, `serve.batch_size`, `serve.queue_us`,
//!   `serve.infer_us`, client-side `serve.e2e_us` log-histograms with
//!   p50/p99 export, plus `serve.swaps` / `serve.sheds` counters.
//!
//! [`InferRequest`]: xingtian_message::InferRequest
//! [`InferReply`]: xingtian_message::InferReply
//! [`InferReply::shed`]: xingtian_message::InferReply::shed

pub mod client;
pub mod fleet;
pub mod policy;
pub mod replica;

pub use client::ServeClient;
pub use fleet::{FleetReport, ParamPublisher, ServeFleet};
pub use policy::Policy;
pub use replica::{ReplicaOutcome, ServeReplica};

/// Index offset separating a replica's parameter-sink endpoint
/// (`ProcessId::server(PARAM_SINK_OFFSET + i)`) from its inference endpoint
/// (`ProcessId::server(i)`). Parameter ingest runs on its own endpoint and
/// thread so a weight swap never contends with the inference hot loop.
pub const PARAM_SINK_OFFSET: u32 = 1 << 16;

/// Index offset for client endpoints (`ProcessId::controller(CLIENT_OFFSET +
/// i)`), keeping them clear of the deployment controller's indices.
pub const CLIENT_OFFSET: u32 = 1 << 16;

/// Configuration of a serving fleet.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of serving replicas.
    pub replicas: usize,
    /// Observation dimensionality (input width of the policy MLP).
    pub obs_dim: usize,
    /// Number of discrete actions (output width of the policy MLP).
    pub num_actions: usize,
    /// Hidden layer widths of the policy MLP.
    pub hidden: Vec<usize>,
    /// Maximum rows fused into one forward pass.
    pub max_batch: usize,
    /// Maximum microseconds the batcher waits for more requests once it
    /// holds at least one.
    pub max_wait_us: u64,
    /// Pending-request depth past which a replica sheds: after serving a
    /// batch, queued requests beyond this watermark get explicit `Shed`
    /// replies instead of compounding latency.
    pub shed_watermark: usize,
    /// Directory respawned replicas reload from (`load_latest`); `None`
    /// falls back to the dead replica's last in-memory policy.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Test hook: artificial per-batch inference delay in microseconds,
    /// used to provoke sheds deterministically. 0 in production.
    pub debug_infer_delay_us: u64,
}

impl ServeConfig {
    /// A serving config for a policy MLP of `[obs_dim, hidden.., num_actions]`.
    pub fn new(replicas: usize, obs_dim: usize, num_actions: usize) -> Self {
        ServeConfig {
            replicas,
            obs_dim,
            num_actions,
            hidden: vec![64, 64],
            max_batch: 256,
            max_wait_us: 200,
            shed_watermark: 128,
            checkpoint_dir: None,
            debug_infer_delay_us: 0,
        }
    }

    /// Overrides the hidden layer widths.
    #[must_use]
    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }

    /// Overrides the micro-batcher bounds.
    #[must_use]
    pub fn with_batching(mut self, max_batch: usize, max_wait_us: u64) -> Self {
        self.max_batch = max_batch;
        self.max_wait_us = max_wait_us;
        self
    }

    /// Overrides the shed watermark.
    #[must_use]
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// Sets the checkpoint directory respawns reload from.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Full layer-size vector of the policy MLP.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.hidden.len() + 2);
        sizes.push(self.obs_dim);
        sizes.extend_from_slice(&self.hidden);
        sizes.push(self.num_actions);
        sizes
    }

    /// Panics on nonsense configurations so misuse fails at startup, not
    /// under traffic.
    pub fn validate(&self) {
        assert!(self.replicas >= 1, "serve: need at least one replica");
        assert!(self.obs_dim >= 1 && self.num_actions >= 1, "serve: degenerate policy shape");
        assert!(self.max_batch >= 1, "serve: max_batch must be >= 1");
        assert!(
            self.replicas as u32 <= PARAM_SINK_OFFSET,
            "serve: replica count collides with the param-sink index space"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_sandwich_hidden_layers() {
        let cfg = ServeConfig::new(2, 4, 3).with_hidden(vec![8]);
        assert_eq!(cfg.sizes(), vec![4, 8, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_is_rejected() {
        ServeConfig::new(0, 4, 2).validate();
    }
}
