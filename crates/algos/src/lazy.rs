//! Lazily Aggregated Policy Gradients (LAPG, arXiv:1812.03239): skip the
//! gradient uploads that would not change the learner's update.
//!
//! In distributed policy-gradient training most worker uploads are redundant:
//! between two server rounds a worker's gradient rarely moves more than the
//! parameters themselves did. LAPG has each worker upload only when its
//! *compensated* gradient (new gradient plus the residual the server never
//! saw) has drifted far enough from the last uploaded one:
//!
//! ```text
//! upload  iff  ‖g_comp − g_sent‖² > (scale / window) · Σ_{w recent} ‖Δθ_w‖²
//! ```
//!
//! where the right side tracks how fast the parameters have actually been
//! moving over the last `window` rounds. When the worker skips, the server
//! keeps aggregating the stale `g_sent` (lazy aggregation) and the worker
//! carries the difference forward as a residual — so skipped mass is
//! deferred, never lost, and the scheme provably matches the convergence
//! rate of full uploads while cutting upload rounds dramatically.
//!
//! [`LazyGradGate`] is the worker-side gate, and the gate of the relaxed
//! learner shards' delta gossip (`AllreduceMode::Relaxed`, the core crate's
//! `gossip` module): each shard offers its parameter deltas through one and
//! sends its peers only what the gate accepts. It is transport-agnostic: the
//! XingTian channel ships accepted uploads as [`GradBlob`] bodies under
//! `MessageKind::Gradient`, and the skip/upload telemetry (`comm.grad_skips`
//! / `comm.grad_uploads`) counts the sends saved.

use std::collections::VecDeque;
use xingtian_message::codec::{Decode, DecodeError, Encode, Reader};
use xt_telemetry::{CounterHandle, Telemetry};

/// Tuning of the lazy-aggregation gate.
#[derive(Debug, Clone, Copy)]
pub struct LazyGradConfig {
    /// Rounds of parameter movement averaged into the adaptive threshold.
    pub window: usize,
    /// Threshold multiplier: larger skips more aggressively (LAPG's ξ).
    pub scale: f32,
    /// Consecutive skips after which an upload is forced, bounding the
    /// staleness of what the server aggregates for this worker.
    pub max_skip: u32,
}

impl Default for LazyGradConfig {
    fn default() -> Self {
        LazyGradConfig { window: 10, scale: 0.5, max_skip: 4 }
    }
}

/// A gradient upload on the wire (`MessageKind::Gradient`).
#[derive(Debug, Clone, PartialEq)]
pub struct GradBlob {
    /// Uploading worker's index.
    pub worker: u32,
    /// Parameter version the gradient was computed against.
    pub version: u64,
    /// The flat compensated gradient.
    pub grad: Vec<f32>,
}

impl Encode for GradBlob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.worker.encode(out);
        self.version.encode(out);
        self.grad.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.worker.encoded_size() + self.version.encoded_size() + self.grad.encoded_size()
    }
}

impl Decode for GradBlob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(GradBlob {
            worker: u32::decode(r)?,
            version: u64::decode(r)?,
            grad: Vec::<f32>::decode(r)?,
        })
    }
}

/// Worker-side LAPG gate: decides per round whether the compensated gradient
/// is worth uploading, and carries the residual of skipped rounds.
#[derive(Debug)]
pub struct LazyGradGate {
    cfg: LazyGradConfig,
    /// The gradient the server currently aggregates for this worker.
    last_sent: Vec<f32>,
    /// Skipped gradient mass, re-injected into the next offer.
    residual: Vec<f32>,
    /// Parameters at the previous `observe_params`, for ‖Δθ‖².
    prev_params: Vec<f32>,
    /// Recent ‖Δθ‖² values, newest last.
    param_moves: VecDeque<f32>,
    skip_streak: u32,
    skips: u64,
    uploads: u64,
    skips_ctr: CounterHandle,
    uploads_ctr: CounterHandle,
}

impl LazyGradGate {
    /// A gate with no telemetry.
    pub fn new(cfg: LazyGradConfig) -> Self {
        Self::with_telemetry(cfg, &Telemetry::disabled())
    }

    /// A gate reporting `comm.grad_skips` / `comm.grad_uploads` into
    /// `telemetry`.
    pub fn with_telemetry(cfg: LazyGradConfig, telemetry: &Telemetry) -> Self {
        LazyGradGate {
            cfg,
            last_sent: Vec::new(),
            residual: Vec::new(),
            prev_params: Vec::new(),
            param_moves: VecDeque::with_capacity(cfg.window + 1),
            skip_streak: 0,
            skips: 0,
            uploads: 0,
            skips_ctr: telemetry.counter("comm.grad_skips"),
            uploads_ctr: telemetry.counter("comm.grad_uploads"),
        }
    }

    /// Records the parameters the next gradient will be computed against; the
    /// movement since the previous call feeds the adaptive threshold.
    pub fn observe_params(&mut self, params: &[f32]) {
        if self.prev_params.len() == params.len() {
            let move_sq: f32 = self
                .prev_params
                .iter()
                .zip(params)
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum();
            self.param_moves.push_back(move_sq);
            while self.param_moves.len() > self.cfg.window {
                self.param_moves.pop_front();
            }
        } else {
            // Resized network: old movement history is meaningless.
            self.param_moves.clear();
        }
        self.prev_params.clear();
        self.prev_params.extend_from_slice(params);
    }

    /// Offers this round's gradient. Returns the compensated gradient to
    /// upload, or `None` when the round should be skipped (the server keeps
    /// aggregating the last upload; the difference is carried as residual).
    pub fn offer(&mut self, grad: &[f32]) -> Option<Vec<f32>> {
        if self.residual.len() != grad.len() {
            self.residual.clear();
            self.residual.resize(grad.len(), 0.0);
        }
        let compensated: Vec<f32> =
            grad.iter().zip(&self.residual).map(|(g, r)| g + r).collect();
        if self.should_skip(&compensated) {
            self.skip_streak += 1;
            self.skips += 1;
            self.skips_ctr.inc();
            // Residual = everything the server's stale copy gets wrong.
            for (r, (c, s)) in self
                .residual
                .iter_mut()
                .zip(compensated.iter().zip(&self.last_sent))
            {
                *r = c - s;
            }
            return None;
        }
        self.skip_streak = 0;
        self.uploads += 1;
        self.uploads_ctr.inc();
        for r in &mut self.residual {
            *r = 0.0;
        }
        self.last_sent.clear();
        self.last_sent.extend_from_slice(&compensated);
        Some(compensated)
    }

    /// Uploads so far vs. rounds offered: `(uploads, skips)`.
    pub fn counts(&self) -> (u64, u64) {
        (self.uploads, self.skips)
    }

    fn should_skip(&self, compensated: &[f32]) -> bool {
        // First round, post-resize, or no movement history: upload.
        if self.last_sent.len() != compensated.len() || self.param_moves.is_empty() {
            return false;
        }
        if self.skip_streak >= self.cfg.max_skip {
            return false;
        }
        let drift_sq: f32 = compensated
            .iter()
            .zip(&self.last_sent)
            .map(|(c, s)| {
                let d = c - s;
                d * d
            })
            .sum();
        let recent: f32 = self.param_moves.iter().sum();
        let threshold = self.cfg.scale / self.cfg.window as f32 * recent;
        drift_sq <= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_blob_round_trips() {
        let b = GradBlob { worker: 3, version: 17, grad: vec![0.25, -1.5, 3.0] };
        assert_eq!(GradBlob::from_bytes(&b.to_bytes()).unwrap(), b);
    }

    #[test]
    fn first_offer_always_uploads() {
        let mut gate = LazyGradGate::new(LazyGradConfig::default());
        assert_eq!(gate.offer(&[1.0, 2.0]), Some(vec![1.0, 2.0]));
    }

    #[test]
    fn max_skip_streak_forces_an_upload() {
        let cfg = LazyGradConfig { window: 4, scale: 1e9, max_skip: 3 };
        let mut gate = LazyGradGate::new(cfg);
        gate.observe_params(&[0.0; 8]);
        gate.observe_params(&[1.0; 8]); // huge movement => huge threshold
        assert!(gate.offer(&[1.0; 8]).is_some(), "first upload");
        let mut uploads = 0;
        for _ in 0..8 {
            gate.observe_params(&[1.0; 8]);
            if gate.offer(&[1.0; 8]).is_some() {
                uploads += 1;
            }
        }
        // With an absurd threshold everything would skip forever; the streak
        // cap forces an upload every max_skip+1 rounds.
        assert!(uploads >= 2, "streak cap forced uploads, got {uploads}");
    }

    #[test]
    fn lazy_sgd_on_a_quadratic_converges_like_full_uploads_with_fewer_rounds() {
        // Minimize f(θ) = ½‖θ‖² with plain SGD; the server aggregates the
        // worker's last upload when a round is skipped. LAPG must reach the
        // optimum at the dense schedule's rate while skipping a meaningful
        // fraction of uploads.
        let lr = 0.1f32;
        let n = 32;
        let init: Vec<f32> = (0..n).map(|i| (i as f32 / n as f32) - 0.5).collect();

        // Dense baseline.
        let mut dense = init.clone();
        for _ in 0..200 {
            let grad: Vec<f32> = dense.clone();
            for (p, g) in dense.iter_mut().zip(&grad) {
                *p -= lr * g;
            }
        }

        // Lazy: the server applies `server_grad` (the worker's last upload)
        // every round, refreshed only when the gate uploads.
        let mut lazy = init.clone();
        let mut gate = LazyGradGate::new(LazyGradConfig::default());
        let mut server_grad = vec![0.0f32; n];
        for _ in 0..200 {
            gate.observe_params(&lazy);
            let grad: Vec<f32> = lazy.clone();
            if let Some(up) = gate.offer(&grad) {
                server_grad = up;
            }
            for (p, g) in lazy.iter_mut().zip(&server_grad) {
                *p -= lr * g;
            }
        }

        let dense_norm: f32 = dense.iter().map(|x| x * x).sum::<f32>().sqrt();
        let lazy_norm: f32 = lazy.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(dense_norm < 1e-6, "dense SGD converged: {dense_norm}");
        assert!(lazy_norm < 1e-3, "lazy SGD converged: {lazy_norm}");
        let (uploads, skips) = gate.counts();
        assert!(skips > 0, "some rounds were skipped");
        assert!(
            skips as f32 >= 0.2 * (uploads + skips) as f32,
            "meaningful skip fraction: {skips} of {}",
            uploads + skips
        );
    }
}
