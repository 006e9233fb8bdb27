//! Relaxed gradient exchange between peer learner shards: the state the one
//! learner loop ([`crate::learner`]) carries under
//! [`crate::config::AllreduceMode::Relaxed`] **with peers**.
//!
//! Each shard trains independently with `Algorithm::try_train` and offers its
//! parameter *deltas* to its peers through the LAPG [`LazyGradGate`] (uploads
//! only when the compensated delta beats the adaptive threshold —
//! `comm.grad_skips` counts the saved sends). A receiving shard applies a
//! delta only while the sender's version is within [`MAX_SKEW`] of its own;
//! anything staler is shed (`learn.grad_shed`), trading determinism for never
//! stalling the ring.

use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::ParamBlob;
use xingtian_algos::{GradBlob, LazyGradConfig, LazyGradGate};
use xingtian_comm::Endpoint;
use xingtian_message::codec::Decode;
use xingtian_message::{Message, MessageKind, ProcessId};
use xt_telemetry::{CounterHandle, Telemetry};

/// Maximum parameter-version distance a relaxed-mode delta may carry before
/// the receiving shard sheds it instead of applying it.
pub const MAX_SKEW: u64 = 8;

/// True when a delta computed at `remote` version may still be applied by a
/// shard at `local` version; anything farther apart is shed (the sender's
/// gate residual means the mass is deferred, not lost).
fn within_skew(local: u64, remote: u64, max_skew: u64) -> bool {
    local.abs_diff(remote) <= max_skew
}

/// One shard's delta gossip toward its peers.
pub(crate) struct Gossip {
    shard: u32,
    peers: Vec<ProcessId>,
    gate: LazyGradGate,
    /// Parameters at the previous offer, the baseline the next delta is
    /// measured against. Peer deltas are folded into it on apply so the
    /// gossip does not echo back what a peer just sent us.
    prev: Vec<f32>,
    shed_counter: CounterHandle,
    applied_counter: CounterHandle,
}

impl Gossip {
    /// The gossip state of `shard` of `shards`, starting from `params`.
    pub(crate) fn new(shard: u32, shards: u32, params: Vec<f32>, telemetry: &Telemetry) -> Self {
        let mut gate = LazyGradGate::with_telemetry(LazyGradConfig::default(), telemetry);
        gate.observe_params(&params);
        Gossip {
            shard,
            peers: (0..shards).filter(|&p| p != shard).map(ProcessId::learner).collect(),
            gate,
            prev: params,
            shed_counter: telemetry.counter("learn.grad_shed"),
            applied_counter: telemetry.counter("learn.grad_applied"),
        }
    }

    /// Offers the session's parameter movement to the LAPG gate; an accepted
    /// delta gossips to every peer shard.
    pub(crate) fn offer(&mut self, endpoint: &Endpoint, blob: ParamBlob) {
        self.gate.observe_params(&blob.params);
        if self.prev.len() == blob.params.len() {
            let delta: Vec<f32> = blob.params.iter().zip(&self.prev).map(|(n, p)| n - p).collect();
            if let Some(up) = self.gate.offer(&delta) {
                let gb = GradBlob { worker: self.shard, version: blob.version, grad: up };
                endpoint.send_encoded(self.peers.clone(), MessageKind::Gradient, &gb);
            }
        }
        self.prev = blob.params;
    }

    /// A `Gradient` message: applies a peer's delta while it is within the
    /// skew bound.
    pub(crate) fn on_gradient(&mut self, msg: &Message, algorithm: &mut dyn Algorithm) {
        let Ok(blob) = GradBlob::from_bytes(&msg.body) else { return };
        if !within_skew(algorithm.version(), blob.version, MAX_SKEW) {
            // Too stale (or too far ahead): shed. The sender's gate residual
            // keeps the mass for its next offer.
            self.shed_counter.inc();
            return;
        }
        let mut params = algorithm.param_blob().params;
        if params.len() != blob.grad.len() {
            return;
        }
        for (p, d) in params.iter_mut().zip(&blob.grad) {
            *p += d;
        }
        algorithm.load_params(&params);
        // Fold the peer delta into the offer baseline so our next delta is
        // our own movement only.
        if self.prev.len() == blob.grad.len() {
            for (p, d) in self.prev.iter_mut().zip(&blob.grad) {
                *p += d;
            }
        }
        self.applied_counter.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_gate() {
        assert!(within_skew(10, 8, 2));
        assert!(within_skew(8, 10, 2));
        assert!(!within_skew(10, 7, 2));
    }
}
