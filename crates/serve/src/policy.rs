//! The policy a replica serves.
//!
//! A serving replica reads its policy on every batch; the parameter-sink
//! thread replaces it whenever a learner broadcast applies. The slot between
//! them is an [`xingtian_comm::SnapshotCell`]`<Policy>` — the same lock-free
//! publish cell the comm fabric routes through: the inference hot loop
//! borrows the current policy with `with` for one forward pass, takes no lock
//! and never observes a torn policy, and a superseded policy is freed by the
//! first publish that finds no pass in flight, so retention is the current
//! snapshot plus at most the few still pinned by in-flight passes.

use tinynn::{Activation, Mlp};
use xingtian_algos::ParamBlob;

/// An immutable policy snapshot: a version tag plus the MLP that serves it.
#[derive(Debug)]
pub struct Policy {
    /// Parameter version (checkpoint or broadcast) these weights carry.
    pub version: u64,
    /// The network, ready for `forward_ws`.
    pub mlp: Mlp,
}

impl Policy {
    /// Builds a policy of shape `sizes` holding `blob`'s parameters.
    ///
    /// The construction seed is irrelevant: `set_params` overwrites every
    /// weight, which is what makes a checkpoint-loaded replica and a
    /// hot-swapped replica bit-identical at the same version.
    ///
    /// # Panics
    ///
    /// Panics if `blob.params` does not match the parameter count of
    /// `sizes` — a version/topology mismatch must not serve garbage.
    pub fn from_blob(sizes: &[usize], blob: &ParamBlob) -> Self {
        let mut mlp = Mlp::new(sizes, Activation::Relu, 0);
        assert_eq!(
            blob.params.len(),
            mlp.num_params(),
            "serve: parameter blob v{} does not fit policy shape {:?}",
            blob.version,
            sizes
        );
        mlp.set_params(&blob.params);
        Policy { version: blob.version, mlp }
    }

    /// The policy's parameters as a blob (used to respawn a replica when no
    /// checkpoint is available).
    pub fn to_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: self.mlp.params().to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_blob_is_seed_independent() {
        let reference = Mlp::new(&[4, 8, 2], Activation::Relu, 99);
        let blob = ParamBlob { version: 7, params: reference.params().to_vec() };
        let p = Policy::from_blob(&[4, 8, 2], &blob);
        assert_eq!(p.version, 7);
        assert_eq!(p.mlp.params(), reference.params(), "set_params overwrites the init seed");
    }

    /// What the micro-batcher relies on: a request's logits do not depend on
    /// which other requests happened to share its flush.
    #[test]
    fn a_request_gets_the_same_logits_alone_and_co_batched() {
        let sizes = [24, 32, 32, 9];
        let policy = Policy { version: 1, mlp: Mlp::new(&sizes, Activation::Relu, 5) };
        let obs: Vec<f32> = (0..8 * sizes[0]).map(|i| ((i * 29 % 97) as f32 - 48.0) / 24.0).collect();
        let mut ws = tinynn::Workspace::new();
        let request = &obs[..sizes[0]];
        let alone: Vec<u32> =
            policy.mlp.forward_ws(request, 1, &mut ws).iter().map(|v| v.to_bits()).collect();
        for others in 1..=7 {
            let rows = 1 + others;
            // The request leads the batch, then trails it.
            let leading = &obs[..rows * sizes[0]];
            let logits = policy.mlp.forward_ws(leading, rows, &mut ws);
            let got: Vec<u32> = logits[..9].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, alone, "leading a batch of {rows}");
            let mut trailing = obs[sizes[0]..rows * sizes[0]].to_vec();
            trailing.extend_from_slice(request);
            let logits = policy.mlp.forward_ws(&trailing, rows, &mut ws);
            let got: Vec<u32> = logits[others * 9..].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, alone, "trailing a batch of {rows}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit policy shape")]
    fn shape_mismatch_refuses_to_serve() {
        let blob = ParamBlob { version: 1, params: vec![0.0; 3] };
        Policy::from_blob(&[4, 8, 2], &blob);
    }
}
