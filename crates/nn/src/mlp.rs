//! Multi-layer perceptrons with explicit forward/backward passes.
//!
//! All parameters live in one flat `f32` buffer, which makes three things
//! trivial: optimizer updates (`step` works on flat slices), parameter
//! broadcast (the learner serializes `params()` straight into a message
//! body), and hot-swapping weights on explorers (`set_params`).
//!
//! **Aligned storage.** That buffer starts on a 64-byte cache line, after
//! [`Mlp::new`], after `clone` and after [`Mlp::set_params`], whatever the
//! allocator returns: it is allocated in whole cache lines, not as a
//! `Vec<f32>`. The flat layout — weights then biases, layer by layer, with
//! no padding — is unchanged, and it is the `ParamBlob` wire format. So the
//! first layer's `W`, and every later one when the widths before it are
//! multiples of 16 (as in every benchmark net), starts on a line, and the
//! row streaming the FMA tiles do at batch 1 never splits a vector load
//! across two lines. A `Vec<f32>` of 150 KB comes from mmap at 16 mod 64,
//! and so did every clone of it (the DQN target net, each explorer's copy).
//! Measured on a 2-vCPU AVX-512F Xeon, one layer's forward pass (median of
//! nine repeats): 512→64 at batch 1 took 2.6 µs at 16 mod 64 and 1.45 µs
//! aligned, 1024→64 5.1 and 3.0 µs, and 512→64 at batch 500 about 440 and
//! 360 µs; the DQN net (512-64-64-9) at batch 32 took 31.5 and 25.7 µs.
//! Alignment changes no bit of any result.

use crate::kernel;
use crate::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hidden-layer activation function. Output layers are always linear; the
/// algorithms apply softmax or other heads themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Tanh => ops::tanh(v),
        }
    }
}

/// One cache line of floats, the unit [`Params`] is allocated in.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f32; 16]);

/// A flat `f32` buffer of `len` floats at the start of whole cache lines, so
/// its first element sits on a 64-byte boundary: an `Mlp`'s parameters, and
/// an `optim::Adam`'s two moment vectors.
#[derive(Clone)]
pub(crate) struct Params {
    lines: Vec<Line>,
    len: usize,
}

impl Params {
    pub(crate) fn zeroed(len: usize) -> Self {
        Params { lines: vec![Line([0.0; 16]); len.div_ceil(16)], len }
    }
}

impl std::ops::Deref for Params {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        // SAFETY: `Line` is `repr(C)` over `[f32; 16]` with size 64 and no
        // padding, so the lines are `16 × lines.len() ≥ len` contiguous,
        // initialised floats; the pointer is non-null and aligned even when
        // no line is allocated.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<f32>(), self.len) }
    }
}

impl std::ops::DerefMut for Params {
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `deref`, through the unique borrow of `lines`.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

impl std::fmt::Debug for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

#[derive(Debug, Clone, Copy)]
struct LayerLayout {
    input: usize,
    output: usize,
    w_off: usize,
    b_off: usize,
}

/// A fully-connected network: `sizes[0] -> sizes[1] -> ... -> sizes.last()`.
///
/// Hidden layers use the configured [`Activation`]; the output layer is
/// linear.
#[derive(Debug, Clone)]
pub struct Mlp {
    sizes: Vec<usize>,
    activation: Activation,
    layout: Vec<LayerLayout>,
    params: Params,
}

/// Reusable scratch arena that makes the forward/backward passes allocation-free.
///
/// One workspace serves one network at a time (per-layer buffers are resized
/// by [`Mlp::forward_ws`]); after the first pass at a given batch size every
/// subsequent `forward_ws`/`backward_ws` call performs **zero heap
/// allocations** — buffers only grow, never shrink, so varying batch sizes
/// settle at the high-water mark.
///
/// Lifetime rules: the activations cached by `forward_ws` stay valid until
/// the next `forward_ws` call on this workspace, and `backward_ws` must be
/// called with the same input and batch size as the `forward_ws` that
/// preceded it.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Activated output of layer `i`, sized `batch × layout[i].output`.
    acts: Vec<Vec<f32>>,
    /// Logical lengths of `acts` entries for the current batch (buffers keep
    /// their high-water capacity).
    acts_len: Vec<usize>,
    /// Ping-pong delta buffers for the backward pass.
    delta_a: Vec<f32>,
    delta_b: Vec<f32>,
    /// Pack panel for [`kernel::gemm_nt`].
    pack: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows buffers (never shrinks) to serve `net` at `batch` rows.
    fn ensure(&mut self, net: &Mlp, batch: usize) {
        if self.acts.len() < net.layout.len() {
            self.acts.resize_with(net.layout.len(), Vec::new);
        }
        self.acts_len.resize(net.layout.len(), 0);
        let mut max_width = 0usize;
        for (i, l) in net.layout.iter().enumerate() {
            let len = batch * l.output;
            if self.acts[i].len() < len {
                self.acts[i].resize(len, 0.0);
            }
            self.acts_len[i] = len;
            max_width = max_width.max(l.output);
        }
        let delta_len = batch * max_width;
        if self.delta_a.len() < delta_len {
            self.delta_a.resize(delta_len, 0.0);
            self.delta_b.resize(delta_len, 0.0);
        }
    }
}

impl Mlp {
    /// Builds a network with Xavier-uniform initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least an input and an output size");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut layout = Vec::with_capacity(sizes.len() - 1);
        let mut off = 0usize;
        for w in sizes.windows(2) {
            let (input, output) = (w[0], w[1]);
            layout.push(LayerLayout { input, output, w_off: off, b_off: off + input * output });
            off += input * output + output;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::zeroed(off);
        for l in &layout {
            let scale = (6.0 / (l.input + l.output) as f32).sqrt();
            for p in &mut params[l.w_off..l.w_off + l.input * l.output] {
                *p = rng.gen_range(-scale..=scale);
            }
            // Biases start at zero.
        }
        Mlp { sizes: sizes.to_vec(), activation, layout, params }
    }

    /// The layer sizes this network was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output feature count.
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().expect("at least two sizes")
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Flat parameter vector (weights then biases, layer by layer).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable flat parameter vector, for optimizers.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Replaces all parameters (e.g. applying a learner broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        self.params.copy_from_slice(params);
    }

    /// Weight slice of layer `l`.
    fn w(&self, l: &LayerLayout) -> &[f32] {
        &self.params[l.w_off..l.w_off + l.input * l.output]
    }

    /// Bias slice of layer `l`.
    fn b(&self, l: &LayerLayout) -> &[f32] {
        &self.params[l.b_off..l.b_off + l.output]
    }

    /// Fused forward for one layer: `out = act?(x × W + b)` in a single pass.
    fn layer_forward_into(&self, l: &LayerLayout, batch: usize, x: &[f32], activate: bool, out: &mut [f32]) {
        let act = if activate { Some(self.activation) } else { None };
        kernel::gemm_bias_act(batch, l.input, l.output, x, self.w(l), Some(self.b(l)), act, out);
    }

    /// Allocation-free forward pass: runs the network over `batch` rows of
    /// `x` (flat row-major, `batch × input_dim`), caching activations in
    /// `ws`, and returns the output slice (`batch × output_dim`).
    ///
    /// After warmup (first call at a given batch high-water mark) this
    /// performs zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * self.input_dim()`.
    pub fn forward_ws<'w>(&self, x: &[f32], batch: usize, ws: &'w mut Workspace) -> &'w [f32] {
        assert_eq!(x.len(), batch * self.input_dim(), "input width mismatch");
        ws.ensure(self, batch);
        let last = self.layout.len() - 1;
        for (idx, l) in self.layout.iter().enumerate() {
            // Split so the input (layer idx-1) and output (layer idx)
            // activation buffers can be borrowed disjointly.
            let (prev, rest) = ws.acts.split_at_mut(idx);
            let input: &[f32] = if idx == 0 { x } else { &prev[idx - 1][..ws.acts_len[idx - 1]] };
            let out = &mut rest[0][..ws.acts_len[idx]];
            self.layer_forward_into(l, batch, input, idx != last, out);
        }
        &ws.acts[last][..ws.acts_len[last]]
    }

    /// The network output cached in `ws` by the most recent
    /// [`Mlp::forward_ws`] call on this network with this `batch`. Lets
    /// multi-phase training steps (forward → global reduction → backward)
    /// reread the forward results without re-running the pass.
    ///
    /// # Panics
    ///
    /// Panics if `ws` has not served a `forward_ws` of at least this size.
    pub fn cached_output<'w>(&self, ws: &'w Workspace, batch: usize) -> &'w [f32] {
        let last = self.layout.len() - 1;
        &ws.acts[last][..batch * self.layout[last].output]
    }

    /// Allocation-free backward pass over the activations cached by the
    /// immediately preceding [`Mlp::forward_ws`] call with the same `x` and
    /// `batch`. Writes flat parameter gradients (aligned with
    /// [`Mlp::params`]) into caller-owned `grads`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches of `x`, `dout`, or `grads`.
    pub fn backward_ws(&self, x: &[f32], batch: usize, dout: &[f32], ws: &mut Workspace, grads: &mut [f32]) {
        assert_eq!(x.len(), batch * self.input_dim(), "input width mismatch");
        assert_eq!(dout.len(), batch * self.output_dim(), "dout shape mismatch");
        assert_eq!(grads.len(), self.params.len(), "grads length mismatch");
        let Workspace { acts, acts_len, delta_a, delta_b, pack } = ws;
        let last = self.layout.len() - 1;
        // Ping-pong: `cur` holds this layer's delta, `next` receives dX.
        let mut cur = delta_a;
        let mut next = delta_b;
        cur[..dout.len()].copy_from_slice(dout);
        for (idx, l) in self.layout.iter().enumerate().rev() {
            let n = batch * l.output;
            // For hidden layers `cur` holds dL/da; fold in the activation
            // derivative (in terms of the activated output) in place.
            if idx != last {
                kernel::act_grad_mul(self.activation, &mut cur[..n], &acts[idx][..n]);
            }
            let delta = &cur[..n];
            let input: &[f32] = if idx == 0 { x } else { &acts[idx - 1][..acts_len[idx - 1]] };
            // dW = inputᵀ × delta
            kernel::gemm_tn(batch, l.input, l.output, input, delta, &mut grads[l.w_off..l.w_off + l.input * l.output]);
            // db = column sums of delta
            kernel::col_sums_into(batch, l.output, delta, &mut grads[l.b_off..l.b_off + l.output]);
            if idx > 0 {
                // dX = delta × Wᵀ
                kernel::gemm_nt(batch, l.output, l.input, delta, self.w(l), pack, &mut next[..batch * l.input]);
                std::mem::swap(&mut cur, &mut next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(activation: Activation) {
        let mut net = Mlp::new(&[3, 5, 2], activation, 42);
        let mut ws = Workspace::new();
        let x = [0.5, -0.2, 0.1, -0.7, 0.3, 0.9];
        // Loss = sum of outputs, so dL/dout = ones.
        let mut grads = vec![0.0f32; net.num_params()];
        net.forward_ws(&x, 2, &mut ws);
        net.backward_ws(&x, 2, &[1.0; 4], &mut ws, &mut grads);
        let eps = 1e-3f32;
        for i in (0..net.num_params()).step_by(7) {
            let orig = net.params()[i];
            net.params_mut()[i] = orig + eps;
            let up: f32 = net.forward_ws(&x, 2, &mut ws).iter().sum();
            net.params_mut()[i] = orig - eps;
            let down: f32 = net.forward_ws(&x, 2, &mut ws).iter().sum();
            net.params_mut()[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 2e-2,
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        finite_diff_check(Activation::Tanh);
    }

    #[test]
    fn gradients_match_finite_differences_relu() {
        finite_diff_check(Activation::Relu);
    }

    #[test]
    fn params_round_trip() {
        let net = Mlp::new(&[4, 8, 2], Activation::Relu, 1);
        let mut other = Mlp::new(&[4, 8, 2], Activation::Relu, 2);
        assert_ne!(net.params(), other.params());
        other.set_params(net.params());
        assert_eq!(net.params(), other.params());
        let (mut ws_a, mut ws_b) = (Workspace::new(), Workspace::new());
        assert_eq!(net.forward_ws(&[1.0; 4], 1, &mut ws_a), other.forward_ws(&[1.0; 4], 1, &mut ws_b));
    }

    #[test]
    fn output_shape_and_determinism() {
        let net = Mlp::new(&[4, 16, 16, 3], Activation::Tanh, 9);
        let x = [1.0f32; 5 * 4];
        let mut ws = Workspace::new();
        let y1 = net.forward_ws(&x, 5, &mut ws).to_vec();
        let y2 = net.forward_ws(&x, 5, &mut ws);
        assert_eq!(y1.len(), 5 * 3);
        assert_eq!(y1, y2);
        assert_eq!(net.cached_output(&ws, 5), y1);
    }

    #[test]
    fn params_start_on_a_cache_line_after_new_clone_and_set_params() {
        let aligned = |net: &Mlp, what: &str| {
            let addr = net.params().as_ptr() as usize;
            assert_eq!(addr % 64, 0, "{:?} after {what}: params at {addr:#x}", net.sizes());
        };
        // The four benchmark nets (policy and value heads at both
        // observation widths) and a tiny one smaller than a cache line.
        for sizes in [[512, 64, 64, 9], [512, 64, 64, 1], [1024, 64, 64, 9], [1024, 64, 64, 1], [2, 3, 2, 1]] {
            let mut net = Mlp::new(&sizes, Activation::Tanh, 3);
            aligned(&net, "new");
            let copies: Vec<Mlp> = (0..4).map(|_| net.clone()).collect();
            for copy in &copies {
                aligned(copy, "clone");
                assert_eq!(copy.params(), net.params());
            }
            let other = Mlp::new(&sizes, Activation::Tanh, 4);
            net.set_params(other.params());
            aligned(&net, "set_params");
            assert_eq!(net.params(), other.params());
        }
    }

    #[test]
    fn same_seed_same_network() {
        let a = Mlp::new(&[2, 4, 1], Activation::Relu, 77);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, 77);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn training_reduces_loss_on_regression() {
        use crate::optim::Adam;
        // Fit y = [x0 + x1, x0 - x1] on random points.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(&[2, 32, 2], Activation::Tanh, 5);
        let mut opt = Adam::new(net.num_params(), 1e-2);
        let mut ws = Workspace::new();
        let mut grads = vec![0.0f32; net.num_params()];
        let mut dout = [0.0f32; 32];
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            let x: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let t: Vec<f32> = x.chunks(2).flat_map(|r| [r[0] + r[1], r[0] - r[1]]).collect();
            // Mean squared error and its gradient w.r.t. the outputs.
            let out = net.forward_ws(&x, 16, &mut ws);
            let mut loss = 0.0;
            for ((g, &p), &t) in dout.iter_mut().zip(out).zip(&t) {
                let d = p - t;
                loss += d * d / 32.0;
                *g = 2.0 * d / 32.0;
            }
            net.backward_ws(&x, 16, &dout, &mut ws, &mut grads);
            opt.step(net.params_mut(), &grads);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.1,
            "loss should drop 10x: {} -> {last_loss}",
            first_loss.unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "at least an input and an output")]
    fn one_size_rejected() {
        let _ = Mlp::new(&[4], Activation::Relu, 0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let net = Mlp::new(&[4, 2], Activation::Relu, 0);
        let _ = net.forward_ws(&[1.0; 3], 1, &mut Workspace::new());
    }
}
