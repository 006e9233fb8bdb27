//! First-order optimizers operating on flat parameter/gradient slices.
//!
//! [`Adam::step`] is one pass of the kernel module's FMA lane family
//! ([`kernel::adam`]): CPUID picks the instantiation, the portable loop is
//! the reference, and every implementation stores the same bits. The pass
//! flushes a moment below `f32::MIN_POSITIVE` to `+0.0`, so no dead unit's
//! decaying moment drags the step through microcode assists; the step's
//! docs derive why that changes a parameter's bits only where
//! `|p| ≤ 2⁻⁸²` (at `lr = 1e-3`).

use crate::kernel::{self, AdamStep};
use crate::mlp::Params;

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    num_params: usize,
}

impl Sgd {
    /// Plain SGD with learning rate `lr` for `num_params` parameters.
    pub fn new(num_params: usize, lr: f32) -> Self {
        Sgd { lr, num_params }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (e.g. for schedules or PBT mutation).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update: `params -= lr * grads`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `num_params`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.num_params, "param count mismatch");
        assert_eq!(grads.len(), self.num_params, "grad count mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
///
/// Its moments live on 64-byte lines, like an [`crate::Mlp`]'s parameters,
/// so the step's vector loads of `m` and `v` never split a line.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Params,
    v: Params,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999) and epsilon 1e-8.
    pub fn new(num_params: usize, lr: f32) -> Self {
        let (m, v) = (Params::zeroed(num_params), Params::zeroed(num_params));
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m, v }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The step count and the first and second moments: with the
    /// hyperparameters, everything the next [`Adam::step`] reads.
    pub fn moments(&self) -> (u64, &[f32], &[f32]) {
        (self.t, &self.m, &self.v)
    }

    /// Restores what [`Adam::moments`] returned, so the next step is the one
    /// that optimizer would have taken.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `v` disagrees with `num_params`.
    pub fn set_moments(&mut self, t: u64, m: &[f32], v: &[f32]) {
        self.t = t;
        self.m.copy_from_slice(m);
        self.v.copy_from_slice(v);
    }

    /// Applies one Adam update.
    ///
    /// Per parameter this is one square root and one division,
    /// `p -= step · m / (sqrt(v) · r + eps)` with `step = lr / (1 − β₁ᵗ)` and
    /// `r = 1 / sqrt(1 − β₂ᵗ)` computed once per call: the textbook
    /// `lr · m̂ / (sqrt(v̂) + eps)` with its two bias-correction divisions
    /// folded into scalars. The loop is bound by the divider, not by vector
    /// width, so this form takes a little over half the time of the textbook
    /// one (`adam_step_70k_params`: 76 → 42 µs at 70 345 parameters on a
    /// 2-vCPU AVX-512F Xeon). It is one pass, [`kernel::adam`], on the FMA
    /// lane family's AVX2 instantiation where the CPU has it, with no
    /// approximate `rsqrt`/`rcp` and no fused multiply-add, so the bits are
    /// the same on every ISA. The powers take the step count saturated at
    /// `i32::MAX`; both are exactly 0.0 in f32 long before (β₁ᵗ from
    /// t ≈ 980, β₂ᵗ from t ≈ 103 000), so the saturation moves no bit, and a
    /// count past 2³¹ no longer wraps the exponent negative.
    ///
    /// **Subnormal flush.** A moment below `f32::MIN_POSITIVE` in magnitude
    /// is stored as `+0.0`, explicitly, in this pass and on every ISA. A
    /// dead ReLU unit's gradient is exactly zero, so its `m` decays by β₁ a
    /// step into the subnormal range and stays there (`0.9 · 2⁻¹⁴⁹` rounds
    /// back to `2⁻¹⁴⁹`), and on x86 each vector touching one takes a
    /// microcode assist. In `dqn_replay` the 37 577-parameter step took a
    /// median 48 µs of thread CPU per session with 74–500 subnormal first
    /// moments, and takes 21 µs with the flush.
    ///
    /// The flush is bounded. A flushed first moment has `|m| < 2⁻¹²⁶`,
    /// `step ≤ lr / (1 − β₁) = 10·lr` (at t = 1) and the denominator is at
    /// least `eps = 1e-8`, so at `lr = 1e-3` its term `step·m / (…)` is
    /// under `10⁻² · 2⁻¹²⁶ / 10⁻⁸ = 10⁶ · 2⁻¹²⁶ < 2⁻¹⁰⁶`. Subtracting that
    /// from `p` moves `p`'s bits only if it reaches half the gap to `p`'s
    /// neighbour, which for `2⁻⁸² < |p| < 2⁻⁸¹` is `2⁻¹⁰⁶` (the ulp there is
    /// `2⁻¹⁰⁵`) and above that is larger; so the flush changes a parameter's
    /// bits only where `|p| ≤ 2⁻⁸²`. A flushed second moment has
    /// `sqrt(v)·r < 2⁻⁶³ · 2⁵` (`r ≤ 1/sqrt(0.001) < 2⁵`), under half an ulp
    /// of `eps` (2⁻⁵¹), so that step's denominator is the one the unflushed
    /// `v` gives. What either flush carries into later moments is below
    /// `2⁻¹²⁶` and decays by β a step. MXCSR's FTZ/DAZ bits would flush
    /// without this bound: they are per-thread state the learner, pool and
    /// test threads would all have to set alike, and they would change the
    /// forward-pass bits the explorers and the serve fleet share with the
    /// learner.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `num_params`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        let n = self.m.len();
        assert_eq!(params.len(), n, "param count mismatch");
        assert_eq!(grads.len(), n, "grad count mismatch");
        assert_eq!(self.v.len(), n, "second-moment count mismatch");
        self.t += 1;
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let step = self.lr / (1.0 - beta1.powi(t));
        let r = 1.0 / (1.0 - beta2.powi(t)).sqrt();
        kernel::adam(&AdamStep { beta1, beta2, eps, step, r }, params, grads, &mut self.m, &mut self.v);
    }
}

/// `Σ x²` in 16 fixed lanes (element `i` goes to lane `i mod 16`), then
/// reduced by halving the lane count. The order depends only on the length,
/// so the bits do not depend on the ISA or on where the slice starts, and
/// the 16 independent chains vectorise where one serial chain could not
/// (`clip_global_norm_70k_params`: 48 → 16 µs on a 2-vCPU AVX-512F Xeon).
fn sum_of_squares(xs: &[f32]) -> f32 {
    const LANES: usize = 16;
    let mut acc = [0.0f32; LANES];
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += x * x;
        }
    }
    for (a, &x) in acc.iter_mut().zip(tail) {
        *a += x * x;
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            acc[i] += acc[i + width];
        }
    }
    acc[0]
}

/// Clips the gradient to a maximum global L2 norm, in place. Returns the
/// pre-clip norm. Standard stabilization for IMPALA/PPO training.
pub fn clip_global_norm(grads: &mut [f32], max_norm: f32) -> f32 {
    let norm = sum_of_squares(grads).sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(2, 0.1);
        let mut p = vec![1.0f32, -1.0];
        opt.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, -0.9]);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(x) = (x - 3)^2 starting from 0.
        let mut opt = Adam::new(1, 0.1);
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "got {}", p[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut opt = Adam::new(1, 0.01);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[123.0]);
        // With bias correction the first step is ≈ lr regardless of grad scale.
        assert!((p[0] + 0.01).abs() < 1e-4);
    }

    #[test]
    fn restored_moments_take_the_same_next_step() {
        let mut a = Adam::new(2, 0.01);
        let mut p = vec![0.5f32, -0.5];
        for g in [[1.0, -2.0], [0.3, 0.1], [-0.7, 0.4]] {
            a.step(&mut p, &g);
        }
        let (t, m, v) = a.moments();
        let mut b = Adam::new(2, 0.01);
        b.set_moments(t, m, v);
        let mut q = p.clone();
        a.step(&mut p, &[0.2, -0.9]);
        b.step(&mut q, &[0.2, -0.9]);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p), bits(&q));
    }

    /// A step count past `i32::MAX` (a restored state can carry one) takes
    /// the bias corrections' limit, 1, instead of wrapping the exponent
    /// negative and turning every parameter into NaN.
    #[test]
    fn a_step_count_past_i32_max_does_not_wrap() {
        let mut opt = Adam::new(2, 0.01);
        let mut p = vec![0.5f32, -0.5];
        opt.set_moments((1 << 31) - 1, &[0.1, -0.2], &[0.01, 0.04]);
        opt.step(&mut p, &[1.0, -1.0]);
        assert!(p.iter().all(|x| x.is_finite()), "{p:?}");
        assert_eq!(opt.moments().0, 1 << 31);
        let mut q = vec![0.5f32, -0.5];
        let mut late = Adam::new(2, 0.01);
        late.set_moments(u64::MAX - 1, &[0.1, -0.2], &[0.01, 0.04]);
        late.step(&mut q, &[1.0, -1.0]);
        assert_eq!(p, q, "every count from 2^31 on saturates to the same step");
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let mut g = vec![3.0f32, 4.0]; // norm 5
        let norm = clip_global_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let new_norm = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_global_norm_leaves_small_grads() {
        let mut g = vec![0.1f32, 0.1];
        clip_global_norm(&mut g, 10.0);
        assert_eq!(g, vec![0.1, 0.1]);
    }

    #[test]
    #[should_panic(expected = "param count mismatch")]
    fn sgd_size_mismatch_panics() {
        let mut opt = Sgd::new(2, 0.1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[0.0]);
    }
}
