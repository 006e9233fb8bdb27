//! First-order optimizers operating on flat parameter/gradient slices.

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
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999) and epsilon 1e-8.
    pub fn new(num_params: usize, lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: vec![0.0; num_params], v: vec![0.0; num_params] }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one Adam update.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `num_params`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Clips the gradient to a maximum global L2 norm, in place. Returns the
/// pre-clip norm. Standard stabilization for IMPALA/PPO training.
pub fn clip_global_norm(grads: &mut [f32], max_norm: f32) -> f32 {
    let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
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
