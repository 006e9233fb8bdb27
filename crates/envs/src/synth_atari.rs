//! Synthetic Atari-like environments.
//!
//! The Arcade Learning Environment cannot be bundled with this reproduction,
//! so each of the four games in the paper's evaluation is replaced by a
//! parameterized synthetic MDP that preserves the properties the experiments
//! depend on:
//!
//! * **Message sizes** — observations default to 84×84 = 7056 floats
//!   (≈ 28 KB), so 500-step rollout messages weigh ≈ 14 MB, matching the
//!   IMPALA row of the paper's Table 1.
//! * **Learnability** — a hidden low-dimensional latent state evolves
//!   linearly (plus tanh squashing); the reward of each action is a fixed
//!   linear function of the latent, so value- and policy-based algorithms can
//!   genuinely improve returns. All instances of the same game share the same
//!   hidden dynamics (derived from the game, not the instance seed), so
//!   experience gathered by parallel explorers transfers.
//! * **Reward scales** — per-game reward multipliers mimic the magnitude of
//!   published Atari scores (BeamRider in the thousands, Breakout in the
//!   tens, etc.), so convergence plots look like the paper's Fig. 6.
//! * **Episode structure** — a lives mechanic ends episodes after repeated
//!   bad actions, giving random policies short episodes and trained policies
//!   long ones.
//!
//! With the emulation sleep off, a step costs its arithmetic: `obs_dim`
//! multiplies to expand the frame, `latent_dim²` multiply-adds and
//! `latent_dim` `tanh`s for the latent transition, and one allocation, the
//! observation it returns.

use crate::env::{Environment, StepResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four Atari games of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtariGame {
    /// 9-action space shooter; scores in the thousands.
    BeamRider,
    /// 4-action paddle game; scores in the tens to hundreds.
    Breakout,
    /// 6-action arcade platformer; scores in the thousands.
    Qbert,
    /// 6-action fixed shooter; scores in the hundreds.
    SpaceInvaders,
}

impl AtariGame {
    /// The game's canonical configuration.
    pub fn config(self) -> SynthAtariConfig {
        match self {
            AtariGame::BeamRider => SynthAtariConfig {
                name: "BeamRider".into(),
                num_actions: 9,
                reward_scale: 60.0,
                dynamics_seed: 0xBEA7,
                ..SynthAtariConfig::default()
            },
            AtariGame::Breakout => SynthAtariConfig {
                name: "Breakout".into(),
                num_actions: 4,
                reward_scale: 1.5,
                dynamics_seed: 0xB4EA,
                ..SynthAtariConfig::default()
            },
            AtariGame::Qbert => SynthAtariConfig {
                name: "Qbert".into(),
                num_actions: 6,
                reward_scale: 55.0,
                dynamics_seed: 0x0BE7,
                ..SynthAtariConfig::default()
            },
            AtariGame::SpaceInvaders => SynthAtariConfig {
                name: "SpaceInvaders".into(),
                num_actions: 6,
                reward_scale: 8.0,
                dynamics_seed: 0x51AC,
                ..SynthAtariConfig::default()
            },
        }
    }
}

/// Configuration of a synthetic Atari-like environment.
#[derive(Debug, Clone)]
pub struct SynthAtariConfig {
    /// Display name.
    pub name: String,
    /// Observation vector length (default 84×84 = 7056, a downsampled frame).
    pub obs_dim: usize,
    /// Hidden latent-state dimension.
    pub latent_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hard episode-length cap.
    pub max_steps: u32,
    /// Multiplier applied to raw rewards, setting the game's score scale.
    pub reward_scale: f32,
    /// Probability of losing a life on a negatively-rewarded step.
    pub hazard: f64,
    /// Lives per episode.
    pub lives: u32,
    /// Seed for the *shared* game dynamics (same for all instances of a game).
    pub dynamics_seed: u64,
    /// Emulation time per step in microseconds, modeled as a sleep. A real
    /// ALE step with frame-skip 4 takes on the order of a millisecond; using
    /// sleep (idle) time rather than busy CPU lets one host interleave many
    /// explorers the way the paper's 72-core testbed ran them in parallel
    /// (the same substitution `netsim` makes for the NIC). Set to 0 for pure
    /// CPU-bound micro-tests.
    pub step_latency_us: u64,
}

impl Default for SynthAtariConfig {
    fn default() -> Self {
        SynthAtariConfig {
            name: "SynthAtari".into(),
            obs_dim: 84 * 84,
            latent_dim: 16,
            num_actions: 6,
            max_steps: 1000,
            reward_scale: 1.0,
            hazard: 0.02,
            lives: 3,
            dynamics_seed: 7,
            step_latency_us: 1000,
        }
    }
}

impl SynthAtariConfig {
    /// Shrinks the observation to `dim` (useful for fast unit tests).
    pub fn with_obs_dim(mut self, dim: usize) -> Self {
        assert!(dim >= self.latent_dim, "observation must fit the latent state");
        self.obs_dim = dim;
        self
    }

    /// Sets the per-step emulation latency in microseconds (0 disables it).
    pub fn with_step_latency_us(mut self, us: u64) -> Self {
        self.step_latency_us = us;
        self
    }
}

/// A synthetic Atari-like environment. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct SynthAtari {
    config: SynthAtariConfig,
    /// Latent transition matrix A (latent_dim × latent_dim), spectral-norm
    /// damped, stored transposed: row `j` holds column `j` of A, the weights
    /// of `latent[j]` in every next-state channel.
    dynamics_t: Vec<f32>,
    /// Per-action drift vectors (num_actions × latent_dim).
    action_drift: Vec<f32>,
    /// Per-action reward vectors (num_actions × latent_dim).
    reward_vectors: Vec<f32>,
    /// Fixed texture used to expand the latent into the full observation.
    texture: Vec<f32>,
    latent: Vec<f32>,
    /// Scratch for the transition's row sums `A s` (latent_dim).
    row_sums: Vec<f32>,
    steps: u32,
    lives_left: u32,
    done: bool,
    rng: StdRng,
}

impl SynthAtari {
    /// Creates one of the four benchmark games.
    pub fn game(game: AtariGame, seed: u64) -> Self {
        SynthAtari::with_config(game.config(), seed)
    }

    /// Creates an environment from an explicit configuration. `seed` controls
    /// only per-instance noise; the hidden dynamics come from
    /// `config.dynamics_seed` so parallel instances share them.
    pub fn with_config(config: SynthAtariConfig, seed: u64) -> Self {
        let l = config.latent_dim;
        assert!(config.obs_dim >= l, "observation must fit the latent state");
        let mut dyn_rng = StdRng::seed_from_u64(config.dynamics_seed);
        // Drawn row by row of A, stored column by column.
        let mut dynamics_t = vec![0.0f32; l * l];
        for i in 0..l {
            for j in 0..l {
                dynamics_t[j * l + i] = dyn_rng.gen_range(-1.0..1.0) / (l as f32).sqrt();
            }
        }
        let mut action_drift = vec![0.0f32; config.num_actions * l];
        for v in &mut action_drift {
            *v = dyn_rng.gen_range(-0.5..0.5);
        }
        let mut reward_vectors = vec![0.0f32; config.num_actions * l];
        for v in &mut reward_vectors {
            *v = dyn_rng.gen_range(-1.0..1.0);
        }
        let mut texture = vec![0.0f32; config.obs_dim];
        for (i, v) in texture.iter_mut().enumerate() {
            // Deterministic, cheap pseudo-texture in [-1, 1].
            let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ config.dynamics_seed;
            *v = ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
        }
        SynthAtari {
            latent: vec![0.0; l],
            row_sums: vec![0.0; l],
            steps: 0,
            lives_left: 0,
            done: true,
            rng: StdRng::seed_from_u64(seed ^ 0xA7A21),
            config,
            dynamics_t,
            action_drift,
            reward_vectors,
            texture,
        }
    }

    /// The environment's configuration.
    pub fn config(&self) -> &SynthAtariConfig {
        &self.config
    }

    /// Raw (unscaled) reward of `action` in the current latent state. The
    /// optimal policy picks the argmax over actions; exposed so tests and
    /// oracle baselines can compute the ceiling.
    pub fn action_value(&self, action: usize) -> f32 {
        let l = self.config.latent_dim;
        let rv = &self.reward_vectors[action * l..(action + 1) * l];
        rv.iter().zip(&self.latent).map(|(a, b)| a * b).sum::<f32>() / l as f32
    }

    fn observation(&self) -> Vec<f32> {
        let l = self.config.latent_dim;
        let mut obs = Vec::with_capacity(self.config.obs_dim);
        obs.extend_from_slice(&self.latent);
        // Expand the latent over the rest of the frame: texel `i` modulates
        // latent channel `i % l`, so each `l`-wide chunk of the texture is
        // zipped with the latent (the zip stops at a ragged last chunk).
        // Linear in the latent, so the structure stays learnable; the frame
        // costs one multiply per texel and its one allocation.
        for chunk in self.texture[l..].chunks(l) {
            obs.extend(chunk.iter().zip(&self.latent).map(|(t, x)| t * x));
        }
        obs
    }
}

impl Environment for SynthAtari {
    fn observation_dim(&self) -> usize {
        self.config.obs_dim
    }

    fn num_actions(&self) -> usize {
        self.config.num_actions
    }

    fn reset(&mut self) -> Vec<f32> {
        for v in &mut self.latent {
            *v = self.rng.gen_range(-1.0..1.0);
        }
        self.steps = 0;
        self.lives_left = self.config.lives;
        self.done = false;
        self.observation()
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(action < self.config.num_actions, "action {action} out of range");
        assert!(!self.done, "step called on a finished episode; call reset first");
        if self.config.step_latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.config.step_latency_us));
        }
        let l = self.config.latent_dim;
        let raw = self.action_value(action);
        let reward = raw.max(0.0) * self.config.reward_scale;
        if raw < 0.0 && self.rng.gen_bool(self.config.hazard) {
            self.lives_left -= 1;
        }
        // Latent transition: s' = tanh(A s + drift_a + noise). The row sums
        // of `A s` advance together, one column of A per latent channel, but
        // each is still its own chain over `j` in order from -0.0 (the exact
        // additive identity), so every sum has the bits of a row-serial dot
        // product. The noise is drawn in row order.
        self.row_sums.fill(-0.0);
        for (col, &x) in self.dynamics_t.chunks_exact(l).zip(&self.latent) {
            for (acc, &a) in self.row_sums.iter_mut().zip(col) {
                *acc += a * x;
            }
        }
        let drift = &self.action_drift[action * l..(action + 1) * l];
        for ((v, &d), &sum) in self.latent.iter_mut().zip(drift).zip(&self.row_sums) {
            *v = (d + sum + self.rng.gen_range(-0.1..0.1)).tanh();
        }
        self.steps += 1;
        self.done = self.lives_left == 0 || self.steps >= self.config.max_steps;
        StepResult { observation: self.observation(), reward, done: self.done }
    }

    fn name(&self) -> &str {
        &self.config.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(game: AtariGame, seed: u64) -> SynthAtari {
        SynthAtari::with_config(game.config().with_obs_dim(32).with_step_latency_us(0), seed)
    }

    #[test]
    fn observation_sizes_match_frames() {
        let env = SynthAtari::game(AtariGame::Breakout, 0);
        assert_eq!(env.observation_dim(), 7056);
    }

    #[test]
    fn action_counts_match_games() {
        assert_eq!(tiny(AtariGame::BeamRider, 0).num_actions(), 9);
        assert_eq!(tiny(AtariGame::Breakout, 0).num_actions(), 4);
        assert_eq!(tiny(AtariGame::Qbert, 0).num_actions(), 6);
        assert_eq!(tiny(AtariGame::SpaceInvaders, 0).num_actions(), 6);
    }

    #[test]
    fn oracle_policy_beats_random() {
        let mut env = tiny(AtariGame::SpaceInvaders, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let episodes = 20;
        let mut random_return = 0.0;
        for _ in 0..episodes {
            env.reset();
            loop {
                let r = env.step(rng.gen_range(0..env.num_actions()));
                random_return += r.reward;
                if r.done {
                    break;
                }
            }
        }
        let mut oracle_return = 0.0;
        for _ in 0..episodes {
            env.reset();
            loop {
                let best = (0..env.num_actions())
                    .max_by(|&a, &b| {
                        env.action_value(a).partial_cmp(&env.action_value(b)).unwrap()
                    })
                    .unwrap();
                let r = env.step(best);
                oracle_return += r.reward;
                if r.done {
                    break;
                }
            }
        }
        assert!(
            oracle_return > random_return * 1.5,
            "oracle {oracle_return} should clearly beat random {random_return}"
        );
    }

    #[test]
    fn instances_share_game_dynamics() {
        let a = tiny(AtariGame::Qbert, 1);
        let b = tiny(AtariGame::Qbert, 999);
        assert_eq!(a.dynamics_t, b.dynamics_t);
        assert_eq!(a.reward_vectors, b.reward_vectors);
    }

    #[test]
    fn different_games_have_different_dynamics() {
        let a = tiny(AtariGame::Qbert, 1);
        let b = tiny(AtariGame::Breakout, 1);
        assert_ne!(a.reward_vectors, b.reward_vectors);
    }

    #[test]
    fn episodes_terminate() {
        let mut env = tiny(AtariGame::Breakout, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..5 {
            env.reset();
            let mut steps = 0;
            loop {
                let r = env.step(rng.gen_range(0..env.num_actions()));
                steps += 1;
                if r.done {
                    break;
                }
            }
            assert!(steps <= env.config().max_steps);
        }
    }

    #[test]
    fn observation_embeds_latent_linearly() {
        let mut env = tiny(AtariGame::Qbert, 3);
        let obs = env.reset();
        let l = env.config().latent_dim;
        for i in l..obs.len() {
            let expect = env.texture[i] * obs[i % l];
            assert!((obs[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn rewards_are_scaled_per_game() {
        // BeamRider-scale rewards should dwarf Breakout-scale ones for the
        // same latent magnitude.
        assert!(AtariGame::BeamRider.config().reward_scale > 10.0 * AtariGame::Breakout.config().reward_scale);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_action_panics() {
        let mut env = tiny(AtariGame::Breakout, 0);
        env.reset();
        let _ = env.step(99);
    }
}
