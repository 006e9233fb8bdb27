//! Gym-style environments for the XingTian reproduction.
//!
//! The paper evaluates with one classic-control environment (CartPole) and
//! four Atari games (BeamRider, Breakout, Qbert, SpaceInvaders). This crate
//! provides:
//!
//! * [`env::Environment`] — the gym-style trait (`reset` / `step`) that the
//!   framework's `Environment` wrapper class (paper §4.2) exposes;
//! * [`cartpole::CartPole`] — a faithful implementation of the classic
//!   cart-pole physics (identical dynamics to OpenAI Gym's `CartPole-v1`);
//! * [`synth_atari::SynthAtari`] — synthetic Atari-like environments. The real
//!   Arcade Learning Environment cannot be bundled, so each game is replaced
//!   by a parameterized MDP whose observation size matches a downsampled Atari
//!   frame (84×84 = 7056 floats ≈ 28 KB, giving the paper's rollout message
//!   sizes), whose reward structure is *learnable* (returns genuinely improve
//!   with training), and whose per-game reward scales mimic the published
//!   magnitudes. See DESIGN.md §2 for the substitution argument.
//! * [`stats::EpisodeTracker`] — episode-return statistics used for the
//!   convergence figures.
//!
//! # Examples
//!
//! ```
//! use gymlite::{CartPole, Environment};
//!
//! let mut env = CartPole::new(0);
//! let obs = env.reset();
//! assert_eq!(obs.len(), 4);
//! let step = env.step(1);
//! assert!(!step.done || step.reward >= 0.0);
//! ```

pub mod cartpole;
pub mod env;
pub mod mountain_car;
pub mod stats;
pub mod synth_atari;

pub use cartpole::CartPole;
pub use env::{Environment, StepResult};
pub use mountain_car::MountainCar;
pub use stats::EpisodeTracker;
pub use synth_atari::{AtariGame, SynthAtari, SynthAtariConfig};
