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

/// Constructs one of the five benchmark environments by name.
///
/// Recognized names: `CartPole`, `MountainCar`, `BeamRider`, `Breakout`,
/// `Qbert`, `SpaceInvaders` (case-insensitive).
///
/// # Errors
///
/// Returns an error string listing valid names if `name` is unknown.
pub fn make_env(name: &str, seed: u64) -> Result<Box<dyn Environment>, String> {
    match name.to_ascii_lowercase().as_str() {
        "cartpole" => Ok(Box::new(CartPole::new(seed))),
        "mountaincar" => Ok(Box::new(MountainCar::new(seed))),
        "beamrider" => Ok(Box::new(SynthAtari::game(AtariGame::BeamRider, seed))),
        "breakout" => Ok(Box::new(SynthAtari::game(AtariGame::Breakout, seed))),
        "qbert" => Ok(Box::new(SynthAtari::game(AtariGame::Qbert, seed))),
        "spaceinvaders" => Ok(Box::new(SynthAtari::game(AtariGame::SpaceInvaders, seed))),
        _ => Err(format!(
            "unknown environment `{name}` (expected CartPole, MountainCar, BeamRider, Breakout, Qbert, or SpaceInvaders)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_env_builds_all_five() {
        for name in ["CartPole", "MountainCar", "BeamRider", "Breakout", "Qbert", "SpaceInvaders"] {
            let mut env = make_env(name, 0).unwrap();
            let obs = env.reset();
            assert_eq!(obs.len(), env.observation_dim(), "{name}");
            assert!(env.num_actions() >= 2, "{name}");
        }
    }

    #[test]
    fn make_env_rejects_unknown() {
        assert!(make_env("Pong", 0).is_err());
    }
}
