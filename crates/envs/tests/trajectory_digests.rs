//! SynthAtari trajectories are pinned bit for bit across commits.
//!
//! Every explorer-side workload and every Atari experiment consumes these
//! bits, so an optimization of `SynthAtari::step` or `reset` must leave them
//! unchanged. Each case is one game at one observation size, driven from a
//! fixed instance seed by a fixed action sequence long enough to cross at
//! least three `reset`s; the digest folds in every observation (the resets'
//! included), every reward and every `done` flag. Sizes 17 and 100 leave a
//! ragged last chunk when the frame is expanded in latent-wide chunks.
//!
//! The digests were recorded on the row-serial transition and the
//! `texture[i] * latent[i % l]` expansion, and hold unchanged on the
//! transposed, lane-parallel transition and the chunked expansion that
//! replaced them.

use gymlite::{AtariGame, Environment, SynthAtari};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GAMES: [AtariGame; 4] =
    [AtariGame::BeamRider, AtariGame::Breakout, AtariGame::Qbert, AtariGame::SpaceInvaders];
const OBS_DIMS: [usize; 6] = [16, 17, 100, 512, 1024, 7056];
const STEPS: usize = 2500;

/// FNV-1a over 32-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u32) {
        self.0 = (self.0 ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u32);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Digest of one trajectory and the number of `reset`s it crossed.
fn trajectory(game: AtariGame, obs_dim: usize) -> (u64, usize) {
    let cfg = game.config().with_obs_dim(obs_dim).with_step_latency_us(0);
    let mut env = SynthAtari::with_config(cfg, 12);
    let mut actions = StdRng::seed_from_u64(0x5EED ^ obs_dim as u64);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    digest.floats(&env.reset());
    let mut resets = 0;
    for _ in 0..STEPS {
        let step = env.step(actions.gen_range(0..env.num_actions()));
        digest.floats(&step.observation);
        digest.word(step.reward.to_bits());
        digest.word(u32::from(step.done));
        if step.done {
            digest.floats(&env.reset());
            resets += 1;
        }
    }
    (digest.0, resets)
}

#[test]
fn trajectories_match_their_pinned_digests() {
    // Rows follow GAMES, columns OBS_DIMS.
    let pinned: [[u64; 6]; 4] = [
        [
            0xebd1b1b7b293394f,
            0xe229a403bd0b6102,
            0x78464341102fe0f3,
            0xac1cdcb69908d121,
            0x469800d0bcdda48e,
            0xf4923c6d4c910b29,
        ],
        [
            0x1cd5ccb271403cf3,
            0xb06f1accb4a0c53e,
            0x34ce54825dcf6b1d,
            0x0d2522105d28098b,
            0x92dbf2420284b1d8,
            0x7270531fbe0c59ba,
        ],
        [
            0x8cb9ce7bfbd04aa4,
            0xfacfedb5a64d63ef,
            0x61d92afd629a16c9,
            0xe276c551c3702d9e,
            0x4b64771feb66d281,
            0x49e8a6f5fe100901,
        ],
        [
            0xdc253514ac55d573,
            0x6ef7625352078afb,
            0xc56c62be42771621,
            0xc4af2e3fc142c1cc,
            0x9a188478ad8cca86,
            0x0bf2f4bdaf646689,
        ],
    ];
    let mut mismatches = Vec::new();
    for (g, game) in GAMES.into_iter().enumerate() {
        for (d, obs_dim) in OBS_DIMS.into_iter().enumerate() {
            let (digest, resets) = trajectory(game, obs_dim);
            assert!(resets >= 3, "{game:?} at {obs_dim}: only {resets} resets in {STEPS} steps");
            if digest != pinned[g][d] {
                mismatches.push(format!("{game:?} at {obs_dim}: {digest:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "trajectory digests moved:\n{}", mismatches.join("\n"));
}
