//! DQN at the `dqn_replay` benchmark's shape leaves no subnormal optimizer
//! moment: a dead ReLU unit's gradient is exactly zero, so its first moment
//! decays by β₁ a session and, before `Adam::step` flushed moments below
//! `f32::MIN_POSITIVE`, sat in the subnormal range (down to the smallest
//! subnormal, where `0.9 · 2⁻¹⁴⁹` rounds back to itself) from about session
//! 700 on. On x86 every vector of the step that touched one took a
//! microcode assist.

use gymlite::{AtariGame, Environment, SynthAtari};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::RolloutStep;
use xingtian_algos::{DqnAlgorithm, DqnConfig};

/// `n` SynthAtari BeamRider transitions at 512 observation floats under
/// uniformly random actions (an explorer's ε = 1 warm-up), seeded.
fn experience(n: usize, seed: u64) -> Vec<RolloutStep> {
    let config = AtariGame::BeamRider.config().with_obs_dim(512).with_step_latency_us(0);
    let mut env = SynthAtari::with_config(config, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut observation = env.reset();
    (0..n)
        .map(|_| {
            let action = rng.gen_range(0..env.num_actions());
            let step = env.step(action);
            let next = if step.done { env.reset() } else { step.observation.clone() };
            RolloutStep {
                observation: std::mem::replace(&mut observation, next),
                action: action as u32,
                reward: step.reward,
                done: step.done,
                behavior_logits: Vec::new(),
                value: 0.0,
                next_observation: (!step.done).then_some(step.observation),
            }
        })
        .collect()
}

/// 1 500 sessions of `dqn_replay`'s learner (512-64-64-9 ReLU Q-net, batch
/// 32, lr 1e-3, seed 12) on uniformly sampled experience, through
/// `train_on_steps`; then the saved state's Adam moments hold no subnormal.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1 500 sessions of a 37 577-parameter net: under a second optimised, 18 s not; ci.sh runs it in release"
)]
fn dqn_replay_shaped_training_leaves_no_subnormal_moment() {
    let seed = 12;
    let replay = experience(4_096, seed);
    let mut config = DqnConfig::new(512, 9);
    config.seed = seed;
    assert_eq!((config.hidden.as_slice(), config.batch_size, config.lr), (&[64, 64][..], 32, 1e-3));
    let mut dqn = DqnAlgorithm::new(config);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..1_500 {
        let batch: Vec<RolloutStep> = (0..32).map(|_| replay[rng.gen_range(0..replay.len())].clone()).collect();
        dqn.train_on_steps(&batch);
    }
    let state = dqn.save_state();
    let [opt] = state.optimizers.as_slice() else { panic!("DQN has one optimizer") };
    let subnormal = |xs: &[f32]| xs.iter().filter(|x| x.is_subnormal()).count();
    let zeros = opt.m.iter().filter(|&&x| x == 0.0).count();
    println!("after {} steps: {zeros} of {} first moments are zero", opt.step, opt.m.len());
    assert_eq!((subnormal(&opt.m), subnormal(&opt.v)), (0, 0), "subnormal (first, second) moments");
}
