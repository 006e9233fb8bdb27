//! Every rollout batch an algorithm is given comes back from `take_spent`
//! exactly once, whether it was trained, shed, discarded as stale or copied
//! into a replay store: handing a batch back is what answers the explorer
//! that sent it, so a batch kept is an explorer left waiting and a batch
//! returned twice is an answer to a rollout never sent.

use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{
    A2cAlgorithm, A2cConfig, DqnAlgorithm, DqnConfig, ImpalaAlgorithm, ImpalaConfig, PpoAlgorithm,
    PpoConfig, ReinforceAlgorithm, ReinforceConfig,
};

const DIM: usize = 3;
const NA: usize = 2;
const LEN: usize = 8;

/// One move of a row's script.
#[derive(Clone, Copy)]
enum Op {
    /// A batch tagged `tag` (its `explorer` field), at the learner's current
    /// version or, if `stale`, at one it never had.
    Feed { tag: u32, stale: bool },
    /// Train every session the algorithm can.
    Train,
}

use Op::{Feed, Train};

fn fresh(tag: u32) -> Op {
    Feed { tag, stale: false }
}

/// `LEN` steps ending an episode, each with a successor observation.
fn batch(tag: u32, version: u64) -> RolloutBatch {
    let steps = (0..LEN)
        .map(|i| RolloutStep {
            observation: vec![0.1 * i as f32, -0.2, 0.3],
            action: (i % NA) as u32,
            reward: 1.0,
            done: i == LEN - 1,
            behavior_logits: vec![0.0; NA],
            value: 0.0,
            next_observation: Some(vec![0.1 * (i + 1) as f32, -0.2, 0.3]),
        })
        .collect();
    RolloutBatch { explorer: tag, param_version: version, steps, bootstrap_observation: vec![0.0; DIM] }
}

/// Runs `script`, collecting what `take_spent` hands back after every move,
/// and returns the tags handed back in order.
fn run(alg: &mut dyn Algorithm, script: &[Op]) -> Vec<u32> {
    let mut back = Vec::new();
    for &op in script {
        match op {
            Feed { tag, stale } => {
                let version = if stale { alg.version() + 1_000 } else { alg.version() };
                alg.on_rollout(batch(tag, version));
            }
            Train => while alg.try_train().is_some() {},
        }
        while let Some(spent) = alg.take_spent() {
            back.push(spent.explorer);
        }
    }
    back
}

#[test]
fn every_batch_comes_back_once() {
    let ppo = || {
        let mut c = PpoConfig::new(DIM, NA);
        c.hidden = vec![8];
        c.num_explorers = 2;
        c.rollout_len = LEN;
        c.minibatch = LEN;
        c.epochs = 1;
        Box::new(PpoAlgorithm::with_pool(c, None)) as Box<dyn Algorithm>
    };
    let a2c = || {
        let mut c = A2cConfig::new(DIM, NA);
        c.hidden = vec![8];
        c.num_explorers = 2;
        c.rollout_len = LEN;
        Box::new(A2cAlgorithm::with_pool(c, None)) as Box<dyn Algorithm>
    };
    let impala = || {
        let mut c = ImpalaConfig::new(DIM, NA);
        c.hidden = vec![8];
        c.max_queue = 2;
        Box::new(ImpalaAlgorithm::with_pool(c, None)) as Box<dyn Algorithm>
    };
    let reinforce = || {
        let mut c = ReinforceConfig::new(DIM, NA);
        c.hidden = vec![8];
        c.episodes_per_train = 2;
        Box::new(ReinforceAlgorithm::with_pool(c, None)) as Box<dyn Algorithm>
    };
    let dqn = || {
        let mut c = DqnConfig::new(DIM, NA);
        c.hidden = vec![8];
        c.buffer_capacity = 64;
        c.warmup_steps = 16;
        c.train_every_inserts = 4;
        c.batch_size = 4;
        Box::new(DqnAlgorithm::new(c)) as Box<dyn Algorithm>
    };
    type Row = (&'static str, fn() -> Box<dyn Algorithm>, Vec<Op>);
    // Two sessions trained, one batch discarded as stale between them.
    let on_policy =
        vec![fresh(0), fresh(1), Train, Feed { tag: 2, stale: true }, fresh(3), fresh(4), Train];
    let rows: [Row; 5] = [
        ("ppo", ppo, on_policy.clone()),
        ("a2c", a2c, on_policy),
        // A queue of two: 0, 1 and 2 are shed before anything trains.
        ("impala", impala, vec![fresh(0), fresh(1), fresh(2), fresh(3), fresh(4), Train, fresh(5), Train]),
        // Steps move into episodes at once, trained or not.
        ("reinforce", reinforce, vec![fresh(0), fresh(1), Train, fresh(2), Train]),
        // Copied into the replay store at ingest and trained from there.
        ("dqn", dqn, vec![fresh(0), fresh(1), Train, fresh(2), Train, fresh(3)]),
    ];
    for (name, build, script) in rows {
        let fed: Vec<u32> =
            script.iter().filter_map(|op| if let Feed { tag, .. } = op { Some(*tag) } else { None }).collect();
        let mut back = run(build().as_mut(), &script);
        back.sort_unstable();
        assert_eq!(back, fed, "{name}: every batch handed back exactly once");
    }
}
