//! One learner state: save it, load it into a freshly built algorithm, and
//! the loaded learner trains on bit for bit as the saver would have — for
//! every algorithm. The state's wire format is pinned by committed golden
//! states (one DQN, one actor-critic), and hostile bytes never panic: every
//! truncation of a golden state is a typed decode error, and every
//! single-bit flip either decodes to a typed error, is refused by
//! `load_state` with the held state untouched, or loads.
//!
//! Regenerate the golden states after an intentional format change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p xingtian-algos --test state
//! ```
//!
//! and commit the updated `tests/golden/*.state` files.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{
    A2cAlgorithm, A2cConfig, DqnAlgorithm, DqnConfig, ImpalaAlgorithm, ImpalaConfig, LearnerState, PpoAlgorithm,
    PpoConfig, ReinforceAlgorithm, ReinforceConfig,
};
use xingtian_message::codec::{Decode, Encode};

const DIM: usize = 6;
const NA: usize = 3;

fn make_steps(rng: &mut StdRng, n: usize, next: bool) -> Vec<RolloutStep> {
    (0..n)
        .map(|i| {
            let done = i % 23 == 22;
            RolloutStep {
                observation: (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                action: rng.gen_range(0..NA as u32),
                reward: rng.gen_range(-1.0..1.0),
                done,
                behavior_logits: (0..NA).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                value: rng.gen_range(-1.0..1.0),
                next_observation: (next && !done).then(|| (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()),
            }
        })
        .collect()
}

/// Feeds round `round`'s seeded rollouts (`explorers` × `steps`, at the
/// learner's version) and trains until no credit is left; returns the
/// sessions trained.
fn feed_and_train(alg: &mut dyn Algorithm, round: u64, explorers: u32, steps: usize, next: bool) -> usize {
    let mut rng = StdRng::seed_from_u64(1_000 + round);
    for explorer in 0..explorers {
        let steps = make_steps(&mut rng, steps, next);
        let bootstrap_observation = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        alg.on_rollout(RolloutBatch { explorer, param_version: alg.version(), steps, bootstrap_observation });
    }
    let mut sessions = 0;
    while alg.try_train().is_some() {
        sessions += 1;
    }
    while alg.take_spent().is_some() {}
    sessions
}

struct Case {
    name: &'static str,
    build: Box<dyn Fn() -> Box<dyn Algorithm>>,
    explorers: u32,
    steps: usize,
    next: bool,
}

fn dqn_config(prioritized: Option<(f64, f64)>, double: bool) -> DqnConfig {
    let mut c = DqnConfig::new(DIM, NA);
    c.hidden = vec![16];
    c.buffer_capacity = 256;
    c.warmup_steps = 64;
    c.train_every_inserts = 16;
    c.batch_size = 16;
    c.target_sync_every = 5;
    c.prioritized = prioritized;
    c.double = double;
    c
}

fn cases() -> Vec<Case> {
    let mut ppo = PpoConfig::new(DIM, NA);
    (ppo.hidden, ppo.num_explorers, ppo.rollout_len, ppo.minibatch, ppo.epochs) = (vec![16], 2, 40, 24, 2);
    let mut a2c = A2cConfig::new(DIM, NA);
    (a2c.hidden, a2c.num_explorers, a2c.rollout_len) = (vec![16], 2, 40);
    let mut impala = ImpalaConfig::new(DIM, NA);
    impala.hidden = vec![16];
    let mut reinforce = ReinforceConfig::new(DIM, NA);
    (reinforce.hidden, reinforce.episodes_per_train) = (vec![16], 4);
    let softmax = |name, build: Box<dyn Fn() -> Box<dyn Algorithm>>, explorers, steps| Case {
        name,
        build,
        explorers,
        steps,
        next: false,
    };
    vec![
        softmax("ppo", Box::new(move || Box::new(PpoAlgorithm::with_pool(ppo.clone(), None))), 2, 40),
        softmax("a2c", Box::new(move || Box::new(A2cAlgorithm::with_pool(a2c.clone(), None))), 2, 40),
        softmax("impala", Box::new(move || Box::new(ImpalaAlgorithm::with_pool(impala.clone(), None))), 1, 60),
        // Four whole 23-step episodes a round: no fragment outlives a save.
        softmax("reinforce", Box::new(move || Box::new(ReinforceAlgorithm::with_pool(reinforce.clone(), None))), 1, 92),
        Case {
            name: "dqn",
            build: Box::new(|| Box::new(DqnAlgorithm::new(dqn_config(None, false)))),
            explorers: 1,
            steps: 64,
            next: true,
        },
    ]
}

/// Trains `case`'s `rounds`, returning the sessions trained.
fn train(alg: &mut dyn Algorithm, case: &Case, rounds: std::ops::Range<u64>) -> usize {
    rounds.map(|round| feed_and_train(alg, round, case.explorers, case.steps, case.next)).sum()
}

const N: u64 = 4;
const M: u64 = 4;

/// n sessions, save, load into a fresh build, m more sessions: bitwise the
/// uninterrupted n + m, whole state included (optimizer moments, RNG
/// streams, baseline), not only the parameters.
#[test]
fn a_loaded_state_trains_on_bit_for_bit_for_every_softmax_algorithm() {
    for case in cases().into_iter().filter(|c| c.name != "dqn") {
        let mut straight = (case.build)();
        let trained = train(straight.as_mut(), &case, 0..N + M);

        let mut first = (case.build)();
        let before = train(first.as_mut(), &case, 0..N);
        assert!(before >= N as usize, "{}: {before} sessions before the save", case.name);
        let saved = LearnerState::from_bytes(&first.save_state().to_bytes()).expect("a state decodes");
        drop(first);
        let mut second = (case.build)();
        second.load_state(&saved).expect("a state loads into its own algorithm");
        assert_eq!(second.version(), saved.blob.version, "{}", case.name);
        let after = train(second.as_mut(), &case, N..N + M);

        assert_eq!(before + after, trained, "{}: sessions", case.name);
        assert_eq!(second.version(), straight.version(), "{}", case.name);
        assert_eq!(
            second.save_state().to_bytes(),
            straight.save_state().to_bytes(),
            "{}: the loaded learner diverged from the uninterrupted one",
            case.name
        );
    }
}

/// DQN's sessions on seeded sampled batches (`train_on_steps`, the sampling
/// a baseline framework does remotely): its replay plane and the credit count
/// indexing it stay the loader's own, so its round trip is that of
/// everything else — the optimizer, and the target net whose sync the
/// session count schedules (every 5th session: the saved target is synced
/// and differs from a fresh one, and a sync falls after the load).
#[test]
fn a_loaded_dqn_state_trains_on_bit_for_bit() {
    const N: u64 = 7;
    for double in [false, true] {
        let config = dqn_config(None, double);
        let batch = |session: u64| make_steps(&mut StdRng::seed_from_u64(2_000 + session), 16, true);
        let mut straight = DqnAlgorithm::new(config.clone());
        for session in 0..N + M {
            straight.train_on_steps(&batch(session));
        }
        let mut first = DqnAlgorithm::new(config.clone());
        for session in 0..N {
            first.train_on_steps(&batch(session));
        }
        let saved = LearnerState::from_bytes(&first.save_state().to_bytes()).expect("a state decodes");
        let mut second = DqnAlgorithm::new(config);
        second.load_state(&saved).expect("a state loads into its own algorithm");
        for session in N..N + M {
            second.train_on_steps(&batch(session));
        }
        assert_eq!(second.sessions(), N + M);
        assert_eq!(second.save_state().to_bytes(), straight.save_state().to_bytes(), "double: {double}");
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.state"))
}

/// The state of a small seeded learner after a few sessions.
fn golden_learner(name: &str) -> Box<dyn Algorithm> {
    let case = cases().into_iter().find(|c| c.name == name).expect("a golden case");
    let mut alg = (case.build)();
    train(alg.as_mut(), &case, 0..2);
    alg
}

/// Today's encoding of each golden learner's state is byte-identical to the
/// committed one, and the committed one decodes and loads.
#[test]
fn golden_states_are_pinned() {
    for name in ["dqn", "a2c"] {
        let bytes = golden_learner(name).save_state().to_bytes();
        let path = golden_path(name);
        if std::env::var_os("GOLDEN_REGEN").is_some() {
            std::fs::create_dir_all(path.parent().expect("a golden dir")).expect("create golden dir");
            std::fs::write(&path, &bytes).expect("write golden state");
        }
        let golden = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing {} ({e}); run with GOLDEN_REGEN=1", path.display()));
        assert_eq!(bytes, golden, "{name}: the state format or the training bits changed");
        let state = LearnerState::from_bytes(&golden).expect("the golden state decodes");
        let mut fresh = (cases().into_iter().find(|c| c.name == name).expect("a case").build)();
        fresh.load_state(&state).expect("the golden state loads");
        assert_eq!(fresh.save_state().to_bytes(), golden, "{name}: a load is exact");
    }
}

/// Every truncation is a typed error; every single-bit flip is a typed
/// decode error, a refusal that leaves the held state as it was, or a load.
#[test]
fn hostile_state_bytes_never_panic() {
    for name in ["dqn", "a2c"] {
        let golden = std::fs::read(golden_path(name)).expect("the golden state (see golden_states_are_pinned)");
        for len in 0..golden.len() {
            assert!(LearnerState::from_bytes(&golden[..len]).is_err(), "{name}: a {len}-byte prefix decoded");
        }
        let mut alg = (cases().into_iter().find(|c| c.name == name).expect("a case").build)();
        let held = alg.save_state().to_bytes();
        let (mut loads, mut rejected) = (0, 0);
        let mut bytes = golden.clone();
        for bit in 0..golden.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            match LearnerState::from_bytes(&bytes).map(|state| alg.load_state(&state)) {
                Err(_) => rejected += 1,
                Ok(Ok(())) => {
                    loads += 1;
                    alg.load_state(&LearnerState::from_bytes(&held).expect("held")).expect("reload");
                }
                Ok(Err(_)) => {
                    rejected += 1;
                    assert_eq!(alg.save_state().to_bytes(), held, "{name}: bit {bit} was refused after a write");
                }
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(loads > 0 && rejected > 0, "{name}: {loads} loads, {rejected} rejected");
    }
}

/// A state for another parameter count, or another algorithm's, is refused
/// before anything is written.
#[test]
fn a_state_that_does_not_fit_is_refused_untouched() {
    let dqn = golden_learner("dqn").save_state();
    let mut wider = DqnConfig { hidden: vec![17], ..dqn_config(None, false) };
    wider.seed = 3;
    let mut other = DqnAlgorithm::new(wider);
    let held = other.save_state().to_bytes();
    assert_eq!(other.load_state(&dqn).map_err(|e| e.section), Err("parameters"));
    assert_eq!(other.save_state().to_bytes(), held);

    let mut a2c = golden_learner("a2c");
    let held = a2c.save_state().to_bytes();
    assert!(a2c.load_state(&dqn).is_err(), "a DQN state loads into A2C");
    assert_eq!(a2c.save_state().to_bytes(), held);
}
