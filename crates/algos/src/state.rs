//! A learner's whole state as one value.
//!
//! [`LearnerState`] is what [`crate::api::Algorithm::save_state`] writes and
//! `load_state` reads: everything a session reads besides its data, so a
//! learner built fresh from the same config and loaded with it trains on
//! exactly as the saver would have. It is the checkpoint file, the
//! supervisor's restore and the snapshot a sync shard answers a rejoining
//! peer with — one value for all three. In order:
//!
//! * the [`ParamBlob`] (parameters and version), first, so a reader that
//!   wants only the parameters finds them where a blob would be;
//! * every optimizer's moments and step count;
//! * DQN's target net and session count;
//! * the learner's RNG streams (DQN's sampler, PPO's shuffle);
//! * REINFORCE's moving-average baseline.
//!
//! Three things stay out. Replay contents are the learner's data, not its
//! state, and stay the loader's (a restored DQN re-attaches to a surviving
//! plane or refills its own). Staged or queued rollouts were generated for
//! the parameters being replaced and are handed back on load. Counters that
//! index the learner's own data, such as DQN's `inserts_consumed`, stay the
//! loader's.

use crate::payload::ParamBlob;
use rand::rngs::StdRng;
use std::fmt;
use tinynn::optim::Adam;
use xingtian_message::codec::{write_varint, Decode, DecodeError, Encode, Reader};

/// One Adam optimizer's step count and moments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimizerState {
    /// Steps taken, which set the bias corrections.
    pub step: u64,
    /// First moments, one per parameter the optimizer steps.
    pub m: Vec<f32>,
    /// Second moments, likewise.
    pub v: Vec<f32>,
}

impl OptimizerState {
    pub(crate) fn of(opt: &Adam) -> Self {
        let (step, m, v) = opt.moments();
        OptimizerState { step, m: m.to_vec(), v: v.to_vec() }
    }

    pub(crate) fn load_into(&self, opt: &mut Adam) {
        opt.set_moments(self.step, &self.m, &self.v);
    }
}

/// DQN's target network and the session count that schedules its syncs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TargetState {
    /// The target net's parameters, in the online net's layout.
    pub params: Vec<f32>,
    /// Sessions completed; the target syncs every `target_sync_every`.
    pub sessions: u64,
}

/// Everything a learner's training depends on besides its data (module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LearnerState {
    /// The parameters and their version, as the learner broadcasts them.
    pub blob: ParamBlob,
    /// In the algorithm's fixed order (actor-critic: policy, then value).
    pub optimizers: Vec<OptimizerState>,
    /// DQN's; `None` for every other algorithm.
    pub target: Option<TargetState>,
    /// Each a full `StdRng` state ([`StdRng::state`]).
    pub rngs: Vec<[u64; 4]>,
    /// `None` until the first episode sets it, and for every algorithm
    /// without one.
    pub baseline: Option<f32>,
}

/// Why a decoded state does not load into a learner: one section's length
/// disagrees with this learner's. Nothing was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError {
    /// The section that does not fit (`"parameters"`, `"second moments"`, ...).
    pub section: &'static str,
    /// Its length in this learner.
    pub expected: usize,
    /// Its length in the state.
    pub found: usize,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state {}: expected {}, found {}", self.section, self.expected, self.found)
    }
}

impl std::error::Error for StateError {}

/// The section lengths a state must have to load into one learner.
pub(crate) struct Layout<'a> {
    pub params: usize,
    pub optimizers: &'a [usize],
    pub target: bool,
    pub rngs: usize,
    pub baseline: bool,
}

impl Layout<'_> {
    /// Checks every section of `state` before the caller writes anything.
    pub(crate) fn check(&self, state: &LearnerState) -> Result<(), StateError> {
        let expect = |section, expected: usize, found: usize| {
            (expected == found).then_some(()).ok_or(StateError { section, expected, found })
        };
        expect("parameters", self.params, state.blob.params.len())?;
        expect("optimizers", self.optimizers.len(), state.optimizers.len())?;
        for (&width, opt) in self.optimizers.iter().zip(&state.optimizers) {
            expect("first moments", width, opt.m.len())?;
            expect("second moments", width, opt.v.len())?;
        }
        expect("target nets", usize::from(self.target), usize::from(state.target.is_some()))?;
        if let Some(target) = &state.target {
            expect("target parameters", self.params, target.params.len())?;
        }
        // The all-zero state is one no generator reaches or leaves.
        expect("live RNG streams", self.rngs, state.rngs.iter().filter(|&&s| s != [0; 4]).count())?;
        if !self.baseline {
            expect("baselines", 0, usize::from(state.baseline.is_some()))?;
        }
        Ok(())
    }
}

/// The RNG stream at `state`, which [`Layout::check`] has proven live.
pub(crate) fn rng_at(state: [u64; 4]) -> StdRng {
    StdRng::from_state(state).expect("a checked RNG state")
}

impl Encode for LearnerState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.blob.encode(out);
        write_varint(out, self.optimizers.len() as u64);
        for opt in &self.optimizers {
            opt.step.encode(out);
            opt.m.encode(out);
            opt.v.encode(out);
        }
        match &self.target {
            None => out.push(0),
            Some(target) => {
                out.push(1);
                target.params.encode(out);
                target.sessions.encode(out);
            }
        }
        write_varint(out, self.rngs.len() as u64);
        for word in self.rngs.iter().flatten() {
            word.encode(out);
        }
        self.baseline.encode(out);
    }

    fn encoded_size(&self) -> usize {
        self.blob.encoded_size()
            + self.optimizers.len().encoded_size()
            + self.optimizers.iter().map(|o| 8 + o.m.encoded_size() + o.v.encoded_size()).sum::<usize>()
            + 1
            + self.target.as_ref().map_or(0, |t| t.params.encoded_size() + 8)
            + self.rngs.len().encoded_size()
            + self.rngs.len() * 32
            + self.baseline.encoded_size()
    }
}

impl Decode for LearnerState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let blob = ParamBlob::decode(r)?;
        // Counts are not trusted for allocation: every element consumes
        // input, so a hostile count runs into the end of it.
        let mut optimizers = Vec::new();
        for _ in 0..r.varint()? {
            let step = u64::decode(r)?;
            optimizers.push(OptimizerState { step, m: Vec::decode(r)?, v: Vec::decode(r)? });
        }
        let target = match r.u8()? {
            0 => None,
            1 => Some(TargetState { params: Vec::decode(r)?, sessions: u64::decode(r)? }),
            t => return Err(DecodeError::InvalidTag(t)),
        };
        let mut rngs = Vec::new();
        for _ in 0..r.varint()? {
            rngs.push([u64::decode(r)?, u64::decode(r)?, u64::decode(r)?, u64::decode(r)?]);
        }
        Ok(LearnerState { blob, optimizers, target, rngs, baseline: Option::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> LearnerState {
        LearnerState {
            blob: ParamBlob { version: 7, params: vec![0.5, -1.5, 2.0] },
            optimizers: vec![
                OptimizerState { step: 7, m: vec![0.1, 0.2, 0.3], v: vec![0.01, 0.02, 0.03] },
                OptimizerState::default(),
            ],
            target: Some(TargetState { params: vec![1.0, 2.0, 3.0], sessions: 7 }),
            rngs: vec![[1, 2, 3, u64::MAX]],
            baseline: Some(-0.25),
        }
    }

    #[test]
    fn round_trips_and_sizes_exactly() {
        for s in [state(), LearnerState::default()] {
            let bytes = s.to_bytes();
            assert_eq!(bytes.len(), s.encoded_size());
            assert_eq!(LearnerState::from_bytes(&bytes).unwrap(), s);
        }
    }

    #[test]
    fn the_blob_leads_the_encoding() {
        let s = state();
        let bytes = s.to_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ParamBlob::decode(&mut r).unwrap(), s.blob);
    }

    #[test]
    fn layout_rejects_every_mismatched_section() {
        let layout = Layout { params: 3, optimizers: &[3, 0], target: true, rngs: 1, baseline: true };
        assert_eq!(layout.check(&state()), Ok(()));
        let mut wrong = state();
        wrong.blob.params.push(0.0);
        let section = |state| layout.check(state).map_err(|e| e.section);
        assert_eq!(section(&wrong), Err("parameters"));
        let mut wrong = state();
        wrong.optimizers[0].v.pop();
        assert_eq!(section(&wrong), Err("second moments"));
        let mut wrong = state();
        wrong.target = None;
        assert_eq!(section(&wrong), Err("target nets"));
        let mut wrong = state();
        wrong.rngs[0] = [0; 4];
        assert_eq!(section(&wrong), Err("live RNG streams"));
        let no_baseline = Layout { baseline: false, ..layout };
        assert_eq!(no_baseline.check(&state()).map_err(|e| e.section), Err("baselines"));
    }
}
