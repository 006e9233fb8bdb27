//! Wire formats for rollouts and DNN parameters.
//!
//! These are the two message bodies that dominate DRL traffic: explorers push
//! [`RolloutBatch`]es to the learner; the learner broadcasts [`ParamBlob`]s
//! back. Both implement the binary [`Encode`]/[`Decode`] codec so any
//! framework in this repository (XingTian or the baselines) can serialize them
//! identically — the frameworks differ only in *when and how* bytes move.

use xingtian_message::codec::{decode_f32s_into, Decode, DecodeError, Encode, Reader};

/// One environment transition recorded by an explorer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RolloutStep {
    /// Observation the action was taken from.
    pub observation: Vec<f32>,
    /// Action taken.
    pub action: u32,
    /// Immediate reward.
    pub reward: f32,
    /// Whether the episode ended at this step.
    pub done: bool,
    /// Behavior-policy logits at `observation` (used by PPO ratios and
    /// IMPALA's V-trace; empty for value-based algorithms).
    pub behavior_logits: Vec<f32>,
    /// Behavior value estimate at `observation` (0.0 when unused).
    pub value: f32,
    /// Next observation; recorded only by algorithms that need full
    /// transitions (DQN experience replay).
    pub next_observation: Option<Vec<f32>>,
}

impl Encode for RolloutStep {
    fn encode(&self, out: &mut Vec<u8>) {
        self.observation.encode(out);
        self.action.encode(out);
        self.reward.encode(out);
        self.done.encode(out);
        self.behavior_logits.encode(out);
        self.value.encode(out);
        self.next_observation.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.observation.encoded_size()
            + self.action.encoded_size()
            + self.reward.encoded_size()
            + self.done.encoded_size()
            + self.behavior_logits.encoded_size()
            + self.value.encoded_size()
            + self.next_observation.encoded_size()
    }
}

impl RolloutStep {
    /// Decodes one step *in place*, reusing `self`'s tensor buffers: the
    /// allocation-free mirror of [`Decode::decode`] used by
    /// [`BatchDecoder`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] if the input is truncated or malformed.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        decode_f32s_into(r, &mut self.observation)?;
        self.action = u32::decode(r)?;
        self.reward = f32::decode(r)?;
        self.done = bool::decode(r)?;
        decode_f32s_into(r, &mut self.behavior_logits)?;
        self.value = f32::decode(r)?;
        match r.u8()? {
            0 => self.next_observation = None,
            1 => decode_f32s_into(r, self.next_observation.get_or_insert_with(Vec::new))?,
            t => return Err(DecodeError::InvalidTag(t)),
        }
        Ok(())
    }
}

impl Decode for RolloutStep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut step = RolloutStep::default();
        step.decode_into(r)?;
        Ok(step)
    }
}

/// A contiguous batch of rollout steps from one explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutBatch {
    /// Index of the producing explorer.
    pub explorer: u32,
    /// Version of the DNN parameters the behavior policy used.
    pub param_version: u64,
    /// The steps, in environment order.
    pub steps: Vec<RolloutStep>,
    /// Observation following the final step, for value bootstrapping. Empty
    /// when the final step ended the episode.
    pub bootstrap_observation: Vec<f32>,
}

impl RolloutBatch {
    /// Number of steps in the batch.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the batch holds no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl Encode for RolloutBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.explorer.encode(out);
        self.param_version.encode(out);
        self.steps.len().encode(out);
        for s in &self.steps {
            s.encode(out);
        }
        self.bootstrap_observation.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.explorer.encoded_size()
            + self.param_version.encoded_size()
            + self.steps.len().encoded_size()
            + self.steps.iter().map(Encode::encoded_size).sum::<usize>()
            + self.bootstrap_observation.encoded_size()
    }
}

impl Decode for RolloutBatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        BatchDecoder::new().decode_body(r)
    }
}

/// Decodes [`RolloutBatch`]es into recycled step storage.
///
/// The learner receives one multi-megabyte rollout message per training
/// iteration; decoding it freshly allocates three `Vec`s per step (~1,500
/// allocations for the paper's 500-step IMPALA batch). `BatchDecoder` keeps
/// the step storage of batches the algorithm has finished with (returned via
/// [`crate::api::Algorithm::take_spent`]) and decodes the next message into
/// it, so a warmed-up receive path performs no per-step allocations.
#[derive(Debug, Default)]
pub struct BatchDecoder {
    /// Recycled steps whose tensor buffers keep their capacity.
    steps: Vec<RolloutStep>,
    /// Emptied step containers from recycled batches.
    containers: Vec<Vec<RolloutStep>>,
    /// Spare bootstrap-observation buffers.
    f32_bufs: Vec<Vec<f32>>,
}

impl BatchDecoder {
    /// A decoder with empty pools; buffers accumulate via
    /// [`BatchDecoder::recycle`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Steps currently pooled for reuse.
    pub fn pooled_steps(&self) -> usize {
        self.steps.len()
    }

    /// Decodes a batch that must span the whole of `buf`, drawing step
    /// storage from the recycle pools (falling back to fresh allocations
    /// when the pools run dry).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] if the input is truncated or malformed, and
    /// [`DecodeError::TrailingBytes`] if the batch ends before `buf` does.
    pub fn decode(&mut self, buf: &[u8]) -> Result<RolloutBatch, DecodeError> {
        let mut r = Reader::new(buf);
        let batch = self.decode_body(&mut r)?;
        r.finish()?;
        Ok(batch)
    }

    /// The one [`RolloutBatch`] decoder; leaves in `r` whatever follows.
    fn decode_body(&mut self, r: &mut Reader<'_>) -> Result<RolloutBatch, DecodeError> {
        let explorer = u32::decode(r)?;
        let param_version = u64::decode(r)?;
        let n = usize::decode(r)?;
        if n > r.remaining() {
            return Err(DecodeError::LengthOverflow { declared: n, remaining: r.remaining() });
        }
        let mut steps = self.containers.pop().unwrap_or_default();
        steps.reserve(n);
        for _ in 0..n {
            let mut s = self.steps.pop().unwrap_or_default();
            s.decode_into(r)?;
            steps.push(s);
        }
        let mut bootstrap_observation = self.f32_bufs.pop().unwrap_or_default();
        decode_f32s_into(r, &mut bootstrap_observation)?;
        Ok(RolloutBatch { explorer, param_version, steps, bootstrap_observation })
    }

    /// Returns a spent batch's storage to the pools for the next decode.
    pub fn recycle(&mut self, batch: RolloutBatch) {
        let RolloutBatch { mut steps, bootstrap_observation, .. } = batch;
        self.steps.append(&mut steps);
        self.containers.push(steps);
        self.f32_bufs.push(bootstrap_observation);
    }
}

/// A flat snapshot of every trainable parameter, broadcast by the learner.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamBlob {
    /// Monotonically increasing version number.
    pub version: u64,
    /// Concatenated parameters of all networks, in a fixed algorithm-defined
    /// order.
    pub params: Vec<f32>,
}

impl Encode for ParamBlob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.params.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.version.encoded_size() + self.params.encoded_size()
    }
}

impl Decode for ParamBlob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ParamBlob { version: u64::decode(r)?, params: Vec::<f32>::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(dim: usize, with_next: bool) -> RolloutStep {
        RolloutStep {
            observation: (0..dim).map(|i| i as f32 * 0.5).collect(),
            action: 3,
            reward: -1.25,
            done: dim.is_multiple_of(2),
            behavior_logits: vec![0.1, 0.2, 0.7],
            value: 0.42,
            next_observation: with_next.then(|| vec![9.0; dim]),
        }
    }

    #[test]
    fn rollout_step_round_trips() {
        for with_next in [false, true] {
            let s = step(8, with_next);
            let bytes = s.to_bytes();
            assert_eq!(RolloutStep::from_bytes(&bytes).unwrap(), s);
        }
    }

    #[test]
    fn rollout_batch_round_trips() {
        let b = RolloutBatch {
            explorer: 7,
            param_version: 99,
            steps: (0..50).map(|i| step(4 + i % 3, i % 2 == 0)).collect(),
            bootstrap_observation: vec![1.0, 2.0, 3.0, 4.0],
        };
        let bytes = b.to_bytes();
        assert_eq!(RolloutBatch::from_bytes(&bytes).unwrap(), b);
        assert_eq!(b.len(), 50);
        assert!(!b.is_empty());
    }

    #[test]
    fn batch_decoder_matches_fresh_decode_and_recycles() {
        let make = |tag: u32| RolloutBatch {
            explorer: tag,
            param_version: u64::from(tag) * 10,
            steps: (0..20).map(|i| step(4 + (i + tag as usize) % 3, i % 2 == 0)).collect(),
            bootstrap_observation: vec![tag as f32; 6],
        };
        let mut dec = BatchDecoder::new();
        let b0 = make(0);
        let got = dec.decode(&b0.to_bytes()).unwrap();
        assert_eq!(got, b0);
        assert_eq!(dec.pooled_steps(), 0);
        dec.recycle(got);
        assert_eq!(dec.pooled_steps(), 20);
        // A second decode drains the pool and still round-trips exactly.
        let b1 = make(3);
        let got = dec.decode(&b1.to_bytes()).unwrap();
        assert_eq!(got, b1);
        assert_eq!(dec.pooled_steps(), 0);
    }

    #[test]
    fn batch_decoder_rejects_truncation() {
        let b = RolloutBatch {
            explorer: 1,
            param_version: 2,
            steps: vec![step(4, true)],
            bootstrap_observation: vec![0.5],
        };
        let bytes = b.to_bytes();
        let mut dec = BatchDecoder::new();
        assert!(dec.decode(&bytes[..bytes.len() - 3]).is_err());
        assert_eq!(dec.decode(&bytes).unwrap(), b);
    }

    #[test]
    fn both_decoders_reject_a_batch_with_a_byte_appended() {
        let b = RolloutBatch {
            explorer: 1,
            param_version: 2,
            steps: vec![step(4, true), step(3, false)],
            bootstrap_observation: vec![0.5],
        };
        let mut bytes = b.to_bytes();
        bytes.push(0);
        assert_eq!(RolloutBatch::from_bytes(&bytes), Err(DecodeError::TrailingBytes(1)));
        let mut dec = BatchDecoder::new();
        assert_eq!(dec.decode(&bytes), Err(DecodeError::TrailingBytes(1)));
        bytes.pop();
        assert_eq!(dec.decode(&bytes).unwrap(), b);
    }

    #[test]
    fn param_blob_round_trips() {
        let p = ParamBlob { version: 12, params: (0..1000).map(|i| i as f32).collect() };
        let bytes = p.to_bytes();
        assert_eq!(ParamBlob::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn truncated_batch_errors() {
        let b = RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: vec![step(4, false)],
            bootstrap_observation: vec![],
        };
        let bytes = b.to_bytes();
        assert!(RolloutBatch::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn message_size_matches_paper_scale() {
        // 500 steps of 84x84 observations ≈ the paper's 13.8 MB IMPALA message.
        let steps: Vec<RolloutStep> = (0..500)
            .map(|_| RolloutStep {
                observation: vec![0.5; 84 * 84],
                action: 0,
                reward: 0.0,
                done: false,
                behavior_logits: vec![0.0; 9],
                value: 0.0,
                next_observation: None,
            })
            .collect();
        let b = RolloutBatch { explorer: 0, param_version: 0, steps, bootstrap_observation: vec![0.0; 84 * 84] };
        let bytes = b.to_bytes();
        let mb = bytes.len() as f64 / 1024.0 / 1024.0;
        assert!((12.0..16.0).contains(&mb), "batch is {mb:.1} MiB");
    }
}
