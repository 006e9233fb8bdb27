//! Small payloads exchanged between processes: the [`ControlCommand`] the
//! supervisor sends as the center controller, the learners' session
//! [`LearnerStats`], and a parameter receiver's [`ParamNack`]. An explorer's
//! `Stats` body has no type of its own: it is one codec `u64` step count.

use xingtian_message::codec::{Decode, DecodeError, Encode, Reader};

/// Lifecycle commands the supervisor sends as the center controller
/// (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlCommand {
    /// Stop all processes and release resources.
    Shutdown,
}

impl Encode for ControlCommand {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ControlCommand::Shutdown => out.push(0),
        }
    }
    fn encoded_size(&self) -> usize {
        1
    }
}

impl Decode for ControlCommand {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(ControlCommand::Shutdown),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// A learner's report of one training session (`MessageKind::Stats` from a
/// learner), sent before the session's broadcast: the supervisor's goal
/// tally, and the highest version the learner can have announced, which a
/// restore must outrank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LearnerStats {
    /// Rollout steps the session consumed.
    pub steps: u64,
    /// The learner's parameter version after the session.
    pub version: u64,
}

impl Encode for LearnerStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.steps.encode(out);
        self.version.encode(out);
    }
    fn encoded_size(&self) -> usize {
        16
    }
}

impl Decode for LearnerStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LearnerStats { steps: u64::decode(r)?, version: u64::decode(r)? })
    }
}

/// A parameter receiver refusing a broadcast it could not apply
/// (`MessageKind::ParamAck`, the plane's only reply): a delta against a base
/// it does not hold (a respawn lost it) or a corrupt frame. It carries the
/// version the receiver still holds, so the sender rebases its delta-base
/// bookkeeping and its next broadcast to that receiver goes out full.
/// Applied and stale frames are not answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamNack {
    /// The refusing receiver's index, as its sender addresses it.
    pub receiver: u32,
    /// The parameter version the receiver still holds (0: none).
    pub held: u64,
}

impl Encode for ParamNack {
    fn encode(&self, out: &mut Vec<u8>) {
        self.receiver.encode(out);
        self.held.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.receiver.encoded_size() + self.held.encoded_size()
    }
}

impl Decode for ParamNack {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ParamNack { receiver: u32::decode(r)?, held: u64::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_round_trips() {
        let bytes = ControlCommand::Shutdown.to_bytes();
        assert_eq!(ControlCommand::from_bytes(&bytes).unwrap(), ControlCommand::Shutdown);
    }

    #[test]
    fn control_rejects_unknown_tag() {
        assert!(ControlCommand::from_bytes(&[9]).is_err());
    }

    #[test]
    fn control_rejects_trailing_bytes() {
        assert_eq!(ControlCommand::from_bytes(&[0, 0]), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn learner_stats_round_trip() {
        let s = LearnerStats { steps: 100, version: 7 };
        assert_eq!(LearnerStats::from_bytes(&s.to_bytes()).unwrap(), s);
        assert!(LearnerStats::from_bytes(&100u64.to_bytes()).is_err(), "an explorer's body is not one");
    }

    #[test]
    fn param_nack_round_trips() {
        let n = ParamNack { receiver: 17, held: 42 };
        assert_eq!(ParamNack::from_bytes(&n.to_bytes()).unwrap(), n);
    }

    /// Every truncation of a nack body and one trailing byte decode to a
    /// typed error, never to a nack.
    #[test]
    fn param_nack_rejects_hostile_bytes() {
        let bytes = ParamNack { receiver: u32::MAX, held: u64::MAX }.to_bytes();
        for len in 0..bytes.len() {
            assert_eq!(ParamNack::from_bytes(&bytes[..len]), Err(DecodeError::UnexpectedEof), "{len} bytes");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(ParamNack::from_bytes(&long), Err(DecodeError::TrailingBytes(1)));
    }
}
