//! Small payloads exchanged between processes: the [`ControlCommand`] the
//! supervisor sends as the center controller, the learners' session
//! [`LearnerStats`], and the explorers' [`ParamAck`]s. An explorer's `Stats`
//! body has no type of its own: it is one codec `u64` step count.

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

/// An explorer confirming (or refusing) a parameter broadcast
/// (`MessageKind::ParamAck`). The learner's delta-base bookkeeping tracks
/// acks to know which base version each receiver can decode against; a
/// refusal (`applied == false`, e.g. after a respawn lost the base) rebases
/// the sender so its next broadcast falls back to full f32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamAck {
    /// The acking explorer's index.
    pub explorer: u32,
    /// The broadcast's parameter version.
    pub version: u64,
    /// Whether the explorer decoded and applied the broadcast.
    pub applied: bool,
}

impl Encode for ParamAck {
    fn encode(&self, out: &mut Vec<u8>) {
        self.explorer.encode(out);
        self.version.encode(out);
        out.push(self.applied as u8);
    }
    fn encoded_size(&self) -> usize {
        self.explorer.encoded_size() + self.version.encoded_size() + 1
    }
}

impl Decode for ParamAck {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ParamAck {
            explorer: u32::decode(r)?,
            version: u64::decode(r)?,
            applied: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::InvalidTag(t)),
            },
        })
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
    fn param_ack_round_trips() {
        for applied in [true, false] {
            let a = ParamAck { explorer: 17, version: 42, applied };
            assert_eq!(ParamAck::from_bytes(&a.to_bytes()).unwrap(), a);
        }
        assert!(ParamAck::from_bytes(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7]).is_err());
    }
}
