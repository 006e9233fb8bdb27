//! Scheduled link faults: partitions and machine isolation.
//!
//! Chaos runs need the *network* to misbehave on the same timeline as
//! everything else, deterministically. A [`LinkFaultSchedule`] is a set of
//! time-windowed [`LinkFault`]s, each a partition of one directed link,
//! evaluated against the cluster clock at transfer time: while a window
//! covers a link, transfers on it fail. Windows are plain data — installing
//! a schedule is what makes a chaos run reproducible: the same schedule
//! against the same (virtual) clock produces the same failures at the same
//! instants.
//!
//! The schedule is installed on a [`crate::Cluster`] with
//! [`crate::Cluster::install_faults`]; callers that want to observe failures
//! (instead of transparently retrying) use
//! [`crate::Cluster::transfer_checked`].

use crate::cluster::MachineId;

/// One time-windowed partition of one directed link.
///
/// Transfers from `from` to `to` whose *start instant* falls inside
/// `[start_nanos, end_nanos)` on the cluster clock fail. Use
/// [`LinkFault::symmetric`] to produce the reverse direction as well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Sending machine.
    pub from: MachineId,
    /// Receiving machine.
    pub to: MachineId,
    /// Window start on the cluster clock, inclusive.
    pub start_nanos: u64,
    /// Window end on the cluster clock, exclusive (`u64::MAX` = forever).
    pub end_nanos: u64,
}

impl LinkFault {
    /// A one-directional partition of `from → to` over `[start, end)`.
    pub fn partition(from: MachineId, to: MachineId, start_nanos: u64, end_nanos: u64) -> Self {
        LinkFault { from, to, start_nanos, end_nanos }
    }

    /// This fault plus its mirror image (`to → from`), for symmetric cuts.
    pub fn symmetric(self) -> [LinkFault; 2] {
        [self, LinkFault { from: self.to, to: self.from, ..self }]
    }

    /// True when the window covers `now` for the directed link `from → to`.
    pub fn covers(&self, from: MachineId, to: MachineId, now_nanos: u64) -> bool {
        self.from == from && self.to == to && self.start_nanos <= now_nanos && now_nanos < self.end_nanos
    }
}

/// The effective condition of a link at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkCondition {
    /// No fault window covers the link.
    Healthy,
    /// A partition window covers it; transfers fail until `heal_nanos`
    /// (the earliest instant no partition window covers the link anymore).
    Partitioned {
        /// When the covering partition window(s) end.
        heal_nanos: u64,
    },
}

/// A deterministic schedule of link faults for one cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaultSchedule {
    faults: Vec<LinkFault>,
}

impl LinkFaultSchedule {
    /// An empty (all-healthy) schedule.
    pub fn new() -> Self {
        LinkFaultSchedule::default()
    }

    /// Adds a fault window (builder style).
    pub fn with(mut self, fault: LinkFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds both directions of a fault window (builder style).
    pub fn with_symmetric(mut self, fault: LinkFault) -> Self {
        self.faults.extend(fault.symmetric());
        self
    }

    /// Isolates `machine` from every other machine of an `n`-machine cluster
    /// over `[start, end)` — the "machine crash" / "severed machine link"
    /// network view.
    pub fn isolate_machine(
        mut self,
        machine: MachineId,
        machines: usize,
        start_nanos: u64,
        end_nanos: u64,
    ) -> Self {
        for other in 0..machines {
            if other != machine {
                self = self.with_symmetric(LinkFault::partition(machine, other, start_nanos, end_nanos));
            }
        }
        self
    }

    /// True when no fault windows are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Evaluates the condition of the directed link `from → to` at
    /// `now_nanos`. Overlapping partitions heal at the latest covering
    /// window's end.
    pub fn condition(&self, from: MachineId, to: MachineId, now_nanos: u64) -> LinkCondition {
        self.faults
            .iter()
            .filter(|f| f.covers(from, to, now_nanos))
            .map(|f| f.end_nanos)
            .max()
            .map_or(LinkCondition::Healthy, |heal_nanos| LinkCondition::Partitioned { heal_nanos })
    }
}

/// A transfer refused because its link was partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDown {
    /// Clock instant at which the covering partition window(s) end. `u64::MAX`
    /// means the partition never heals within the schedule.
    pub heal_nanos: u64,
}

impl std::fmt::Display for LinkDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.heal_nanos == u64::MAX {
            write!(f, "link partitioned (no scheduled heal)")
        } else {
            write!(f, "link partitioned until t={} ns", self.heal_nanos)
        }
    }
}

impl std::error::Error for LinkDown {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_healthy() {
        let s = LinkFaultSchedule::new();
        assert_eq!(s.condition(0, 1, 0), LinkCondition::Healthy);
        assert!(s.is_empty());
    }

    #[test]
    fn partition_window_covers_half_open_interval() {
        let s = LinkFaultSchedule::new().with(LinkFault::partition(0, 1, 100, 200));
        assert_eq!(s.condition(0, 1, 99), LinkCondition::Healthy);
        assert_eq!(s.condition(0, 1, 100), LinkCondition::Partitioned { heal_nanos: 200 });
        assert_eq!(s.condition(0, 1, 199), LinkCondition::Partitioned { heal_nanos: 200 });
        assert_eq!(s.condition(0, 1, 200), LinkCondition::Healthy);
        // Directed: the reverse link is untouched.
        assert_eq!(s.condition(1, 0, 150), LinkCondition::Healthy);
    }

    #[test]
    fn symmetric_covers_both_directions() {
        let s = LinkFaultSchedule::new().with_symmetric(LinkFault::partition(0, 1, 0, 10));
        assert_ne!(s.condition(0, 1, 5), LinkCondition::Healthy);
        assert_ne!(s.condition(1, 0, 5), LinkCondition::Healthy);
    }

    #[test]
    fn overlapping_partitions_heal_at_latest_end() {
        let s = LinkFaultSchedule::new()
            .with(LinkFault::partition(0, 1, 0, 100))
            .with(LinkFault::partition(0, 1, 50, 300));
        assert_eq!(s.condition(0, 1, 60), LinkCondition::Partitioned { heal_nanos: 300 });
    }

    #[test]
    fn isolate_machine_cuts_every_pair() {
        let s = LinkFaultSchedule::new().isolate_machine(1, 3, 10, 20);
        for other in [0usize, 2] {
            assert_ne!(s.condition(1, other, 15), LinkCondition::Healthy);
            assert_ne!(s.condition(other, 1, 15), LinkCondition::Healthy);
        }
        assert_eq!(s.condition(0, 2, 15), LinkCondition::Healthy);
    }
}
