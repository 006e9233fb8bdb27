//! Clusters of simulated machines connected by NIC-limited links.

use crate::clock::{Clock, ClockMode};
use crate::faults::{LinkCondition, LinkDown, LinkFaultSchedule};
use crate::nic::Nic;
use crate::{DEFAULT_LATENCY_SECS, GBE_BANDWIDTH};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Index of a machine within a [`Cluster`].
pub type MachineId = usize;

/// Configuration for a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of machines.
    pub machines: usize,
    /// NIC bandwidth in bytes/second (applies to tx and rx independently).
    pub nic_bandwidth: f64,
    /// One-way propagation latency between any two machines, seconds.
    pub latency_secs: f64,
    /// Use virtual time (deterministic, non-blocking) instead of wall clock.
    pub virtual_time: bool,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            machines: 1,
            nic_bandwidth: GBE_BANDWIDTH,
            latency_secs: DEFAULT_LATENCY_SECS,
            virtual_time: false,
        }
    }
}

impl ClusterSpec {
    /// Sets the number of machines (builder style).
    pub fn machines(mut self, n: usize) -> Self {
        self.machines = n;
        self
    }

    /// Sets NIC bandwidth in bytes/second (builder style).
    pub fn nic_bandwidth(mut self, bw: f64) -> Self {
        self.nic_bandwidth = bw;
        self
    }

    /// Sets one-way latency in seconds (builder style).
    pub fn latency_secs(mut self, l: f64) -> Self {
        self.latency_secs = l;
        self
    }

    /// Enables virtual time (builder style).
    pub fn virtual_time(mut self, v: bool) -> Self {
        self.virtual_time = v;
        self
    }
}

/// A simulated machine: a tx NIC and an rx NIC sharing the machine's port.
#[derive(Debug)]
pub struct Machine {
    id: MachineId,
    tx: Nic,
    rx: Nic,
}

impl Machine {
    /// This machine's index within the cluster.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Outbound NIC.
    pub fn tx(&self) -> &Nic {
        &self.tx
    }

    /// Inbound NIC.
    pub fn rx(&self) -> &Nic {
        &self.rx
    }
}

/// Timing of one completed transfer, in the cluster clock's nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReceipt {
    /// When the bytes started flowing.
    pub start_nanos: u64,
    /// When the last byte arrived (including propagation latency).
    pub end_nanos: u64,
    /// Modeled wall-clock duration experienced by the sender.
    pub duration: Duration,
}

/// A set of simulated machines sharing one [`Clock`].
///
/// Intra-machine communication does not touch the cluster: shared-memory
/// transports hand over `Arc`s directly. Only cross-machine bytes are charged
/// to the NICs via [`Cluster::transfer`].
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

#[derive(Debug)]
struct ClusterInner {
    spec: ClusterSpec,
    clock: Clock,
    machines: Vec<Machine>,
    // Swapped wholesale by `install_faults`; read once per transfer. The lock
    // is only ever held for the Arc clone, never across a NIC reservation.
    faults: RwLock<Arc<LinkFaultSchedule>>,
}

impl Cluster {
    /// Builds the cluster described by `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.machines` is zero.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.machines > 0, "a cluster needs at least one machine");
        let clock = Clock::new(if spec.virtual_time { ClockMode::Virtual } else { ClockMode::RealTime });
        let machines = (0..spec.machines)
            .map(|id| Machine {
                id,
                tx: Nic::new(spec.nic_bandwidth),
                rx: Nic::new(spec.nic_bandwidth),
            })
            .collect();
        Cluster {
            inner: Arc::new(ClusterInner {
                spec,
                clock,
                machines,
                faults: RwLock::new(Arc::new(LinkFaultSchedule::new())),
            }),
        }
    }

    /// A single-machine cluster (no cross-machine links ever used).
    pub fn single() -> Self {
        Cluster::new(ClusterSpec::default())
    }

    /// The cluster's specification.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// A boxed [`xt_telemetry::TimeSource`] view of the cluster clock, for
    /// building a `Telemetry` handle whose event timestamps live on the same
    /// timeline as NIC [`TransferReceipt`]s.
    pub fn time_source(&self) -> Box<dyn xt_telemetry::TimeSource> {
        Box::new(self.inner.clock.clone())
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.inner.machines.len()
    }

    /// True when the cluster has exactly one machine.
    pub fn is_empty(&self) -> bool {
        false // a cluster always has ≥ 1 machine
    }

    /// Accessor for machine `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.inner.machines[id]
    }

    /// Moves `bytes` from machine `from` to machine `to`, blocking the calling
    /// thread for the modeled duration (sender tx NIC and receiver rx NIC are
    /// both reserved; propagation latency is added at the end).
    ///
    /// Transfers within one machine are free (`from == to` returns a zero-cost
    /// receipt) — intra-machine data movement is modeled by the real memory
    /// operations the caller performs.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range.
    pub fn transfer(&self, from: MachineId, to: MachineId, bytes: usize) -> TransferReceipt {
        let clock = &self.inner.clock;
        let now = clock.now_nanos();
        if from == to {
            return TransferReceipt { start_nanos: now, end_nanos: now, duration: Duration::ZERO };
        }
        let tx = self.inner.machines[from].tx();
        let rx = self.inner.machines[to].rx();
        // Reserve the sender's port, then the receiver's port no earlier than
        // the sender can supply the bytes. This couples the two resources the
        // way a store-and-forward switch would.
        let (tx_start, tx_end) = tx.reserve(now, bytes);
        let (_rx_start, rx_end) = rx.reserve(tx_start, bytes);
        let latency = (self.inner.spec.latency_secs * 1e9) as u64;
        let end = tx_end.max(rx_end) + latency;
        clock.wait_until(end);
        TransferReceipt {
            start_nanos: tx_start,
            end_nanos: end,
            duration: Duration::from_nanos(end.saturating_sub(now)),
        }
    }

    /// Installs (replaces) the cluster's link-fault schedule. Only
    /// [`Cluster::transfer_checked`] consults it; [`Cluster::transfer`] keeps
    /// its unconditional blocking semantics for fault-oblivious callers.
    pub fn install_faults(&self, schedule: LinkFaultSchedule) {
        *self.inner.faults.write().unwrap() = Arc::new(schedule);
    }

    /// The currently installed link-fault schedule.
    pub fn faults(&self) -> Arc<LinkFaultSchedule> {
        self.inner.faults.read().unwrap().clone()
    }

    /// Like [`Cluster::transfer`], but honors the installed
    /// [`LinkFaultSchedule`]: a partitioned link refuses the transfer with
    /// [`LinkDown`] (after charging one propagation latency for the failed
    /// attempt — the cost of discovering the link is dead, and a guarantee
    /// that virtual time advances even when every send is failing).
    pub fn transfer_checked(
        &self,
        from: MachineId,
        to: MachineId,
        bytes: usize,
    ) -> Result<TransferReceipt, LinkDown> {
        let now = self.inner.clock.now_nanos();
        if from != to {
            if let LinkCondition::Partitioned { heal_nanos } = self.faults().condition(from, to, now) {
                let latency = (self.inner.spec.latency_secs * 1e9) as u64;
                self.inner.clock.wait_until(now + latency.max(1));
                return Err(LinkDown { heal_nanos });
            }
        }
        Ok(self.transfer(from, to, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virtual_cluster(machines: usize, bw: f64) -> Cluster {
        Cluster::new(
            ClusterSpec::default()
                .machines(machines)
                .nic_bandwidth(bw)
                .latency_secs(0.0)
                .virtual_time(true),
        )
    }

    #[test]
    fn intra_machine_transfer_is_free() {
        let c = virtual_cluster(2, 1e6);
        let r = c.transfer(0, 0, 10_000_000);
        assert_eq!(r.duration, Duration::ZERO);
    }

    #[test]
    fn cross_machine_transfer_is_bandwidth_bound() {
        let c = virtual_cluster(2, 1e6); // 1 MB/s
        let r = c.transfer(0, 1, 2_000_000); // 2 MB -> 2 s
        assert_eq!(r.duration, Duration::from_secs(2));
    }

    #[test]
    fn receiver_nic_is_shared_across_senders() {
        // Machines 0 and 1 both send 1 MB to machine 2. The receiver's rx NIC
        // serializes the flows: total time is 2 s at 1 MB/s, not 1 s.
        let c = virtual_cluster(3, 1e6);
        c.transfer(0, 2, 1_000_000);
        let r = c.transfer(1, 2, 1_000_000);
        assert_eq!(r.end_nanos, 2_000_000_000);
    }

    #[test]
    fn latency_is_added_once() {
        let c = Cluster::new(
            ClusterSpec::default()
                .machines(2)
                .nic_bandwidth(1e9)
                .latency_secs(0.001)
                .virtual_time(true),
        );
        let r = c.transfer(0, 1, 1000);
        // 1 µs of bandwidth time + 1 ms latency.
        assert!(r.duration >= Duration::from_micros(1000));
        assert!(r.duration < Duration::from_micros(1100));
    }

    #[test]
    fn transfer_checked_healthy_matches_transfer() {
        let c = virtual_cluster(2, 1e6);
        let r = c.transfer_checked(0, 1, 2_000_000).expect("healthy link");
        assert_eq!(r.duration, Duration::from_secs(2));
    }

    #[test]
    fn transfer_checked_refuses_partitioned_link() {
        use crate::faults::{LinkFault, LinkFaultSchedule};
        let c = virtual_cluster(2, 1e6);
        c.install_faults(
            LinkFaultSchedule::new().with(LinkFault::partition(0, 1, 0, 5_000_000_000)),
        );
        let err = c.transfer_checked(0, 1, 1_000).unwrap_err();
        assert_eq!(err.heal_nanos, 5_000_000_000);
        // A failed attempt still advances the (virtual) clock, so a retry
        // loop on the virtual clock cannot livelock inside the window.
        assert!(c.clock().now_nanos() > 0);
        // The reverse direction is untouched.
        assert!(c.transfer_checked(1, 0, 1_000).is_ok());
    }

    #[test]
    fn transfer_checked_heals_after_window() {
        use crate::faults::{LinkFault, LinkFaultSchedule};
        let c = virtual_cluster(2, 1e6);
        c.install_faults(LinkFaultSchedule::new().with(LinkFault::partition(0, 1, 0, 1_000)));
        let heal = c.transfer_checked(0, 1, 1_000).unwrap_err().heal_nanos;
        c.clock().wait_until(heal);
        assert!(c.transfer_checked(0, 1, 1_000).is_ok());
    }

    #[test]
    fn intra_machine_transfer_ignores_faults() {
        use crate::faults::LinkFaultSchedule;
        let c = virtual_cluster(2, 1e6);
        c.install_faults(LinkFaultSchedule::new().isolate_machine(0, 2, 0, u64::MAX));
        assert!(c.transfer_checked(0, 0, 1_000).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = Cluster::new(ClusterSpec::default().machines(0));
    }

    #[test]
    fn spec_builder_round_trips() {
        let s = ClusterSpec::default().machines(4).nic_bandwidth(5e6).latency_secs(0.5).virtual_time(true);
        assert_eq!(s.machines, 4);
        assert_eq!(s.nic_bandwidth, 5e6);
        assert_eq!(s.latency_secs, 0.5);
        assert!(s.virtual_time);
    }
}
