//! Simulated cluster substrate: machines, NICs, and bandwidth-throttled links.
//!
//! The paper evaluates XingTian on up to four FusionServer machines connected
//! by 1 GbE (iperf-measured 118.04 MB/s, Fig. 5). This reproduction runs on a
//! single host, so "machines" are simulated: every process is pinned to a
//! [`Machine`](cluster::Machine) of a [`Cluster`], and any byte that crosses
//! machines must pass through both endpoints' [`Nic`]s, which
//!
//! * serialize transfers (one flow at a time per NIC direction, like a single
//!   Ethernet port),
//! * throttle to a configurable bandwidth (default [`GBE_BANDWIDTH`]), and
//! * add propagation latency.
//!
//! Throttling blocks the *calling thread* for the modeled duration, so real
//! wall-clock measurements of the frameworks built on top naturally exhibit
//! the paper's NIC-bound behavior (e.g. 16 remote explorers saturating at
//! ~110 MB/s). A [`clock::Clock`] abstraction provides a virtual-time mode for
//! deterministic unit tests.
//!
//! # Examples
//!
//! ```
//! use netsim::{Cluster, ClusterSpec};
//!
//! let cluster = Cluster::new(ClusterSpec::default().machines(2));
//! let receipt = cluster.transfer(0, 1, 1024 * 1024); // 1 MiB across the link
//! assert!(receipt.duration.as_secs_f64() > 0.0);
//! ```

pub mod clock;
pub mod cluster;
pub mod faults;
pub mod nic;

pub use clock::{Clock, ClockMode};
pub use cluster::{Cluster, ClusterSpec, MachineId, TransferReceipt};
pub use faults::{LinkCondition, LinkDown, LinkFault, LinkFaultSchedule};
pub use nic::Nic;

/// iperf-measured bandwidth of the paper's 1 GbE NIC, in bytes per second
/// (118.04 MB/s, the dashed line of Fig. 5(a)).
pub const GBE_BANDWIDTH: f64 = 118.04 * 1e6;

/// Default one-way propagation latency between machines (LAN-scale).
pub const DEFAULT_LATENCY_SECS: f64 = 200e-6;
