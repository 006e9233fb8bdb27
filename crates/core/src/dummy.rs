//! The dummy DRL algorithm for measuring raw data-transmission efficiency
//! (paper §5.1).
//!
//! The dummy algorithm keeps the communication mode of DRL algorithms but
//! strips all computation: explorers send a fixed number of fixed-size
//! messages as fast as they can; the learner receives them in rounds (one
//! message from each explorer per round, without caring which explorer sent
//! what) and reports the end-to-end latency and the data-transmission
//! throughput once all rounds complete. Parameter traffic is omitted, exactly
//! as in the paper.

use bytes::Bytes;
use netsim::{Cluster, ClusterSpec};
use std::time::{Duration, Instant};
use xingtian_comm::{connect_brokers, Broker, CommConfig};
use xingtian_message::{MessageKind, ProcessId};

/// Configuration of one dummy-algorithm run.
#[derive(Debug, Clone)]
pub struct DummyConfig {
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Explorers hosted per machine.
    pub explorers_per_machine: Vec<u32>,
    /// Machine hosting the learner.
    pub learner_machine: usize,
    /// Message body size in bytes.
    pub message_size: usize,
    /// Messages sent per explorer (paper: 20).
    pub rounds: usize,
    /// Channel configuration. The paper's transmission benchmark payloads are
    /// synthetic; compression is disabled by default so the measured rate is
    /// the channel's, not the compressor's.
    pub comm: CommConfig,
}

impl DummyConfig {
    /// Single-machine run with `explorers` explorers and `message_size`-byte
    /// messages, 20 rounds (the paper's setup).
    pub fn single_machine(explorers: u32, message_size: usize) -> Self {
        DummyConfig {
            cluster: ClusterSpec::default(),
            explorers_per_machine: vec![explorers],
            learner_machine: 0,
            message_size,
            rounds: 20,
            comm: CommConfig::uncompressed(),
        }
    }

    /// Total explorer count.
    pub fn total_explorers(&self) -> u32 {
        self.explorers_per_machine.iter().sum()
    }
}

/// Measurements reported by the dummy learner.
#[derive(Debug, Clone)]
pub struct DummyResult {
    /// Body bytes the learner received in total.
    pub total_bytes: u64,
    /// Time from launch until the last message of the last round arrived.
    pub elapsed: Duration,
    /// Cumulative time at which each round completed.
    pub round_latencies: Vec<Duration>,
}

impl DummyResult {
    /// Data-transmission throughput in MB/s (the paper's Fig. 4/5 y-axis).
    pub fn throughput_mb_s(&self) -> f64 {
        if self.elapsed.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }
}

/// Runs the dummy DRL algorithm on the XingTian channel.
///
/// # Panics
///
/// Panics if the configuration is internally inconsistent (machine counts)
/// or a worker thread panics.
pub fn run_dummy(config: DummyConfig) -> DummyResult {
    assert_eq!(
        config.explorers_per_machine.len(),
        config.cluster.machines,
        "explorers_per_machine must match the machine count"
    );
    let num_explorers = config.total_explorers();
    assert!(num_explorers > 0, "at least one explorer required");

    let cluster = Cluster::new(config.cluster.clone());
    let brokers: Vec<Broker> =
        (0..cluster.len()).map(|m| Broker::new(m, cluster.clone(), config.comm.clone())).collect();
    // Fabric first: endpoint routes created below propagate to peers live.
    connect_brokers(&brokers);
    let learner_ep = brokers[config.learner_machine].endpoint(ProcessId::learner(0));

    let mut explorer_eps = Vec::new();
    let mut next_index = 0u32;
    for (machine, &count) in config.explorers_per_machine.iter().enumerate() {
        for _ in 0..count {
            explorer_eps.push(brokers[machine].endpoint(ProcessId::explorer(next_index)));
            next_index += 1;
        }
    }

    // Incompressible-ish payload: a distinct byte pattern per message index
    // would defeat dedup; a simple ramp suffices since compression is off by
    // default.
    let payload: Vec<u8> = (0..config.message_size).map(|i| (i % 251) as u8).collect();
    let payload = Bytes::from(payload);

    let start = Instant::now();
    let rounds = config.rounds;
    let mut explorer_threads = Vec::new();
    for ep in explorer_eps {
        let payload = payload.clone();
        explorer_threads.push(std::thread::spawn(move || {
            for _ in 0..rounds {
                // Aggressive push: each message enters the store at once,
                // and the channel routes it while we send the next.
                ep.send_to(vec![ProcessId::learner(0)], MessageKind::Dummy, payload.clone());
            }
        }));
    }

    // Dummy learner: one message per explorer per round, sender-agnostic.
    let mut total_bytes = 0u64;
    let mut round_latencies = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for _ in 0..num_explorers {
            let msg = learner_ep.recv().expect("dummy learner starved: channel closed early");
            total_bytes += msg.body.len() as u64;
        }
        round_latencies.push(start.elapsed());
    }
    let elapsed = start.elapsed();

    for t in explorer_threads {
        t.join().expect("dummy explorer panicked");
    }
    learner_ep.close();
    for b in &brokers {
        b.shutdown();
    }

    DummyResult { total_bytes, elapsed, round_latencies }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_machine_transfers_everything() {
        let cfg = DummyConfig { rounds: 5, ..DummyConfig::single_machine(4, 16 * 1024) };
        let result = run_dummy(cfg);
        assert_eq!(result.total_bytes, 4 * 5 * 16 * 1024);
        assert_eq!(result.round_latencies.len(), 5);
        assert!(result.throughput_mb_s() > 0.0);
    }

    #[test]
    fn round_latencies_are_monotonic() {
        let cfg = DummyConfig { rounds: 4, ..DummyConfig::single_machine(2, 4 * 1024) };
        let result = run_dummy(cfg);
        for w in result.round_latencies.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn two_machine_run_is_nic_bound() {
        // 2 explorers on machine 1 send to a learner on machine 0 through a
        // deliberately slow NIC; achieved throughput must respect it.
        let cfg = DummyConfig {
            cluster: ClusterSpec::default().machines(2).nic_bandwidth(20e6).latency_secs(0.0),
            explorers_per_machine: vec![0, 2],
            learner_machine: 0,
            message_size: 1024 * 1024,
            rounds: 3,
            comm: CommConfig::uncompressed(),
        };
        let result = run_dummy(cfg);
        let mbps = result.throughput_mb_s();
        assert!(mbps < 25.0, "cannot beat the 20 MB/s NIC, got {mbps:.1}");
        assert!(mbps > 5.0, "should approach the NIC rate, got {mbps:.1}");
    }
}
