//! The dummy DRL algorithm under the RLLib-style pull model (paper §5.1).
//!
//! Same workload as [`xingtian::dummy`]: every explorer has `rounds` messages
//! of a fixed size to deliver; the learner consumes them in rounds. The
//! difference is purely architectural: here nothing moves until the driver
//! *requests* a message from each worker and then pulls the result, paying
//! RPC overhead, both object-store copies, and (cross-machine) the NIC on
//! its own critical path, round after round.

use crate::costs::CostModel;
use crate::rpc;
use bytes::Bytes;
use netsim::Cluster;
use std::sync::mpsc::{channel, sync_channel};
use std::time::Instant;
use xingtian::dummy::{DummyConfig, DummyResult};

/// Runs the dummy benchmark under the pull model.
///
/// # Panics
///
/// Panics if the configuration is inconsistent or a worker thread panics.
pub fn run_ray_dummy(config: DummyConfig, costs: &CostModel) -> DummyResult {
    assert_eq!(
        config.explorers_per_machine.len(),
        config.cluster.machines,
        "explorers_per_machine must match the machine count"
    );
    let num_workers = config.total_explorers();
    assert!(num_workers > 0, "at least one explorer required");

    let cluster = Cluster::new(config.cluster.clone());
    let payload: Vec<u8> = (0..config.message_size).map(|i| (i % 251) as u8).collect();
    let payload = Bytes::from(payload);

    // Each worker waits for a per-round request, then stages its payload.
    let mut req_txs = Vec::new();
    let (resp_tx, resp_rx) = channel::<(usize, Bytes)>();
    let mut machines = Vec::new();
    let mut handles = Vec::new();
    let mut idx = 0usize;
    for (machine, &count) in config.explorers_per_machine.iter().enumerate() {
        for _ in 0..count {
            let (tx, rx) = sync_channel::<()>(config.rounds);
            req_txs.push(tx);
            machines.push(machine);
            let resp_tx = resp_tx.clone();
            let payload = payload.clone();
            let w = idx;
            handles.push(std::thread::spawn(move || {
                while rx.recv().is_ok() {
                    // "Serialize" the message on the worker (one real copy),
                    // then stage it; it will not move until pulled.
                    let staged = Bytes::copy_from_slice(&payload);
                    if resp_tx.send((w, staged)).is_err() {
                        return;
                    }
                }
            }));
            idx += 1;
        }
    }
    drop(resp_tx);

    let learner_machine = config.learner_machine;
    let start = Instant::now();
    let mut total_bytes = 0u64;
    let mut round_latencies = Vec::with_capacity(config.rounds);
    for _ in 0..config.rounds {
        // The central control logic schedules this round's tasks...
        for tx in &req_txs {
            tx.send(()).expect("worker gone");
        }
        // ...and then asks for the data, one pull at a time.
        for _ in 0..num_workers {
            let (w, staged) = resp_rx.recv().expect("worker gone");
            let bytes = rpc::pull(&cluster, machines[w], learner_machine, &staged, costs);
            total_bytes += bytes.len() as u64;
        }
        round_latencies.push(start.elapsed());
    }
    let elapsed = start.elapsed();

    drop(req_txs);
    for h in handles {
        h.join().expect("dummy worker panicked");
    }
    DummyResult { total_bytes, elapsed, round_latencies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xingtian::dummy::run_dummy;

    #[test]
    fn delivers_all_bytes() {
        let cfg = DummyConfig { rounds: 5, ..DummyConfig::single_machine(3, 32 * 1024) };
        let result = run_ray_dummy(cfg, &CostModel::zero_overhead());
        assert_eq!(result.total_bytes, 3 * 5 * 32 * 1024);
    }

    #[test]
    fn pull_round_trips_sit_on_raylite_critical_path() {
        // The architectural property behind the paper's Fig. 4: every message
        // in the pull model costs the driver an RPC overhead, while the
        // push channel pays none. With a 2 ms overhead and 40 messages,
        // raylite must spend ≥ 80 ms on pulls that XingTian does not. (The
        // release-mode Fig. 4 bench sweeps real sizes; this unit test pins
        // the mechanism deterministically.)
        let cfg = DummyConfig { rounds: 20, ..DummyConfig::single_machine(2, 64 * 1024) };
        let mut costs = CostModel::zero_overhead();
        costs.rpc_overhead = std::time::Duration::from_millis(2);
        let xt = run_dummy(cfg.clone());
        let ray = run_ray_dummy(cfg, &costs);
        assert!(
            ray.elapsed >= std::time::Duration::from_millis(80),
            "40 pulls at 2 ms overhead each: {:?}",
            ray.elapsed
        );
        assert!(
            xt.throughput_mb_s() > 2.0 * ray.throughput_mb_s(),
            "XingTian {:.0} MB/s should clearly beat raylite {:.0} MB/s",
            xt.throughput_mb_s(),
            ray.throughput_mb_s()
        );
    }
}
