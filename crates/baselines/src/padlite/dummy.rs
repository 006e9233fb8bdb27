//! The dummy DRL algorithm under the Launchpad/Reverb architecture.

use crate::costs::CostModel;
use crate::padlite::server::{BufferRequest, BufferServer};
use bytes::Bytes;
use std::sync::mpsc::channel;
use std::time::Instant;
use xingtian::dummy::{DummyConfig, DummyResult};

/// Which of the paper's two Launchpad deployments to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadMode {
    /// Acme's standard shape: a Reverb buffer server between explorers and
    /// learner (two streaming hops through one server thread).
    WithReverb,
    /// Explorers courier messages directly to the learner (the paper's
    /// "solely Launchpad-based" variant) — still chunk-streamed RPC, but the
    /// streams run in parallel on the explorer threads.
    Direct,
}

/// Runs the dummy benchmark under the Launchpad model. Launchpad deployments
/// are single-machine (the paper notes it "currently can only be deployed in
/// a single machine"), so the cluster topology is ignored.
///
/// # Panics
///
/// Panics if the configuration has no explorers or a thread panics.
pub fn run_pad_dummy(config: DummyConfig, costs: &CostModel, mode: PadMode) -> DummyResult {
    let num_explorers = config.total_explorers();
    assert!(num_explorers > 0, "at least one explorer required");
    let payload: Vec<u8> = (0..config.message_size).map(|i| (i % 251) as u8).collect();
    let payload = Bytes::from(payload);
    let total_messages = config.rounds * num_explorers as usize;

    match mode {
        PadMode::WithReverb => {
            let (req_tx, req_rx) = channel();
            let (sample_tx, sample_rx) = channel();
            let server = BufferServer { requests: req_rx, samples: sample_tx, costs: costs.clone() };
            let server_handle = std::thread::spawn(move || server.run());

            let start = Instant::now();
            let mut producer_handles = Vec::new();
            for _ in 0..num_explorers {
                let req_tx = req_tx.clone();
                let payload = payload.clone();
                let rounds = config.rounds;
                let overhead = costs.rpc_overhead;
                producer_handles.push(std::thread::spawn(move || {
                    for _ in 0..rounds {
                        if !overhead.is_zero() {
                            std::thread::sleep(overhead);
                        }
                        // Client-side serialize copy, then hand to the server.
                        let staged = Bytes::copy_from_slice(&payload);
                        if req_tx.send(BufferRequest::Insert(staged)).is_err() {
                            return;
                        }
                    }
                }));
            }

            let mut total_bytes = 0u64;
            let mut round_latencies = Vec::with_capacity(config.rounds);
            for round in 0..config.rounds {
                for _ in 0..num_explorers {
                    req_tx.send(BufferRequest::Sample).expect("server gone");
                    let item = sample_rx.recv().expect("server gone");
                    // Learner-side copy out of the stream.
                    total_bytes += Bytes::copy_from_slice(&item).len() as u64;
                }
                let _ = round;
                round_latencies.push(start.elapsed());
            }
            let elapsed = start.elapsed();

            for h in producer_handles {
                h.join().expect("producer panicked");
            }
            req_tx.send(BufferRequest::Shutdown).expect("server gone");
            let served = server_handle.join().expect("server panicked");
            assert_eq!(served as usize, total_messages);
            DummyResult { total_bytes, elapsed, round_latencies }
        }
        PadMode::Direct => {
            let (tx, rx) = channel::<Bytes>();
            let start = Instant::now();
            let mut producer_handles = Vec::new();
            for _ in 0..num_explorers {
                let tx = tx.clone();
                let payload = payload.clone();
                let rounds = config.rounds;
                let costs = costs.clone();
                producer_handles.push(std::thread::spawn(move || {
                    for _ in 0..rounds {
                        if !costs.rpc_overhead.is_zero() {
                            std::thread::sleep(costs.rpc_overhead);
                        }
                        // The courier streams the message chunk by chunk on
                        // the sender's thread (parallel across explorers).
                        let cost = costs.courier_stream_time(payload.len());
                        if !cost.is_zero() {
                            std::thread::sleep(cost);
                        }
                        if tx.send(Bytes::copy_from_slice(&payload)).is_err() {
                            return;
                        }
                    }
                }));
            }
            drop(tx);

            let mut total_bytes = 0u64;
            let mut round_latencies = Vec::with_capacity(config.rounds);
            for _ in 0..config.rounds {
                for _ in 0..num_explorers {
                    let item = rx.recv().expect("producers gone");
                    total_bytes += Bytes::copy_from_slice(&item).len() as u64;
                }
                round_latencies.push(start.elapsed());
            }
            let elapsed = start.elapsed();
            for h in producer_handles {
                h.join().expect("producer panicked");
            }
            DummyResult { total_bytes, elapsed, round_latencies }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverb_mode_delivers_everything() {
        let cfg = DummyConfig { rounds: 3, ..DummyConfig::single_machine(2, 8 * 1024) };
        let r = run_pad_dummy(cfg, &CostModel::zero_overhead(), PadMode::WithReverb);
        assert_eq!(r.total_bytes, 2 * 3 * 8 * 1024);
    }

    #[test]
    fn direct_mode_delivers_everything() {
        let cfg = DummyConfig { rounds: 3, ..DummyConfig::single_machine(2, 8 * 1024) };
        let r = run_pad_dummy(cfg, &CostModel::zero_overhead(), PadMode::Direct);
        assert_eq!(r.total_bytes, 2 * 3 * 8 * 1024);
    }

    #[test]
    fn reverb_throughput_is_flat_in_explorer_count() {
        // The single server thread is the bottleneck: doubling explorers must
        // not meaningfully raise throughput (paper Fig. 4(a) vs 4(b)).
        let mut costs = CostModel::zero_overhead();
        costs.grpc_chunk_bytes = 16 * 1024;
        costs.grpc_chunk_overhead = std::time::Duration::from_millis(2);
        let size = 256 * 1024;
        let one = run_pad_dummy(
            DummyConfig { rounds: 4, ..DummyConfig::single_machine(1, size) },
            &costs,
            PadMode::WithReverb,
        );
        let four = run_pad_dummy(
            DummyConfig { rounds: 4, ..DummyConfig::single_machine(4, size) },
            &costs,
            PadMode::WithReverb,
        );
        let ratio = four.throughput_mb_s() / one.throughput_mb_s();
        assert!(ratio < 1.5, "server-bound: 4 explorers gave ratio {ratio:.2}");
    }

    #[test]
    fn direct_mode_scales_with_explorers() {
        let mut costs = CostModel::zero_overhead();
        costs.courier_chunk_bytes = 16 * 1024;
        costs.courier_chunk_overhead = std::time::Duration::from_millis(2);
        let size = 256 * 1024;
        let one = run_pad_dummy(
            DummyConfig { rounds: 4, ..DummyConfig::single_machine(1, size) },
            &costs,
            PadMode::Direct,
        );
        let four = run_pad_dummy(
            DummyConfig { rounds: 4, ..DummyConfig::single_machine(4, size) },
            &costs,
            PadMode::Direct,
        );
        let ratio = four.throughput_mb_s() / one.throughput_mb_s();
        assert!(ratio > 2.0, "parallel couriers should scale, ratio {ratio:.2}");
    }
}
