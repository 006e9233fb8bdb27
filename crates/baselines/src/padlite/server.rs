//! The Reverb-style buffer server: a single-threaded data service.

use crate::costs::CostModel;
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};

/// A request to the buffer server.
#[derive(Debug)]
pub enum BufferRequest {
    /// Store an item (explorer-side insert).
    Insert(Bytes),
    /// Pop the oldest item and stream it to the learner. If the buffer is
    /// empty the request is queued and served by the next insert (Reverb's
    /// rate-limited sampling blocks the same way).
    Sample,
    /// Stop the server.
    Shutdown,
}

/// A FIFO buffer service processing every request serially on one thread,
/// paying the streaming cost of [`CostModel::grpc_stream_time`] per item in
/// each direction.
pub struct BufferServer {
    /// Request queue shared by all clients.
    pub requests: Receiver<BufferRequest>,
    /// Sampled items to the learner.
    pub samples: Sender<Bytes>,
    /// Cost model for the streaming stack.
    pub costs: CostModel,
}

impl BufferServer {
    /// Serves requests until shutdown or disconnection. Returns the number of
    /// items that passed through.
    pub fn run(self) -> u64 {
        let mut queue: VecDeque<Bytes> = VecDeque::new();
        let mut pending_samples = 0usize;
        let mut served = 0u64;
        while let Ok(req) = self.requests.recv() {
            match req {
                BufferRequest::Insert(bytes) => {
                    // Ingest: stream the item through the server's stack and
                    // copy it into the table.
                    let cost = self.costs.grpc_stream_time(bytes.len());
                    if !cost.is_zero() {
                        std::thread::sleep(cost);
                    }
                    queue.push_back(Bytes::copy_from_slice(&bytes));
                    while pending_samples > 0 && !queue.is_empty() {
                        pending_samples -= 1;
                        if !self.serve(&mut queue, &mut served) {
                            return served;
                        }
                    }
                }
                BufferRequest::Sample => {
                    if queue.is_empty() {
                        pending_samples += 1;
                    } else if !self.serve(&mut queue, &mut served) {
                        return served;
                    }
                }
                BufferRequest::Shutdown => break,
            }
        }
        served
    }

    fn serve(&self, queue: &mut VecDeque<Bytes>, served: &mut u64) -> bool {
        let item = queue.pop_front().expect("serve called with items queued");
        // Egress: stream the item out to the learner.
        let cost = self.costs.grpc_stream_time(item.len());
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
        *served += 1;
        self.samples.send(item).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn spawn_server(costs: CostModel) -> (Sender<BufferRequest>, Receiver<Bytes>, std::thread::JoinHandle<u64>) {
        let (req_tx, req_rx) = channel();
        let (sample_tx, sample_rx) = channel();
        let server = BufferServer { requests: req_rx, samples: sample_tx, costs };
        let handle = std::thread::spawn(move || server.run());
        (req_tx, sample_rx, handle)
    }

    #[test]
    fn insert_then_sample_round_trips() {
        let (req, samples, handle) = spawn_server(CostModel::zero_overhead());
        req.send(BufferRequest::Insert(Bytes::from_static(b"abc"))).unwrap();
        req.send(BufferRequest::Sample).unwrap();
        assert_eq!(samples.recv().unwrap(), Bytes::from_static(b"abc"));
        req.send(BufferRequest::Shutdown).unwrap();
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn sample_before_insert_blocks_until_data() {
        let (req, samples, handle) = spawn_server(CostModel::zero_overhead());
        req.send(BufferRequest::Sample).unwrap();
        req.send(BufferRequest::Sample).unwrap();
        req.send(BufferRequest::Insert(Bytes::from_static(b"1"))).unwrap();
        req.send(BufferRequest::Insert(Bytes::from_static(b"2"))).unwrap();
        assert_eq!(samples.recv().unwrap(), Bytes::from_static(b"1"));
        assert_eq!(samples.recv().unwrap(), Bytes::from_static(b"2"));
        req.send(BufferRequest::Shutdown).unwrap();
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (req, samples, handle) = spawn_server(CostModel::zero_overhead());
        for i in 0..5u8 {
            req.send(BufferRequest::Insert(Bytes::from(vec![i]))).unwrap();
        }
        for _ in 0..5 {
            req.send(BufferRequest::Sample).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(samples.recv().unwrap()[0], i);
        }
        req.send(BufferRequest::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn streaming_cost_is_paid_serially() {
        let mut costs = CostModel::zero_overhead();
        costs.grpc_chunk_bytes = 1024;
        costs.grpc_chunk_overhead = std::time::Duration::from_millis(5);
        let (req, samples, handle) = spawn_server(costs);
        let t0 = std::time::Instant::now();
        // 4 KiB in + out = 8 chunks × 5 ms = 40 ms minimum.
        req.send(BufferRequest::Insert(Bytes::from(vec![0u8; 4096]))).unwrap();
        req.send(BufferRequest::Sample).unwrap();
        samples.recv().unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(35));
        req.send(BufferRequest::Shutdown).unwrap();
        handle.join().unwrap();
    }
}
