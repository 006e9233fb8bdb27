//! The serving client: open-loop sends, reply matching, e2e SLO capture.
//!
//! A [`ServeClient`] owns one controller-role endpoint (unbounded receive
//! buffer — replies must never back-pressure the replica) and talks to the
//! replica the consistent hash assigns it. It supports both open-loop use
//! (pace [`send`], drain [`poll`]) for load generation and a blocking
//! convenience ([`infer_blocking`]) for request/response callers. Every
//! matched reply records client-observed end-to-end latency into the
//! `serve.e2e_us` log-histogram.
//!
//! [`send`]: ServeClient::send
//! [`poll`]: ServeClient::poll
//! [`infer_blocking`]: ServeClient::infer_blocking

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use xingtian_comm::{Broker, Endpoint};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{InferReply, InferRequest, MessageKind, ProcessId};

use crate::fleet::pid_hash;
use crate::CLIENT_OFFSET;

/// One inference client. See the module docs.
pub struct ServeClient {
    endpoint: Endpoint,
    target: ProcessId,
    next_id: u64,
    inflight: HashMap<u64, Instant>,
    e2e_us: xt_telemetry::HistogramHandle,
    /// Requests sent.
    pub sent: u64,
    /// Replies carrying actions.
    pub answered: u64,
    /// Replies carrying an explicit shed.
    pub shed: u64,
    /// Observation rows answered with actions.
    pub answered_rows: u64,
}

impl ServeClient {
    /// Client `index` on `broker`, assigned to its replica by consistent
    /// hash over a `replicas`-wide fleet.
    pub fn new(broker: &Broker, index: u32, replicas: usize) -> Self {
        let pid = ProcessId::controller(CLIENT_OFFSET + index);
        let endpoint = broker.endpoint(pid);
        let e2e_us = endpoint.telemetry().histogram("serve.e2e_us");
        let target = ProcessId::server((pid_hash(pid) % replicas as u64) as u32);
        ServeClient {
            endpoint,
            target,
            next_id: 1,
            inflight: HashMap::new(),
            e2e_us,
            sent: 0,
            answered: 0,
            shed: 0,
            answered_rows: 0,
        }
    }

    /// Overrides the hash-assigned replica (tests pin specific replicas).
    pub fn set_target(&mut self, target: ProcessId) {
        self.target = target;
    }

    /// Requests not yet answered.
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Sends one observation batch (`rows` rows, flat row-major) open-loop;
    /// returns the request id.
    pub fn send(&mut self, observations: &[f32], rows: u32) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let req = InferRequest {
            request_id: id,
            rows,
            observations: observations.to_vec(),
        };
        self.inflight.insert(id, Instant::now());
        self.sent += 1;
        self.endpoint.send_to(
            vec![self.target],
            MessageKind::InferRequest,
            Bytes::from(req.to_bytes()),
        );
        id
    }

    /// Drains available replies into `out`; returns how many arrived.
    pub fn poll(&mut self, out: &mut Vec<InferReply>) -> usize {
        let mut n = 0;
        while let Some(msg) = self.endpoint.try_recv() {
            if let Some(reply) = self.admit(&msg) {
                out.push(reply);
                n += 1;
            }
        }
        n
    }

    /// Like [`poll`], but blocks up to `timeout` for the first reply before
    /// draining the rest. The open-loop load generator's friend on small
    /// hosts: a client that sleeps between paced sends instead of spinning
    /// on [`poll`] leaves the core to the replicas it is measuring.
    ///
    /// [`poll`]: ServeClient::poll
    pub fn poll_timeout(&mut self, timeout: Duration, out: &mut Vec<InferReply>) -> usize {
        let Some(msg) = self.endpoint.recv_timeout(timeout) else {
            return 0;
        };
        let mut n = 0;
        if let Some(reply) = self.admit(&msg) {
            out.push(reply);
            n += 1;
        }
        n + self.poll(out)
    }

    /// Sends one batch and blocks for its reply (request/response callers).
    pub fn infer_blocking(
        &mut self,
        observations: &[f32],
        rows: u32,
        timeout: Duration,
    ) -> Option<InferReply> {
        let id = self.send(observations, rows);
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let msg = self.endpoint.recv_timeout(deadline - now)?;
            if let Some(reply) = self.admit(&msg) {
                if reply.request_id == id {
                    return Some(reply);
                }
                // A stale reply to an earlier open-loop send: already
                // accounted by `admit`, keep waiting for ours.
            }
        }
    }

    /// Blocks until every outstanding request is answered or `timeout`
    /// passes; returns the replies that arrived.
    pub fn drain(&mut self, timeout: Duration) -> Vec<InferReply> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::with_capacity(self.inflight.len());
        while !self.inflight.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let Some(msg) = self.endpoint.recv_timeout(deadline - now) else {
                continue;
            };
            if let Some(reply) = self.admit(&msg) {
                out.push(reply);
            }
        }
        out
    }

    /// Matches a reply against the in-flight table, recording e2e latency
    /// and the answered/shed tallies.
    fn admit(&mut self, msg: &xingtian_message::Message) -> Option<InferReply> {
        if msg.header.kind != MessageKind::InferReply {
            return None;
        }
        let reply = InferReply::from_bytes(&msg.body).ok()?;
        let sent_at = self.inflight.remove(&reply.request_id)?;
        self.e2e_us.record_duration(sent_at.elapsed());
        if reply.shed {
            self.shed += 1;
        } else {
            self.answered += 1;
            self.answered_rows += reply.actions.len() as u64;
        }
        Some(reply)
    }

    /// Closes the client's endpoint.
    pub fn close(self) {
        self.endpoint.close();
    }
}
