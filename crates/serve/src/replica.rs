//! The serving replica: adaptive micro-batcher + parameter sink.
//!
//! A replica runs two threads on two endpoints:
//!
//! * the **serve loop** (`ProcessId::server(i)`) — blocks on the inference
//!   endpoint, and on the first [`InferRequest`] opens a batching window:
//!   it keeps pulling requests until it holds `max_batch` rows or
//!   `max_wait_us` elapses, then answers the whole window with one fused
//!   `Mlp::forward_ws` pass. After each pass it checks the queue depth
//!   against `shed_watermark` and answers the overflow with explicit `Shed`
//!   replies — bounded latency instead of an unbounded queue.
//! * the **parameter sink** (`ProcessId::server(PARAM_SINK_OFFSET + i)`) —
//!   a [`ParamReceiver`] ingesting live learner broadcasts (full, delta, or
//!   quantized frames). Every applied version is rebuilt into a fresh
//!   [`Policy`] and published through the replica's `SnapshotCell<Policy>`, so the
//!   serve loop picks up new weights at its next batch without ever
//!   blocking on the swap. Only a frame the sink cannot apply is answered,
//!   with a nack that rebases the broadcaster's delta-base bookkeeping (a
//!   sink joining mid-chain converges after one full send).
//!
//! [`InferRequest`]: xingtian_message::InferRequest

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tinynn::Workspace;
use xingtian::messages::ControlCommand;
use xingtian::ParamReceiver;
use xingtian_algos::ParamBlob;
use xingtian_comm::{Endpoint, SnapshotCell};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{InferReply, InferRequest, Message, MessageKind, ProcessId};
use xt_telemetry::{CounterHandle, HistogramHandle};

use crate::policy::Policy;
use crate::ServeConfig;

/// What a serve loop did before it stopped.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplicaOutcome {
    /// `true` for an orderly `Shutdown` exit; `false` means the endpoint
    /// died underneath the loop and the fleet should respawn it.
    pub clean: bool,
    /// Requests answered with actions.
    pub served_requests: u64,
    /// Observation rows inferred (the QPS numerator).
    pub served_rows: u64,
    /// Requests answered with explicit `Shed` replies.
    pub sheds: u64,
}

/// One serving replica's inference loop. Constructed by the fleet; `run`
/// consumes it on its own thread.
pub struct ServeReplica {
    /// The inference endpoint (`ProcessId::server(i)` for replica `i`).
    pub endpoint: Endpoint,
    /// The hot-swappable policy shared with this replica's parameter sink.
    pub cell: Arc<SnapshotCell<Policy>>,
    /// Fleet configuration (batching bounds, shed watermark, debug hooks).
    pub config: ServeConfig,
}

/// A request staged in the current batching window.
struct Staged {
    reply_to: ProcessId,
    request: InferRequest,
    enqueued: Instant,
}

/// Per-run mutable state of one serve loop: its instruments, the batching
/// window, the forward workspace, and the outcome so far.
struct ServeRun {
    requests: CounterHandle,
    served: CounterHandle,
    sheds: CounterHandle,
    malformed: CounterHandle,
    batch_size: HistogramHandle,
    queue_us: HistogramHandle,
    infer_us: HistogramHandle,
    ws: Workspace,
    /// The window: requests admitted since the last flush, and the rows
    /// they ask for.
    staged: Vec<Staged>,
    rows: usize,
    batch_obs: Vec<f32>,
    out: ReplicaOutcome,
}

impl ServeReplica {
    /// Runs the serve loop until shutdown or endpoint death.
    pub fn run(self) -> ReplicaOutcome {
        let tel = self.endpoint.telemetry();
        let max_batch = self.config.max_batch;
        let mut run = ServeRun {
            requests: tel.counter("serve.requests"),
            served: tel.counter("serve.served"),
            sheds: tel.counter("serve.sheds"),
            malformed: tel.counter("serve.malformed"),
            batch_size: tel.histogram("serve.batch_size"),
            queue_us: tel.histogram("serve.queue_us"),
            infer_us: tel.histogram("serve.infer_us"),
            ws: Workspace::new(),
            staged: Vec::with_capacity(max_batch),
            rows: 0,
            batch_obs: Vec::with_capacity(max_batch * self.config.obs_dim),
            out: ReplicaOutcome::default(),
        };

        loop {
            let Some(first) = self.endpoint.recv() else {
                return run.out; // endpoint closed: dirty death, fleet respawns
            };
            let mut shutdown = self.admit(&mut run, &first, false);

            // Batching window: wait up to max_wait_us for the batch to fill.
            if !run.staged.is_empty() {
                let deadline = Instant::now() + Duration::from_micros(self.config.max_wait_us);
                while run.rows < max_batch && !shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let Some(msg) = self.endpoint.recv_timeout(deadline - now) else {
                        break; // window elapsed (or endpoint closed; recv picks that up)
                    };
                    shutdown = self.admit(&mut run, &msg, false);
                }

                self.flush(&mut run);

                // Graceful degradation: a backlog deeper than the watermark
                // after a full-speed batch means we are past capacity —
                // answer the overflow now with explicit sheds so queue time
                // stays bounded.
                while self.endpoint.pending() > self.config.shed_watermark {
                    let Some(msg) = self.endpoint.try_recv() else { break };
                    shutdown |= self.admit(&mut run, &msg, true);
                }
            }

            if shutdown {
                // Drain: everything already accepted gets served, in
                // max_batch-sized passes, before the replica leaves.
                while let Some(msg) = self.endpoint.try_recv() {
                    self.admit(&mut run, &msg, false);
                    if run.rows >= max_batch {
                        self.flush(&mut run);
                    }
                }
                self.flush(&mut run);
                run.out.clean = true;
                return run.out;
            }
        }
    }

    /// Admits one message — the only place the loop decodes one. A
    /// well-formed `InferRequest` joins the window, or with `shed` is
    /// answered at once with an explicit shed reply; anything else but the
    /// shutdown command is ignored. Returns `true` for the shutdown command.
    fn admit(&self, run: &mut ServeRun, msg: &Message, shed: bool) -> bool {
        match msg.header.kind {
            MessageKind::Control => return is_shutdown(msg),
            MessageKind::InferRequest => {
                run.requests.add(1);
                match InferRequest::from_bytes(&msg.body) {
                    Ok(request) if shed => {
                        self.shed(msg.header.src, &request);
                        run.sheds.add(1);
                        run.out.sheds += 1;
                    }
                    Ok(request) => {
                        run.rows += request.rows as usize;
                        run.staged.push(Staged {
                            reply_to: msg.header.src,
                            request,
                            enqueued: msg.header.created_at,
                        });
                    }
                    // A malformed body carries no id to answer; count it
                    // loudly instead of pretending it was served.
                    Err(_) => run.malformed.add(1),
                }
            }
            _ => {}
        }
        false
    }

    /// Answers every staged request with one fused forward pass.
    fn flush(&self, run: &mut ServeRun) {
        run.rows = 0;
        let ServeRun { staged, batch_obs, ws, out, .. } = run;
        if staged.is_empty() {
            return;
        }
        let obs_dim = self.config.obs_dim;
        batch_obs.clear();
        let mut rows = 0usize;
        // Geometry check up front: a request whose body disagrees with its
        // row count (or the fleet's obs_dim) cannot be inferred — it gets an
        // explicit shed reply so nothing goes silently unanswered.
        staged.retain(|s| {
            let want = s.request.rows as usize * obs_dim;
            if s.request.rows == 0 || s.request.observations.len() != want {
                self.shed(s.reply_to, &s.request);
                out.sheds += 1;
                return false;
            }
            rows += s.request.rows as usize;
            batch_obs.extend_from_slice(&s.request.observations);
            true
        });
        if rows == 0 {
            staged.clear();
            return;
        }
        run.batch_size.record(rows as u64);

        let t0 = Instant::now();
        let (version, actions) = self.cell.with(|policy| {
            let q = policy.mlp.forward_ws(batch_obs, rows, ws);
            let actions: Vec<u32> = q.chunks(self.config.num_actions).map(argmax).collect();
            (policy.version, actions)
        });
        if self.config.debug_infer_delay_us > 0 {
            std::thread::sleep(Duration::from_micros(self.config.debug_infer_delay_us));
        }
        run.infer_us.record_duration(t0.elapsed());

        let mut offset = 0usize;
        for s in staged.drain(..) {
            let n = s.request.rows as usize;
            run.queue_us.record_duration(s.enqueued.elapsed());
            let reply = InferReply {
                request_id: s.request.request_id,
                param_version: version,
                shed: false,
                actions: actions[offset..offset + n].to_vec(),
            };
            offset += n;
            self.endpoint.send_to(
                vec![s.reply_to],
                MessageKind::InferReply,
                Bytes::from(reply.to_bytes()),
            );
            out.served_requests += 1;
            out.served_rows += n as u64;
            run.served.add(1);
        }
    }

    /// Sends an explicit `Shed` reply for `req`.
    fn shed(&self, to: ProcessId, req: &InferRequest) {
        let reply = InferReply {
            request_id: req.request_id,
            param_version: 0,
            shed: true,
            actions: Vec::new(),
        };
        self.endpoint.send_to(vec![to], MessageKind::InferReply, Bytes::from(reply.to_bytes()));
    }
}

/// Greedy action: index of the first maximum (deterministic tie-break, the
/// same rule `DqnAgent::act` uses, so serving matches training-side greedy).
fn argmax(q: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in q.iter().enumerate().skip(1) {
        if v > q[best] {
            best = i;
        }
    }
    best as u32
}

fn is_shutdown(msg: &Message) -> bool {
    matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
}

/// The parameter-sink loop: the subscribe half of the parameter hand-off
/// ([`ParamReceiver::on_parameters`]) whose consumer rebuilds the policy and
/// publishes it through the cell. Runs until shutdown or endpoint death.
pub(crate) fn run_param_sink(
    endpoint: Endpoint,
    cell: Arc<SnapshotCell<Policy>>,
    sizes: Vec<usize>,
    sink_index: u32,
    seed: ParamBlob,
) {
    let swaps = endpoint.telemetry().counter("serve.swaps");
    let mut receiver = ParamReceiver::new();
    // Pre-load the boot blob so a broadcaster that knows this base (e.g. the
    // learner whose checkpoint booted the fleet) can start with deltas.
    if !seed.params.is_empty() {
        receiver.ingest(xingtian_message::CompressionKind::None, &seed.to_bytes());
    }
    while let Some(msg) = endpoint.recv() {
        match msg.header.kind {
            MessageKind::Parameters => {
                // Rebuild off the hot path; the serve loop sees the new
                // weights at its next batch via the lock-free cell.
                receiver.on_parameters(&endpoint, sink_index, &msg, |blob| {
                    cell.publish(Policy::from_blob(&sizes, blob));
                    swaps.add(1);
                });
            }
            MessageKind::Control if is_shutdown(&msg) => return,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_breaks_ties_toward_the_first_maximum() {
        assert_eq!(argmax(&[0.0, 1.0, 1.0]), 1);
        assert_eq!(argmax(&[3.0]), 0);
        assert_eq!(argmax(&[-2.0, -1.0, -3.0]), 1);
    }
}
