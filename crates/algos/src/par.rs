//! Deterministic data-parallel minibatch gradients over the shared worker
//! pool.
//!
//! A training step's per-row work (forward, loss gradient, backward) is
//! embarrassingly parallel across the batch dimension. [`ParGrad`] splits the
//! batch into contiguous row shards, runs a caller-supplied shard closure on
//! the `xingtian_comm` worker pool (caller participating, same stride
//! discipline as the chunk codecs), and reduces the per-shard gradients **in
//! fixed shard order** on the calling thread.
//!
//! Determinism: the shard count is a function of the batch size alone (never
//! of the worker count), every shard's math runs sequentially within the
//! shard, and the reduction order is fixed — so gradients are bitwise
//! identical across runs, across worker-pool sizes, and against the serial
//! path (`pool = None`, which runs the same shards in order on the caller).
//!
//! Allocation: shard workspaces and gradient buffers live in the `ParGrad`
//! and are reused across calls. The single-shard path (small batches, e.g.
//! DQN's 32) boxes no jobs and performs zero heap allocations after warmup;
//! the multi-shard pool path allocates only the job boxes and completion
//! channel.

use std::ops::Range;
use tinynn::Workspace;
use xingtian_comm::pool::WorkPool;

/// Rows per shard before another shard is worth spawning. Below this the
/// per-job overhead (boxing, channel hop, cache warmup) outweighs the
/// parallelism.
const ROWS_PER_SHARD: usize = 64;

/// Maximum shards per step — matches the worker-pool cap.
const MAX_SHARDS: usize = 8;

/// Per-shard scratch state handed to the shard closure.
///
/// The two [`Workspace`]s let multi-phase algorithms (IMPALA) keep two
/// networks' cached activations alive across separate [`ParGrad::run`] calls
/// on the same batch: forward the policy in `ws_a` and the value net in
/// `ws_b` during one run, then back-propagate both in later runs without
/// re-running the forwards.
#[derive(Debug, Default)]
pub struct Shard {
    /// Primary workspace (policy net, or the only net).
    pub ws_a: Workspace,
    /// Secondary workspace (value net in two-network algorithms).
    pub ws_b: Workspace,
    /// Free-form f32 scratch (e.g. the shard's dlogits rows); grown by the
    /// closure via [`Shard::scratch_for`], never shrunk.
    pub scratch: Vec<f32>,
}

impl Shard {
    /// Splits the shard into `(ws_a, ws_b, &mut scratch[..len])`, growing
    /// the scratch buffer if needed (no-op after warmup), so a closure can
    /// forward into a workspace and write its loss gradient beside it.
    pub fn scratch_for(&mut self, len: usize) -> (&mut Workspace, &mut Workspace, &mut [f32]) {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0.0);
        }
        (&mut self.ws_a, &mut self.ws_b, &mut self.scratch[..len])
    }
}

/// Reusable engine for pool-parallel, deterministically-reduced minibatch
/// gradient computation.
#[derive(Debug, Default)]
pub struct ParGrad {
    shards: Vec<Shard>,
    grad_bufs: Vec<Vec<f32>>,
    losses: Vec<f32>,
    ranges: Vec<Range<usize>>,
}

impl ParGrad {
    /// A fresh engine; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shards for a batch of `batch` rows: one per [`ROWS_PER_SHARD`] rows,
    /// clamped to `1..=`[`MAX_SHARDS`]. A function of the batch size ONLY —
    /// this is what makes sharded gradients reproducible on any machine.
    pub fn shard_count(batch: usize) -> usize {
        (batch / ROWS_PER_SHARD).clamp(1, MAX_SHARDS)
    }

    /// Runs `f` once per shard and reduces the results deterministically.
    ///
    /// * `batch` — total rows; shards get contiguous balanced row ranges.
    /// * `out` / `out_width` — a caller-owned row-major output buffer
    ///   (`batch × out_width`) split into disjoint per-shard row slices; pass
    ///   `(&mut [], 0)` when the step produces no per-row output.
    /// * `grads` — when `Some`, each shard fully overwrites a private buffer
    ///   of the same length, and the buffers are summed into `grads` in shard
    ///   order (fixed-order f32 reduction). When `None`, shards receive an
    ///   empty gradient slice (pure-forward phases).
    /// * `f(rows, out_rows, shard, shard_grads)` returns the shard's loss
    ///   contribution (scale by the *global* batch, not the shard length);
    ///   contributions are summed in shard order.
    ///
    /// With `pool = None` every shard runs on the calling thread in shard
    /// order — the bitwise reference for the pool path. A single-shard batch
    /// short-circuits to a direct call writing straight into `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < batch * out_width` or `batch == 0`.
    pub fn run<F>(
        &mut self,
        pool: Option<&WorkPool>,
        batch: usize,
        out: &mut [f32],
        out_width: usize,
        grads: Option<&mut [f32]>,
        f: F,
    ) -> f32
    where
        F: Fn(Range<usize>, &mut [f32], &mut Shard, &mut [f32]) -> f32 + Sync,
    {
        assert!(batch > 0, "cannot shard an empty batch");
        assert!(out.len() >= batch * out_width, "out buffer too small");
        let k = Self::shard_count(batch);
        if self.shards.len() < k {
            self.shards.resize_with(k, Shard::default);
        }

        if k == 1 {
            let grads = grads.map_or(&mut [] as &mut [f32], |g| g);
            return f(0..batch, &mut out[..batch * out_width], &mut self.shards[0], grads);
        }

        let nparams = grads.as_ref().map_or(0, |g| g.len());
        if self.grad_bufs.len() < k {
            self.grad_bufs.resize_with(k, Vec::new);
        }
        for buf in &mut self.grad_bufs[..k] {
            // Exact logical length per call (different nets have different
            // sizes); capacity only grows, so this is alloc-free after warmup.
            if buf.len() < nparams {
                buf.resize(nparams, 0.0);
            }
        }
        self.losses.resize(k, 0.0);
        self.ranges.clear();
        let (base, rem) = (batch / k, batch % k);
        let mut start = 0usize;
        for i in 0..k {
            let len = base + usize::from(i < rem);
            self.ranges.push(start..start + len);
            start += len;
        }

        match pool {
            None => {
                // Serial reference: same shards, same order, same math.
                let mut rest = &mut out[..batch * out_width];
                for i in 0..k {
                    let rows = self.ranges[i].clone();
                    let (mine, tail) = rest.split_at_mut(rows.len() * out_width);
                    rest = tail;
                    self.losses[i] =
                        f(rows, mine, &mut self.shards[i], &mut self.grad_bufs[i][..nparams]);
                }
            }
            Some(pool) => {
                let fref = &f;
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(k);
                let mut rest = &mut out[..batch * out_width];
                for (((rows, shard), buf), loss) in self.ranges.iter().cloned()
                    .zip(self.shards.iter_mut())
                    .zip(self.grad_bufs.iter_mut())
                    .zip(self.losses.iter_mut())
                {
                    let (mine, tail) = rest.split_at_mut(rows.len() * out_width);
                    rest = tail;
                    let grads = &mut buf[..nparams];
                    jobs.push(Box::new(move || {
                        *loss = fref(rows, mine, shard, grads);
                    }));
                }
                pool.run_scoped(jobs);
            }
        }

        if let Some(grads) = grads {
            grads.copy_from_slice(&self.grad_bufs[0][..nparams]);
            for buf in &self.grad_bufs[1..k] {
                for (g, &b) in grads.iter_mut().zip(&buf[..nparams]) {
                    *g += b;
                }
            }
        }
        self.losses[..k].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_depends_only_on_batch() {
        assert_eq!(ParGrad::shard_count(1), 1);
        assert_eq!(ParGrad::shard_count(63), 1);
        assert_eq!(ParGrad::shard_count(64), 1);
        assert_eq!(ParGrad::shard_count(128), 2);
        assert_eq!(ParGrad::shard_count(500), 7);
        assert_eq!(ParGrad::shard_count(100_000), 8);
    }

    #[test]
    fn serial_and_pool_paths_are_bitwise_equal() {
        // Shard closure: out row i gets i as f32, grads accumulate row sums.
        let run = |pool: Option<&WorkPool>| -> (Vec<f32>, Vec<f32>, f32) {
            let mut par = ParGrad::new();
            let batch = 300usize;
            let mut out = vec![0.0f32; batch * 2];
            let mut grads = vec![0.0f32; 4];
            let loss = par.run(pool, batch, &mut out, 2, Some(&mut grads), |rows, out_rows, _s, g| {
                g.fill(0.0);
                for (r, row) in rows.clone().zip(out_rows.chunks_mut(2)) {
                    row[0] = r as f32;
                    row[1] = (r as f32) * 0.5;
                    g[r % 4] += (r as f32).sin();
                }
                rows.len() as f32 / batch as f32
            });
            (out, grads, loss)
        };
        let serial = run(None);
        for workers in [1usize, 2, 5] {
            let pool = WorkPool::new(workers);
            let parallel = run(Some(&pool));
            assert_eq!(serial.0, parallel.0, "out, {workers} workers");
            assert_eq!(serial.1, parallel.1, "grads, {workers} workers");
            assert_eq!(serial.2, parallel.2, "loss, {workers} workers");
        }
    }

    #[test]
    fn single_shard_writes_grads_directly() {
        let mut par = ParGrad::new();
        let mut grads = vec![9.0f32; 3];
        let loss = par.run(None, 10, &mut [], 0, Some(&mut grads), |rows, _o, _s, g| {
            g.fill(rows.len() as f32);
            1.25
        });
        assert_eq!(grads, vec![10.0; 3]);
        assert_eq!(loss, 1.25);
    }

    #[test]
    fn shard_ranges_cover_batch_contiguously() {
        let mut par = ParGrad::new();
        let batch = 301usize; // not divisible by the shard count
        let mut out = vec![0.0f32; batch];
        par.run(None, batch, &mut out, 1, None, |rows, out_rows, _s, _g| {
            assert_eq!(rows.len(), out_rows.len());
            out_rows.fill(1.0);
            0.0
        });
        assert!(out.iter().all(|&v| v == 1.0), "every row visited exactly once");
    }
}
