//! Shared worker pool for chunk-parallel LZ4 (de)compression, which is also
//! the pool PPO, IMPALA, A2C and REINFORCE compute their gradient shards on
//! (`xingtian_algos::par::ParGrad` over [`shared_pool`]).
//!
//! The chunk container (`xingtian_message::chunk`) makes every 256 KiB span of
//! a large body an independent LZ4 frame; this module supplies the threads
//! that crunch those frames concurrently. One process-wide [`WorkPool`]
//! (sized to the machine, capped at 8) is shared by all brokers — compression
//! jobs from every producer inside `Endpoint::send` and decompression jobs
//! from every endpoint receiver thread interleave on the same workers.
//!
//! Only *leaf* chunk jobs ever enter the pool; the orchestrating thread
//! (producer or receiver) never blocks inside a pool slot. Instead it
//! participates in the partition itself ([`WorkPool::run_scoped`]: every
//! `(workers + 1)`-th job runs inline on the caller) — so a pool saturated by
//! another message can delay a caller but never deadlock it, and on a
//! single-core machine the caller simply does all the work itself.

use crate::buffer::Buffer;
use bytes::Bytes;
use std::sync::{Arc, OnceLock};
use xingtian_message::chunk::{self, ChunkError, ChunkedBuilder};
use xingtian_message::{lz4, CompressionKind};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of detached worker threads consuming chunk jobs from an
/// unbounded queue. Dropping the pool closes the queue: workers finish the
/// jobs already queued, then exit. The process-wide [`shared_pool`] lives for
/// the program's lifetime.
pub struct WorkPool {
    jobs: Arc<Buffer<Job>>,
    workers: usize,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool").field("workers", &self.workers).finish_non_exhaustive()
    }
}

impl WorkPool {
    /// Starts `workers.max(1)` worker threads named `xt-pool-{i}`. They run
    /// the channel's chunk codecs and the algorithms' gradient shards alike.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let jobs = Arc::new(Buffer::<Job>::new());
        for w in 0..workers {
            let jobs = Arc::clone(&jobs);
            std::thread::Builder::new()
                .name(format!("xt-pool-{w}"))
                .spawn(move || {
                    while let Some(job) = jobs.pop() {
                        job();
                    }
                })
                .expect("spawn xt-pool worker thread");
        }
        WorkPool { jobs, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of borrowing jobs to completion across the pool, with
    /// the calling thread participating: every `(workers + 1)`-th job runs
    /// inline on the caller, so a saturated pool degrades to
    /// caller-does-everything rather than deadlock. This is the one fan-out:
    /// the chunk codecs below and `xingtian_algos`' gradient shards both run
    /// through it.
    ///
    /// These closures may borrow from the caller's stack (`'scope`): the
    /// method blocks until every job has finished before returning, so the
    /// borrows cannot be outlived. Job panics are caught (on workers and
    /// inline alike), all remaining completions are drained, and the first
    /// panic is then propagated on the calling thread — no job is left
    /// running with a dangling borrow and no pool worker is lost to an
    /// unwinding job.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let stride = self.workers + 1;
        let done = Arc::new(Buffer::<std::thread::Result<()>>::new());
        let mut offloaded = 0usize;
        let mut inline: Vec<Box<dyn FnOnce() + Send + 'scope>> = Vec::new();
        for (idx, job) in jobs.into_iter().enumerate() {
            if idx % stride == 0 {
                inline.push(job); // caller's share
                continue;
            }
            // SAFETY: only the lifetime bound changes. The job cannot outlive
            // its borrows because this function drains exactly `offloaded`
            // completion messages — each sent after its job has returned or
            // unwound — before returning or propagating a panic.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let done = Arc::clone(&done);
            offloaded += 1;
            let offload: Job = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                let _ = done.push(result);
            });
            // Only the pool's drop closes its queue.
            assert!(self.jobs.push(offload).is_ok(), "worker pool alive");
        }
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for job in inline {
            if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
                first_panic.get_or_insert(p);
            }
        }
        for _ in 0..offloaded {
            let result = done.pop().expect("scoped worker delivered completion");
            if let Err(p) = result {
                first_panic.get_or_insert(p);
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.jobs.close();
    }
}

/// The process-wide pool, created on first use and sized to
/// `available_parallelism` (capped at 8 — chunk jobs are memory-bandwidth
/// bound well before that).
pub fn shared_pool() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        WorkPool::new(n.clamp(1, 8))
    })
}

/// Compresses `body` into a chunk container, fanning the per-chunk LZ4 work
/// across `pool` while the calling thread compresses its own share.
///
/// The output is byte-identical to [`chunk::compress_chunked`] of the same
/// input: chunking is deterministic and each frame depends only on its own
/// span. Like the serial path, the container is returned even when it is not
/// smaller than `body` (per-chunk raw fallback bounds the overhead); callers
/// decide whether to keep it.
pub fn compress_chunked_parallel(pool: &WorkPool, body: &[u8]) -> Vec<u8> {
    let spans: Vec<_> = chunk::chunk_spans(body.len()).collect();
    if spans.len() <= 1 {
        return chunk::compress_chunked(body);
    }
    // One job per chunk, each borrowing its span and filling its own slot.
    // `lz4::compress` reuses the running thread's context, so steady-state
    // jobs allocate only their output.
    let mut frames: Vec<Option<Vec<u8>>> = vec![None; spans.len()];
    let jobs = frames.iter_mut().zip(&spans).map(|(slot, span)| {
        let chunk = &body[span.clone()];
        Box::new(move || *slot = Some(lz4::compress(chunk))) as Box<dyn FnOnce() + Send + '_>
    });
    pool.run_scoped(jobs.collect());
    let mut builder = ChunkedBuilder::new(body.len());
    for (span, frame) in spans.iter().zip(&frames) {
        builder.push_chunk(&body[span.clone()], frame.as_deref());
    }
    builder.finish()
}

/// The stored form of a message body, and the [`CompressionKind`] to record
/// in its header: the one transport-compression step. A body that passes
/// [`xingtian_message::should_compress`] is compressed chunk-parallel over
/// [`shared_pool`], with the caller taking its share, and the container is
/// kept only if it is smaller; any other body is stored raw. This mirrors the
/// paper's default of compressing bodies larger than 1 MiB as they enter the
/// shared-memory object store (§4.1).
pub fn compress_for_transport(body: Bytes, threshold: usize) -> (Bytes, CompressionKind) {
    match transport_container(&body, threshold) {
        Some(container) => (Bytes::from(container), CompressionKind::Lz4Chunked),
        None => (body, CompressionKind::None),
    }
}

/// The chunk container [`compress_for_transport`] stores `raw` as, or
/// `None` when `raw` is stored as it is.
pub(crate) fn transport_container(raw: &[u8], threshold: usize) -> Option<Vec<u8>> {
    if !xingtian_message::should_compress(raw, threshold) {
        return None;
    }
    let container = compress_chunked_parallel(shared_pool(), raw);
    (container.len() < raw.len()).then_some(container)
}

/// Decompresses a chunk container, fanning compressed frames across `pool`
/// while the calling thread decodes its own share. Raw-stored chunks are
/// copied during assembly (they need no decode work).
///
/// Workers decode into private buffers rather than disjoint slices of the
/// final body: the wild-copy decompressor may overshoot its logical end by up
/// to a word, which is harmless slop in a private buffer but would race with
/// a neighboring chunk's writer in a shared one.
///
/// # Errors
///
/// Any [`ChunkError`]; all in-flight chunk results are collected before an
/// error returns, so no worker is left writing into freed state.
pub fn decompress_chunked_parallel(pool: &WorkPool, body: &Bytes) -> Result<Vec<u8>, ChunkError> {
    let parsed = chunk::parse_chunked(body)?;
    if parsed.chunks.iter().filter(|c| c.compressed).count() <= 1 {
        return chunk::decompress_chunked(body);
    }
    // One job per compressed chunk, each borrowing its payload and filling
    // its own slot; raw-stored chunks keep `None`.
    let mut results: Vec<Option<Result<Vec<u8>, ChunkError>>> =
        parsed.chunks.iter().map(|_| None).collect();
    let compressed = results.iter_mut().zip(&parsed.chunks).filter(|(_, c)| c.compressed);
    let jobs = compressed.map(|(slot, c)| {
        let payload = &body[c.payload.clone()];
        Box::new(move || {
            let raw = lz4::decompress_sized(payload, c.uncompressed_len);
            *slot = Some(raw.map_err(ChunkError::from));
        }) as Box<dyn FnOnce() + Send + '_>
    });
    pool.run_scoped(jobs.collect());
    // Every job has finished; the lowest-indexed failing chunk decides.
    let decoded: Vec<Option<Vec<u8>>> =
        results.into_iter().map(Option::transpose).collect::<Result<_, _>>()?;
    // Assemble: every chunk covers a disjoint span and the spans sum to
    // total_len (validated by parse_chunked + decompress_sized), so each
    // output byte is written exactly once.
    let mut out: Vec<u8> = Vec::with_capacity(parsed.total_len);
    unsafe {
        let base = out.as_mut_ptr();
        for (idx, chunk) in parsed.chunks.iter().enumerate() {
            let src: &[u8] = match &decoded[idx] {
                Some(buf) => buf,
                None => &body[chunk.payload.clone()], // raw-stored chunk
            };
            debug_assert_eq!(src.len(), chunk.uncompressed_len);
            std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(chunk.output_offset), src.len());
        }
        out.set_len(parsed.total_len);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xingtian_message::chunk::CHUNK_SIZE;

    fn mixed_payload(len: usize) -> Bytes {
        // Alternating compressible / incompressible chunks so both the
        // lz4-frame and raw-stored assembly paths run.
        let mut state = 0x1234_5678_9abc_def0u64;
        let data: Vec<u8> = (0..len)
            .map(|i| {
                if (i / CHUNK_SIZE).is_multiple_of(2) {
                    (i % 13) as u8
                } else {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 0xff) as u8
                }
            })
            .collect();
        Bytes::from(data)
    }

    #[test]
    fn parallel_compress_matches_serial_bytes() {
        let pool = WorkPool::new(3);
        for len in [100usize, CHUNK_SIZE, 4 * CHUNK_SIZE + 17, 9 * CHUNK_SIZE] {
            let body = mixed_payload(len);
            let parallel = compress_chunked_parallel(&pool, &body);
            let serial = chunk::compress_chunked(&body);
            assert_eq!(parallel, serial, "len {len}");
        }
    }

    #[test]
    fn parallel_decompress_round_trips() {
        let pool = WorkPool::new(3);
        for len in [0usize, 1, CHUNK_SIZE + 1, 7 * CHUNK_SIZE + 123] {
            let body = mixed_payload(len);
            let container = Bytes::from(compress_chunked_parallel(&pool, &body));
            let restored = decompress_chunked_parallel(&pool, &container).unwrap();
            assert_eq!(Bytes::from(restored), body, "len {len}");
        }
    }

    #[test]
    fn parallel_decompress_rejects_corrupt_container() {
        let pool = WorkPool::new(2);
        let body = Bytes::from(vec![5u8; 4 * CHUNK_SIZE]);
        let mut container = compress_chunked_parallel(&pool, &body);
        container.truncate(container.len() - 1); // lose the final frame byte
        let container = Bytes::from(container);
        assert!(decompress_chunked_parallel(&pool, &container).is_err());
    }

    #[test]
    fn run_scoped_runs_borrowing_jobs_to_completion() {
        let pool = WorkPool::new(3);
        let mut out = [0u32; 16];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(2)
            .enumerate()
            .map(|(i, c)| {
                Box::new(move || {
                    for v in c.iter_mut() {
                        *v = i as u32 + 1;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        for (i, pair) in out.chunks(2).enumerate() {
            assert_eq!(pair, &[i as u32 + 1, i as u32 + 1], "chunk {i}");
        }
    }

    #[test]
    fn run_scoped_propagates_panics_and_keeps_workers_alive() {
        let pool = WorkPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send>> =
                vec![Box::new(|| panic!("scoped job boom")), Box::new(|| {}), Box::new(|| {})];
            pool.run_scoped(jobs);
        }));
        assert!(caught.is_err(), "job panic surfaces on the caller");
        // The pool must still run jobs afterwards (workers not unwound).
        let mut ran = false;
        pool.run_scoped(vec![Box::new(|| ran = true)]);
        assert!(ran);
    }

    #[test]
    fn shared_pool_is_singleton() {
        let a = shared_pool() as *const WorkPool;
        let b = shared_pool() as *const WorkPool;
        assert_eq!(a, b);
        assert!(shared_pool().workers() >= 1);
    }
}
