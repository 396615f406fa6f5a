//! Shared work-stealing execution pool.
//!
//! Every hot path in the system — candidate scoring in
//! [`crate::engine::QueryEngine::query_features`], per-video DTW in
//! [`crate::engine::QueryEngine::query_feature_sequence`], per-(frame,
//! kind) feature extraction in [`crate::ingest::extract_feature_sets_parallel`]
//! and the per-kind calibration sampling in
//! [`crate::score::ScoreCalibration::from_segments`] — is an independent
//! loop over an index range. This module runs such loops across a fixed
//! set of persistent worker threads.
//!
//! Design:
//!
//! - **Fixed workers, shared queue.** [`ExecPool`] spawns its workers
//!   once; jobs are broadcast over a shared channel, so the same pool
//!   serves concurrent queries, ingests and calibrations without any
//!   per-call thread spawning.
//! - **Atomic-counter chunk stealing.** A job is an index range `0..len`
//!   split into fixed-size chunks. Participants claim the next chunk with
//!   a `fetch_add`, so a worker that finishes early simply steals the
//!   remaining chunks of slower peers — region-growing/Gabor cost varies
//!   a lot per frame, and static `div_ceil` splitting left workers idle.
//! - **Scoped bodies.** The job body is an erased `&dyn Fn(Range<usize>)`
//!   borrowed from the caller's stack, so jobs capture plain `&[T]`
//!   slices (catalog entries, frames) without `'static` or cloning.
//!   [`ExecPool::run`] does not return until every claimed chunk has
//!   executed, which keeps the erasure sound.
//! - **Caller participation.** The calling thread works through chunks
//!   alongside the pool, so `threads = 1` runs the body inline on the
//!   caller — the exact serial code path, bit-for-bit — and a saturated
//!   pool still makes progress.
//!
//! Results are deterministic by construction: chunk *assignment* races,
//! but each index's computation is independent, and callers combine
//! per-chunk results under a total order (see the top-k merge in the
//! engine), so `threads = N` returns exactly what `threads = 1` returns.

use crate::telemetry::{Clock, Counter, Histogram, Registry};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// `threads` value meaning "use every core the pool has".
pub const THREADS_AUTO: usize = 0;

/// Resolved telemetry handles the pool records through (cloned into
/// every job; recording is atomics only, never a registry lookup).
///
/// - `pool.jobs` — parallel-for jobs executed (one per non-empty
///   [`ExecPool::run`], deterministic);
/// - `pool.chunks` — chunk claims across all participants;
/// - `pool.steals` — chunk claims made by helper workers rather than
///   the calling thread (inherently racy across runs: it reports how
///   much work the pool actually offloaded);
/// - `pool.busy_nanos` — per-participant busy time histogram (one
///   sample per thread that executed at least one chunk of a job).
#[derive(Clone)]
struct PoolMetrics {
    jobs: Arc<Counter>,
    chunks: Arc<Counter>,
    steals: Arc<Counter>,
    busy: Arc<Histogram>,
    clock: Arc<dyn Clock>,
}

impl PoolMetrics {
    fn from_global() -> PoolMetrics {
        let registry = Registry::global();
        PoolMetrics {
            jobs: registry.counter("pool.jobs"),
            chunks: registry.counter("pool.chunks"),
            steals: registry.counter("pool.steals"),
            busy: registry.histogram("pool.busy_nanos"),
            clock: registry.clock(),
        }
    }
}

/// One parallel-for over `0..len`, chunk-stolen via `next`.
struct Job {
    /// Next unclaimed index (claims advance by `chunk`).
    next: AtomicUsize,
    /// Exclusive end of the index range.
    len: usize,
    /// Claim granularity.
    chunk: usize,
    /// Chunks fully executed so far.
    done: AtomicUsize,
    /// Total number of chunks.
    total_chunks: usize,
    /// Set when a chunk body panicked (the panic is re-raised on the
    /// caller once the job drains, so the pool itself never dies).
    panicked: AtomicBool,
    /// Completion latch.
    finished: Mutex<bool>,
    signal: Condvar,
    /// The caller's borrowed body, lifetime-erased. Only dereferenced
    /// after a successful chunk claim; all successful claims complete
    /// before [`ExecPool::run`] returns, so the borrow never dangles.
    body: *const (dyn Fn(Range<usize>) + Sync),
    /// Telemetry handles (shared with the owning pool).
    metrics: PoolMetrics,
}

// SAFETY: `body` is only dereferenced while the owning `run` call blocks
// on the completion latch (see the claim protocol in `execute`); all
// other fields are atomics/locks.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and execute chunks until the range is exhausted.
    /// `helper` marks pool workers (their claims count as steals).
    fn execute(&self, helper: bool) {
        let busy_start = self.metrics.clock.now_nanos();
        let mut claimed = 0u64;
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                break;
            }
            claimed += 1;
            let end = (start + self.chunk).min(self.len);
            // SAFETY: the claim succeeded, so the owning `run` call is
            // still blocked waiting for this chunk; the borrow is live.
            let body = unsafe { &*self.body };
            if std::panic::catch_unwind(AssertUnwindSafe(|| body(start..end))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.total_chunks {
                let mut finished = self.finished.lock().expect("pool latch poisoned");
                *finished = true;
                drop(finished);
                self.signal.notify_all();
            }
        }
        if claimed > 0 {
            self.metrics.chunks.add(claimed);
            if helper {
                self.metrics.steals.add(claimed);
            }
            self.metrics
                .busy
                .record_nanos(self.metrics.clock.now_nanos().saturating_sub(busy_start));
        }
    }
}

/// A fixed set of persistent worker threads executing chunk-stolen jobs.
pub struct ExecPool {
    sender: Option<Sender<Arc<Job>>>,
    workers: Vec<JoinHandle<()>>,
    metrics: PoolMetrics,
}

impl ExecPool {
    /// A pool with `helpers` worker threads. Total parallelism is
    /// `helpers + 1`: the thread calling [`ExecPool::run`] always
    /// participates. `helpers = 0` is a valid, purely-serial pool.
    pub fn with_helpers(helpers: usize) -> ExecPool {
        let (sender, receiver) = std::sync::mpsc::channel::<Arc<Job>>();
        // std's Receiver is single-consumer; workers share it behind a
        // mutex. Contention is negligible — one message per helper per
        // job, and the lock is released before the job executes.
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..helpers)
            .map(|i| {
                let rx: Arc<Mutex<Receiver<Arc<Job>>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("cbvr-exec-{i}"))
                    .spawn(move || loop {
                        let message = rx.lock().expect("pool queue poisoned").recv();
                        match message {
                            Ok(job) => job.execute(true),
                            Err(_) => break, // channel closed: pool dropped
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ExecPool {
            sender: Some(sender),
            workers,
            metrics: PoolMetrics::from_global(),
        }
    }

    /// The process-wide shared pool, sized to the machine
    /// (`available_parallelism - 1` helpers, so pool + caller saturate
    /// the cores). The `CBVR_POOL_HELPERS` environment variable
    /// overrides the helper count (read once, at first use) — useful to
    /// oversubscribe a small machine or pin down a big one. All
    /// retrieval/ingest paths share it.
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let helpers = std::env::var("CBVR_POOL_HELPERS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| available_threads().saturating_sub(1));
            ExecPool::with_helpers(helpers)
        })
    }

    /// Maximum concurrent participants a `run` on this pool can have.
    pub fn max_threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run `body` over every chunk of `0..len`, using at most
    /// `threads` concurrent participants ([`THREADS_AUTO`] = all of the
    /// pool). Blocks until the whole range has executed. `threads <= 1`
    /// runs `body(0..len)` inline on the caller — the serial path.
    ///
    /// Panics (after the job drains) if any chunk body panicked.
    pub fn run(
        &self,
        len: usize,
        chunk: usize,
        threads: usize,
        body: impl Fn(Range<usize>) + Sync,
    ) {
        if len == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let threads = resolve_threads(threads, self.max_threads());
        let total_chunks = len.div_ceil(chunk);
        // Helpers beyond `total_chunks - 1` could never claim a chunk
        // (the caller takes at least one).
        let helpers = threads
            .saturating_sub(1)
            .min(self.workers.len())
            .min(total_chunks - 1);
        self.metrics.jobs.inc();
        if helpers == 0 {
            // The bit-exact serial path; still accounted as one job with
            // one caller-executed "chunk" so counters stay comparable
            // across thread settings.
            let busy_start = self.metrics.clock.now_nanos();
            body(0..len);
            self.metrics.chunks.inc();
            self.metrics
                .busy
                .record_nanos(self.metrics.clock.now_nanos().saturating_sub(busy_start));
            return;
        }
        let body_ref: &(dyn Fn(Range<usize>) + Sync) = &body;
        // SAFETY: lifetime erasure only; `run` blocks below until every
        // claimed chunk finished, and exhausted jobs never touch `body`.
        let body_static: &'static (dyn Fn(Range<usize>) + Sync) =
            unsafe { std::mem::transmute(body_ref) };
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            len,
            chunk,
            done: AtomicUsize::new(0),
            total_chunks,
            panicked: AtomicBool::new(false),
            finished: Mutex::new(false),
            signal: Condvar::new(),
            body: body_static,
            metrics: self.metrics.clone(),
        });
        if let Some(sender) = &self.sender {
            for _ in 0..helpers {
                let _ = sender.send(Arc::clone(&job));
            }
        }
        job.execute(false);
        let mut finished = job.finished.lock().expect("pool latch poisoned");
        while !*finished {
            finished = job.signal.wait(finished).expect("pool latch poisoned");
        }
        drop(finished);
        if job.panicked.load(Ordering::Relaxed) {
            panic!("ExecPool job panicked in a worker");
        }
    }

    /// Parallel map preserving order: `out[i] = f(i, &items[i])`. Each
    /// item has its own slot; chunk claims partition `0..len`, so every
    /// slot is filled exactly once and its lock is never contended.
    pub fn map<T: Sync, R: Send>(
        &self,
        items: &[T],
        chunk: usize,
        threads: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run(items.len(), chunk, threads, |range| {
            for i in range {
                let out = f(i, &items[i]);
                *slots[i].lock().expect("map slot poisoned") = Some(out);
            }
        });
        // `run` returned without panicking, so every slot is filled.
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("map slot poisoned")
                    .expect("map slot filled")
            })
            .collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The machine's thread budget (`available_parallelism`, min 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a user-facing `threads` knob against a pool capacity:
/// [`THREADS_AUTO`] means "everything the pool has".
fn resolve_threads(threads: usize, max: usize) -> usize {
    if threads == THREADS_AUTO {
        max
    } else {
        threads.min(max)
    }
}

/// A bounded top-k accumulator under a caller-supplied total order
/// (`rank(a, b) == Less` means `a` ranks ahead of `b`).
///
/// Holds at most `k` items; [`TopK::push`] is O(log k), so selecting the
/// top k of n candidates is O(n log k) with no O(n) intermediate
/// allocation. Per-worker accumulators [`TopK::merge`] into one, and
/// [`TopK::into_sorted`] yields rank order. Because `rank` is total, the
/// result is independent of chunking — parallel runs match serial runs
/// exactly.
pub struct TopK<T, F: Fn(&T, &T) -> std::cmp::Ordering> {
    /// Binary max-heap under `rank` reversed: the *worst* kept item sits
    /// at index 0, ready to be displaced.
    heap: Vec<T>,
    k: usize,
    rank: F,
}

impl<T, F: Fn(&T, &T) -> std::cmp::Ordering + Copy> TopK<T, F> {
    /// An empty accumulator keeping the best `k` items under `rank`.
    pub fn new(k: usize, rank: F) -> TopK<T, F> {
        TopK {
            heap: Vec::with_capacity(k.min(1024)),
            k,
            rank,
        }
    }

    /// `true` when `a` ranks strictly behind `b` (heap priority).
    fn worse(&self, a: &T, b: &T) -> bool {
        (self.rank)(a, b) == std::cmp::Ordering::Greater
    }

    /// Offer one item.
    pub fn push(&mut self, item: T) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(item);
            self.sift_up(self.heap.len() - 1);
        } else if self.worse(&self.heap[0], &item) {
            self.heap[0] = item;
            self.sift_down(0);
        }
    }

    /// Fold another accumulator in (e.g. a finished worker's local one).
    pub fn merge(&mut self, other: TopK<T, F>) {
        for item in other.heap {
            self.push(item);
        }
    }

    /// `true` once the accumulator holds `k` items (and `k > 0`) — from
    /// then on the worst kept item is a valid admission threshold.
    pub fn is_full(&self) -> bool {
        self.k > 0 && self.heap.len() == self.k
    }

    /// The worst item currently kept, available once [`TopK::is_full`].
    /// Anything ranking behind it can never enter this accumulator.
    pub fn worst(&self) -> Option<&T> {
        if self.is_full() {
            self.heap.first()
        } else {
            None
        }
    }

    /// The kept items, best first.
    pub fn into_sorted(self) -> Vec<T> {
        let rank = self.rank;
        let mut v = self.heap;
        v.sort_by(|a, b| rank(a, b));
        v
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.worse(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < self.heap.len() && self.worse(&self.heap[l], &self.heap[worst]) {
                worst = l;
            }
            if r < self.heap.len() && self.worse(&self.heap[r], &self.heap[worst]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            self.heap.swap(i, worst);
            i = worst;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_index_exactly_once() {
        let pool = ExecPool::with_helpers(3);
        for len in [0usize, 1, 2, 7, 100, 1000] {
            for chunk in [1usize, 3, 64] {
                let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
                pool.run(len, chunk, THREADS_AUTO, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{len}/{chunk}"
                );
            }
        }
    }

    #[test]
    fn serial_threads_run_inline() {
        let pool = ExecPool::with_helpers(2);
        let caller = std::thread::current().id();
        let ok = AtomicBool::new(true);
        pool.run(64, 4, 1, |_| {
            if std::thread::current().id() != caller {
                ok.store(false, Ordering::Relaxed);
            }
        });
        assert!(
            ok.load(Ordering::Relaxed),
            "threads = 1 must stay on the caller"
        );
    }

    #[test]
    fn map_preserves_order() {
        let pool = ExecPool::with_helpers(3);
        let items: Vec<usize> = (0..257).collect();
        let out = pool.map(&items, 8, THREADS_AUTO, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_helper_pool_is_serial_but_correct() {
        let pool = ExecPool::with_helpers(0);
        assert_eq!(pool.max_threads(), 1);
        let items = [3usize, 1, 4, 1, 5];
        assert_eq!(
            pool.map(&items, 2, THREADS_AUTO, |_, &x| x + 1),
            vec![4, 2, 5, 2, 6]
        );
    }

    #[test]
    fn concurrent_runs_share_the_pool() {
        let pool = Arc::new(ExecPool::with_helpers(3));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..500).collect();
                    let out = pool.map(&items, 16, THREADS_AUTO, |_, &x| x * x);
                    assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller_and_pool_survives() {
        let pool = ExecPool::with_helpers(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, 1, THREADS_AUTO, |range| {
                if range.start == 57 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool still works afterwards.
        let out = pool.map(&[1, 2, 3], 1, THREADS_AUTO, |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn topk_matches_full_sort() {
        let rank = |a: &(i64, u64), b: &(i64, u64)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        let mut state = 88172645463325252u64;
        let mut items = Vec::new();
        for i in 0..500u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            items.push(((state % 50) as i64, i));
        }
        for k in [0usize, 1, 7, 499, 500, 10_000] {
            let mut top = TopK::new(k, rank);
            for &it in &items {
                top.push(it);
            }
            let mut full = items.clone();
            full.sort_by(rank);
            full.truncate(k);
            assert_eq!(top.into_sorted(), full, "k = {k}");
        }
    }

    #[test]
    fn topk_worst_tracks_admission_threshold() {
        let rank = |a: &i64, b: &i64| b.cmp(a); // bigger is better
        let mut top = TopK::new(3, rank);
        assert!(!top.is_full());
        assert_eq!(top.worst(), None);
        for v in [5i64, 9, 1] {
            top.push(v);
        }
        assert!(top.is_full());
        assert_eq!(top.worst(), Some(&1));
        top.push(7);
        assert_eq!(top.worst(), Some(&5));
        top.push(2); // ranks behind the worst: rejected, threshold unchanged
        assert_eq!(top.worst(), Some(&5));
        let mut empty: TopK<i64, _> = TopK::new(0, rank);
        empty.push(4);
        assert!(!empty.is_full());
        assert_eq!(empty.worst(), None);
    }

    #[test]
    fn topk_merge_is_order_independent() {
        let rank = |a: &(i64, u64), b: &(i64, u64)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        let items: Vec<(i64, u64)> = (0..200u64).map(|i| (((i * 37) % 23) as i64, i)).collect();
        let mut whole = TopK::new(10, rank);
        for &it in &items {
            whole.push(it);
        }
        let mut merged = TopK::new(10, rank);
        for chunk in items.chunks(13).rev() {
            let mut local = TopK::new(10, rank);
            for &it in chunk {
                local.push(it);
            }
            merged.merge(local);
        }
        assert_eq!(merged.into_sorted(), whole.into_sorted());
    }
}
