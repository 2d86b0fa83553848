//! # sdc-runtime
//!
//! A dependency-free parallel execution subsystem for the *Selective
//! Data Contrast* stack: a fixed-size worker pool with data-parallel
//! primitives ([`par_for`], [`par_chunks_mut`], [`par_reduce`]) and a
//! bounded [`channel`] used for stream prefetching and the serve
//! layer's request coalescing.
//!
//! ## Determinism contract
//!
//! Every primitive derives its chunking from the **problem size only**
//! — never from the thread count — and [`par_reduce`] combines partial
//! results in fixed chunk order. A kernel written against these
//! primitives therefore produces **bit-identical** results at any
//! `SDC_THREADS` setting, which the stack's reproducibility tests rely
//! on. Threads change *when* a chunk runs, never *what* it computes or
//! the order its contribution is folded in.
//!
//! ## Configuration
//!
//! The global pool ([`Runtime::global`]) sizes itself from the
//! `SDC_THREADS` environment variable, defaulting to the machine's
//! available parallelism. `SDC_THREADS=1` disables the pool entirely
//! (every primitive degenerates to its serial loop). Tests and benches
//! construct private pools with [`Runtime::new`] and activate them with
//! [`Runtime::install`].
//!
//! ## Instrumentation
//!
//! Dispatch is instrumented through `sdc-obs` (global registry) at
//! dispatch granularity, never per chunk: `runtime.dispatch` (wall
//! time of one parallel dispatch), `runtime.queue_wait` (enqueue →
//! first chunk claim), `runtime.busy` (one observation per thread that
//! ran chunks of a dispatch: its first claim until the job ran dry —
//! the count is participations, the sum busy nanoseconds, so
//! `runtime.busy` count ÷ `runtime.jobs` is the mean number of
//! participating threads), and counters `runtime.jobs` /
//! `runtime.chunks` / `runtime.serial_jobs`. A chunk — often under a
//! microsecond — therefore pays no clock read and no metric update;
//! its only shared atomics are its claim and its completion count.
//! All of it is observe-only — metrics never influence chunking,
//! scheduling, or results — and collapses to a branch per event when
//! recording is disabled (`SDC_OBS=0`).
//!
//! ```
//! use sdc_runtime::Runtime;
//!
//! let rt = Runtime::new(4);
//! let mut squares = vec![0u64; 1000];
//! rt.install(|| {
//!     sdc_runtime::par_chunks_mut(&mut squares, 64, |chunk_index, chunk| {
//!         for (i, v) in chunk.iter_mut().enumerate() {
//!             let idx = (chunk_index * 64 + i) as u64;
//!             *v = idx * idx;
//!         }
//!     });
//! });
//! assert_eq!(squares[999], 999 * 999);
//! ```

#![deny(missing_docs)]

pub mod channel;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Environment variable controlling the global pool's thread count.
pub const THREADS_ENV: &str = "SDC_THREADS";

/// One queued data-parallel invocation.
///
/// The body pointer is only dereferenced while `pending > 0`; the
/// submitting thread blocks until `pending == 0` before returning, so
/// the borrow the pointer erases is live for every dereference.
struct Job {
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks claimed but not yet finished + chunks not yet claimed.
    pending: AtomicUsize,
    n_chunks: usize,
    /// `body(chunk_index)`; lifetime erased, see struct docs.
    body: NonNull<dyn Fn(usize) + Sync>,
    /// First captured panic payload from a chunk body, re-raised on the
    /// submitting thread so diagnostics match the serial path.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// Enqueue instant, captured only while metric recording is
    /// enabled; the claimer of chunk 0 turns it into the
    /// `runtime.queue_wait` observation.
    enqueued: Option<Instant>,
}

unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none remain; chunk-body panics are
    /// captured for the submitting thread.
    ///
    /// A thread that claims at least one chunk records one
    /// `runtime.busy` observation — its first claim until the job runs
    /// dry — so recording costs two clock reads and one histogram
    /// record per participant per dispatch, whatever the chunk count.
    fn work(&self) {
        let mut i = self.next.fetch_add(1, Ordering::SeqCst);
        if i >= self.n_chunks {
            return;
        }
        let busy_since = sdc_obs::enabled().then(Instant::now);
        // Chunk 0 is the job's first claim overall.
        if let (0, Some(enqueued), Some(now)) = (i, self.enqueued, busy_since) {
            sdc_obs::histogram!("runtime.queue_wait").record_duration(now - enqueued);
        }
        while i < self.n_chunks {
            // SAFETY: chunk `i` is claimed and unfinished, so
            // `pending > 0` and the borrow behind `body` is live (see
            // `Job`).
            let body = unsafe { self.body.as_ref() };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                let mut slot = self.panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _g = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
                self.done_cv.notify_all();
            }
            i = self.next.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(since) = busy_since {
            sdc_obs::histogram!("runtime.busy").record_duration(since.elapsed());
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.n_chunks
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Blocks until a job with unclaimed chunks is available (returning
    /// a handle to it) or the pool shuts down (returning `None`).
    fn next_job(&self) -> Option<Arc<Job>> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            while let Some(front) = q.front() {
                if front.exhausted() {
                    q.pop_front();
                    continue;
                }
                return Some(Arc::clone(front));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A fixed-size worker pool executing deterministic data-parallel jobs.
///
/// The pool owns `threads - 1` OS threads; the thread submitting a job
/// always participates in executing it, so a 1-thread runtime spawns no
/// workers and runs everything inline.
pub struct Runtime {
    pool: Pool,
    workers: Vec<JoinHandle<()>>,
}

/// A cheaply cloneable handle to a pool's queue + size. Worker threads
/// hold one as their ambient runtime, so nested dispatch issued from
/// inside a chunk body lands on the **same** pool instead of silently
/// escaping to the global one.
#[derive(Clone)]
struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime").field("threads", &self.pool.threads).finish()
    }
}

impl Runtime {
    /// Creates a pool using `threads` total threads (minimum 1; the
    /// calling thread counts as one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let pool = Pool { shared: Arc::clone(&shared), threads };
                std::thread::Builder::new()
                    .name(format!("sdc-runtime-{i}"))
                    .spawn(move || {
                        // The owning pool is this worker's ambient
                        // runtime: nested dispatch from chunk bodies
                        // stays on it.
                        CURRENT.with(|c| *c.borrow_mut() = Some(pool.clone()));
                        while let Some(job) = pool.shared.next_job() {
                            job.work();
                        }
                    })
                    .expect("spawn runtime worker")
            })
            .collect();
        Self { pool: Pool { shared, threads }, workers }
    }

    /// Creates a pool sized from `SDC_THREADS`, falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        Self::new(threads_from_env())
    }

    /// The process-wide pool (sized from `SDC_THREADS` on first use).
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(Runtime::from_env)
    }

    /// Total threads (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.pool.threads
    }

    /// Runs `f` with this runtime as the ambient pool used by the
    /// free-function primitives ([`par_for`] etc.) on this thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.pool.clone()));
        struct Restore(Option<Pool>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// Instance form of [`par_for`].
    pub fn par_for(&self, n: usize, chunk: usize, body: impl Fn(Range<usize>) + Sync) {
        self.pool.par_for(n, chunk, body);
    }

    /// Instance form of [`par_map`]. The pool is also installed as the
    /// ambient runtime for the duration, so dispatch nested inside
    /// `body` stays on it.
    pub fn par_map<R: Send>(&self, n: usize, body: impl Fn(usize) -> R + Sync) -> Vec<R> {
        self.install(|| par_map(n, body))
    }
}

impl Pool {
    /// Runs `body(chunk_index)` for every chunk index in
    /// `0..n_chunks`, distributing chunks over the pool. Blocks until
    /// all chunks finished. Propagates panics from chunk bodies.
    fn dispatch(&self, n_chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        if self.threads == 1 || n_chunks == 1 {
            sdc_obs::counter!("runtime.serial_jobs").inc();
            for i in 0..n_chunks {
                body(i);
            }
            return;
        }
        let _dispatch_timer = sdc_obs::scope!("runtime.dispatch");
        sdc_obs::counter!("runtime.jobs").inc();
        sdc_obs::counter!("runtime.chunks").add(n_chunks as u64);
        // Erase the borrow; `Job` documents why this is sound.
        let body: NonNull<dyn Fn(usize) + Sync> = NonNull::from(body);
        let body: NonNull<dyn Fn(usize) + Sync> = unsafe { std::mem::transmute(body) };
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_chunks),
            n_chunks,
            body,
            panic_payload: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            enqueued: sdc_obs::enabled().then(Instant::now),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();

        // The submitting thread works too — this also guarantees
        // progress (and hence deadlock freedom) for nested dispatches
        // issued from worker threads.
        job.work();

        let mut g = job.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while job.pending.load(Ordering::SeqCst) > 0 {
            g = job.done_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        let payload = job.panic_payload.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// See [`Runtime::par_for`].
    fn par_for(&self, n: usize, chunk: usize, body: impl Fn(Range<usize>) + Sync) {
        let chunk = chunk.max(1);
        let n_chunks = n.div_ceil(chunk);
        self.dispatch(n_chunks, &|i| {
            let start = i * chunk;
            body(start..(start + chunk).min(n));
        });
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker reads it under that
        // lock just before waiting, so the wake-up below cannot land
        // between its read and its wait and be lost.
        {
            let _queue = self.pool.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.pool.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.pool.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Pool>> = const { RefCell::new(None) };
}

/// Resolves the thread count from `SDC_THREADS`, falling back to
/// available parallelism.
pub fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("sdc-runtime: ignoring invalid {THREADS_ENV}={v:?}");
                default_threads()
            }
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` against the ambient pool: the pool owning this worker
/// thread, the innermost [`Runtime::install`] scope, or the global
/// pool.
fn with_current<R>(f: impl FnOnce(&Pool) -> R) -> R {
    let pool = CURRENT.with(|c| c.borrow().clone());
    match pool {
        Some(pool) => f(&pool),
        None => f(&Runtime::global().pool),
    }
}

/// The ambient runtime's thread count.
pub fn current_threads() -> usize {
    with_current(|p| p.threads)
}

/// Runs `body` over `0..n` in fixed chunks of `chunk` indices,
/// distributing chunks across the ambient runtime's threads.
///
/// Chunk boundaries depend only on `n` and `chunk`, so any value the
/// body computes per index is identical at every thread count.
pub fn par_for(n: usize, chunk: usize, body: impl Fn(Range<usize>) + Sync) {
    with_current(|pool| pool.par_for(n, chunk, body));
}

/// Splits `data` into fixed `chunk`-sized pieces and runs
/// `body(chunk_index, piece)` for each in parallel.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk = chunk.max(1);
    let n = data.len();
    let base = SendPtr(data.as_mut_ptr());
    par_for(n, chunk, |range| {
        let start = range.start;
        let len = range.end - range.start;
        // Soundness: ranges produced by `par_for` with one fixed chunk
        // size are pairwise disjoint, so each slice is exclusively owned
        // by this closure call.
        let piece = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        body(start / chunk, piece);
    });
}

/// Maps fixed chunks of `0..n` through `map` in parallel, then folds
/// the per-chunk partials **in ascending chunk order** — the fold order,
/// and therefore any floating-point rounding, is independent of the
/// thread count.
///
/// Returns `identity()` when `n == 0`.
pub fn par_reduce<T: Send>(
    n: usize,
    chunk: usize,
    identity: impl Fn() -> T,
    map: impl Fn(Range<usize>) -> T + Sync,
    mut fold: impl FnMut(T, T) -> T,
) -> T {
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let mut partials: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    {
        let slots = SendPtr(partials.as_mut_ptr());
        par_for(n, chunk, |range| {
            let idx = range.start / chunk;
            let value = map(range);
            // Soundness: each chunk index writes exactly one distinct slot.
            unsafe { slots.get().add(idx).write(Some(value)) };
        });
    }
    partials
        .into_iter()
        .map(|p| p.expect("every chunk produced a partial"))
        .fold(identity(), &mut fold)
}

/// Runs `body(i)` for every index in `0..n` — one pool job per index,
/// so this is the primitive for **coarse-grained** fan-out (whole graph
/// nodes, whole requests), not tight element loops — and returns the
/// results in index order.
///
/// Result order depends only on `n`, never on the thread count or on
/// which worker ran which job, so callers that fold the returned vector
/// in order inherit the determinism contract for free.
pub fn par_map<R: Send>(n: usize, body: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let slots = SendPtr(out.as_mut_ptr());
        par_for(n, 1, |range| {
            for i in range {
                let value = body(i);
                // Soundness: each index writes exactly one distinct slot.
                unsafe { slots.get().add(i).write(Some(value)) };
            }
        });
    }
    out.into_iter().map(|r| r.expect("every job produced a result")).collect()
}

/// A raw pointer that asserts cross-thread transferability; used to hand
/// disjoint regions of one allocation to parallel chunk bodies.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The pointer. Going through a method (rather than the field)
    /// makes closures capture the whole `SendPtr`, keeping its
    /// `Send`/`Sync` assertions in effect under disjoint capture.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_covers_every_index_once() {
        for threads in [1, 2, 3, 7] {
            let rt = Runtime::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            rt.install(|| {
                par_for(100, 7, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    }
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1), "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_pieces() {
        let rt = Runtime::new(4);
        let mut data = vec![0usize; 103];
        rt.install(|| {
            par_chunks_mut(&mut data, 10, |ci, piece| {
                for (i, v) in piece.iter_mut().enumerate() {
                    *v = ci * 10 + i;
                }
            });
        });
        let want: Vec<usize> = (0..103).collect();
        assert_eq!(data, want);
    }

    #[test]
    fn par_reduce_is_thread_count_invariant() {
        // A sum whose fp rounding depends on fold order: identical
        // results across thread counts prove the fixed-order contract.
        let values: Vec<f32> = (0..1000).map(|i| ((i * 37) % 100) as f32 * 1e-3 + 1.0).collect();
        let sum_at = |threads: usize| {
            let rt = Runtime::new(threads);
            rt.install(|| {
                par_reduce(
                    values.len(),
                    13,
                    || 0.0f32,
                    |r| r.map(|i| values[i]).fold(0.0f32, |a, b| a + b),
                    |a, b| a + b,
                )
            })
        };
        let s1 = sum_at(1);
        assert_eq!(s1.to_bits(), sum_at(2).to_bits());
        assert_eq!(s1.to_bits(), sum_at(7).to_bits());
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let rt = Runtime::new(3);
        let total = AtomicU64::new(0);
        rt.install(|| {
            par_for(8, 1, |outer| {
                for _ in outer {
                    par_for(16, 4, |inner| {
                        total.fetch_add(inner.len() as u64, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 8 * 16);
    }

    #[test]
    fn workers_inherit_their_owning_pool() {
        // Chunk bodies run on worker threads; the ambient runtime there
        // must be the owning pool (same thread budget), not the global
        // one — otherwise nested dispatch would escape the installed cap.
        let rt = Runtime::new(5);
        let ok = AtomicUsize::new(0);
        rt.install(|| {
            par_for(64, 1, |_| {
                if current_threads() == 5 {
                    ok.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panic_payload_reaches_the_caller() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.install(|| {
                par_for(64, 1, |r| {
                    assert!(r.start != 40, "chunk {} exploded", r.start);
                });
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("assert message preserved");
        assert!(msg.contains("chunk 40 exploded"), "{msg}");
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let outer = Runtime::new(2);
        let inner = Runtime::new(5);
        outer.install(|| {
            assert_eq!(current_threads(), 2);
            inner.install(|| assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn empty_and_single_chunk_work() {
        let rt = Runtime::new(4);
        rt.install(|| {
            par_for(0, 8, |_| panic!("no chunks expected"));
            let hits = AtomicUsize::new(0);
            par_for(3, 8, |r| {
                hits.fetch_add(r.len(), Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        for threads in [1, 2, 3, 7] {
            let rt = Runtime::new(threads);
            let got = rt.par_map(53, |i| i * i);
            let want: Vec<usize> = (0..53).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_jobs() {
        let rt = Runtime::new(4);
        assert_eq!(rt.par_map(0, |_| -> usize { panic!("no jobs expected") }), vec![]);
        assert_eq!(rt.par_map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_jobs_can_dispatch_nested_work() {
        let rt = Runtime::new(3);
        let sums = rt.par_map(6, |i| {
            par_reduce(64, 8, || 0u64, |r| r.map(|j| (i * 64 + j) as u64).sum(), |a, b| a + b)
        });
        for (i, s) in sums.iter().enumerate() {
            let want: u64 = (0..64).map(|j| (i * 64 + j) as u64).sum();
            assert_eq!(*s, want);
        }
    }

    #[test]
    fn par_map_panic_propagates_and_drops_cleanly() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.par_map(32, |i| {
                assert!(i != 17, "job {i} exploded");
                vec![i; 4]
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("assert message preserved");
        assert!(msg.contains("job 17 exploded"), "{msg}");
    }

    #[test]
    fn dispatch_metrics_flow_into_the_global_registry() {
        sdc_obs::set_enabled(true);
        let before = sdc_obs::global().snapshot();
        let jobs_before = before.counters.get("runtime.jobs").copied().unwrap_or(0);
        let busy_before = before.histograms.get("runtime.busy").map_or(0, |h| h.count);
        {
            let rt = Runtime::new(4);
            rt.install(|| {
                par_for(64, 4, |r| {
                    std::hint::black_box(r.len());
                });
            });
            // Dropping the pool joins its workers, whose `runtime.busy`
            // records land when they run dry.
        }
        let after = sdc_obs::global().snapshot();
        assert!(after.counters["runtime.jobs"] > jobs_before);
        assert!(after.counters["runtime.chunks"] >= 16);
        assert!(after.histograms["runtime.dispatch"].count >= 1);
        assert!(after.histograms["runtime.queue_wait"].count >= 1);
        assert!(after.histograms["runtime.busy"].count > busy_before);
        assert!(after.histograms["runtime.busy"].sum > 0);
    }

    #[test]
    fn dropping_a_pool_right_after_a_dispatch_never_hangs() {
        // Drop races the workers going back to wait for work: a shutdown
        // signal that lands between a worker's flag check and its wait
        // must not be lost, or `drop` joins a sleeping worker forever.
        // Thousands of short-lived pools give that window many chances.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let churn = std::thread::spawn(move || {
            for _ in 0..5_000 {
                let rt = Runtime::new(16);
                rt.install(|| {
                    par_for(64, 1, |r| {
                        std::hint::black_box(r);
                    });
                });
            }
            done_tx.send(()).expect("test thread waits for the churn");
        });
        done_rx.recv_timeout(std::time::Duration::from_secs(60)).expect("a pool drop hung");
        churn.join().expect("churn thread");
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.install(|| {
                par_for(64, 1, |r| {
                    if r.start == 33 {
                        panic!("boom");
                    }
                });
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let hits = AtomicUsize::new(0);
        rt.install(|| {
            par_for(10, 2, |r| {
                hits.fetch_add(r.len(), Ordering::SeqCst);
            })
        });
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }
}
