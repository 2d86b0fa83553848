//! The coalescing scoring service.
//!
//! A [`ScoringService`] owns one batcher thread and one
//! [`ContrastiveModel`] snapshot. Any number of [`ScoringClient`]s —
//! typically one per stream, running on their own threads — submit
//! scoring requests into a bounded request queue; the batcher coalesces
//! them into batches, runs each batch through
//! [`contrast_scores_shared`] (which fans out over the `sdc-runtime`
//! worker pool), and routes the per-request score slices back through
//! per-request reply channels.
//!
//! ## Flush policy
//!
//! The batcher scores what is pending whenever it is free. It blocks on
//! the request queue only while nothing is pending, and cuts a batch
//! when
//!
//! 1. **Size** — an admitted request brings the pending requests to at
//!    least [`ServeConfig::max_batch`] samples, or
//! 2. **Idle** — the request queue is empty.
//!
//! A cut takes pending requests in arrival order: whole requests up to
//! `max_batch` samples, at least one. Requests that arrive while a
//! batch scores form the next one, so batch size follows the load and
//! no rule reads a clock. Model swaps, [`ScoringService::quiesce`] and
//! shutdown first score everything pending.
//!
//! Scores do not depend on how requests were grouped (see the crate's
//! determinism contract); batch composition follows arrival timing and
//! is not reproducible run to run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sdc_core::score::contrast_scores_shared;
use sdc_core::ContrastiveModel;
use sdc_data::{Sample, StreamId};
use sdc_obs::{HistogramSnapshot, LatencyHistogram, LatencySummary, SpanId, TraceContext};
use sdc_runtime::Runtime;
use sdc_tensor::{Result, TensorError};

/// Tuning knobs of a [`ScoringService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum samples per scoring batch. A batch is what is pending
    /// when the batcher is free, capped at this; pending requests that
    /// reach it are cut without waiting for the queue to empty.
    pub max_batch: usize,
    /// Capacity of the bounded request queue clients submit into.
    pub queue_depth: usize,
    /// Thread count for a private `sdc-runtime` pool installed on the
    /// batcher thread (`None` uses the process-global pool, i.e.
    /// `SDC_THREADS`). Tests pin this to assert thread-count
    /// invariance.
    pub threads: Option<usize>,
    /// Admission bound for **droppable** requests
    /// ([`SubmitOpts::droppable`]): when the batcher already holds
    /// at least this many pending samples, an arriving droppable
    /// request is answered with a typed [`ShedCause::Backlog`] reply
    /// instead of joining the queue — pending work is bounded, never
    /// buffered without limit. Guaranteed requests (the default, and
    /// [`ScoringClient::score`]) are exempt: they block on the bounded
    /// request queue instead.
    pub max_pending: usize,
    /// How many scoring replicas a [`ReplicaSet`](crate::ReplicaSet)
    /// starts from this configuration — independent batcher threads
    /// sharing one model snapshot, with streams deterministically
    /// sharded across them by
    /// [`replica_for`](crate::replica_for)`(stream_id, replicas)`. A
    /// plain [`ScoringService`] ignores this field (it *is* one
    /// replica).
    pub replicas: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 64, queue_depth: 64, threads: None, max_pending: 256, replicas: 1 }
    }
}

/// Counters published by the batcher thread (all monotone), plus the
/// per-service latency histograms. Held per instance — two services in
/// one process never mix observations.
#[derive(Debug, Default)]
struct StatsInner {
    requests: AtomicU64,
    samples: AtomicU64,
    batches: AtomicU64,
    size_flushes: AtomicU64,
    dropped_replies: AtomicU64,
    shed_backlog: AtomicU64,
    shed_queue_full: AtomicU64,
    /// Enqueue → reply wall-clock per answered scoring request.
    latency: LatencyHistogram,
    /// Per-stream enqueue → reply histograms, grown on a stream's first
    /// answered request. Every observation recorded here is *also*
    /// recorded in the aggregate `latency` histogram, so the per-stream
    /// breakdown projects sum-consistently onto the aggregate. Only the
    /// batcher inserts (and it caches handles), so this lock is
    /// snapshot-contended only.
    per_stream: Mutex<BTreeMap<StreamId, Arc<LatencyHistogram>>>,
}

impl StatsInner {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::SeqCst),
            samples: self.samples.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            size_flushes: self.size_flushes.load(Ordering::SeqCst),
            round_flushes: 0,
            deadline_flushes: 0,
            dropped_replies: self.dropped_replies.load(Ordering::SeqCst),
            shed_backlog: self.shed_backlog.load(Ordering::SeqCst),
            shed_queue_full: self.shed_queue_full.load(Ordering::SeqCst),
            latency: self.latency.summary(),
            per_stream: self
                .per_stream
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(&stream, h)| StreamLatency { stream, latency: h.summary() })
                .collect(),
        }
    }
}

/// Why a droppable request was shed instead of scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The bounded request queue was full at submit time (a droppable
    /// [`ScoringClient::submit`] never blocks).
    QueueFull,
    /// The batcher already held [`ServeConfig::max_pending`] samples;
    /// admission control refused to grow the backlog.
    Backlog,
}

/// The batcher's answer to one scoring request.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreOutcome {
    /// The request rode a coalesced batch; its score slice.
    Scored(Vec<f32>),
    /// The request was shed by admission control (droppable requests
    /// only) — a typed reply, never silent unbounded buffering.
    Shed(ShedCause),
}

/// How [`ScoringClient::submit`] enqueues one request. The default is
/// a guaranteed, untraced-upstream request.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// Whether admission control may shed the request. A droppable
    /// request never blocks: it is shed with [`ShedCause::QueueFull`]
    /// when the request queue is full, and with [`ShedCause::Backlog`]
    /// when the batcher already holds [`ServeConfig::max_pending`]
    /// samples. A guaranteed request blocks on the bounded queue and is
    /// never shed.
    pub droppable: bool,
    /// Upstream trace context: while tracing is enabled, the request
    /// span (and its batcher phase spans) become children of it — this
    /// is how a remote `NodeClient` span ends up the ancestor of the
    /// replica batcher's spans. `None` roots a fresh trace at this
    /// request.
    pub trace: Option<TraceContext>,
}

/// One row of the per-stream latency breakdown in [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLatency {
    /// The stream this row summarizes.
    pub stream: StreamId,
    /// Enqueue → reply latency of this stream's answered requests.
    pub latency: LatencySummary,
}

/// A snapshot of the service's bookkeeping counters and latency
/// summaries. Obtained live (non-quiescing) via
/// [`ScoringService::stats_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Scoring requests answered with scores or an error (shed replies
    /// are counted separately in the `shed_*` fields).
    pub requests: u64,
    /// Samples scored across all batches.
    pub samples: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Batches cut because pending samples reached `max_batch`.
    pub size_flushes: u64,
    /// Always 0: the batcher has no round rule. It stays until the
    /// benchmark drops `serve.flush.round_share`.
    pub round_flushes: u64,
    /// Always 0: the batcher has no deadline rule. It stays until the
    /// benchmark drops `serve.flush.deadline_share`.
    pub deadline_flushes: u64,
    /// Replies that could not be delivered because the requesting
    /// stream dropped its ticket mid-flight.
    pub dropped_replies: u64,
    /// Droppable requests shed by the batcher's pending-samples bound.
    pub shed_backlog: u64,
    /// Droppable requests shed at submit time on a full request queue.
    pub shed_queue_full: u64,
    /// Enqueue → reply latency of answered scoring requests
    /// (nanoseconds; empty while `sdc-obs` recording is disabled).
    pub latency: LatencySummary,
    /// Per-stream slices of `latency`, ordered by stream id. Every
    /// latency observation lands in exactly one row *and* in the
    /// aggregate, so after a [`ScoringService::quiesce`] the row
    /// counts/sums add up to the aggregate's exactly (a live snapshot
    /// may catch a reply between the two reads).
    pub per_stream: Vec<StreamLatency>,
}

impl ServeStats {
    /// Mean samples per coalesced batch (0 when no batch ran) — the
    /// number the coalescing exists to push up.
    pub fn mean_batch_samples(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }

    /// The counters and the per-stream breakdown (stream-id keys in
    /// ascending order) as one deterministic JSON object — the shape
    /// the node's `Stats` scrape reply embeds per replica.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"requests\": {}, \"samples\": {}, \"batches\": {}, \"size_flushes\": {}, \
             \"dropped_replies\": {}, \"shed_backlog\": {}, \"shed_queue_full\": {}, \
             \"per_stream\": {{",
            self.requests,
            self.samples,
            self.batches,
            self.size_flushes,
            self.dropped_replies,
            self.shed_backlog,
            self.shed_queue_full
        );
        for (i, row) in self.per_stream.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let h = &row.latency;
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                row.stream, h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99, h.p999
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Trace bookkeeping carried by a request while tracing is enabled:
/// the ids were drawn at submit time, the batcher stamps the phase
/// boundaries and records the spans at reply time.
#[derive(Debug, Clone, Copy)]
struct RequestTrace {
    /// Context *children of the request span* hang under: the request's
    /// trace id plus the request span's own id.
    ctx: TraceContext,
    /// Upstream parent of the request span (e.g. the remote
    /// `NodeClient` span carried across the wire), `None` for a trace
    /// rooted at this request.
    parent: Option<SpanId>,
    /// Submit time on the trace clock.
    arrived_nanos: u64,
    /// When the batcher popped the request off the queue (stamped by
    /// the batcher; the end of the `enqueue` phase).
    dequeued_nanos: u64,
}

/// One queued scoring request.
#[derive(Debug)]
struct ScoreRequest {
    stream: StreamId,
    /// Submission time, the start of the request's enqueue → reply
    /// latency.
    arrived: Instant,
    samples: Vec<Sample>,
    /// Whether admission control may shed this request
    /// ([`SubmitOpts::droppable`]).
    droppable: bool,
    /// Span bookkeeping, populated only while tracing is enabled at
    /// submit time (strictly observe-only — never read by batching or
    /// scoring decisions).
    trace: Option<RequestTrace>,
    reply: SyncSender<Result<ScoreOutcome>>,
}

/// Control + data messages accepted by the batcher thread.
#[derive(Debug)]
enum Request {
    Score(ScoreRequest),
    /// Score everything pending with the current model, then install a
    /// fresh snapshot for all later batches (training drivers publish
    /// one after each update round).
    SwapModel(Arc<ContrastiveModel>),
    /// Barrier: score everything pending, then reply — every request
    /// queued before this one has its reply by then (checkpointing
    /// quiesces the batcher with it).
    Sync(SyncSender<()>),
    /// Score whatever is pending and exit (sent by the service handle's
    /// `Drop`; clients keep sender clones, so queue disconnection
    /// alone cannot signal termination).
    Shutdown,
}

fn service_gone() -> TensorError {
    TensorError::InvalidArgument {
        op: "scoring_service",
        message: "scoring service terminated".into(),
    }
}

/// A handle for one stream to score through a [`ScoringService`]. Its
/// [`StreamId`] labels the stream's row in [`ServeStats::per_stream`].
#[derive(Debug)]
pub struct ScoringClient {
    stream: StreamId,
    tx: SyncSender<Request>,
    stats: Arc<StatsInner>,
}

/// An in-flight scoring request. Dropping the ticket abandons the
/// reply: the service scores the batch normally and counts the
/// undeliverable reply in [`ServeStats::dropped_replies`].
#[derive(Debug)]
pub struct ScoreTicket {
    rx: Receiver<Result<ScoreOutcome>>,
}

fn request_shed(cause: ShedCause) -> TensorError {
    TensorError::InvalidArgument {
        op: "scoring_service",
        message: format!(
            "request shed by admission control ({})",
            match cause {
                ShedCause::QueueFull => "queue full",
                ShedCause::Backlog => "backlog bound",
            }
        ),
    }
}

impl ScoreTicket {
    /// Blocks until the coalesced batch containing this request has
    /// been scored, returning this request's scores. A shed reply
    /// (possible only for droppable requests) surfaces as an error;
    /// droppable submitters should prefer [`ScoreTicket::wait_outcome`]
    /// to observe the typed [`ShedCause`].
    ///
    /// # Errors
    ///
    /// Propagates scoring errors, and reports the service terminating
    /// before replying.
    pub fn wait(self) -> Result<Vec<f32>> {
        match self.wait_outcome()? {
            ScoreOutcome::Scored(scores) => Ok(scores),
            ScoreOutcome::Shed(cause) => Err(request_shed(cause)),
        }
    }

    /// Blocks until the service answers, returning the typed outcome —
    /// scores, or the [`ShedCause`] if admission control shed the
    /// request.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors and service termination.
    pub fn wait_outcome(self) -> Result<ScoreOutcome> {
        self.rx.recv().map_err(|_| service_gone())?
    }
}

impl ScoringClient {
    /// Submits `samples` for scoring without waiting for the reply. A
    /// droppable request that finds the queue full is shed here: the
    /// returned ticket already holds its [`ShedCause::QueueFull`] reply.
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn submit(&self, samples: Vec<Sample>, opts: SubmitOpts) -> Result<ScoreTicket> {
        let trace = sdc_obs::trace_enabled().then(|| RequestTrace {
            ctx: TraceContext {
                trace: opts.trace.map_or_else(sdc_obs::new_trace_id, |c| c.trace),
                parent: sdc_obs::new_span_id(),
            },
            parent: opts.trace.map(|c| c.parent),
            arrived_nanos: sdc_obs::now_nanos(),
            dequeued_nanos: 0,
        });
        let (reply, rx) = sync_channel(1);
        let request = Request::Score(ScoreRequest {
            stream: self.stream,
            arrived: Instant::now(),
            samples,
            droppable: opts.droppable,
            trace,
            reply,
        });
        if !opts.droppable {
            self.tx.send(request).map_err(|_| service_gone())?;
            return Ok(ScoreTicket { rx });
        }
        match self.tx.try_send(request) {
            Ok(()) => {}
            Err(TrySendError::Full(Request::Score(request))) => {
                self.stats.shed_queue_full.fetch_add(1, Ordering::SeqCst);
                let _ = request.reply.send(Ok(ScoreOutcome::Shed(ShedCause::QueueFull)));
            }
            Err(_) => return Err(service_gone()),
        }
        Ok(ScoreTicket { rx })
    }

    /// Scores `samples` through the service, blocking until the batch
    /// containing them has run. An idle batcher scores the request as
    /// soon as it arrives; a busy one adds it to the next batch.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors and service termination.
    pub fn score(&self, samples: Vec<Sample>) -> Result<Vec<f32>> {
        self.submit(samples, SubmitOpts::default())?.wait()
    }
}

/// The batched scoring service: one batcher thread coalescing requests
/// from many streams into shared-model scoring batches.
///
/// ```
/// use sdc_core::model::ModelConfig;
/// use sdc_core::score::contrast_scores_shared;
/// use sdc_core::ContrastiveModel;
/// use sdc_nn::models::EncoderConfig;
/// use sdc_serve::{ScoringService, ServeConfig};
/// use sdc_tensor::Tensor;
///
/// let model = ContrastiveModel::new(&ModelConfig {
///     encoder: EncoderConfig::tiny(),
///     projection_hidden: 8,
///     projection_dim: 4,
///     seed: 0,
/// });
/// let reference = model.clone();
/// let service = ScoringService::start(model, ServeConfig::default());
/// let client = service.client(0);
///
/// let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
/// let samples: Vec<_> = (0..4)
///     .map(|i| sdc_data::Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i))
///     .collect();
/// let served = client.score(samples.clone())?;
/// // Bit-identical to scoring directly against the same model.
/// assert_eq!(served, contrast_scores_shared(&reference, &samples)?);
/// # Ok::<(), sdc_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct ScoringService {
    tx: Option<SyncSender<Request>>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<StatsInner>,
}

impl ScoringService {
    /// Starts the service around a model snapshot. The batcher thread
    /// runs until the handle is dropped.
    pub fn start(model: impl Into<Arc<ContrastiveModel>>, config: ServeConfig) -> Self {
        let model = model.into();
        // `sync_channel(0)` would be a rendezvous channel, not a queue.
        let (tx, rx) = sync_channel::<Request>(config.queue_depth.max(1));
        let stats = Arc::new(StatsInner::default());
        let batcher_stats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("sdc-serve-batcher".into())
            .spawn(move || match config.threads {
                Some(n) => {
                    let rt = Runtime::new(n);
                    rt.install(|| Batcher::new(model, config, batcher_stats).run(rx));
                }
                None => Batcher::new(model, config, batcher_stats).run(rx),
            })
            .expect("spawn serve batcher");
        Self { tx: Some(tx), worker: Some(worker), stats }
    }

    /// Creates a client that submits for `stream`. Creating or dropping
    /// a client sends the batcher nothing.
    pub fn client(&self, stream: StreamId) -> ScoringClient {
        let tx = self.tx.as_ref().expect("sender lives until drop").clone();
        ScoringClient { stream, tx, stats: Arc::clone(&self.stats) }
    }

    /// Publishes a fresh model snapshot. Requests submitted before this
    /// call score with the old parameters, requests submitted after it
    /// with the new ones.
    pub fn swap_model(&self, model: impl Into<Arc<ContrastiveModel>>) {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let _ = tx.send(Request::SwapModel(model.into()));
    }

    /// Quiesces the batcher: blocks until every message submitted
    /// before this call — model swaps, score requests — has been
    /// processed and every earlier request has its reply. Checkpointing
    /// calls this at a round boundary so the captured model/shard state
    /// is the state the batcher will score the *next* round with, with
    /// nothing in flight.
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn quiesce(&self) -> Result<()> {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let (rtx, rrx) = sync_channel(1);
        tx.send(Request::Sync(rtx)).map_err(|_| service_gone())?;
        rrx.recv().map_err(|_| service_gone())
    }

    /// A **live** snapshot of the service's counters and latency
    /// summaries: a lock-free read of the batcher's atomics, safe to
    /// call from any thread at any time — it never quiesces, blocks,
    /// or perturbs in-flight batching. This is how per-round tables
    /// and dashboards read a running service.
    pub fn stats_snapshot(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// A full (bucket-level) snapshot of the request-latency histogram.
    /// Two snapshots bracketing an interval yield that interval's
    /// percentiles via [`HistogramSnapshot::delta`] —
    /// `examples/multi_stream_serve.rs` prints per-round percentiles
    /// this way.
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.stats.latency.snapshot()
    }

    /// An empty histogram snapshot: the batcher has no flush deadline
    /// to overshoot. It stays until the benchmark drops
    /// `serve.deadline_lag_ms_p50`.
    pub fn deadline_lag_histogram(&self) -> HistogramSnapshot {
        LatencyHistogram::new().snapshot()
    }
}

impl Drop for ScoringService {
    fn drop(&mut self) {
        // An explicit message (not queue disconnection — clients hold
        // sender clones) tells the batcher to score what is pending
        // and exit; then reap the thread.
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Request::Shutdown);
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The batcher thread's state machine.
struct Batcher {
    model: Arc<ContrastiveModel>,
    config: ServeConfig,
    stats: Arc<StatsInner>,
    /// Admitted requests not yet scored, in arrival order.
    pending: Vec<ScoreRequest>,
    /// Batcher-local cache of the shared per-stream histogram handles
    /// (only the batcher inserts into `StatsInner::per_stream`, so
    /// after a stream's first reply every later record is lock-free).
    stream_hists: BTreeMap<StreamId, Arc<LatencyHistogram>>,
}

impl Batcher {
    fn new(model: Arc<ContrastiveModel>, config: ServeConfig, stats: Arc<StatsInner>) -> Self {
        Self { model, config, stats, pending: Vec::new(), stream_hists: BTreeMap::new() }
    }

    /// Blocks on the queue only while nothing is pending; otherwise
    /// takes whatever is already queued, and scores a batch when the
    /// queue is empty.
    fn run(mut self, rx: Receiver<Request>) {
        loop {
            // An empty queue and a disconnected one read the same here:
            // either way, nothing more is queued right now.
            let message = if self.pending.is_empty() { rx.recv().ok() } else { rx.try_recv().ok() };
            match message {
                Some(message) => {
                    if !self.handle(message) {
                        return;
                    }
                }
                // Every sender is gone and nothing is left to answer.
                None if self.pending.is_empty() => return,
                // The queue is empty: score what is pending.
                None => self.flush_one(),
            }
        }
    }

    /// Processes one queued message. Returns `false` once a `Shutdown`
    /// has scored everything pending.
    fn handle(&mut self, message: Request) -> bool {
        match message {
            Request::Score(mut request) => {
                if let Some(t) = &mut request.trace {
                    t.dequeued_nanos = sdc_obs::now_nanos();
                }
                if request.samples.is_empty() {
                    // Nothing to batch; answer immediately.
                    self.stats.requests.fetch_add(1, Ordering::SeqCst);
                    self.reply(&request, Ok(Vec::new()));
                } else if request.droppable && self.backlog_exceeded(&request) {
                    // Admission control: a droppable request that would
                    // push pending work past `max_pending` samples is
                    // answered with a typed shed instead of queued —
                    // backlog stays bounded no matter how fast an
                    // open-loop producer submits.
                    self.stats.shed_backlog.fetch_add(1, Ordering::SeqCst);
                    self.send_reply(&request, Ok(ScoreOutcome::Shed(ShedCause::Backlog)));
                } else {
                    self.pending.push(request);
                    while !self.pending.is_empty()
                        && self.pending_samples() >= self.config.max_batch
                    {
                        self.stats.size_flushes.fetch_add(1, Ordering::SeqCst);
                        self.flush_one();
                    }
                }
            }
            Request::SwapModel(model) => {
                self.flush_all();
                self.model = model;
            }
            Request::Sync(reply) => {
                self.flush_all();
                let _ = reply.send(());
            }
            Request::Shutdown => {
                self.flush_all();
                return false;
            }
        }
        true
    }

    fn pending_samples(&self) -> usize {
        self.pending.iter().map(|r| r.samples.len()).sum()
    }

    /// Scores everything pending, in `max_batch`-sized batches.
    fn flush_all(&mut self) {
        while !self.pending.is_empty() {
            self.flush_one();
        }
    }

    /// Cuts one batch: takes pending requests in arrival order, whole
    /// requests up to `max_batch` samples (always at least one), scores
    /// them as a single batch, and routes each request's score slice
    /// back.
    fn flush_one(&mut self) {
        let mut take = 0;
        let mut batch_samples = 0;
        for request in &self.pending {
            if take > 0 && batch_samples + request.samples.len() > self.config.max_batch {
                break;
            }
            batch_samples += request.samples.len();
            take += 1;
        }
        let mut wave: Vec<ScoreRequest> = self.pending.drain(..take).collect();

        // Move each request's samples into the coalesced batch (the
        // wave is owned; only per-request lengths are needed to route
        // score slices back).
        let lens: Vec<usize> = wave.iter().map(|r| r.samples.len()).collect();
        let mut all: Vec<Sample> = Vec::with_capacity(batch_samples);
        for request in &mut wave {
            all.append(&mut request.samples);
        }
        // Phase boundaries for traced requests: the clock is read only
        // when a traced request is actually in the wave.
        let traced = wave.iter().any(|r| r.trace.is_some());
        let assembled_nanos = if traced { sdc_obs::now_nanos() } else { 0 };
        let scored = contrast_scores_shared(&self.model, &all);
        let scored_nanos = if traced { sdc_obs::now_nanos() } else { 0 };

        self.stats.batches.fetch_add(1, Ordering::SeqCst);
        self.stats.requests.fetch_add(wave.len() as u64, Ordering::SeqCst);
        self.stats.samples.fetch_add(batch_samples as u64, Ordering::SeqCst);

        match scored {
            Ok(scores) => {
                let mut offset = 0;
                for (request, len) in wave.iter().zip(&lens) {
                    let slice = scores[offset..offset + len].to_vec();
                    offset += len;
                    self.reply(request, Ok(slice));
                    self.record_request_spans(request, assembled_nanos, scored_nanos);
                }
            }
            Err(e) => {
                for request in &wave {
                    self.reply(request, Err(e.clone()));
                    self.record_request_spans(request, assembled_nanos, scored_nanos);
                }
            }
        }
    }

    /// Pushes the finished request's span tree into the global
    /// collector: a `serve.request` span covering submit → reply
    /// (parented to the upstream context if the request carried one),
    /// with the four batcher phases as children.
    fn record_request_spans(
        &self,
        request: &ScoreRequest,
        assembled_nanos: u64,
        scored_nanos: u64,
    ) {
        let Some(t) = request.trace else { return };
        if !sdc_obs::trace_enabled() {
            return;
        }
        let done = sdc_obs::now_nanos();
        let trace = t.ctx.trace;
        let req_span = t.ctx.parent; // the request span's own id
        sdc_obs::record_span(
            "serve.phase.enqueue",
            trace,
            Some(req_span),
            t.arrived_nanos,
            t.dequeued_nanos,
        );
        sdc_obs::record_span(
            "serve.phase.batch_assembly",
            trace,
            Some(req_span),
            t.dequeued_nanos,
            assembled_nanos,
        );
        sdc_obs::record_span(
            "serve.phase.score",
            trace,
            Some(req_span),
            assembled_nanos,
            scored_nanos,
        );
        sdc_obs::record_span("serve.phase.reply", trace, Some(req_span), scored_nanos, done);
        sdc_obs::trace_collector().record(sdc_obs::SpanRecord {
            trace,
            span: req_span,
            parent: t.parent,
            name: "serve.request",
            start_nanos: t.arrived_nanos,
            end_nanos: done,
            thread: sdc_obs::thread_tag(),
        });
    }

    /// Whether admitting `request` would push pending work past the
    /// droppable-request backlog bound.
    fn backlog_exceeded(&self, request: &ScoreRequest) -> bool {
        self.pending_samples() + request.samples.len() > self.config.max_pending
    }

    /// Answers one scored (or errored) request, recording its
    /// enqueue → reply latency into the aggregate histogram *and* the
    /// request's per-stream histogram (one observation each — the
    /// breakdown projects onto the aggregate). Shed replies go through
    /// [`Batcher::send_reply`] directly and are not latency samples.
    fn reply(&mut self, request: &ScoreRequest, result: Result<Vec<f32>>) {
        if sdc_obs::enabled() {
            let elapsed = request.arrived.elapsed();
            self.stats.latency.record_duration(elapsed);
            self.stream_histogram(request.stream).record_duration(elapsed);
        }
        self.send_reply(request, result.map(ScoreOutcome::Scored));
    }

    /// The shared per-stream histogram handle for `stream`, interning
    /// it in [`StatsInner::per_stream`] on the stream's first reply.
    fn stream_histogram(&mut self, stream: StreamId) -> &LatencyHistogram {
        self.stream_hists.entry(stream).or_insert_with(|| {
            Arc::clone(
                self.stats
                    .per_stream
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .entry(stream)
                    .or_insert_with(|| Arc::new(LatencyHistogram::new())),
            )
        })
    }

    fn send_reply(&self, request: &ScoreRequest, outcome: Result<ScoreOutcome>) {
        if request.reply.send(outcome).is_err() {
            self.stats.dropped_replies.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_core::model::ModelConfig;
    use sdc_nn::models::EncoderConfig;
    use sdc_tensor::Tensor;

    fn tiny_model(seed: u64) -> ContrastiveModel {
        ContrastiveModel::new(&ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed,
        })
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        (0..n).map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i as u64)).collect()
    }

    #[test]
    fn served_scores_match_direct_scoring() {
        let model = tiny_model(1);
        let reference = model.clone();
        let service = ScoringService::start(model, ServeConfig::default());
        let client = service.client(0);
        let pool = samples(6, 2);
        let served = client.score(pool.clone()).unwrap();
        let direct = contrast_scores_shared(&reference, &pool).unwrap();
        assert_eq!(served, direct);
        let stats = service.stats_snapshot();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.samples, 6);
    }

    #[test]
    fn empty_requests_answer_immediately() {
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        assert_eq!(client.score(Vec::new()).unwrap(), Vec::<f32>::new());
        let stats = service.stats_snapshot();
        assert_eq!(stats.batches, 0, "empty requests must not spend a batch");
        assert_eq!(stats.requests, 1, "answered requests count even when empty");
    }

    #[test]
    fn swap_model_changes_subsequent_scores() {
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        let pool = samples(4, 3);
        let before = client.score(pool.clone()).unwrap();
        let replacement = tiny_model(99);
        let expected = contrast_scores_shared(&replacement, &pool).unwrap();
        service.swap_model(replacement);
        let after = client.score(pool).unwrap();
        assert_eq!(after, expected);
        assert_ne!(before, after, "different weights must score differently");
    }

    #[test]
    fn shape_errors_reach_every_request_in_the_wave() {
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        // Mismatched image shapes inside one request: stacking the
        // coalesced batch errors, and the client must receive that
        // error rather than hang.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let bad = vec![
            Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, 0),
            Sample::new(Tensor::randn([3, 4, 4], 1.0, &mut rng), 0, 1),
        ];
        assert!(client.score(bad).is_err());
        // The service must still be healthy afterwards.
        assert!(client.score(samples(2, 6)).is_ok());
    }

    #[test]
    fn empty_images_get_an_error_reply_and_the_service_survives() {
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        // A zero-height image is smaller than the stem conv's padded
        // 3×3 window: the conv geometry check must turn it into an
        // error reply rather than a panic on the batcher thread.
        let empty = vec![Sample::new(Tensor::zeros([3, 0, 5]), 0, 0)];
        assert!(client.score(empty).is_err());
        assert!(client.score(samples(2, 6)).is_ok());
    }

    #[test]
    fn client_outliving_service_gets_error_not_hang() {
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        drop(service);
        assert!(client.score(samples(2, 7)).is_err());
    }

    /// A batcher driven through [`Batcher::handle`] on the test thread.
    fn batcher(config: ServeConfig) -> Batcher {
        Batcher::new(Arc::new(tiny_model(1)), config, Arc::new(StatsInner::default()))
    }

    /// Hands `batcher` a score request and returns its ticket.
    fn submit_to(
        batcher: &mut Batcher,
        stream: StreamId,
        samples: Vec<Sample>,
        droppable: bool,
    ) -> ScoreTicket {
        let (reply, rx) = sync_channel(1);
        let request = ScoreRequest {
            stream,
            arrived: Instant::now(),
            samples,
            droppable,
            trace: None,
            reply,
        };
        assert!(batcher.handle(Request::Score(request)));
        ScoreTicket { rx }
    }

    /// The ticket's reply, if the batcher has sent it.
    fn answered(ticket: &ScoreTicket) -> Option<ScoreOutcome> {
        ticket.rx.try_recv().ok().map(|reply| reply.unwrap())
    }

    /// Droppable requests past the pending-samples bound get a typed
    /// `Backlog` shed: exactly the first `max_pending` one-sample
    /// requests are admitted.
    #[test]
    fn droppable_requests_past_max_pending_are_shed() {
        let mut b = batcher(ServeConfig { max_pending: 2, ..ServeConfig::default() });
        let tickets: Vec<_> =
            (0..5u64).map(|i| submit_to(&mut b, 1, samples(1, 10 + i), true)).collect();
        b.flush_one();
        for (i, ticket) in tickets.iter().enumerate() {
            match answered(ticket) {
                Some(ScoreOutcome::Scored(scores)) if i < 2 => assert_eq!(scores.len(), 1),
                Some(ScoreOutcome::Shed(ShedCause::Backlog)) if i >= 2 => {}
                other => panic!("request {i}: {other:?}"),
            }
        }
        let stats = b.stats.snapshot();
        assert_eq!(stats.shed_backlog, 3, "{stats:?}");
        assert_eq!(stats.requests, 2, "sheds are not answered requests: {stats:?}");
        assert_eq!(stats.batches, 1, "{stats:?}");
    }

    /// A droppable request that finds the queue full is shed at submit
    /// time, and its ticket holds the `QueueFull` reply.
    #[test]
    fn droppable_requests_on_a_full_queue_are_shed_at_submit() {
        let (tx, _queue) = sync_channel(1);
        let client = ScoringClient { stream: 0, tx, stats: Arc::new(StatsInner::default()) };
        let droppable = SubmitOpts { droppable: true, trace: None };
        let queued = client.submit(samples(1, 70), droppable).unwrap();
        let shed = client.submit(samples(1, 71), droppable).unwrap();
        assert!(answered(&queued).is_none(), "the first request fits the queue");
        assert_eq!(answered(&shed), Some(ScoreOutcome::Shed(ShedCause::QueueFull)));
        assert_eq!(client.stats.snapshot().shed_queue_full, 1);
    }

    /// A cut takes pending requests in arrival order, whole requests up
    /// to `max_batch` samples — never sorted by stream id.
    #[test]
    fn cuts_take_requests_in_arrival_order() {
        let mut b = batcher(ServeConfig { max_batch: 2, ..ServeConfig::default() });
        let tickets: Vec<_> =
            [5u64, 1, 3].iter().map(|&s| submit_to(&mut b, s, samples(1, s), false)).collect();
        // Stream 1's request brought pending to `max_batch`: streams 5
        // and 1 rode the first batch, stream 3 waits.
        assert!(answered(&tickets[0]).is_some());
        assert!(answered(&tickets[1]).is_some());
        assert!(answered(&tickets[2]).is_none());
        // Two more samples overshoot the cap. The cut takes stream 3's
        // earlier request alone, then stream 2's fills the next batch;
        // a cut by stream id would take stream 2's first and leave 3.
        let last = submit_to(&mut b, 2, samples(2, 9), false);
        assert!(answered(&tickets[2]).is_some());
        assert!(answered(&last).is_some());
        let stats = b.stats.snapshot();
        assert_eq!((stats.batches, stats.size_flushes), (3, 3), "{stats:?}");
    }

    /// A model swap first scores what is pending: each request scores
    /// with the model it was queued under.
    #[test]
    fn requests_score_with_the_model_they_were_queued_under() {
        let mut b = batcher(ServeConfig::default());
        let pool = samples(3, 40);
        let replacement = tiny_model(99);
        let old = contrast_scores_shared(&tiny_model(1), &pool).unwrap();
        let new = contrast_scores_shared(&replacement, &pool).unwrap();
        assert_ne!(old, new, "different weights must score differently");
        let before = submit_to(&mut b, 0, pool.clone(), false);
        assert!(b.handle(Request::SwapModel(Arc::new(replacement))));
        let after = submit_to(&mut b, 0, pool, false);
        b.flush_one();
        assert_eq!(answered(&before), Some(ScoreOutcome::Scored(old)));
        assert_eq!(answered(&after), Some(ScoreOutcome::Scored(new)));
    }

    /// A reply whose ticket was dropped is counted, and the request still
    /// counts as answered.
    #[test]
    fn replies_to_dropped_tickets_are_counted() {
        let mut b = batcher(ServeConfig::default());
        drop(submit_to(&mut b, 0, samples(2, 60), false));
        let kept = submit_to(&mut b, 1, samples(3, 61), false);
        b.flush_one();
        assert!(answered(&kept).is_some());
        let stats = b.stats.snapshot();
        assert_eq!((stats.requests, stats.dropped_replies), (2, 1), "{stats:?}");
    }

    /// A `Sync` barrier is answered only once every earlier request has
    /// its reply.
    #[test]
    fn sync_is_answered_after_every_earlier_request() {
        let mut b = batcher(ServeConfig::default());
        let tickets: Vec<_> =
            (0..3u64).map(|s| submit_to(&mut b, s, samples(2, 50 + s), false)).collect();
        assert!(tickets.iter().all(|t| answered(t).is_none()), "below max_batch: all pending");
        let (done, synced) = sync_channel(1);
        assert!(b.handle(Request::Sync(done)));
        assert_eq!(synced.try_recv(), Ok(()));
        assert!(tickets.iter().all(|t| answered(t).is_some()));
    }

    /// Every answered request contributes one enqueue → reply latency
    /// observation, readable live through `stats_snapshot`.
    #[test]
    fn answered_requests_record_latency_observations() {
        if !sdc_obs::enabled() {
            return; // SDC_OBS=0 in the environment: nothing to assert
        }
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        for i in 0..3u64 {
            client.score(samples(2, 20 + i)).unwrap();
        }
        let stats = service.stats_snapshot();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.latency.count, 3, "{stats:?}");
        assert!(stats.latency.p50 >= stats.latency.min, "{stats:?}");
        assert!(stats.latency.max >= stats.latency.p999, "{stats:?}");
    }

    /// The per-stream breakdown covers every answered request exactly
    /// once: after a quiesce, row counts and sums add up to the
    /// aggregate histogram's, and every stream that scored has a row.
    #[test]
    fn per_stream_breakdown_projects_onto_the_aggregate() {
        if !sdc_obs::enabled() {
            return; // SDC_OBS=0 in the environment: nothing to assert
        }
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let streams = [3u64, 11, 42];
        let clients: Vec<_> = streams.iter().map(|&s| service.client(s)).collect();
        for round in 0..2u64 {
            let tickets: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    c.submit(samples(1 + i, 30 + round * 10 + i as u64), SubmitOpts::default())
                        .unwrap()
                })
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
        }
        service.quiesce().unwrap();
        let stats = service.stats_snapshot();
        let rows: Vec<u64> = stats.per_stream.iter().map(|r| r.stream).collect();
        assert_eq!(rows, streams.to_vec(), "rows sorted by stream id");
        let count_sum: u64 = stats.per_stream.iter().map(|r| r.latency.count).sum();
        let nanos_sum: u64 = stats.per_stream.iter().map(|r| r.latency.sum).sum();
        assert_eq!(count_sum, stats.latency.count, "{stats:?}");
        assert_eq!(nanos_sum, stats.latency.sum, "{stats:?}");
        for row in &stats.per_stream {
            assert_eq!(row.latency.count, 2, "{row:?}");
            assert!(row.latency.p50 <= stats.latency.max, "{row:?}");
        }
        let json = stats.to_json();
        assert!(json.contains("\"requests\": 6,"), "{json}");
        assert!(json.contains("\"per_stream\": {\"3\": {\"count\": 2"), "{json}");
    }

    /// A traced request leaves one `serve.request` span with all four
    /// batcher phases as children, nested inside the request window.
    #[test]
    fn traced_requests_record_connected_phase_spans() {
        sdc_obs::set_trace_enabled(true);
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(77);
        let upstream = sdc_obs::Span::root("test.upstream");
        let ctx = upstream.context().unwrap();
        let opts = SubmitOpts { trace: Some(ctx), ..SubmitOpts::default() };
        client.submit(samples(2, 50), opts).unwrap().wait().unwrap();
        // The reply unblocks before the batcher finishes recording the
        // span tree; the quiesce barrier orders the snapshot after it.
        service.quiesce().unwrap();
        drop(upstream);
        let spans = sdc_obs::trace_collector().snapshot();
        let req = spans
            .iter()
            .filter(|s| s.name == "serve.request" && s.trace == ctx.trace)
            .max_by_key(|s| s.start_nanos)
            .expect("request span recorded");
        assert_eq!(req.parent, Some(ctx.parent), "request hangs under the upstream span");
        for phase in [
            "serve.phase.enqueue",
            "serve.phase.batch_assembly",
            "serve.phase.score",
            "serve.phase.reply",
        ] {
            let p = spans
                .iter()
                .find(|s| s.name == phase && s.trace == ctx.trace)
                .unwrap_or_else(|| panic!("{phase} span missing"));
            assert_eq!(p.parent, Some(req.span), "{phase} parented to the request span");
            assert!(p.start_nanos >= req.start_nanos, "{phase} starts inside the request");
            assert!(p.end_nanos <= req.end_nanos, "{phase} ends inside the request");
        }
    }
}
