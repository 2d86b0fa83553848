//! The coalescing scoring service.
//!
//! A [`ScoringService`] owns one batcher thread and one
//! [`ContrastiveModel`] snapshot. Any number of [`ScoringClient`]s —
//! typically one per stream, running on their own threads — submit
//! scoring requests into a bounded request queue; the batcher coalesces
//! them into large batches, runs each batch through
//! [`contrast_scores_shared`] (which fans out over the `sdc-runtime`
//! worker pool), and routes the per-request score slices back through
//! per-request reply channels.
//!
//! ## Flush policy
//!
//! A coalesced batch is cut when the first of three conditions holds:
//!
//! 1. **Size** — pending requests hold at least
//!    [`ServeConfig::max_batch`] samples (a *split flush* scores the
//!    oldest requests up to the cap and leaves the rest pending);
//! 2. **Round** — every live (registered, not yet dropped) stream has
//!    at least one request pending, so waiting longer cannot grow the
//!    batch (the common steady-state path);
//! 3. **Deadline** — the oldest pending request has waited
//!    [`ServeConfig::flush_deadline`], the wall-clock liveness fallback
//!    for slow or stalled streams.
//!
//! Conditions 1 and 2 depend only on request counts and the registered
//! stream set — never on wall-clock time — so with a fixed stream set
//! of blocking clients, batch composition is reproducible run to run:
//! pending requests are ordered by stream id before each cut, and the
//! deadline only fires when some stream genuinely stalls.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdc_core::score::contrast_scores_shared;
use sdc_core::ContrastiveModel;
use sdc_data::{Sample, StreamId};
use sdc_obs::{HistogramSnapshot, LatencyHistogram, LatencySummary, SpanId, TraceContext};
use sdc_runtime::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use sdc_runtime::Runtime;
use sdc_tensor::{Result, TensorError};

/// Tuning knobs of a [`ScoringService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum samples per coalesced scoring batch. Pending requests
    /// beyond this are cut into follow-up batches (split flush).
    pub max_batch: usize,
    /// How long the oldest pending request may wait before a partial
    /// batch is flushed anyway — the liveness fallback when some
    /// registered stream is slow. Batch composition under a fixed,
    /// healthy stream set is governed by the round/size conditions, not
    /// this deadline.
    pub flush_deadline: Duration,
    /// Capacity of the bounded request queue clients submit into.
    pub queue_depth: usize,
    /// Thread count for a private `sdc-runtime` pool installed on the
    /// batcher thread (`None` uses the process-global pool, i.e.
    /// `SDC_THREADS`). Tests pin this to assert thread-count
    /// invariance.
    pub threads: Option<usize>,
    /// Admission bound for **droppable** requests
    /// ([`ScoringClient::try_submit`]): when the batcher already holds
    /// at least this many pending samples, an arriving droppable
    /// request is answered with a typed [`ShedCause::Backlog`] reply
    /// instead of joining the queue — pending work is bounded, never
    /// buffered without limit. Guaranteed requests
    /// ([`ScoringClient::submit`] / [`ScoringClient::score`]) are
    /// exempt: they block on the bounded request queue instead.
    pub max_pending: usize,
    /// How many scoring replicas a [`ReplicaSet`](crate::ReplicaSet)
    /// starts from this configuration — independent batcher threads,
    /// each with its own model snapshot, with streams deterministically
    /// sharded across them by
    /// [`replica_for`](crate::replica_for)`(stream_id, replicas)`. A
    /// plain [`ScoringService`] ignores this field (it *is* one
    /// replica).
    pub replicas: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            flush_deadline: Duration::from_millis(20),
            queue_depth: 64,
            threads: None,
            max_pending: 256,
            replicas: 1,
        }
    }
}

/// Why a batch was cut. Recorded per flush in [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    Size,
    Round,
    Deadline,
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
    round_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    dropped_replies: AtomicU64,
    shed_backlog: AtomicU64,
    shed_queue_full: AtomicU64,
    /// Enqueue → reply wall-clock per answered scoring request.
    latency: LatencyHistogram,
    /// How late past `flush_deadline` each deadline flush actually
    /// fired (the liveness overshoot under load).
    deadline_lag: LatencyHistogram,
    /// Per-stream enqueue → reply histograms, grown on a stream's first
    /// answered request. Every observation recorded here is *also*
    /// recorded in the aggregate `latency` histogram, so the per-stream
    /// breakdown projects sum-consistently onto the aggregate. Only the
    /// batcher inserts (and it caches handles), so this lock is
    /// snapshot-contended only.
    per_stream: Mutex<BTreeMap<StreamId, Arc<LatencyHistogram>>>,
}

/// Why a droppable request was shed instead of scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The bounded request queue was full at submit time
    /// ([`ScoringClient::try_submit`] refused to block).
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

/// Result of a non-blocking [`ScoringClient::try_submit`].
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The request joined the queue; await the reply via the ticket.
    Enqueued(ScoreTicket),
    /// The request was shed immediately (always
    /// [`ShedCause::QueueFull`] at this stage).
    Shed(ShedCause),
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
    /// Batches cut because every live stream had a request pending.
    pub round_flushes: u64,
    /// Batches cut by the wall-clock liveness deadline.
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
    /// Wall-clock overshoot of each deadline flush past
    /// [`ServeConfig::flush_deadline`] (nanoseconds).
    pub deadline_lag: LatencySummary,
    /// Per-stream slices of `latency`, ordered by stream id. Every
    /// latency observation lands in exactly one row *and* in the
    /// aggregate, so after a [`ScoringService::quiesce`] the row
    /// counts/sums add up to the aggregate's exactly (a live snapshot
    /// may catch a reply between the two reads).
    pub per_stream: Vec<StreamLatency>,
}

/// The count-derived subset of [`ServeStats`]: every field that is a
/// pure function of the request/flush sequence, excluding wall-clock
/// measurements. This is the projection that is reproducible run to
/// run for a fixed stream set of blocking clients (the latency fields
/// are wall-clock and never are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeComposition {
    /// See [`ServeStats::requests`].
    pub requests: u64,
    /// See [`ServeStats::samples`].
    pub samples: u64,
    /// See [`ServeStats::batches`].
    pub batches: u64,
    /// See [`ServeStats::size_flushes`].
    pub size_flushes: u64,
    /// See [`ServeStats::round_flushes`].
    pub round_flushes: u64,
    /// See [`ServeStats::deadline_flushes`].
    pub deadline_flushes: u64,
    /// See [`ServeStats::dropped_replies`].
    pub dropped_replies: u64,
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

    /// The per-stream breakdown as a deterministic JSON object
    /// (stream-id keys in ascending order) — the shape the node's
    /// `Stats` scrape reply and the harness tables embed.
    pub fn per_stream_json(&self) -> String {
        let mut out = String::from("{");
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
        out.push('}');
        out
    }

    /// The reproducible, count-derived projection of these stats (what
    /// the equivalence suites compare across runs).
    pub fn composition(&self) -> ServeComposition {
        ServeComposition {
            requests: self.requests,
            samples: self.samples,
            batches: self.batches,
            size_flushes: self.size_flushes,
            round_flushes: self.round_flushes,
            deadline_flushes: self.deadline_flushes,
            dropped_replies: self.dropped_replies,
        }
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
    /// Arrival sequence number; keeps the per-stream order stable when
    /// requests are sorted by stream id before a cut.
    seq: u64,
    /// Submission time; the flush deadline is anchored to the oldest
    /// *remaining* pending request, so it must be carried per request
    /// (a cached "oldest" timestamp would go stale after a split
    /// flush serves the request it belonged to).
    arrived: Instant,
    samples: Vec<Sample>,
    /// Whether admission control may shed this request
    /// ([`ScoringClient::try_submit`] sets it; blocking submits are
    /// guaranteed and never shed).
    droppable: bool,
    /// Span bookkeeping, populated only while tracing is enabled at
    /// submit time (strictly observe-only — never read by batching or
    /// scoring decisions).
    trace: Option<RequestTrace>,
    reply: Sender<Result<ScoreOutcome>>,
}

/// Control + data messages accepted by the batcher thread.
#[derive(Debug)]
enum Request {
    Score(ScoreRequest),
    Register(StreamId),
    Deregister(StreamId),
    /// Install a fresh model snapshot for all subsequent batches
    /// (training drivers publish one after each update round).
    SwapModel(Box<ContrastiveModel>),
    /// Barrier: reply once every message queued before this one has
    /// been processed (checkpointing quiesces the batcher with it).
    Sync(Sender<()>),
    /// Flush whatever is pending and exit (sent by the service handle's
    /// `Drop`; clients keep `Sender` clones, so queue disconnection
    /// alone cannot signal termination).
    Shutdown,
}

fn service_gone() -> TensorError {
    TensorError::InvalidArgument {
        op: "scoring_service",
        message: "scoring service terminated".into(),
    }
}

/// A handle for one stream to score through a [`ScoringService`].
///
/// Each client registers its [`StreamId`] on creation; dropping the
/// client deregisters it, shrinking the set of streams a round flush
/// waits for. Ids should be unique per live client — two clients
/// sharing an id would deregister each other.
#[derive(Debug)]
pub struct ScoringClient {
    stream: StreamId,
    tx: Sender<Request>,
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
    /// This client's stream id.
    pub fn stream_id(&self) -> StreamId {
        self.stream
    }

    /// Submits `samples` for scoring without waiting for the reply.
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn submit(&self, samples: Vec<Sample>) -> Result<ScoreTicket> {
        self.submit_traced(samples, None)
    }

    /// [`ScoringClient::submit`] with an explicit upstream trace
    /// context: while tracing is enabled, the request span (and its
    /// batcher phase spans) become children of `parent` — this is how
    /// a remote `NodeClient` span ends up the ancestor of the replica
    /// batcher's spans. `None` roots a fresh trace at this request.
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn submit_traced(
        &self,
        samples: Vec<Sample>,
        parent: Option<TraceContext>,
    ) -> Result<ScoreTicket> {
        let (request, ticket) = self.make_request_traced(samples, false, parent);
        self.tx.send(Request::Score(request)).map_err(|_| service_gone())?;
        Ok(ticket)
    }

    /// Submits `samples` as a **droppable** request without ever
    /// blocking: if the bounded request queue is full the request is
    /// shed right here with [`ShedCause::QueueFull`], and the batcher
    /// may later shed it with [`ShedCause::Backlog`] (surfaced through
    /// [`ScoreTicket::wait_outcome`]) if its pending-samples bound is
    /// reached. This is the open-loop producer's submit path: overload
    /// turns into typed sheds, not unbounded buffering.
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn try_submit(&self, samples: Vec<Sample>) -> Result<SubmitOutcome> {
        self.try_submit_traced(samples, None)
    }

    /// [`ScoringClient::try_submit`] with an explicit upstream trace
    /// context (see [`ScoringClient::submit_traced`]).
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn try_submit_traced(
        &self,
        samples: Vec<Sample>,
        parent: Option<TraceContext>,
    ) -> Result<SubmitOutcome> {
        let (request, ticket) = self.make_request_traced(samples, true, parent);
        match self.tx.try_send(Request::Score(request)) {
            Ok(()) => Ok(SubmitOutcome::Enqueued(ticket)),
            Err(TrySendError::Full(_)) => {
                self.stats.shed_queue_full.fetch_add(1, Ordering::SeqCst);
                Ok(SubmitOutcome::Shed(ShedCause::QueueFull))
            }
            Err(TrySendError::Disconnected(_)) => Err(service_gone()),
        }
    }

    fn make_request_traced(
        &self,
        samples: Vec<Sample>,
        droppable: bool,
        parent: Option<TraceContext>,
    ) -> (ScoreRequest, ScoreTicket) {
        let trace = sdc_obs::trace_enabled().then(|| RequestTrace {
            ctx: TraceContext {
                trace: parent.map_or_else(sdc_obs::new_trace_id, |c| c.trace),
                parent: sdc_obs::new_span_id(),
            },
            parent: parent.map(|c| c.parent),
            arrived_nanos: sdc_obs::now_nanos(),
            dequeued_nanos: 0,
        });
        let (rtx, rrx) = bounded(1);
        let request = ScoreRequest {
            stream: self.stream,
            seq: 0, // assigned by the batcher on receipt
            arrived: Instant::now(),
            samples,
            droppable,
            trace,
            reply: rtx,
        };
        (request, ScoreTicket { rx: rrx })
    }

    /// Scores `samples` through the service, blocking until the
    /// coalesced batch containing them has run.
    ///
    /// With at most one in-flight request per client (which this
    /// blocking call guarantees), batch composition follows the
    /// deterministic round/size flush conditions.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors and service termination.
    pub fn score(&self, samples: Vec<Sample>) -> Result<Vec<f32>> {
        self.submit(samples)?.wait()
    }
}

impl Drop for ScoringClient {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Deregister(self.stream));
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
    tx: Option<Sender<Request>>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<StatsInner>,
}

impl ScoringService {
    /// Starts the service around a model snapshot. The batcher thread
    /// runs until the handle is dropped.
    pub fn start(model: ContrastiveModel, config: ServeConfig) -> Self {
        let (tx, rx) = bounded::<Request>(config.queue_depth.max(1));
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

    /// Creates (and registers) a client for `stream`. Round flushes
    /// wait for every registered stream, so create one client per
    /// actively submitting stream and drop it when the stream ends.
    pub fn client(&self, stream: StreamId) -> ScoringClient {
        let tx = self.tx.as_ref().expect("sender lives until drop").clone();
        let _ = tx.send(Request::Register(stream));
        ScoringClient { stream, tx, stats: Arc::clone(&self.stats) }
    }

    /// Publishes a fresh model snapshot; batches cut after this call
    /// score with the new parameters.
    pub fn swap_model(&self, model: ContrastiveModel) {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let _ = tx.send(Request::SwapModel(Box::new(model)));
    }

    /// Quiesces the batcher: blocks until every message submitted
    /// before this call — model swaps, registrations, score requests —
    /// has been processed. Checkpointing calls this at a round
    /// boundary so the captured model/shard state is the state the
    /// batcher will score the *next* round with, with nothing
    /// in flight.
    ///
    /// # Errors
    ///
    /// Reports the service having terminated.
    pub fn quiesce(&self) -> Result<()> {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let (rtx, rrx) = bounded(1);
        tx.send(Request::Sync(rtx)).map_err(|_| service_gone())?;
        rrx.recv().map_err(|_| service_gone())
    }

    /// A **live** snapshot of the service's counters and latency
    /// summaries: a lock-free read of the batcher's atomics, safe to
    /// call from any thread at any time — it never quiesces, blocks,
    /// or perturbs in-flight batching. This is how per-round tables
    /// and dashboards read a running service.
    pub fn stats_snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.stats.requests.load(Ordering::SeqCst),
            samples: self.stats.samples.load(Ordering::SeqCst),
            batches: self.stats.batches.load(Ordering::SeqCst),
            size_flushes: self.stats.size_flushes.load(Ordering::SeqCst),
            round_flushes: self.stats.round_flushes.load(Ordering::SeqCst),
            deadline_flushes: self.stats.deadline_flushes.load(Ordering::SeqCst),
            dropped_replies: self.stats.dropped_replies.load(Ordering::SeqCst),
            shed_backlog: self.stats.shed_backlog.load(Ordering::SeqCst),
            shed_queue_full: self.stats.shed_queue_full.load(Ordering::SeqCst),
            latency: self.stats.latency.summary(),
            deadline_lag: self.stats.deadline_lag.summary(),
            per_stream: self
                .stats
                .per_stream
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(&stream, h)| StreamLatency { stream, latency: h.summary() })
                .collect(),
        }
    }

    /// A snapshot of the service's counters (alias of
    /// [`ScoringService::stats_snapshot`], kept for existing callers).
    pub fn stats(&self) -> ServeStats {
        self.stats_snapshot()
    }

    /// A full (bucket-level) snapshot of the request-latency histogram.
    /// Two snapshots bracketing an interval yield that interval's
    /// percentiles via [`HistogramSnapshot::delta`] — the open-loop
    /// harness computes its per-round p50/p90/p99/p999 this way.
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.stats.latency.snapshot()
    }

    /// A full (bucket-level) snapshot of the deadline-overshoot
    /// histogram (see [`ServeStats::deadline_lag`]).
    pub fn deadline_lag_histogram(&self) -> HistogramSnapshot {
        self.stats.deadline_lag.snapshot()
    }
}

impl Drop for ScoringService {
    fn drop(&mut self) {
        // An explicit message (not queue disconnection — clients hold
        // `Sender` clones) tells the batcher to flush and exit; then
        // reap the thread.
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
    model: ContrastiveModel,
    config: ServeConfig,
    stats: Arc<StatsInner>,
    live: BTreeSet<StreamId>,
    pending: Vec<ScoreRequest>,
    next_seq: u64,
    /// Batcher-local cache of the shared per-stream histogram handles
    /// (only the batcher inserts into `StatsInner::per_stream`, so
    /// after a stream's first reply every later record is lock-free).
    stream_hists: BTreeMap<StreamId, Arc<LatencyHistogram>>,
}

impl Batcher {
    fn new(model: ContrastiveModel, config: ServeConfig, stats: Arc<StatsInner>) -> Self {
        Self {
            model,
            config,
            stats,
            live: BTreeSet::new(),
            pending: Vec::new(),
            next_seq: 0,
            stream_hists: BTreeMap::new(),
        }
    }

    fn run(mut self, rx: Receiver<Request>) {
        loop {
            let message = if self.pending.is_empty() {
                match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                }
            } else {
                let deadline = self.oldest_arrival().expect("pending implies an arrival")
                    + self.config.flush_deadline;
                match deadline.checked_duration_since(Instant::now()) {
                    None => None, // deadline already passed
                    Some(remaining) => match rx.recv_timeout(remaining) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            // Final flush: answer what is queued, then exit.
                            self.flush_all(FlushReason::Deadline);
                            return;
                        }
                    },
                }
            };
            match message {
                Some(Request::Score(mut request)) => {
                    if let Some(t) = &mut request.trace {
                        t.dequeued_nanos = sdc_obs::now_nanos();
                    }
                    if request.samples.is_empty() {
                        // Nothing to batch; answer immediately so empty
                        // requests cannot stall a round.
                        self.stats.requests.fetch_add(1, Ordering::SeqCst);
                        self.reply(&request, Ok(Vec::new()));
                        continue;
                    }
                    // Admission control: a droppable request that would
                    // push pending work past `max_pending` samples is
                    // answered with a typed shed instead of queued —
                    // backlog stays bounded no matter how fast an
                    // open-loop producer submits.
                    if request.droppable && self.backlog_exceeded(&request) {
                        self.stats.shed_backlog.fetch_add(1, Ordering::SeqCst);
                        self.send_reply(&request, Ok(ScoreOutcome::Shed(ShedCause::Backlog)));
                        continue;
                    }
                    request.seq = self.next_seq;
                    self.next_seq += 1;
                    self.pending.push(request);
                    self.flush_ready();
                }
                Some(Request::Register(id)) => {
                    self.live.insert(id);
                }
                Some(Request::Deregister(id)) => {
                    self.live.remove(&id);
                    // A shrunken stream set may complete the round.
                    self.flush_ready();
                }
                Some(Request::SwapModel(model)) => {
                    self.model = *model;
                }
                Some(Request::Sync(reply)) => {
                    // The queue is FIFO, so everything sent before this
                    // barrier — swaps, registrations, scores — has been
                    // processed. The reply is the caller's proof.
                    let _ = reply.send(());
                }
                Some(Request::Shutdown) => break,
                None => {
                    // A genuine deadline flush (not a shutdown drain):
                    // record how far past the configured deadline it
                    // actually fired — the liveness overshoot.
                    if sdc_obs::enabled() {
                        if let Some(oldest) = self.oldest_arrival() {
                            let target = oldest + self.config.flush_deadline;
                            let lag = Instant::now().saturating_duration_since(target);
                            self.stats.deadline_lag.record_duration(lag);
                        }
                    }
                    self.flush_all(FlushReason::Deadline);
                }
            }
        }
        self.flush_all(FlushReason::Deadline);
    }

    /// Cuts batches while a count-derived flush condition holds.
    fn flush_ready(&mut self) {
        loop {
            let pending_samples: usize = self.pending.iter().map(|r| r.samples.len()).sum();
            if pending_samples >= self.config.max_batch && !self.pending.is_empty() {
                self.flush_one(FlushReason::Size);
            } else if !self.pending.is_empty() && self.round_complete() {
                self.flush_one(FlushReason::Round);
            } else {
                break;
            }
        }
    }

    /// Submission time of the oldest still-pending request — the
    /// deadline anchor. Derived (never cached) so a split flush that
    /// serves the oldest request cannot leave a stale anchor behind
    /// and turn count-derived composition wall-clock dependent.
    fn oldest_arrival(&self) -> Option<Instant> {
        self.pending.iter().map(|r| r.arrived).min()
    }

    /// Whether every live stream has at least one pending request
    /// (vacuously true when no stream is registered — then there is
    /// nobody to wait for).
    fn round_complete(&self) -> bool {
        self.live.iter().all(|id| self.pending.iter().any(|r| r.stream == *id))
    }

    /// Flushes everything queued, in `max_batch`-sized waves.
    fn flush_all(&mut self, reason: FlushReason) {
        while !self.pending.is_empty() {
            self.flush_one(reason);
        }
    }

    /// Cuts one batch: orders pending requests by (stream id, arrival),
    /// takes whole requests up to `max_batch` samples (always at least
    /// one), scores them as a single coalesced batch, and routes each
    /// request's score slice back.
    fn flush_one(&mut self, reason: FlushReason) {
        self.pending.sort_by_key(|r| (r.stream, r.seq));
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
        let reason_counter = match reason {
            FlushReason::Size => &self.stats.size_flushes,
            FlushReason::Round => &self.stats.round_flushes,
            FlushReason::Deadline => &self.stats.deadline_flushes,
        };
        reason_counter.fetch_add(1, Ordering::SeqCst);

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
        let pending_samples: usize = self.pending.iter().map(|r| r.samples.len()).sum();
        pending_samples + request.samples.len() > self.config.max_pending
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
        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.samples, 6);
    }

    #[test]
    fn empty_requests_answer_immediately() {
        let service = ScoringService::start(tiny_model(1), ServeConfig::default());
        let client = service.client(0);
        assert_eq!(client.score(Vec::new()).unwrap(), Vec::<f32>::new());
        let stats = service.stats();
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

    /// Droppable requests past the pending-samples bound get a typed
    /// `Backlog` shed, deterministically: the batcher is pinned (a
    /// silent registered stream blocks round flushes, `max_batch` and
    /// the deadline are out of reach), so admission depends only on
    /// the FIFO arrival order — 2 admitted, 3 shed, every run.
    #[test]
    fn droppable_requests_past_the_backlog_bound_are_shed() {
        let service = ScoringService::start(
            tiny_model(1),
            ServeConfig {
                max_batch: 1000,
                flush_deadline: Duration::from_secs(600),
                max_pending: 2,
                ..ServeConfig::default()
            },
        );
        let silent = service.client(0);
        let client = service.client(1);

        let mut tickets = Vec::new();
        for i in 0..5u64 {
            match client.try_submit(samples(1, 10 + i)).unwrap() {
                SubmitOutcome::Enqueued(t) => tickets.push(t),
                SubmitOutcome::Shed(cause) => panic!("queue cannot fill here: {cause:?}"),
            }
        }
        // Sheds reply immediately; admitted requests stay pending until
        // the silent stream goes away and the round completes.
        let (admitted, shed): (Vec<_>, Vec<_>) =
            tickets.into_iter().enumerate().partition(|(i, _)| *i < 2);
        for (_, ticket) in shed {
            assert_eq!(
                ticket.wait_outcome().unwrap(),
                ScoreOutcome::Shed(ShedCause::Backlog),
                "requests 2..5 must be shed by the backlog bound"
            );
        }
        drop(silent);
        for (_, ticket) in admitted {
            match ticket.wait_outcome().unwrap() {
                ScoreOutcome::Scored(scores) => assert_eq!(scores.len(), 1),
                ScoreOutcome::Shed(cause) => panic!("admitted request shed: {cause:?}"),
            }
        }
        let stats = service.stats_snapshot();
        assert_eq!(stats.shed_backlog, 3, "{stats:?}");
        assert_eq!(stats.requests, 2, "sheds are not answered requests: {stats:?}");
        assert_eq!(stats.samples, 2, "{stats:?}");
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
        assert_eq!(stats.composition(), stats.composition());
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
                .map(|(i, c)| c.submit(samples(1 + i, 30 + round * 10 + i as u64)).unwrap())
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
        let json = stats.per_stream_json();
        assert!(json.contains("\"3\": {\"count\": 2"), "{json}");
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
        client.submit_traced(samples(2, 50), Some(ctx)).unwrap().wait().unwrap();
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
