//! # sdc-obs
//!
//! The observability layer of the *Selective Data Contrast* stack: a
//! dependency-free metrics registry ([`Counter`], [`LatencyHistogram`]),
//! a zero-cost-when-disabled scope timer ([`ScopeTimer`] /
//! [`scope!`]), a `MetricsSnapshot → JSON` exporter,
//! a request-scoped span tracer with a Chrome-trace exporter
//! ([`Span`], [`TraceCollector`], [`chrome_trace_json`] — gated by
//! `SDC_TRACE` / [`set_trace_enabled`]), and the seeded arrival
//! schedules behind the open-loop load driver ([`ArrivalProcess`]).
//!
//! ## Strictly observe-only
//!
//! Nothing in this crate influences what the instrumented code
//! computes: metrics are plain atomic counters updated with `Relaxed`
//! ordering, and the scope timer only reads the clock. The stack's
//! bit-identical-at-any-`SDC_THREADS` contract therefore holds with
//! instrumentation enabled or disabled (enforced by
//! `crates/serve/tests/observe_only.rs`).
//!
//! ## Cost model
//!
//! Recording is cheap enough to leave on in release builds: a handful
//! of relaxed atomic RMWs per event, no locks, no allocation after a
//! metric is interned. That is cheap only against coarse events, so
//! the stack records at dispatch granularity or coarser — never per
//! pool chunk, which can take under a microsecond. When recording is
//! disabled (`SDC_OBS=0` or [`set_enabled`]`(false)`) every record path
//! short-circuits on one relaxed load, and [`ScopeTimer::start`] skips
//! reading the clock entirely — a disabled scope costs one branch.
//!
//! ```
//! sdc_obs::set_enabled(true);
//! {
//!     let _t = sdc_obs::scope!("docs.example");
//!     std::hint::black_box(2 + 2);
//! }
//! let snapshot = sdc_obs::global().snapshot();
//! assert!(snapshot.histograms["docs.example"].count >= 1);
//! ```
//!
//! ## Metric namespaces
//!
//! Metric names are dot-separated, prefixed by the emitting subsystem.
//! Families currently emitted across the workspace:
//!
//! * `node.*` — the networked serving node (`sdc-node`):
//!   `node.accept`, `node.frame.rx` / `node.frame.tx` /
//!   `node.frame.rejected` for the TCP front-end,
//!   `node.replica.clients` for scoring clients created through a
//!   `ReplicaSet`, and `node.ship.full` / `node.ship.delta` /
//!   `node.ship.sections_reused` for hot-standby snapshot shipping.
//! * `node.stats.*` — the network metrics scrape endpoint:
//!   `node.stats.requests` counts `Stats` requests answered over the
//!   wire, `node.stats.bytes` the JSON bytes served.
//! * `persist.*` — checkpointing: scope timers `persist.capture` and
//!   `persist.restore` around a node snapshot's state capture and
//!   restore, `persist.write` around a snapshot file's atomic write
//!   and `persist.parse` around parsing and verifying a container.
//! * `obs.trace.*` — the span collector itself ([`trace_collector`]):
//!   `obs.trace.spans` counts spans pushed into the ring,
//!   `obs.trace.overwritten` spans lost to ring wrap-around. (The
//!   collector also keeps its own ungated totals — these registry
//!   counters exist so a metrics scrape sees tracing health.)
//! * `runtime.*` — the worker pool (`sdc-runtime`), recorded per
//!   dispatch, never per chunk: counters `runtime.jobs` /
//!   `runtime.chunks` (parallel dispatches and the chunks they split
//!   into) and `runtime.serial_jobs` (dispatches run inline: one
//!   thread or one chunk); histograms `runtime.dispatch` (wall time of
//!   a parallel dispatch), `runtime.queue_wait` (enqueue → first chunk
//!   claim) and `runtime.busy` (one observation per thread that ran
//!   chunks of a dispatch, first claim → job ran dry; its count ÷
//!   `runtime.jobs` is the mean number of participating threads).
//! * `tensor.*` — the autodiff/GEMM stack (`sdc-tensor`): scope timers
//!   `tensor.gemm`, `tensor.gemm.pack_b`, `tensor.gemm.kernel` around
//!   the blocked kernel (one `tensor.gemm` per GEMM call, including the
//!   per-sample products of conv2d's input gradient, which run
//!   concurrently on pool threads, so its sum can exceed wall time), and
//!   `tensor.backward.{sweep,level}` around the level-scheduled backward
//!   sweep.
//!
//! The scoring service keeps its request, batch and shed counters and
//! its latency histograms per instance, in `sdc_serve::ServeStats`,
//! not in this registry.

#![deny(missing_docs)]

mod arrivals;
mod hist;
mod registry;
mod scope;
mod trace;

pub use arrivals::{ArrivalProcess, SplitMix64};
pub use hist::{HistogramSnapshot, LatencyHistogram, LatencySummary};
pub use registry::{global, Counter, MetricsSnapshot, Registry};
pub use scope::ScopeTimer;
pub use trace::{
    chrome_trace_json, new_span_id, new_trace_id, now_nanos, record_span, set_trace_enabled,
    thread_tag, trace_collector, trace_enabled, Span, SpanId, SpanRecord, TraceCollector,
    TraceContext, TraceId, DEFAULT_TRACE_CAPACITY, TRACE_ENABLED_ENV,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Environment variable controlling whether metrics record at startup.
/// `0`, `false`, or `off` disable recording; anything else (including
/// the variable being unset) leaves it enabled.
pub const ENABLED_ENV: &str = "SDC_OBS";

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = match std::env::var(ENABLED_ENV) {
            Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "false" | "off"),
            Err(_) => true,
        };
        AtomicBool::new(on)
    })
}

/// Whether metric recording is currently enabled (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide. Metrics stay
/// registered either way; only recording is gated.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}
