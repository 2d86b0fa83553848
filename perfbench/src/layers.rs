//! The per-layer metrics of a traced run.
//!
//! Every traced run reports every metric below. A layer the workload does
//! not exercise reads 0 (the `serve.*` window stats on `train_step`, the
//! generator lag of the closed loops); layers measured by a standalone
//! probe (the step decomposition outside `train_step`, the scoring-shape
//! and idle round-trip probes) are measured on every workload.

use sdc::obs::HistogramSnapshot;
use sdc::serve::{ScoringService, ServeStats};
use sdc_perfbench::result::Outcome;
use sdc_perfbench::stats::{median, ratio};

use crate::common::{Counters, StepParts};

/// One reading of a scoring replica's counters and histograms.
#[derive(Debug, Clone)]
pub struct ServeWindow {
    stats: ServeStats,
    latency: HistogramSnapshot,
    lag: HistogramSnapshot,
}

impl ServeWindow {
    /// Reads `service` without quiescing it.
    pub fn read(service: &ScoringService) -> Self {
        Self {
            stats: service.stats_snapshot(),
            latency: service.latency_histogram(),
            lag: service.deadline_lag_histogram(),
        }
    }
}

/// Per-layer values, each in the unit its metric reports.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub replace_ms: f64,
    pub score_ms: f64,
    pub select_ms: f64,
    pub update_ms: f64,
    pub forward_ms: f64,
    pub backward_ms: f64,
    pub update_rest_ms: f64,
    pub unattributed_frac: f64,
    pub jobs_per_op: f64,
    pub chunks_per_op: f64,
    pub gemm_ms_per_op: f64,
    pub pack_hit_rate: f64,
    pub obs_overhead_frac: f64,
    pub score_us_b8: f64,
    pub score_us_b64: f64,
    pub batches_per_op: f64,
    pub batch_samples_mean: f64,
    pub flush_size_share: f64,
    pub flush_round_share: f64,
    pub flush_deadline_share: f64,
    pub queue_ms_p50: f64,
    pub deadline_lag_ms_p50: f64,
    pub shed: f64,
    pub publish_ms: f64,
    pub node_rtt_ms_idle: f64,
    pub serve_rtt_ms_idle: f64,
    pub core_score_ms_idle: f64,
    pub node_wire_ms: f64,
    pub serve_handoff_ms: f64,
    pub frame_rx: f64,
    pub frame_tx: f64,
    pub frame_rejected: f64,
    pub loadgen_lag_ms_max: f64,
    pub trace_overhead_frac: f64,
    pub trace_overwritten: f64,
}

impl Layers {
    /// Fills the step decomposition from composed steps: the median of
    /// each part, with select = replace − score, the update remainder =
    /// update − forward − backward, and the unattributed share of the
    /// whole step.
    pub fn set_steps(&mut self, steps: &[StepParts]) {
        let med = |f: &dyn Fn(&StepParts) -> f64| {
            median(&steps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        self.replace_ms = med(&|s| s.replace);
        self.score_ms = med(&|s| s.score);
        self.select_ms = med(&|s| s.replace - s.score);
        self.update_ms = med(&|s| s.update);
        self.forward_ms = med(&|s| s.forward);
        self.backward_ms = med(&|s| s.backward);
        self.update_rest_ms = med(&|s| s.update - s.forward - s.backward);
        self.unattributed_frac = med(&|s| ratio(s.total - s.replace - s.update, s.total));
    }

    /// Fills the runtime and tensor counts from a registry delta over
    /// `ops` operations.
    pub fn set_counts(&mut self, delta: &Counters, ops: usize) {
        let ops = ops as f64;
        self.jobs_per_op = ratio(delta.jobs as f64, ops);
        self.chunks_per_op = ratio(delta.chunks as f64, ops);
        self.gemm_ms_per_op = ratio(delta.gemm_ns as f64 / 1e6, ops);
        self.pack_hit_rate =
            ratio(delta.pack_hit as f64, (delta.pack_hit + delta.pack_miss) as f64);
        self.frame_rx = delta.frame_rx as f64;
        self.frame_tx = delta.frame_tx as f64;
        self.frame_rejected = delta.frame_rejected as f64;
    }

    /// Fills the `serve.*` window stats from two readings of one scoring
    /// replica bracketing `ops` operations.
    pub fn set_serve(&mut self, before: &ServeWindow, after: &ServeWindow, ops: usize) {
        let (a, b) = (&after.stats, &before.stats);
        let batches = (a.batches - b.batches) as f64;
        self.batches_per_op = ratio(batches, ops as f64);
        self.batch_samples_mean = ratio((a.samples - b.samples) as f64, batches);
        self.flush_size_share = ratio((a.size_flushes - b.size_flushes) as f64, batches);
        self.flush_round_share = ratio((a.round_flushes - b.round_flushes) as f64, batches);
        self.flush_deadline_share =
            ratio((a.deadline_flushes - b.deadline_flushes) as f64, batches);
        self.queue_ms_p50 = after.latency.delta(&before.latency).percentile(0.5) as f64 / 1e6;
        self.deadline_lag_ms_p50 = after.lag.delta(&before.lag).percentile(0.5) as f64 / 1e6;
        self.shed =
            ((a.shed_backlog + a.shed_queue_full) - (b.shed_backlog + b.shed_queue_full)) as f64;
    }

    /// Appends every per-layer metric, in a fixed order, to `out`.
    pub fn push_into(&self, out: &mut Outcome) {
        out.push("core.replace_ms", "ms", self.replace_ms);
        out.push("core.score_ms", "ms", self.score_ms);
        out.push("core.select_ms", "ms", self.select_ms);
        out.push("core.update_ms", "ms", self.update_ms);
        out.push("tensor.forward_ms", "ms", self.forward_ms);
        out.push("tensor.backward_ms", "ms", self.backward_ms);
        out.push("core.update_rest_ms", "ms", self.update_rest_ms);
        out.push("step.unattributed_frac", "frac", self.unattributed_frac);
        out.push("runtime.jobs_per_step", "count", self.jobs_per_op);
        out.push("runtime.chunks_per_step", "count", self.chunks_per_op);
        out.push("tensor.gemm_ms_per_step", "ms", self.gemm_ms_per_op);
        out.push("tensor.pack_cache.hit_rate", "frac", self.pack_hit_rate);
        out.push("obs.overhead_frac", "frac", self.obs_overhead_frac);
        out.push("core.score_us_per_sample.b8", "us", self.score_us_b8);
        out.push("core.score_us_per_sample.b64", "us", self.score_us_b64);
        out.push("serve.batches_per_op", "count", self.batches_per_op);
        out.push("serve.batch_samples_mean", "count", self.batch_samples_mean);
        out.push("serve.flush.size_share", "frac", self.flush_size_share);
        out.push("serve.flush.round_share", "frac", self.flush_round_share);
        out.push("serve.flush.deadline_share", "frac", self.flush_deadline_share);
        out.push("serve.queue_ms_p50", "ms", self.queue_ms_p50);
        out.push("serve.deadline_lag_ms_p50", "ms", self.deadline_lag_ms_p50);
        out.push("serve.shed", "count", self.shed);
        out.push("serve.publish_ms", "ms", self.publish_ms);
        out.push("node.rtt_ms_idle", "ms", self.node_rtt_ms_idle);
        out.push("serve.rtt_ms_idle", "ms", self.serve_rtt_ms_idle);
        out.push("core.score_ms_idle", "ms", self.core_score_ms_idle);
        out.push("node.wire_ms", "ms", self.node_wire_ms);
        out.push("serve.handoff_ms", "ms", self.serve_handoff_ms);
        out.push("node.frame.rx", "count", self.frame_rx);
        out.push("node.frame.tx", "count", self.frame_tx);
        out.push("node.frame.rejected", "count", self.frame_rejected);
        out.push("loadgen.lag_ms_max", "ms", self.loadgen_lag_ms_max);
        out.push("bench.trace_overhead_frac", "frac", self.trace_overhead_frac);
        out.push("obs.trace.overwritten", "count", self.trace_overwritten);
    }
}
