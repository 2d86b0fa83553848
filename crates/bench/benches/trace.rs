//! Tracing overhead: the served scoring path with the span collector
//! off vs on.
//!
//! The tracer's contract is *bounded* overhead — a traced request adds
//! a handful of clock reads, id draws, and ring-slot writes, never a
//! second code path. This bench measures the submit → reply round trip
//! through a [`ScoringService`] with `SDC_TRACE` disabled
//! (`trace_overhead/off`) and enabled (`trace_overhead/on`), plus the
//! raw per-span recording cost (`trace_record/span`), and emits them in
//! the common `BENCH_*.json` format so the `bench_gate` machinery can
//! hold both the baseline path and the enabled-tracing path to the
//! checked-in numbers (family `trace`).
//!
//! `SDC_BENCH_SMOKE=1` shrinks the run for CI.

use std::io::Write;
use std::time::Instant;

use sdc_core::model::ModelConfig;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_serve::{ScoringService, ServeConfig};
use sdc_tensor::Tensor;

/// Small model: the interesting cost is per-request bookkeeping, not
/// encoder FLOPs — tracing overhead would drown under a big forward.
fn trace_model() -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 16,
        projection_dim: 8,
        seed: 7,
    })
}

fn payload(i: u64) -> Vec<Sample> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i);
    (0..2).map(|j| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i * 2 + j)).collect()
}

/// Mean ns per submit → reply round trip with tracing `on`/off.
fn measure_roundtrip(trace_on: bool, iters: u64) -> u64 {
    sdc_obs::set_trace_enabled(trace_on);
    sdc_obs::trace_collector().clear();
    let service = ScoringService::start(trace_model(), ServeConfig::default());
    let client = service.client(0);
    for i in 0..5 {
        client.score(payload(i)).expect("warmup reply");
    }
    let start = Instant::now();
    for i in 0..iters {
        client.score(payload(100 + i)).expect("reply");
    }
    start.elapsed().as_nanos() as u64 / iters
}

/// Mean ns to open and drop one armed span (two clock reads, one id
/// draw, one ring-slot write).
fn measure_span_record(iters: u64) -> u64 {
    sdc_obs::set_trace_enabled(true);
    sdc_obs::trace_collector().clear();
    let start = Instant::now();
    for _ in 0..iters {
        let span = sdc_obs::Span::root("bench.trace.span");
        drop(span);
    }
    start.elapsed().as_nanos() as u64 / iters
}

fn main() {
    sdc_obs::set_enabled(true);
    let (roundtrips, span_iters) =
        if sdc_bench::smoke_mode() { (40, 20_000) } else { (300, 200_000) };

    let mut entries: Vec<(String, u64)> = Vec::new();
    for (id, trace_on) in [("trace_overhead/off", false), ("trace_overhead/on", true)] {
        let ns = measure_roundtrip(trace_on, roundtrips);
        println!("{id}: {ns} ns/roundtrip");
        entries.push((id.to_string(), ns));
    }
    let span_ns = measure_span_record(span_iters);
    println!("trace_record/span: {span_ns} ns/span");
    entries.push(("trace_record/span".to_string(), span_ns.max(1)));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, (id, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("    {{\"id\": \"{id}\", \"ns_per_iter\": {ns}.0}}{comma}\n"));
    }
    out.push_str("  ],\n  \"unit\": \"mean nanoseconds per operation\",\n");
    out.push_str(&sdc_bench::json_env_footer());
    match std::fs::File::create(path) {
        Ok(mut f) => {
            let _ = f.write_all(out.as_bytes());
            println!("wrote {path}");
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
