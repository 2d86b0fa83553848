//! Serving many streams through one coalescing scorer.
//!
//! Part 1 drives N concurrent scoring streams against one
//! [`ScoringService`] and reports throughput plus coalescing stats;
//! part 2 runs the full multi-stream *training* loop: N temporally
//! correlated streams, one shared model, per-stream buffer shards.
//!
//! Run: `cargo run --release --example multi_stream_serve [-- <streams>]`
//! (default 4 streams).

use std::time::Instant;

use sdc::core::model::ModelConfig;
use sdc::core::{ContrastScoringPolicy, ContrastiveModel, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::StreamId;
use sdc::nn::models::EncoderConfig;
use sdc::serve::{MultiStreamTrainer, ScoringService, ServeConfig};

const REQUESTS_PER_STREAM: usize = 16;
const SEGMENT: usize = 8;

fn stream(seed: u64) -> TemporalStream {
    let ds = SynthDataset::new(SynthConfig {
        classes: 4,
        height: 8,
        width: 8,
        ..SynthConfig::default()
    });
    TemporalStream::new(ds, 8, seed)
}

fn model_config() -> ModelConfig {
    ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 16,
        projection_dim: 8,
        seed: 7,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let streams: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    assert!(streams >= 1, "need at least one stream");

    // ---- Part 1: scoring-only throughput through the coalescer. ----
    let service =
        ScoringService::start(ContrastiveModel::new(&model_config()), ServeConfig::default());
    let clients: Vec<_> = (0..streams).map(|id| service.client(id as StreamId)).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (id, client) in clients.iter().enumerate() {
            scope.spawn(move || {
                let mut source = stream(id as u64);
                for _ in 0..REQUESTS_PER_STREAM {
                    let segment = source.next_segment(SEGMENT).expect("synthesis");
                    client.score(segment).expect("scoring");
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let stats = service.stats_snapshot();
    let total_requests = streams * REQUESTS_PER_STREAM;
    println!("scoring {streams} streams x {REQUESTS_PER_STREAM} requests x {SEGMENT} samples:");
    println!(
        "  {:.1} requests/s ({:.1} samples/s) in {:.2?}",
        total_requests as f64 / elapsed.as_secs_f64(),
        stats.samples as f64 / elapsed.as_secs_f64(),
        elapsed,
    );
    println!(
        "  {} batches (mean {:.1} samples/batch; {} cut at max_batch)",
        stats.batches,
        stats.mean_batch_samples(),
        stats.size_flushes,
    );
    println!(
        "  request latency: p50 {:.1}us p90 {:.1}us p99 {:.1}us p999 {:.1}us (n={})",
        stats.latency.p50 as f64 / 1_000.0,
        stats.latency.p90 as f64 / 1_000.0,
        stats.latency.p99 as f64 / 1_000.0,
        stats.latency.p999 as f64 / 1_000.0,
        stats.latency.count,
    );
    drop(clients);
    drop(service);

    // ---- Part 2: the full loop — train one model on all streams. ----
    let config = TrainerConfig {
        buffer_size: SEGMENT,
        model: model_config(),
        seed: 7,
        ..TrainerConfig::default()
    };
    let mut driver =
        MultiStreamTrainer::new(config, ContrastScoringPolicy::new(), ServeConfig::default());
    let mut sources: Vec<TemporalStream> = (0..streams).map(|i| stream(100 + i as u64)).collect();
    println!("\ntraining one shared model against {streams} buffer shards:");
    println!(
        "  {:>5} {:>9} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "round", "loss", "requests", "batches", "p50_us", "p90_us", "p99_us", "p999_us"
    );
    let mut last_hist = driver.service().latency_histogram();
    for round in 0..6 {
        let segments: Vec<(StreamId, Vec<_>)> = sources
            .iter_mut()
            .enumerate()
            .map(|(i, s)| Ok((i as StreamId, s.next_segment(SEGMENT)?)))
            .collect::<Result<_, sdc::tensor::TensorError>>()?;
        let reports = driver.run_round(segments)?;
        let mean_loss: f32 =
            reports.iter().map(|r| r.loss).sum::<f32>() / reports.len().max(1) as f32;
        // A live (non-quiescing) snapshot plus a histogram delta
        // bracketing exactly this round's requests.
        let stats = driver.serve_stats();
        let hist = driver.service().latency_histogram();
        let round_latency = hist.delta(&last_hist).summary();
        last_hist = hist;
        let us = |nanos: u64| nanos as f64 / 1_000.0;
        println!(
            "  {round:>5} {mean_loss:>9.3} {:>8} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            stats.requests,
            stats.batches,
            us(round_latency.p50),
            us(round_latency.p90),
            us(round_latency.p99),
            us(round_latency.p999),
        );
    }
    let stats = driver.serve_stats();
    println!(
        "  serve stats: {} requests coalesced into {} batches (mean {:.1} samples/batch)",
        stats.requests,
        stats.batches,
        stats.mean_batch_samples(),
    );
    println!(
        "  shards hold {} samples total across {} streams",
        driver.shards().total_len(),
        driver.shards().shard_count(),
    );
    Ok(())
}
