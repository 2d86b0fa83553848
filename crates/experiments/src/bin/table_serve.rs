//! Serving-layer throughput table: scoring requests/sec and coalesced
//! batch shape as the number of concurrent streams grows, against one
//! shared-model [`sdc::serve::ScoringService`].
//!
//! This is the experiment behind the serve layer's existence: batch
//! size is nearly free on the runtime's worker pool, so coalescing N
//! streams' requests into one batch amortizes per-forward overhead and
//! throughput should grow with stream count until the host's cores
//! saturate.
//!
//! Run: `cargo run -p sdc-experiments --release --bin table_serve [-- --scale default]`

use std::time::Instant;

use sdc::core::model::ModelConfig;
use sdc::core::ContrastiveModel;
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::StreamId;
use sdc::nn::models::EncoderConfig;
use sdc::serve::{ScoringService, ServeConfig};
use sdc_experiments::{parse_args, print_table, ExperimentScale};

fn stream(seed: u64) -> TemporalStream {
    let ds = SynthDataset::new(SynthConfig {
        classes: 4,
        height: 8,
        width: 8,
        ..SynthConfig::default()
    });
    TemporalStream::new(ds, 8, seed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (scale, _) = parse_args();
    println!("table_serve: scale={}", scale.name());
    let (requests_per_stream, segment) = match scale {
        ExperimentScale::Smoke => (4usize, 4usize),
        ExperimentScale::Default => (24, 8),
        ExperimentScale::Full => (96, 16),
    };
    let model_config = ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 16,
        projection_dim: 8,
        seed: 3,
    };

    let mut rows = Vec::new();
    let mut baseline = None;
    for &streams in &[1usize, 2, 4, 8] {
        let service =
            ScoringService::start(ContrastiveModel::new(&model_config), ServeConfig::default());
        let clients: Vec<_> = (0..streams).map(|id| service.client(id as StreamId)).collect();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (id, client) in clients.iter().enumerate() {
                scope.spawn(move || {
                    let mut source = stream(id as u64);
                    for _ in 0..requests_per_stream {
                        let seg = source.next_segment(segment).expect("synthesis");
                        client.score(seg).expect("scoring");
                    }
                });
            }
        });
        let elapsed = started.elapsed().as_secs_f64();
        let stats = service.stats_snapshot();
        let rps = (streams * requests_per_stream) as f64 / elapsed;
        let baseline_rps = *baseline.get_or_insert(rps);
        rows.push(vec![
            streams.to_string(),
            stats.requests.to_string(),
            stats.batches.to_string(),
            format!("{:.1}", stats.mean_batch_samples()),
            format!("{rps:.1}"),
            format!("{:.2}x", rps / baseline_rps),
        ]);
        println!("streams {streams}: done");
    }

    print_table(
        "Serving throughput vs. concurrent stream count",
        &["Streams", "Requests", "Batches", "Samples/Batch", "Requests/s", "Speedup"],
        &rows,
    );
    println!(
        "\nhost parallelism: {} (coalescing gains require multi-core hosts;\n\
         on 1 core the win is per-forward overhead amortization only)",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    Ok(())
}
