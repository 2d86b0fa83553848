//! Open-loop latency under Poisson, bursty, and self-similar arrivals.
//!
//! Drives a [`ScoringService`] with the seeded open-loop driver once
//! per arrival process and prints the whole-run latency percentiles and
//! the scored/shed counts. It exits non-zero unless the run's schedule
//! is `process.schedule(seed, requests)` and every scored request
//! matches direct scoring bitwise (CI runs this as a smoke test).
//!
//! A sweep over offered loads then runs the same driver against a
//! service with a small queue and backlog bound and prints the
//! shed-rate vs offered-load table — the saturation curve of the
//! service's admission control.
//!
//! Run: `cargo run --release --example open_loop_latency [-- <requests>]`
//! (default 72 requests per run).

use sdc::core::model::ModelConfig;
use sdc::core::score::contrast_scores_shared;
use sdc::core::ContrastiveModel;
use sdc::data::Sample;
use sdc::nn::models::EncoderConfig;
use sdc::obs::ArrivalProcess;
use sdc::serve::{
    run_open_loop, shed_rate_table, LoadConfig, ScoreOutcome, ScoringService, ServeConfig,
    ShedCause,
};
use sdc::tensor::Tensor;

fn model() -> ContrastiveModel {
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

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|v| v.to_bits()).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(72);

    let modes: [(&str, ArrivalProcess); 3] = [
        ("poisson", ArrivalProcess::Poisson { mean_gap_nanos: 150_000 }),
        (
            "bursty",
            ArrivalProcess::Bursty {
                calm_gap_nanos: 400_000,
                burst_gap_nanos: 15_000,
                enter_burst: 0.25,
                exit_burst: 0.15,
            },
        ),
        (
            "self-similar",
            ArrivalProcess::SelfSimilar {
                sources: 8,
                alpha: 1.5,
                on_gap_nanos: 60_000,
                min_on_nanos: 200_000,
                min_off_nanos: 400_000,
            },
        ),
    ];

    let reference = model();
    let us = |nanos: u64| nanos as f64 / 1_000.0;
    for (name, process) in modes {
        let config = LoadConfig { seed: 42, requests, streams: 4, process };
        let service = ScoringService::start(model(), ServeConfig::default());
        let run = run_open_loop(&service, &config, payload)?;
        let latency = service.stats_snapshot().latency;
        println!(
            "{name} arrivals: {} scored, {} shed (queue full), {} shed (backlog); \
             p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p999 {:.1} us",
            run.scored(),
            run.shed(ShedCause::QueueFull),
            run.shed(ShedCause::Backlog),
            us(latency.p50),
            us(latency.p90),
            us(latency.p99),
            us(latency.p999),
        );
        if run.schedule != process.schedule(config.seed, requests) {
            eprintln!("{name}: the schedule is not the seed's");
            std::process::exit(1);
        }
        for (i, outcome) in (0u64..).zip(&run.outcomes) {
            if let ScoreOutcome::Scored(scores) = outcome {
                if bits(scores) != bits(&contrast_scores_shared(&reference, &payload(i))?) {
                    eprintln!("{name}: request {i} differs from direct scoring (BIT DIVERGENCE)");
                    std::process::exit(1);
                }
            }
        }
        println!("  checked: the seed's schedule, scored requests bit-equal to direct scoring\n");
    }

    // The same driver against a small queue and backlog bound: the
    // service sheds at the full request queue and at the batcher's
    // pending-samples bound. Sweeping the mean gap maps out shed rate
    // vs offered load.
    println!("service-side admission, offered-load sweep:");
    let mut reports = Vec::new();
    for mean_gap_nanos in [400_000u64, 150_000, 60_000, 25_000] {
        let config = LoadConfig {
            seed: 42,
            requests,
            streams: 4,
            process: ArrivalProcess::Poisson { mean_gap_nanos },
        };
        let service = ScoringService::start(
            model(),
            ServeConfig { queue_depth: 8, max_pending: 64, ..ServeConfig::default() },
        );
        reports.push(run_open_loop(&service, &config, payload)?);
    }
    print!("{}", shed_rate_table(&reports));
    Ok(())
}
