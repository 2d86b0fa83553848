//! Open-loop latency under Poisson, bursty, and self-similar arrivals.
//!
//! Drives a [`ScoringService`] with the seeded open-loop load harness
//! twice per arrival process and prints the per-round latency
//! percentiles, admitted/shed counts, and the decision fingerprint.
//! The harness contract — same seed ⇒ same arrival schedule and same
//! shed decisions — is checked between the two runs; divergence exits
//! non-zero (CI runs this as a smoke test).
//!
//! A second mode then drives `try_submit` against **service-side**
//! admission control across a sweep of offered loads and prints the
//! shed-rate vs offered-load table — the saturation curve the paper's
//! overload story is about.
//!
//! Run: `cargo run --release --example open_loop_latency [-- <requests_per_round>]`
//! (default 24).

use sdc::core::model::ModelConfig;
use sdc::core::ContrastiveModel;
use sdc::data::Sample;
use sdc::nn::models::EncoderConfig;
use sdc::obs::{AdmissionConfig, ArrivalProcess};
use sdc::serve::{
    run_open_loop, run_open_loop_admission, shed_rate_table, LoadReport, LoadgenConfig,
    ScoringService, ServeConfig,
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

fn one_run(config: &LoadgenConfig) -> Result<LoadReport, Box<dyn std::error::Error>> {
    let service = ScoringService::start(model(), ServeConfig::default());
    Ok(run_open_loop(&service, config, payload)?)
}

fn report(name: &str, run: &LoadReport) {
    println!("{name} arrivals:");
    println!(
        "  {:>5} {:>7} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "round", "issued", "admitted", "shed", "p50_us", "p90_us", "p99_us", "p999_us"
    );
    let us = |nanos: u64| nanos as f64 / 1_000.0;
    for (i, round) in run.rounds.iter().enumerate() {
        println!(
            "  {i:>5} {:>7} {:>9} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            round.issued,
            round.admitted,
            round.shed,
            us(round.latency.p50),
            us(round.latency.p90),
            us(round.latency.p99),
            us(round.latency.p999),
        );
    }
    println!(
        "  total: {} admitted / {} shed; decision fingerprint {:#018x}",
        run.total_admitted(),
        run.total_shed(),
        run.decision_fingerprint(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests_per_round: usize =
        std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(24);

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

    for (name, process) in modes {
        let config = LoadgenConfig {
            seed: 42,
            rounds: 3,
            requests_per_round,
            streams: 4,
            process,
            admission: AdmissionConfig { cost_nanos: 130_000, max_backlog_nanos: 500_000 },
        };
        let first = one_run(&config)?;
        let second = one_run(&config)?;
        report(name, &first);
        if first.schedule != second.schedule
            || first.decision_fingerprint() != second.decision_fingerprint()
        {
            eprintln!("{name}: seed {0} did not reproduce the schedule/decisions", config.seed);
            std::process::exit(1);
        }
        println!("  reproduced: second run matches schedule and shed decisions\n");
    }

    // Service-side admission: the same schedule machinery, but every
    // arrival goes through `try_submit` and the *service* decides —
    // queue-full sheds at the bounded request channel, backlog sheds at
    // the batcher's pending-samples bound. Sweeping the mean gap maps
    // out shed rate vs offered load.
    println!("service-side admission (try_submit), offered-load sweep:");
    let mut reports = Vec::new();
    for mean_gap_nanos in [400_000u64, 150_000, 60_000, 25_000] {
        let config = LoadgenConfig {
            seed: 42,
            rounds: 3,
            requests_per_round,
            streams: 4,
            process: ArrivalProcess::Poisson { mean_gap_nanos },
            admission: AdmissionConfig { cost_nanos: 130_000, max_backlog_nanos: 500_000 },
        };
        let service = ScoringService::start(
            model(),
            ServeConfig { queue_depth: 8, max_pending: 64, ..ServeConfig::default() },
        );
        reports.push(run_open_loop_admission(&service, &config, payload)?);
    }
    print!("{}", shed_rate_table(&reports));
    Ok(())
}
