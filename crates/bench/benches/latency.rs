//! End-to-end serving-latency percentiles under open-loop load.
//!
//! Unlike the other bench binaries this one does not measure an
//! operation's ns/iter with Criterion: it runs the seeded open-loop
//! load driver ([`sdc_serve::run_open_loop`]) against a
//! [`ScoringService`] for a Poisson and a bursty arrival schedule and
//! reports the resulting enqueue → reply latency **percentiles** —
//! p50/p90/p99/p999 in nanoseconds, emitted in the common
//! `BENCH_*.json` format with the percentile as `ns_per_iter` (ids
//! `latency_poisson/p50`, `latency_bursty/p999`, …) so the existing
//! `bench_gate` machinery can hold the tail of the latency
//! distribution to the checked-in baseline.
//!
//! `SDC_BENCH_SMOKE=1` shrinks the run for CI.

use std::io::Write;

use sdc_core::model::ModelConfig;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_obs::{ArrivalProcess, LatencySummary};
use sdc_serve::{run_open_loop, LoadConfig, ScoringService, ServeConfig};
use sdc_tensor::Tensor;

/// A deliberately small model so the measured number is dominated by
/// queueing + coalescing, not encoder FLOPs.
fn latency_model() -> ContrastiveModel {
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

/// Runs one open-loop mode and returns the whole-run latency summary
/// and the number of requests the service shed.
fn measure(process: ArrivalProcess) -> (LatencySummary, usize) {
    let requests = if sdc_bench::smoke_mode() { 24 } else { 192 };
    let service = ScoringService::start(latency_model(), ServeConfig::default());
    let config = LoadConfig { seed: 42, requests, streams: 4, process };
    let report = run_open_loop(&service, &config, payload).expect("open-loop run");
    (service.stats_snapshot().latency, requests - report.scored() as usize)
}

fn main() {
    // The percentiles ARE the measurement — make sure recording is on
    // even if the environment disabled it for other jobs.
    sdc_obs::set_enabled(true);

    let modes = [
        ("latency_poisson", ArrivalProcess::Poisson { mean_gap_nanos: 1_000_000 }),
        (
            "latency_bursty",
            ArrivalProcess::Bursty {
                calm_gap_nanos: 2_000_000,
                burst_gap_nanos: 100_000,
                enter_burst: 0.2,
                exit_burst: 0.2,
            },
        ),
    ];

    let mut entries: Vec<(String, u64)> = Vec::new();
    for (name, process) in modes {
        let (summary, shed) = measure(process);
        println!(
            "{name}: n={} shed={shed} p50={}ns p90={}ns p99={}ns p999={}ns",
            summary.count, summary.p50, summary.p90, summary.p99, summary.p999
        );
        for (q, value) in [
            ("p50", summary.p50),
            ("p90", summary.p90),
            ("p99", summary.p99),
            ("p999", summary.p999),
        ] {
            entries.push((format!("{name}/{q}"), value));
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_latency.json");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, (id, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("    {{\"id\": \"{id}\", \"ns_per_iter\": {ns}.0}}{comma}\n"));
    }
    out.push_str("  ],\n  \"unit\": \"latency percentile in nanoseconds\",\n");
    out.push_str(&sdc_bench::json_env_footer());
    match std::fs::File::create(path) {
        Ok(mut f) => {
            let _ = f.write_all(out.as_bytes());
            println!("wrote {path}");
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
