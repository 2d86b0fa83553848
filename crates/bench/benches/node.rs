//! Benchmarks for the `sdc-node` TCP front-end: loopback scoring
//! round-trips (framing + codec + coalesced scoring, measured in
//! frames/sec) and snapshot shipping to a standby (full container vs
//! section delta, measured in shipped-state MB/s).
//!
//! Besides the console output, results are written to
//! `BENCH_node.json` at the workspace root under the same `bench_gate`
//! CI machinery as the runtime, serve, and persist benches.

use criterion::{BenchmarkId, Criterion};
use sdc_bench::{bench_model, bench_samples, bench_trainer_config};
use sdc_core::policy::ContrastScoringPolicy;
use sdc_data::stream::TemporalStream;
use sdc_data::synth::SynthConfig;
use sdc_data::synth::SynthDataset;
use sdc_data::StreamId;
use sdc_node::wire::Ship;
use sdc_node::{NodeClient, NodeServer};
use sdc_serve::{MultiStreamTrainer, ReplicaSet, ServeConfig};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;

const BATCH_SIZES: [usize; 2] = [1, 16];
const BUFFER: usize = 16;
/// Frames per scoring round trip: one request, one reply.
const FRAMES_PER_ROUNDTRIP: f64 = 2.0;

/// A trained node whose snapshot carries realistic model + shard
/// payloads (one filled round per stream).
fn build_node(streams: usize) -> MultiStreamTrainer {
    let mut driver = MultiStreamTrainer::new(
        bench_trainer_config(BUFFER),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
    );
    let segments: Vec<(StreamId, Vec<_>)> = (0..streams)
        .map(|i| {
            let ds = SynthDataset::new(SynthConfig::default());
            let mut stream = TemporalStream::new(ds, 8, i as u64);
            (i as StreamId, stream.next_segment(BUFFER).expect("synthesis"))
        })
        .collect();
    driver.run_round(segments).expect("fill round");
    driver
}

/// Remote score round trips through a loopback server, per batch size.
fn bench_frames(c: &mut Criterion) {
    let replicas = Arc::new(ReplicaSet::start(
        bench_model(),
        ServeConfig { replicas: 2, ..ServeConfig::default() },
    ));
    let server = NodeServer::start(replicas).expect("start server");
    let client = NodeClient::connect(server.addr()).expect("connect");
    let mut group = c.benchmark_group("node_frames");
    for batch in BATCH_SIZES {
        let pool = bench_samples(batch, 40 + batch as u64);
        group.bench_with_input(BenchmarkId::from_parameter(batch), &pool, |b, pool| {
            b.iter(|| black_box(client.score(0, pool.clone()).expect("remote score")))
        });
    }
    group.finish();
}

/// Snapshot shipping to a standby server: a full container every
/// iteration, then an identity delta (every section crossing as a bare
/// CRC) against the installed base.
fn bench_ship(c: &mut Criterion) -> usize {
    let node = build_node(4);
    let bytes = node.snapshot().expect("snapshot").into_bytes();

    let standby_set = Arc::new(ReplicaSet::start(bench_model(), ServeConfig::default()));
    let standby = NodeServer::start(standby_set).expect("start standby");
    let client = NodeClient::connect(standby.addr()).expect("connect standby");

    let mut group = c.benchmark_group("node_ship");
    group.bench_with_input(BenchmarkId::from_parameter("full"), &bytes, |b, bytes| {
        b.iter(|| {
            black_box(
                client
                    .ship(Ship::Full { snapshot: bytes.clone(), aux: Vec::new() })
                    .expect("full ship"),
            )
        })
    });

    // Install the base, then ship the identity delta repeatedly: the
    // steady-state path where a round changed nothing.
    client.ship(Ship::Full { snapshot: bytes.clone(), aux: Vec::new() }).expect("install base");
    let parsed = sdc_persist::Snapshot::from_bytes(&bytes).expect("parse");
    let (delta, _) = sdc_persist::encode_delta(&parsed, &parsed);
    group.bench_with_input(BenchmarkId::from_parameter("delta"), &delta, |b, delta| {
        b.iter(|| {
            black_box(
                client
                    .ship(Ship::Delta { delta: delta.clone(), aux: Vec::new() })
                    .expect("delta ship"),
            )
        })
    });
    group.finish();
    bytes.len()
}

/// Writes `BENCH_node.json`: per-benchmark ns/iter plus derived
/// frames/sec (round-trip benches) and shipped-state MB/s (ship
/// benches, full-container bytes over iteration time), in the line
/// format `bench_gate` parses.
fn write_json(c: &Criterion, container_bytes: usize) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_node.json");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let results = c.results();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let derived = if r.id.starts_with("node_ship") {
            let mb_per_sec = container_bytes as f64 * 1e9 / r.ns_per_iter / 1e6;
            format!("\"container_bytes\": {container_bytes}, \"mb_per_sec\": {mb_per_sec:.1}")
        } else {
            let frames_per_sec = FRAMES_PER_ROUNDTRIP * 1e9 / r.ns_per_iter;
            format!("\"frames_per_sec\": {frames_per_sec:.1}")
        };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, {derived}}}{comma}\n",
            r.id, r.ns_per_iter,
        ));
    }
    out.push_str(&format!("  ],\n  \"buffer_size\": {BUFFER},\n"));
    out.push_str(&sdc_bench::json_env_footer());
    match std::fs::File::create(path) {
        Ok(mut f) => {
            let _ = f.write_all(out.as_bytes());
            println!("wrote {path}");
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = sdc_bench::bench_criterion();
    bench_frames(&mut criterion);
    let container_bytes = bench_ship(&mut criterion);
    write_json(&criterion, container_bytes);
}
