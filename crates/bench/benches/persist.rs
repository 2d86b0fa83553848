//! Benchmarks for the `sdc-persist` checkpoint subsystem: capturing a
//! serving node's [`NodeSnapshot`] (quiesce + serialize + CRC), fully
//! verifying one from bytes (the whole-file and per-section CRC walk),
//! and restoring a node (decode + validate + rebuild trainer, shards,
//! and a fresh scoring service).
//!
//! Besides the console output, results are written to
//! `BENCH_persist.json` at the workspace root with derived snapshot
//! MB/s and the host parallelism, under the same `bench_gate` CI
//! machinery as the runtime and serve benches.

use criterion::{BenchmarkId, Criterion};
use sdc_bench::bench_trainer_config;
use sdc_core::policy::ContrastScoringPolicy;
use sdc_data::stream::TemporalStream;
use sdc_data::synth::{SynthConfig, SynthDataset};
use sdc_data::StreamId;
use sdc_serve::{MultiStreamTrainer, NodeSnapshot, ServeConfig};
use std::hint::black_box;
use std::io::Write;

const STREAM_COUNTS: [usize; 2] = [1, 4];
const BUFFER: usize = 16;

/// A node with every stream's shard filled (one training round), so
/// snapshots carry realistic buffer payloads alongside the model.
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

fn bench_snapshot(c: &mut Criterion, nodes: &[(usize, MultiStreamTrainer)]) {
    let mut group = c.benchmark_group("persist_snapshot");
    for (streams, node) in nodes {
        group.bench_with_input(BenchmarkId::from_parameter(streams), node, |b, node| {
            b.iter(|| black_box(node.snapshot().expect("snapshot")))
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion, nodes: &[(usize, MultiStreamTrainer)]) {
    let mut group = c.benchmark_group("persist_verify");
    for (streams, node) in nodes {
        let bytes = node.snapshot().expect("snapshot").into_bytes();
        group.bench_with_input(BenchmarkId::from_parameter(streams), &bytes, |b, bytes| {
            b.iter(|| black_box(NodeSnapshot::from_bytes(bytes.clone()).expect("verify")))
        });
    }
    group.finish();
}

fn bench_restore(c: &mut Criterion, nodes: &[(usize, MultiStreamTrainer)]) {
    let mut group = c.benchmark_group("persist_restore");
    for (streams, node) in nodes {
        let snapshot = node.snapshot().expect("snapshot");
        group.bench_with_input(BenchmarkId::from_parameter(streams), &snapshot, |b, snapshot| {
            b.iter(|| {
                black_box(
                    MultiStreamTrainer::restore(
                        bench_trainer_config(BUFFER),
                        ContrastScoringPolicy::new(),
                        ServeConfig::default(),
                        snapshot,
                    )
                    .expect("restore"),
                )
            })
        });
    }
    group.finish();
}

/// Writes `BENCH_persist.json`: per-benchmark ns/iter plus derived
/// snapshot throughput (snapshot bytes ÷ iteration time) and
/// environment metadata, in the line format `bench_gate` parses.
fn write_json(c: &Criterion, snapshot_bytes: &[(usize, usize)]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let results = c.results();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let streams: usize = r.id.rsplit('/').next().and_then(|s| s.parse().ok()).unwrap_or(1);
        let bytes =
            snapshot_bytes.iter().find(|(s, _)| *s == streams).map(|(_, b)| *b).unwrap_or(0);
        let mb_per_sec = bytes as f64 * 1e9 / r.ns_per_iter / 1e6;
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"snapshot_bytes\": {bytes}, \
             \"mb_per_sec\": {mb_per_sec:.1}}}{comma}\n",
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
    let nodes: Vec<(usize, MultiStreamTrainer)> =
        STREAM_COUNTS.iter().map(|&s| (s, build_node(s))).collect();
    let snapshot_bytes: Vec<(usize, usize)> =
        nodes.iter().map(|(s, n)| (*s, n.snapshot().expect("snapshot").as_bytes().len())).collect();
    bench_snapshot(&mut criterion, &nodes);
    bench_verify(&mut criterion, &nodes);
    bench_restore(&mut criterion, &nodes);
    write_json(&criterion, &snapshot_bytes);
}
