//! Benchmarks for the `sdc-runtime` parallel execution subsystem:
//! contrast scoring and dense matmul at 1/2/4/8 threads, the
//! level-scheduled `Graph::backward` over a two-tower tape at the same
//! thread counts (plus the scheduler against the retained serial sweep
//! at one thread), and the blocked GEMM kernel against the naive
//! `i-k-j` reference.
//!
//! Besides the usual console output, results are written to
//! `BENCH_runtime.json` at the workspace root so future PRs can track
//! the perf trajectory mechanically; CI runs this bench in smoke mode
//! (`SDC_BENCH_SMOKE=1`) and gates the matmul family against the
//! checked-in baseline with `bench_gate`.

use criterion::{BenchmarkId, Criterion};
use sdc_bench::{bench_model, bench_samples};
use sdc_core::score::contrast_scores_shared;
use sdc_runtime::Runtime;
use sdc_tensor::ops::gemm::{self, Trans};
use sdc_tensor::ops::matmul::matmul;
use sdc_tensor::{Graph, Tensor, VarId};
use std::hint::black_box;
use std::io::Write;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_scoring_by_threads(c: &mut Criterion) {
    let model = bench_model();
    let samples = bench_samples(32, 1);
    let mut group = c.benchmark_group("runtime_scoring");
    for &threads in &THREAD_COUNTS {
        let rt = Runtime::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &samples, |b, s| {
            b.iter(|| rt.install(|| contrast_scores_shared(&model, black_box(s)).unwrap()))
        });
    }
    group.finish();
}

fn bench_matmul_by_threads(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let a = Tensor::randn([256, 256], 1.0, &mut rng);
    let b = Tensor::randn([256, 256], 1.0, &mut rng);
    let mut group = c.benchmark_group("runtime_matmul_256");
    for &threads in &THREAD_COUNTS {
        let rt = Runtime::new(threads);
        group.bench_function(BenchmarkId::from_parameter(threads), |bch| {
            bch.iter(|| rt.install(|| matmul(black_box(&a), black_box(&b)).unwrap()))
        });
    }
    group.finish();
}

/// Builds the tape shape the level scheduler targets: two 256-wide
/// matmul/relu towers sharing no nodes until the loss, mirroring the
/// two augmented views' encoder towers of a contrastive step.
fn two_tower_graph() -> (Graph, VarId) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let mut g = Graph::new();
    let tower = |g: &mut Graph, rng: &mut rand::rngs::StdRng| {
        let x = g.leaf(Tensor::randn([256, 256], 1.0, rng));
        let mut h = x;
        for _ in 0..3 {
            let w = g.leaf(Tensor::randn([256, 256], 1.0, rng));
            let m = g.matmul(h, w).unwrap();
            h = g.relu(m);
        }
        h
    };
    let t1 = tower(&mut g, &mut rng);
    let t2 = tower(&mut g, &mut rng);
    let joined = g.add(t1, t2).unwrap();
    let loss = g.mean_all(joined);
    (g, loss)
}

/// The level-scheduled backward sweep over the two-tower tape at
/// 1/2/4/8 threads. The tape is built once and re-swept every
/// iteration (re-sweeps start from cleared gradient slots), so this
/// measures `Graph::backward` alone.
fn bench_backward_by_threads(c: &mut Criterion) {
    let (mut graph, loss) = two_tower_graph();
    let mut group = c.benchmark_group("backward_256");
    for &threads in &THREAD_COUNTS {
        let rt = Runtime::new(threads);
        group.bench_function(BenchmarkId::from_parameter(threads), |bch| {
            bch.iter(|| rt.install(|| graph.backward(black_box(loss)).unwrap()))
        });
    }
    group.finish();
}

/// The scheduler against the retained serial reference sweep, single
/// thread — isolates the level analysis + contribution-buffering
/// overhead from the thread-level speedup the other group measures.
fn bench_backward_sched_vs_serial(c: &mut Criterion) {
    let (mut graph, loss) = two_tower_graph();
    let rt = Runtime::new(1);
    let mut group = c.benchmark_group("backward_sched_256");
    group.bench_function("level", |bch| {
        bch.iter(|| rt.install(|| graph.backward(black_box(loss)).unwrap()))
    });
    group.bench_function("serial", |bch| {
        bch.iter(|| rt.install(|| graph.backward_serial(black_box(loss)).unwrap()))
    });
    group.finish();
}

/// The blocked, operand-packing GEMM against the naive `i-k-j`
/// reference on the hottest shape (256×256 encoder layers), single
/// thread — isolates the cache-blocking + register-tiling win from the
/// thread-level speedup the other group measures.
fn bench_blocked_vs_naive(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
    let a = Tensor::randn([256, 256], 1.0, &mut rng);
    let b = Tensor::randn([256, 256], 1.0, &mut rng);
    let rt = Runtime::new(1);
    let mut group = c.benchmark_group("matmul_kernel_256");
    group.bench_function("blocked", |bch| {
        bch.iter(|| {
            rt.install(|| gemm::blocked(black_box(&a), Trans::N, black_box(&b), Trans::N).unwrap())
        })
    });
    group.bench_function("naive", |bch| {
        bch.iter(|| {
            rt.install(|| gemm::naive(black_box(&a), Trans::N, black_box(&b), Trans::N).unwrap())
        })
    });
    group.finish();
}

/// Writes `BENCH_runtime.json` at the workspace root: a list of
/// `{"id", "ns_per_iter"}` entries plus environment metadata.
fn write_json(c: &Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let results = c.results();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}}}{comma}\n",
            r.id, r.ns_per_iter
        ));
    }
    out.push_str("  ],\n");
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
    bench_scoring_by_threads(&mut criterion);
    bench_matmul_by_threads(&mut criterion);
    bench_backward_by_threads(&mut criterion);
    bench_backward_sched_vs_serial(&mut criterion);
    bench_blocked_vs_naive(&mut criterion);
    write_json(&criterion);
}
