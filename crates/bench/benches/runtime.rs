//! Benchmarks for the `sdc-runtime` parallel execution subsystem:
//! contrast scoring and dense matmul at 1/2/4/8 threads, the
//! level-scheduled `Graph::backward` over a two-tower tape at the same
//! thread counts (plus the scheduler against the retained serial sweep
//! at one thread), the level-overlapped `Graph::forward` replay against
//! its serial reference, the blocked GEMM kernel against the naive
//! `i-k-j` reference, and the zero-skip-branch experiment that motivated
//! removing the `if aip == 0.0 { continue; }` test from the matmul hot
//! loop.
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
use std::sync::atomic::{AtomicU64, Ordering};

/// Panel-cache hit rate observed while the `backward_256` group ran,
/// stored as `f64` bits for the JSON footer. It stays NaN, and the
/// footer field is omitted, until the group has run or when no lookup
/// was counted — as with recording off (`SDC_OBS=0`), which this bench
/// honours so it can time the recording-off path.
static PACK_CACHE_HIT_RATE: AtomicU64 = AtomicU64::new(0x7ff8_0000_0000_0000);

fn pack_cache_counts() -> (u64, u64) {
    let reg = sdc_obs::global();
    (
        reg.counter("tensor.gemm.pack_cache.hit").get(),
        reg.counter("tensor.gemm.pack_cache.miss").get(),
    )
}

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
    let (hit0, miss0) = pack_cache_counts();
    for &threads in &THREAD_COUNTS {
        let rt = Runtime::new(threads);
        group.bench_function(BenchmarkId::from_parameter(threads), |bch| {
            bch.iter(|| rt.install(|| graph.backward(black_box(loss)).unwrap()))
        });
    }
    group.finish();
    // Report how often re-swept sweeps reused cached operand packs:
    // regressions in panel caching should be visible in the JSON
    // footer, not just as wall-time drift.
    let (hit1, miss1) = pack_cache_counts();
    let (hits, misses) = (hit1 - hit0, miss1 - miss0);
    let rate = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { f64::NAN };
    PACK_CACHE_HIT_RATE.store(rate.to_bits(), Ordering::Relaxed);
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

/// The level-overlapped forward replay against the retained serial
/// reference over the same two-tower tape, single thread — isolates
/// the level analysis + commit-ordering overhead of `Graph::forward`
/// (the thread-level speedup shows up in scoring/backward groups).
fn bench_forward_sched_vs_serial(c: &mut Criterion) {
    let (mut graph, loss) = two_tower_graph();
    let rt = Runtime::new(1);
    let mut group = c.benchmark_group("forward_256");
    group.bench_function("level", |bch| {
        bch.iter(|| rt.install(|| graph.forward(black_box(loss)).unwrap()))
    });
    group.bench_function("serial", |bch| {
        bch.iter(|| rt.install(|| graph.forward_serial(black_box(loss)).unwrap()))
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

/// The removed zero-skip inner loop, kept here (only) to measure what
/// the data-dependent branch costs on dense inputs.
fn matmul_with_zero_skip(a: &Tensor, b: &Tensor, n: usize, k: usize, m: usize) -> Tensor {
    let mut out = Tensor::zeros([n, m]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..n {
        for p in 0..k {
            let aip = ad[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bd[p * m..(p + 1) * m];
            let orow = &mut od[i * m..(i + 1) * m];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
    out
}

fn bench_zero_skip_branch(c: &mut Criterion) {
    let n = 192;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let dense_a = Tensor::randn([n, n], 1.0, &mut rng);
    let b = Tensor::randn([n, n], 1.0, &mut rng);
    // 50% zeros — the most branch-predictor-hostile density.
    let sparse_a = dense_a.map(|v| if v > 0.0 { v } else { 0.0 });
    let rt = Runtime::new(1);
    let mut group = c.benchmark_group("matmul_zero_skip");
    // The branchless arms pin `gemm::naive` (not the public `matmul`,
    // which now takes the blocked path at this size) so the experiment
    // stays a like-for-like comparison of the same loop ± the branch.
    group.bench_function("dense/branchless", |bch| {
        bch.iter(|| {
            rt.install(|| {
                gemm::naive(black_box(&dense_a), Trans::N, black_box(&b), Trans::N).unwrap()
            })
        })
    });
    group.bench_function("dense/zero_skip", |bch| {
        bch.iter(|| matmul_with_zero_skip(black_box(&dense_a), black_box(&b), n, n, n))
    });
    group.bench_function("half_sparse/branchless", |bch| {
        bch.iter(|| {
            rt.install(|| {
                gemm::naive(black_box(&sparse_a), Trans::N, black_box(&b), Trans::N).unwrap()
            })
        })
    });
    group.bench_function("half_sparse/zero_skip", |bch| {
        bch.iter(|| matmul_with_zero_skip(black_box(&sparse_a), black_box(&b), n, n, n))
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
    let rate = f64::from_bits(PACK_CACHE_HIT_RATE.load(Ordering::Relaxed));
    if rate.is_finite() {
        out.push_str(&format!("  \"pack_cache_hit_rate\": {rate:.4},\n"));
    }
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
    bench_forward_sched_vs_serial(&mut criterion);
    bench_blocked_vs_naive(&mut criterion);
    bench_zero_skip_branch(&mut criterion);
    write_json(&criterion);
}
