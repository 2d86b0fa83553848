//! Tensor-kernel micro-benchmarks: the compute building blocks every
//! training and scoring step is made of.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdc_tensor::ops::conv::{conv2d_backward, conv2d_forward};
use sdc_tensor::ops::matmul::{matmul, matmul_nt};
use sdc_tensor::ops::norm::{batch_norm2d_forward, l2_normalize_rows_forward};
use sdc_tensor::ops::softmax::log_softmax_forward;
use sdc_tensor::Tensor;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = Tensor::randn([64, 128], 1.0, &mut rng);
    let b = Tensor::randn([128, 64], 1.0, &mut rng);
    let bt = Tensor::randn([64, 128], 1.0, &mut rng);
    c.bench_function("matmul_64x128x64", |bch| {
        bch.iter(|| matmul(black_box(&a), black_box(&b)).unwrap())
    });
    c.bench_function("matmul_nt_64x128x64", |bch| {
        bch.iter(|| matmul_nt(black_box(&a), black_box(&bt)).unwrap())
    });

    let x = Tensor::randn([16, 16, 12, 12], 1.0, &mut rng);
    let w = Tensor::randn([32, 16, 3, 3], 0.1, &mut rng);
    c.bench_function("conv2d_forward_16x16x12x12", |bch| {
        bch.iter(|| conv2d_forward(black_box(&x), black_box(&w), None, 1, 1).unwrap())
    });
    let y = conv2d_forward(&x, &w, None, 1, 1).unwrap();
    let gy = Tensor::ones(y.shape().clone());
    c.bench_function("conv2d_backward_16x16x12x12", |bch| {
        bch.iter(|| {
            conv2d_backward(black_box(&x), black_box(&w), black_box(&gy), 1, 1, true, false)
                .unwrap()
        })
    });

    let gamma = Tensor::ones([16]);
    let beta = Tensor::zeros([16]);
    c.bench_function("batchnorm_forward_16x16x12x12", |bch| {
        bch.iter(|| batch_norm2d_forward(black_box(&x), &gamma, &beta, 1e-5, None).unwrap())
    });

    let z = Tensor::randn([64, 32], 1.0, &mut rng);
    c.bench_function("l2_normalize_rows_64x32", |bch| {
        bch.iter(|| l2_normalize_rows_forward(black_box(&z), 1e-12).unwrap())
    });
    let logits = Tensor::randn([64, 64], 1.0, &mut rng);
    c.bench_function("log_softmax_64x64", |bch| {
        bch.iter(|| log_softmax_forward(black_box(&logits)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels
}
criterion_main!(benches);
