//! Blocked-GEMM equivalence: the packed, cache-blocked kernel must be
//! **bit-identical** to the naive `i-k-j` reference for every operand
//! orientation, at thread counts 1/2/7, over ragged shapes — including
//! zero-width dimensions, 1×1, and every tile boundary ±1.
//!
//! This suite (plus the proptests at the bottom) is what lets
//! `matmul`'s size dispatch pick either path freely: CI runs it under
//! `SDC_THREADS=7` alongside the other odd-thread-count steps, and under
//! `SDC_SIMD=scalar`, which must reach the micro-kernel (checked below).

use proptest::prelude::*;
use sdc_runtime::Runtime;
use sdc_tensor::ops::gemm::{self, Trans, KC, MC, MR, NR};
use sdc_tensor::ops::matmul::{matmul, matmul_nt, matmul_tn, transpose};
use sdc_tensor::simd::{self, Isa};
use sdc_tensor::Tensor;

/// Thread counts exercised everywhere: serial, even, and an odd
/// non-divisor of typical chunk counts.
const THREADS: [usize; 3] = [1, 2, 7];

fn rand_t(shape: [usize; 2], seed: u64) -> Tensor {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    Tensor::randn(shape, 1.0, &mut rng)
}

/// Asserts `got` is bitwise equal to `want` (shape and every element).
fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{ctx}: element {i} differs: {x} vs {y}");
    }
}

/// Runs the blocked kernel at every thread count and checks each result
/// bitwise against the serial naive reference.
fn check_blocked_vs_naive(a: &Tensor, ta: Trans, b: &Tensor, tb: Trans, ctx: &str) {
    let reference = Runtime::new(1).install(|| gemm::naive(a, ta, b, tb).unwrap());
    for threads in THREADS {
        let got = Runtime::new(threads).install(|| gemm::blocked(a, ta, b, tb).unwrap());
        assert_bits_eq(&got, &reference, &format!("{ctx} threads={threads}"));
    }
}

#[test]
fn tile_boundary_shapes_match_bitwise() {
    // ±1 around every blocking constant: micro-tile rows (MR), lanes
    // (NR), the parallel chunk (MC), and the k-panel depth (KC).
    let ns = [1, MR - 1, MR + 1, MC - 1, MC, MC + 1];
    let ms = [1, NR - 1, NR, NR + 1];
    let ks = [1, KC - 1, KC, KC + 1];
    for &n in &ns {
        for &m in &ms {
            for &k in &ks {
                let seed = (n * 1000 + m * 100 + k) as u64;
                let a = rand_t([n, k], seed);
                let b = rand_t([k, m], seed + 1);
                check_blocked_vs_naive(&a, Trans::N, &b, Trans::N, &format!("nn {n}x{k}x{m}"));
                let bt = rand_t([m, k], seed + 2);
                check_blocked_vs_naive(&a, Trans::N, &bt, Trans::T, &format!("nt {n}x{k}x{m}"));
                let at = rand_t([k, n], seed + 3);
                check_blocked_vs_naive(&at, Trans::T, &b, Trans::N, &format!("tn {n}x{k}x{m}"));
            }
        }
    }
}

#[test]
fn zero_width_and_degenerate_shapes() {
    // k == 0 (zero-filled output), m == 0 / n == 0 (empty output), and
    // the 1×1×1 product.
    let cases: [(usize, usize, usize); 5] = [(3, 0, 4), (0, 5, 4), (3, 5, 0), (1, 1, 1), (0, 0, 0)];
    for (n, k, m) in cases {
        let a = rand_t([n, k], 7);
        let b = rand_t([k, m], 8);
        check_blocked_vs_naive(&a, Trans::N, &b, Trans::N, &format!("degenerate {n}x{k}x{m}"));
    }
}

#[test]
fn public_entry_points_are_thread_count_invariant_past_the_threshold() {
    // 96³ is far above BLOCK_MIN_WORK, so the public wrappers take the
    // blocked path; their output must match the naive reference and be
    // identical at every thread count.
    let a = rand_t([96, 96], 21);
    let b = rand_t([96, 96], 22);
    let want = Runtime::new(1).install(|| gemm::naive(&a, Trans::N, &b, Trans::N).unwrap());
    for threads in THREADS {
        let got = Runtime::new(threads).install(|| matmul(&a, &b).unwrap());
        assert_bits_eq(&got, &want, &format!("matmul threads={threads}"));
    }

    let want_nt = Runtime::new(1).install(|| matmul(&a, &transpose(&b).unwrap()).unwrap());
    for threads in THREADS {
        let got = Runtime::new(threads).install(|| matmul_nt(&a, &b).unwrap());
        assert_bits_eq(&got, &want_nt, &format!("matmul_nt threads={threads}"));
    }

    let want_tn = Runtime::new(1).install(|| matmul(&transpose(&a).unwrap(), &b).unwrap());
    for threads in THREADS {
        let got = Runtime::new(threads).install(|| matmul_tn(&a, &b).unwrap());
        assert_bits_eq(&got, &want_tn, &format!("matmul_tn threads={threads}"));
    }
}

#[test]
fn nonfinite_operands_match_the_naive_kernels() {
    // ∞ and NaN must propagate identically through the packed path —
    // padding lanes may compute 0·∞ internally but are discarded.
    let mut a = rand_t([MR + 1, KC + 1], 31);
    a.data_mut()[0] = f32::INFINITY;
    a.data_mut()[1] = f32::NAN;
    a.data_mut()[2] = f32::NEG_INFINITY;
    let b = rand_t([KC + 1, NR + 1], 32);
    check_blocked_vs_naive(&a, Trans::N, &b, Trans::N, "nonfinite nn");
    let bt = rand_t([NR + 1, KC + 1], 33);
    check_blocked_vs_naive(&a, Trans::N, &bt, Trans::T, "nonfinite nt");
}

/// The micro-kernel dispatches on `simd::active_isa()`, so a run under
/// `SDC_SIMD=scalar` must see the portable instantiation: otherwise this
/// suite's forced-scalar CI step would test the AVX2 body again.
#[test]
fn forced_scalar_dispatch_reaches_the_micro_kernel() {
    let isa = simd::active_isa();
    if std::env::var(simd::SIMD_ENV).as_deref() == Ok("scalar") {
        assert_eq!(isa, Isa::Scalar, "SDC_SIMD=scalar must force the fallback");
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(isa, Isa::Avx2, "AVX2 host must dispatch AVX2 by default");
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(isa, Isa::Scalar);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blocked_matmul_matches_naive_on_ragged_shapes(
        dims in (0usize..70, 0usize..70, 0usize..70),
        seed in 0u64..1000,
    ) {
        let (n, k, m) = dims;
        let a = rand_t([n, k], seed);
        let b = rand_t([k, m], seed + 1);
        check_blocked_vs_naive(&a, Trans::N, &b, Trans::N, &format!("prop nn {n}x{k}x{m}"));
    }

    #[test]
    fn blocked_nt_tn_match_naive_on_ragged_shapes(
        dims in (1usize..48, 0usize..48, 1usize..48),
        seed in 0u64..1000,
    ) {
        let (n, k, m) = dims;
        let a = rand_t([n, k], seed);
        let bt = rand_t([m, k], seed + 1);
        check_blocked_vs_naive(&a, Trans::N, &bt, Trans::T, &format!("prop nt {n}x{k}x{m}"));
        let at = rand_t([k, n], seed + 2);
        let b = rand_t([k, m], seed + 3);
        check_blocked_vs_naive(&at, Trans::T, &b, Trans::N, &format!("prop tn {n}x{k}x{m}"));
    }

    #[test]
    fn public_matmuls_match_reference_across_the_dispatch_threshold(
        dims in (1usize..40, 1usize..40, 1usize..40),
        seed in 0u64..1000,
    ) {
        // Shapes straddle BLOCK_MIN_WORK, so this exercises the naive
        // path, the blocked path, and the boundary between them.
        let (n, k, m) = dims;
        let a = rand_t([n, k], seed);
        let b = rand_t([k, m], seed + 1);
        let want = gemm::naive(&a, Trans::N, &b, Trans::N).unwrap();
        for threads in THREADS {
            let got = Runtime::new(threads).install(|| matmul(&a, &b).unwrap());
            prop_assert!(
                got.data().iter().zip(want.data()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} {n}x{k}x{m}"
            );
        }
    }
}
