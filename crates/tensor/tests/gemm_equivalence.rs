//! GEMM equivalence: the register-tile kernel behind `gemm` and its three
//! wrappers (`matmul`, `matmul_nt`, `matmul_tn`) must be
//! **bit-identical** to the naive reference for every operand
//! orientation, at thread counts 1/2/7, over ragged shapes — including
//! zero-width dimensions, 1×1, and ±1 around the tile's edges (8 rows,
//! 8 columns, the 32-row pool chunk) with a shallow and a deep `k`.
//!
//! CI runs this suite under `SDC_THREADS=7` alongside the other
//! odd-thread-count steps, and under `SDC_SIMD=scalar`, which must
//! reach the tile's portable instantiation (checked below).

use proptest::prelude::*;
use sdc_runtime::Runtime;
use sdc_tensor::ops::gemm::{self, Trans};
use sdc_tensor::ops::matmul::{matmul, matmul_nt, matmul_tn};
use sdc_tensor::simd::{self, Isa};
use sdc_tensor::{Result, Tensor};

/// Thread counts exercised everywhere: serial, even, and an odd
/// non-divisor of typical chunk counts.
const THREADS: [usize; 3] = [1, 2, 7];

/// The three orientations the wrappers compute: `A·B`, `A·Bᵀ`, `Aᵀ·B`.
const ORIENTATIONS: [(Trans, Trans); 3] =
    [(Trans::N, Trans::N), (Trans::N, Trans::T), (Trans::T, Trans::N)];

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

/// The public wrapper that computes one orientation.
fn wrapper(ta: Trans, tb: Trans) -> fn(&Tensor, &Tensor) -> Result<Tensor> {
    match (ta, tb) {
        (Trans::N, Trans::N) => matmul,
        (Trans::N, Trans::T) => matmul_nt,
        (Trans::T, Trans::N) => matmul_tn,
        (Trans::T, Trans::T) => unreachable!("no wrapper computes Aᵀ·Bᵀ"),
    }
}

/// Random operands whose logical product is `(n × k) · (k × m)`, stored
/// in orientation `(ta, tb)`.
fn operands(n: usize, k: usize, m: usize, ta: Trans, tb: Trans, seed: u64) -> (Tensor, Tensor) {
    let a = match ta {
        Trans::N => rand_t([n, k], seed),
        Trans::T => rand_t([k, n], seed),
    };
    let b = match tb {
        Trans::N => rand_t([k, m], seed + 1),
        Trans::T => rand_t([m, k], seed + 1),
    };
    (a, b)
}

/// Runs `gemm` and the orientation's wrapper on every runtime and checks
/// each result bitwise against the naive reference.
fn check_gemm_vs_naive(
    runtimes: &[Runtime],
    a: &Tensor,
    ta: Trans,
    b: &Tensor,
    tb: Trans,
    ctx: &str,
) {
    let want = gemm::naive(a, ta, b, tb).unwrap();
    for rt in runtimes {
        let threads = rt.threads();
        let (got, wrapped) = rt.install(|| {
            (gemm::gemm("gemm", a, ta, b, tb).unwrap(), wrapper(ta, tb)(a, b).unwrap())
        });
        assert_bits_eq(&got, &want, &format!("{ctx} {ta:?}{tb:?} gemm threads={threads}"));
        assert_bits_eq(&wrapped, &want, &format!("{ctx} {ta:?}{tb:?} wrapper threads={threads}"));
    }
}

/// [`check_gemm_vs_naive`] on fresh operands in all three orientations.
fn check_shape(runtimes: &[Runtime], n: usize, k: usize, m: usize, seed: u64) {
    for (ta, tb) in ORIENTATIONS {
        let (a, b) = operands(n, k, m, ta, tb, seed);
        check_gemm_vs_naive(runtimes, &a, ta, &b, tb, &format!("{n}x{k}x{m}"));
    }
}

fn runtimes() -> Vec<Runtime> {
    THREADS.into_iter().map(Runtime::new).collect()
}

#[test]
fn tile_edge_shapes_match_bitwise() {
    // ±1 around the tile's 8 rows and the 32-row chunk, ±1 around its
    // 8 lanes and two panels plus one, with a shallow and a deep `k`.
    let runtimes = runtimes();
    for n in [1, 7, 8, 9, 31, 32, 33] {
        for m in [1, 7, 8, 9, 17] {
            for k in [1, 2, 257] {
                check_shape(&runtimes, n, k, m, (n * 1000 + m * 100 + k) as u64);
            }
        }
    }
}

#[test]
fn zero_width_and_degenerate_shapes() {
    // k == 0 (zero-filled output), m == 0 / n == 0 (empty output), and
    // the 1×1×1 product, in every orientation: a transposed operand with
    // k == 0 has zero-length rows.
    let runtimes = runtimes();
    let cases: [(usize, usize, usize); 5] = [(3, 0, 4), (0, 5, 4), (3, 5, 0), (1, 1, 1), (0, 0, 0)];
    for (n, k, m) in cases {
        check_shape(&runtimes, n, k, m, 7);
    }
}

#[test]
fn public_entry_points_are_thread_count_invariant() {
    // 96 rows are three pool chunks and 96 columns twelve panels, so
    // every runtime splits the product across its workers.
    check_shape(&runtimes(), 96, 96, 96, 21);
}

#[test]
fn nonfinite_operands_match_the_naive_kernels() {
    // ∞ and NaN must propagate identically through the tile: padded
    // lanes and rows may compute 0·∞ internally but are never stored.
    let runtimes = runtimes();
    for (ta, tb) in ORIENTATIONS {
        let (mut a, b) = operands(9, 257, 9, ta, tb, 31);
        a.data_mut()[0] = f32::INFINITY;
        a.data_mut()[1] = f32::NAN;
        a.data_mut()[2] = f32::NEG_INFINITY;
        check_gemm_vs_naive(&runtimes, &a, ta, &b, tb, "nonfinite");
    }
}

/// The tile dispatches on `simd::active_isa()`, so a run under
/// `SDC_SIMD=scalar` must see the portable instantiation: otherwise this
/// suite's forced-scalar CI step would test the AVX2 body again.
#[test]
fn forced_scalar_dispatch_reaches_the_tile() {
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
    fn gemm_matches_naive_on_ragged_shapes(
        dims in (0usize..70, 0usize..70, 0usize..70),
        seed in 0u64..1000,
    ) {
        let (n, k, m) = dims;
        check_shape(&runtimes(), n, k, m, seed);
    }
}
