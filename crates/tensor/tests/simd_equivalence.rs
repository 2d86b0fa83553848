//! Dispatched/scalar equivalence for the vectorized kernel layer:
//! every kernel routed through `sdc_tensor::simd` must be **bitwise**
//! identical to the retained scalar reference (`simd::scalar_ref`) at
//! every thread count — the same contract `gemm_equivalence` enforces
//! for the matmul tile.
//!
//! CI runs this suite twice: once with the default dispatch (AVX2 on
//! x86-64) and once under `SDC_SIMD=scalar`, where the comparison is
//! scalar-vs-scalar and instead proves thread-count invariance of the
//! reference itself.

// The special-value list quotes the exp range-reduction bounds
// digit-for-digit; shortening them would test different inputs.
#![allow(clippy::excessive_precision)]

use proptest::prelude::*;
use sdc_runtime::Runtime;
use sdc_tensor::simd::{self, scalar_ref, Isa, UnaryKernel};
use sdc_tensor::Tensor;

/// Thread counts exercised everywhere: serial, even, and an odd
/// non-divisor of typical chunk counts.
const THREADS: [usize; 3] = [1, 2, 7];

const UNARY_KERNELS: [UnaryKernel; 2] = [UnaryKernel::Relu, UnaryKernel::Scale { c: -1.7 }];

fn bits_equal(got: &Tensor, want: &Tensor, what: &str) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!("{what}: shape {:?} vs {:?}", got.shape(), want.shape()));
    }
    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "{what}: element {i} differs: {a} ({:#x}) vs {b} ({:#x})",
                a.to_bits(),
                b.to_bits()
            ));
        }
    }
    Ok(())
}

/// Runs the dispatched `op` at every thread count and compares each
/// result bitwise against the single-threaded scalar reference
/// `reference` — one assertion covering both ISA and thread invariance.
fn assert_dispatch_invariant(
    what: &str,
    op: impl Fn() -> Tensor,
    reference: impl Fn() -> Tensor,
) -> Result<(), String> {
    let want = Runtime::new(1).install(&reference);
    for threads in THREADS {
        let got = Runtime::new(threads).install(&op);
        bits_equal(&got, &want, &format!("{what} (dispatched, threads={threads})"))?;
        let refl = Runtime::new(threads).install(&reference);
        bits_equal(&refl, &want, &format!("{what} (scalar_ref, threads={threads})"))?;
    }
    Ok(())
}

fn check_all_kernels(x: &Tensor, y: &Tensor) -> Result<(), String> {
    for k in UNARY_KERNELS {
        assert_dispatch_invariant(
            &format!("unary {k:?} len={}", x.len()),
            || simd::unary(k, x),
            || scalar_ref::unary(k, x),
        )?;
    }
    assert_dispatch_invariant(
        &format!("relu_backward len={}", x.len()),
        || simd::relu_backward(x, y).unwrap(),
        || scalar_ref::relu_backward(x, y).unwrap(),
    )?;
    Ok(())
}

fn check_all_rowwise(m: &Tensor, gy: &Tensor) -> Result<(), String> {
    let shape = format!("{:?}", m.shape());
    assert_dispatch_invariant(
        &format!("sum_cols {shape}"),
        || simd::sum_cols(m).unwrap(),
        || scalar_ref::sum_cols(m).unwrap(),
    )?;
    assert_dispatch_invariant(
        &format!("log_softmax {shape}"),
        || simd::log_softmax(m).unwrap(),
        || scalar_ref::log_softmax(m).unwrap(),
    )?;
    let y = scalar_ref::log_softmax(m).unwrap();
    assert_dispatch_invariant(
        &format!("log_softmax_backward {shape}"),
        || simd::log_softmax_backward(&y, gy),
        || scalar_ref::log_softmax_backward(&y, gy),
    )?;
    assert_dispatch_invariant(
        &format!("l2_normalize_rows {shape}"),
        || simd::l2_normalize_rows(m, 1e-12).unwrap().0,
        || scalar_ref::l2_normalize_rows(m, 1e-12).unwrap().0,
    )?;
    // The norms side-output must match bitwise too.
    let (zn, norms) = scalar_ref::l2_normalize_rows(m, 1e-12).unwrap();
    let (_, dnorms) = simd::l2_normalize_rows(m, 1e-12).unwrap();
    for (i, (a, b)) in dnorms.as_slice().iter().zip(norms.as_slice()).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!("l2 norms {shape}: row {i} differs: {a} vs {b}"));
        }
    }
    assert_dispatch_invariant(
        &format!("l2_normalize_rows_backward {shape}"),
        || simd::l2_normalize_rows_backward(&zn, &norms, gy),
        || scalar_ref::l2_normalize_rows_backward(&zn, &norms, gy),
    )?;
    Ok(())
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed)
}

#[test]
fn dispatcher_selects_avx2_on_x86_64_unless_overridden() {
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

/// Tail coverage: lengths straddling the 8-lane group width and the
/// 4096-element parallel chunk boundary, plus degenerate shapes.
#[test]
fn elementwise_tail_and_boundary_lengths_match_scalar_reference() {
    let mut r = rng(7);
    for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4095, 4096, 4097] {
        let x = Tensor::randn([len], 2.0, &mut r);
        let y = Tensor::randn([len], 2.0, &mut r);
        check_all_kernels(&x, &y).unwrap();
    }
}

/// Row-wise kernels at tail widths (`d % 8` of 0, ±1), one-element
/// matrices, and zero-extent shapes.
#[test]
fn rowwise_tail_and_degenerate_shapes_match_scalar_reference() {
    let mut r = rng(11);
    for (n, d) in [(1, 1), (3, 7), (3, 8), (3, 9), (2, 1), (1, 33), (5, 31), (0, 5), (4, 0)] {
        let m = Tensor::randn([n, d], 2.0, &mut r);
        let gy = Tensor::randn([n, d], 1.0, &mut r);
        check_all_rowwise(&m, &gy).unwrap();
    }
}

/// Non-finite and special values must take identical select paths on
/// every ISA: NaN, ±inf, signed zeros, subnormals, and the exp
/// range-reduction boundaries.
#[test]
fn non_finite_inputs_match_scalar_reference() {
    let mut specials = vec![
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0e-40, // subnormal
        -1.0e-40,
        f32::MIN_POSITIVE,
        88.376_26, // exp clamp boundaries
        88.4,
        -87.336_544,
        -87.4,
        1.0,
        -1.0,
        f32::MAX,
        f32::MIN,
    ];
    // Pad to a non-multiple-of-8 length so specials land in the tail
    // too, then rotate so each special visits several lane positions.
    let mut r = rng(13);
    let pad = Tensor::randn([21], 3.0, &mut r);
    specials.extend_from_slice(pad.data());
    for rot in 0..5 {
        specials.rotate_left(rot * 3 + 1);
        let x = Tensor::from_vec([specials.len()], specials.clone()).unwrap();
        let y = Tensor::randn([specials.len()], 2.0, &mut r);
        check_all_kernels(&x, &y).unwrap();
        // And with specials on the second operand.
        check_all_kernels(&y, &x).unwrap();
    }
    let n = specials.len() / 4 * 4;
    let m = Tensor::from_vec([4, n / 4], specials[..n].to_vec()).unwrap();
    assert_dispatch_invariant(
        "sum_cols specials",
        || simd::sum_cols(&m).unwrap(),
        || scalar_ref::sum_cols(&m).unwrap(),
    )
    .unwrap();
    assert_dispatch_invariant(
        "log_softmax specials",
        || simd::log_softmax(&m).unwrap(),
        || scalar_ref::log_softmax(&m).unwrap(),
    )
    .unwrap();
    // Log-softmax backward takes `exp` of its `y` operand directly, so
    // specials as `y` reach the exp kernel's clamp and NaN paths.
    let gy = Tensor::randn([4, n / 4], 1.0, &mut r);
    assert_dispatch_invariant(
        "log_softmax_backward specials",
        || simd::log_softmax_backward(&m, &gy),
        || scalar_ref::log_softmax_backward(&m, &gy),
    )
    .unwrap();
    assert_dispatch_invariant(
        "l2_normalize_rows specials",
        || simd::l2_normalize_rows(&m, 1e-12).unwrap().0,
        || scalar_ref::l2_normalize_rows(&m, 1e-12).unwrap().0,
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn elementwise_kernels_match_scalar_reference(
        len in 1usize..30_000,
        seed in 0u64..1000,
    ) {
        let mut r = rng(seed);
        let x = Tensor::randn([len], 2.0, &mut r);
        let y = Tensor::randn([len], 2.0, &mut r);
        let res = check_all_kernels(&x, &y);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    #[test]
    fn rowwise_kernels_match_scalar_reference(
        dims in (1usize..40, 1usize..260),
        seed in 0u64..1000,
    ) {
        let (n, d) = dims;
        let mut r = rng(seed);
        let m = Tensor::randn([n, d], 2.0, &mut r);
        let gy = Tensor::randn([n, d], 1.0, &mut r);
        let res = check_all_rowwise(&m, &gy);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}
