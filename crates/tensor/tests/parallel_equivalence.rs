//! Serial/parallel equivalence: every runtime-wired kernel must be
//! **bit-identical** across thread counts — including an odd,
//! non-divisor count — on random shapes spanning both sides of the
//! parallel dispatch threshold.

use proptest::prelude::*;
use sdc_runtime::Runtime;
use sdc_tensor::ops::conv::{col2im, conv2d_backward, conv2d_forward, im2col};
use sdc_tensor::ops::matmul::{matmul, matmul_nt, matmul_tn};
use sdc_tensor::Tensor;

/// Thread counts exercised everywhere: serial, even, and an odd
/// non-divisor of typical chunk counts.
const THREADS: [usize; 3] = [1, 2, 7];

/// Runs `op` under each thread count and asserts all results are
/// bitwise equal to the single-threaded one.
fn assert_thread_invariant(op: impl Fn() -> Tensor) -> Result<(), String> {
    let reference = Runtime::new(1).install(&op);
    for threads in THREADS {
        let got = Runtime::new(threads).install(&op);
        if got.shape() != reference.shape() {
            return Err(format!("shape mismatch at {threads} threads"));
        }
        for (i, (a, b)) in got.data().iter().zip(reference.data()).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!("threads={threads}: element {i} differs: {a} vs {b}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_is_thread_count_invariant(
        dims in (1usize..40, 1usize..40, 1usize..40),
        seed in 0u64..1000,
    ) {
        let (n, k, m) = dims;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = Tensor::randn([n, k], 1.0, &mut rng);
        let b = Tensor::randn([k, m], 1.0, &mut rng);
        let r = assert_thread_invariant(|| matmul(&a, &b).unwrap());
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn matmul_nt_tn_are_thread_count_invariant(
        dims in (1usize..32, 1usize..32, 1usize..32),
        seed in 0u64..1000,
    ) {
        let (n, k, m) = dims;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let a = Tensor::randn([n, k], 1.0, &mut rng);
        let b = Tensor::randn([m, k], 1.0, &mut rng);
        let r = assert_thread_invariant(|| matmul_nt(&a, &b).unwrap());
        prop_assert!(r.is_ok(), "nt: {}", r.unwrap_err());
        let at = Tensor::randn([k, n], 1.0, &mut rng);
        let bt = Tensor::randn([k, m], 1.0, &mut rng);
        let r = assert_thread_invariant(|| matmul_tn(&at, &bt).unwrap());
        prop_assert!(r.is_ok(), "tn: {}", r.unwrap_err());
    }

    #[test]
    fn conv2d_forward_backward_are_thread_count_invariant(
        geom in (1usize..4, 1usize..4, 2usize..6, 6usize..14),
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let (n, c_in, c_out, hw) = geom;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let x = Tensor::randn([n, c_in, hw, hw], 1.0, &mut rng);
        let w = Tensor::randn([c_out, c_in, 3, 3], 0.3, &mut rng);
        let r = assert_thread_invariant(|| conv2d_forward(&x, &w, stride, 1).unwrap());
        prop_assert!(r.is_ok(), "forward: {}", r.unwrap_err());

        let y = conv2d_forward(&x, &w, stride, 1).unwrap();
        let gy = Tensor::randn(y.shape().clone(), 1.0, &mut rng);
        let r = assert_thread_invariant(|| {
            let (dx, _) = conv2d_backward(&x, &w, &gy, stride, 1, true).unwrap();
            dx.expect("dx requested")
        });
        prop_assert!(r.is_ok(), "backward dx: {}", r.unwrap_err());
        let r = assert_thread_invariant(|| {
            let (_, dw) = conv2d_backward(&x, &w, &gy, stride, 1, true).unwrap();
            dw
        });
        prop_assert!(r.is_ok(), "backward dw: {}", r.unwrap_err());
    }

    #[test]
    fn im2col_col2im_are_thread_count_invariant(
        geom in (1usize..4, 1usize..4, 5usize..12),
        seed in 0u64..1000,
    ) {
        let (n, c, hw) = geom;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let x = Tensor::randn([n, c, hw, hw], 1.0, &mut rng);
        let r = assert_thread_invariant(|| im2col(&x, 3, 1, 1).unwrap());
        prop_assert!(r.is_ok(), "im2col: {}", r.unwrap_err());
        let cols = im2col(&x, 3, 1, 1).unwrap();
        let g = Tensor::randn(cols.shape().clone(), 1.0, &mut rng);
        let r = assert_thread_invariant(|| col2im(&g, n, c, hw, hw, 3, 1, 1).unwrap());
        prop_assert!(r.is_ok(), "col2im: {}", r.unwrap_err());
    }

    #[test]
    fn elementwise_map_is_thread_count_invariant(
        len in 1usize..100_000,
        seed in 0u64..1000,
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let x = Tensor::randn([len], 2.0, &mut rng);
        let y = Tensor::randn([len], 2.0, &mut rng);
        let r = assert_thread_invariant(|| x.map(|v| (v * 1.3).tanh() + v.exp().min(10.0)));
        prop_assert!(r.is_ok(), "map: {}", r.unwrap_err());
        let r = assert_thread_invariant(|| x.zip_map(&y, |a, b| a * b + a / (b.abs() + 1.0)).unwrap());
        prop_assert!(r.is_ok(), "zip_map: {}", r.unwrap_err());
    }
}

#[test]
fn large_matmul_crosses_dispatch_threshold_and_matches() {
    // Deterministic large case well above MIN_PAR_WORK, checking the
    // pool path (not just the serial fallback) against serial output.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let a = Tensor::randn([128, 96], 1.0, &mut rng);
    let b = Tensor::randn([96, 112], 1.0, &mut rng);
    let serial = Runtime::new(1).install(|| matmul(&a, &b).unwrap());
    for threads in [2, 3, 4, 7, 16] {
        let par = Runtime::new(threads).install(|| matmul(&a, &b).unwrap());
        assert_eq!(serial, par, "threads={threads}");
    }
}
