//! Dense matrix-multiplication kernels.
//!
//! These are the plain-value kernels; differentiable wrappers live on
//! [`Graph`](crate::Graph). All three entry points run the one register
//! tile in [`ops::gemm`](super::gemm), whatever the size. Each output
//! element is one chain from `+0.0` over ascending `k`, written by
//! exactly one fixed-size chunk of the `sdc-runtime` pool, so results
//! are **bit-identical** to [`gemm::naive`] at every thread count and
//! on every instruction set — see the `gemm` module docs for the
//! argument and `crates/tensor/tests/gemm_equivalence.rs` for the
//! enforcement.
//!
//! Unlike the original kernels, zero `A` elements are **not** skipped,
//! because the skip masks non-finite values: with it, `0 · ∞` gives
//! the skip's silent `0`; without it, `NaN` per IEEE 754, so a
//! non-finite operand is never hidden by a structural zero on the other
//! side. Speed is not the reason. The last measurement of the two naive
//! `i-k-j` loops (192³, one thread, AVX2 host) found the skip *faster*:
//! 1.13 ms vs 1.32 ms on dense inputs and 0.73 ms vs 1.01 ms with half
//! the `A` elements zero. The tile preserves these semantics exactly:
//! its zero-padded rows and lanes can internally produce
//! `0 · ∞ = NaN`, but they are never stored, so they are never folded
//! into a real output element.

use super::gemm::{self, Trans};
use crate::error::{Result, TensorError};
use crate::Tensor;

/// `C = A · B` for `A: (n, k)`, `B: (k, m)`.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the inner
/// dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm::gemm("matmul", a, Trans::N, b, Trans::N)
}

/// `C = A · Bᵀ` for `A: (n, k)`, `B: (m, k)`.
///
/// `B` is read through the packer's strided view — no transpose is
/// materialized.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm::gemm("matmul_nt", a, Trans::N, b, Trans::T)
}

/// `C = Aᵀ · B` for `A: (k, n)`, `B: (k, m)` — used by backward passes.
///
/// `A` is packed straight from its transposed storage, so no `O(nk)`
/// transposed copy is allocated. Per output element the accumulation is
/// still ascending-`k` with one accumulator, so the result is
/// bit-identical to the transpose-then-multiply form.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the shared
/// dimension disagrees.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm::gemm("matmul_tn", a, Trans::T, b, Trans::N)
}

/// Transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns an error if the operand is not rank-2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (n, m) = a.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
        op: "transpose",
        expected: 2,
        actual: a.shape().clone(),
    })?;
    let mut out = Tensor::zeros([m, n]);
    let ad = a.data();
    let od = out.data_mut();
    for i in 0..n {
        for j in 0..m {
            od[j * n + i] = ad[i * m + j];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: [usize; 2], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape, data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = t([2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t([3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = t([2, 3], &[0.0; 6]);
        let b = t([2, 3], &[0.0; 6]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t([2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t([4, 3], &[0.5, -1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, -2.0, 3.0, 0.5]);
        let via_nt = matmul_nt(&a, &b).unwrap();
        let via_t = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert_eq!(via_nt, via_t);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = t([3, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t([3, 4], &[0.5, -1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, -2.0, 3.0, 0.5]);
        let via_tn = matmul_tn(&a, &b).unwrap();
        let via_t = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(via_tn, via_t);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t([2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let back = transpose(&transpose(&a).unwrap()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn zero_width_operands_produce_empty_outputs() {
        // m == 0 leaves no output element to compute; no orientation may
        // panic on it.
        let a = t([2, 3], &[1.0; 6]);
        let b = Tensor::zeros([3, 0]);
        assert_eq!(matmul(&a, &b).unwrap().shape().dims(), &[2, 0]);
        let bt = Tensor::zeros([0, 3]);
        assert_eq!(matmul_nt(&a, &bt).unwrap().shape().dims(), &[2, 0]);
        let at = Tensor::zeros([3, 2]);
        let bz = Tensor::zeros([3, 0]);
        assert_eq!(matmul_tn(&at, &bz).unwrap().shape().dims(), &[2, 0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = t([2, 2], &[3.0, 1.0, -2.0, 5.0]);
        let eye = t([2, 2], &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &eye).unwrap(), a);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
    }
}
