//! Runtime-dispatched vectorized kernels.
//!
//! This module is the unified ops surface behind the elementwise
//! `relu`/`scale` maps and the relu backward, the bias gradient's
//! column sum, the fused three-pass `log_softmax`, and
//! `l2_normalize_rows`. The register tiles of the matmul (`ops::gemm`)
//! and of the convolution (`ops::conv`) are written against the same
//! 8-lane abstraction and enter through the same dispatcher. Maps are
//! *descriptors* ([`UnaryKernel`]) evaluated by a dispatcher that picks
//! one instruction set **once per process**:
//!
//! * **AVX2** on `x86-64` when the CPU supports it, entered through a
//!   `#[target_feature(enable = "avx2")]` generic instantiation;
//! * a **portable scalar fallback** everywhere else.
//!
//! The choice can be overridden with the `SDC_SIMD` environment
//! variable (see [`SIMD_ENV`]): `SDC_SIMD=scalar` forces the fallback.
//! [`active_isa`] reports the decision.
//!
//! # The bitwise contract
//!
//! Every kernel body is written once, generically, against a **fixed
//! 8-lane vector abstraction** — the scalar fallback is the same code
//! instantiated with an `[f32; 8]` lane type. Each kernel defines a
//! canonical lane-accumulation order (documented in the `kernels`
//! submodule), tails run scalar code shared verbatim by both paths, and
//! comparison/selection semantics are pinned by explicit compare+blend.
//! Consequently the AVX2 and scalar paths are **bitwise identical**,
//! which `tests/simd_equivalence.rs` proves against the retained
//! [`scalar_ref`] reference at `SDC_THREADS` 1/2/7 — the same
//! equivalence pattern as `gemm_equivalence`/`backward_equivalence`.
//!
//! Threading: entry points parallelise through `par::dispatch_chunks`
//! with the historical chunk sizes (`ELEM_CHUNK`, `ROW_CHUNK`,
//! `COL_CHUNK`, all multiples of the lane width), so chunk boundaries —
//! and therefore results — are unchanged at any `SDC_THREADS`.
//!
//! Transcendentals (`exp` and the `ln` of log-softmax's row sum) use
//! Cephes-style polynomial evaluations (~2 ulp) rather than libm,
//! because libm is not vectorisable and its exact bits are not
//! reproducible across a lane abstraction; the polynomial definitions
//! here are canonical for this crate from now on.

#![deny(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx2;
mod kernels;
mod math;
mod vec;

use std::fmt;
use std::ops::Index;
use std::sync::OnceLock;

use crate::error::{Result, TensorError};
use crate::par;
use crate::Tensor;

pub(crate) use kernels::{dispatch_with, SimdOp};
pub(crate) use vec::{SimdF32, LANES};

use kernels::{
    L2NormBwdChunk, LogSoftmaxBwdChunk, LogSoftmaxChunk, ReluBwdChunk, RowDivChunk, RowNormsChunk,
    SumColsChunk, UnaryChunk,
};

/// Environment variable overriding the dispatched instruction set:
/// `scalar` forces the portable fallback; any other value leaves the
/// choice to runtime detection. Read once per process.
pub const SIMD_ENV: &str = "SDC_SIMD";

/// The instruction set a kernel dispatch runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar fallback: the generic kernels instantiated with
    /// an `[f32; 8]` lane group; correct on every architecture.
    Scalar,
    /// AVX2 256-bit path on `x86-64`, selected after runtime detection.
    Avx2,
}

impl Isa {
    /// Stable lowercase name (`"scalar"` / `"avx2"`), as recorded in
    /// bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_isa() -> Isa {
    if avx2::avx2_available() {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_isa() -> Isa {
    Isa::Scalar
}

/// The instruction set every kernel in this process dispatches to.
///
/// Decided once on first use: `SDC_SIMD=scalar` forces the fallback;
/// otherwise runtime feature detection picks AVX2 when the CPU has it.
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if std::env::var(SIMD_ENV).as_deref() == Ok("scalar") {
            Isa::Scalar
        } else {
            detect_isa()
        }
    })
}

/// Elementwise unary kernels. Each variant documents its canonical
/// semantics — what the dispatcher computes on every ISA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryKernel {
    /// `max(x, 0)` by compare+select (NaN and `-0.0` map to `+0.0`).
    Relu,
    /// `x * c`.
    Scale {
        /// The constant factor.
        c: f32,
    },
}

/// Per-row ℓ2 norms produced by [`l2_normalize_rows`], typed so callers
/// can no longer mix up which tensor a bare `Vec<f32>` belonged to. The
/// backward pass consumes it alongside the normalized output.
#[derive(Debug, Clone, PartialEq)]
pub struct RowNorms(Vec<f32>);

impl RowNorms {
    /// The norms as a slice, row-aligned with the normalized tensor.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }
}

impl Index<usize> for RowNorms {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

fn require_matrix(x: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    x.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
        op,
        expected: 2,
        actual: x.shape().clone(),
    })
}

fn unary_impl(k: UnaryKernel, x: &Tensor, isa: Isa) -> Tensor {
    let src = x.data();
    let mut y = Tensor::zeros(x.shape().clone());
    par::dispatch_chunks(y.data_mut(), par::ELEM_CHUNK, src.len(), |ci, piece| {
        let base = ci * par::ELEM_CHUNK;
        dispatch_with(isa, UnaryChunk { k, src: &src[base..base + piece.len()], dst: piece });
    });
    y
}

fn relu_backward_impl(gy: &Tensor, x: &Tensor, isa: Isa) -> Result<Tensor> {
    if gy.shape() != x.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "relu_backward",
            lhs: gy.shape().clone(),
            rhs: x.shape().clone(),
        });
    }
    let (gd, xd) = (gy.data(), x.data());
    let mut dx = Tensor::zeros(gy.shape().clone());
    par::dispatch_chunks(dx.data_mut(), par::ELEM_CHUNK, gd.len(), |ci, piece| {
        let base = ci * par::ELEM_CHUNK;
        let end = base + piece.len();
        dispatch_with(isa, ReluBwdChunk { gy: &gd[base..end], x: &xd[base..end], dst: piece });
    });
    Ok(dx)
}

fn sum_cols_impl(x: &Tensor, isa: Isa) -> Result<Tensor> {
    let (n, d) = require_matrix(x, "sum_cols")?;
    let xd = x.data();
    let mut out = Tensor::zeros([d]);
    par::dispatch_chunks(out.data_mut(), par::COL_CHUNK, n * d, |ci, piece| {
        let j0 = ci * par::COL_CHUNK;
        dispatch_with(isa, SumColsChunk { src: xd, n, d, j0, dst: piece });
    });
    Ok(out)
}

fn log_softmax_impl(x: &Tensor, isa: Isa) -> Result<Tensor> {
    let (n, d) = require_matrix(x, "log_softmax")?;
    let xd = x.data();
    let mut y = Tensor::zeros([n, d]);
    par::dispatch_chunks(y.data_mut(), par::ROW_CHUNK * d, n * d, |ci, piece| {
        let base = ci * par::ROW_CHUNK * d;
        dispatch_with(isa, LogSoftmaxChunk { src: &xd[base..base + piece.len()], d, dst: piece });
    });
    Ok(y)
}

fn log_softmax_backward_impl(y: &Tensor, gy: &Tensor, isa: Isa) -> Tensor {
    let (n, d) = y.shape().as_matrix().expect("validated in forward");
    let (yd, gd) = (y.data(), gy.data());
    let mut dx = Tensor::zeros([n, d]);
    par::dispatch_chunks(dx.data_mut(), par::ROW_CHUNK * d, n * d, |ci, piece| {
        let base = ci * par::ROW_CHUNK * d;
        let end = base + piece.len();
        dispatch_with(
            isa,
            LogSoftmaxBwdChunk { y: &yd[base..end], gy: &gd[base..end], d, dst: piece },
        );
    });
    dx
}

fn l2_normalize_rows_impl(x: &Tensor, eps: f32, isa: Isa) -> Result<(Tensor, RowNorms)> {
    let (n, d) = require_matrix(x, "l2_normalize_rows")?;
    let xd = x.data();

    // Pass 1: fused per-row sum-of-squares → sqrt → eps clamp.
    let mut norms = vec![0.0f32; n];
    par::dispatch_chunks(&mut norms, par::ROW_CHUNK, n * d, |ci, piece| {
        let row0 = ci * par::ROW_CHUNK;
        let src = &xd[row0 * d..(row0 + piece.len()) * d];
        dispatch_with(isa, RowNormsChunk { src, d, eps, dst: piece });
    });

    // Pass 2: rowwise divide by the norm.
    let mut y = Tensor::zeros([n, d]);
    par::dispatch_chunks(y.data_mut(), par::ROW_CHUNK * d, n * d, |ci, piece| {
        let row0 = ci * par::ROW_CHUNK;
        let rows = piece.len() / d.max(1);
        dispatch_with(
            isa,
            RowDivChunk {
                src: &xd[row0 * d..row0 * d + piece.len()],
                norms: &norms[row0..row0 + rows],
                d,
                dst: piece,
            },
        );
    });
    Ok((y, RowNorms(norms)))
}

fn l2_normalize_rows_backward_impl(y: &Tensor, norms: &RowNorms, gy: &Tensor, isa: Isa) -> Tensor {
    let (n, d) = y.shape().as_matrix().expect("validated in forward");
    let (yd, gd) = (y.data(), gy.data());
    let nd = norms.as_slice();
    let mut dx = Tensor::zeros([n, d]);
    par::dispatch_chunks(dx.data_mut(), par::ROW_CHUNK * d, n * d, |ci, piece| {
        let row0 = ci * par::ROW_CHUNK;
        let base = row0 * d;
        let end = base + piece.len();
        let rows = piece.len() / d.max(1);
        dispatch_with(
            isa,
            L2NormBwdChunk {
                y: &yd[base..end],
                gy: &gd[base..end],
                norms: &nd[row0..row0 + rows],
                d,
                dst: piece,
            },
        );
    });
    dx
}

/// Apply a unary kernel elementwise.
pub fn unary(k: UnaryKernel, x: &Tensor) -> Tensor {
    unary_impl(k, x, active_isa())
}

/// Relu backward: `gy` where `x > 0`, else `+0.0` (NaN `x` blocks the
/// gradient).
///
/// # Errors
///
/// Returns an error if the operand shapes differ.
pub fn relu_backward(gy: &Tensor, x: &Tensor) -> Result<Tensor> {
    relu_backward_impl(gy, x, active_isa())
}

/// Sums each column of an `(n, d)` tensor into a `(d)` vector: the
/// bias gradient of [`Graph::add_bias`](crate::Graph::add_bias).
///
/// Columns are split into fixed `COL_CHUNK`-wide pieces on the worker
/// pool and each column accumulates its rows in ascending order, so the
/// result is bit-identical at any thread count.
///
/// NaN contract: a column whose sum is NaN returns the canonical quiet
/// NaN `0x7fc00000`, whichever NaN operand (or `inf + -inf`) produced
/// it. IEEE-754 leaves the sign and payload of a propagated NaN
/// unspecified, and the optimizer does not preserve which operand an
/// `fadd` propagates, so only the canonical pattern is reproducible
/// across ISAs and builds. Non-NaN results are exact IEEE sums.
///
/// # Errors
///
/// Returns an error if the input is not rank-2.
pub fn sum_cols(x: &Tensor) -> Result<Tensor> {
    sum_cols_impl(x, active_isa())
}

/// Fused three-pass row-wise log-softmax (max / exp-sum / normalize).
///
/// # Errors
///
/// Returns an error if the input is not rank-2.
pub fn log_softmax(x: &Tensor) -> Result<Tensor> {
    log_softmax_impl(x, active_isa())
}

/// Backward of [`log_softmax`]: `dx = gy - exp(y)·rowsum(gy)`.
pub fn log_softmax_backward(y: &Tensor, gy: &Tensor) -> Tensor {
    log_softmax_backward_impl(y, gy, active_isa())
}

/// Row-wise ℓ2 normalization; returns the normalized tensor and the
/// typed per-row norms the backward pass needs.
///
/// # Errors
///
/// Returns an error if the input is not rank-2.
pub fn l2_normalize_rows(x: &Tensor, eps: f32) -> Result<(Tensor, RowNorms)> {
    l2_normalize_rows_impl(x, eps, active_isa())
}

/// Backward of [`l2_normalize_rows`]: `dx = (gy - y·⟨gy, y⟩)/norm`
/// per row.
pub fn l2_normalize_rows_backward(y: &Tensor, norms: &RowNorms, gy: &Tensor) -> Tensor {
    l2_normalize_rows_backward_impl(y, norms, gy, active_isa())
}

/// The retained scalar reference: every public entry point, forced onto
/// the portable scalar instantiation regardless of [`active_isa`].
///
/// `tests/simd_equivalence.rs` proves the dispatched path bitwise-equal
/// to these functions at `SDC_THREADS` 1/2/7 — the same role
/// `gemm::naive` plays for the matmul tile.
pub mod scalar_ref {
    use super::*;

    /// Scalar-reference [`super::unary`].
    pub fn unary(k: UnaryKernel, x: &Tensor) -> Tensor {
        unary_impl(k, x, Isa::Scalar)
    }

    /// Scalar-reference [`super::relu_backward`].
    ///
    /// # Errors
    ///
    /// Returns an error if the operand shapes differ.
    pub fn relu_backward(gy: &Tensor, x: &Tensor) -> Result<Tensor> {
        relu_backward_impl(gy, x, Isa::Scalar)
    }

    /// Scalar-reference [`super::sum_cols`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank-2.
    pub fn sum_cols(x: &Tensor) -> Result<Tensor> {
        sum_cols_impl(x, Isa::Scalar)
    }

    /// Scalar-reference [`super::log_softmax`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank-2.
    pub fn log_softmax(x: &Tensor) -> Result<Tensor> {
        log_softmax_impl(x, Isa::Scalar)
    }

    /// Scalar-reference [`super::log_softmax_backward`].
    pub fn log_softmax_backward(y: &Tensor, gy: &Tensor) -> Tensor {
        log_softmax_backward_impl(y, gy, Isa::Scalar)
    }

    /// Scalar-reference [`super::l2_normalize_rows`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank-2.
    pub fn l2_normalize_rows(x: &Tensor, eps: f32) -> Result<(Tensor, RowNorms)> {
        l2_normalize_rows_impl(x, eps, Isa::Scalar)
    }

    /// Scalar-reference [`super::l2_normalize_rows_backward`].
    pub fn l2_normalize_rows_backward(y: &Tensor, norms: &RowNorms, gy: &Tensor) -> Tensor {
        l2_normalize_rows_backward_impl(y, norms, gy, Isa::Scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_cols_sums_each_column() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(sum_cols(&x).unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_cols_rejects_non_matrices() {
        assert!(sum_cols(&Tensor::zeros([2, 2, 2])).is_err());
    }
}
