//! Elementwise forward kernels.
//!
//! These back the [`Graph`](crate::Graph) unary ops: `exp`, `ln`,
//! `sqrt`, `tanh`, `sigmoid`, `clamp`, and elementwise division.
//!
//! Every function here is a thin shim over the runtime-dispatched
//! kernel descriptors in [`crate::simd`]. The closed-form derivatives
//! have no shim: the backward sweep runs the [`BinaryKernel`]
//! descriptors (`TanhBwd`, `ClampBwd`, …) directly over pooled
//! [`DestBuf`](crate::DestBuf) destinations.

use crate::error::{Result, TensorError};
use crate::simd::{self, BinaryKernel, UnaryKernel};
use crate::Tensor;

/// `y = exp(x)`.
pub fn exp_forward(x: &Tensor) -> Tensor {
    simd::unary(UnaryKernel::Exp, x)
}

/// `y = ln(max(x, eps))` — clamped to keep the log finite.
pub fn ln_forward(x: &Tensor, eps: f32) -> Tensor {
    simd::unary(UnaryKernel::Ln { eps }, x)
}

/// `y = sqrt(max(x, 0))`.
pub fn sqrt_forward(x: &Tensor) -> Tensor {
    simd::unary(UnaryKernel::Sqrt, x)
}

/// `y = tanh(x)`.
pub fn tanh_forward(x: &Tensor) -> Tensor {
    simd::unary(UnaryKernel::Tanh, x)
}

/// `y = 1 / (1 + exp(-x))`.
pub fn sigmoid_forward(x: &Tensor) -> Tensor {
    simd::unary(UnaryKernel::Sigmoid, x)
}

/// `y = clamp(x, lo, hi)`.
///
/// # Errors
///
/// Returns an error if `lo > hi`.
pub fn clamp_forward(x: &Tensor, lo: f32, hi: f32) -> Result<Tensor> {
    if lo > hi {
        return Err(TensorError::InvalidArgument {
            op: "clamp",
            message: format!("lo {lo} > hi {hi}"),
        });
    }
    Ok(simd::unary(UnaryKernel::Clamp { lo, hi }, x))
}

/// Elementwise division `a / b` (no zero-guard: callers clamp `b`).
///
/// # Errors
///
/// Returns an error if shapes differ.
pub fn div_forward(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    simd::binary(BinaryKernel::Div, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec([data.len()], data.to_vec()).unwrap()
    }

    #[test]
    fn exp_roundtrips_with_ln() {
        let x = t(&[0.5, 1.0, 2.0]);
        let back = ln_forward(&exp_forward(&x), 1e-12);
        for (a, b) in back.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sigmoid_saturates_correctly() {
        let y = sigmoid_forward(&t(&[-20.0, 0.0, 20.0]));
        assert!(y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_backward_is_one_at_origin() {
        let x = t(&[0.0]);
        let y = tanh_forward(&x);
        let dx = simd::binary(BinaryKernel::TanhBwd, &t(&[1.0]), &y).unwrap();
        assert!((dx.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clamp_blocks_gradient_outside() {
        let x = t(&[-2.0, 0.5, 3.0]);
        let y = clamp_forward(&x, 0.0, 1.0).unwrap();
        assert_eq!(y.data(), &[0.0, 0.5, 1.0]);
        let bwd = BinaryKernel::ClampBwd { lo: 0.0, hi: 1.0 };
        let dx = simd::binary(bwd, &t(&[1.0, 1.0, 1.0]), &x).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
        assert!(clamp_forward(&x, 2.0, 1.0).is_err());
    }

    #[test]
    fn div_matches_quotient_rule() {
        let a = t(&[4.0]);
        let b = t(&[2.0]);
        // The backward sweep's composition: da = g / b, db = -(g·a) / b².
        let g = t(&[1.0]);
        let da = simd::binary(BinaryKernel::Div, &g, &b).unwrap();
        let num = simd::binary(BinaryKernel::Mul, &g, &a).unwrap();
        let db = simd::binary(BinaryKernel::NegDivSq, &num, &b).unwrap();
        assert!((da.data()[0] - 0.5).abs() < 1e-6);
        assert!((db.data()[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn sqrt_handles_zero() {
        let y = sqrt_forward(&t(&[0.0, 4.0]));
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dx = simd::binary(BinaryKernel::SqrtBwd, &t(&[1.0, 1.0]), &y).unwrap();
        assert_eq!(dx.data()[0], 0.0);
        assert!((dx.data()[1] - 0.25).abs() < 1e-6);
    }
}
