//! Row-wise log-softmax and negative log-likelihood kernels.
//!
//! `log_softmax` forward is a thin shim over the fused three-pass
//! vectorized kernel in [`crate::simd`] (max / exp-sum / normalize);
//! the backward sweep calls the matching
//! [`simd::log_softmax_backward`] directly. NLL stays scalar (it
//! is a sparse gather).

use crate::error::{Result, TensorError};
use crate::simd;
use crate::Tensor;

/// Row-wise log-softmax of a rank-2 tensor, computed stably by shifting by
/// the row maximum before exponentiating.
///
/// Rows may contain very negative entries (e.g. masked-out logits); those
/// positions simply receive probability ≈ 0.
///
/// # Errors
///
/// Returns an error if the input is not rank-2.
pub fn log_softmax_forward(x: &Tensor) -> Result<Tensor> {
    simd::log_softmax(x)
}

/// Mean negative log-likelihood: `-(1/n) Σ logp[i, targets[i]]`.
///
/// # Errors
///
/// Returns an error if `logp` is not rank-2, the target list length does
/// not match the row count, or any target is out of range.
pub fn nll_forward(logp: &Tensor, targets: &[usize]) -> Result<f32> {
    let (n, d) = logp.shape().as_matrix().ok_or_else(|| TensorError::RankMismatch {
        op: "nll",
        expected: 2,
        actual: logp.shape().clone(),
    })?;
    if targets.len() != n {
        return Err(TensorError::InvalidArgument {
            op: "nll",
            message: format!("{} targets for {n} rows", targets.len()),
        });
    }
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        if t >= d {
            return Err(TensorError::IndexOutOfBounds { op: "nll", index: t, bound: d });
        }
        loss -= logp.data()[i * d + t];
    }
    Ok(loss / n as f32)
}

/// Backward of mean NLL: the gradient w.r.t. `logp` is `-g/n` at each
/// target position and zero elsewhere.
pub fn nll_backward(logp_shape: (usize, usize), targets: &[usize], g: f32) -> Tensor {
    let (n, d) = logp_shape;
    let mut dx = Tensor::zeros([n, d]);
    let dxd = dx.data_mut();
    let scale = -g / n as f32;
    for (i, &t) in targets.iter().enumerate() {
        dxd[i * d + t] = scale;
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_softmax_rows_sum_to_one_in_prob_space() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let y = log_softmax_forward(&x).unwrap();
        for i in 0..2 {
            let s: f32 = y.row(i).iter().map(|&v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_is_shift_invariant() {
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let x_shift = x.map(|v| v + 100.0);
        let a = log_softmax_forward(&x).unwrap();
        let b = log_softmax_forward(&x_shift).unwrap();
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_handles_masked_entries() {
        let x = Tensor::from_vec([1, 3], vec![0.0, -1e9, 0.0]).unwrap();
        let y = log_softmax_forward(&x).unwrap();
        assert!(y.all_finite());
        assert!((y.data()[0] - (0.5f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn nll_picks_target_entries() {
        let logp = Tensor::from_vec([2, 2], vec![-0.5, -1.0, -2.0, -0.1]).unwrap();
        let loss = nll_forward(&logp, &[0, 1]).unwrap();
        assert!((loss - 0.3).abs() < 1e-6);
    }

    #[test]
    fn nll_rejects_bad_targets() {
        let logp = Tensor::zeros([2, 2]);
        assert!(nll_forward(&logp, &[0]).is_err());
        assert!(nll_forward(&logp, &[0, 5]).is_err());
    }

    #[test]
    fn nll_backward_hits_only_targets() {
        let dx = nll_backward((2, 3), &[2, 0], 1.0);
        assert_eq!(dx.data(), &[0.0, 0.0, -0.5, -0.5, 0.0, 0.0]);
    }

    #[test]
    fn fused_softmax_nll_gradient_is_p_minus_onehot() {
        // For loss = NLL(log_softmax(x)), dx = (softmax(x) - onehot)/n.
        let x = Tensor::from_vec([1, 3], vec![0.2, -0.3, 0.5]).unwrap();
        let y = log_softmax_forward(&x).unwrap();
        let gy = nll_backward((1, 3), &[1], 1.0);
        let dx = simd::log_softmax_backward(&y, &gy);
        let p: Vec<f32> = y.data().iter().map(|&v| v.exp()).collect();
        let expect = [p[0], p[1] - 1.0, p[2]];
        for (a, e) in dx.data().iter().zip(expect) {
            assert!((a - e).abs() < 1e-5, "{a} vs {e}");
        }
    }
}
