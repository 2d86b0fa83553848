//! Normalization kernels: batch normalization and row-wise ℓ2 normalize.
//!
//! Row-wise ℓ2 normalization is a thin shim over the fused vectorized
//! forward kernel in [`crate::simd`] (the backward sweep calls
//! [`simd::l2_normalize_rows_backward`] directly); its per-row
//! norms travel as the typed [`RowNorms`] so callers can no longer
//! misalign a bare `Vec<f32>`. Batch normalization remains scalar.

use crate::error::{Result, TensorError};
use crate::simd::{self, RowNorms};
use crate::Tensor;

/// Per-channel statistics computed by a training-mode batch-norm forward
/// pass. The `var` field is the biased (population) variance used for
/// normalization; callers maintaining running statistics typically blend
/// these values into their buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct BnBatchStats {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel biased batch variance.
    pub var: Vec<f32>,
}

/// Saved values needed by the batch-norm backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BnSaved {
    /// Per-channel mean used during normalization.
    pub mean: Vec<f32>,
    /// Per-channel `1 / sqrt(var + eps)`.
    pub invstd: Vec<f32>,
    /// Whether the statistics were computed from the batch (training) or
    /// supplied externally (evaluation).
    pub train: bool,
}

/// Forward batch normalization over `(n, c, h, w)`, normalizing each
/// channel across the `n`, `h`, `w` axes:
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`.
///
/// In training mode (`stats == None`) the mean/variance are computed from
/// the batch and returned so the caller can update running buffers. In
/// evaluation mode the caller supplies `(mean, var)` and no stats are
/// returned.
///
/// # Errors
///
/// Returns an error on rank or channel mismatches.
pub fn batch_norm2d_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    stats: Option<(&[f32], &[f32])>,
) -> Result<(Tensor, BnSaved, Option<BnBatchStats>)> {
    let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "batch_norm2d",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::ShapeMismatch {
            op: "batch_norm2d",
            lhs: x.shape().clone(),
            rhs: gamma.shape().clone(),
        });
    }
    let m = (n * h * w) as f32;
    let xd = x.data();

    let (mean, var, train) = match stats {
        Some((mean, var)) => {
            if mean.len() != c || var.len() != c {
                return Err(TensorError::InvalidArgument {
                    op: "batch_norm2d",
                    message: format!("running stats length {} != channels {c}", mean.len()),
                });
            }
            (mean.to_vec(), var.to_vec(), false)
        }
        None => {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ni in 0..n {
                for (ci, acc) in mean.iter_mut().enumerate() {
                    let plane = (ni * c + ci) * h * w;
                    *acc += xd[plane..plane + h * w].iter().sum::<f32>();
                }
            }
            mean.iter_mut().for_each(|v| *v /= m);
            for ni in 0..n {
                for (ci, acc) in var.iter_mut().enumerate() {
                    let plane = (ni * c + ci) * h * w;
                    let mu = mean[ci];
                    *acc +=
                        xd[plane..plane + h * w].iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>();
                }
            }
            var.iter_mut().for_each(|v| *v /= m);
            (mean, var, true)
        }
    };

    let invstd: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let gd = gamma.data();
    let bd = beta.data();
    let mut y = Tensor::zeros(x.shape().clone());
    let yd = y.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            let (mu, is, g, b) = (mean[ci], invstd[ci], gd[ci], bd[ci]);
            for i in plane..plane + h * w {
                yd[i] = (xd[i] - mu) * is * g + b;
            }
        }
    }

    let batch_stats = train.then(|| BnBatchStats { mean: mean.clone(), var: var.clone() });
    Ok((y, BnSaved { mean, invstd, train }, batch_stats))
}

/// Backward batch normalization. Returns `(dx, dgamma, dbeta)`.
///
/// In evaluation mode the statistics are constants, so `dx` reduces to
/// `gy * gamma * invstd`.
pub fn batch_norm2d_backward(
    x: &Tensor,
    gamma: &Tensor,
    saved: &BnSaved,
    gy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = x.shape().as_nchw().expect("validated in forward");
    let m = (n * h * w) as f32;
    let xd = x.data();
    let gd = gamma.data();
    let gyd = gy.data();

    let mut dgamma = Tensor::zeros([c]);
    let mut dbeta = Tensor::zeros([c]);
    let mut dx = Tensor::zeros(x.shape().clone());

    // Per-channel reductions: sum(gy) and sum(gy * xhat).
    let mut sum_gy = vec![0.0f32; c];
    let mut sum_gy_xhat = vec![0.0f32; c];
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            let (mu, is) = (saved.mean[ci], saved.invstd[ci]);
            for i in plane..plane + h * w {
                let xhat = (xd[i] - mu) * is;
                sum_gy[ci] += gyd[i];
                sum_gy_xhat[ci] += gyd[i] * xhat;
            }
        }
    }
    dbeta.data_mut().copy_from_slice(&sum_gy);
    dgamma.data_mut().copy_from_slice(&sum_gy_xhat);

    let dxd = dx.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            let (mu, is, g) = (saved.mean[ci], saved.invstd[ci], gd[ci]);
            if saved.train {
                let s1 = sum_gy[ci] / m;
                let s2 = sum_gy_xhat[ci] / m;
                for i in plane..plane + h * w {
                    let xhat = (xd[i] - mu) * is;
                    dxd[i] = g * is * (gyd[i] - s1 - xhat * s2);
                }
            } else {
                for i in plane..plane + h * w {
                    dxd[i] = g * is * gyd[i];
                }
            }
        }
    }
    (dx, dgamma, dbeta)
}

/// Row-wise ℓ2 normalization of a rank-2 tensor: `y[i] = x[i] / ‖x[i]‖`.
///
/// Returns the normalized tensor and the typed per-row norms (clamped
/// away from zero by `eps`) needed by the backward pass.
///
/// # Errors
///
/// Returns an error if the input is not rank-2.
pub fn l2_normalize_rows_forward(x: &Tensor, eps: f32) -> Result<(Tensor, RowNorms)> {
    simd::l2_normalize_rows(x, eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bn_train_normalizes_to_zero_mean_unit_var() {
        let x = Tensor::from_vec([2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let gamma = Tensor::ones([1]);
        let beta = Tensor::zeros([1]);
        let (y, _, stats) = batch_norm2d_forward(&x, &gamma, &beta, 1e-5, None).unwrap();
        let stats = stats.unwrap();
        assert!((stats.mean[0] - 2.5).abs() < 1e-6);
        assert!((stats.var[0] - 1.25).abs() < 1e-6);
        assert!(y.mean().abs() < 1e-6);
        let var: f32 = y.data().iter().map(|&v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn bn_eval_uses_supplied_stats() {
        let x = Tensor::from_vec([1, 1, 1, 2], vec![3.0, 5.0]).unwrap();
        let gamma = Tensor::ones([1]);
        let beta = Tensor::zeros([1]);
        let mean = [1.0f32];
        let var = [4.0f32];
        let (y, saved, stats) =
            batch_norm2d_forward(&x, &gamma, &beta, 0.0, Some((&mean, &var))).unwrap();
        assert!(stats.is_none());
        assert!(!saved.train);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
        assert!((y.data()[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn bn_gamma_beta_affect_output() {
        let x = Tensor::from_vec([2, 1, 1, 1], vec![0.0, 2.0]).unwrap();
        let gamma = Tensor::full([1], 3.0);
        let beta = Tensor::full([1], 10.0);
        let (y, _, _) = batch_norm2d_forward(&x, &gamma, &beta, 1e-8, None).unwrap();
        // xhat = [-1, 1] so y = [-3 + 10, 3 + 10].
        assert!((y.data()[0] - 7.0).abs() < 1e-4);
        assert!((y.data()[1] - 13.0).abs() < 1e-4);
    }

    #[test]
    fn bn_backward_grads_sum_to_zero_in_train_mode() {
        // dx of train-mode BN is mean-free per channel by construction.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn([3, 2, 2, 2], 1.0, &mut rng);
        let gamma = Tensor::ones([2]);
        let beta = Tensor::zeros([2]);
        let (_, saved, _) = batch_norm2d_forward(&x, &gamma, &beta, 1e-5, None).unwrap();
        let gy = Tensor::randn(x.shape().clone(), 1.0, &mut rng);
        let (dx, _, dbeta) = batch_norm2d_backward(&x, &gamma, &saved, &gy);
        // Sum dx over each channel should vanish.
        let (n, c, h, w) = x.shape().as_nchw().unwrap();
        for ci in 0..c {
            let mut s = 0.0;
            for ni in 0..n {
                let plane = (ni * c + ci) * h * w;
                s += dx.data()[plane..plane + h * w].iter().sum::<f32>();
            }
            assert!(s.abs() < 1e-3, "channel {ci} sum {s}");
        }
        // dbeta is just sum(gy).
        let mut expect = 0.0;
        for ni in 0..n {
            let plane = (ni * c) * h * w;
            expect += gy.data()[plane..plane + h * w].iter().sum::<f32>();
        }
        assert!((dbeta.data()[0] - expect).abs() < 1e-3);
    }

    #[test]
    fn l2_normalize_rows_gives_unit_norm() {
        let x = Tensor::from_vec([2, 3], vec![3.0, 0.0, 4.0, 0.0, 5.0, 0.0]).unwrap();
        let (y, norms) = l2_normalize_rows_forward(&x, 1e-12).unwrap();
        assert!((norms[0] - 5.0).abs() < 1e-6);
        assert!((norms[1] - 5.0).abs() < 1e-6);
        for i in 0..2 {
            let n: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn l2_normalize_backward_is_orthogonal_to_y() {
        // The Jacobian projects out the y direction, so <dx, y_row> == 0
        // whenever gy is arbitrary.
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 2.0]).unwrap();
        let (y, norms) = l2_normalize_rows_forward(&x, 1e-12).unwrap();
        let gy = Tensor::from_vec([1, 3], vec![0.3, -1.0, 0.7]).unwrap();
        let dx = simd::l2_normalize_rows_backward(&y, &norms, &gy);
        let dot: f32 = dx.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        assert!(dot.abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_zero_row_is_safe() {
        let x = Tensor::zeros([1, 4]);
        let (y, _) = l2_normalize_rows_forward(&x, 1e-6).unwrap();
        assert!(y.all_finite());
    }
}
