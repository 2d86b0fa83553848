//! Global average pooling, the encoder's last spatial op.

use crate::error::{Result, TensorError};
use crate::Tensor;

/// Global average pooling `(n, c, h, w) -> (n, c)`.
///
/// # Errors
///
/// Returns an error if the input is not rank-4.
pub fn global_avg_pool_forward(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw().ok_or_else(|| TensorError::RankMismatch {
        op: "global_avg_pool",
        expected: 4,
        actual: x.shape().clone(),
    })?;
    let area = (h * w) as f32;
    let mut out = Tensor::zeros([n, c]);
    let xd = x.data();
    let od = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            od[ni * c + ci] = xd[plane..plane + h * w].iter().sum::<f32>() / area;
        }
    }
    Ok(out)
}

/// Backward of global average pooling: spreads each `(n, c)` gradient
/// uniformly over its `h*w` plane.
pub fn global_avg_pool_backward(gy: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Tensor {
    let area = (h * w) as f32;
    let mut gx = Tensor::zeros([n, c, h, w]);
    let gd = gy.data();
    let gxd = gx.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            let g = gd[ni * c + ci] / area;
            let plane = (ni * c + ci) * h * w;
            gxd[plane..plane + h * w].iter_mut().for_each(|v| *v += g);
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_means_planes() {
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0])
            .unwrap();
        let y = global_avg_pool_forward(&x).unwrap();
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_uniformly() {
        let gy = Tensor::from_vec([1, 2], vec![4.0, 8.0]).unwrap();
        let gx = global_avg_pool_backward(&gy, 1, 2, 2, 2);
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
