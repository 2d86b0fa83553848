//! The column reduction behind `AddBias`'s bias gradient.
//!
//! A thin shim over the runtime-dispatched [`crate::simd::reduce`]
//! descriptor.

use crate::error::Result;
use crate::simd::{self, ReduceKernel};
use crate::Tensor;

/// Sums each *column* of an `(n, d)` tensor into a `(d)` vector.
///
/// Columns are split into fixed `COL_CHUNK`-wide pieces on the
/// worker pool; each column accumulates its rows in ascending order
/// regardless of chunking, so the result is bit-identical at any
/// thread count.
///
/// # Errors
///
/// Returns an error if the input is not rank-2.
pub fn sum_cols_forward(x: &Tensor) -> Result<Tensor> {
    simd::reduce(ReduceKernel::SumCols, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_cols() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(sum_cols_forward(&x).unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn rank_validation() {
        assert!(sum_cols_forward(&Tensor::zeros([2, 2, 2])).is_err());
    }
}
