//! Plain-value computation kernels.
//!
//! Each submodule provides forward kernels, plus the backward kernels
//! the autodiff sweep calls, operating on [`Tensor`](crate::Tensor)
//! values. The differentiable API that chains them into a graph lives
//! on [`Graph`](crate::Graph); the vectorized maps, the column sum and
//! the row kernels the softmax and ℓ2-norm modules shim over live in
//! [`simd`](crate::simd).

pub mod conv;
pub mod gemm;
pub mod matmul;
pub mod norm;
pub mod pool;
pub mod softmax;
