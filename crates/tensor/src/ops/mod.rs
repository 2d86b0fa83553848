//! Plain-value computation kernels.
//!
//! Each submodule provides forward kernels, plus the backward kernels
//! the autodiff sweep calls, operating on [`Tensor`](crate::Tensor)
//! values. The differentiable API that chains them into a graph lives
//! on [`Graph`](crate::Graph).

pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod matmul;
pub mod norm;
pub mod pool;
pub mod reduce;
pub mod softmax;

/// The runtime-dispatched vectorized kernel layer the elementwise,
/// reduce, softmax, and ℓ2-norm modules above are thin shims over.
/// Re-exported here so kernel consumers can name descriptors as
/// `ops::kernels::UnaryKernel` without reaching around the ops facade.
pub use crate::simd as kernels;
