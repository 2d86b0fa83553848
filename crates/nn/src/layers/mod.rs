//! Neural-network layers.

mod batchnorm;
mod conv;
mod linear;
mod pool;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::GlobalAvgPool;
