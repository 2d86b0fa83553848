//! # sdc-tensor
//!
//! A small, dependency-light CPU tensor library with reverse-mode
//! automatic differentiation, built as the numerical substrate for the
//! *Selective Data Contrast* (DAC 2021) reproduction.
//!
//! The library provides exactly the operations an on-device contrastive
//! learning pipeline records — dense matmul, direct convolution, batch
//! normalization, global average pooling, ReLU, bias, row-wise ℓ2
//! normalization, masking, log-softmax, and NLL — each with a
//! hand-written backward pass validated by the finite-difference harness
//! in [`gradcheck`].
//!
//! ## Quick example
//!
//! ```
//! use sdc_tensor::{Graph, Tensor};
//!
//! // loss = mean(relu(x)²-ish pipeline)
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec([2, 2], vec![1.0, -2.0, 3.0, -4.0])?);
//! let h = g.relu(x);
//! let loss = g.mean_all(h);
//! g.backward(loss)?;
//! assert_eq!(g.grad(x).unwrap().data(), &[0.25, 0.0, 0.25, 0.0]);
//! # Ok::<(), sdc_tensor::TensorError>(())
//! ```
//!
//! ## Design notes
//!
//! * [`Tensor`] is a plain value (shape + `Vec<f32>`); cloning copies.
//! * [`Graph`] is a write-once tape rebuilt every training step. Node
//!   handles ([`VarId`]) index the tape, so the tape order is already a
//!   topological order; backward runs it as level-scheduled wavefronts
//!   (independent nodes in parallel), bit-identical to the serial sweep.
//! * Model parameters live *outside* the graph (see `sdc-nn`) and are
//!   inserted as leaves each step; their gradients are read back after
//!   [`Graph::backward`].

#![warn(missing_docs)]

mod error;
pub mod gradcheck;
mod graph;
pub mod ops;
mod par;
mod shape;
pub mod simd;
mod tensor;

pub use error::{Result, TensorError};
pub use graph::{Graph, VarId};
pub use ops::norm::{BnBatchStats, BnSaved};
pub use shape::Shape;
pub use simd::RowNorms;
pub use tensor::Tensor;
