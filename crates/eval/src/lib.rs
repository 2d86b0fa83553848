//! # sdc-eval
//!
//! Evaluation protocols for the *Selective Data Contrast* (DAC 2021)
//! reproduction:
//!
//! * [`mod@linear_probe`] — the paper's Stage 2: a linear classifier on
//!   frozen encoder features, trained with a 1% / 10% / 100% label
//!   budget ([`split::labeled_fraction`]).
//! * [`knn`] — a training-free k-NN probe for cheap learning-curve
//!   checkpoints.
//! * [`supervised`] — the direct supervised baseline of §IV-B.
//! * [`curve`] — learning-curve recording plus the "inputs to reach X%"
//!   speedup arithmetic behind the paper's 2.67× claim.
//! * [`metrics`] — top-1 and top-k accuracy.

#![warn(missing_docs)]

pub mod curve;
pub mod features;
pub mod knn;
pub mod linear_probe;
pub mod metrics;
pub mod split;
pub mod supervised;

pub use curve::{CurvePoint, LearningCurve};
pub use features::extract_features;
pub use knn::{knn_predict, knn_probe};
pub use linear_probe::{linear_probe, ProbeConfig, ProbeResult};
pub use metrics::{accuracy, argmax_rows, top_k_accuracy};
pub use split::labeled_fraction;
pub use supervised::{supervised_baseline, SupervisedConfig};
