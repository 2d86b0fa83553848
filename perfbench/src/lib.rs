//! Statistics and result formatting of the SDC end-to-end benchmark.
//!
//! The workloads themselves live in the `perfbench` binary
//! (`src/main.rs`); this library holds the parts its tests check on their
//! own: the percentile rule, metric-name validation and the shape of the
//! result line.

pub mod result;
pub mod stats;
