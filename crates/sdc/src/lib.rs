//! # sdc
//!
//! Umbrella crate for the *Selective Data Contrast* (DAC 2021)
//! reproduction: re-exports the full stack under one dependency.
//!
//! * [`tensor`] — CPU tensors + reverse-mode autodiff.
//! * [`simd`] — the runtime-dispatched vectorized kernel layer behind
//!   the tensor ops (AVX2 or portable scalar, chosen once per process;
//!   `SDC_SIMD` overrides).
//! * [`nn`] — layers, the residual encoder, optimizers.
//! * [`data`] — synthetic datasets, STC streams, augmentations.
//! * [`core`] — contrast scoring, replacement policies, the on-device
//!   trainer (the paper's contribution).
//! * [`eval`] — linear/kNN probes, supervised baseline, learning curves.
//! * [`runtime`] — the parallel execution subsystem (worker pool,
//!   deterministic data-parallel kernels, bounded channels).
//! * [`serve`] — the batched scoring service layer (request
//!   coalescing, scoring replicas, per-stream buffer shards, the
//!   multi-stream trainer, the open-loop load driver).
//! * [`node`] — the networked serving node: the CRC-framed TCP
//!   front-end over the replica set, remote clients, and hot-standby
//!   snapshot shipping.
//! * [`persist`] — crash-safe checkpoint/restore: the checksummed
//!   snapshot container and the `Persist` state-capture trait.
//! * [`obs`] — the observability layer: the process-global metrics
//!   registry (counters and log-bucketed latency histograms with
//!   p50/p90/p99/p999), scope timers, span tracing, and the seeded
//!   arrival processes the load driver schedules from. Strictly
//!   observe-only; disable recording with `SDC_OBS=0`.
//!
//! ```
//! use sdc::core::{ContrastScoringPolicy, StreamTrainer, TrainerConfig};
//! use sdc::core::model::ModelConfig;
//! use sdc::data::stream::TemporalStream;
//! use sdc::data::synth::{SynthConfig, SynthDataset};
//! use sdc::nn::models::EncoderConfig;
//!
//! let config = TrainerConfig {
//!     buffer_size: 4,
//!     model: ModelConfig { encoder: EncoderConfig::tiny(), projection_hidden: 8, projection_dim: 4, seed: 0 },
//!     ..TrainerConfig::default()
//! };
//! let mut trainer = StreamTrainer::new(config, Box::new(ContrastScoringPolicy::new()));
//! let ds = SynthDataset::new(SynthConfig { classes: 3, height: 8, width: 8, ..SynthConfig::default() });
//! let mut stream = TemporalStream::new(ds, 4, 0);
//! trainer.run(&mut stream, 2, |_, _| {})?;
//! # Ok::<(), sdc::tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub use sdc_core as core;
pub use sdc_data as data;
pub use sdc_eval as eval;
pub use sdc_nn as nn;
pub use sdc_node as node;
pub use sdc_obs as obs;
pub use sdc_persist as persist;
pub use sdc_runtime as runtime;
pub use sdc_serve as serve;
pub use sdc_tensor as tensor;
pub use sdc_tensor::simd;
