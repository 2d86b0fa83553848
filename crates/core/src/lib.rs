//! # sdc-core
//!
//! The primary contribution of *Enabling On-Device Self-Supervised
//! Contrastive Learning With Selective Data Contrast* (Wu et al.,
//! DAC 2021): maintaining a single-mini-batch data buffer over a
//! temporally correlated unlabeled stream by **contrast scoring**, so
//! that on-device contrastive learning trains on the most informative
//! data without storing the stream.
//!
//! ## Components
//!
//! * [`score`] — the contrast score `S(x) = 1 − zᵀz⁺` over deterministic
//!   flip views (paper Eq. (2)–(3)).
//! * [`policy`] — the proposed [`policy::ContrastScoringPolicy`] plus the
//!   four label-free baselines the paper evaluates.
//! * [`lazy`] — the lazy re-scoring schedule (Eq. (7)–(8)).
//! * [`loss`] — the NT-Xent contrastive loss (Eq. (1)).
//! * [`trainer`] — the Stage-1 on-device training loop (Fig. 1).
//! * [`grad_analysis`] — the Eq. (5) per-sample gradient used to verify
//!   the score↔gradient link of §III-C.
//!
//! ## Quick example
//!
//! ```
//! use sdc_core::model::ModelConfig;
//! use sdc_core::policy::ContrastScoringPolicy;
//! use sdc_core::trainer::{StreamTrainer, TrainerConfig};
//! use sdc_data::stream::TemporalStream;
//! use sdc_data::synth::{SynthConfig, SynthDataset};
//! use sdc_nn::models::EncoderConfig;
//!
//! let config = TrainerConfig {
//!     buffer_size: 4,
//!     model: ModelConfig { encoder: EncoderConfig::tiny(), projection_hidden: 8, projection_dim: 4, seed: 0 },
//!     ..TrainerConfig::default()
//! };
//! let mut trainer = StreamTrainer::new(config, Box::new(ContrastScoringPolicy::new()));
//! let ds = SynthDataset::new(SynthConfig { classes: 3, height: 8, width: 8, ..SynthConfig::default() });
//! let mut stream = TemporalStream::new(ds, 4, 0);
//! trainer.run(&mut stream, 2, |_, report| {
//!     assert!(report.loss.is_finite());
//! })?;
//! # Ok::<(), sdc_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod grad_analysis;
pub mod lazy;
pub mod loss;
pub mod model;
pub mod pipeline;
pub mod policy;
pub mod score;
pub mod stats;
pub mod trainer;

pub use buffer::{BufferEntry, ReplayBuffer};
pub use lazy::LazySchedule;
pub use model::{ContrastiveModel, ModelConfig};
pub use pipeline::{run_pipeline, PipelineConfig, PipelineOutcome};
pub use policy::{
    ContrastScoringPolicy, FifoReplacePolicy, KCenterPolicy, RandomReplacePolicy,
    ReplacementOutcome, ReplacementPolicy, SelectiveBackpropPolicy,
};
pub use score::{contrast_scores, contrast_scores_shared, top_k_indices};
pub use trainer::{StepReport, StreamTrainer, TrainerConfig, UpdateTiming};
