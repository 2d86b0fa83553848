//! # sdc-data
//!
//! Data substrate for the *Selective Data Contrast* (DAC 2021)
//! reproduction: procedural class-conditional image datasets standing in
//! for CIFAR-10/100, SVHN, and the ImageNet subsets (offline environment —
//! see `DESIGN.md` §2), temporally correlated non-iid streams
//! parameterized by the paper's STC metric, and the augmentation
//! pipelines contrastive learning needs.
//!
//! ```
//! use sdc_data::stream::TemporalStream;
//! use sdc_data::synth::{DatasetPreset, SynthDataset};
//!
//! // A CIFAR-10-like world streamed with STC = 500, as in the paper.
//! let ds = SynthDataset::new(DatasetPreset::Cifar10Like.config(0));
//! let mut stream = TemporalStream::new(ds, 500, 42);
//! let segment = stream.next_segment(16)?;
//! assert_eq!(segment.len(), 16);
//! # Ok::<(), sdc_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod augment;
mod sample;
pub mod stream;
pub mod synth;

pub use sample::{stack_image_tensors, stack_images, Sample};

/// Identifier of one logical stream within a multi-stream deployment.
///
/// The serve layer (`sdc-serve`) keys buffer shards and scoring-request
/// routing on this id.
pub type StreamId = u64;
