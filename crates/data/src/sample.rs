//! Stream samples: an image plus ground-truth metadata.

use sdc_persist::{Persist, PersistError, StateReader, StateWriter};
use sdc_tensor::{Result, Tensor};
use serde::{Deserialize, Serialize};

/// One item of the input stream: a `(c, h, w)` image, its ground-truth
/// class, and a unique stream id.
///
/// The label is carried for *evaluation only* — the on-device learning
/// stage (`sdc-core`) never reads it, mirroring the paper's unlabeled
/// stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Image tensor of shape `(c, h, w)`.
    pub image: Tensor,
    /// Ground-truth class (hidden from the selection policies).
    pub label: usize,
    /// Unique, monotonically increasing stream position.
    pub id: u64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(image: Tensor, label: usize, id: u64) -> Self {
        Self { image, label, id }
    }

    /// Image channel count.
    pub fn channels(&self) -> usize {
        self.image.shape().dim(0)
    }
}

/// Snapshot capture of one sample (id, label, image), bit-exact. Unlike
/// the other [`Persist`] impls, `load` fully overwrites `self` — a
/// sample is pure data with no configured layout to validate against
/// (replay-buffer restore rebuilds entries from a placeholder).
impl Persist for Sample {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.id);
        w.put_u64(self.label as u64);
        w.put_tensor(&self.image);
    }

    fn load(&mut self, r: &mut StateReader) -> std::result::Result<(), PersistError> {
        self.id = r.get_u64()?;
        self.label = r.get_u64()? as usize;
        self.image = r.get_tensor()?;
        Ok(())
    }
}

/// Stacks sample images into a `(n, c, h, w)` batch tensor.
///
/// # Errors
///
/// Returns an error if `samples` is empty or image shapes differ.
pub fn stack_images(samples: &[Sample]) -> Result<Tensor> {
    let images: Vec<Tensor> = samples.iter().map(|s| s.image.clone()).collect();
    Tensor::stack(&images)
}

/// Stacks arbitrary image tensors into a batch.
///
/// # Errors
///
/// Returns an error if `images` is empty or shapes differ.
pub fn stack_image_tensors(images: &[Tensor]) -> Result<Tensor> {
    Tensor::stack(images)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        let image = Tensor::from_vec([1, 2, 2], vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        Sample::new(image, 7, 42)
    }

    #[test]
    fn stack_builds_batch_axis() {
        let s = sample();
        let batch = stack_images(&[s.clone(), s]).unwrap();
        assert_eq!(batch.shape().dims(), &[2, 1, 2, 2]);
    }
}
