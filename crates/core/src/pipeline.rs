//! The complete two-stage on-device framework (paper Fig. 1) behind one
//! API: consume the unlabeled stream with selective data contrast
//! (Stage 1), send a small fraction of data "to the server" for labels,
//! and train the classifier on the frozen encoder (Stage 2).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdc_data::stream::TemporalStream;
use sdc_data::Sample;
use sdc_tensor::Result;

use crate::model::ContrastiveModel;
use crate::policy::ReplacementPolicy;
use crate::trainer::{StreamTrainer, TrainerConfig};

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Stage-1 trainer configuration.
    pub trainer: TrainerConfig,
    /// Stage-1 stream iterations (each consumes one buffer-sized segment).
    pub iterations: usize,
    /// Fraction of seen stream samples retained for server labeling
    /// (paper: 0.01). Sampling is uniform over the stream.
    pub label_fraction: f64,
    /// Seed for the labeling reservoir.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self { trainer: TrainerConfig::default(), iterations: 100, label_fraction: 0.01, seed: 0 }
    }
}

/// Outcome of a pipeline run: the trained encoder plus the labeled set
/// collected for Stage 2.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The Stage-1-trained model (encoder + projector).
    pub model: ContrastiveModel,
    /// Samples uniformly reserved from the stream for labeling. Their
    /// `label` fields simulate the server's annotations.
    pub labeled: Vec<Sample>,
    /// Total stream samples consumed.
    pub seen: u64,
    /// Mean contrastive loss over the final quarter of training.
    pub final_loss: f32,
}

/// Reservoir sampler keeping a uniform subset of a stream of unknown
/// length (Vitter's Algorithm R — the classical method the paper's
/// Random Replace baseline derives from).
#[derive(Debug)]
struct Reservoir {
    capacity: usize,
    seen: u64,
    items: Vec<Sample>,
    rng: StdRng,
}

impl Reservoir {
    /// Creates a reservoir holding at most `capacity` samples.
    fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offers one sample; it is kept with probability `capacity / seen`.
    fn offer(&mut self, sample: &Sample) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(sample.clone());
        } else {
            let j = self.rng.random_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = sample.clone();
            }
        }
    }
}

/// Runs the complete framework over a stream.
///
/// # Errors
///
/// Propagates stream and training errors.
pub fn run_pipeline(
    config: &PipelineConfig,
    policy: Box<dyn ReplacementPolicy>,
    stream: &mut TemporalStream,
) -> Result<PipelineOutcome> {
    let total_samples = config.iterations * config.trainer.buffer_size;
    let label_budget = ((total_samples as f64 * config.label_fraction).ceil() as usize).max(1);
    let mut reservoir = Reservoir::new(label_budget, config.seed);

    let mut trainer = StreamTrainer::new(config.trainer.clone(), policy);
    let mut tail_losses = Vec::new();
    let tail_start = config.iterations - config.iterations / 4;
    for iter in 0..config.iterations {
        let segment = stream.next_segment(config.trainer.buffer_size)?;
        for s in &segment {
            reservoir.offer(s);
        }
        let report = trainer.step(segment)?;
        if iter >= tail_start {
            tail_losses.push(report.loss);
        }
    }
    let final_loss = if tail_losses.is_empty() {
        f32::NAN
    } else {
        tail_losses.iter().sum::<f32>() / tail_losses.len() as f32
    };
    let seen = trainer.seen();
    Ok(PipelineOutcome { model: trainer.into_model(), labeled: reservoir.items, seen, final_loss })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::policy::ContrastScoringPolicy;
    use sdc_data::synth::{SynthConfig, SynthDataset};
    use sdc_nn::models::EncoderConfig;
    use sdc_tensor::Tensor;

    fn config() -> PipelineConfig {
        PipelineConfig {
            trainer: TrainerConfig {
                buffer_size: 6,
                model: ModelConfig {
                    encoder: EncoderConfig::tiny(),
                    projection_hidden: 8,
                    projection_dim: 4,
                    seed: 1,
                },
                seed: 1,
                ..TrainerConfig::default()
            },
            iterations: 10,
            label_fraction: 0.1,
            seed: 1,
        }
    }

    fn stream(seed: u64) -> TemporalStream {
        let ds = SynthDataset::new(SynthConfig {
            classes: 3,
            height: 8,
            width: 8,
            ..SynthConfig::default()
        });
        TemporalStream::new(ds, 6, seed)
    }

    #[test]
    fn pipeline_trains_and_collects_label_budget() {
        let mut s = stream(1);
        let outcome =
            run_pipeline(&config(), Box::new(ContrastScoringPolicy::new()), &mut s).unwrap();
        assert_eq!(outcome.seen, 60);
        // 10% of 60 = 6 labeled samples.
        assert_eq!(outcome.labeled.len(), 6);
        assert!(outcome.final_loss.is_finite());
    }

    #[test]
    fn reservoir_is_uniform_over_the_stream() {
        // Offer ids 0..1000, keep 100: the kept-id mean should be near
        // the stream midpoint rather than the start or end.
        let mut r = Reservoir::new(100, 42);
        for id in 0..1000u64 {
            r.offer(&Sample::new(Tensor::zeros([1, 1, 1]), 0, id));
        }
        assert_eq!(r.items.len(), 100);
        assert_eq!(r.seen, 1000);
        let mean: f64 = r.items.iter().map(|s| s.id as f64).sum::<f64>() / 100.0;
        assert!((300.0..700.0).contains(&mean), "kept-id mean {mean}");
    }

    #[test]
    fn reservoir_underfull_keeps_everything() {
        let mut r = Reservoir::new(10, 0);
        for id in 0..5u64 {
            r.offer(&Sample::new(Tensor::zeros([1, 1, 1]), 0, id));
        }
        assert_eq!(r.items.len(), 5);
    }
}
