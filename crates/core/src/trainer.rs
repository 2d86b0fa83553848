//! The Stage-1 on-device contrastive trainer (paper §III-A).
//!
//! Each step: (1) a stream segment `I` arrives; (2) the replacement
//! policy merges it into the buffer `B`; (3) the buffer contents form one
//! mini-batch; (4) two strongly augmented views are pushed through
//! encoder + projector and the NT-Xent loss updates the model once.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdc_data::augment::{strong_augmentation, Augment, Compose};
use sdc_data::stream::TemporalStream;
use sdc_data::{stack_image_tensors, Sample};
use sdc_nn::optim::Adam;
use sdc_nn::{Bindings, Forward};
use sdc_persist::{Persist, PersistError, StateReader, StateWriter};
use sdc_tensor::{Graph, Result, Tensor};

use crate::buffer::ReplayBuffer;
use crate::loss::nt_xent_loss;
use crate::model::{ContrastiveModel, ModelConfig, ModelParts};
use crate::policy::{ReplacementOutcome, ReplacementPolicy};
use crate::stats::SelectionStats;

/// Hyper-parameters of the stream trainer.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Buffer capacity `N` (= mini-batch size; the paper uses 256, the
    /// CPU-scaled defaults are smaller).
    pub buffer_size: usize,
    /// Contrastive temperature `τ`.
    pub temperature: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// ℓ2 weight decay (paper: 1e-4).
    pub weight_decay: f32,
    /// Model architecture.
    pub model: ModelConfig,
    /// Seed for augmentation randomness.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            buffer_size: 16,
            temperature: 0.5,
            learning_rate: 1e-3,
            weight_decay: 1e-4,
            model: ModelConfig::default(),
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// Scales the learning rate with buffer size following the paper's
    /// `lr ∝ √batch` scheme (§IV-E), relative to a reference size.
    pub fn scale_lr_for_buffer(&mut self, reference_size: usize) {
        let factor = (self.buffer_size as f32 / reference_size as f32).sqrt();
        self.learning_rate *= factor;
    }
}

/// Per-step report.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// NT-Xent loss of the update.
    pub loss: f32,
    /// Replacement bookkeeping from the policy.
    pub outcome: ReplacementOutcome,
    /// Wall-clock nanoseconds spent in data replacement (scoring).
    pub replace_nanos: u64,
    /// Wall-clock nanoseconds spent in the model update (augmentation +
    /// forward + backward + optimizer).
    pub update_nanos: u64,
    /// Nanoseconds of `update_nanos` spent building the forward tape
    /// (encoder/projector forward through the NT-Xent loss).
    pub forward_nanos: u64,
    /// Nanoseconds of `update_nanos` spent in the level-scheduled
    /// `Graph::backward` reverse sweep.
    pub backward_nanos: u64,
}

/// Wall-clock breakdown of one model update; both spans are subsets of
/// [`StepReport::update_nanos`] (augmentation and the optimizer step
/// make up the remainder).
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateTiming {
    /// Nanoseconds building the forward tape.
    pub forward_nanos: u64,
    /// Nanoseconds in `Graph::backward`.
    pub backward_nanos: u64,
}

/// The on-device self-supervised trainer: policy + buffer + model +
/// optimizer.
#[derive(Debug)]
pub struct StreamTrainer {
    model: ContrastiveModel,
    policy: Box<dyn ReplacementPolicy>,
    buffer: ReplayBuffer,
    optimizer: Adam,
    augmentation: Compose,
    rng: StdRng,
    config: TrainerConfig,
    iteration: u64,
    seen: u64,
    stats: SelectionStats,
}

impl StreamTrainer {
    /// Creates a trainer with a freshly initialized model.
    pub fn new(config: TrainerConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        let optimizer =
            Adam::with_options(config.learning_rate, 0.9, 0.999, 1e-8, config.weight_decay);
        Self {
            model: ContrastiveModel::new(&config.model),
            policy,
            buffer: ReplayBuffer::new(config.buffer_size),
            optimizer,
            augmentation: strong_augmentation(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            iteration: 0,
            seen: 0,
            stats: SelectionStats::default(),
        }
    }

    /// The trained model.
    pub fn model(&self) -> &ContrastiveModel {
        &self.model
    }

    /// Mutable access to the model (e.g. for evaluation probes).
    pub fn model_mut(&mut self) -> &mut ContrastiveModel {
        &mut self.model
    }

    /// Consumes the trainer, returning the model.
    pub fn into_model(self) -> ContrastiveModel {
        self.model
    }

    /// The data buffer.
    pub fn buffer(&self) -> &ReplayBuffer {
        &self.buffer
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Number of training iterations performed.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Number of stream samples consumed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Aggregated selection statistics.
    pub fn stats(&self) -> &SelectionStats {
        &self.stats
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Consumes one stream segment: replacement followed by one model
    /// update on the refreshed buffer.
    ///
    /// # Errors
    ///
    /// Propagates model and shape errors.
    pub fn step(&mut self, incoming: Vec<Sample>) -> Result<StepReport> {
        self.seen += incoming.len() as u64;
        let t_replace = Instant::now();
        let outcome = self.policy.replace(&mut self.model, &mut self.buffer, incoming)?;
        let replace_nanos = t_replace.elapsed().as_nanos() as u64;

        let t_update = Instant::now();
        let samples = self.buffer.samples();
        let (loss, timing) = self.update_on_timed(&samples)?;
        let update_nanos = t_update.elapsed().as_nanos() as u64;

        let report = StepReport {
            loss,
            outcome,
            replace_nanos,
            update_nanos,
            forward_nanos: timing.forward_nanos,
            backward_nanos: timing.backward_nanos,
        };
        self.stats.record(&report);
        Ok(report)
    }

    /// One optimizer update on an explicit mini-batch, bypassing the
    /// trainer's own buffer and policy — the hook serving layers use to
    /// train one shared model against **externally maintained** buffer
    /// shards (`sdc-serve`'s `ShardedBuffer`-style drivers replace
    /// into per-stream buffers, then feed each refreshed shard through
    /// here).
    ///
    /// Augmentation randomness and the iteration counter advance exactly
    /// as in the update phase of [`StreamTrainer::step`], so a
    /// single-stream serving driver reproduces the direct path
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty batch, and propagates model and
    /// shape errors.
    pub fn update_on(&mut self, samples: &[Sample]) -> Result<f32> {
        self.update_on_timed(samples).map(|(loss, _)| loss)
    }

    /// [`StreamTrainer::update_on`] plus a wall-clock breakdown of the
    /// forward tape build and the backward sweep — the two spans
    /// [`StepReport`] surfaces as `forward_nanos`/`backward_nanos` so
    /// the level scheduler's effect is measurable per step.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty batch, and propagates model and
    /// shape errors.
    pub fn update_on_timed(&mut self, samples: &[Sample]) -> Result<(f32, UpdateTiming)> {
        // Two independently strongly augmented views of the mini-batch.
        let view1: Vec<Tensor> =
            samples.iter().map(|s| self.augmentation.apply(&s.image, &mut self.rng)).collect();
        let view2: Vec<Tensor> =
            samples.iter().map(|s| self.augmentation.apply(&s.image, &mut self.rng)).collect();
        let v1 = stack_image_tensors(&view1)?;
        let v2 = stack_image_tensors(&view2)?;

        let t_forward = Instant::now();
        let mut graph = Graph::new();
        let mut bindings = Bindings::new();
        let loss_id = {
            let ModelParts { encoder, projector, store } = self.model.parts_mut();
            let mut ctx = Forward::new(&mut graph, store, &mut bindings, true);
            // The views take no gradient, so the stem conv skips its
            // input gradient.
            let x1 = ctx.graph.constant(v1);
            let x2 = ctx.graph.constant(v2);
            let h1 = sdc_nn::Module::forward(encoder, &mut ctx, x1)?;
            let h2 = sdc_nn::Module::forward(encoder, &mut ctx, x2)?;
            let p1 = sdc_nn::Module::forward(projector, &mut ctx, h1)?;
            let p2 = sdc_nn::Module::forward(projector, &mut ctx, h2)?;
            let z1 = ctx.graph.l2_normalize_rows(p1)?;
            let z2 = ctx.graph.l2_normalize_rows(p2)?;
            nt_xent_loss(ctx.graph, z1, z2, self.config.temperature)?
        };
        let forward_nanos = t_forward.elapsed().as_nanos() as u64;

        let t_backward = Instant::now();
        graph.backward(loss_id)?;
        let backward_nanos = t_backward.elapsed().as_nanos() as u64;

        self.model.store.zero_grads();
        bindings.accumulate_grads(&graph, &mut self.model.store);
        self.optimizer.step(&mut self.model.store);

        self.iteration += 1;
        Ok((graph.value(loss_id).item(), UpdateTiming { forward_nanos, backward_nanos }))
    }

    /// Convenience driver: consumes `iterations` segments of
    /// `buffer_size` samples from `stream`, invoking `on_step` after
    /// each update.
    ///
    /// # Errors
    ///
    /// Propagates stream and training errors.
    pub fn run(
        &mut self,
        stream: &mut TemporalStream,
        iterations: usize,
        mut on_step: impl FnMut(u64, &StepReport),
    ) -> Result<()> {
        for _ in 0..iterations {
            let segment = stream.next_segment(self.config.buffer_size)?;
            let report = self.step(segment)?;
            on_step(self.iteration, &report);
        }
        Ok(())
    }
}

/// Snapshot capture of the **full** trainer: model parameters and
/// running statistics, Adam moments, the augmentation PRNG position,
/// the replay buffer (scores and ages included), the iteration/seen
/// counters, the aggregated statistics, and the policy's own state via
/// [`ReplacementPolicy::save_state`]. Restoring into a trainer built
/// from the same [`TrainerConfig`] and policy type resumes training
/// **bit-identically** — the headline guarantee of the
/// `checkpoint_resume` integration suite.
///
/// The load is transactional: every component is decoded and validated
/// against scratch copies before anything on the live trainer mutates
/// (the policy, a boxed trait object, is the one exception — it is
/// restored last, so an earlier failure leaves the trainer untouched).
impl Persist for StreamTrainer {
    fn save(&self, w: &mut StateWriter) {
        self.model.store.save(w);
        self.optimizer.save(w);
        for s in self.rng.state() {
            w.put_u64(s);
        }
        self.buffer.save(w);
        w.put_u64(self.iteration);
        w.put_u64(self.seen);
        self.stats.save(w);
        // The policy payload is tagged with the policy's name so a
        // restore into a differently-typed policy is rejected before
        // load_state can misparse the bytes (and mutate the policy).
        w.put_str(self.policy.name());
        let mut policy = StateWriter::new();
        self.policy.save_state(&mut policy);
        w.put_bytes(&policy.into_bytes());
    }

    fn load(&mut self, r: &mut StateReader) -> std::result::Result<(), PersistError> {
        let mut store = self.model.store.clone();
        store.load(r)?;
        let mut optimizer = self.optimizer.clone();
        optimizer.load(r)?;
        let rng = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        let mut buffer = self.buffer.clone();
        buffer.load(r)?;
        let iteration = r.get_u64()?;
        let seen = r.get_u64()?;
        let mut stats = self.stats;
        stats.load(r)?;
        let policy_name = r.get_str()?;
        if policy_name != self.policy.name() {
            return Err(PersistError::StateMismatch {
                message: format!(
                    "snapshot policy is {policy_name:?}, this trainer runs {:?}",
                    self.policy.name()
                ),
            });
        }
        let policy_bytes = r.get_bytes()?;
        let mut policy_reader = StateReader::new(&policy_bytes);
        self.policy.load_state(&mut policy_reader)?;
        policy_reader.finish()?;
        self.model.store = store;
        self.optimizer = optimizer;
        self.rng = StdRng::from_state(rng);
        self.buffer = buffer;
        self.iteration = iteration;
        self.seen = seen;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ContrastScoringPolicy, FifoReplacePolicy, RandomReplacePolicy};
    use sdc_data::stream::TemporalStream;
    use sdc_data::synth::{SynthConfig, SynthDataset};
    use sdc_nn::models::EncoderConfig;

    fn tiny_config() -> TrainerConfig {
        TrainerConfig {
            buffer_size: 6,
            temperature: 0.5,
            learning_rate: 1e-3,
            weight_decay: 1e-4,
            model: ModelConfig {
                encoder: EncoderConfig::tiny(),
                projection_hidden: 8,
                projection_dim: 4,
                seed: 3,
            },
            seed: 3,
        }
    }

    fn tiny_stream(seed: u64) -> TemporalStream {
        // A gentle world: the unit test checks the optimization loop, not
        // dataset difficulty, so keep jitter/noise low enough for a tiny
        // encoder to make visible progress in a few dozen steps.
        let ds = SynthDataset::new(SynthConfig {
            classes: 4,
            height: 8,
            width: 8,
            shift: 0.1,
            brightness: 0.1,
            noise: 0.1,
            ..SynthConfig::default()
        });
        TemporalStream::new(ds, 6, seed)
    }

    #[test]
    fn training_reduces_contrastive_loss() {
        let mut trainer = StreamTrainer::new(tiny_config(), Box::new(ContrastScoringPolicy::new()));
        let mut stream = tiny_stream(1);
        let mut losses = Vec::new();
        trainer.run(&mut stream, 30, |_, r| losses.push(r.loss)).unwrap();
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "loss did not decrease: early {early}, late {late}");
        assert_eq!(trainer.iteration(), 30);
        assert_eq!(trainer.seen(), 30 * 6);
    }

    #[test]
    fn all_policies_drive_training() {
        for policy in [
            Box::new(ContrastScoringPolicy::new()) as Box<dyn ReplacementPolicy>,
            Box::new(RandomReplacePolicy::new(0)),
            Box::new(FifoReplacePolicy::new()),
        ] {
            let mut trainer = StreamTrainer::new(tiny_config(), policy);
            let mut stream = tiny_stream(2);
            trainer.run(&mut stream, 3, |_, r| assert!(r.loss.is_finite())).unwrap();
            assert_eq!(trainer.buffer().len(), 6);
        }
    }

    #[test]
    fn update_on_drives_externally_maintained_batches() {
        let mut trainer = StreamTrainer::new(tiny_config(), Box::new(ContrastScoringPolicy::new()));
        let batch = tiny_stream(9).next_segment(6).unwrap();
        let loss = trainer.update_on(&batch).unwrap();
        assert!(loss.is_finite());
        assert_eq!(trainer.iteration(), 1, "external updates count as iterations");
        assert_eq!(trainer.seen(), 0, "only `step` consumes stream samples");
        assert!(trainer.update_on(&[]).is_err(), "empty batches are rejected");
    }

    #[test]
    fn lr_buffer_scaling_follows_sqrt_rule() {
        let mut cfg = tiny_config();
        cfg.buffer_size = 64;
        cfg.learning_rate = 1e-3;
        cfg.scale_lr_for_buffer(16);
        assert!((cfg.learning_rate - 2e-3).abs() < 1e-9);
    }

    /// The single-process form of the headline guarantee: train N
    /// steps, checkpoint, restore into a fresh trainer, continue M
    /// steps — bit-identical to an uninterrupted N+M run (losses,
    /// weights, buffer contents, and policy/augmentation RNG draws).
    #[test]
    fn persist_resume_is_bit_identical_to_uninterrupted_run() {
        for policy in ["contrast", "random"] {
            let make_policy = || -> Box<dyn ReplacementPolicy> {
                match policy {
                    "contrast" => Box::new(ContrastScoringPolicy::with_schedule(
                        crate::lazy::LazySchedule::every(2),
                    )),
                    _ => Box::new(RandomReplacePolicy::new(5)),
                }
            };
            let fingerprint = |t: &StreamTrainer| {
                let weights: Vec<u32> = t
                    .model()
                    .store
                    .params()
                    .iter()
                    .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                    .collect();
                let entries: Vec<(u64, u32, u32)> = t
                    .buffer()
                    .entries()
                    .iter()
                    .map(|e| (e.sample.id, e.score.to_bits(), e.age))
                    .collect();
                (weights, entries, t.iteration(), t.seen())
            };

            // Uninterrupted reference: 6 steps straight through.
            let mut reference = StreamTrainer::new(tiny_config(), make_policy());
            let mut ref_stream = tiny_stream(8);
            reference.run(&mut ref_stream, 6, |_, _| {}).unwrap();

            // Interrupted run: 3 steps, checkpoint, fresh trainer +
            // stream restored from bytes, 3 more steps.
            let mut first = StreamTrainer::new(tiny_config(), make_policy());
            let mut stream = tiny_stream(8);
            first.run(&mut stream, 3, |_, _| {}).unwrap();
            let trainer_bytes = sdc_persist::save_state(&first);
            let stream_bytes = sdc_persist::save_state(&stream);
            drop(first);
            drop(stream);

            let mut resumed = StreamTrainer::new(tiny_config(), make_policy());
            sdc_persist::load_state(&mut resumed, &trainer_bytes).unwrap();
            let mut resumed_stream = tiny_stream(8);
            sdc_persist::load_state(&mut resumed_stream, &stream_bytes).unwrap();
            resumed.run(&mut resumed_stream, 3, |_, _| {}).unwrap();

            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&reference),
                "{policy}: resumed run diverged from the uninterrupted one"
            );
            assert_eq!(resumed.stats().steps(), 6, "stats accumulators resume too");
        }
    }

    #[test]
    fn trainer_is_deterministic_per_seed() {
        let run = || {
            let mut trainer =
                StreamTrainer::new(tiny_config(), Box::new(ContrastScoringPolicy::new()));
            let mut stream = tiny_stream(5);
            let mut last = 0.0;
            trainer.run(&mut stream, 5, |_, r| last = r.loss).unwrap();
            last
        };
        assert_eq!(run(), run());
    }
}
