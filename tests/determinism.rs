//! Reproducibility: every stage of the stack is deterministic given its
//! seeds — the property the contrast score's design principle and all
//! experiment comparisons rest on.

use sdc::core::model::ModelConfig;
use sdc::core::score::contrast_scores;
use sdc::core::{ContrastScoringPolicy, ContrastiveModel, StreamTrainer, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::eval::{linear_probe, ProbeConfig};
use sdc::nn::models::EncoderConfig;

fn config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        buffer_size: 6,
        model: ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 16,
            projection_dim: 8,
            seed,
        },
        seed,
        ..TrainerConfig::default()
    }
}

fn world() -> SynthConfig {
    SynthConfig { classes: 4, height: 10, width: 10, ..SynthConfig::default() }
}

fn run_losses(seed: u64) -> Vec<f32> {
    let mut trainer = StreamTrainer::new(config(seed), Box::new(ContrastScoringPolicy::new()));
    let mut stream = TemporalStream::new(SynthDataset::new(world()), 8, seed);
    let mut losses = Vec::new();
    trainer.run(&mut stream, 8, |_, r| losses.push(r.loss)).unwrap();
    losses
}

#[test]
fn training_is_bitwise_deterministic_per_seed() {
    assert_eq!(run_losses(1), run_losses(1));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(run_losses(1), run_losses(2));
}

#[test]
fn scoring_is_repeatable_after_training() {
    // The §III-B design principle: the score is a function of (datum,
    // encoder) only — no hidden state, no randomness.
    let mut trainer = StreamTrainer::new(config(3), Box::new(ContrastScoringPolicy::new()));
    let mut stream = TemporalStream::new(SynthDataset::new(world()), 8, 3);
    trainer.run(&mut stream, 5, |_, _| {}).unwrap();
    let pool = stream.next_segment(12).unwrap();
    let a = contrast_scores(trainer.model_mut(), &pool).unwrap();
    let b = contrast_scores(trainer.model_mut(), &pool).unwrap();
    assert_eq!(a, b);
}

#[test]
fn probe_results_are_deterministic() {
    let ds = SynthDataset::new(world());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let train = ds.balanced_set(6, &mut rng).unwrap();
    let test = ds.balanced_set(4, &mut rng).unwrap();
    let cfg = ProbeConfig { epochs: 5, seed: 4, ..ProbeConfig::default() };
    let mut m1 = ContrastiveModel::new(&config(5).model);
    let mut m2 = ContrastiveModel::new(&config(5).model);
    let r1 = linear_probe(&mut m1, &train, &test, 4, &cfg).unwrap();
    let r2 = linear_probe(&mut m2, &train, &test, 4, &cfg).unwrap();
    assert_eq!(r1.test_accuracy, r2.test_accuracy);
    assert_eq!(r1.final_loss, r2.final_loss);
}
