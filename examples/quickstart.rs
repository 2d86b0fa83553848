//! Quickstart: the paper's two-stage on-device framework on an
//! unlabeled, temporally correlated stream with a one-mini-batch buffer.
//!
//! Run: `cargo run --release --example quickstart`

use sdc::core::model::ModelConfig;
use sdc::core::{run_pipeline, ContrastScoringPolicy, PipelineConfig, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{DatasetPreset, SynthDataset};
use sdc::eval::{linear_probe, ProbeConfig};
use sdc::nn::models::EncoderConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A CIFAR-10-like world streamed with strong temporal correlation
    //    (STC 32: 32 consecutive frames share a class, like a camera
    //    following one animal group).
    let preset = DatasetPreset::Cifar10Like;
    let dataset = SynthDataset::new(preset.config(0));
    let mut stream = TemporalStream::new(dataset, 32, 42);

    // 2. Stage 1: the trainer holds a buffer of just 16 samples and
    //    refreshes it with contrast scoring as each segment arrives,
    //    while a reservoir keeps a uniform 10% of the stream for the
    //    server to label (the paper sends ~1%, which here would be 10
    //    labels for 10 classes).
    let config = PipelineConfig {
        trainer: TrainerConfig {
            buffer_size: 16,
            temperature: 0.5,
            learning_rate: 2e-3,
            weight_decay: 1e-4,
            model: ModelConfig {
                encoder: EncoderConfig::small(),
                projection_hidden: 64,
                projection_dim: 32,
                seed: 42,
            },
            seed: 42,
        },
        iterations: 60,
        label_fraction: 0.1,
        seed: 7,
    };
    println!("training on the unlabeled stream (policy: contrast scoring) ...");
    let mut outcome = run_pipeline(&config, Box::new(ContrastScoringPolicy::new()), &mut stream)?;
    println!("  final-quarter loss {:.3}", outcome.final_loss);

    // 3. Stage 2: train a linear classifier on the frozen encoder with
    //    the labeled samples.
    let eval_ds = SynthDataset::new(preset.config(0));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let test = eval_ds.balanced_set(10, &mut rng)?;
    let result = linear_probe(
        &mut outcome.model,
        &outcome.labeled,
        &test,
        preset.classes(),
        &ProbeConfig::default(),
    )?;
    println!(
        "\nafter {} unlabeled stream samples + {} labels: test accuracy {:.1}%",
        outcome.seen,
        outcome.labeled.len(),
        result.test_accuracy * 100.0
    );
    Ok(())
}
