//! Cross-crate integration: the full two-stage pipeline facade plus
//! checkpoint save/restore of the trained encoder.

use sdc::core::model::ModelConfig;
use sdc::core::pipeline::{run_pipeline, PipelineConfig};
use sdc::core::{ContrastScoringPolicy, ContrastiveModel, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::eval::{linear_probe, ProbeConfig};
use sdc::nn::checkpoint::{load_store, save_store};
use sdc::nn::models::EncoderConfig;

fn world() -> SynthConfig {
    SynthConfig { classes: 4, height: 10, width: 10, ..SynthConfig::default() }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        trainer: TrainerConfig {
            buffer_size: 8,
            model: ModelConfig {
                encoder: EncoderConfig::tiny(),
                projection_hidden: 16,
                projection_dim: 8,
                seed: 21,
            },
            seed: 21,
            ..TrainerConfig::default()
        },
        iterations: 25,
        label_fraction: 0.25,
        seed: 21,
    }
}

#[test]
fn two_stage_pipeline_yields_usable_classifier() {
    let mut stream = TemporalStream::new(SynthDataset::new(world()), 8, 2);
    let config = pipeline_config();
    let mut outcome =
        run_pipeline(&config, Box::new(ContrastScoringPolicy::new()), &mut stream).unwrap();
    assert_eq!(outcome.seen, 200);
    assert_eq!(outcome.labeled.len(), 50);

    // Stage 2 on the collected label budget; test set from the same world.
    let ds = SynthDataset::new(world());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let test = ds.balanced_set(8, &mut rng).unwrap();
    let result = linear_probe(
        &mut outcome.model,
        &outcome.labeled,
        &test,
        4,
        &ProbeConfig { epochs: 30, seed: 3, ..ProbeConfig::default() },
    )
    .unwrap();
    assert!(
        result.test_accuracy > 0.4,
        "pipeline classifier collapsed: {:.3} (chance 0.25)",
        result.test_accuracy
    );
}

#[test]
fn checkpoint_roundtrips_a_trained_model() {
    let mut stream = TemporalStream::new(SynthDataset::new(world()), 8, 4);
    let config = pipeline_config();
    let mut outcome =
        run_pipeline(&config, Box::new(ContrastScoringPolicy::new()), &mut stream).unwrap();

    let bytes = save_store(&outcome.model.store);
    // Restore into a freshly initialized model of the same architecture.
    let mut restored = ContrastiveModel::new(&config.trainer.model);
    load_store(&mut restored.store, &bytes).unwrap();

    // Both models must now produce identical projections.
    let probe_batch = {
        let ds = SynthDataset::new(world());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let samples = ds.balanced_set(2, &mut rng).unwrap();
        sdc::data::stack_images(&samples).unwrap()
    };
    let a = outcome.model.project(&probe_batch).unwrap();
    let b = restored.project(&probe_batch).unwrap();
    assert_eq!(a, b, "restored model must match the trained one exactly");
}
