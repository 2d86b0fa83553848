//! Kill-and-resume walkthrough: checkpoint a serving node mid-stream,
//! "kill" it (drop every live object), restore from the snapshot file,
//! and prove the resumed run is bit-identical to an uninterrupted one.
//!
//! This is the CI smoke for the persistence subsystem: it exits
//! nonzero if the resumed metrics differ from the uninterrupted
//! reference in a single bit.
//!
//! Run: `cargo run --release --example checkpoint_resume`

use std::time::Instant;

use sdc::core::model::ModelConfig;
use sdc::core::{ContrastScoringPolicy, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::{Sample, StreamId};
use sdc::nn::models::EncoderConfig;
use sdc::serve::{MultiStreamTrainer, NodeSnapshot, ServeConfig};

const STREAMS: usize = 3;
const ROUNDS_BEFORE: usize = 3;
const ROUNDS_AFTER: usize = 3;

fn config() -> TrainerConfig {
    TrainerConfig {
        buffer_size: 8,
        model: ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 16,
            projection_dim: 8,
            seed: 11,
        },
        seed: 11,
        ..TrainerConfig::default()
    }
}

fn streams() -> Vec<TemporalStream> {
    (0..STREAMS as u64)
        .map(|i| {
            let ds = SynthDataset::new(SynthConfig {
                classes: 4,
                height: 8,
                width: 8,
                ..SynthConfig::default()
            });
            TemporalStream::new(ds, 8, 300 + i)
        })
        .collect()
}

fn round_segments(
    sources: &mut [TemporalStream],
) -> Result<Vec<(StreamId, Vec<Sample>)>, sdc::tensor::TensorError> {
    sources.iter_mut().enumerate().map(|(i, s)| Ok((i as StreamId, s.next_segment(8)?))).collect()
}

fn run_rounds(
    driver: &mut MultiStreamTrainer,
    sources: &mut [TemporalStream],
    rounds: usize,
    losses: &mut Vec<f32>,
) -> Result<(), Box<dyn std::error::Error>> {
    for _ in 0..rounds {
        for report in driver.run_round(round_segments(sources)?)? {
            losses.push(report.loss);
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Reference: 6 rounds, never interrupted. ----
    let mut reference =
        MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
    let mut ref_sources = streams();
    let mut ref_losses = Vec::new();
    run_rounds(&mut reference, &mut ref_sources, ROUNDS_BEFORE + ROUNDS_AFTER, &mut ref_losses)?;

    // ---- Interrupted node: 3 rounds, checkpoint, die, restore, 3 more. ----
    let path = std::env::temp_dir().join("sdc_node_example.sdcs");
    let mut losses = Vec::new();
    let cursor_bytes: Vec<Vec<u8>> = {
        let mut node =
            MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
        let mut sources = streams();
        run_rounds(&mut node, &mut sources, ROUNDS_BEFORE, &mut losses)?;

        let t = Instant::now();
        let snapshot = node.snapshot()?;
        let size = snapshot.as_bytes().len();
        snapshot.write(&path)?;
        println!(
            "checkpointed {} streams after {ROUNDS_BEFORE} rounds: {size} bytes in {:.2?} -> {}",
            node.shards().shard_count(),
            t.elapsed(),
            path.display(),
        );
        sources.iter().map(sdc::persist::save_state).collect()
        // Scope end drops the node, its batcher thread, and the
        // streams: the in-process stand-in for a killed process.
    };

    let t = Instant::now();
    let snapshot = NodeSnapshot::read(&path)?;
    let mut node = MultiStreamTrainer::restore(
        config(),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
        &snapshot,
    )?;
    let mut sources = streams();
    for (s, bytes) in sources.iter_mut().zip(&cursor_bytes) {
        sdc::persist::load_state(s, bytes)?;
    }
    println!(
        "restored {} shards ({} buffered samples) at iteration {} in {:.2?}",
        node.shards().shard_count(),
        node.shards().total_len(),
        node.trainer().iteration(),
        t.elapsed(),
    );
    run_rounds(&mut node, &mut sources, ROUNDS_AFTER, &mut losses)?;
    std::fs::remove_file(&path)?;

    // ---- The resumed run must equal the uninterrupted one, bitwise. ----
    assert_eq!(losses.len(), ref_losses.len());
    for (i, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "loss {i} diverged after resume: {a} vs {b} — bit-identical restore is broken"
        );
    }
    let resumed_weights = node.trainer().model().store.params();
    let reference_weights = reference.trainer().model().store.params();
    for (a, b) in resumed_weights.iter().zip(reference_weights) {
        for (x, y) in a.value.data().iter().zip(b.value.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "weights diverged after resume ({})", a.name);
        }
    }
    println!(
        "resumed node matches the uninterrupted reference bit-for-bit \
         ({} losses, {} weight tensors); final mean loss {:.3}",
        losses.len(),
        resumed_weights.len(),
        losses[losses.len() - STREAMS..].iter().sum::<f32>() / STREAMS as f32,
    );
    Ok(())
}
