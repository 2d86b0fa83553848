//! The serve layer's headline determinism guarantee: a single-stream
//! [`MultiStreamTrainer`] reproduces the direct
//! `ReplacementPolicy::replace` + `StreamTrainer::step` path
//! **bit-for-bit**, at every thread count — and multi-stream runs are
//! reproducible against themselves.

use sdc_core::model::ModelConfig;
use sdc_core::policy::ContrastScoringPolicy;
use sdc_core::{StreamTrainer, TrainerConfig};
use sdc_data::stream::TemporalStream;
use sdc_data::synth::{SynthConfig, SynthDataset};
use sdc_data::StreamId;
use sdc_nn::models::EncoderConfig;
use sdc_runtime::Runtime;
use sdc_serve::{MultiStreamTrainer, ServeConfig};

const ROUNDS: usize = 5;

fn config() -> TrainerConfig {
    TrainerConfig {
        buffer_size: 4,
        model: ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 21,
        },
        seed: 21,
        ..TrainerConfig::default()
    }
}

fn stream(seed: u64) -> TemporalStream {
    let ds = SynthDataset::new(SynthConfig {
        classes: 3,
        height: 8,
        width: 8,
        ..SynthConfig::default()
    });
    TemporalStream::new(ds, 4, seed)
}

/// (loss bits per step, buffered sample ids, buffered score bits).
type Fingerprint = (Vec<u32>, Vec<u64>, Vec<u32>);

fn direct_run(threads: usize) -> Fingerprint {
    Runtime::new(threads).install(|| {
        let mut trainer = StreamTrainer::new(config(), Box::new(ContrastScoringPolicy::new()));
        let mut source = stream(77);
        let mut losses = Vec::new();
        trainer.run(&mut source, ROUNDS, |_, report| losses.push(report.loss.to_bits())).unwrap();
        let ids = trainer.buffer().entries().iter().map(|e| e.sample.id).collect();
        let scores = trainer.buffer().entries().iter().map(|e| e.score.to_bits()).collect();
        (losses, ids, scores)
    })
}

fn served_run(threads: usize) -> Fingerprint {
    // The update phase runs on this thread, the scoring phase on the
    // service thread: pin both to the same pool size.
    Runtime::new(threads).install(|| {
        let mut driver = MultiStreamTrainer::new(
            config(),
            ContrastScoringPolicy::new(),
            ServeConfig { threads: Some(threads), ..ServeConfig::default() },
        );
        let mut source = stream(77);
        let mut losses = Vec::new();
        for _ in 0..ROUNDS {
            let segment = source.next_segment(config().buffer_size).unwrap();
            let reports = driver.run_round(vec![(0, segment)]).unwrap();
            assert_eq!(reports.len(), 1);
            losses.push(reports[0].loss.to_bits());
        }
        let shard = driver.shards().shard(0).unwrap();
        let ids = shard.buffer().entries().iter().map(|e| e.sample.id).collect();
        let scores = shard.buffer().entries().iter().map(|e| e.score.to_bits()).collect();
        (losses, ids, scores)
    })
}

#[test]
fn single_stream_serve_is_bit_identical_to_direct_replace_path() {
    let reference = direct_run(1);
    for threads in [1usize, 2, 7] {
        assert_eq!(
            direct_run(threads),
            reference,
            "direct path must be thread-count invariant (threads={threads})"
        );
        assert_eq!(
            served_run(threads),
            reference,
            "served path diverged from direct path at {threads} threads"
        );
    }
}

#[test]
fn multi_stream_rounds_are_reproducible() {
    let run = || {
        let mut driver = MultiStreamTrainer::new(
            config(),
            ContrastScoringPolicy::new(),
            ServeConfig { threads: Some(2), ..ServeConfig::default() },
        );
        let mut streams: Vec<TemporalStream> = (0..4).map(|i| stream(100 + i)).collect();
        let mut losses = Vec::new();
        for _ in 0..3 {
            let segments: Vec<(StreamId, Vec<_>)> = streams
                .iter_mut()
                .enumerate()
                .map(|(i, s)| (i as StreamId, s.next_segment(4).unwrap()))
                .collect();
            for report in driver.run_round(segments).unwrap() {
                losses.push(report.loss.to_bits());
            }
        }
        losses
    };
    // Batch composition follows arrival timing; the losses must not.
    assert_eq!(run(), run(), "multi-stream training must be reproducible");
}
