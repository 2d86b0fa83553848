//! Serving-node checkpoint/restore through the public API: a restored
//! [`MultiStreamTrainer`] must continue **bit-identically** to the node
//! it was captured from, including around the awkward edges — streams
//! deregistered before the snapshot and snapshots taken before any
//! round ran. (The cross-process, multi-thread-count headline suite
//! lives at the workspace root in `tests/checkpoint_resume.rs`.)

use sdc_core::model::ModelConfig;
use sdc_core::policy::ContrastScoringPolicy;
use sdc_core::TrainerConfig;
use sdc_data::stream::TemporalStream;
use sdc_data::synth::{SynthConfig, SynthDataset};
use sdc_data::{Sample, StreamId};
use sdc_nn::models::EncoderConfig;
use sdc_serve::{MultiStreamTrainer, NodeSnapshot, ServeConfig};

fn config() -> TrainerConfig {
    TrainerConfig {
        buffer_size: 4,
        model: ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 31,
        },
        seed: 31,
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

fn segments_for_round(streams: &mut [TemporalStream]) -> Vec<(StreamId, Vec<Sample>)> {
    streams
        .iter_mut()
        .enumerate()
        .map(|(i, s)| (i as StreamId, s.next_segment(4).unwrap()))
        .collect()
}

type Fingerprint = (Vec<u32>, Vec<(StreamId, u64, u32, u32)>, u64);

fn fingerprint(driver: &MultiStreamTrainer, losses: &[f32]) -> Fingerprint {
    let loss_bits = losses.iter().map(|l| l.to_bits()).collect();
    let entries = driver
        .shards()
        .iter()
        .flat_map(|(id, s)| {
            s.buffer().entries().iter().map(move |e| (id, e.sample.id, e.score.to_bits(), e.age))
        })
        .collect();
    (loss_bits, entries, driver.trainer().iteration())
}

#[test]
fn restored_node_continues_bit_identically() {
    // Reference: 3 rounds straight through.
    let mut reference =
        MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
    let mut ref_streams: Vec<TemporalStream> = (0..2).map(|i| stream(50 + i)).collect();
    let mut ref_losses = Vec::new();
    for _ in 0..3 {
        for r in reference.run_round(segments_for_round(&mut ref_streams)).unwrap() {
            ref_losses.push(r.loss);
        }
    }

    // Interrupted: 2 rounds, snapshot (driver + stream cursors), tear
    // everything down, restore, 1 more round.
    let mut original =
        MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
    let mut streams: Vec<TemporalStream> = (0..2).map(|i| stream(50 + i)).collect();
    let mut losses = Vec::new();
    for _ in 0..2 {
        for r in original.run_round(segments_for_round(&mut streams)).unwrap() {
            losses.push(r.loss);
        }
    }
    let node_bytes = original.snapshot().unwrap().into_bytes();
    let cursor_bytes: Vec<Vec<u8>> = streams.iter().map(sdc_persist::save_state).collect();
    drop(original);
    drop(streams);

    let snapshot = NodeSnapshot::from_bytes(node_bytes).unwrap();
    let mut restored = MultiStreamTrainer::restore(
        config(),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
        &snapshot,
    )
    .unwrap();
    let mut restored_streams: Vec<TemporalStream> = (0..2).map(|i| stream(999 + i)).collect();
    for (s, bytes) in restored_streams.iter_mut().zip(&cursor_bytes) {
        sdc_persist::load_state(s, bytes).unwrap();
    }
    for r in restored.run_round(segments_for_round(&mut restored_streams)).unwrap() {
        losses.push(r.loss);
    }

    assert_eq!(
        fingerprint(&restored, &losses),
        fingerprint(&reference, &ref_losses),
        "restored node diverged from the uninterrupted run"
    );
}

#[test]
fn restore_with_a_deregistered_stream_does_not_resurrect_it() {
    let mut driver =
        MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
    let mut a = stream(1);
    let mut b = stream(2);
    driver
        .run_round(vec![(0, a.next_segment(4).unwrap()), (1, b.next_segment(4).unwrap())])
        .unwrap();
    driver.drop_stream(1);
    let snapshot = driver.snapshot().unwrap();
    let (client_ids, shard_ids) = snapshot.stream_sets().unwrap();
    assert_eq!(client_ids, vec![0], "deregistered stream must not be captured");
    assert_eq!(shard_ids, vec![0]);

    let mut restored = MultiStreamTrainer::restore(
        config(),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
        &snapshot,
    )
    .unwrap();
    assert_eq!(restored.shards().shard_count(), 1);
    let reports = restored.run_round(vec![(0, a.next_segment(4).unwrap())]).unwrap();
    assert_eq!(reports.len(), 1);
}

#[test]
fn snapshot_before_any_round_restores_a_fresh_node() {
    let mut driver =
        MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
    driver.register(0);
    let snapshot = driver.snapshot().unwrap();
    drop(driver);

    let mut restored = MultiStreamTrainer::restore(
        config(),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
        &snapshot,
    )
    .unwrap();
    assert_eq!(restored.trainer().iteration(), 0);
    assert_eq!(restored.shards().shard_count(), 0, "no shard existed to capture");

    // A first round on the restored node equals a first round on a
    // fresh node: the snapshot held initial state, bit-exactly.
    let mut fresh =
        MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), ServeConfig::default());
    let segment = stream(9).next_segment(4).unwrap();
    let restored_reports = restored.run_round(vec![(0, segment.clone())]).unwrap();
    let fresh_reports = fresh.run_round(vec![(0, segment)]).unwrap();
    assert_eq!(restored_reports[0].loss.to_bits(), fresh_reports[0].loss.to_bits());
}
