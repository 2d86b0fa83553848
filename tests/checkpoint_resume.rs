//! The persistence subsystem's headline guarantee, end to end: train a
//! multi-stream serving node for N rounds, checkpoint it (node snapshot
//! through the atomic file path + stream cursors), tear every live
//! object down as a process death would, restore into fresh state, and
//! continue for M rounds — **bit-identical** to an uninterrupted
//! N+M-round run, at `SDC_THREADS` 1, 2, and 7 (CI additionally runs
//! the whole suite under `SDC_THREADS=7`).
//!
//! Plus the container's corruption contract: a flipped byte anywhere in
//! a snapshot file is rejected with a typed checksum error, and every
//! truncation is rejected, never loaded.

use sdc::core::model::ModelConfig;
use sdc::core::{ContrastScoringPolicy, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::{Sample, StreamId};
use sdc::nn::models::EncoderConfig;
use sdc::persist::PersistError;
use sdc::serve::{MultiStreamTrainer, NodeSnapshot, ServeConfig};
use sdc_runtime::Runtime;

const STREAMS: usize = 2;
const ROUNDS_BEFORE: usize = 3;
const ROUNDS_AFTER: usize = 2;

fn config() -> TrainerConfig {
    TrainerConfig {
        buffer_size: 4,
        model: ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 17,
        },
        seed: 17,
        ..TrainerConfig::default()
    }
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig { threads: Some(threads), ..ServeConfig::default() }
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

fn streams() -> Vec<TemporalStream> {
    (0..STREAMS as u64).map(|i| stream(70 + i)).collect()
}

fn round_segments(sources: &mut [TemporalStream]) -> Vec<(StreamId, Vec<Sample>)> {
    sources
        .iter_mut()
        .enumerate()
        .map(|(i, s)| (i as StreamId, s.next_segment(4).unwrap()))
        .collect()
}

/// Everything observable about a finished run, bit-exact: per-update
/// losses, every model parameter, every shard entry (id, score bits,
/// age), and the iteration counter.
type Fingerprint = (Vec<u32>, Vec<u32>, Vec<(StreamId, u64, u32, u32)>, u64);

fn fingerprint(driver: &MultiStreamTrainer, losses: &[f32]) -> Fingerprint {
    let loss_bits = losses.iter().map(|l| l.to_bits()).collect();
    let weights = driver
        .trainer()
        .model()
        .store
        .params()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect();
    let entries = driver
        .shards()
        .iter()
        .flat_map(|(id, s)| {
            s.buffer().entries().iter().map(move |e| (id, e.sample.id, e.score.to_bits(), e.age))
        })
        .collect();
    (loss_bits, weights, entries, driver.trainer().iteration())
}

fn run_uninterrupted(threads: usize) -> Fingerprint {
    Runtime::new(threads).install(|| {
        let mut driver =
            MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), serve_config(threads));
        let mut sources = streams();
        let mut losses = Vec::new();
        for _ in 0..ROUNDS_BEFORE + ROUNDS_AFTER {
            for r in driver.run_round(round_segments(&mut sources)).unwrap() {
                losses.push(r.loss);
            }
        }
        fingerprint(&driver, &losses)
    })
}

fn run_with_mid_stream_restart(threads: usize) -> Fingerprint {
    let path = std::env::temp_dir().join(format!("sdc_checkpoint_resume_{threads}.sdcs"));
    Runtime::new(threads).install(|| {
        // Phase 1: train, checkpoint to disk, and "die".
        let cursor_bytes: Vec<Vec<u8>>;
        let mut losses = Vec::new();
        {
            let mut driver = MultiStreamTrainer::new(
                config(),
                ContrastScoringPolicy::new(),
                serve_config(threads),
            );
            let mut sources = streams();
            for _ in 0..ROUNDS_BEFORE {
                for r in driver.run_round(round_segments(&mut sources)).unwrap() {
                    losses.push(r.loss);
                }
            }
            driver.snapshot().unwrap().write(&path).unwrap();
            cursor_bytes = sources.iter().map(sdc::persist::save_state).collect();
            // Scope end drops the driver, its scoring service thread,
            // and the streams — the in-process stand-in for a crash.
        }

        // Phase 2: fresh process state, restored from the file.
        let snapshot = NodeSnapshot::read(&path).unwrap();
        let mut driver = MultiStreamTrainer::restore(
            config(),
            ContrastScoringPolicy::new(),
            serve_config(threads),
            &snapshot,
        )
        .unwrap();
        let mut sources: Vec<TemporalStream> =
            (0..STREAMS as u64).map(|i| stream(4000 + i)).collect();
        for (s, bytes) in sources.iter_mut().zip(&cursor_bytes) {
            sdc::persist::load_state(s, bytes).unwrap();
        }
        for _ in 0..ROUNDS_AFTER {
            for r in driver.run_round(round_segments(&mut sources)).unwrap() {
                losses.push(r.loss);
            }
        }
        std::fs::remove_file(&path).unwrap();
        fingerprint(&driver, &losses)
    })
}

#[test]
fn restart_is_bit_identical_to_uninterrupted_run_at_every_thread_count() {
    let reference = run_uninterrupted(1);
    for threads in [1usize, 2, 7] {
        assert_eq!(
            run_uninterrupted(threads),
            reference,
            "uninterrupted run must be thread-count invariant (threads={threads})"
        );
        assert_eq!(
            run_with_mid_stream_restart(threads),
            reference,
            "restored run diverged from the uninterrupted one at {threads} threads"
        );
    }
}

#[test]
fn flipped_bytes_anywhere_in_a_snapshot_are_rejected_with_checksum_errors() {
    let driver = MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), serve_config(1));
    let bytes = driver.snapshot().unwrap().into_bytes();
    NodeSnapshot::from_bytes(bytes.clone()).expect("pristine snapshot parses");

    // Every byte of the header region plus a prime-stride sweep of the
    // payload (the container's unit suite covers every byte
    // exhaustively on a small file).
    let positions =
        (0..bytes.len().min(256)).chain((256..bytes.len()).step_by(97)).chain([bytes.len() - 1]);
    for i in positions {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x20;
        match NodeSnapshot::from_bytes(corrupt) {
            Err(PersistError::ChecksumMismatch { .. }) => {}
            Err(other) => panic!("flip at byte {i}: expected checksum error, got {other}"),
            Ok(_) => panic!("flip at byte {i} loaded as a valid snapshot"),
        }
    }
}

#[test]
fn truncated_snapshots_are_rejected_not_loaded() {
    let driver = MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), serve_config(1));
    let bytes = driver.snapshot().unwrap().into_bytes();
    for cut in (0..bytes.len()).step_by(61).chain([bytes.len() - 1]) {
        assert!(
            NodeSnapshot::from_bytes(bytes[..cut].to_vec()).is_err(),
            "truncation at {cut} parsed"
        );
    }
}
