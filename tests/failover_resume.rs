//! Hot standby, end to end: a primary serving node trains and ships
//! its snapshots over TCP to a standby (full once, then section
//! deltas), dies mid-round with unshipped work in flight, and the
//! standby takes over from its store — finishing the schedule
//! **bit-identically** to an uninterrupted run, at `SDC_THREADS` 1, 2,
//! and 7 (CI additionally runs the whole suite under `SDC_THREADS=7`).
//!
//! Plus the shipping lane's failure contract: corrupt containers,
//! corrupt deltas, and deltas that arrive before any full snapshot are
//! rejected with typed errors and never clobber the standby store.

use std::sync::Arc;

use sdc::core::model::ModelConfig;
use sdc::core::{ContrastScoringPolicy, ContrastiveModel, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::{Sample, StreamId};
use sdc::nn::models::EncoderConfig;
use sdc::node::wire::Ship;
use sdc::node::{NodeClient, NodeServer, SnapshotShipper};
use sdc::persist::{StateReader, StateWriter};
use sdc::serve::{MultiStreamTrainer, ReplicaSet, ServeConfig};
use sdc_runtime::Runtime;

const STREAMS: usize = 2;
const ROUNDS_BEFORE: usize = 2;
const ROUNDS_AFTER: usize = 2;
/// before + the delta-shipped round + everything the standby finishes
/// (the first post-failover round replays the doomed one).
const ROUNDS_TOTAL: usize = ROUNDS_BEFORE + 1 + ROUNDS_AFTER;

fn config() -> TrainerConfig {
    TrainerConfig {
        buffer_size: 4,
        model: ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed: 23,
        },
        seed: 23,
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
    (0..STREAMS as u64).map(|i| stream(80 + i)).collect()
}

fn round_segments(sources: &mut [TemporalStream]) -> Vec<(StreamId, Vec<Sample>)> {
    sources
        .iter_mut()
        .enumerate()
        .map(|(i, s)| (i as StreamId, s.next_segment(4).unwrap()))
        .collect()
}

/// Serializes every stream cursor — the aux state shipped alongside
/// each snapshot so the standby resumes the *data* exactly where the
/// primary left it.
fn cursor_aux(sources: &[TemporalStream]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u64(sources.len() as u64);
    for s in sources {
        w.put_bytes(&sdc::persist::save_state(s));
    }
    w.into_bytes()
}

/// Rebuilds the streams from shipped aux bytes. The replacements are
/// seeded with decoys: every cursor bit must come from the aux state,
/// not from reconstruction.
fn restore_sources(aux: &[u8]) -> Vec<TemporalStream> {
    let mut r = StateReader::new(aux);
    let n = r.get_u64().expect("cursor count") as usize;
    let mut sources = Vec::with_capacity(n);
    for i in 0..n {
        let bytes = r.get_bytes().expect("cursor bytes");
        let mut s = stream(9000 + i as u64);
        sdc::persist::load_state(&mut s, &bytes).expect("restore cursor");
        sources.push(s);
    }
    r.finish().expect("no trailing aux bytes");
    sources
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

/// A standby "process": a node server whose replica set plays no part
/// until takeover — only its standby store matters here.
fn standby_server(threads: usize) -> NodeServer {
    let replicas =
        Arc::new(ReplicaSet::start(ContrastiveModel::new(&config().model), serve_config(threads)));
    NodeServer::start(replicas).expect("start standby server")
}

fn run_uninterrupted(threads: usize) -> Fingerprint {
    Runtime::new(threads).install(|| {
        let mut driver =
            MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), serve_config(threads));
        let mut sources = streams();
        let mut losses = Vec::new();
        for _ in 0..ROUNDS_TOTAL {
            for r in driver.run_round(round_segments(&mut sources)).unwrap() {
                losses.push(r.loss);
            }
        }
        fingerprint(&driver, &losses)
    })
}

fn run_with_failover(threads: usize) -> Fingerprint {
    Runtime::new(threads).install(|| {
        let standby = standby_server(threads);
        let mut losses = Vec::new();
        {
            // The primary: trains, ships after each checkpointable
            // round, and dies with a round of unshipped work.
            let client = NodeClient::connect(standby.addr()).expect("connect shipping lane");
            let mut shipper = SnapshotShipper::new();
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
            let first = shipper
                .ship(&client, &driver.snapshot().unwrap(), &cursor_aux(&sources))
                .expect("first ship");
            assert!(first.full, "first ship must send the full container");
            assert_eq!(first.reused, 0);

            for r in driver.run_round(round_segments(&mut sources)).unwrap() {
                losses.push(r.loss);
            }
            let second = shipper
                .ship(&client, &driver.snapshot().unwrap(), &cursor_aux(&sources))
                .expect("second ship");
            assert!(!second.full, "second ship must be a delta");
            assert!(
                second.reused >= 1,
                "unchanged sections (node/meta at minimum) must cross as bare CRCs"
            );
            assert!(
                second.wire_bytes < first.wire_bytes,
                "delta ({}) must be smaller than the full container ({})",
                second.wire_bytes,
                first.wire_bytes
            );

            // The doomed round: real training work that never ships.
            // Scope end is the kill — this round's effects must be
            // redone by the standby, not lost and not double-counted.
            let _ = driver.run_round(round_segments(&mut sources)).unwrap();
        }

        // Takeover: everything the standby knows is its store.
        let state = standby.take_standby().expect("standby store holds the last verified ship");
        let mut driver = MultiStreamTrainer::restore(
            config(),
            ContrastScoringPolicy::new(),
            serve_config(threads),
            &state.snapshot,
        )
        .expect("restore from shipped snapshot");
        let mut sources = restore_sources(&state.aux);
        for _ in 0..ROUNDS_AFTER {
            for r in driver.run_round(round_segments(&mut sources)).unwrap() {
                losses.push(r.loss);
            }
        }
        fingerprint(&driver, &losses)
    })
}

#[test]
fn standby_takeover_is_bit_identical_to_uninterrupted_run_at_every_thread_count() {
    let reference = run_uninterrupted(1);
    for threads in [1usize, 2, 7] {
        assert_eq!(
            run_uninterrupted(threads),
            reference,
            "uninterrupted run must be thread-count invariant (threads={threads})"
        );
        assert_eq!(
            run_with_failover(threads),
            reference,
            "failed-over run diverged from the uninterrupted one at {threads} threads"
        );
    }
}

#[test]
fn hostile_ships_are_rejected_and_never_clobber_the_standby_store() {
    Runtime::new(1).install(|| {
        let standby = standby_server(1);
        let client = NodeClient::connect(standby.addr()).expect("connect");

        // A delta before any full snapshot has no base to apply to.
        let err = client
            .ship(Ship::Delta { delta: vec![1, 2, 3], aux: Vec::new() })
            .expect_err("baseless delta must be rejected");
        assert!(err.to_string().contains("full snapshot"), "{err}");
        assert!(standby.standby_state().is_none(), "rejected ship must not install anything");

        // Install a known-good full snapshot with a marker aux.
        let driver =
            MultiStreamTrainer::new(config(), ContrastScoringPolicy::new(), serve_config(1));
        let good = driver.snapshot().unwrap().into_bytes();
        client
            .ship(Ship::Full { snapshot: good.clone(), aux: vec![0xAB] })
            .expect("pristine full ship");
        assert_eq!(standby.standby_state().expect("installed").aux, vec![0xAB]);

        // A corrupt full container: typed rejection, store untouched.
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        client
            .ship(Ship::Full { snapshot: corrupt, aux: vec![0xCD] })
            .expect_err("corrupt container must be rejected");
        assert_eq!(
            standby.standby_state().expect("still installed").aux,
            vec![0xAB],
            "rejected ship clobbered the standby store"
        );

        // A corrupt delta against a valid base: same contract.
        let base = sdc::persist::Snapshot::from_bytes(&good).unwrap();
        let (mut delta, _) = sdc::persist::encode_delta(&base, &base);
        let mid = delta.len() / 2;
        delta[mid] ^= 0x20;
        client
            .ship(Ship::Delta { delta, aux: vec![0xEF] })
            .expect_err("corrupt delta must be rejected");
        assert_eq!(standby.standby_state().expect("still installed").aux, vec![0xAB]);

        // And a pristine delta still lands afterwards — rejections
        // poison nothing.
        let (delta, stats) = sdc::persist::encode_delta(&base, &base);
        let sections = client.ship(Ship::Delta { delta, aux: vec![0x11] }).expect("clean delta");
        assert_eq!(sections as usize, stats.sections);
        assert_eq!(standby.standby_state().expect("updated").aux, vec![0x11]);
    });
}
