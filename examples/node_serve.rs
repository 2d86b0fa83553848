//! Loopback smoke run for the networked serving node.
//!
//! Starts a replicated scoring node behind its TCP front-end, then
//! checks the three wire-level guarantees end to end, exiting non-zero
//! on any divergence:
//!
//! 1. **Bit-identity** — scores fetched through the loopback TCP
//!    client equal in-process client scores equal direct model
//!    evaluation, bit for bit.
//! 2. **Reproducible outcomes** — two uncontended open-loop runs with
//!    the same seed produce the same outcome fingerprint across the
//!    wire.
//! 3. **Snapshot shipping** — a trained node's snapshot ships to a
//!    standby server (full, then delta with unchanged sections as bare
//!    CRCs) and restores to the same model bits.
//!
//! Run: `cargo run --release --example node_serve [-- <streams>]`
//! (default 4 streams).

use std::sync::Arc;
use std::time::Instant;

use sdc::core::model::ModelConfig;
use sdc::core::score::contrast_scores_shared;
use sdc::core::{ContrastScoringPolicy, ContrastiveModel, TrainerConfig};
use sdc::data::stream::TemporalStream;
use sdc::data::synth::{SynthConfig, SynthDataset};
use sdc::data::StreamId;
use sdc::nn::models::EncoderConfig;
use sdc::node::{NodeClient, NodeServer, SnapshotShipper};
use sdc::serve::{run_open_loop, LoadConfig, MultiStreamTrainer, ReplicaSet, ServeConfig};

const SEGMENT: usize = 8;

fn model_config() -> ModelConfig {
    ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 16,
        projection_dim: 8,
        seed: 7,
    }
}

fn stream(seed: u64) -> TemporalStream {
    let ds = SynthDataset::new(SynthConfig {
        classes: 4,
        height: 8,
        width: 8,
        ..SynthConfig::default()
    });
    TemporalStream::new(ds, 8, seed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let streams: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    assert!(streams >= 1, "need at least one stream");

    // ---- Part 1: remote scoring is bit-identical to in-process. ----
    let model = ContrastiveModel::new(&model_config());
    let reference = model.clone();
    let replicas =
        Arc::new(ReplicaSet::start(model, ServeConfig { replicas: 2, ..ServeConfig::default() }));
    let server = NodeServer::start(Arc::clone(&replicas))?;
    let client = NodeClient::connect(server.addr())?;
    println!("node listening on {} with 2 scoring replicas", server.addr());

    let started = Instant::now();
    let mut frames = 0u64;
    for id in 0..streams as StreamId {
        let segment = stream(id).next_segment(SEGMENT).expect("synthesis");
        let remote = client.score(id, segment.clone())?;
        let in_process = replicas.client(id).score(segment.clone())?;
        let direct = contrast_scores_shared(&reference, &segment)?;
        assert_eq!(remote, in_process, "stream {id}: remote != in-process (BIT DIVERGENCE)");
        assert_eq!(remote, direct, "stream {id}: remote != direct (BIT DIVERGENCE)");
        frames += 2; // request + reply
    }
    println!(
        "bit-identity: {streams} streams scored remotely == in-process == direct \
         ({frames} frames, {:.1?})",
        started.elapsed()
    );

    // ---- Part 2: same seed ⇒ same outcome fingerprint over the wire. ----
    let load = LoadConfig { seed: 42, streams, ..LoadConfig::default() };
    let run = |seed_tag: &str| {
        let report =
            run_open_loop(&client, &load, |i| stream(1000 + i).next_segment(2).expect("synthesis"))
                .expect("open-loop run");
        println!(
            "open-loop {seed_tag}: {} scored, {} shed, fingerprint {:#018x}",
            report.scored(),
            report.outcomes.len() as u64 - report.scored(),
            report.fingerprint()
        );
        report.fingerprint()
    };
    assert_eq!(run("run A"), run("run B"), "same-seed fingerprints diverged");

    // ---- Part 3: train, ship full + delta to a standby, restore. ----
    let standby_set =
        Arc::new(ReplicaSet::start(ContrastiveModel::new(&model_config()), ServeConfig::default()));
    let standby = NodeServer::start(standby_set)?;
    let ship_lane = NodeClient::connect(standby.addr())?;
    let mut shipper = SnapshotShipper::new();

    let trainer_config = TrainerConfig {
        buffer_size: 8,
        model: model_config(),
        seed: 7,
        ..TrainerConfig::default()
    };
    let mut driver = MultiStreamTrainer::new(
        trainer_config.clone(),
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
    );
    let mut sources: Vec<TemporalStream> = (0..streams as u64).map(stream).collect();
    for round in 0..2 {
        let segments: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(i, s)| (i as StreamId, s.next_segment(SEGMENT).expect("synthesis")))
            .collect();
        driver.run_round(segments)?;
        let report = shipper.ship(&ship_lane, &driver.snapshot()?, &[])?;
        println!(
            "ship after round {round}: {} ({} sections, {} reused, {} bytes on the wire)",
            if report.full { "full container" } else { "section delta" },
            report.sections,
            report.reused,
            report.wire_bytes
        );
    }

    let state = standby.take_standby().expect("standby store is populated");
    let restored = MultiStreamTrainer::restore(
        trainer_config,
        ContrastScoringPolicy::new(),
        ServeConfig::default(),
        &state.snapshot,
    )?;
    let original: Vec<u32> = driver
        .trainer()
        .model()
        .store
        .params()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect();
    let shipped: Vec<u32> = restored
        .trainer()
        .model()
        .store
        .params()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(original, shipped, "standby restored different model bits (BIT DIVERGENCE)");
    println!("failover: standby restored {} model parameters bit-identically", shipped.len());

    println!("OK");
    Ok(())
}
