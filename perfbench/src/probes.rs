//! Standalone layer probes run at the end of every traced run.

use std::sync::Arc;
use std::time::Instant;

use sdc::core::score::contrast_scores_shared;
use sdc::core::ContrastiveModel;
use sdc::node::{NodeClient, NodeServer};
use sdc::obs::Span;
use sdc::serve::{ReplicaSet, ServeConfig};
use sdc_perfbench::result::Outcome;
use sdc_perfbench::stats::median;

use crate::common::{self, ms, BenchResult, ComposedTrainer, StepParts, REQUEST_SAMPLES, SEGMENT};
use crate::layers::Layers;

/// Composed steps the step probe takes (after one untimed warm-up step).
const PROBE_STEPS: usize = 8;
/// Repetitions of the scoring-shape probe.
const SHAPE_REPS: usize = 5;
/// Repetitions of each idle round trip.
const IDLE_REPS: usize = 21;

/// The step decomposition, measured on a fresh composed trainer fed from
/// the run's seed — for workloads whose own operation is not a single
/// `StreamTrainer::step`.
pub fn steps(seed: u64) -> BenchResult<Vec<StepParts>> {
    let mut source = common::stream(seed, 99);
    let inputs = common::segments(&mut source, PROBE_STEPS + 1, SEGMENT)?;
    let mut trainer = ComposedTrainer::new(seed);
    let mut parts = Vec::with_capacity(PROBE_STEPS);
    for (i, segment) in inputs.into_iter().enumerate() {
        let (_, p) = trainer.step(segment)?;
        if i > 0 {
            parts.push(p);
        }
    }
    Ok(parts)
}

/// `contrast_scores_shared` on 64 fixed samples, as 8 calls of 8 and as
/// one call of 64, alternating; fills `core.score_us_per_sample.{b8,b64}`
/// and checks both shapes score bit-identically.
pub fn scoring_shape(layers: &mut Layers, out: &mut Outcome) -> BenchResult<()> {
    let model = ContrastiveModel::new(&common::model_config());
    let samples = common::fixed_samples(64)?;
    let (mut b8, mut b64) = (Vec::new(), Vec::new());
    for _ in 0..SHAPE_REPS {
        let span = Span::root("bench.probe.score_b8");
        let t = Instant::now();
        let mut split = Vec::with_capacity(64);
        for chunk in samples.chunks(8) {
            split.extend(contrast_scores_shared(&model, chunk)?);
        }
        b8.push(ms(t.elapsed()) * 1e3 / 64.0);
        drop(span);
        let span = Span::root("bench.probe.score_b64");
        let t = Instant::now();
        let whole = contrast_scores_shared(&model, &samples)?;
        b64.push(ms(t.elapsed()) * 1e3 / 64.0);
        drop(span);
        if bits(&split) != bits(&whole) {
            out.fail_check("scoring 8x8 and 1x64 disagree bitwise");
        }
    }
    layers.score_us_b8 = median(&b8).unwrap_or(0.0);
    layers.score_us_b64 = median(&b64).unwrap_or(0.0);
    Ok(())
}

/// Closed-loop idle round trips of one 8-sample request, each path on its
/// own replica set with a single registered stream: direct scoring, the
/// in-process scoring client, and the loopback `NodeClient`, interleaved.
/// The wire and hand-off costs are medians of the per-repetition
/// differences between neighbouring paths. Also times
/// `ReplicaSet::swap_model(model.clone())` into `serve.publish_ms` when
/// `with_publish` is set, and checks the three paths agree bitwise.
pub fn idle(layers: &mut Layers, out: &mut Outcome, with_publish: bool) -> BenchResult<()> {
    let model = ContrastiveModel::new(&common::model_config());
    let request = common::fixed_samples(REQUEST_SAMPLES)?;
    let serve_set = ReplicaSet::start(model.clone(), ServeConfig::default());
    let serve_client = serve_set.client(0);
    let node_set = Arc::new(ReplicaSet::start(model.clone(), ServeConfig::default()));
    let server = NodeServer::start(Arc::clone(&node_set))?;
    let node_client = NodeClient::connect(server.addr())?;

    let expected = bits(&contrast_scores_shared(&model, &request)?);
    let (mut core, mut serve, mut node, mut publish) = (vec![], vec![], vec![], vec![]);
    let (mut wire, mut handoff) = (vec![], vec![]);
    // One untimed round first: connection, registration and pool warm-up.
    node_client.score(0, request.clone())?;
    serve_client.score(request.clone())?;
    for _ in 0..IDLE_REPS {
        let span = Span::root("bench.probe.idle_core");
        let t = Instant::now();
        let direct = contrast_scores_shared(&model, &request)?;
        core.push(ms(t.elapsed()));
        drop(span);

        let span = Span::root("bench.probe.idle_serve");
        let t = Instant::now();
        let served = serve_client.score(request.clone())?;
        serve.push(ms(t.elapsed()));
        drop(span);

        let span = Span::root("bench.probe.idle_node");
        let t = Instant::now();
        let remote = node_client.score(0, request.clone())?;
        node.push(ms(t.elapsed()));
        drop(span);
        let n = node.len() - 1;
        wire.push(node[n] - serve[n]);
        handoff.push(serve[n] - core[n]);

        if bits(&direct) != expected || bits(&served) != expected || bits(&remote) != expected {
            out.fail_check("idle scoring paths disagree bitwise");
        }
        if with_publish {
            let span = Span::root("bench.probe.publish");
            let t = Instant::now();
            serve_set.swap_model(model.clone());
            publish.push(ms(t.elapsed()));
            drop(span);
        }
    }
    layers.core_score_ms_idle = median(&core).unwrap_or(0.0);
    layers.serve_rtt_ms_idle = median(&serve).unwrap_or(0.0);
    layers.node_rtt_ms_idle = median(&node).unwrap_or(0.0);
    layers.node_wire_ms = median(&wire).unwrap_or(0.0);
    layers.serve_handoff_ms = median(&handoff).unwrap_or(0.0);
    if with_publish {
        layers.publish_ms = median(&publish).unwrap_or(0.0);
    }
    Ok(())
}

/// Bit patterns of a score vector, for exact comparison.
pub fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|v| v.to_bits()).collect()
}
