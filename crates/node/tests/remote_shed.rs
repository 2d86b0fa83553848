//! Service-side admission control, observed across the wire.
//!
//! The open-loop driver ([`run_open_loop`]) submits droppable requests
//! through a real TCP connection; the sheds it records are decided by
//! the server's batcher (the pending-samples backlog bound), not
//! precomputed client-side. With `max_pending: 0` the bound decides
//! alone — every droppable request is shed however fast the batcher
//! drains — so the outcome sequence is exact and the fingerprint
//! reproduces run over run: same seed ⇒ same fingerprint, across the
//! wire. The same driver against an in-process service gives the same
//! outcomes.

use std::sync::Arc;

use sdc_core::model::ModelConfig;
use sdc_core::score::contrast_scores_shared;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_node::{NodeClient, NodeServer, RemoteOutcome};
use sdc_obs::ArrivalProcess;
use sdc_serve::{run_open_loop, LoadConfig, LoadReport, ReplicaSet, ServeConfig, ShedCause};
use sdc_tensor::Tensor;

const REQUESTS: usize = 16;
const STREAMS: usize = 4;

fn tiny_model() -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed: 71,
    })
}

fn one_sample(seed: u64) -> Vec<Sample> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(900 + seed);
    vec![Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, seed)]
}

fn load_config(seed: u64) -> LoadConfig {
    LoadConfig {
        seed,
        requests: REQUESTS,
        streams: STREAMS,
        process: ArrivalProcess::Poisson { mean_gap_nanos: 50_000 },
    }
}

/// A one-replica set admitting at most `max_pending` droppable samples.
fn replica_set(max_pending: usize) -> Arc<ReplicaSet> {
    Arc::new(ReplicaSet::start(
        tiny_model(),
        ServeConfig { replicas: 1, max_pending, ..ServeConfig::default() },
    ))
}

/// A node over such a set, and a client connected to it.
fn start_node(max_pending: usize) -> (NodeServer, NodeClient) {
    let server = NodeServer::start(replica_set(max_pending)).expect("start server");
    let client = NodeClient::connect(server.addr()).expect("connect");
    (server, client)
}

/// One open-loop run against a node that admits no droppable work,
/// plus the node's stats scrape taken after every reply came back.
fn shedding_run(seed: u64) -> (LoadReport, String) {
    let (_server, client) = start_node(0);
    let report = run_open_loop(&client, &load_config(seed), one_sample).expect("open-loop run");
    (report, client.stats().expect("stats scrape"))
}

#[test]
fn backlog_sheds_follow_the_exact_admission_pattern() {
    let (report, scrape) = shedding_run(5);
    assert_eq!(report.outcomes, vec![RemoteOutcome::Shed(ShedCause::Backlog); REQUESTS]);
    // A remote operator sees the replica's sheds in the scrape.
    assert!(scrape.contains(&format!("\"shed_backlog\": {REQUESTS},")), "{scrape}");
    assert!(scrape.contains("\"batches\": 0,"), "{scrape}");
}

#[test]
fn guaranteed_requests_interleaved_with_sheds_are_scored() {
    let (_server, client) = start_node(0);
    let model = tiny_model();
    let tickets: Vec<_> = (0..8u64)
        .map(|i| {
            let stream = i % STREAMS as u64;
            let guaranteed = i % 2 == 0;
            let ticket = if guaranteed {
                client.submit(stream, one_sample(i))
            } else {
                client.try_submit(stream, one_sample(i))
            };
            (i, guaranteed, ticket.expect("submit"))
        })
        .collect();
    for (i, guaranteed, ticket) in tickets {
        match (guaranteed, ticket.wait_outcome().expect("reply")) {
            (true, RemoteOutcome::Scored(scores)) => {
                assert_eq!(scores, contrast_scores_shared(&model, &one_sample(i)).unwrap());
            }
            (false, RemoteOutcome::Shed(ShedCause::Backlog)) => {}
            (_, outcome) => panic!("request {i} (guaranteed: {guaranteed}): {outcome:?}"),
        }
    }
}

#[test]
fn same_seed_gives_the_same_fingerprint_across_the_wire() {
    let first = shedding_run(42).0;
    let second = shedding_run(42).0;
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "same seed produced different fingerprints: {:?} vs {:?}",
        first.outcomes,
        second.outcomes
    );
    // And the fingerprint is a faithful fold of the outcomes, not a
    // constant: flipping one outcome changes it.
    let mut tampered = first.clone();
    tampered.outcomes[0] = RemoteOutcome::Scored(Vec::new());
    assert_ne!(first.fingerprint(), tampered.fingerprint());
}

/// Outcomes with scores as bit patterns, so equality is bitwise.
fn outcome_bits(report: &LoadReport) -> Vec<Result<Vec<u32>, ShedCause>> {
    report
        .outcomes
        .iter()
        .map(|o| match o {
            RemoteOutcome::Scored(scores) => Ok(scores.iter().map(|v| v.to_bits()).collect()),
            RemoteOutcome::Shed(cause) => Err(*cause),
        })
        .collect()
}

/// With ample capacity the driver scores everything, bit-equal in
/// process and across the wire — the sheds above really are the
/// service's doing, not an artifact of the driver or the wire. With
/// `max_pending: 0` both sides shed everything.
#[test]
fn one_driver_gives_equal_outcomes_in_process_and_across_the_wire() {
    for max_pending in [ServeConfig::default().max_pending, 0] {
        let in_process = replica_set(max_pending);
        let local = run_open_loop(in_process.replica(0), &load_config(11), one_sample)
            .expect("in-process run");
        let (_server, client) = start_node(max_pending);
        let remote = run_open_loop(&client, &load_config(11), one_sample).expect("remote run");
        assert_eq!(outcome_bits(&local), outcome_bits(&remote), "max_pending {max_pending}");
        let expected = if max_pending == 0 { 0 } else { REQUESTS as u64 };
        assert_eq!(local.scored(), expected, "max_pending {max_pending}: {:?}", local.outcomes);
    }
}
