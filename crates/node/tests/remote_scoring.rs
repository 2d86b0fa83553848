//! The node's determinism contract, end to end: scoring through the
//! loopback TCP front-end returns **exactly** the bytes that in-process
//! [`ScoringClient`] scoring returns, which in turn are exactly direct
//! single-threaded model evaluation — at worker thread counts 1, 2,
//! and 7, and identically *across* those counts. Scores are compared as
//! `f32` bit patterns, not with tolerances: the wire moves tensor bits,
//! and replicas publish the same model, so nothing may drift.
//!
//! [`ScoringClient`]: sdc_serve::ScoringClient

use std::sync::Arc;

use sdc_core::model::ModelConfig;
use sdc_core::score::contrast_scores_shared;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_node::{NodeClient, NodeServer, RemoteOutcome};
use sdc_serve::{ReplicaSet, ServeConfig, SubmitOpts};
use sdc_tensor::Tensor;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];
const STREAMS: u64 = 6;

fn tiny_model() -> ContrastiveModel {
    ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed: 61,
    })
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig { threads: Some(threads), replicas: 2, ..ServeConfig::default() }
}

/// Per-stream pools of varying size, so coalesced batches mix streams
/// and the composition-invariance of batch results is actually
/// exercised.
fn pools() -> Vec<Vec<Sample>> {
    (0..STREAMS)
        .map(|stream| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(700 + stream);
            let n = 2 + (stream as usize % 3);
            (0..n)
                .map(|i| {
                    Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, stream * 100 + i as u64)
                })
                .collect()
        })
        .collect()
}

fn score_bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Scores every pool in-process through a [`ReplicaSet`], then again
/// remotely through a loopback [`NodeServer`] over an identically
/// configured fresh set. Requests are pipelined (all submitted before
/// any reply is awaited) so server-side coalescing across streams is
/// real.
fn in_process_and_remote(threads: usize, pools: &[Vec<Sample>]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let in_process: Vec<Vec<u32>> = {
        let set = ReplicaSet::start(tiny_model(), serve_config(threads));
        let clients: Vec<_> = (0..STREAMS).map(|s| set.client(s)).collect();
        let tickets: Vec<_> = clients
            .iter()
            .zip(pools)
            .map(|(client, pool)| {
                client.submit(pool.clone(), SubmitOpts::default()).expect("in-process submit")
            })
            .collect();
        tickets.into_iter().map(|t| score_bits(&t.wait().expect("in-process scores"))).collect()
    };
    let remote: Vec<Vec<u32>> = {
        let set = Arc::new(ReplicaSet::start(tiny_model(), serve_config(threads)));
        let server = NodeServer::start(set).expect("start server");
        let client = NodeClient::connect(server.addr()).expect("connect");
        let tickets: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(s, pool)| client.submit(s as u64, pool.clone()).expect("remote submit"))
            .collect();
        tickets.into_iter().map(|t| score_bits(&t.wait().expect("remote scores"))).collect()
    };
    (in_process, remote)
}

#[test]
fn loopback_scoring_is_bit_identical_to_in_process_at_1_2_and_7_threads() {
    let pools = pools();
    let reference = tiny_model();
    let direct: Vec<Vec<u32>> = pools
        .iter()
        .map(|pool| score_bits(&contrast_scores_shared(&reference, pool).expect("direct score")))
        .collect();

    let mut per_thread_remote = Vec::new();
    for threads in THREAD_COUNTS {
        let (in_process, remote) = in_process_and_remote(threads, &pools);
        assert_eq!(
            remote, in_process,
            "remote vs in-process scoring diverged at {threads} threads"
        );
        assert_eq!(
            remote, direct,
            "remote scoring diverged from direct model evaluation at {threads} threads"
        );
        per_thread_remote.push(remote);
    }
    // And across thread counts: 1 == 2 == 7, bit for bit.
    assert_eq!(per_thread_remote[0], per_thread_remote[1], "threads 1 vs 2 diverged");
    assert_eq!(per_thread_remote[0], per_thread_remote[2], "threads 1 vs 7 diverged");
}

#[test]
fn droppable_submissions_score_identically_when_not_shed() {
    // `try_submit` over the wire takes the admission-control path; when
    // capacity is ample it must still produce the same bits as the
    // guaranteed path — shedding changes *whether* you get scores,
    // never *which* scores you get.
    let pools = pools();
    let reference = tiny_model();
    for threads in THREAD_COUNTS {
        let set = Arc::new(ReplicaSet::start(tiny_model(), serve_config(threads)));
        let server = NodeServer::start(set).expect("start server");
        let client = NodeClient::connect(server.addr()).expect("connect");
        let tickets: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(s, pool)| client.try_submit(s as u64, pool.clone()).expect("remote try_submit"))
            .collect();
        for (ticket, pool) in tickets.into_iter().zip(&pools) {
            match ticket.wait_outcome().expect("remote outcome") {
                RemoteOutcome::Scored(scores) => assert_eq!(
                    score_bits(&scores),
                    score_bits(&contrast_scores_shared(&reference, pool).expect("direct score")),
                    "droppable path diverged at {threads} threads"
                ),
                RemoteOutcome::Shed(cause) => {
                    panic!("uncontended droppable request was shed ({cause:?})")
                }
            }
        }
    }
}
