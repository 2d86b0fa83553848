//! Connection churn against the TCP front-end. Lives in its own
//! integration-test binary (own process) so the `/proc/self` fd and
//! thread counts it compares move only with this test's connections.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdc_core::model::ModelConfig;
use sdc_core::ContrastiveModel;
use sdc_data::Sample;
use sdc_nn::models::EncoderConfig;
use sdc_node::{NodeClient, NodeServer};
use sdc_serve::{ReplicaSet, ServeConfig};
use sdc_tensor::Tensor;

const CYCLES: usize = 300;
/// fds and threads the process may hold above its baseline once every
/// churned connection has closed.
const SLACK: usize = 4;

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir}: {e}")).count()
}

/// (open fds, threads) of this process.
fn usage() -> (usize, usize) {
    (entries("/proc/self/fd"), entries("/proc/self/task"))
}

#[test]
fn connect_close_cycles_return_fds_and_threads_to_baseline() {
    let model = ContrastiveModel::new(&ModelConfig {
        encoder: EncoderConfig::tiny(),
        projection_hidden: 8,
        projection_dim: 4,
        seed: 5,
    });
    let replicas = Arc::new(ReplicaSet::start(model, ServeConfig::default()));
    let server = NodeServer::start(replicas).expect("start server");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let batch: Vec<Sample> =
        (0..2).map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i as u64)).collect();
    // Scoring runs on the global pool, created on first use; create it
    // up front so its workers are part of the baseline.
    sdc_runtime::Runtime::global();
    let (base_fds, base_threads) = usage();

    for cycle in 0..CYCLES {
        let client = NodeClient::connect(server.addr()).expect("connect");
        let scores = client.score(cycle as u64, batch.clone()).expect("score");
        assert_eq!(scores.len(), batch.len());
    }

    // Each handler releases its connection as it exits, shortly after
    // its client hung up.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (fds, threads) = usage();
        if fds <= base_fds + SLACK && threads <= base_threads + SLACK {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "after {CYCLES} connect/close cycles: {fds} fds (baseline {base_fds}), \
             {threads} threads (baseline {base_threads})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
