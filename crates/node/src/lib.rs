//! # sdc-node
//!
//! The **networked serving node** of the *Selective Data Contrast*
//! stack: replicated scoring behind a CRC-framed TCP front-end, with
//! hot-standby failover via snapshot shipping. This is the scale-out
//! tier the roadmap's "millions of users" direction called for — the
//! serve layer batches one process's streams; this crate puts that
//! process on the network and gives it a failover twin.
//!
//! Three pieces:
//!
//! * [`wire`] — the length-prefixed, CRC-framed wire protocol
//!   (`"SDCF"` frames carrying state-codec messages; every hostile
//!   input rejected with a typed [`NodeError`] **before** any
//!   allocation sizes itself from attacker-controlled lengths).
//! * [`NodeServer`] / [`NodeClient`] — a pipelined request/reply
//!   front-end over an [`sdc_serve::ReplicaSet`]: remote clients
//!   submit segments for scoring (guaranteed or droppable) and receive
//!   score slices or typed `Shed` replies, bit-identical to in-process
//!   scoring.
//! * [`SnapshotShipper`] + the server's standby store — hot standby:
//!   the primary streams `NodeSnapshot`s after each round, unchanged
//!   sections crossing the wire as a 4-byte CRC
//!   (`sdc_persist::encode_delta`); on a primary kill the standby
//!   rebuilds from its store and continues **bit-identically**
//!   (`tests/failover_resume.rs`).
//!
//! ## Observability
//!
//! While tracing is enabled (`SDC_TRACE`), scoring frames carry a
//! 16-byte trace-context extension
//! ([`wire::write_frame_ext`]), so one trace connects the
//! [`NodeClient`]'s request span, the server's handler span, and the
//! replica batcher's phase spans across the TCP boundary — export it
//! with `sdc_obs::chrome_trace_json`. [`NodeClient::stats`] scrapes
//! the server's live metrics snapshot and each replica's counters and
//! per-stream latency breakdown over the wire (a `Stats` request)
//! without quiescing anything. The node's own metrics live under the `node.*`
//! namespaces documented in `sdc_obs`.
//!
//! ## Determinism contract
//!
//! Remote scoring returns exactly the bytes in-process scoring would:
//! the TCP layer moves samples and scores bit-exactly (tensor bits,
//! not text), replicas score with the same published model, and batch
//! results are composition-invariant (the serve-layer contract). The
//! equivalence holds at `SDC_THREADS` 1, 2, and 7
//! (`tests/remote_scoring.rs`).

#![deny(missing_docs)]

mod client;
mod error;
mod server;
pub mod wire;

pub use client::{NodeClient, RemoteTicket, ShipReport, SnapshotShipper};
pub use error::NodeError;
/// A remote request's outcome: the serve layer's [`ScoreOutcome`]
/// under the name `perfbench` imports.
///
/// [`ScoreOutcome`]: sdc_serve::ScoreOutcome
pub use sdc_serve::ScoreOutcome as RemoteOutcome;
pub use server::{NodeServer, StandbyState};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sdc_core::model::ModelConfig;
    use sdc_core::score::contrast_scores_shared;
    use sdc_core::ContrastiveModel;
    use sdc_data::Sample;
    use sdc_nn::models::EncoderConfig;
    use sdc_serve::{ReplicaSet, ServeConfig};
    use sdc_tensor::Tensor;

    use super::*;

    fn tiny_model(seed: u64) -> ContrastiveModel {
        ContrastiveModel::new(&ModelConfig {
            encoder: EncoderConfig::tiny(),
            projection_hidden: 8,
            projection_dim: 4,
            seed,
        })
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        (0..n).map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i as u64)).collect()
    }

    #[test]
    fn loopback_scoring_matches_direct_scoring_bit_exactly() {
        let model = tiny_model(11);
        let reference = model.clone();
        let replicas = Arc::new(ReplicaSet::start(
            model,
            ServeConfig { replicas: 2, ..ServeConfig::default() },
        ));
        let server = NodeServer::start(Arc::clone(&replicas)).unwrap();
        let client = NodeClient::connect(server.addr()).unwrap();
        for stream in 0..4u64 {
            let pool = samples(4, 200 + stream);
            let remote = client.score(stream, pool.clone()).unwrap();
            assert_eq!(remote, contrast_scores_shared(&reference, &pool).unwrap());
        }
    }

    #[test]
    fn pipelined_requests_resolve_by_sequence_number() {
        let model = tiny_model(13);
        let reference = model.clone();
        let replicas = Arc::new(ReplicaSet::start(model, ServeConfig::default()));
        let server = NodeServer::start(Arc::clone(&replicas)).unwrap();
        let client = NodeClient::connect(server.addr()).unwrap();
        // Many requests in flight at once on one connection; every
        // ticket gets its own stream's answer.
        let pools: Vec<_> = (0..6u64).map(|s| samples(3, 300 + s)).collect();
        let tickets: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(s, pool)| client.submit(s as u64, pool.clone()).unwrap())
            .collect();
        for (ticket, pool) in tickets.into_iter().zip(&pools) {
            assert_eq!(ticket.wait().unwrap(), contrast_scores_shared(&reference, pool).unwrap());
        }
    }

    #[test]
    fn two_clients_are_served_concurrently() {
        let replicas = Arc::new(ReplicaSet::start(tiny_model(17), ServeConfig::default()));
        let server = NodeServer::start(replicas).unwrap();
        let a = NodeClient::connect(server.addr()).unwrap();
        let b = NodeClient::connect(server.addr()).unwrap();
        let ta = a.submit(0, samples(2, 1)).unwrap();
        let tb = b.submit(1, samples(2, 2)).unwrap();
        assert_eq!(ta.wait().unwrap().len(), 2);
        assert_eq!(tb.wait().unwrap().len(), 2);
    }

    #[test]
    fn server_drop_disconnects_clients_cleanly() {
        let replicas = Arc::new(ReplicaSet::start(tiny_model(19), ServeConfig::default()));
        let server = NodeServer::start(replicas).unwrap();
        let client = NodeClient::connect(server.addr()).unwrap();
        client.score(0, samples(2, 5)).unwrap();
        drop(server);
        // The next request fails with a typed connection error, not a
        // hang or a panic.
        let err = client.score(0, samples(2, 6)).map(|_| ()).unwrap_err();
        assert!(
            matches!(
                err,
                NodeError::Disconnected | NodeError::Io { .. } | NodeError::Remote { .. }
            ),
            "{err}"
        );
    }
}
