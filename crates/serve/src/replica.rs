//! Scoring replicas: N batcher threads behind one deterministic
//! sharding rule.
//!
//! A single [`ScoringService`] is bounded by its one batcher thread —
//! every coalesced batch runs that thread's forward pass. A
//! [`ReplicaSet`] starts `n` independent services (sharing one
//! published model snapshot) and routes every stream to exactly one of
//! them via [`replica_for`], so scoring throughput scales past one
//! core's forward pass while each replica keeps the single-service
//! coalescing and determinism story intact.
//!
//! ## The sharding rule
//!
//! [`replica_for`]`(id, n)` is a **pure function** of the stream id and
//! the replica count — no registry, no round-robin state, no wall
//! clock. Two consequences the scale-out tier leans on:
//!
//! * **Stable across restarts.** A restarted (or failed-over) node with
//!   the same replica count routes every stream to the same replica.
//! * **Deterministic re-sharding.** Changing the replica count is a
//!   pure re-evaluation: the new assignment depends only on `(id, n)`,
//!   never on the order streams arrive or which replica they sat on
//!   before (`crates/node/tests/sharding.rs` is the enforcement).
//!
//! Scores themselves are replica-count invariant: every replica scores
//! with the same published model, and batch *results* are bit-identical
//! regardless of batch composition (the serve-layer contract), so a
//! stream's scores do not depend on which replica it landed on.

use std::sync::Arc;

use sdc_core::ContrastiveModel;
use sdc_data::StreamId;
use sdc_tensor::Result;

use crate::service::{ScoringClient, ScoringService, ServeConfig, ServeStats};

/// The replica a stream is served by: a pure, stable function of
/// `(id, replicas)`.
///
/// The id is mixed through a SplitMix64-style finalizer before the
/// modulo so adjacent stream ids spread across replicas instead of
/// striding; the constants are fixed forever — this function is part of
/// the wire-visible contract (a remote client and a restarted node must
/// agree on it).
///
/// # Panics
///
/// Panics if `replicas` is zero (a replica set is never empty).
pub fn replica_for(stream: StreamId, replicas: usize) -> usize {
    assert!(replicas > 0, "replica count must be nonzero");
    let mut z = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % replicas as u64) as usize
}

/// N scoring replicas behind the deterministic [`replica_for`] shard
/// rule. Each replica is a full [`ScoringService`] — its own batcher
/// thread, request queue and stats — and all of them score with one
/// shared model snapshot.
#[derive(Debug)]
pub struct ReplicaSet {
    replicas: Vec<ScoringService>,
}

impl ReplicaSet {
    /// Starts `config.replicas` services sharing the `model` snapshot,
    /// each with the same per-service configuration.
    pub fn start(model: impl Into<Arc<ContrastiveModel>>, config: ServeConfig) -> Self {
        let model = model.into();
        let n = config.replicas.max(1);
        let config = ServeConfig { replicas: 1, ..config };
        let replicas =
            (0..n).map(|_| ScoringService::start(Arc::clone(&model), config.clone())).collect();
        Self { replicas }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true for a started set).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica `stream` is sharded to.
    pub fn replica_of(&self, stream: StreamId) -> &ScoringService {
        &self.replicas[replica_for(stream, self.replicas.len())]
    }

    /// The replica at `index` (e.g. for per-replica stats tables).
    pub fn replica(&self, index: usize) -> &ScoringService {
        &self.replicas[index]
    }

    /// Creates a scoring client for `stream` on its assigned replica.
    pub fn client(&self, stream: StreamId) -> ScoringClient {
        sdc_obs::counter!("node.replica.clients").inc();
        self.replica_of(stream).client(stream)
    }

    /// Publishes a fresh model snapshot to **every** replica; requests
    /// submitted after this call score with the new parameters on all
    /// of them.
    pub fn swap_model(&self, model: impl Into<Arc<ContrastiveModel>>) {
        let model = model.into();
        for replica in &self.replicas {
            replica.swap_model(Arc::clone(&model));
        }
    }

    /// Quiesces every replica: blocks until each batcher has processed
    /// everything submitted before this call and answered every earlier
    /// request. Checkpointing calls this
    /// so no replica holds an in-flight batch while state is read.
    ///
    /// # Errors
    ///
    /// Reports any replica having terminated.
    pub fn quiesce(&self) -> Result<()> {
        for replica in &self.replicas {
            replica.quiesce()?;
        }
        Ok(())
    }

    /// Live per-replica stats snapshots, index-aligned with replica
    /// order (see [`ScoringService::stats_snapshot`]).
    pub fn stats_snapshot(&self) -> Vec<ServeStats> {
        self.replicas.iter().map(ScoringService::stats_snapshot).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_core::model::ModelConfig;
    use sdc_core::score::contrast_scores_shared;
    use sdc_data::Sample;
    use sdc_nn::models::EncoderConfig;
    use sdc_tensor::Tensor;

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
    fn sharding_is_pure_in_range_and_total() {
        for n in 1..=8usize {
            for id in 0..512u64 {
                let r = replica_for(id, n);
                assert!(r < n);
                assert_eq!(r, replica_for(id, n), "same inputs, same replica");
            }
        }
        // One replica takes everything.
        assert!((0..512u64).all(|id| replica_for(id, 1) == 0));
    }

    #[test]
    fn sharding_spreads_sequential_ids() {
        // The finalizer exists so dense id ranges don't stride onto one
        // replica; every replica must see some of 256 sequential ids.
        for n in 2..=8usize {
            let mut seen = vec![0usize; n];
            for id in 0..256u64 {
                seen[replica_for(id, n)] += 1;
            }
            assert!(seen.iter().all(|&c| c > 0), "replica starved at n={n}: {seen:?}");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_replicas_panics() {
        replica_for(0, 0);
    }

    #[test]
    fn replicated_scores_match_direct_scoring_on_every_replica() {
        let model = tiny_model(3);
        let reference = model.clone();
        let set = ReplicaSet::start(model, ServeConfig { replicas: 3, ..ServeConfig::default() });
        assert_eq!(set.len(), 3);
        // Streams landing on different replicas all score bit-identically
        // to the direct path.
        for stream in 0..6u64 {
            let pool = samples(4, 100 + stream);
            let client = set.client(stream);
            let served = client.score(pool.clone()).unwrap();
            assert_eq!(served, contrast_scores_shared(&reference, &pool).unwrap());
        }
        // The per-stream requests were spread over more than one replica.
        let answered: Vec<u64> = set.stats_snapshot().iter().map(|s| s.requests).collect();
        assert_eq!(answered.iter().sum::<u64>(), 6);
        assert!(
            answered.iter().filter(|&&c| c > 0).count() > 1,
            "one replica took all: {answered:?}"
        );
    }

    #[test]
    fn swap_model_reaches_every_replica() {
        let set =
            ReplicaSet::start(tiny_model(1), ServeConfig { replicas: 2, ..ServeConfig::default() });
        let replacement = tiny_model(99);
        let pool = samples(4, 7);
        let expected = contrast_scores_shared(&replacement, &pool).unwrap();
        set.swap_model(replacement);
        set.quiesce().unwrap();
        for stream in 0..4u64 {
            assert_eq!(set.client(stream).score(pool.clone()).unwrap(), expected);
        }
    }
}
