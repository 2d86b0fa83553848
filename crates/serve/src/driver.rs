//! Multi-stream training driver.
//!
//! [`MultiStreamTrainer`] glues the three serving pieces together: one
//! shared [`StreamTrainer`] (model + optimizer + augmentation state),
//! a [`ReplicaSet`] of scoring replicas (streams deterministically
//! sharded across them) scoring every stream's replacement batches,
//! and one [`ShardedBuffer`] holding per-stream buffers. Each *round*
//! works in three phases:
//!
//! 1. **Replace (concurrent)** — every participating stream's segment
//!    is merged into its own shard on its own scoped thread, scoring
//!    through the service (which coalesces the streams' requests into
//!    shared batches);
//! 2. **Update (serial, ascending stream id)** — each refreshed shard
//!    forms one mini-batch and drives one optimizer update via
//!    [`StreamTrainer::update_on`];
//! 3. **Publish** — the updated model is snapshotted into the service
//!    for the next round's scoring.
//!
//! With a single stream, a round is exactly one
//! [`StreamTrainer::step`]: same scores (bit-identical), same buffer
//! contents, same augmentation-RNG consumption — asserted by
//! `tests/equivalence.rs`.

use std::collections::BTreeMap;

use sdc_core::policy::ContrastScoringPolicy;
use sdc_core::{ContrastiveModel, ReplacementOutcome, StreamTrainer, TrainerConfig};
use sdc_data::{Sample, StreamId};
use sdc_persist::PersistError;
use sdc_tensor::Result;

use crate::replica::ReplicaSet;
use crate::service::{ScoringClient, ScoringService, ServeConfig, ServeStats};
use crate::shard::ShardedBuffer;
use crate::snapshot::NodeSnapshot;

/// One stream's slice of a round's outcome.
#[derive(Debug, Clone, Copy)]
pub struct RoundReport {
    /// The stream this report belongs to.
    pub stream: StreamId,
    /// Replacement bookkeeping from the stream's shard.
    pub outcome: ReplacementOutcome,
    /// NT-Xent loss of the update on the refreshed shard.
    pub loss: f32,
}

/// One trainer, one scoring service, many streams.
///
/// Streams are registered lazily by [`MultiStreamTrainer::run_round`]:
/// registering creates the stream's scoring client, and the client set
/// is part of a [`NodeSnapshot`]. Remove a stream that has ended with
/// [`MultiStreamTrainer::drop_stream`].
#[derive(Debug)]
pub struct MultiStreamTrainer {
    trainer: StreamTrainer,
    replicas: ReplicaSet,
    clients: BTreeMap<StreamId, ScoringClient>,
    shards: ShardedBuffer,
}

impl MultiStreamTrainer {
    /// Creates the driver: a fresh trainer plus `serve.replicas`
    /// scoring replicas seeded with the trainer's initial model
    /// snapshot (streams shard across them by
    /// [`replica_for`](crate::replica_for)). Every stream shard gets
    /// `config.buffer_size` slots and a clone of `policy`.
    pub fn new(config: TrainerConfig, policy: ContrastScoringPolicy, serve: ServeConfig) -> Self {
        let shards = ShardedBuffer::new(config.buffer_size, policy.clone());
        let trainer = StreamTrainer::new(config, Box::new(policy));
        let replicas = ReplicaSet::start(trainer.model().clone(), serve);
        Self { trainer, replicas, clients: BTreeMap::new(), shards }
    }

    /// Creates `stream`'s scoring client on its replica (idempotent;
    /// rounds do this automatically for participating streams).
    pub fn register(&mut self, stream: StreamId) {
        let replicas = &self.replicas;
        self.clients.entry(stream).or_insert_with(|| replicas.client(stream));
    }

    /// Removes a finished stream: drops its scoring client and discards
    /// its shard.
    pub fn drop_stream(&mut self, stream: StreamId) {
        self.clients.remove(&stream);
        self.shards.remove(stream);
    }

    /// The shared trainer.
    pub fn trainer(&self) -> &StreamTrainer {
        &self.trainer
    }

    /// Mutable access to the shared model (e.g. for evaluation probes).
    pub fn model_mut(&mut self) -> &mut ContrastiveModel {
        self.trainer.model_mut()
    }

    /// The per-stream shards.
    pub fn shards(&self) -> &ShardedBuffer {
        &self.shards
    }

    /// A **live** snapshot of the first replica's coalescing counters
    /// and latency summaries (non-quiescing; see
    /// [`ScoringService::stats_snapshot`]). With one replica — the
    /// default — this is the whole node; with more, use
    /// [`MultiStreamTrainer::replica_set`] for the per-replica
    /// breakdown.
    pub fn serve_stats(&self) -> ServeStats {
        self.replicas.replica(0).stats_snapshot()
    }

    /// The first scoring replica — e.g. for bracketing a round with
    /// [`ScoringService::latency_histogram`] snapshots on a
    /// single-replica node.
    pub fn service(&self) -> &ScoringService {
        self.replicas.replica(0)
    }

    /// The full replica set (per-replica stats, sharded client
    /// creation, broadcast quiesce).
    pub fn replica_set(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// Captures the node's full serving state as a [`NodeSnapshot`]:
    /// the shared trainer, every stream shard, and the registered
    /// client set.
    ///
    /// Call between rounds (the natural quiesce point — `run_round`
    /// returns only after every score came back). The batcher is
    /// additionally quiesced through a queue barrier, so the published
    /// model swap from the previous round is guaranteed applied and
    /// nothing is in flight when state is read.
    ///
    /// # Errors
    ///
    /// Reports the scoring service having terminated.
    pub fn snapshot(&self) -> std::result::Result<NodeSnapshot, PersistError> {
        self.replicas.quiesce()?;
        let clients: Vec<StreamId> = self.clients.keys().copied().collect();
        Ok(NodeSnapshot::capture(&self.trainer, &self.shards, &clients))
    }

    /// Rebuilds a serving node from a snapshot: a fresh driver under
    /// the same `config`/`policy`/`serve` configuration, with trainer
    /// and shard state restored bit-exactly, clients re-registered for
    /// every stream the snapshot knew, and a fresh scoring service
    /// started on the restored model — so the next
    /// [`MultiStreamTrainer::run_round`] continues exactly where the
    /// snapshotted node would have.
    ///
    /// # Errors
    ///
    /// Propagates snapshot decode failures and state/configuration
    /// mismatches (the restored-into instances are built from `config`
    /// and `policy`; drift is rejected, never silently absorbed).
    pub fn restore(
        config: TrainerConfig,
        policy: ContrastScoringPolicy,
        serve: ServeConfig,
        snapshot: &NodeSnapshot,
    ) -> std::result::Result<Self, PersistError> {
        let mut shards = ShardedBuffer::new(config.buffer_size, policy.clone());
        let mut trainer = StreamTrainer::new(config, Box::new(policy));
        let client_ids = snapshot.restore_into(&mut trainer, &mut shards)?;
        let replicas = ReplicaSet::start(trainer.model().clone(), serve);
        let clients =
            client_ids.into_iter().map(|id| (id, replicas.client(id))).collect::<BTreeMap<_, _>>();
        Ok(Self { trainer, replicas, clients, shards })
    }

    /// Runs one serving round over `segments` (one entry per
    /// participating stream; duplicate ids are merged in order).
    /// Returns one report per stream, in ascending stream-id order.
    ///
    /// Entries with **empty** segments are ignored: an exhausted
    /// stream neither registers nor produces a report this round. Call
    /// [`MultiStreamTrainer::drop_stream`] when a stream ends for good.
    ///
    /// # Errors
    ///
    /// Propagates scoring and model errors.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker thread panics.
    pub fn run_round(
        &mut self,
        segments: Vec<(StreamId, Vec<Sample>)>,
    ) -> Result<Vec<RoundReport>> {
        let mut merged: BTreeMap<StreamId, Vec<Sample>> = BTreeMap::new();
        for (id, segment) in segments {
            if segment.is_empty() {
                continue;
            }
            self.register(id);
            self.shards.shard_mut(id); // materialize before the scoped borrow
            merged.entry(id).or_default().extend(segment);
        }

        // Phase 1: concurrent replacement, one scoped thread per
        // stream, all scoring through the coalescing service.
        let clients = &self.clients;
        let results: Vec<(StreamId, Result<ReplacementOutcome>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .shards
                .iter_mut()
                .filter_map(|(id, shard)| merged.remove(&id).map(|segment| (id, shard, segment)))
                .map(|(id, shard, segment)| {
                    let client = clients.get(&id).expect("registered above");
                    scope.spawn(move || (id, shard.replace_with(segment, |s| client.score(s))))
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
        });

        // Phase 2: serial updates in ascending stream-id order (the
        // scoped workers were spawned from the sorted shard iterator,
        // so `results` is already ordered).
        let mut reports = Vec::with_capacity(results.len());
        for (id, outcome) in results {
            let outcome = outcome?;
            let batch = self.shards.shard(id).expect("shard exists").buffer().samples();
            let loss = self.trainer.update_on(&batch)?;
            reports.push(RoundReport { stream: id, outcome, loss });
        }

        // Phase 3: publish the post-update model to every replica for
        // the next round's scoring.
        self.replicas.swap_model(self.trainer.model().clone());
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_core::model::ModelConfig;
    use sdc_data::stream::TemporalStream;
    use sdc_data::synth::{SynthConfig, SynthDataset};
    use sdc_nn::models::EncoderConfig;

    fn tiny_config() -> TrainerConfig {
        TrainerConfig {
            buffer_size: 4,
            model: ModelConfig {
                encoder: EncoderConfig::tiny(),
                projection_hidden: 8,
                projection_dim: 4,
                seed: 2,
            },
            seed: 2,
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

    #[test]
    fn rounds_train_multiple_streams_against_one_model() {
        let mut driver = MultiStreamTrainer::new(
            tiny_config(),
            ContrastScoringPolicy::new(),
            ServeConfig::default(),
        );
        let mut streams: Vec<TemporalStream> = (0..3).map(|i| stream(10 + i)).collect();
        for _ in 0..2 {
            let segments: Vec<(StreamId, Vec<Sample>)> = streams
                .iter_mut()
                .enumerate()
                .map(|(i, s)| (i as StreamId, s.next_segment(4).unwrap()))
                .collect();
            let reports = driver.run_round(segments).unwrap();
            assert_eq!(reports.len(), 3);
            assert!(reports.iter().all(|r| r.loss.is_finite()));
            let ids: Vec<StreamId> = reports.iter().map(|r| r.stream).collect();
            assert_eq!(ids, vec![0, 1, 2], "reports come back in stream-id order");
        }
        assert_eq!(driver.shards().shard_count(), 3);
        assert_eq!(driver.shards().total_len(), 12, "every shard filled to capacity");
        assert_eq!(driver.trainer().iteration(), 6, "one update per stream per round");
        assert_eq!(driver.serve_stats().requests, 6);
    }

    #[test]
    fn empty_segments_are_skipped_not_fatal() {
        let mut driver = MultiStreamTrainer::new(
            tiny_config(),
            ContrastScoringPolicy::new(),
            ServeConfig::default(),
        );
        let mut live = stream(3);
        // An exhausted stream hands in an empty segment: the round must
        // proceed for the live stream and report nothing for the empty
        // one.
        let reports =
            driver.run_round(vec![(0, live.next_segment(4).unwrap()), (1, Vec::new())]).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].stream, 0);
        assert_eq!(driver.shards().shard_count(), 1, "no shard for the empty stream");
        let reports = driver.run_round(vec![(0, live.next_segment(4).unwrap())]).unwrap();
        assert_eq!(reports.len(), 1);
    }

    /// Training rounds are replica-count invariant: scores are
    /// bit-identical no matter which replica a stream lands on, and
    /// updates run serially in stream-id order either way, so the whole
    /// fingerprint (losses + weights + buffer entries) must match the
    /// single-replica reference exactly.
    #[test]
    fn rounds_are_bit_identical_at_every_replica_count() {
        let run = |replicas: usize| {
            let mut driver = MultiStreamTrainer::new(
                tiny_config(),
                ContrastScoringPolicy::new(),
                ServeConfig { replicas, ..ServeConfig::default() },
            );
            let mut streams: Vec<TemporalStream> = (0..4).map(|i| stream(40 + i)).collect();
            let mut losses = Vec::new();
            for _ in 0..2 {
                let segments: Vec<(StreamId, Vec<Sample>)> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| (i as StreamId, s.next_segment(4).unwrap()))
                    .collect();
                for r in driver.run_round(segments).unwrap() {
                    losses.push(r.loss.to_bits());
                }
            }
            let weights: Vec<u32> = driver
                .trainer()
                .model()
                .store
                .params()
                .iter()
                .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                .collect();
            let entries: Vec<(StreamId, u64, u32)> = driver
                .shards()
                .iter()
                .flat_map(|(id, s)| {
                    s.buffer().entries().iter().map(move |e| (id, e.sample.id, e.score.to_bits()))
                })
                .collect();
            (losses, weights, entries)
        };
        let reference = run(1);
        for replicas in [2usize, 3] {
            assert_eq!(run(replicas), reference, "diverged at {replicas} replicas");
        }
    }

    #[test]
    fn dropping_a_stream_keeps_rounds_flowing() {
        let mut driver = MultiStreamTrainer::new(
            tiny_config(),
            ContrastScoringPolicy::new(),
            ServeConfig::default(),
        );
        let mut a = stream(1);
        let mut b = stream(2);
        driver
            .run_round(vec![(0, a.next_segment(4).unwrap()), (1, b.next_segment(4).unwrap())])
            .unwrap();
        driver.drop_stream(1);
        assert_eq!(driver.shards().shard_count(), 1);
        let reports = driver.run_round(vec![(0, a.next_segment(4).unwrap())]).unwrap();
        assert_eq!(reports.len(), 1);
    }
}
