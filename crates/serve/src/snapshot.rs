//! Crash-safe capture and restore of a whole serving node.
//!
//! A [`NodeSnapshot`] is the serve-layer composition of the stack's
//! [`Persist`] implementations: the shared [`StreamTrainer`] (model
//! parameters, Adam moments, augmentation-PRNG position, counters,
//! statistics, policy state) plus every per-stream shard (buffer
//! entries with scores and ages, per-shard policy state) and the
//! registered client set, packed into one `sdc-persist` container —
//! versioned, per-section CRC'd, and written
//! write-to-temp-then-rename, so a node that dies mid-checkpoint keeps
//! its previous snapshot and a node that dies mid-stream restarts from
//! its last one **bit-identically** (the `checkpoint_resume`
//! integration suite is the enforcement).
//!
//! ## Quiesce point
//!
//! [`MultiStreamTrainer::snapshot`](crate::MultiStreamTrainer::snapshot)
//! captures at a **round boundary**: it first quiesces the batcher
//! (a barrier message through the request queue) so the published
//! model swap has been applied and no scoring work is in flight, then
//! serializes driver-owned state. Requests
//! whose [`ScoreTicket`](crate::ScoreTicket)s were dropped mid-flight
//! are *not* carried into the snapshot — the requester already
//! abandoned the reply. Service counters
//! ([`ServeStats`](crate::ServeStats)) are diagnostics, not state, and
//! restart from zero.

use sdc_core::StreamTrainer;
use sdc_data::StreamId;
use sdc_persist::{Persist, PersistError, Snapshot, SnapshotWriter, StateWriter};

use crate::shard::ShardedBuffer;

/// Section holding the registered stream set.
const SECTION_META: &str = "node/meta";
/// Section holding the shared trainer's full state.
const SECTION_TRAINER: &str = "node/trainer";

fn shard_section(id: StreamId) -> String {
    format!("node/shard/{id}")
}

/// Decodes the meta section of an already-parsed snapshot:
/// (registered client ids, shard ids).
fn decode_meta(parsed: &Snapshot) -> Result<(Vec<StreamId>, Vec<StreamId>), PersistError> {
    let mut r = parsed.section(SECTION_META)?;
    let n_clients = r.get_u64()? as usize;
    let mut clients = Vec::with_capacity(n_clients.min(r.remaining() / 8));
    for _ in 0..n_clients {
        clients.push(r.get_u64()? as StreamId);
    }
    let n_shards = r.get_u64()? as usize;
    let mut shards = Vec::with_capacity(n_shards.min(r.remaining() / 8));
    for _ in 0..n_shards {
        shards.push(r.get_u64()? as StreamId);
    }
    r.finish()?;
    Ok((clients, shards))
}

/// A verified, self-contained snapshot of one serving node.
///
/// Construction always validates the container (magic, version, every
/// CRC), so a held `NodeSnapshot` is known well-formed; state-level
/// validation (architecture, capacities) happens on restore, against
/// the concrete instances being restored into.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    bytes: Vec<u8>,
}

impl NodeSnapshot {
    /// Packs trainer + shards + the registered client set. Internal:
    /// [`MultiStreamTrainer::snapshot`](crate::MultiStreamTrainer::snapshot)
    /// quiesces the service first and then calls this.
    pub(crate) fn capture(
        trainer: &StreamTrainer,
        shards: &ShardedBuffer,
        clients: &[StreamId],
    ) -> Self {
        let _capture_timer = sdc_obs::scope!("persist.capture");
        let mut writer = SnapshotWriter::new();

        let mut meta = StateWriter::new();
        meta.put_u64(clients.len() as u64);
        for &id in clients {
            meta.put_u64(id);
        }
        let ids = shards.ids();
        meta.put_u64(ids.len() as u64);
        for &id in &ids {
            meta.put_u64(id);
        }
        writer.add_section(SECTION_META, meta);

        let mut t = StateWriter::new();
        trainer.save(&mut t);
        writer.add_section(SECTION_TRAINER, t);

        for (id, shard) in shards.iter() {
            let mut s = StateWriter::new();
            shard.save(&mut s);
            writer.add_section(shard_section(id), s);
        }

        Self { bytes: writer.into_bytes() }
    }

    /// Validates and wraps serialized snapshot bytes.
    ///
    /// # Errors
    ///
    /// Returns the typed container rejection — a flipped byte anywhere
    /// surfaces as [`PersistError::ChecksumMismatch`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, PersistError> {
        let parsed = Snapshot::from_bytes(&bytes)?;
        for required in [SECTION_META, SECTION_TRAINER] {
            if !parsed.has_section(required) {
                return Err(PersistError::MissingSection(required.to_string()));
            }
        }
        Ok(Self { bytes })
    }

    /// The serialized container.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the serialized container.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Atomically writes the snapshot to `path` (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates IO failures.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        Snapshot::write_atomic(path, &self.bytes)
    }

    /// Reads and fully verifies a snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates IO failures and every container rejection.
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|source| PersistError::Io {
            context: format!("read {}", path.display()),
            source,
        })?;
        Self::from_bytes(bytes)
    }

    /// The registered client stream ids and the shard stream ids
    /// recorded in the snapshot, each ascending.
    ///
    /// # Errors
    ///
    /// Propagates meta-section decode failures.
    pub fn stream_sets(&self) -> Result<(Vec<StreamId>, Vec<StreamId>), PersistError> {
        decode_meta(&Snapshot::from_bytes(&self.bytes)?)
    }

    /// Restores trainer and shard state from this snapshot into the
    /// given (freshly built, equally configured) instances. Used by
    /// [`MultiStreamTrainer::restore`](crate::MultiStreamTrainer::restore);
    /// exposed pieces stay crate-internal so the driver controls the
    /// service lifecycle around them.
    pub(crate) fn restore_into(
        &self,
        trainer: &mut StreamTrainer,
        shards: &mut ShardedBuffer,
    ) -> Result<Vec<StreamId>, PersistError> {
        let _restore_timer = sdc_obs::scope!("persist.restore");
        // One parse (CRC walk + section copies) serves the whole
        // restore; `stream_sets` is for callers that only want meta.
        let parsed = Snapshot::from_bytes(&self.bytes)?;
        let (clients, shard_ids) = decode_meta(&parsed)?;

        let mut r = parsed.section(SECTION_TRAINER)?;
        trainer.load(&mut r)?;
        r.finish()?;

        for &id in &shard_ids {
            let mut r = parsed.section(&shard_section(id))?;
            shards.shard_mut(id).load(&mut r)?;
            r.finish()?;
        }
        Ok(clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ScoringService, ServeConfig, SubmitOpts};
    use sdc_core::model::ModelConfig;
    use sdc_core::policy::ContrastScoringPolicy;
    use sdc_core::TrainerConfig;
    use sdc_data::Sample;
    use sdc_nn::models::EncoderConfig;
    use sdc_tensor::Tensor;

    fn tiny_config() -> TrainerConfig {
        TrainerConfig {
            buffer_size: 4,
            model: ModelConfig {
                encoder: EncoderConfig::tiny(),
                projection_hidden: 8,
                projection_dim: 4,
                seed: 5,
            },
            seed: 5,
            ..TrainerConfig::default()
        }
    }

    fn samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        (0..n).map(|i| Sample::new(Tensor::randn([3, 8, 8], 1.0, &mut rng), 0, i as u64)).collect()
    }

    fn shard_fingerprint(shards: &ShardedBuffer) -> Vec<(u64, u32, u32)> {
        shards
            .iter()
            .flat_map(|(_, s)| {
                s.buffer().entries().iter().map(|e| (e.sample.id, e.score.to_bits(), e.age))
            })
            .collect()
    }

    /// A ticket dropped mid-flight must not wedge the quiesce barrier
    /// or poison the snapshot: the request is abandoned (counted in
    /// `dropped_replies`), the captured state restores bit-exactly,
    /// and the service stays healthy afterwards.
    #[test]
    fn snapshot_while_a_ticket_was_dropped_mid_flight() {
        let config = tiny_config();
        let trainer = StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let mut shards = ShardedBuffer::new(config.buffer_size, ContrastScoringPolicy::new());
        let service = ScoringService::start(trainer.model().clone(), ServeConfig::default());
        let c0 = service.client(0);
        let c1 = service.client(1);

        // Fill stream 0's shard through the service.
        shards.shard_mut(0).replace_with(samples(4, 1), |s| c0.score(s)).unwrap();

        // Stream 1 submits and abandons its ticket mid-flight.
        let ticket = c1.submit(samples(2, 2), SubmitOpts::default()).unwrap();
        drop(ticket);

        service.quiesce().unwrap();
        let snapshot = NodeSnapshot::capture(&trainer, &shards, &[0, 1]);

        let mut restored_trainer =
            StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let mut restored_shards =
            ShardedBuffer::new(config.buffer_size, ContrastScoringPolicy::new());
        let clients = snapshot.restore_into(&mut restored_trainer, &mut restored_shards).unwrap();
        assert_eq!(clients, vec![0, 1]);
        assert_eq!(shard_fingerprint(&restored_shards), shard_fingerprint(&shards));

        // The service survived the abandoned reply and still scores.
        assert!(c0.score(samples(2, 3)).is_ok());
    }

    /// Capturing before any replacement ran — every shard empty or
    /// absent — is a legal snapshot and restores to the same nothing.
    #[test]
    fn snapshot_during_empty_buffer_roundtrips() {
        let config = tiny_config();
        let trainer = StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let mut shards = ShardedBuffer::new(config.buffer_size, ContrastScoringPolicy::new());
        shards.shard_mut(3); // materialized but empty
        let snapshot = NodeSnapshot::capture(&trainer, &shards, &[3]);

        let (client_ids, shard_ids) = snapshot.stream_sets().unwrap();
        assert_eq!(client_ids, vec![3]);
        assert_eq!(shard_ids, vec![3]);

        let mut restored_trainer =
            StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let mut restored_shards =
            ShardedBuffer::new(config.buffer_size, ContrastScoringPolicy::new());
        snapshot.restore_into(&mut restored_trainer, &mut restored_shards).unwrap();
        assert_eq!(restored_shards.shard_count(), 1);
        assert!(restored_shards.shard(3).unwrap().buffer().is_empty());
    }

    #[test]
    fn snapshot_bytes_reject_corruption_and_missing_sections() {
        let config = tiny_config();
        let trainer = StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let shards = ShardedBuffer::new(config.buffer_size, ContrastScoringPolicy::new());
        let snapshot = NodeSnapshot::capture(&trainer, &shards, &[]);
        let bytes = snapshot.as_bytes().to_vec();

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            NodeSnapshot::from_bytes(flipped).unwrap_err(),
            PersistError::ChecksumMismatch { .. }
        ));

        // A valid container missing the trainer section is rejected up
        // front, not at restore time.
        let mut writer = SnapshotWriter::new();
        writer.add_section(SECTION_META, StateWriter::new());
        assert!(matches!(
            NodeSnapshot::from_bytes(writer.into_bytes()).unwrap_err(),
            PersistError::MissingSection(_)
        ));
    }

    /// Restoring into a differently configured node (buffer capacity
    /// drift) is rejected with a typed mismatch.
    #[test]
    fn restore_rejects_capacity_drift() {
        let config = tiny_config();
        let trainer = StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let mut shards = ShardedBuffer::new(config.buffer_size, ContrastScoringPolicy::new());
        shards.shard_mut(0);
        let snapshot = NodeSnapshot::capture(&trainer, &shards, &[0]);

        let mut restored_trainer =
            StreamTrainer::new(config.clone(), Box::new(ContrastScoringPolicy::new()));
        let mut wrong_shards =
            ShardedBuffer::new(config.buffer_size + 1, ContrastScoringPolicy::new());
        let err = snapshot.restore_into(&mut restored_trainer, &mut wrong_shards).unwrap_err();
        assert!(matches!(err, PersistError::StateMismatch { .. }), "{err}");
    }
}
