//! # sdc-persist
//!
//! Crash-safe checkpoint/restore for the *Selective Data Contrast*
//! stack: a versioned, checksummed, chunked snapshot container plus the
//! [`Persist`] state-capture trait the rest of the workspace implements
//! (`ParamStore` + optimizer moments in `sdc-nn`, policy and
//! PRNG state in `sdc-core`, stream cursors in `sdc-data`, and the
//! serve-layer `NodeSnapshot` in `sdc-serve`).
//!
//! ## Contract
//!
//! The restore contract is **bitwise, not approximate**: restoring a
//! snapshot and continuing must produce exactly the run an
//! uninterrupted process would have produced (enforced end-to-end by
//! `tests/checkpoint_resume.rs` at the workspace root). The container
//! holds that contract up against the filesystem:
//!
//! * **Versioned** — a magic tag plus a format version; unknown
//!   versions are rejected, never guessed at.
//! * **Checksummed** — a CRC-32 per section plus one over the whole
//!   file, verified *before* any content is interpreted; a flipped
//!   byte anywhere yields [`PersistError::ChecksumMismatch`], never a
//!   half-loaded state.
//! * **Chunked** — named sections so independent subsystems (model,
//!   optimizer, each buffer shard, each stream cursor) serialize
//!   side by side and restore selectively.
//! * **Atomic** — [`Snapshot::write_atomic`] writes to a temporary
//!   sibling and renames, so a crash mid-checkpoint leaves the
//!   previous snapshot intact.
//! * **Hostile-input safe** — every length field is bounds-checked
//!   against the remaining input before any allocation sizes itself
//!   from it.
//! * **Delta-shippable** — [`encode_delta`] / [`apply_delta`] encode a
//!   snapshot relative to a base both sides hold, sending unchanged
//!   sections as a CRC alone; application reconstructs the target's
//!   container bytes exactly (the hot-standby shipping path in
//!   `sdc-node`).
//!
//! ```
//! use sdc_persist::{Snapshot, SnapshotWriter, StateWriter};
//!
//! let mut writer = SnapshotWriter::new();
//! let mut section = StateWriter::new();
//! section.put_u64(42);
//! writer.add_section("answer", section);
//! let bytes = writer.into_bytes();
//!
//! let snapshot = Snapshot::from_bytes(&bytes)?;
//! let mut reader = snapshot.section("answer")?;
//! assert_eq!(reader.get_u64()?, 42);
//! # Ok::<(), sdc_persist::PersistError>(())
//! ```

#![deny(missing_docs)]

mod crc;
mod delta;
mod error;
mod format;
mod state;

pub use crc::crc32;
pub use delta::{apply_delta, encode_delta, DeltaStats, DELTA_MAGIC, DELTA_VERSION};
pub use error::PersistError;
pub use format::{Snapshot, SnapshotWriter, FORMAT_VERSION, MAGIC};
pub use state::{StateReader, StateWriter};

/// A component whose mutable state can be captured into a snapshot
/// section and later restored **into an equally configured instance**.
///
/// Implementations serialize *state*, not *architecture*: `load`
/// restores values into `self` and must fail with
/// [`PersistError::StateMismatch`] when the serialized layout does not
/// match (different model architecture, buffer capacity, policy
/// configuration, ...). Building the equally configured instance is
/// the caller's job.
pub trait Persist {
    /// Serializes this component's state into `w`.
    fn save(&self, w: &mut StateWriter);

    /// Restores state previously written by [`Persist::save`] into
    /// `self`.
    ///
    /// Must be transactional per component: on error, `self` is left
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated or corrupt input, or when the
    /// serialized state does not fit this instance's configuration.
    fn load(&mut self, r: &mut StateReader) -> Result<(), PersistError>;
}

/// Serializes a [`Persist`] component into a standalone byte payload
/// (one section's worth of state).
pub fn save_state(component: &impl Persist) -> Vec<u8> {
    let mut w = StateWriter::new();
    component.save(&mut w);
    w.into_bytes()
}

/// Restores a [`Persist`] component from a payload produced by
/// [`save_state`], requiring the payload to be fully consumed (trailing
/// bytes mean the layout drifted and are rejected).
///
/// # Errors
///
/// Propagates the component's [`Persist::load`] errors and rejects
/// unconsumed trailing bytes.
pub fn load_state(component: &mut impl Persist, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = StateReader::new(bytes);
    component.load(&mut r)?;
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Counter {
        ticks: u64,
    }

    impl Persist for Counter {
        fn save(&self, w: &mut StateWriter) {
            w.put_u64(self.ticks);
        }
        fn load(&mut self, r: &mut StateReader) -> Result<(), PersistError> {
            self.ticks = r.get_u64()?;
            Ok(())
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let source = Counter { ticks: 7 };
        let mut target = Counter { ticks: 0 };
        load_state(&mut target, &save_state(&source)).unwrap();
        assert_eq!(source, target);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = save_state(&Counter { ticks: 7 });
        bytes.push(0);
        let mut target = Counter { ticks: 0 };
        let err = load_state(&mut target, &bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
    }
}
