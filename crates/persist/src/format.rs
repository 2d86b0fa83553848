//! The snapshot container: magic + version + named, CRC'd sections +
//! a whole-file CRC, with atomic write-to-temp-then-rename.
//!
//! ## Layout
//!
//! ```text
//! "SDCS"                                magic (4 bytes)
//! u32  format version                   currently 1
//! u32  section count
//! per section:
//!   u64  name length | name bytes       UTF-8
//!   u64  payload length
//!   u32  payload CRC-32
//!   payload bytes
//! u32  file CRC-32                      over every preceding byte
//! ```
//!
//! All integers little-endian. The file CRC is verified **first**, over
//! the entire prefix, so a flipped byte anywhere — magic, a length
//! field, a payload, or the trailer itself — is rejected as
//! [`PersistError::ChecksumMismatch`] before a single field is
//! interpreted. Per-section CRCs then localize corruption for
//! diagnostics and keep sections independently verifiable.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::crc::crc32;
use crate::error::PersistError;
use crate::state::{StateReader, StateWriter};

/// First bytes of every snapshot file.
pub const MAGIC: &[u8; 4] = b"SDCS";

/// The container format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Builds a snapshot from named sections.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named section. Names must be unique within one
    /// snapshot; readers reject duplicates.
    pub fn add_section(&mut self, name: impl Into<String>, payload: StateWriter) {
        self.sections.push((name.into(), payload.into_bytes()));
    }

    /// Appends a section whose payload is already serialized. Delta
    /// application uses this to splice verbatim payloads back into a
    /// container.
    pub(crate) fn add_raw_section(&mut self, name: impl Into<String>, payload: Vec<u8>) {
        self.sections.push((name.into(), payload));
    }

    /// Serializes the container.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }
}

/// A parsed, checksum-verified snapshot.
#[derive(Debug)]
pub struct Snapshot {
    sections: BTreeMap<String, Vec<u8>>,
    /// Section names in file order — the order [`SnapshotWriter`]
    /// received them. Delta encoding records it so a reconstructed
    /// container is byte-identical to the original, not merely
    /// section-equivalent.
    order: Vec<String>,
}

impl Snapshot {
    /// Parses and fully verifies a snapshot: file CRC first, then
    /// magic, version, structure, and every section CRC.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PersistError`] describing the first violation;
    /// any single flipped byte surfaces as
    /// [`PersistError::ChecksumMismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let _parse_timer = sdc_obs::scope!("persist.parse");
        // Smallest valid file: magic + version + count + file CRC.
        if bytes.len() < MAGIC.len() + 4 + 4 + 4 {
            return Err(PersistError::Truncated { context: "snapshot header" });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if crc32(body) != stored {
            return Err(PersistError::ChecksumMismatch { section: "<file>".into() });
        }
        if &body[..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes([body[4], body[5], body[6], body[7]]);
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes([body[8], body[9], body[10], body[11]]);
        let mut rest = &body[12..];
        let mut sections = BTreeMap::new();
        let mut order = Vec::with_capacity(count as usize);
        for _ in 0..count {
            // The header fields parse through a StateReader (it carries
            // the bounds checks); the payload is sliced raw so its CRC
            // runs over exactly the written bytes.
            let mut header = StateReader::new(rest);
            let name = header.get_str()?;
            let len = header.get_u64()?;
            let crc = header.get_u32()?;
            if len > header.remaining() as u64 {
                return Err(PersistError::Corrupt {
                    context: "section payload",
                    message: format!(
                        "section {name:?} declares {len} bytes, {} remain",
                        header.remaining()
                    ),
                });
            }
            let payload_start = rest.len() - header.remaining();
            let payload_end = payload_start + len as usize;
            let payload = &rest[payload_start..payload_end];
            if crc32(payload) != crc {
                return Err(PersistError::ChecksumMismatch { section: name });
            }
            if sections.insert(name.clone(), payload.to_vec()).is_some() {
                return Err(PersistError::Corrupt {
                    context: "section name",
                    message: format!("duplicate section {name:?}"),
                });
            }
            order.push(name);
            rest = &rest[payload_end..];
        }
        if !rest.is_empty() {
            return Err(PersistError::Corrupt {
                context: "snapshot tail",
                message: format!("{} trailing bytes after the last section", rest.len()),
            });
        }
        Ok(Self { sections, order })
    }

    /// Section names in **file order** — the order the writer emitted
    /// them. Delta encoding walks this so a reconstructed container is
    /// byte-identical to the original.
    pub fn section_order(&self) -> &[String] {
        &self.order
    }

    /// The raw payload bytes of a section (delta encoding needs them
    /// verbatim, not through a [`StateReader`]).
    pub(crate) fn raw_section(&self, name: &str) -> Option<&[u8]> {
        self.sections.get(name).map(Vec::as_slice)
    }

    /// Whether a section exists.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.contains_key(name)
    }

    /// A reader over the named section's payload.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<StateReader<'_>, PersistError> {
        self.sections
            .get(name)
            .map(|b| StateReader::new(b))
            .ok_or_else(|| PersistError::MissingSection(name.to_string()))
    }

    /// Reads and verifies a snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates IO failures and every [`Snapshot::from_bytes`]
    /// rejection.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|source| PersistError::Io {
            context: format!("read {}", path.display()),
            source,
        })?;
        Self::from_bytes(&bytes)
    }

    /// Atomically writes `bytes` (a serialized snapshot) to `path`:
    /// the data goes to a temporary sibling first (written, flushed,
    /// synced), then a rename moves it into place — a crash
    /// mid-checkpoint can never leave a torn file under `path`.
    ///
    /// # Errors
    ///
    /// Propagates IO failures; the temporary file is removed on error.
    pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), PersistError> {
        let _write_timer = sdc_obs::scope!("persist.write");
        let path = path.as_ref();
        let io =
            |context: String| move |source: std::io::Error| PersistError::Io { context, source };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut f =
                std::fs::File::create(&tmp).map_err(io(format!("create {}", tmp.display())))?;
            f.write_all(bytes).map_err(io(format!("write {}", tmp.display())))?;
            f.sync_all().map_err(io(format!("sync {}", tmp.display())))?;
            std::fs::rename(&tmp, path).map_err(io(format!(
                "rename {} -> {}",
                tmp.display(),
                path.display()
            )))
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut a = StateWriter::new();
        a.put_u64(7);
        a.put_str("hello");
        w.add_section("alpha", a);
        let mut b = StateWriter::new();
        b.put_f32_slice(&[1.0, -0.0, f32::NAN]);
        w.add_section("beta", b);
        w.into_bytes()
    }

    #[test]
    fn roundtrip_reads_both_sections() {
        let bytes = sample_snapshot();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.section_order(), ["alpha", "beta"]);
        assert!(snap.has_section("alpha"));
        assert!(!snap.has_section("gamma"));
        let mut r = snap.section("alpha").unwrap();
        assert_eq!(r.get_u64().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "hello");
        r.finish().unwrap();
        let mut r = snap.section("beta").unwrap();
        let v = r.get_f32_vec().unwrap();
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1].to_bits(), (-0.0f32).to_bits());
        assert!(v[2].is_nan());
        assert!(matches!(snap.section("gamma").unwrap_err(), PersistError::MissingSection(_)));
    }

    #[test]
    fn every_flipped_byte_is_rejected_with_a_checksum_error() {
        let bytes = sample_snapshot();
        let mut copy = bytes.clone();
        for i in 0..copy.len() {
            copy[i] ^= 0x40;
            let err = Snapshot::from_bytes(&copy).unwrap_err();
            assert!(
                matches!(err, PersistError::ChecksumMismatch { .. }),
                "flip at byte {i} of {} gave {err} instead of a checksum error",
                copy.len()
            );
            copy[i] ^= 0x40;
        }
        // Un-flipped copy still parses: the loop restored every byte.
        Snapshot::from_bytes(&copy).unwrap();
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_snapshot();
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        // Rebuild valid CRCs around a wrong magic so the file CRC
        // passes and the magic check itself must fire.
        let mut body = Vec::new();
        body.extend_from_slice(b"NOPE");
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Snapshot::from_bytes(&body).unwrap_err(), PersistError::BadMagic));

        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&99u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&body).unwrap_err(),
            PersistError::UnsupportedVersion { found: 99, .. }
        ));
    }

    #[test]
    fn oversized_section_length_is_rejected_before_allocation() {
        // Hand-build a file whose one section claims absurd length but
        // whose CRCs are self-consistent.
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(b'x');
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // payload length
        body.extend_from_slice(&0u32.to_le_bytes()); // payload crc
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let err = Snapshot::from_bytes(&body).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.add_section("same", StateWriter::new());
        w.add_section("same", StateWriter::new());
        let err = Snapshot::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("sdc_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.sdcs");
        let bytes = sample_snapshot();
        Snapshot::write_atomic(&path, &bytes).unwrap();
        let reread = Snapshot::read(&path).unwrap();
        assert_eq!(reread.section_order(), ["alpha", "beta"]);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "temp file left behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = SnapshotWriter::new().into_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert!(snap.section_order().is_empty());
    }
}
