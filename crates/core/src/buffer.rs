//! The small on-device replay buffer `B`.

use sdc_data::Sample;
use sdc_persist::{Persist, PersistError, StateReader, StateWriter};
use sdc_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One buffered datum with its selection metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferEntry {
    /// The stored stream sample.
    pub sample: Sample,
    /// Most recently computed (possibly stale, under lazy scoring)
    /// contrast score; `0` for policies that do not score.
    pub score: f32,
    /// Iterations since the entry was placed in the buffer (paper
    /// `age(xᵢ)`, Eq. (7)).
    pub age: u32,
}

impl BufferEntry {
    /// Creates a fresh entry with age 0.
    pub fn new(sample: Sample, score: f32) -> Self {
        Self { sample, score, age: 0 }
    }
}

/// The data buffer maintained by a replacement policy — the same size as
/// one training mini-batch (paper §III-A).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    entries: Vec<BufferEntry>,
}

impl ReplayBuffer {
    /// Creates an empty buffer with room for `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, entries: Vec::with_capacity(capacity) }
    }

    /// Maximum number of stored samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries.
    pub fn entries(&self) -> &[BufferEntry] {
        &self.entries
    }

    /// Mutable access to the stored entries (policies re-score in place).
    pub fn entries_mut(&mut self) -> &mut [BufferEntry] {
        &mut self.entries
    }

    /// Replaces the buffer contents. Entries beyond capacity are
    /// truncated.
    pub fn replace_all(&mut self, mut entries: Vec<BufferEntry>) {
        entries.truncate(self.capacity);
        self.entries = entries;
    }

    /// Removes and returns all entries.
    pub fn drain(&mut self) -> Vec<BufferEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Increments every entry's age by one iteration.
    pub fn tick_ages(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// The stored samples, in buffer order.
    pub fn samples(&self) -> Vec<Sample> {
        self.entries.iter().map(|e| e.sample.clone()).collect()
    }

    /// Class histogram of the buffer (uses ground-truth labels; for
    /// evaluation/diagnostics only, never for selection).
    pub fn class_histogram(&self, num_classes: usize) -> Vec<usize> {
        let mut hist = vec![0usize; num_classes];
        for e in &self.entries {
            if e.sample.label < num_classes {
                hist[e.sample.label] += 1;
            }
        }
        hist
    }

    /// Number of distinct classes currently represented (diagnostics).
    pub fn class_coverage(&self, num_classes: usize) -> usize {
        self.class_histogram(num_classes).iter().filter(|&&c| c > 0).count()
    }
}

/// Snapshot capture of the full buffer: capacity plus every entry's
/// sample, score bits, and age — the state the lazy-scoring schedule
/// and top-N selection read, so a restored buffer replays replacements
/// bit-identically. Restore validates the capacity against the target
/// buffer (capacity is configuration, not state).
impl Persist for ReplayBuffer {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.entries.len() as u64);
        for e in &self.entries {
            e.sample.save(w);
            w.put_f32(e.score);
            w.put_u32(e.age);
        }
    }

    fn load(&mut self, r: &mut StateReader) -> std::result::Result<(), PersistError> {
        let capacity = r.get_u64()? as usize;
        if capacity != self.capacity {
            return Err(PersistError::StateMismatch {
                message: format!(
                    "snapshot buffer capacity {capacity}, this buffer holds {}",
                    self.capacity
                ),
            });
        }
        let n = r.get_u64()? as usize;
        if n > capacity {
            return Err(PersistError::StateMismatch {
                message: format!("snapshot holds {n} entries for capacity {capacity}"),
            });
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let mut sample = Sample::new(Tensor::zeros([0]), 0, 0);
            sample.load(r)?;
            let score = r.get_f32()?;
            let age = r.get_u32()?;
            entries.push(BufferEntry { sample, score, age });
        }
        self.entries = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_tensor::Tensor;

    fn sample(label: usize, id: u64) -> Sample {
        Sample::new(Tensor::zeros([1, 2, 2]), label, id)
    }

    #[test]
    fn capacity_is_enforced_on_replace() {
        let mut buf = ReplayBuffer::new(2);
        buf.replace_all(vec![
            BufferEntry::new(sample(0, 0), 0.0),
            BufferEntry::new(sample(1, 1), 0.0),
            BufferEntry::new(sample(2, 2), 0.0),
        ]);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn ages_tick_and_saturate() {
        let mut buf = ReplayBuffer::new(1);
        buf.replace_all(vec![BufferEntry::new(sample(0, 0), 0.5)]);
        assert_eq!(buf.entries()[0].age, 0);
        buf.tick_ages();
        buf.tick_ages();
        assert_eq!(buf.entries()[0].age, 2);
    }

    #[test]
    fn histogram_counts_labels() {
        let mut buf = ReplayBuffer::new(4);
        buf.replace_all(vec![
            BufferEntry::new(sample(0, 0), 0.0),
            BufferEntry::new(sample(0, 1), 0.0),
            BufferEntry::new(sample(2, 2), 0.0),
        ]);
        assert_eq!(buf.class_histogram(3), vec![2, 0, 1]);
        assert_eq!(buf.class_coverage(3), 2);
    }

    #[test]
    fn persist_roundtrip_restores_entries_scores_and_ages() {
        let mut source = ReplayBuffer::new(3);
        source.replace_all(vec![
            BufferEntry { sample: sample(1, 10), score: 0.25, age: 2 },
            BufferEntry { sample: sample(0, 11), score: -0.0, age: 0 },
        ]);
        let bytes = sdc_persist::save_state(&source);
        let mut target = ReplayBuffer::new(3);
        sdc_persist::load_state(&mut target, &bytes).unwrap();
        assert_eq!(target.len(), 2);
        assert_eq!(target.entries()[0].sample.id, 10);
        assert_eq!(target.entries()[0].age, 2);
        assert_eq!(target.entries()[1].score.to_bits(), (-0.0f32).to_bits());

        let mut wrong_capacity = ReplayBuffer::new(4);
        assert!(sdc_persist::load_state(&mut wrong_capacity, &bytes).is_err());
    }

    #[test]
    fn drain_empties_buffer() {
        let mut buf = ReplayBuffer::new(2);
        buf.replace_all(vec![BufferEntry::new(sample(0, 0), 0.0)]);
        let drained = buf.drain();
        assert_eq!(drained.len(), 1);
        assert!(buf.is_empty());
    }
}
