//! Temporally correlated, non-iid input streams.
//!
//! Implements the paper's stream model (§IV-A): the metric *Strength of
//! Temporal Correlation (STC)* is the number of consecutive stream items
//! drawn from the same class before a class change. A camera following a
//! group of goats, then a group of zebras, produces exactly such runs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdc_persist::{Persist, PersistError, StateReader, StateWriter};
use sdc_tensor::Result;

use crate::sample::Sample;
use crate::synth::SynthDataset;

/// An endless unlabeled input stream with temporal class correlation.
///
/// ```
/// use sdc_data::stream::TemporalStream;
/// use sdc_data::synth::{SynthConfig, SynthDataset};
///
/// let ds = SynthDataset::new(SynthConfig::default());
/// let mut stream = TemporalStream::new(ds, 4, 7);
/// let seg = stream.next_segment(8)?;
/// // STC=4: the first four items share a class, as do the next four.
/// assert!(seg[..4].windows(2).all(|w| w[0].label == w[1].label));
/// # Ok::<(), sdc_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct TemporalStream {
    dataset: SynthDataset,
    stc: usize,
    rng: StdRng,
    current_class: usize,
    remaining_in_run: usize,
    emitted: u64,
}

impl TemporalStream {
    /// Creates a stream over `dataset` with the given STC (run length).
    /// An STC of 1 yields an iid stream.
    ///
    /// # Panics
    ///
    /// Panics if `stc == 0` or the dataset has no classes.
    pub fn new(dataset: SynthDataset, stc: usize, seed: u64) -> Self {
        assert!(stc > 0, "STC must be at least 1");
        assert!(dataset.num_classes() > 0, "dataset must have classes");
        let mut rng = StdRng::seed_from_u64(seed);
        let current_class = rng.random_range(0..dataset.num_classes());
        Self { dataset, stc, rng, current_class, remaining_in_run: stc, emitted: 0 }
    }

    /// The configured STC.
    pub fn stc(&self) -> usize {
        self.stc
    }

    /// Number of samples emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &SynthDataset {
        &self.dataset
    }

    /// Produces the next stream item.
    fn next_sample(&mut self) -> Result<Sample> {
        if self.remaining_in_run == 0 {
            // Class change: pick a different class to make run boundaries
            // real boundaries even for tiny class counts.
            let n = self.dataset.num_classes();
            if n > 1 {
                let mut next = self.rng.random_range(0..n - 1);
                if next >= self.current_class {
                    next += 1;
                }
                self.current_class = next;
            }
            self.remaining_in_run = self.stc;
        }
        self.remaining_in_run -= 1;
        self.emitted += 1;
        self.dataset.sample(self.current_class, &mut self.rng)
    }

    /// Produces the next `n` stream items (the segment `I` of the paper's
    /// framework).
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn next_segment(&mut self, n: usize) -> Result<Vec<Sample>> {
        (0..n).map(|_| self.next_sample()).collect()
    }
}

/// Snapshot capture of the stream *cursor*: the PRNG position, the run
/// bookkeeping (`current_class`, `remaining_in_run`, `emitted`), and
/// the dataset's sample-id counter (the one piece of mutable dataset
/// state — synthesis itself is a pure function of class and the
/// cursor's RNG). Restoring the cursor into a stream built over the
/// same dataset configuration and STC resumes the exact sample
/// sequence, ids included; STC and class count are validated to catch
/// configuration drift.
impl Persist for TemporalStream {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.stc as u64);
        w.put_u64(self.dataset.num_classes() as u64);
        for s in self.rng.state() {
            w.put_u64(s);
        }
        w.put_u64(self.current_class as u64);
        w.put_u64(self.remaining_in_run as u64);
        w.put_u64(self.emitted);
        w.put_u64(self.dataset.id_cursor());
    }

    fn load(&mut self, r: &mut StateReader) -> std::result::Result<(), PersistError> {
        let stc = r.get_u64()? as usize;
        let classes = r.get_u64()? as usize;
        if stc != self.stc || classes != self.dataset.num_classes() {
            return Err(PersistError::StateMismatch {
                message: format!(
                    "stream cursor was saved for stc {stc} / {classes} classes, this stream has \
                     stc {} / {} classes",
                    self.stc,
                    self.dataset.num_classes()
                ),
            });
        }
        let state = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        let current_class = r.get_u64()? as usize;
        let remaining_in_run = r.get_u64()? as usize;
        let emitted = r.get_u64()?;
        if current_class >= classes || remaining_in_run > stc {
            return Err(PersistError::StateMismatch {
                message: format!(
                    "cursor fields out of range: class {current_class}, run {remaining_in_run}"
                ),
            });
        }
        let id_cursor = r.get_u64()?;
        self.rng = StdRng::from_state(state);
        self.current_class = current_class;
        self.remaining_in_run = remaining_in_run;
        self.emitted = emitted;
        self.dataset.set_id_cursor(id_cursor);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;

    fn stream(stc: usize, seed: u64) -> TemporalStream {
        TemporalStream::new(SynthDataset::new(SynthConfig::default()), stc, seed)
    }

    /// Empirical STC of a label sequence: the mean run length of equal
    /// consecutive labels.
    fn measure_stc(labels: &[usize]) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        let mut runs = 1usize;
        for w in labels.windows(2) {
            if w[0] != w[1] {
                runs += 1;
            }
        }
        labels.len() as f32 / runs as f32
    }

    #[test]
    fn runs_have_exactly_stc_length() {
        let mut s = stream(5, 1);
        let seg = s.next_segment(25).unwrap();
        let labels: Vec<usize> = seg.iter().map(|x| x.label).collect();
        for chunk in labels.chunks(5) {
            assert!(chunk.iter().all(|&l| l == chunk[0]), "{labels:?}");
        }
        // Consecutive runs use different classes.
        assert_ne!(labels[4], labels[5]);
    }

    #[test]
    fn measured_stc_matches_configuration() {
        let mut s = stream(10, 2);
        let seg = s.next_segment(400).unwrap();
        let labels: Vec<usize> = seg.iter().map(|x| x.label).collect();
        let measured = measure_stc(&labels);
        assert!((measured - 10.0).abs() < 1.0, "measured {measured}");
    }

    #[test]
    fn stc_one_gives_roughly_uniform_class_mix() {
        let mut s = stream(1, 3);
        let seg = s.next_segment(2000).unwrap();
        let mut counts = [0usize; 10];
        for x in &seg {
            counts[x.label] += 1;
        }
        for (c, &count) in counts.iter().enumerate() {
            assert!(count > 100, "class {c} count {count}");
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<usize> =
            stream(4, 9).next_segment(40).unwrap().iter().map(|s| s.label).collect();
        let b: Vec<usize> =
            stream(4, 9).next_segment(40).unwrap().iter().map(|s| s.label).collect();
        assert_eq!(a, b);
        let c: Vec<usize> =
            stream(4, 10).next_segment(40).unwrap().iter().map(|s| s.label).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn persisted_cursor_resumes_the_exact_sample_sequence() {
        let mut original = stream(3, 11);
        original.next_segment(10).unwrap(); // advance mid-run
        let bytes = sdc_persist::save_state(&original);
        let tail = original.next_segment(20).unwrap();

        let mut resumed = stream(3, 999); // wrong seed: cursor overrides
        sdc_persist::load_state(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.emitted(), 10);
        let resumed_tail = resumed.next_segment(20).unwrap();
        for (a, b) in tail.iter().zip(&resumed_tail) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.id, b.id);
            for (x, y) in a.image.data().iter().zip(b.image.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "resumed pixels diverged");
            }
        }
    }

    #[test]
    fn cursor_restore_rejects_configuration_drift() {
        let original = stream(3, 1);
        let bytes = sdc_persist::save_state(&original);
        let mut wrong_stc = stream(5, 1);
        assert!(sdc_persist::load_state(&mut wrong_stc, &bytes).is_err());
    }

    #[test]
    fn emitted_counter_tracks_stream_position() {
        let mut s = stream(3, 4);
        s.next_segment(7).unwrap();
        assert_eq!(s.emitted(), 7);
    }

    #[test]
    fn measure_stc_edge_cases() {
        assert_eq!(measure_stc(&[]), 0.0);
        assert_eq!(measure_stc(&[1, 1, 1, 1]), 4.0);
        assert_eq!(measure_stc(&[1, 2, 3, 4]), 1.0);
    }
}
