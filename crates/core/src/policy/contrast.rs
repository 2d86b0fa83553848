//! The proposed policy: contrast-scoring replacement with optional lazy
//! scoring (paper §III-B and §III-D).

use sdc_data::Sample;
use sdc_persist::{PersistError, StateReader, StateWriter};
use sdc_tensor::{Result, TensorError};

use super::{ReplacementOutcome, ReplacementPolicy};
use crate::buffer::{BufferEntry, ReplayBuffer};
use crate::lazy::LazySchedule;
use crate::model::ContrastiveModel;
use crate::score::{contrast_scores, top_k_indices};

/// Contrast-scoring data replacement: the next buffer is the top-N of
/// `B ∪ I` by `S(x) = 1 − zᵀ z⁺` (paper Eq. (4)).
///
/// With a [`LazySchedule`], buffered entries are only re-scored when
/// `age mod T == 0`, reusing stale scores otherwise (Eq. (8)); incoming
/// data are always scored.
///
/// The paper conjectures (§IV-D) that lazy scoring helps because a stale
/// score acts like a *momentum score* carrying information from the
/// past. [`ContrastScoringPolicy::with_score_momentum`] makes that
/// mechanism explicit: re-scored entries blend the fresh score with the
/// old one, `s ← (1 − α)·s_old + α·s_new`, instead of replacing it.
#[derive(Debug, Clone, Default)]
pub struct ContrastScoringPolicy {
    schedule: LazySchedule,
    /// Weight of the *new* score when re-scoring; `1.0` disables
    /// momentum (plain replacement).
    momentum: Option<f32>,
}

impl ContrastScoringPolicy {
    /// Creates the policy with lazy scoring disabled (the paper's default
    /// for policy comparisons).
    pub fn new() -> Self {
        Self { schedule: LazySchedule::disabled(), momentum: None }
    }

    /// Creates the policy with the given lazy-scoring schedule.
    pub fn with_schedule(schedule: LazySchedule) -> Self {
        Self { schedule, momentum: None }
    }

    /// Creates the policy with explicit score momentum: buffered entries'
    /// scores are EMA-smoothed with new-score weight `alpha ∈ (0, 1]`
    /// (the operationalized form of the paper's §IV-D conjecture).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn with_score_momentum(alpha: f32) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "momentum alpha must be in (0, 1]");
        Self { schedule: LazySchedule::disabled(), momentum: Some(alpha) }
    }

    /// The active schedule.
    pub fn schedule(&self) -> LazySchedule {
        self.schedule
    }

    /// [`ReplacementPolicy::replace`] with scoring delegated to `score`
    /// — the hook external serving layers use to route the combined
    /// `stale buffer ∪ incoming` scoring batch through a shared scoring
    /// service (`sdc-serve`) instead of a locally owned model.
    ///
    /// `score` receives ownership of the samples to score (stale
    /// buffer entries first, then all incoming, preserving order) —
    /// so a remote scorer ships them without an extra copy — and must
    /// return one score per sample. When `score` computes
    /// [`contrast_scores`](crate::score::contrast_scores) against the
    /// same model state, the resulting buffer is **bit-identical** to
    /// the direct [`ReplacementPolicy::replace`] path.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors, and rejects score vectors whose length
    /// does not match the request.
    pub fn replace_with(
        &mut self,
        buffer: &mut ReplayBuffer,
        incoming: Vec<Sample>,
        mut score: impl FnMut(Vec<Sample>) -> Result<Vec<f32>>,
    ) -> Result<ReplacementOutcome> {
        let buffer_len_before = buffer.len();
        buffer.tick_ages();

        // Which buffered entries re-score this iteration (Eq. (7)).
        let rescore_idx: Vec<usize> = buffer
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| self.schedule.needs_rescore(e.age))
            .map(|(i, _)| i)
            .collect();

        // One batched request scores stale buffer entries + all incoming.
        let mut to_score: Vec<Sample> =
            rescore_idx.iter().map(|&i| buffer.entries()[i].sample.clone()).collect();
        to_score.extend(incoming.iter().cloned());
        let to_score_len = to_score.len();
        let scores = if to_score.is_empty() { Vec::new() } else { score(to_score)? };
        if scores.len() != to_score_len {
            return Err(TensorError::InvalidArgument {
                op: "replace_with",
                message: format!(
                    "scorer returned {} scores for {to_score_len} samples",
                    scores.len(),
                ),
            });
        }
        let (buffer_scores, incoming_scores) = scores.split_at(rescore_idx.len());
        for (&i, &s) in rescore_idx.iter().zip(buffer_scores) {
            let entry = &mut buffer.entries_mut()[i];
            entry.score = match self.momentum {
                Some(alpha) => (1.0 - alpha) * entry.score + alpha * s,
                None => s,
            };
        }

        // Candidate pool B ∪ I with (possibly stale) scores.
        let old_entries = buffer.drain();
        let mut candidates: Vec<BufferEntry> = old_entries;
        let boundary = candidates.len();
        candidates.extend(
            incoming.into_iter().zip(incoming_scores).map(|(s, &score)| BufferEntry::new(s, score)),
        );

        // Top-N selection (Eq. (4)).
        let all_scores: Vec<f32> = candidates.iter().map(|e| e.score).collect();
        let keep = top_k_indices(&all_scores, buffer.capacity().min(candidates.len()));
        let retained_from_buffer = keep.iter().filter(|&&i| i < boundary).count();
        let mut selected: Vec<BufferEntry> = Vec::with_capacity(keep.len());
        let mut candidates: Vec<Option<BufferEntry>> = candidates.into_iter().map(Some).collect();
        for &i in &keep {
            selected.push(candidates[i].take().expect("top_k indices are unique"));
        }
        let candidates_count = candidates.len();
        buffer.replace_all(selected);

        Ok(ReplacementOutcome {
            candidates: candidates_count,
            rescored_buffer: rescore_idx.len(),
            buffer_len_before,
            retained_from_buffer,
            scoring_forward_samples: 2 * to_score_len,
        })
    }
}

impl ReplacementPolicy for ContrastScoringPolicy {
    fn name(&self) -> &'static str {
        "Contrast Scoring"
    }

    fn replace(
        &mut self,
        model: &mut ContrastiveModel,
        buffer: &mut ReplayBuffer,
        incoming: Vec<Sample>,
    ) -> Result<ReplacementOutcome> {
        self.replace_with(buffer, incoming, |samples| contrast_scores(model, &samples))
    }

    /// The scoring policy's evolving state (scores, ages) lives in the
    /// buffer entries; what is captured here is the schedule and
    /// momentum configuration so a restore can **prove** the node
    /// re-scores on the same cadence the snapshot was taken under —
    /// `load_state` rejects drift rather than silently absorbing it.
    fn save_state(&self, w: &mut StateWriter) {
        match self.schedule.interval {
            None => w.put_u32(0),
            Some(t) => w.put_u32(t),
        }
        match self.momentum {
            None => w.put_u8(0),
            Some(alpha) => {
                w.put_u8(1);
                w.put_f32(alpha);
            }
        }
    }

    fn load_state(&mut self, r: &mut StateReader) -> std::result::Result<(), PersistError> {
        let interval = r.get_u32()?;
        let momentum = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_f32()?),
            other => {
                return Err(PersistError::StateMismatch {
                    message: format!("unknown momentum tag {other}"),
                })
            }
        };
        let saved =
            if interval == 0 { LazySchedule::disabled() } else { LazySchedule::every(interval) };
        if saved != self.schedule || momentum.map(f32::to_bits) != self.momentum.map(f32::to_bits) {
            return Err(PersistError::StateMismatch {
                message: format!(
                    "snapshot policy configuration (schedule {saved:?}, momentum {momentum:?}) \
                     differs from this instance's ({:?}, {:?})",
                    self.schedule, self.momentum
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::{check_policy_invariants, make_samples, tiny_model};

    #[test]
    fn upholds_policy_invariants() {
        check_policy_invariants(&mut ContrastScoringPolicy::new());
    }

    #[test]
    fn keeps_highest_scoring_candidates() {
        let mut model = tiny_model();
        let mut policy = ContrastScoringPolicy::new();
        let mut buffer = ReplayBuffer::new(3);
        let batch = make_samples(6, 0, 0, 3);
        // Compute the ground-truth ranking directly.
        let scores = contrast_scores(&mut model, &batch).unwrap();
        let want: std::collections::HashSet<u64> =
            top_k_indices(&scores, 3).into_iter().map(|i| batch[i].id).collect();
        policy.replace(&mut model, &mut buffer, batch).unwrap();
        let got: std::collections::HashSet<u64> =
            buffer.entries().iter().map(|e| e.sample.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn eager_mode_rescores_whole_buffer() {
        let mut model = tiny_model();
        let mut policy = ContrastScoringPolicy::new();
        let mut buffer = ReplayBuffer::new(4);
        policy.replace(&mut model, &mut buffer, make_samples(4, 0, 0, 4)).unwrap();
        let out = policy.replace(&mut model, &mut buffer, make_samples(4, 0, 10, 5)).unwrap();
        assert_eq!(out.rescored_buffer, 4);
        assert!((out.rescoring_fraction() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lazy_mode_rescores_subset_and_reuses_stale_scores() {
        let mut model = tiny_model();
        let mut policy = ContrastScoringPolicy::with_schedule(LazySchedule::every(4));
        let mut buffer = ReplayBuffer::new(4);
        policy.replace(&mut model, &mut buffer, make_samples(4, 0, 0, 6)).unwrap();
        // Ages become 1..; with T=4 nothing re-scores at ages 1,2,3.
        let mut total_rescored = 0;
        for step in 0..3 {
            let out = policy
                .replace(&mut model, &mut buffer, make_samples(4, 0, 100 + step * 10, 7 + step))
                .unwrap();
            total_rescored += out.rescored_buffer;
        }
        // Strictly fewer than eager (which would be 12); survivors get
        // re-scored only when age hits a multiple of 4.
        assert!(total_rescored < 12, "rescored {total_rescored}");
        // All entries still carry a finite score in [0,2].
        for e in buffer.entries() {
            assert!((0.0..=2.0).contains(&e.score));
        }
    }

    #[test]
    fn score_momentum_smooths_buffer_scores() {
        let mut model = tiny_model();
        let mut policy = ContrastScoringPolicy::with_score_momentum(0.5);
        let mut buffer = ReplayBuffer::new(4);
        policy.replace(&mut model, &mut buffer, make_samples(4, 0, 0, 20)).unwrap();
        let initial: Vec<f32> = buffer.entries().iter().map(|e| e.score).collect();
        // Re-scoring the unchanged model yields the same fresh scores, so
        // EMA with any alpha leaves survivors' scores unchanged...
        policy.replace(&mut model, &mut buffer, make_samples(0, 0, 50, 21)).unwrap();
        for e in buffer.entries() {
            let was = initial.iter().any(|&s| (s - e.score).abs() < 1e-5);
            assert!(was, "EMA of identical scores must be a fixed point");
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_momentum_alpha_panics() {
        ContrastScoringPolicy::with_score_momentum(0.0);
    }

    #[test]
    fn external_scorer_matches_direct_replace_bit_for_bit() {
        use crate::score::contrast_scores_shared;
        let mut model = tiny_model();
        let mut direct = ContrastScoringPolicy::with_schedule(LazySchedule::every(2));
        let mut external = ContrastScoringPolicy::with_schedule(LazySchedule::every(2));
        let mut buf_direct = ReplayBuffer::new(4);
        let mut buf_external = ReplayBuffer::new(4);
        for step in 0u64..4 {
            let batch = make_samples(4, 0, step * 10, 30 + step);
            let out_d = direct.replace(&mut model, &mut buf_direct, batch.clone()).unwrap();
            let out_e = external
                .replace_with(&mut buf_external, batch, |s| contrast_scores_shared(&model, &s))
                .unwrap();
            assert_eq!(out_d, out_e, "outcomes diverged at step {step}");
            for (d, e) in buf_direct.entries().iter().zip(buf_external.entries()) {
                assert_eq!(d.sample.id, e.sample.id);
                assert_eq!(d.score.to_bits(), e.score.to_bits());
                assert_eq!(d.age, e.age);
            }
        }
    }

    #[test]
    fn scorer_length_mismatch_is_rejected() {
        let mut policy = ContrastScoringPolicy::new();
        let mut buffer = ReplayBuffer::new(4);
        let err = policy
            .replace_with(&mut buffer, make_samples(3, 0, 0, 40), |_| Ok(vec![0.5]))
            .unwrap_err();
        assert!(format!("{err}").contains("scorer returned"), "{err}");
    }

    #[test]
    fn lazy_outcome_reports_fewer_scoring_forwards() {
        let mut model = tiny_model();
        let mut eager = ContrastScoringPolicy::new();
        let mut lazy = ContrastScoringPolicy::with_schedule(LazySchedule::every(50));
        let mut buf_e = ReplayBuffer::new(4);
        let mut buf_l = ReplayBuffer::new(4);
        eager.replace(&mut model, &mut buf_e, make_samples(4, 0, 0, 8)).unwrap();
        lazy.replace(&mut model, &mut buf_l, make_samples(4, 0, 0, 8)).unwrap();
        let oe = eager.replace(&mut model, &mut buf_e, make_samples(4, 0, 10, 9)).unwrap();
        let ol = lazy.replace(&mut model, &mut buf_l, make_samples(4, 0, 10, 9)).unwrap();
        assert!(ol.scoring_forward_samples < oe.scoring_forward_samples);
    }
}
