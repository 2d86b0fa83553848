//! Lazy scoring schedule (paper §III-D, Eq. (7)–(8)).
//!
//! A buffered datum's score changes only as fast as the slowly updated
//! encoder, so it is re-computed every `T` iterations instead of every
//! iteration: `B'ₜ = {xᵢ ∈ Bₜ : age(xᵢ) mod T == 0}` re-scores,
//! everything else reuses `Sₜ₋₁(xᵢ)`.

use serde::{Deserialize, Serialize};

/// Decides which buffer entries are re-scored at each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LazySchedule {
    /// Re-scoring interval `T`; `None` disables lazy scoring (every entry
    /// re-scored every iteration, the paper's default for fair policy
    /// comparisons).
    pub interval: Option<u32>,
}

impl LazySchedule {
    /// Lazy scoring disabled: always re-score.
    pub fn disabled() -> Self {
        Self { interval: None }
    }

    /// Re-score every `t` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn every(t: u32) -> Self {
        assert!(t > 0, "lazy interval must be positive");
        Self { interval: Some(t) }
    }

    /// Whether an entry of the given age is re-scored this iteration
    /// (Eq. (7)).
    pub fn needs_rescore(&self, age: u32) -> bool {
        match self.interval {
            None => true,
            Some(t) => age.is_multiple_of(t),
        }
    }
}

impl Default for LazySchedule {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_always_rescores() {
        let s = LazySchedule::disabled();
        for age in 0..10 {
            assert!(s.needs_rescore(age));
        }
    }

    #[test]
    fn interval_rescoring_follows_modulo() {
        let s = LazySchedule::every(4);
        let rescored: Vec<u32> = (0..12).filter(|&a| s.needs_rescore(a)).collect();
        assert_eq!(rescored, vec![0, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        LazySchedule::every(0);
    }
}
