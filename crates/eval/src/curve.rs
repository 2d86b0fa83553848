//! Learning-curve recording and speedup analysis (paper Figs. 4–6).

use serde::{Deserialize, Serialize};

/// One learning-curve checkpoint: probe accuracy after a number of seen
/// stream inputs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Stream samples consumed so far (the x-axis of Figs. 4–6).
    pub seen: u64,
    /// Probe accuracy at this point.
    pub accuracy: f32,
}

/// A labelled learning curve.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LearningCurve {
    /// Curve label (policy name).
    pub label: String,
    /// Checkpoints in stream order.
    pub points: Vec<CurvePoint>,
}

impl LearningCurve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// Appends a checkpoint.
    pub fn push(&mut self, seen: u64, accuracy: f32) {
        self.points.push(CurvePoint { seen, accuracy });
    }

    /// Final accuracy (last checkpoint), or 0 if empty.
    pub fn final_accuracy(&self) -> f32 {
        self.points.last().map_or(0.0, |p| p.accuracy)
    }

    /// Best accuracy over the curve, or 0 if empty.
    pub fn best_accuracy(&self) -> f32 {
        self.points.iter().map(|p| p.accuracy).fold(0.0, f32::max)
    }

    /// The number of seen inputs at which the curve first reaches
    /// `target` accuracy, if ever — the quantity behind the paper's
    /// "2.67× faster learning" claim.
    fn inputs_to_reach(&self, target: f32) -> Option<u64> {
        self.points.iter().find(|p| p.accuracy >= target).map(|p| p.seen)
    }

    /// Speedup of this curve over `other` at reaching `target` accuracy:
    /// `other.inputs / self.inputs`. `None` if either never reaches it.
    pub fn speedup_over(&self, other: &LearningCurve, target: f32) -> Option<f32> {
        let mine = self.inputs_to_reach(target)?;
        let theirs = other.inputs_to_reach(target)?;
        if mine == 0 {
            None
        } else {
            Some(theirs as f32 / mine as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(u64, f32)]) -> LearningCurve {
        let mut c = LearningCurve::new("test");
        for &(s, a) in points {
            c.push(s, a);
        }
        c
    }

    #[test]
    fn final_and_best_accuracy() {
        let c = curve(&[(10, 0.3), (20, 0.6), (30, 0.5)]);
        assert_eq!(c.final_accuracy(), 0.5);
        assert_eq!(c.best_accuracy(), 0.6);
        assert_eq!(LearningCurve::new("e").final_accuracy(), 0.0);
    }

    #[test]
    fn inputs_to_reach_finds_first_crossing() {
        let c = curve(&[(10, 0.3), (20, 0.6), (30, 0.7)]);
        assert_eq!(c.inputs_to_reach(0.6), Some(20));
        assert_eq!(c.inputs_to_reach(0.9), None);
    }

    #[test]
    fn speedup_matches_paper_semantics() {
        // Ours reaches 76% at 3.74M inputs; baseline needs 9.98M →
        // 2.67× faster (paper Fig. 4a).
        let ours = curve(&[(3_740_000, 0.761)]);
        let baseline = curve(&[(9_980_000, 0.761)]);
        let s = ours.speedup_over(&baseline, 0.76).unwrap();
        assert!((s - 2.668).abs() < 0.01, "speedup {s}");
    }
}
