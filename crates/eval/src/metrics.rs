//! Classification metrics.

/// Top-1 accuracy of predictions against ground truth.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accuracy(predictions: &[usize], targets: &[usize]) -> f32 {
    assert_eq!(predictions.len(), targets.len(), "prediction/target length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions.iter().zip(targets).filter(|(p, t)| p == t).count();
    correct as f32 / predictions.len() as f32
}

/// Top-k accuracy: a prediction row counts as correct if the target is
/// among its `k` highest logits.
///
/// # Panics
///
/// Panics if `k == 0`, `logits.len()` is not a multiple of `classes`, or
/// the row count differs from `targets.len()`.
pub fn top_k_accuracy(logits: &[f32], classes: usize, targets: &[usize], k: usize) -> f32 {
    assert!(k > 0, "k must be positive");
    assert_eq!(logits.len() % classes.max(1), 0, "logits not a whole number of rows");
    let rows = logits.len() / classes;
    assert_eq!(rows, targets.len(), "row/target count mismatch");
    if rows == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for (row, &t) in logits.chunks(classes).zip(targets) {
        let target_logit = row[t];
        // Rank = number of strictly larger entries; ties resolved in the
        // target's favour (consistent with argmax_rows picking the first
        // maximum).
        let larger = row.iter().filter(|&&v| v > target_logit).count();
        if larger < k {
            correct += 1;
        }
    }
    correct as f32 / rows as f32
}

/// Argmax over each row of a logits matrix given as `(rows, data)`.
pub fn argmax_rows(data: &[f32], cols: usize) -> Vec<usize> {
    assert!(cols > 0, "argmax over zero columns");
    data.chunks(cols)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn argmax_rows_picks_max_per_row() {
        let logits = [0.1f32, 0.9, 0.0, 5.0, -1.0, 2.0];
        assert_eq!(argmax_rows(&logits, 3), vec![1, 0]);
    }

    #[test]
    fn top_k_expands_with_k() {
        // Row 0: target ranked 2nd; row 1: target ranked 1st.
        let logits = [0.5f32, 0.9, 0.0, 5.0, -1.0, 2.0];
        let targets = [0usize, 0];
        assert_eq!(top_k_accuracy(&logits, 3, &targets, 1), 0.5);
        assert_eq!(top_k_accuracy(&logits, 3, &targets, 2), 1.0);
    }

    #[test]
    fn top_k_equals_top1_of_argmax() {
        let logits = [0.1f32, 0.9, 0.0, 5.0, -1.0, 2.0, 1.0, 2.0, 3.0];
        let targets = [1usize, 0, 0];
        let preds = argmax_rows(&logits, 3);
        assert_eq!(top_k_accuracy(&logits, 3, &targets, 1), accuracy(&preds, &targets));
    }
}
