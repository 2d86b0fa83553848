//! Order statistics for the benchmark's timings.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! strictly beyond its rank, so a p90 needs 100 samples and a p50 needs
//! 20. Runs are made long enough to meet that; the percentile is never
//! swapped for a lower one.

/// Samples that must lie beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` samples: `⌈q·n⌉`,
/// clamped to `[1, n]`.
pub fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Smallest sample count for which quantile `q` has [`MIN_BEYOND`]
/// samples beyond its rank.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| n - rank(q, n) >= MIN_BEYOND).expect("some n satisfies the rule")
}

/// Nearest-rank quantile `q` of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(q, n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, n) - 1])
}

/// Plain median of a small set (set-up repetitions, A/B block medians):
/// the mean of the two middle values for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// `median(a) / median(b) − 1`: the share of extra time `a` takes over
/// `b` (0 when either is empty).
pub fn overhead(a: &[f64], b: &[f64]) -> f64 {
    match (median(a), median(b)) {
        (Some(x), Some(y)) if y > 0.0 => x / y - 1.0,
        _ => 0.0,
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio of a layer nothing exercised).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a fold of 32-bit words: the loss and weight fingerprints.
pub fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
