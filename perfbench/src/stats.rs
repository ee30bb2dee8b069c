//! Order statistics over latency samples.

/// Percentiles the tail helper may pick, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in percent) of `values`; `NaN` when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n > 0` samples, in
/// integer per-mille arithmetic so that, say, p99.9 of 10 000 samples
/// is rank 9 990 exactly.
fn rank(n: usize, q: f64) -> usize {
    let per_mille = (q * 10.0).round() as usize;
    (per_mille * n).div_ceil(1_000).clamp(1, n)
}

/// Median of `values` (mean of the middle two when even); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Samples strictly beyond nearest-rank percentile `q` out of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest of [`TAIL_CANDIDATES`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && samples_beyond(n, q) >= MIN_BEYOND)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3_000 {
            if let Some(q) = tail_percentile(n) {
                assert!(samples_beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
                let higher = TAIL_CANDIDATES.iter().filter(|&&c| c > q);
                for &c in higher {
                    assert!(samples_beyond(n, c) < MIN_BEYOND, "n={n} skipped {c}");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
