//! Small statistics helpers for experiment outputs.

/// `p`-th percentile (0–100) by linear interpolation; input need not
/// be sorted. Panics on empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty data");
    assert!((0.0..=100.0).contains(&p));
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Arithmetic mean. Panics on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Fraction of samples ≥ a threshold.
pub fn fraction_at_least(xs: &[f64], threshold: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x >= threshold).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        // Interpolation.
        let ys = [0.0, 10.0];
        assert_eq!(percentile(&ys, 30.0), 3.0);
    }

    #[test]
    fn mean_and_cdf() {
        let xs = [2.0, 4.0, 6.0];
        assert_eq!(mean(&xs), 4.0);
    }

    #[test]
    fn fraction_threshold() {
        let xs = [0.5, 0.9, 1.0, 1.0];
        assert_eq!(fraction_at_least(&xs, 0.9), 0.75);
        assert_eq!(fraction_at_least(&xs, 2.0), 0.0);
        assert_eq!(fraction_at_least(&[], 0.0), 0.0);
    }
}
