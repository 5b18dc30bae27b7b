//! Order statistics: nearest-rank percentiles with the "enough samples
//! beyond it" rule, and quartiles as Python's `statistics.quantiles(n=4)`
//! gives them, which is what the acceptance driver computes.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts in place; NaNs (never produced by a timing) sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon keeps
/// a product such as 0.99 × 1000 from rounding up past its exact value.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of a sorted slice: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// A tail percentile, reported only when at least [`MIN_BEYOND`] samples
/// lie beyond it; otherwise the tail is a handful of points and not a
/// percentile.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.len() < rank(sorted.len(), q) + MIN_BEYOND {
        return None;
    }
    percentile(sorted, q)
}

pub fn median(sorted: &[f64]) -> Option<f64> {
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[n / 2]),
        n => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// `(q1, q2, q3)` by the exclusive method of `statistics.quantiles(values,
/// n=4)`. Needs two samples, as Python does.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(sorted)?;
    (q2 != 0.0).then(|| ((q3 - q1) / q2).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), Some(50.0));
        assert_eq!(percentile(&data, 0.99), Some(99.0));
        assert_eq!(percentile(&data, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1,000 samples is rank 990: exactly ten lie beyond it.
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(989.0));
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
        assert_eq!(tail_percentile(&[], 0.99), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 5, 8, 13, 21], n=4) == [4.0, 8.0, 17.0]
        assert_eq!(
            quartiles(&[3.0, 5.0, 8.0, 13.0, 21.0]),
            Some((4.0, 8.0, 17.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[1.0, 3.0, 9.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&data), Some(1.0));
    }
}
