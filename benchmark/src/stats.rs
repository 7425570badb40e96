//! Order statistics used by the benchmark: medians of repeated wall-clock
//! measurements and nearest-rank percentiles of per-query latencies.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a median of nothing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// `(max − min) ÷ median`: how far repeated measurements of one quantity
/// lie apart, as a share of their median. 0 for a single sample.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    let (lo, hi) = min_max(values);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile
/// position among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// A tail percentile is only reported when at least ten samples lie beyond
/// it; with fewer it is an anecdote about a handful of queries.
pub fn percentile_is_resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_one_odd_and_even_counts() {
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(min_max(&[2.0, -1.0, 3.0]), (-1.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[42], 99.0), 42);
        // Even count: the lower of the two middle samples.
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50.0), 3);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99);
        assert_eq!(percentile(&hundred, 100.0), 100);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(percentile_is_resolved(1000, 99.0));
        assert!(!percentile_is_resolved(999, 99.0));
        // A median needs twenty samples for ten to lie beyond it.
        assert!(percentile_is_resolved(20, 50.0));
        assert!(!percentile_is_resolved(19, 50.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
        assert_eq!(samples_beyond(1, 99.0), 0);
    }
}
