//! Sample summaries over nanosecond latencies.
//!
//! Samples stay in whole nanoseconds end to end: a flow-model call takes
//! about a microsecond, so truncating to microseconds (what the `bench`
//! harness's `compute_micros` does) rounds most samples to 0, 1 or 2 and
//! can put the mean above the 99th percentile.

/// Count, extremes, mean and nearest-rank percentiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples summarised.
    pub count: usize,
    /// Smallest sample.
    pub min: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 90th percentile.
    pub p90: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl Summary {
    /// Summarise `samples` (any order). An empty set summarises to zeros.
    pub fn of(samples: &[u64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        Summary {
            count: sorted.len(),
            min: sorted[0],
            mean: total as f64 / sorted.len() as f64,
            p50: nearest_rank(&sorted, 50.0),
            p90: nearest_rank(&sorted, 90.0),
            p99: nearest_rank(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// The nearest-rank `percentile` of an ascending, non-empty slice: the
/// smallest sample such that at least `percentile`% of the samples are at
/// or below it (rank `ceil(p/100 · n)`, 1-based).
pub fn nearest_rank(sorted: &[u64], percentile: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (percentile / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice. Used for per-round rates, which are fractional.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 5);
        assert_eq!(nearest_rank(&sorted, 90.0), 9);
        assert_eq!(nearest_rank(&sorted, 91.0), 10);
        assert_eq!(nearest_rank(&sorted, 99.0), 10);
        assert_eq!(nearest_rank(&sorted, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn summary_orders_its_statistics_and_reports_the_count() {
        // Sub-microsecond samples with 1 % slow outliers: the mean lands
        // above p99 here legitimately, while the percentiles stay ordered.
        let mut samples: Vec<u64> = vec![180; 990];
        samples.extend([40_000; 10]);
        samples.reverse();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max, "{s:?}");
        assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64, "{s:?}");
        assert_eq!((s.min, s.p50, s.p99, s.max), (180, 180, 180, 40_000));
        for seed in 1..50u64 {
            let samples: Vec<u64> = (0..seed * 7)
                .map(|i| (i * 2_654_435_761 + seed) % 10_007)
                .collect();
            let s = Summary::of(&samples);
            assert_eq!(s.count, samples.len());
            assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max, "{s:?}");
            assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64, "{s:?}");
        }
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
