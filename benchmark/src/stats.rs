//! Estimators the benchmark reports with: nearest-rank percentiles, the
//! median over measurement windows, and the rule that says whether a
//! percentile has enough samples beyond it to be worth printing.
//!
//! Every statistic is computed per window and the *median over the
//! windows* is what a run reports: one disturbed window (a neighbour on a
//! shared host, a page-cache flush) moves a mean but not a median.

/// A percentile is only reported as trustworthy when at least this many
/// samples lie strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples: the smallest
/// rank with at least a `q` share of the samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice: a window with no samples has no percentile,
/// and the caller must not invent one.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank position of quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of `values` (the mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Minimum, median and maximum over windows — what an `unstable` ledger
/// metric prints so its spread is visible beside its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest window value.
    pub min: f64,
    /// Median over windows.
    pub median: f64,
    /// Largest window value.
    pub max: f64,
}

/// [`Spread`] of `values`; `None` when empty.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let median = median(values)?;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(Spread { min, median, max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcache_types::rng::{RandomSource, SplitMix64};

    /// The definition, executed literally: the smallest sample such that
    /// at least a `q` share of all samples are at or below it.
    fn oracle_percentile(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let need = q * samples.len() as f64;
        for &candidate in &sorted {
            let at_or_below = samples.iter().filter(|&&s| s <= candidate).count();
            if at_or_below as f64 >= need {
                return candidate;
            }
        }
        *sorted.last().expect("non-empty")
    }

    #[test]
    fn percentile_matches_the_sorted_vector_oracle() {
        let mut rng = SplitMix64::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 2001] {
            let samples: Vec<u64> = (0..n).map(|_| rng.next_u64() % 50).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile(&sorted, q),
                    oracle_percentile(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn percentile_of_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    fn supported(n: usize, q: f64) -> bool {
        samples_beyond(n, q) >= MIN_BEYOND
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        // The issue's floor: 2000 pooled samples leave 20 beyond p99.
        assert_eq!(samples_beyond(2000, 0.99), 20);
        // p50 needs only 20 samples, p90 a hundred.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(supported(100, 0.9));
        assert!(!supported(99, 0.9));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_handles_odd_and_even_window_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // Even count: the mean of the two middle values, not either one.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[10.0, 20.0]), Some(15.0));
        // One wild window does not move it.
        assert_eq!(median(&[400.0, 410.0, 9000.0, 405.0, 395.0]), Some(405.0));
    }

    #[test]
    fn median_matches_a_sorted_vector_oracle() {
        let mut rng = SplitMix64::new(11);
        for n in 1..40usize {
            let values: Vec<f64> = (0..n).map(|_| (rng.next_u64() % 1000) as f64).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let expect = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            assert_eq!(median(&values), Some(expect), "n={n}");
        }
    }

    #[test]
    fn spread_reports_extremes_beside_the_median() {
        let s = spread(&[2.0, 80.0, 3.0]).expect("non-empty");
        assert_eq!((s.min, s.median, s.max), (2.0, 3.0, 80.0));
        assert_eq!(spread(&[]), None);
    }
}
