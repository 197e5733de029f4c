//! Order statistics over timing samples.
//!
//! Latencies use the nearest-rank quantile (a real sample, never an
//! interpolation between two). A tail is reported at the highest percentile
//! of [`LADDER`] that still has at least [`MIN_BEYOND`] samples beyond it,
//! together with the sample count, so a p99 over 120 samples is never
//! passed off as a measured tail.

/// Percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 0-based index of the nearest-rank `p`-th percentile among `n` sorted
/// samples (`n >= 1`, `0 < p <= 100`).
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending). Panics on an
/// empty slice: every caller has checked its sample count first.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[rank(sorted.len(), p)]
}

/// Sort a copy of `xs` ascending (NaN-free by construction at every caller).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `xs` sorted ascending.
pub fn sorted_u64(mut xs: Vec<u64>) -> Vec<u64> {
    xs.sort_unstable();
    xs
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        // Exactly ten beyond qualifies; nine does not.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
    }

    #[test]
    fn nearest_rank_returns_real_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7u64], 99.9), 7);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
