//! Bounded-memory run histograms and downsampled time series.
//!
//! Long-horizon runs (10^8 steps on sparse instances) cannot afford
//! per-step storage, so everything here is O(1) memory in the horizon:
//!
//! * [`LogHistogram`] — power-of-two log-bucketed value histogram (65 fixed
//!   buckets cover the full `u64` range) with p50/p90/p99/max summaries;
//! * [`TimeSeries`] — a fixed-resolution downsampled series that coarsens
//!   ×2 whenever its bucket array fills, so resolution degrades gracefully
//!   instead of memory growing;
//! * [`RunHistograms`] — a [`Probe`] recording per-job flow and per-step
//!   ready-depth/utilization into the above, with an O(1) idle-gap batch
//!   update so fast-forwarded gaps cost nothing.

use crate::probe::{Probe, StepStat};
use flowtree_dag::{JobId, Time};

/// Number of buckets: one for zero plus one per power of two up to `2^63`.
const BUCKETS: usize = 65;

/// Log-bucketed histogram of `u64` values.
///
/// Bucket 0 holds exact zeros; bucket `b >= 1` holds values in
/// `[2^(b-1), 2^b)`. Quantiles are reported as the upper edge of the bucket
/// containing the target rank, clamped to the observed maximum — a value
/// within a factor 2 of the true quantile, at 65 × 8 bytes of state.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { counts: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl LogHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket(v: u64) -> usize {
        Self::bucket_of(v)
    }

    /// Index of the bucket holding `v` (0 for zero, else `65 - clz(v)`).
    /// Public so external recorders (e.g. an atomic sharded histogram) can
    /// bucket identically and rebuild via [`from_parts`](Self::from_parts).
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Number of buckets a [`from_parts`](Self::from_parts) counts slice
    /// must have.
    pub const NUM_BUCKETS: usize = BUCKETS;

    /// Rebuild a histogram from externally accumulated state: per-bucket
    /// counts (indexed by [`bucket_of`](Self::bucket_of)), the value sum,
    /// and the observed maximum. Panics if `counts` is not
    /// [`NUM_BUCKETS`](Self::NUM_BUCKETS) long.
    pub fn from_parts(counts: &[u64], sum: u128, max: u64) -> Self {
        assert_eq!(counts.len(), BUCKETS, "need {BUCKETS} bucket counts");
        let mut h = LogHistogram::new();
        h.counts.copy_from_slice(counts);
        h.count = counts.iter().sum();
        h.sum = sum;
        h.max = max;
        h
    }

    /// Fold `other` into `self`: bucket-wise count sums, value-sum sums, max
    /// of maxes. Merging per-shard histograms of disjoint streams yields
    /// exactly the histogram of the concatenated stream.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical observations in O(1).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `q`-quantile (`0 < q <= 1`): the upper edge of the
    /// bucket holding the `ceil(q * count)`-th smallest observation, clamped
    /// to the observed max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let upper = if b == 0 {
                    0
                } else {
                    (1u64 << (b - 1)).saturating_mul(2) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Default [`TimeSeries`] resolution (buckets kept in memory).
pub const SERIES_RESOLUTION: usize = 1024;

/// Fixed-memory downsampled time series.
///
/// Values are appended one per time step; each stored bucket aggregates
/// `scale()` consecutive steps (sum and max). When all `resolution` buckets
/// are full the series *coarsens*: adjacent buckets merge pairwise and the
/// scale doubles, keeping memory constant for any horizon — 10^8 steps at
/// resolution 1024 end at scale 2^17 ≈ 131k steps per bucket.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    resolution: usize,
    scale: u64,
    /// Completed buckets: (sum, max) per bucket.
    buckets: Vec<(u64, u64)>,
    cur_sum: u64,
    cur_max: u64,
    cur_n: u64,
    total: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(SERIES_RESOLUTION)
    }
}

impl TimeSeries {
    /// Series keeping at most `resolution` buckets (`resolution >= 2`).
    pub fn new(resolution: usize) -> Self {
        assert!(resolution >= 2, "a series needs at least two buckets");
        TimeSeries {
            resolution,
            scale: 1,
            buckets: Vec::new(),
            cur_sum: 0,
            cur_max: 0,
            cur_n: 0,
            total: 0,
        }
    }

    /// Append one step's value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Append `n` consecutive steps of the same value, in O(buckets touched)
    /// — the idle-gap path (`n` up to 10^8) touches at most
    /// `resolution * log2(n / resolution)` buckets over a whole run.
    pub fn record_n(&mut self, v: u64, mut n: u64) {
        while n > 0 {
            let take = n.min(self.scale - self.cur_n);
            self.cur_sum += v * take;
            self.cur_max = self.cur_max.max(v);
            self.cur_n += take;
            self.total += take;
            n -= take;
            if self.cur_n == self.scale {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        self.buckets.push((self.cur_sum, self.cur_max));
        self.cur_sum = 0;
        self.cur_max = 0;
        self.cur_n = 0;
        if self.buckets.len() == self.resolution {
            // Coarsen: merge adjacent pairs, double the scale.
            let merged: Vec<(u64, u64)> = self
                .buckets
                .chunks(2)
                .map(|pair| {
                    let (s1, m1) = pair[0];
                    let (s2, m2) = pair.get(1).copied().unwrap_or((0, 0));
                    (s1 + s2, m1.max(m2))
                })
                .collect();
            self.buckets = merged;
            self.scale *= 2;
        }
    }

    /// Steps aggregated per completed bucket.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Total steps recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Per-bucket `(mean, max)` pairs, including the trailing partial bucket
    /// (whose mean is over the steps it actually holds).
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = self
            .buckets
            .iter()
            .map(|&(sum, max)| (sum as f64 / self.scale as f64, max))
            .collect();
        if self.cur_n > 0 {
            out.push((self.cur_sum as f64 / self.cur_n as f64, self.cur_max));
        }
        out
    }
}

/// Probe recording run-shape distributions: per-job flow, per-step
/// ready-depth and scheduled-width histograms, plus downsampled ready-depth
/// and utilization time series. All state is O(resolution): flows are
/// recorded at completion from the release time the hook passes.
#[derive(Debug, Clone, Default)]
pub struct RunHistograms {
    /// Per-job flow `C_i - r_i` distribution (one observation per job).
    pub flow: LogHistogram,
    /// Ready-pool size per step.
    pub ready_depth: LogHistogram,
    /// Subjobs scheduled per step (utilization × m).
    pub scheduled: LogHistogram,
    /// Downsampled ready-depth over time.
    pub ready_series: TimeSeries,
    /// Downsampled scheduled-width over time.
    pub scheduled_series: TimeSeries,
}

impl RunHistograms {
    /// Fresh, with default series resolution.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Probe for RunHistograms {
    fn on_start(&mut self, _m: usize, _num_jobs: usize) {
        *self = RunHistograms::default();
    }

    fn on_complete(&mut self, t: Time, _job: JobId, release: Time) {
        self.flow.record(t - release);
    }

    fn on_step(&mut self, _t: Time, stat: StepStat) {
        self.ready_depth.record(stat.ready_depth as u64);
        self.scheduled.record(stat.scheduled as u64);
        self.ready_series.record(stat.ready_depth as u64);
        self.scheduled_series.record(stat.scheduled as u64);
    }

    /// O(1)-ish batch form: a gap is `steps` all-idle steps.
    fn on_idle_gap(&mut self, _t0: Time, steps: Time, _m: usize) {
        self.ready_depth.record_n(0, steps);
        self.scheduled.record_n(0, steps);
        self.ready_series.record_n(0, steps);
        self.scheduled_series.record_n(0, steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket(0), 0);
        assert_eq!(LogHistogram::bucket(1), 1);
        assert_eq!(LogHistogram::bucket(2), 2);
        assert_eq!(LogHistogram::bucket(3), 2);
        assert_eq!(LogHistogram::bucket(4), 3);
        assert_eq!(LogHistogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn quantiles_bound_the_data_within_a_factor_two() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (1.0, 1000)] {
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(est < exact * 2, "q={q}: {est} >= 2x exact {exact}");
        }
        // Quantiles never exceed the observed max.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_matches_single_stream_and_from_parts_roundtrips() {
        let mut single = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 0..500u64 {
            single.record(v * 3);
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
        }
        a.merge(&b);
        assert_eq!(a.counts, single.counts);
        assert_eq!(a.count(), single.count());
        assert_eq!(a.max(), single.max());
        assert_eq!(a.p50(), single.p50());
        assert_eq!(a.p99(), single.p99());
        // from_parts on the raw pieces rebuilds the same histogram.
        let rebuilt = LogHistogram::from_parts(&single.counts, single.sum, single.max);
        assert_eq!(rebuilt.counts, single.counts);
        assert_eq!(rebuilt.count(), single.count());
        assert!((rebuilt.mean() - single.mean()).abs() < 1e-12);
    }

    #[test]
    fn quantile_handles_zeros_and_empty() {
        let mut h = LogHistogram::new();
        assert_eq!(h.p50(), 0);
        h.record_n(0, 10);
        h.record(8);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 8);
    }

    #[test]
    fn series_coarsens_and_preserves_totals() {
        let mut s = TimeSeries::new(4);
        for v in 0..32u64 {
            s.record(v);
        }
        assert_eq!(s.len(), 32);
        // 32 steps in <= 4 buckets: scale reached 16.
        assert!(s.buckets.len() < 4);
        assert_eq!(s.scale(), 16);
        let total: u64 = s.buckets.iter().map(|&(sum, _)| sum).sum::<u64>() + s.cur_sum;
        assert_eq!(total, (0..32).sum::<u64>());
        // Max of the final bucket is the global max.
        assert_eq!(s.buckets().last().unwrap().1, 31);
    }

    #[test]
    fn series_record_n_matches_stepwise() {
        let mut a = TimeSeries::new(8);
        let mut b = TimeSeries::new(8);
        a.record_n(3, 100);
        a.record_n(0, 1_000_000);
        a.record(5);
        for _ in 0..100 {
            b.record(3);
        }
        for _ in 0..1_000_000 {
            b.record(0);
        }
        b.record(5);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.scale, b.scale);
        assert_eq!((a.cur_sum, a.cur_max, a.cur_n), (b.cur_sum, b.cur_max, b.cur_n));
    }

    #[test]
    fn run_histograms_batch_gap_matches_default_replay() {
        let mut batched = RunHistograms::new();
        batched.on_start(4, 1);
        batched.on_idle_gap(0, 10_000, 4);
        let mut stepwise = RunHistograms::new();
        stepwise.on_start(4, 1);
        for t in 0..10_000 {
            stepwise.on_step(t, StepStat { scheduled: 0, idle_procs: 4, ready_depth: 0 });
        }
        assert_eq!(batched.ready_depth.count(), stepwise.ready_depth.count());
        assert_eq!(batched.scheduled_series.buckets, stepwise.scheduled_series.buckets);
    }
}
