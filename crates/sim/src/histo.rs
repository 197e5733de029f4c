//! Bounded-memory run histograms.
//!
//! Long-horizon runs (10^8 steps on sparse instances) cannot afford
//! per-step storage, so everything here is O(1) memory in the horizon:
//!
//! * [`LogHistogram`] — power-of-two log-bucketed value histogram (65 fixed
//!   buckets cover the full `u64` range) with p50/p90/p99/max summaries;
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

/// Probe recording run-shape distributions: per-job flow, per-step
/// ready-depth and scheduled-width histograms. All state is O(1): flows are
/// recorded at completion from the release time the hook passes.
#[derive(Debug, Clone, Default)]
pub struct RunHistograms {
    /// Per-job flow `C_i - r_i` distribution (one observation per job).
    pub flow: LogHistogram,
    /// Ready-pool size per step.
    pub ready_depth: LogHistogram,
    /// Subjobs scheduled per step (utilization × m).
    pub scheduled: LogHistogram,
}

impl RunHistograms {
    /// Fresh, empty histograms.
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

    fn on_step(&mut self, _t: Time, stat: StepStat<'_>) {
        self.ready_depth.record(stat.ready_depth as u64);
        self.scheduled.record(stat.picks.len() as u64);
    }

    /// O(1)-ish batch form: a gap is `steps` all-idle steps.
    fn on_idle_gap(&mut self, _t0: Time, steps: Time, _m: usize) {
        self.ready_depth.record_n(0, steps);
        self.scheduled.record_n(0, steps);
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
    fn run_histograms_batch_gap_matches_default_replay() {
        let mut batched = RunHistograms::new();
        batched.on_start(4, 1);
        batched.on_idle_gap(0, 10_000, 4);
        let mut stepwise = RunHistograms::new();
        stepwise.on_start(4, 1);
        for t in 0..10_000 {
            stepwise.on_step(t, StepStat { picks: &[], idle_procs: 4, ready_depth: 0 });
        }
        for (b, s) in [
            (&batched.ready_depth, &stepwise.ready_depth),
            (&batched.scheduled, &stepwise.scheduled),
        ] {
            assert_eq!((b.count(), b.sum, b.max()), (s.count(), s.sum, s.max()));
            assert_eq!(b.counts, s.counts);
        }
    }
}
