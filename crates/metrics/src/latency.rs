//! Streaming latency histogram.

use mp2p_sim::SimDuration;

/// Number of log₂ buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1)) ms`, bucket 0 holds `[0, 2) ms`; 32 buckets cover
/// ~49 days, far beyond any simulated latency.
const BUCKETS: usize = 32;

/// A streaming histogram of query latencies (the metric of Fig. 8 and
/// Fig. 9(b), plotted by the paper in log scale — hence log buckets).
///
/// # Example
///
/// ```
/// use mp2p_metrics::LatencyStats;
/// use mp2p_sim::SimDuration;
///
/// let mut l = LatencyStats::default();
/// for ms in [10, 20, 30, 40] {
///     l.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(l.count(), 4);
/// assert_eq!(l.mean(), SimDuration::from_millis(25));
/// assert!(l.percentile(0.5) >= SimDuration::from_millis(16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    buckets: [u64; BUCKETS],
    count: u64,
    total_ms: u64,
    max_ms: u64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            buckets: [0; BUCKETS],
            count: 0,
            total_ms: 0,
            max_ms: 0,
        }
    }
}

impl LatencyStats {
    /// Records one observed latency.
    pub fn record(&mut self, latency: SimDuration) {
        let ms = latency.as_millis();
        let bucket = if ms < 2 {
            0
        } else {
            (ms.ilog2() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean (not bucket-quantised).
    pub fn mean(&self) -> SimDuration {
        match self.total_ms.checked_div(self.count) {
            Some(ms) => SimDuration::from_millis(ms),
            None => SimDuration::ZERO,
        }
    }

    /// Mean in fractional seconds (convenient for tables).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Largest observation.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_millis(self.max_ms)
    }

    /// Approximate `p`-quantile (bucket upper bound), `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile must be in [0,1], got {p}"
        );
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, clamped to the observed max.
                let bound = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)).saturating_sub(1)
                };
                return SimDuration::from_millis(bound.min(self.max_ms));
            }
        }
        self.max()
    }

    /// Exact sum of all observations, in milliseconds.
    pub fn sum_millis(&self) -> u64 {
        self.total_ms
    }

    /// Adds another instrument's observations into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_ms += other.total_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zero() {
        let l = LatencyStats::default();
        assert_eq!(l.count(), 0);
        assert_eq!(l.mean(), SimDuration::ZERO);
        assert_eq!(l.percentile(0.99), SimDuration::ZERO);
        assert_eq!(l.max(), SimDuration::ZERO);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut l = LatencyStats::default();
        for ms in [5, 15, 100] {
            l.record(SimDuration::from_millis(ms));
        }
        assert_eq!(l.mean(), SimDuration::from_millis(40));
        assert_eq!(l.max(), SimDuration::from_millis(100));
    }

    #[test]
    fn percentile_is_monotone() {
        let mut l = LatencyStats::default();
        for ms in 1..=1_000u64 {
            l.record(SimDuration::from_millis(ms));
        }
        let p50 = l.percentile(0.5);
        let p90 = l.percentile(0.9);
        let p99 = l.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= l.max());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyStats::default();
        let mut b = LatencyStats::default();
        let mut c = LatencyStats::default();
        for ms in [3, 9, 27] {
            a.record(SimDuration::from_millis(ms));
            c.record(SimDuration::from_millis(ms));
        }
        for ms in [81, 243] {
            b.record(SimDuration::from_millis(ms));
            c.record(SimDuration::from_millis(ms));
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn bucket_boundaries_land_in_the_right_bucket() {
        // ms < 2 goes to bucket 0; otherwise bucket = floor(log2 ms),
        // so an exact power of two 2^i opens bucket i and 2^i - 1
        // still belongs to bucket i-1.
        let mut l = LatencyStats::default();
        l.record(SimDuration::from_millis(0));
        l.record(SimDuration::from_millis(1));
        assert_eq!(l.buckets[0], 2);
        for i in 1..20usize {
            let mut l = LatencyStats::default();
            let edge = 1u64 << i;
            l.record(SimDuration::from_millis(edge));
            l.record(SimDuration::from_millis(edge - 1));
            l.record(SimDuration::from_millis(2 * edge - 1));
            assert_eq!(l.buckets[i], 2, "2^{i} and 2^{{{i}+1}}-1 share bucket {i}");
            assert_eq!(l.buckets[i - 1], 1, "2^{i}-1 stays below bucket {i}");
        }
    }

    #[test]
    fn huge_values_clamp_to_the_last_bucket() {
        let mut l = LatencyStats::default();
        l.record(SimDuration::from_millis(u64::MAX / 2));
        assert_eq!(l.buckets[BUCKETS - 1], 1);
        assert_eq!(l.count(), 1);
        // The percentile reports the last bucket's upper bound
        // (2^BUCKETS - 1 ms), which caps below the observed max.
        let bound = (1u64 << BUCKETS) - 1;
        assert_eq!(l.percentile(1.0), SimDuration::from_millis(bound));
        assert!(l.percentile(1.0) <= l.max());
    }

    #[test]
    fn p99_on_tiny_samples_returns_the_top_observation_bucket() {
        // One observation: every percentile must resolve to it.
        let mut one = LatencyStats::default();
        one.record(SimDuration::from_millis(100));
        assert_eq!(one.percentile(0.99), SimDuration::from_millis(100));
        assert_eq!(one.percentile(0.01), SimDuration::from_millis(100));

        // Two observations far apart: p99 ranks to the larger one, p50
        // to the smaller one's bucket (upper bound 2^(i+1)-1).
        let mut two = LatencyStats::default();
        two.record(SimDuration::from_millis(10));
        two.record(SimDuration::from_millis(5_000));
        assert_eq!(two.percentile(0.99), SimDuration::from_millis(5_000));
        assert_eq!(two.percentile(0.5), SimDuration::from_millis(15));

        // p = 0 still ranks at least one observation deep.
        assert_eq!(two.percentile(0.0), SimDuration::from_millis(15));
    }

    #[test]
    fn sum_and_bucket_accessors_agree_with_recording() {
        let mut l = LatencyStats::default();
        for ms in [1, 2, 3, 4, 1_000] {
            l.record(SimDuration::from_millis(ms));
        }
        assert_eq!(l.sum_millis(), 1_010);
        let total: u64 = l.buckets.iter().sum();
        assert_eq!(total, l.count());
    }

    proptest! {
        #[test]
        fn prop_percentile_bounded_by_max(ms_list in proptest::collection::vec(0u64..100_000, 1..200), p in 0.0f64..1.0) {
            let mut l = LatencyStats::default();
            for ms in &ms_list {
                l.record(SimDuration::from_millis(*ms));
            }
            prop_assert!(l.percentile(p) <= l.max());
            prop_assert_eq!(l.count(), ms_list.len() as u64);
        }
    }
}
