//! Sampled time-series gauge.

/// A periodically sampled scalar (relay-peer population, route-table
/// size, …) with streaming mean/min/max.
///
/// # Example
///
/// ```
/// use mp2p_metrics::Gauge;
///
/// let mut g = Gauge::default();
/// g.sample(2.0);
/// g.sample(4.0);
/// assert_eq!(g.mean(), 3.0);
/// assert_eq!(g.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    count: u64,
    total: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Gauge {
    /// Records one sample.
    pub fn sample(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.total += value;
        self.last = value;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Most recent sample (0 when empty).
    pub fn last(&self) -> f64 {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_gauge_reads_zero() {
        let g = Gauge::default();
        assert_eq!((g.count(), g.mean(), g.min(), g.max()), (0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn tracks_extremes_and_mean() {
        let mut g = Gauge::default();
        for v in [5.0, -1.0, 8.0] {
            g.sample(v);
        }
        assert_eq!(g.min(), -1.0);
        assert_eq!(g.max(), 8.0);
        assert_eq!(g.mean(), 4.0);
        assert_eq!(g.last(), 8.0);
    }
}
