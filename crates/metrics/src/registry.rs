//! Windowed time-series metrics registry.
//!
//! End-of-run instruments ([`crate::TrafficStats`], [`crate::LatencyStats`])
//! answer "what happened over the whole run"; a [`Registry`] records named
//! counters, gauges and histograms, each sliced into fixed sim-time
//! windows (60 s by default), so a series shows *when* something
//! happened. It is a recorder only: no command renders or writes it out.
//!
//! Metric names are plain strings and may embed labels
//! (`traffic_sends_total{class="POLL"}`, spelled by [`metric_name`]); the
//! registry treats the whole string as the key.

use std::collections::BTreeMap;

use mp2p_sim::{SimDuration, SimTime};

use crate::latency::LatencyStats;

/// A monotone counter sliced into fixed windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowedCounter {
    /// Increment sum per window, index = window number since t = 0.
    series: Vec<u64>,
    total: u64,
}

impl WindowedCounter {
    /// Total across all windows.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-window increments (index = window number; trailing windows
    /// with no activity are absent).
    pub fn series(&self) -> &[u64] {
        &self.series
    }
}

/// A last-write-wins gauge sampled into fixed windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowedGauge {
    /// Last value set within each window (`None` = never set there).
    series: Vec<Option<i64>>,
    last: Option<i64>,
}

impl WindowedGauge {
    /// The most recently set value.
    pub fn last(&self) -> Option<i64> {
        self.last
    }

    /// Per-window last values (index = window number).
    pub fn series(&self) -> &[Option<i64>] {
        &self.series
    }
}

/// A latency histogram sliced into fixed windows, with a cumulative
/// all-run histogram kept alongside so whole-run percentiles stay exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowedHistogram {
    series: Vec<LatencyStats>,
    cumulative: LatencyStats,
}

impl WindowedHistogram {
    /// The whole-run histogram (every observation, all windows).
    pub fn cumulative(&self) -> &LatencyStats {
        &self.cumulative
    }

    /// Per-window histograms (index = window number).
    pub fn series(&self) -> &[LatencyStats] {
        &self.series
    }
}

/// A registry of named windowed metrics.
///
/// # Example
///
/// ```
/// use mp2p_metrics::Registry;
/// use mp2p_sim::{SimDuration, SimTime};
///
/// let mut reg = Registry::new(SimDuration::from_secs(60));
/// reg.counter_add("queries_total", SimTime::from_millis(5_000), 1);
/// reg.counter_add("queries_total", SimTime::from_millis(65_000), 2);
/// reg.observe(
///     "latency_ms",
///     SimTime::from_millis(65_000),
///     SimDuration::from_millis(40),
/// );
/// let c = reg.counter("queries_total").unwrap();
/// assert_eq!(c.total(), 3);
/// assert_eq!(c.series(), &[1, 2]);
/// assert_eq!(reg.histogram("latency_ms").unwrap().cumulative().count(), 1);
/// assert_eq!(reg.window_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Registry {
    window: SimDuration,
    counters: BTreeMap<String, WindowedCounter>,
    gauges: BTreeMap<String, WindowedGauge>,
    histograms: BTreeMap<String, WindowedHistogram>,
}

impl Registry {
    /// Creates a registry slicing time into `window`-sized buckets.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window > SimDuration::ZERO,
            "registry window must be non-zero"
        );
        Registry {
            window,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn window_index(&self, at: SimTime) -> usize {
        (at.as_millis() / self.window.as_millis()) as usize
    }

    /// Adds `delta` to the counter `name` in the window containing `at`.
    pub fn counter_add(&mut self, name: &str, at: SimTime, delta: u64) {
        let idx = self.window_index(at);
        let c = series(&mut self.counters, name);
        if c.series.len() <= idx {
            c.series.resize(idx + 1, 0);
        }
        c.series[idx] += delta;
        c.total += delta;
    }

    /// Sets the gauge `name` to `value` in the window containing `at`
    /// (last write within a window wins).
    pub fn gauge_set(&mut self, name: &str, at: SimTime, value: i64) {
        let idx = self.window_index(at);
        let g = series(&mut self.gauges, name);
        if g.series.len() <= idx {
            g.series.resize(idx + 1, None);
        }
        g.series[idx] = Some(value);
        g.last = Some(value);
    }

    /// Records one observation into the histogram `name`, both in the
    /// window containing `at` and cumulatively.
    pub fn observe(&mut self, name: &str, at: SimTime, value: SimDuration) {
        let idx = self.window_index(at);
        let h = series(&mut self.histograms, name);
        if h.series.len() <= idx {
            h.series.resize(idx + 1, LatencyStats::default());
        }
        h.series[idx].record(value);
        h.cumulative.record(value);
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<&WindowedCounter> {
        self.counters.get(name)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<&WindowedGauge> {
        self.gauges.get(name)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&WindowedHistogram> {
        self.histograms.get(name)
    }

    /// The number of windows spanned by the busiest series.
    pub fn window_count(&self) -> usize {
        let c = self.counters.values().map(|c| c.series.len()).max();
        let g = self.gauges.values().map(|g| g.series.len()).max();
        let h = self.histograms.values().map(|h| h.series.len()).max();
        c.into_iter().chain(g).chain(h).max().unwrap_or(0)
    }
}

/// The series under `name`, created on first use. Looked up by `&str`
/// first: a name is owned once per series, not once per update.
fn series<'a, T: Default>(map: &'a mut BTreeMap<String, T>, name: &str) -> &'a mut T {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), T::default());
    }
    map.get_mut(name).expect("present, or inserted above")
}

/// Builds a registry key `base{k1="v1",k2="v2"}` with label values
/// escaped (`\\` for a backslash, `\"` for a double quote, `\n` for a
/// line feed), so a value can never close its label early. With no
/// labels the base name is returned bare.
pub fn metric_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_owned();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn counters_slice_into_windows() {
        let mut reg = Registry::new(SimDuration::from_secs(60));
        reg.counter_add("sends", t(0), 1);
        reg.counter_add("sends", t(59_999), 1);
        reg.counter_add("sends", t(60_000), 5);
        reg.counter_add("sends", t(180_000), 2);
        let c = reg.counter("sends").unwrap();
        assert_eq!(c.total(), 9);
        assert_eq!(c.series(), &[2, 5, 0, 2]);
        assert_eq!(reg.window_count(), 4);
    }

    #[test]
    fn gauges_are_last_write_wins_per_window() {
        let mut reg = Registry::new(SimDuration::from_secs(60));
        reg.gauge_set("relays", t(5_000), 3);
        reg.gauge_set("relays", t(30_000), 7);
        reg.gauge_set("relays", t(125_000), 4);
        let g = reg.gauge("relays").unwrap();
        assert_eq!(g.last(), Some(4));
        assert_eq!(g.series(), &[Some(7), None, Some(4)]);
    }

    #[test]
    fn windowed_histogram_cumulative_agrees_with_flat_stats() {
        // Satellite: identical input into the classic LatencyStats and
        // the windowed histogram must agree exactly (cumulative side),
        // and the window series must partition the observations.
        let mut flat = LatencyStats::default();
        let mut reg = Registry::new(SimDuration::from_secs(60));
        let inputs: Vec<(u64, u64)> = (0..500)
            .map(|i| (i * 731 % 300_000, (i * 37) % 10_000))
            .collect();
        for &(at_ms, lat_ms) in &inputs {
            flat.record(SimDuration::from_millis(lat_ms));
            reg.observe("lat", t(at_ms), SimDuration::from_millis(lat_ms));
        }
        let h = reg.histogram("lat").unwrap();
        assert_eq!(h.cumulative(), &flat);
        assert_eq!(h.cumulative().percentile(0.99), flat.percentile(0.99));
        let window_total: u64 = h.series().iter().map(|w| w.count()).sum();
        assert_eq!(window_total, flat.count());
        // Merging the windows reproduces the cumulative histogram.
        let mut merged = LatencyStats::default();
        for w in h.series() {
            merged.merge(w);
        }
        assert_eq!(&merged, h.cumulative());
    }

    #[test]
    fn metric_name_escapes_label_values() {
        assert_eq!(metric_name("plain", &[]), "plain");
        assert_eq!(
            metric_name("m_total", &[("class", "POLL"), ("node", "7")]),
            "m_total{class=\"POLL\",node=\"7\"}"
        );
        assert_eq!(
            metric_name("m", &[("k", "a\\b\"c\nd")]),
            "m{k=\"a\\\\b\\\"c\\nd\"}"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_is_rejected() {
        let _ = Registry::new(SimDuration::ZERO);
    }
}
