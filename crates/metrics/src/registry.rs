//! Windowed time-series metrics registry.
//!
//! End-of-run instruments ([`crate::TrafficStats`], [`crate::LatencyStats`])
//! answer "what happened over the whole run"; production stacks are driven
//! by *percentiles over time*. A [`Registry`] holds named counters, gauges
//! and histograms, each sliced into fixed sim-time windows (60 s by
//! default), and snapshots either as hand-rolled JSON or as a
//! Prometheus-style text exposition.
//!
//! Metric names are plain strings and may embed Prometheus-style labels
//! (`traffic_sends_total{class="POLL"}`); the registry treats the whole
//! string as the key and only splits the base name off for `# TYPE`
//! comment lines.

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
/// assert!(reg.to_json().starts_with("{\"window_ms\":60000"));
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

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
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

    /// Serialises the whole registry as one JSON object (hand-rolled —
    /// the build environment has no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;

        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"window_ms\":{}", self.window.as_millis());

        out.push_str(",\"counters\":{");
        for (i, (name, c)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            let _ = write!(out, ":{{\"total\":{},\"series\":[", c.total);
            for (j, v) in c.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push_str("]}");
        }
        out.push('}');

        out.push_str(",\"gauges\":{");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            out.push_str(":{\"last\":");
            match g.last {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"series\":[");
            for (j, v) in g.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match v {
                    Some(v) => {
                        let _ = write!(out, "{v}");
                    }
                    None => out.push_str("null"),
                }
            }
            out.push_str("]}");
        }
        out.push('}');

        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, name);
            out.push(':');
            write_histogram_json(&mut out, &h.cumulative);
            // Re-open the cumulative object to append the window series.
            out.pop();
            out.push_str(",\"series\":[");
            for (j, w) in h.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_histogram_json(&mut out, w);
            }
            out.push_str("]}");
        }
        out.push('}');

        out.push('}');
        out
    }

    /// Renders the registry in Prometheus text exposition format
    /// (counters and gauges as-is, histograms as summaries with
    /// `quantile` labels plus `_sum`/`_count`).
    ///
    /// Each metric *family* (base name with labels stripped) gets exactly
    /// one `# TYPE` line, even when many labelled series share it.
    pub fn render_prometheus(&self) -> String {
        use std::collections::BTreeSet;
        use std::fmt::Write;

        // Families already typed. A set rather than compare-with-previous:
        // BTreeMap iteration order can interleave families ('{' sorts
        // after some name characters), so same-family keys need not be
        // adjacent.
        let mut typed: BTreeSet<&str> = BTreeSet::new();
        let mut out = String::with_capacity(1024);
        for (name, c) in &self.counters {
            let base = base_name(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} counter");
            }
            let _ = writeln!(out, "{} {}", name, c.total);
        }
        for (name, g) in &self.gauges {
            let base = base_name(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} gauge");
            }
            let _ = writeln!(out, "{} {}", name, g.last.unwrap_or(0));
        }
        for (name, h) in &self.histograms {
            let base = base_name(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} summary");
            }
            let cum = &h.cumulative;
            for (p, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "{} {}",
                    with_label(name, "quantile", tag),
                    cum.percentile(p).as_millis()
                );
            }
            let _ = writeln!(out, "{} {}", suffixed(name, "_sum"), cum.sum_millis());
            let _ = writeln!(out, "{} {}", suffixed(name, "_count"), cum.count());
        }
        out
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

/// Writes one histogram snapshot object: count, mean, max, p50/p95/p99.
fn write_histogram_json(out: &mut String, h: &LatencyStats) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"count\":{},\"sum_ms\":{},\"max_ms\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
        h.count(),
        h.sum_millis(),
        h.max().as_millis(),
        h.percentile(0.5).as_millis(),
        h.percentile(0.95).as_millis(),
        h.percentile(0.99).as_millis(),
    );
}

/// The metric name with any `{label="…"}` suffix stripped (for `# TYPE`).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Builds a registry key `base{k1="v1",k2="v2"}` with label values
/// escaped per the Prometheus text exposition format (`\\` for a
/// backslash, `\"` for a double quote, `\n` for a line feed). With no
/// labels the base name is returned bare.
///
/// Use this instead of `format!` whenever a label value is not a known
/// literal — a raw `"` or newline in a value otherwise corrupts the
/// whole exposition.
///
/// # Panics
///
/// Panics (debug builds) if `base` or a label key strays outside the
/// Prometheus name charsets (`[a-zA-Z_:][a-zA-Z0-9_:]*` for metric
/// names, `[a-zA-Z_][a-zA-Z0-9_]*` for label keys).
pub fn metric_name(base: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(valid_metric_name(base), "bad metric name {base:?}");
    if labels.is_empty() {
        return base.to_owned();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        debug_assert!(valid_label_key(key), "bad label key {key:?}");
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

/// Whether `name` matches the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `key` matches the Prometheus label-key charset
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn valid_label_key(key: &str) -> bool {
    let mut chars = key.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Inserts `key="value"` into the name's label set, creating one if the
/// name has none: `a{x="1"}` → `a{x="1",quantile="0.5"}`.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Appends a suffix to the base name, keeping any label set in place:
/// `a{x="1"}` + `_sum` → `a_sum{x="1"}`.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// Minimal JSON string escaping for metric names (quote, backslash,
/// control characters). Mirrors the trace crate's escaper without
/// creating a dependency cycle.
fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
    fn json_snapshot_has_every_section() {
        let mut reg = Registry::new(SimDuration::from_secs(60));
        reg.counter_add("a_total", t(1), 2);
        reg.gauge_set("b", t(1), -3);
        reg.observe("c_ms", t(1), SimDuration::from_millis(10));
        let json = reg.to_json();
        assert!(json.starts_with("{\"window_ms\":60000,"));
        assert!(json.contains("\"a_total\":{\"total\":2,\"series\":[2]}"));
        assert!(json.contains("\"b\":{\"last\":-3,\"series\":[-3]}"));
        assert!(json.contains("\"c_ms\":{\"count\":1,"));
        assert!(json.contains("\"series\":[{\"count\":1,"));
        // Balanced braces (cheap well-formedness check; full validation
        // happens in the trace crate's parser tests).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn prometheus_rendering_handles_labels() {
        let mut reg = Registry::new(SimDuration::from_secs(60));
        reg.counter_add("sends_total{class=\"POLL\"}", t(1), 4);
        reg.gauge_set("relays", t(1), 6);
        reg.observe("lat_ms", t(1), SimDuration::from_millis(100));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sends_total counter\n"));
        assert!(text.contains("sends_total{class=\"POLL\"} 4\n"));
        assert!(text.contains("# TYPE relays gauge\nrelays 6\n"));
        assert!(text.contains("lat_ms{quantile=\"0.99\"} 100\n"));
        assert!(text.contains("lat_ms_sum 100\n"));
        assert!(text.contains("lat_ms_count 1\n"));
    }

    #[test]
    fn one_type_line_per_family() {
        let mut reg = Registry::new(SimDuration::from_secs(60));
        reg.counter_add("sends_total{class=\"POLL\"}", t(1), 4);
        reg.counter_add("sends_total{class=\"UPDATE\"}", t(1), 2);
        // A base name sorting *between* the two labelled keys ('x' < '{'
        // in ASCII) — the dedup must survive interleaved iteration order.
        reg.counter_add("sends_totalx", t(1), 1);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE sends_total counter\n").count(), 1);
        assert_eq!(text.matches("# TYPE sends_totalx counter\n").count(), 1);
        assert!(text.contains("sends_total{class=\"POLL\"} 4\n"));
        assert!(text.contains("sends_total{class=\"UPDATE\"} 2\n"));
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
    fn name_charset_predicates() {
        assert!(valid_metric_name("traffic_sends_total"));
        assert!(valid_metric_name(":ns:metric"));
        assert!(valid_metric_name("_x9"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("dashed-name"));
        assert!(valid_label_key("class"));
        assert!(!valid_label_key("with:colon"));
        assert!(!valid_label_key(""));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_is_rejected() {
        let _ = Registry::new(SimDuration::ZERO);
    }
}
