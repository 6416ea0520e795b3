//! Host-side wall-clock profiling of the event loop.
//!
//! The simulator's own clock ([`crate::SimTime`]) is *simulated* time;
//! this module measures *real* time — where the host CPU actually goes
//! while the event loop runs. The [`Profiler`] is strictly
//! observational: it only ever reads [`std::time::Instant`] and
//! accumulates into its own buckets, never into simulation state, so a
//! seeded run produces bit-identical results whether profiling is on or
//! off. The price of a disabled profiler is one branch per scope.
//!
//! Scopes are named by `&'static str` bucket labels (the driver uses
//! `event:*` for world event kinds and `msg:*` for protocol message
//! classes). A scope is opened with [`Profiler::start`] — which returns
//! `None` when disabled so the hot path skips the clock read entirely —
//! and closed with [`Profiler::stop`].
//!
//! # Example
//!
//! ```
//! use mp2p_sim::Profiler;
//!
//! let mut prof = Profiler::enabled();
//! prof.begin();
//! let token = prof.start();
//! // ... do the work being measured ...
//! prof.stop("event:rx", token);
//! let report = prof.finish(1_000).expect("profiling was on");
//! assert_eq!(report.buckets[0].name, "event:rx");
//! assert_eq!(report.buckets[0].count, 1);
//! ```

use std::time::Instant;

use crate::queue::QueueStats;

/// Wall time and invocation count for one named scope family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfBucket {
    /// Bucket label (`event:query`, `msg:POLL`, ...).
    pub name: &'static str,
    /// Scopes closed under this label.
    pub count: u64,
    /// Total wall-clock nanoseconds spent inside those scopes.
    pub nanos: u128,
}

impl PerfBucket {
    /// Total wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// A scoped wall-clock profiler with named buckets.
///
/// Construct with [`Profiler::disabled`] (the default, zero-overhead
/// beyond one branch per scope) or [`Profiler::enabled`].
#[derive(Debug, Clone)]
pub struct Profiler {
    on: bool,
    run_started: Option<Instant>,
    wall_nanos: u128,
    buckets: Vec<PerfBucket>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    /// A profiler that measures nothing; every call is a cheap no-op.
    pub fn disabled() -> Self {
        Profiler {
            on: false,
            run_started: None,
            wall_nanos: 0,
            buckets: Vec::new(),
        }
    }

    /// A live profiler.
    pub fn enabled() -> Self {
        Profiler {
            on: true,
            run_started: None,
            wall_nanos: 0,
            buckets: Vec::with_capacity(32),
        }
    }

    /// Marks the start of the measured run (the events/sec denominator).
    pub fn begin(&mut self) {
        if self.on {
            self.run_started = Some(Instant::now());
        }
    }

    /// Opens a scope. Returns `None` — without reading the clock — when
    /// the profiler is disabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.on {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a scope opened by [`Profiler::start`], attributing the
    /// elapsed wall time to `name`. A `None` token no-ops, so call sites
    /// need no branch of their own.
    #[inline]
    pub fn stop(&mut self, name: &'static str, token: Option<Instant>) {
        let Some(started) = token else {
            return;
        };
        let nanos = started.elapsed().as_nanos();
        // Bucket families are small (tens of names); a linear scan is
        // cheaper than hashing short strings and keeps insertion order.
        match self.buckets.iter_mut().find(|b| b.name == name) {
            Some(b) => {
                b.count += 1;
                b.nanos += nanos;
            }
            None => self.buckets.push(PerfBucket {
                name,
                count: 1,
                nanos,
            }),
        }
    }

    /// Ends the run and produces the report: `None` when disabled.
    ///
    /// `sim_millis` is the simulated duration covered, so the report can
    /// state the sim-time-to-real-time ratio. Queue and allocation
    /// counters start zeroed; the driver fills them in.
    pub fn finish(&mut self, sim_millis: u64) -> Option<PerfReport> {
        if !self.on {
            return None;
        }
        if let Some(started) = self.run_started.take() {
            self.wall_nanos = started.elapsed().as_nanos();
        }
        let mut buckets = std::mem::take(&mut self.buckets);
        buckets.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.name.cmp(b.name)));
        Some(PerfReport {
            wall_nanos: self.wall_nanos.max(1),
            sim_millis,
            buckets,
            queue: QueueStats::default(),
            topology: TopologyStats::default(),
            frames_sent: 0,
            journal_bytes: 0,
        })
    }
}

/// What the engine's topology layer did over a run: how often the radio
/// graph was re-taken and how many adjacency rows that cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopologyStats {
    /// Topology snapshots taken (stale by age, or invalidated by a
    /// switch or a fault).
    pub snapshots: u64,
    /// Adjacency rows built, over all snapshots.
    pub rows_built: u64,
}

/// The end-of-run profiling report: where wall-clock time went, how the
/// event queue behaved, and what the run allocated at the message/trace
/// layer. Serialised (behind an opt-in flag) as the `perf` section of
/// the run report and as `BENCH_*.json` snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfReport {
    /// Wall-clock nanoseconds spent in the event loop (≥ 1).
    pub wall_nanos: u128,
    /// Simulated milliseconds covered by the run.
    pub sim_millis: u64,
    /// Per-scope wall time, sorted hottest first.
    pub buckets: Vec<PerfBucket>,
    /// Event-queue telemetry (push/pop totals, high-water marks).
    pub queue: QueueStats,
    /// Topology-layer telemetry (snapshots taken, adjacency rows built).
    pub topology: TopologyStats,
    /// MAC-level frames transmitted over the whole run (warm-up
    /// included; contrast with the report's post-warm-up traffic).
    pub frames_sent: u64,
    /// Bytes the flight recorder wrote to its journal (0 untraced).
    pub journal_bytes: u64,
}

impl PerfReport {
    /// Wall-clock seconds spent in the event loop.
    pub fn wall_secs(&self) -> f64 {
        self.wall_nanos as f64 / 1e9
    }

    /// Events handled (scopes closed under the `event:` family).
    pub fn events(&self) -> u64 {
        self.buckets
            .iter()
            .filter(|b| b.name.starts_with("event:"))
            .map(|b| b.count)
            .sum()
    }

    /// Event-loop throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events() as f64 / self.wall_secs()
    }

    /// Simulated seconds per wall-clock second (how much faster than
    /// real time the run went).
    pub fn sim_time_ratio(&self) -> f64 {
        (self.sim_millis as f64 / 1e3) / self.wall_secs()
    }

    /// The `k` hottest buckets (the list is pre-sorted by wall time).
    pub fn top(&self, k: usize) -> &[PerfBucket] {
        &self.buckets[..k.min(self.buckets.len())]
    }

    /// A bucket's share of total measured wall time, in `[0, 1]`.
    pub fn share(&self, bucket: &PerfBucket) -> f64 {
        let total: u128 = self.buckets.iter().map(|b| b.nanos).sum();
        if total == 0 {
            0.0
        } else {
            bucket.nanos as f64 / total as f64
        }
    }

    /// Serialises the report as one JSON object. Bucket names are
    /// compile-time labels from a controlled vocabulary
    /// (`event:*`/`msg:*`), asserted free of characters needing escapes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"wall_secs\":{},\"sim_secs\":{},\"events\":{},\"events_per_sec\":{},\"sim_time_ratio\":{}",
            self.wall_secs(),
            self.sim_millis as f64 / 1e3,
            self.events(),
            self.events_per_sec(),
            self.sim_time_ratio(),
        );
        let _ = write!(
            s,
            ",\"queue\":{{\"pushes\":{},\"pops\":{},\"peak_len\":{},\"peak_capacity\":{}}}",
            self.queue.pushes, self.queue.pops, self.queue.peak_len, self.queue.peak_capacity,
        );
        let _ = write!(
            s,
            ",\"topology\":{{\"snapshots\":{},\"rows_built\":{}}}",
            self.topology.snapshots, self.topology.rows_built,
        );
        let _ = write!(
            s,
            ",\"frames_sent\":{},\"journal_bytes\":{}",
            self.frames_sent, self.journal_bytes,
        );
        s.push_str(",\"buckets\":[");
        for (i, b) in self.buckets.iter().enumerate() {
            debug_assert!(
                b.name.chars().all(|c| c != '"' && c != '\\' && c >= ' '),
                "bucket label {:?} would need JSON escaping",
                b.name
            );
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"count\":{},\"wall_secs\":{},\"share\":{}}}",
                b.name,
                b.count,
                b.secs(),
                self.share(b),
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut prof = Profiler::disabled();
        prof.begin();
        let token = prof.start();
        assert!(token.is_none());
        prof.stop("event:query", token);
        assert!(prof.finish(1_000).is_none());
    }

    #[test]
    fn scopes_accumulate_per_bucket() {
        let mut prof = Profiler::enabled();
        prof.begin();
        for _ in 0..3 {
            let t = prof.start();
            prof.stop("event:rx", t);
        }
        let t = prof.start();
        prof.stop("msg:POLL", t);
        let report = prof.finish(2_000).expect("enabled");
        assert_eq!(report.sim_millis, 2_000);
        assert_eq!(report.events(), 3, "msg buckets are not events");
        let rx = report
            .buckets
            .iter()
            .find(|b| b.name == "event:rx")
            .expect("rx bucket");
        assert_eq!(rx.count, 3);
        assert!(report.events_per_sec() > 0.0);
        assert!(report.wall_secs() > 0.0);
    }

    #[test]
    fn buckets_sort_hottest_first_and_shares_sum_to_one() {
        let mut prof = Profiler::enabled();
        prof.begin();
        // A long scope and a short one.
        let t = prof.start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        prof.stop("event:slow", t);
        let t = prof.start();
        prof.stop("event:fast", t);
        let report = prof.finish(1_000).expect("enabled");
        assert_eq!(report.buckets[0].name, "event:slow");
        assert_eq!(report.top(1).len(), 1);
        assert_eq!(report.top(10).len(), 2);
        let total: f64 = report.buckets.iter().map(|b| report.share(b)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_json_is_wellformed_and_carries_every_section() {
        let mut prof = Profiler::enabled();
        prof.begin();
        let t = prof.start();
        prof.stop("event:sample", t);
        let mut report = prof.finish(60_000).expect("enabled");
        report.queue = QueueStats {
            pushes: 10,
            pops: 9,
            peak_len: 4,
            peak_capacity: 16,
        };
        report.topology = TopologyStats {
            snapshots: 5,
            rows_built: 12,
        };
        report.frames_sent = 7;
        report.journal_bytes = 321;
        let json = report.to_json();
        for key in [
            "\"wall_secs\":",
            "\"sim_secs\":60,",
            "\"events\":1,",
            "\"events_per_sec\":",
            "\"sim_time_ratio\":",
            "\"queue\":{\"pushes\":10,\"pops\":9,\"peak_len\":4,\"peak_capacity\":16}",
            "\"topology\":{\"snapshots\":5,\"rows_built\":12}",
            "\"frames_sent\":7",
            "\"journal_bytes\":321",
            "\"name\":\"event:sample\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
