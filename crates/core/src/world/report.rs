//! The results of a run: [`RunReport`], its fault counters and its JSON.
//!
//! Invariant owned here: **the report is the one ledger**. The world
//! holds a `RunReport` from construction and accumulates into it; there
//! is no second set of counters to copy out at the end, so a metric
//! cannot be counted in one place and reported from another. The JSON
//! keys are stable and optional sections (faults, recovery, perf,
//! consistency) appear only when their layer was on, which keeps a
//! default run's report byte-identical across the builds that added
//! them — pinned by `crates/core/tests/golden/report_*.json` and the
//! `pin_*.fnv` fixtures of `tests/provenance_engine.rs`.

use mp2p_metrics::{ConsistencyAudit, Gauge, LatencyStats, MessageClass, TrafficStats};
use mp2p_sim::{PerfReport, SimDuration};
use mp2p_trace::ServedBy;

use super::config::{Strategy, WorldConfig};
use crate::level::LevelMix;
use crate::observatory::ConsistencyReport;

/// Counters for injected faults and the hardening decisions they
/// provoked. All-zero — and absent from [`RunReport::to_json`] — for a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Hard node crashes injected (volatile state wiped).
    pub crashes: u64,
    /// Crash recoveries completed.
    pub recoveries: u64,
    /// Partition windows opened.
    pub partitions_started: u64,
    /// Partition windows healed.
    pub partitions_healed: u64,
    /// Frames duplicated in flight.
    pub frames_duplicated: u64,
    /// Frames dropped by the Gilbert–Elliott chain's bad (burst) state.
    pub burst_drops: u64,
    /// Relay leases expired without source contact (self-CANCEL).
    pub lease_expiries: u64,
    /// Fallback floods issued after routed POLL retries were exhausted.
    pub fallback_floods: u64,
    /// Rejoin resyncs started (recovery layer).
    pub resyncs: u64,
    /// UPDATE retransmissions issued by the acked-delivery sweep.
    pub retransmits: u64,
    /// DELIVERY_ACKs that cleared a pending retransmit entry.
    pub delivery_acks: u64,
    /// Relay-lease handovers completed (a successor was elected).
    pub handovers: u64,
    /// High-water mark of any node's retransmit queue over the run.
    pub retx_queue_peak: u64,
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy that produced this report.
    pub strategy: Strategy,
    /// Level mix of the query load.
    pub level_mix: LevelMix,
    /// MAC-level traffic (post-warmup).
    pub traffic: TrafficStats,
    /// Query latency over served queries (post-warmup).
    pub latency: LatencyStats,
    /// Latency split per requested level.
    pub latency_by_level: [LatencyStats; 3],
    /// Ground-truth staleness audit of served answers.
    pub audit: ConsistencyAudit,
    /// Audit split per requested level.
    pub audit_by_level: [ConsistencyAudit; 3],
    /// Queries issued post-warmup.
    pub queries_issued: u64,
    /// Queries abandoned (network gave up) post-warmup.
    pub queries_failed: u64,
    /// Replica-write latency over acknowledged writes (extension
    /// workload; empty when `i_write` is off).
    pub write_latency: LatencyStats,
    /// Replica writes issued post-warmup.
    pub writes_issued: u64,
    /// Replica writes abandoned after retries.
    pub writes_failed: u64,
    /// Served queries by answer provenance, indexed by
    /// [`ServedBy::index`] (source, relay, cache). Post-warmup; the three
    /// cells sum to [`RunReport::queries_served`].
    pub served_by: [u64; 3],
    /// Relay-peer items held across all nodes, sampled.
    pub relay_gauge: Gauge,
    /// Candidate nodes, sampled.
    pub candidate_gauge: Gauge,
    /// Live route-table entries across all nodes, sampled.
    pub route_gauge: Gauge,
    /// Mean battery fraction, sampled.
    pub battery_gauge: Gauge,
    /// Total energy drained across all nodes (mJ, whole run).
    pub energy_used_mj: f64,
    /// Label of the active fault plan (`None` for a fault-free run).
    pub fault_plan: Option<&'static str>,
    /// Injected-fault and degradation counters.
    pub faults: FaultStats,
    /// Whether any recovery-layer feature was on. Gates the recovery
    /// keys in [`RunReport::to_json`], so a recovery-off report stays
    /// byte-identical to one from a pre-recovery build.
    pub recovery_enabled: bool,
    /// Wall-clock profile of the run (`None` unless profiling was
    /// enabled via [`crate::World::enable_profiling`]). Strictly observational:
    /// its presence never changes any other field.
    pub perf: Option<PerfReport>,
    /// Consistency-observatory summary (`None` unless the observatory
    /// was enabled via [`WorldConfig::observatory`]): blame counts per
    /// cause, Δ-violation count, divergence samples taken.
    pub consistency: Option<ConsistencyReport>,
    /// The measured window (sim_time − warmup).
    pub measured: SimDuration,
}

impl RunReport {
    /// The empty ledger of a run of `cfg`: what the configuration
    /// already decides is filled in, everything a run accumulates starts
    /// at zero, and the optional sections stay `None` until the run ends.
    pub(super) fn new(cfg: &WorldConfig) -> Self {
        RunReport {
            strategy: cfg.strategy,
            level_mix: cfg.level_mix,
            traffic: TrafficStats::default(),
            latency: LatencyStats::default(),
            latency_by_level: Default::default(),
            audit: ConsistencyAudit::default(),
            audit_by_level: Default::default(),
            queries_issued: 0,
            queries_failed: 0,
            write_latency: LatencyStats::default(),
            writes_issued: 0,
            writes_failed: 0,
            served_by: [0; 3],
            relay_gauge: Gauge::default(),
            candidate_gauge: Gauge::default(),
            route_gauge: Gauge::default(),
            battery_gauge: Gauge::default(),
            energy_used_mj: 0.0,
            fault_plan: cfg.faults.enabled().then_some(cfg.faults.label),
            faults: FaultStats::default(),
            recovery_enabled: cfg.proto.recovery.enabled(),
            perf: None,
            consistency: None,
            measured: cfg.sim_time - cfg.warmup,
        }
    }

    /// Queries served (answered) post-warmup.
    pub fn queries_served(&self) -> u64 {
        self.audit.served()
    }

    /// Transmissions per simulated minute — the Fig. 7/9(a) y-axis.
    pub fn traffic_per_minute(&self) -> f64 {
        let mins = self.measured.as_secs_f64() / 60.0;
        if mins == 0.0 {
            0.0
        } else {
            self.traffic.transmissions() as f64 / mins
        }
    }

    /// Mean query latency in seconds — the Fig. 8/9(b) y-axis.
    pub fn mean_latency_secs(&self) -> f64 {
        self.latency.mean_secs()
    }

    /// Replica writes acknowledged post-warmup.
    pub fn writes_completed(&self) -> u64 {
        self.write_latency.count()
    }

    /// Fraction of issued queries that failed.
    pub fn failure_rate(&self) -> f64 {
        if self.queries_issued == 0 {
            0.0
        } else {
            self.queries_failed as f64 / self.queries_issued as f64
        }
    }

    /// Fraction of served queries answered from a cached copy — the
    /// poller's own cache or a relay peer — rather than the source host.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total: u64 = self.served_by.iter().sum();
        if total == 0 {
            0.0
        } else {
            let hits =
                self.served_by[ServedBy::Relay.index()] + self.served_by[ServedBy::Cache.index()];
            hits as f64 / total as f64
        }
    }

    /// Serialises the headline results as one JSON object (hand-rolled;
    /// the workspace is dependency-free). Keys are stable: scripts may
    /// parse them.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        s.push('{');
        // json::escape returns the quoted literal, quotes included.
        let _ = write!(
            s,
            "\"strategy\":{},\"level_mix\":{},",
            mp2p_trace::json::escape(self.strategy.label()),
            mp2p_trace::json::escape(self.level_mix.label()),
        );
        let _ = write!(
            s,
            "\"measured_secs\":{},\"transmissions\":{},\"app_transmissions\":{},\"bytes\":{},",
            self.measured.as_secs_f64(),
            self.traffic.transmissions(),
            self.traffic.app_transmissions(),
            self.traffic.bytes(),
        );
        s.push_str("\"traffic_by_class\":{");
        let mut first = true;
        for class in MessageClass::ALL {
            let n = self.traffic.by_class(class);
            if n == 0 {
                continue; // keep the object small; absent means zero
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "{}:{}", mp2p_trace::json::escape(class.label()), n);
        }
        s.push_str("},");
        let _ = write!(
            s,
            "\"traffic_per_minute\":{},\"queries_issued\":{},\"queries_served\":{},\"queries_failed\":{},",
            self.traffic_per_minute(),
            self.queries_issued,
            self.queries_served(),
            self.queries_failed,
        );
        let _ = write!(
            s,
            "\"mean_latency_secs\":{},\"max_latency_secs\":{},",
            self.mean_latency_secs(),
            self.latency.max().as_secs_f64(),
        );
        let _ = write!(
            s,
            "\"stale_served\":{},\"fresh_fraction\":{},\"max_staleness_secs\":{},",
            self.audit.stale_served(),
            self.audit.fresh_fraction(),
            self.audit.max_staleness().as_secs_f64(),
        );
        let _ = write!(
            s,
            "\"writes_issued\":{},\"writes_completed\":{},\"writes_failed\":{},",
            self.writes_issued,
            self.writes_completed(),
            self.writes_failed,
        );
        let _ = write!(
            s,
            "\"relay_items_mean\":{},\"candidates_mean\":{},\"routes_mean\":{},\"battery_mean\":{},\"energy_used_mj\":{}",
            self.relay_gauge.mean(),
            self.candidate_gauge.mean(),
            self.route_gauge.mean(),
            self.battery_gauge.mean(),
            self.energy_used_mj,
        );
        let _ = write!(
            s,
            ",\"served_by\":{{\"source\":{},\"relay\":{},\"cache\":{}}},\"cache_hit_ratio\":{}",
            self.served_by[ServedBy::Source.index()],
            self.served_by[ServedBy::Relay.index()],
            self.served_by[ServedBy::Cache.index()],
            self.cache_hit_ratio(),
        );
        // Fault keys appear only when a plan was active, so a fault-free
        // report stays byte-identical to one from a pre-chaos build.
        if let Some(plan) = self.fault_plan {
            let _ = write!(
                s,
                ",\"fault_plan\":{},\"crashes\":{},\"recoveries\":{},\"partitions_started\":{},\"partitions_healed\":{},\"frames_duplicated\":{},\"burst_drops\":{},\"lease_expiries\":{},\"fallback_floods\":{}",
                mp2p_trace::json::escape(plan),
                self.faults.crashes,
                self.faults.recoveries,
                self.faults.partitions_started,
                self.faults.partitions_healed,
                self.faults.frames_duplicated,
                self.faults.burst_drops,
                self.faults.lease_expiries,
                self.faults.fallback_floods,
            );
        }
        // Recovery keys appear only when the layer was on, so a
        // recovery-off report stays byte-identical to a pre-recovery
        // build's.
        if self.recovery_enabled {
            let _ = write!(
                s,
                ",\"resyncs\":{},\"retransmits\":{},\"delivery_acks\":{},\"handovers\":{},\"retx_queue_peak\":{}",
                self.faults.resyncs,
                self.faults.retransmits,
                self.faults.delivery_acks,
                self.faults.handovers,
                self.faults.retx_queue_peak,
            );
        }
        // Likewise the perf section exists only for profiled runs, so an
        // unprofiled report is byte-identical to a pre-profiler build's.
        if let Some(perf) = &self.perf {
            let _ = write!(s, ",\"perf\":{}", perf.to_json());
        }
        // And the consistency section only for observatory runs.
        if let Some(consistency) = &self.consistency {
            let _ = write!(s, ",\"consistency\":{}", consistency.to_json());
        }
        s.push('}');
        s
    }
}
