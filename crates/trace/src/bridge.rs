//! A live [`TraceSink`] that folds events into a windowed [`Registry`]
//! time series. The registry is a recorder with no renderer and no
//! command reads it; the sink stays because perfbench's
//! `metrics.registry.record_ns` kernel times its `record`.
//!
//! [`RegistrySink`] keeps traffic by message class, latency histograms
//! per consistency level, the relay-peer population gauge, served-by
//! counters and fault counters, applying the same warm-up censoring the
//! simulation applies to its end-of-run report.

use std::any::Any;

use mp2p_metrics::{metric_name, MessageClass, Registry};
use mp2p_sim::{SimDuration, SimTime};

use crate::event::{BlameCause, EventKind, LevelTag, RelayTransitionKind, ServedBy, TraceEvent};
use crate::sink::TraceSink;

/// Default window width for a registry (60 s of sim time).
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(60);

/// The name of every labelled series, by its label's index. Built once
/// per sink: `record` runs per event and formats nothing.
#[derive(Debug)]
struct SeriesNames {
    sends: [String; MessageClass::ALL.len()],
    served: [String; ServedBy::ALL.len()],
    latency: [String; LevelTag::ALL.len()],
    stale: [String; BlameCause::ALL.len()],
    /// A fault counter is named after its record's label.
    faults: [String; EventKind::ALL.len()],
}

impl SeriesNames {
    fn new() -> Self {
        SeriesNames {
            sends: MessageClass::ALL
                .map(|c| metric_name("traffic_sends_total", &[("class", c.label())])),
            served: ServedBy::ALL
                .map(|by| metric_name("queries_served_total", &[("by", by.label())])),
            latency: LevelTag::ALL
                .map(|l| metric_name("query_latency_ms", &[("level", l.label())])),
            stale: BlameCause::ALL
                .map(|c| metric_name("stale_served_total", &[("cause", c.label())])),
            faults: EventKind::ALL.map(|k| metric_name("faults_total", &[("kind", k.label())])),
        }
    }
}

/// Folds trace events into a windowed metrics [`Registry`].
#[derive(Debug)]
pub struct RegistrySink {
    warmup: SimDuration,
    relay_peers: i64,
    names: SeriesNames,
    registry: Registry,
}

impl RegistrySink {
    /// Creates a sink slicing time into `window` buckets and censoring
    /// traffic/latency before `warmup`, mirroring the world's report.
    pub fn new(window: SimDuration, warmup: SimDuration) -> Self {
        RegistrySink {
            warmup,
            relay_peers: 0,
            names: SeriesNames::new(),
            registry: Registry::new(window),
        }
    }

    /// The registry built so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn past_warmup(&self, at: SimTime) -> bool {
        at.saturating_since(SimTime::ZERO) >= self.warmup
    }
}

impl TraceSink for RegistrySink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::MsgSend { class, bytes, .. } if self.past_warmup(at) => {
                self.registry
                    .counter_add(&self.names.sends[class.index()], at, 1);
                self.registry
                    .counter_add("traffic_bytes_total", at, u64::from(bytes));
            }
            TraceEvent::QueryIssued { .. } if self.past_warmup(at) => {
                self.registry.counter_add("queries_issued_total", at, 1);
            }
            // Latency censoring keys off the *issue* instant, the same
            // rule the world applies.
            TraceEvent::QueryServed {
                level,
                served_by,
                issued,
                ..
            } if issued.saturating_since(SimTime::ZERO) >= self.warmup => {
                self.registry
                    .counter_add(&self.names.served[served_by.index()], at, 1);
                let hist = &self.names.latency[level.index()];
                self.registry.observe(hist, at, at.saturating_since(issued));
            }
            _ => {}
        }
        match *event {
            TraceEvent::QueryFailed { .. } if self.past_warmup(at) => {
                self.registry.counter_add("queries_failed_total", at, 1);
            }
            TraceEvent::RelayTransition { kind, .. } => {
                match kind {
                    RelayTransitionKind::Promoted => self.relay_peers += 1,
                    RelayTransitionKind::Demoted => self.relay_peers -= 1,
                    _ => {}
                }
                self.registry.gauge_set("relay_peers", at, self.relay_peers);
            }
            TraceEvent::NodeCrash { .. }
            | TraceEvent::NodeRecover { .. }
            | TraceEvent::BurstDrop { .. }
            | TraceEvent::FrameDup { .. }
            | TraceEvent::PartitionStart { .. }
            | TraceEvent::PartitionHeal { .. }
            | TraceEvent::RelayLeaseExpired { .. }
            | TraceEvent::FallbackFlood { .. } => {
                let name = &self.names.faults[event.kind().index()];
                self.registry.counter_add(name, at, 1);
            }
            TraceEvent::ConsistencySample {
                fresh_copies,
                total_copies,
                partitions,
                relay_nodes,
                ..
            } => {
                self.registry
                    .gauge_set("consistency_fresh_copies", at, i64::from(fresh_copies));
                self.registry
                    .gauge_set("consistency_total_copies", at, i64::from(total_copies));
                self.registry
                    .gauge_set("consistency_partitions", at, i64::from(partitions));
                self.registry
                    .gauge_set("consistency_relay_nodes", at, i64::from(relay_nodes));
            }
            TraceEvent::StaleServe {
                cause, violation, ..
            } => {
                self.registry
                    .counter_add(&self.names.stale[cause.index()], at, 1);
                if violation {
                    self.registry.counter_add("delta_violations_total", at, 1);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LevelTag, ServedBy};
    use mp2p_metrics::MessageClass;
    use mp2p_sim::NodeId;

    #[test]
    fn bridge_applies_the_worlds_censoring_rules() {
        let warmup = SimDuration::from_secs(60);
        let mut sink = RegistrySink::new(DEFAULT_WINDOW, warmup);

        // Warm-up send: dropped. Post-warm-up send: counted.
        let send = |node: u32| TraceEvent::MsgSend {
            node: NodeId::new(node),
            class: MessageClass::Poll,
            bytes: 48,
            dest: None,
            span: None,
        };
        sink.record(SimTime::from_millis(1_000), &send(0));
        sink.record(SimTime::from_millis(61_000), &send(0));

        // Query issued pre-warm-up, served post-warm-up: censored.
        let served = |query: u64, issued_ms: u64| TraceEvent::QueryServed {
            node: NodeId::new(1),
            query,
            level: LevelTag::Delta,
            served_by: ServedBy::Relay,
            issued: SimTime::from_millis(issued_ms),
        };
        sink.record(SimTime::from_millis(62_000), &served(1, 59_000));
        sink.record(SimTime::from_millis(63_000), &served(2, 62_500));

        let reg = sink.registry();
        assert_eq!(
            reg.counter("traffic_sends_total{class=\"POLL\"}")
                .unwrap()
                .total(),
            1
        );
        assert_eq!(reg.counter("traffic_bytes_total").unwrap().total(), 48);
        assert_eq!(
            reg.counter("queries_served_total{by=\"relay\"}")
                .unwrap()
                .total(),
            1
        );
        let hist = reg.histogram("query_latency_ms{level=\"DC\"}").unwrap();
        assert_eq!(hist.cumulative().count(), 1);
        assert_eq!(
            hist.cumulative().mean(),
            SimDuration::from_millis(500),
            "only the post-warm-up issue is measured"
        );
    }

    #[test]
    fn relay_gauge_tracks_promotions_and_demotions() {
        let mut sink = RegistrySink::new(DEFAULT_WINDOW, SimDuration::ZERO);
        let transition = |kind| TraceEvent::RelayTransition {
            node: NodeId::new(2),
            item: mp2p_sim::ItemId::new(2),
            kind,
        };
        sink.record(
            SimTime::from_millis(10),
            &transition(RelayTransitionKind::Promoted),
        );
        sink.record(
            SimTime::from_millis(20),
            &transition(RelayTransitionKind::Promoted),
        );
        sink.record(
            SimTime::from_millis(70_000),
            &transition(RelayTransitionKind::Demoted),
        );
        let g = sink.registry().gauge("relay_peers").unwrap();
        assert_eq!(g.last(), Some(1));
        assert_eq!(g.series(), &[Some(2), Some(1)]);
    }

    #[test]
    fn faults_count_by_kind() {
        let mut sink = RegistrySink::new(DEFAULT_WINDOW, SimDuration::ZERO);
        sink.record(
            SimTime::from_millis(5),
            &TraceEvent::NodeCrash {
                node: NodeId::new(3),
            },
        );
        sink.record(
            SimTime::from_millis(6),
            &TraceEvent::PartitionStart { axis: 0 },
        );
        sink.record(
            SimTime::from_millis(7),
            &TraceEvent::PartitionHeal { axis: 0 },
        );
        let reg = sink.registry();
        for kind in ["node_crash", "partition_start", "partition_heal"] {
            let name = format!("faults_total{{kind=\"{kind}\"}}");
            assert_eq!(reg.counter(&name).unwrap().total(), 1, "{kind}");
        }
    }
}
