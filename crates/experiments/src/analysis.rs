//! Offline trace analysis: span reconstruction and report cross-checks.
//!
//! This is the library half of `mp2p analyze`. It streams a JSONL
//! journal (written with `run --trace`) through the trace crate's
//! [`JournalReader`], folds every event into a [`SpanAssembler`], a
//! per-window byte tally, a [`ConsistencyTimeline`] and a
//! [`ProvenanceGraph`], and derives the same post-warm-up totals
//! the simulation's own [`RunReport`](mp2p_rpcc::RunReport) keeps —
//! which makes the two independently-computed views comparable *exactly*,
//! counter for counter. A mismatch means the flight recorder and the
//! world disagree about what happened, which is a bug by definition.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;

use mp2p_metrics::{LatencyStats, MessageClass, AGE_BUCKETS, AGE_BUCKET_EDGES};
use mp2p_sim::{FastMap, ItemId, NodeId, SimDuration, SimTime};
use mp2p_trace::bridge::DEFAULT_WINDOW;
use mp2p_trace::reader::{JournalHeader, JournalReader, ReadError};
use mp2p_trace::span::{QuerySpan, SpanAssembler, SpanOutcome};
use mp2p_trace::{json, BlameCause, FrameFateKind, LevelTag, ServedBy, SpanPhase, TraceEvent};

use crate::render_table;

/// Everything the analyzer learns from one journal.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// The journal's validated header.
    pub header: JournalHeader,
    /// Event lines parsed (header excluded).
    pub events: u64,
    /// Span-tagged messages whose `QueryIssued` was never seen
    /// (non-zero means the journal was truncated).
    pub orphan_tagged: u64,
    /// Reconstructed spans, sorted by query id.
    pub spans: Vec<QuerySpan>,
    /// Post-warm-up `MsgSend` bytes per [`DEFAULT_WINDOW`] since t = 0;
    /// `None` when no frame was sent after warm-up.
    traffic: Option<Vec<u64>>,
    /// Divergence timeline and blame partition rebuilt from the
    /// observatory's records (empty on an observatory-off run).
    pub consistency: ConsistencyTimeline,
    /// Causal provenance graph rebuilt from the frame/lineage records
    /// plus the obstruction and recovery evidence. Frame-level fields
    /// stay empty on a provenance-off run.
    pub provenance: ProvenanceGraph,
}

/// One divergence-sampler tick replayed out of the journal: the global
/// replica state at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceSample {
    /// Sim time of the snapshot.
    pub at: SimTime,
    /// Cached copies holding the current master version.
    pub fresh_copies: u32,
    /// Cached copies audited in total.
    pub total_copies: u32,
    /// Items with at least one cached copy.
    pub items_replicated: u32,
    /// Largest replica count of any single item.
    pub max_replicas: u32,
    /// Connected components among switched-on nodes.
    pub partitions: u32,
    /// Nodes holding at least one relay duty.
    pub relay_nodes: u32,
    /// Stale-copy ages over [`AGE_BUCKET_EDGES`] (last bucket overflow).
    pub ages: [u32; AGE_BUCKETS],
}

impl DivergenceSample {
    /// Fraction of cached copies that are fresh (1.0 when nothing is
    /// cached — an empty cache serves nothing stale).
    pub fn fresh_fraction(&self) -> f64 {
        if self.total_copies == 0 {
            1.0
        } else {
            f64::from(self.fresh_copies) / f64::from(self.total_copies)
        }
    }
}

/// The consistency observatory's journal-side view: every
/// `ConsistencySample` tick in order plus the blame partition folded
/// from the `StaleServe` records. Mirrors the world's end-of-run
/// `ConsistencyReport` so the two independently-kept views can be
/// cross-checked counter for counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyTimeline {
    /// Divergence samples in journal order.
    pub samples: Vec<DivergenceSample>,
    /// Stale serves per cause, [`BlameCause::index`]-indexed.
    pub blame: [u64; BlameCause::ALL.len()],
    /// Stale serves whose staleness exceeded the run's Δ.
    pub delta_violations: u64,
    /// Largest staleness observed on any stale serve.
    pub max_staleness: SimDuration,
}

impl ConsistencyTimeline {
    /// True when the journal carried no observatory records at all.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.stale_serves() == 0
    }

    /// Total stale serves seen — the blame partition's row sum.
    pub fn stale_serves(&self) -> u64 {
        self.blame.iter().sum()
    }

    /// Folds one journal event into the timeline; ignores all kinds the
    /// observatory does not emit.
    pub fn record(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::ConsistencySample {
                fresh_copies,
                total_copies,
                items_replicated,
                max_replicas,
                partitions,
                relay_nodes,
                ages,
            } => self.samples.push(DivergenceSample {
                at,
                fresh_copies,
                total_copies,
                items_replicated,
                max_replicas,
                partitions,
                relay_nodes,
                ages,
            }),
            TraceEvent::StaleServe {
                cause,
                staleness_ms,
                violation,
                ..
            } => {
                self.blame[cause.index()] += 1;
                self.delta_violations += u64::from(violation);
                self.max_staleness = self
                    .max_staleness
                    .max(SimDuration::from_millis(staleness_ms));
            }
            _ => {}
        }
    }
}

/// Post-warm-up totals derived purely from reconstructed spans, shaped
/// to line up with the corresponding `RunReport` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Spans issued after warm-up that reached a terminal
    /// (↔ `queries_issued` — the world removes queries still in flight
    /// at end of run from its issued count, so served + failed ==
    /// issued stays exact; mirror that censoring here).
    pub issued: u64,
    /// ... of which served (↔ `queries_served()`).
    pub served: u64,
    /// ... of which failed (↔ `queries_failed`).
    pub failed: u64,
    /// Measured spans still open when the journal ended (censored
    /// observations, excluded from `issued`).
    pub open: u64,
    /// Served spans by answer provenance (↔ `RunReport::served_by`).
    pub served_by: [u64; 3],
    /// Latency of measured served spans (↔ `RunReport::latency`).
    pub latency: LatencyStats,
    /// Latency split by consistency level, [`LevelTag::index`]-indexed.
    pub latency_by_level: [LatencyStats; 3],
    /// Latency split by provenance, [`ServedBy::index`]-indexed.
    pub latency_by_served: [LatencyStats; 3],
}

impl SpanTotals {
    /// Fraction of served spans answered from a cached copy.
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
}

/// The report-side counters the span totals must reproduce, either taken
/// from a live `RunReport` or parsed back out of its `to_json` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportTotals {
    /// Queries issued post-warm-up.
    pub queries_issued: u64,
    /// Queries answered post-warm-up.
    pub queries_served: u64,
    /// Queries failed post-warm-up.
    pub queries_failed: u64,
    /// Served split by provenance (source, relay, cache).
    pub served_by: [u64; 3],
}

impl ReportTotals {
    /// Extracts the cross-checkable counters from a `RunReport::to_json`
    /// document. `None` if any expected key is missing or mistyped.
    pub fn from_report_json(text: &str) -> Option<Self> {
        let v = json::parse(text)?;
        let num = |key: &str| v.get(key).and_then(json::Value::as_u64);
        let by = v.get("served_by")?;
        Some(ReportTotals {
            queries_issued: num("queries_issued")?,
            queries_served: num("queries_served")?,
            queries_failed: num("queries_failed")?,
            served_by: [
                by.get("source")?.as_u64()?,
                by.get("relay")?.as_u64()?,
                by.get("cache")?.as_u64()?,
            ],
        })
    }
}

/// The report side of the consistency cross-check: the counters the
/// world's own `ConsistencyReport` serialised into the report JSON,
/// plus the audit's headline staleness numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyReportTotals {
    /// Stale serves per cause from the report's blame object.
    pub blame: [u64; BlameCause::ALL.len()],
    /// Δ-consistency violations counted by the world.
    pub delta_violations: u64,
    /// Divergence samples the world's ticker took.
    pub samples: u64,
    /// The audit's `stale_served` (top-level report key).
    pub stale_served: u64,
    /// The audit's fresh-serve fraction (top-level report key).
    pub fresh_fraction: f64,
}

impl ConsistencyReportTotals {
    /// Extracts the consistency counters from a `RunReport::to_json`
    /// document. `None` when the run had the observatory off (no
    /// `consistency` object) or any expected key is missing.
    pub fn from_report_json(text: &str) -> Option<Self> {
        let v = json::parse(text)?;
        let c = v.get("consistency")?;
        let blame_obj = c.get("blame")?;
        let mut blame = [0u64; BlameCause::ALL.len()];
        for cause in BlameCause::ALL {
            blame[cause.index()] = blame_obj.get(cause.label())?.as_u64()?;
        }
        Some(ConsistencyReportTotals {
            blame,
            delta_violations: c.get("delta_violations")?.as_u64()?,
            samples: c.get("samples")?.as_u64()?,
            stale_served: v.get("stale_served")?.as_u64()?,
            fresh_fraction: v.get("fresh_fraction")?.as_f64()?,
        })
    }
}

/// Compares the journal-derived consistency timeline against the
/// report's counters. One line per mismatch; empty means the flight
/// recorder and the world agree exactly — including the tentpole
/// invariant that the blame rows sum to `stale_served`.
pub fn crosscheck_consistency(
    timeline: &ConsistencyTimeline,
    report: &ConsistencyReportTotals,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut check = |what: &str, journal_side: u64, report_side: u64| {
        if journal_side != report_side {
            mismatches.push(format!(
                "{what}: journal says {journal_side}, report says {report_side}"
            ));
        }
    };
    check(
        "divergence samples",
        timeline.samples.len() as u64,
        report.samples,
    );
    check(
        "delta violations",
        timeline.delta_violations,
        report.delta_violations,
    );
    for cause in BlameCause::ALL {
        check(
            &format!("blamed on {}", cause.label()),
            timeline.blame[cause.index()],
            report.blame[cause.index()],
        );
    }
    check(
        "stale serves (blame row sum)",
        timeline.stale_serves(),
        report.stale_served,
    );
    mismatches
}

/// A propagation frame — one whose birth carried an item — as the
/// explainer reads it: what it carried, when it was born, and the fates
/// it met that can name a cause (every flood copy meets its own).
#[derive(Debug, Clone)]
struct Push {
    /// When the origin first transmitted the frame.
    born: SimTime,
    /// What the frame carried on the air.
    class: MessageClass,
    /// The propagated item.
    item: ItemId,
    /// The propagated master version.
    version: u64,
    /// The first fate that lost a copy: when, at which node, and how.
    lost: Option<(SimTime, NodeId, FrameFateKind)>,
    /// Every delivery of a copy, in journal order: when and where.
    deliveries: Vec<(SimTime, NodeId)>,
}

/// One cached copy's installation record: which frame carried it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageRecord {
    /// When the copy was installed or refreshed.
    pub at: SimTime,
    /// The installed version.
    pub version: u64,
    /// The carrying frame's originating node.
    pub origin: NodeId,
    /// The carrying frame's origin-local sequence number.
    pub frame: u64,
    /// Hops the carrying frame travelled.
    pub hops: u8,
}

/// One stale serve lifted out of the journal, ready to be explained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleServeRecord {
    /// When the stale answer was served.
    pub at: SimTime,
    /// The peer that answered stale.
    pub node: NodeId,
    /// The query that got the stale answer.
    pub query: u64,
    /// The stale item.
    pub item: ItemId,
    /// The blame tracker's proximate cause.
    pub cause: BlameCause,
    /// How long the served version had been superseded, in ms.
    pub staleness_ms: u64,
    /// Versions behind the master.
    pub lag: u64,
    /// True if the staleness exceeded the run's Δ.
    pub violation: bool,
}

/// Per-node health counters folded from the provenance records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHealth {
    /// Frames this node originated (`FrameBorn`).
    pub born: u64,
    /// Frames this node re-transmitted for others (`FrameHop`) — its
    /// relay load.
    pub forwards: u64,
    /// Frames delivered at this node.
    pub delivered: u64,
    /// Flood copies suppressed here as duplicates.
    pub dups: u64,
    /// Frames lost at this node (every loss fate).
    pub lost: u64,
    /// Stale answers this node served.
    pub stale_serves: u64,
    /// Total staleness this node served, in ms (its contribution to the
    /// run's inconsistency).
    pub staleness_ms: u64,
}

impl NodeHealth {
    /// All frame terminals observed at this node.
    pub fn fates(&self) -> u64 {
        self.delivered + self.dups + self.lost
    }

    /// Fraction of frame terminals at this node that were losses.
    pub fn drop_rate(&self) -> f64 {
        if self.fates() == 0 {
            0.0
        } else {
            self.lost as f64 / self.fates() as f64
        }
    }
}

/// The offline causal graph: every provenance record of one journal,
/// indexed for the `--explain` walk. Frames are keyed by their
/// deterministic `(origin, seq)` identity; obstruction (partitions,
/// crashes, lease expiries, undeliverables) and recovery (resyncs,
/// retransmits, handovers) evidence is kept alongside so a stale serve
/// can be walked back to the hazard that caused it and forward to the
/// action that repaired it.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceGraph {
    frames_born: u64,
    pushes: FastMap<(NodeId, u64), Push>,
    /// The keys of `pushes` by the item they carry, in journal order.
    pushes_of: FastMap<ItemId, Vec<(NodeId, u64)>>,
    lineages: BTreeMap<(NodeId, ItemId), Vec<LineageRecord>>,
    updates: BTreeMap<ItemId, Vec<(SimTime, NodeId, u64)>>,
    /// Stale serves in journal order (the incidents to explain).
    pub stale_serves: Vec<StaleServeRecord>,
    partition_starts: Vec<SimTime>,
    partition_heals: Vec<SimTime>,
    status_flips: BTreeMap<NodeId, Vec<(SimTime, bool)>>,
    crashes: BTreeMap<NodeId, Vec<SimTime>>,
    lease_expiries: BTreeMap<(NodeId, ItemId), Vec<SimTime>>,
    undeliverables: Vec<(SimTime, NodeId, NodeId, MessageClass)>,
    resyncs: BTreeMap<NodeId, Vec<(SimTime, u32)>>,
    retransmits: Vec<(SimTime, NodeId, NodeId, ItemId, u8)>,
    handovers: Vec<(SimTime, NodeId, NodeId, ItemId)>,
    health: FastMap<NodeId, NodeHealth>,
    links: BTreeMap<(NodeId, NodeId), u64>,
}

impl ProvenanceGraph {
    /// True when the journal carried frame-level provenance records
    /// (i.e. the run had `--provenance` on).
    pub fn has_frames(&self) -> bool {
        self.frames_born > 0
    }

    /// Per-node health counters, in no particular order.
    pub fn node_health(&self) -> &FastMap<NodeId, NodeHealth> {
        &self.health
    }

    /// Per-link MAC-drop counts (`transmitter → next hop`), link-ordered.
    pub fn link_drops(&self) -> &BTreeMap<(NodeId, NodeId), u64> {
        &self.links
    }

    /// Folds one journal event into the graph; ignores kinds that carry
    /// no causal evidence.
    pub fn record(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::FrameBorn {
                node,
                frame,
                class,
                item,
                version,
                ..
            } => {
                self.frames_born += 1;
                if let Some(item) = item {
                    let push = Push {
                        born: at,
                        class,
                        item,
                        version,
                        lost: None,
                        deliveries: Vec::new(),
                    };
                    self.pushes.insert((node, frame), push);
                    self.pushes_of.entry(item).or_default().push((node, frame));
                }
                self.health.entry(node).or_default().born += 1;
            }
            TraceEvent::FrameHop { node, .. } => {
                self.health.entry(node).or_default().forwards += 1;
            }
            TraceEvent::FrameFate {
                node,
                origin,
                frame,
                fate,
            } => {
                if let Some(push) = self.pushes.get_mut(&(origin, frame)) {
                    if fate == FrameFateKind::Delivered {
                        push.deliveries.push((at, node));
                    } else if fate.is_loss() && push.lost.is_none() {
                        push.lost = Some((at, node, fate));
                    }
                }
                let h = self.health.entry(node).or_default();
                match fate {
                    FrameFateKind::Delivered => h.delivered += 1,
                    FrameFateKind::DupDrop => h.dups += 1,
                    _ => h.lost += 1,
                }
            }
            TraceEvent::CopyLineage {
                node,
                item,
                version,
                origin,
                frame,
                hops,
            } => {
                self.lineages
                    .entry((node, item))
                    .or_default()
                    .push(LineageRecord {
                        at,
                        version,
                        origin,
                        frame,
                        hops,
                    });
            }
            TraceEvent::SourceUpdate {
                node,
                item,
                version,
            } => {
                self.updates
                    .entry(item)
                    .or_default()
                    .push((at, node, version));
            }
            TraceEvent::StaleServe {
                node,
                query,
                item,
                cause,
                staleness_ms,
                lag,
                violation,
            } => {
                self.stale_serves.push(StaleServeRecord {
                    at,
                    node,
                    query,
                    item,
                    cause,
                    staleness_ms,
                    lag,
                    violation,
                });
                let h = self.health.entry(node).or_default();
                h.stale_serves += 1;
                // A u64 the journal states, summed: 2 049 serves at 2^53.
                h.staleness_ms = h.staleness_ms.saturating_add(staleness_ms);
            }
            TraceEvent::PartitionStart { .. } => self.partition_starts.push(at),
            TraceEvent::PartitionHeal { .. } => self.partition_heals.push(at),
            TraceEvent::NodeDown { node } => {
                self.status_flips.entry(node).or_default().push((at, false));
            }
            TraceEvent::NodeUp { node } => {
                self.status_flips.entry(node).or_default().push((at, true));
            }
            TraceEvent::NodeCrash { node } => {
                self.crashes.entry(node).or_default().push(at);
                self.status_flips.entry(node).or_default().push((at, false));
            }
            TraceEvent::NodeRecover { node } => {
                self.status_flips.entry(node).or_default().push((at, true));
            }
            TraceEvent::RelayLeaseExpired { node, item } => {
                self.lease_expiries
                    .entry((node, item))
                    .or_default()
                    .push(at);
            }
            TraceEvent::Undeliverable { node, dest, class } => {
                self.undeliverables.push((at, node, dest, class));
            }
            TraceEvent::ResyncDone { node, stale } => {
                self.resyncs.entry(node).or_default().push((at, stale));
            }
            TraceEvent::RecoveryRetransmit {
                node,
                dest,
                item,
                attempt,
                ..
            } => {
                self.retransmits.push((at, node, dest, item, attempt));
            }
            TraceEvent::RelayHandover { from, to, item } => {
                self.handovers.push((at, from, to, item));
            }
            TraceEvent::MacDrop { node, next_hop, .. } => {
                *self.links.entry((node, next_hop)).or_default() += 1;
            }
            _ => {}
        }
    }

    /// True when `node` was switched off (or crashed, not yet recovered)
    /// at `at`, judged by its last status flip.
    fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.status_flips
            .get(&node)
            .and_then(|flips| flips.iter().rev().find(|(t, _)| *t <= at))
            .is_some_and(|&(_, up)| !up)
    }

    /// When the terrain was bisected at `at`, the cut's opening time.
    fn partition_active(&self, at: SimTime) -> Option<SimTime> {
        let opened = self.partition_starts.iter().filter(|t| **t <= at).count();
        let healed = self.partition_heals.iter().filter(|t| **t <= at).count();
        if opened > healed {
            self.partition_starts.iter().rfind(|t| **t <= at).copied()
        } else {
            None
        }
    }

    /// The version the stale holder actually served: the master version
    /// at serve time minus the reported lag.
    fn served_version(&self, s: &StaleServeRecord) -> u64 {
        self.updates
            .get(&s.item)
            .and_then(|ups| ups.iter().rev().find(|(t, _, _)| *t <= s.at))
            .map_or(0, |&(_, _, v)| v.saturating_sub(s.lag))
    }

    /// The earliest source update that superseded the served version, if
    /// the journal saw one.
    fn missed_update(&self, s: &StaleServeRecord, served_v: u64) -> Option<(SimTime, NodeId, u64)> {
        self.updates
            .get(&s.item)
            .and_then(|ups| ups.iter().find(|&&(t, _, v)| v > served_v && t <= s.at))
            .copied()
    }

    /// Propagation frames carrying a version of `item` newer than
    /// `served_v`, born at or before `until`, in no particular order (a
    /// frame may come twice). A journal that reuses a frame id keeps its
    /// last birth, as `pushes` does.
    fn superseding_frames(
        &self,
        item: ItemId,
        served_v: u64,
        until: SimTime,
    ) -> impl Iterator<Item = (&(NodeId, u64), &Push)> {
        self.pushes_of
            .get(&item)
            .into_iter()
            .flatten()
            .filter_map(|key| self.pushes.get_key_value(key))
            .filter(move |(_, push)| {
                push.item == item && push.version > served_v && push.born <= until
            })
    }

    /// Builds the full causal chain for one stale serve: the missed
    /// update, the stale copy's lineage, the cause-specific hazard
    /// evidence, and the recovery action that eventually repaired it.
    /// Always returns at least four lines — when a specific evidence
    /// record is missing the line says so instead of disappearing.
    fn chain_for(&self, s: &StaleServeRecord) -> Vec<String> {
        let served_v = self.served_version(s);
        let mut chain = Vec::with_capacity(4);

        // 1. The update the holder missed.
        match self.missed_update(s, served_v) {
            Some((t, src, v)) => chain.push(format!(
                "source {src} updated {} to v{v} at t={:.1}s, superseding the served v{served_v}",
                s.item,
                t.saturating_since(SimTime::ZERO).as_secs_f64(),
            )),
            None => chain.push(format!(
                "no superseding source update for {} appears in the journal \
                 (served v{served_v}, {} versions behind)",
                s.item, s.lag,
            )),
        }

        // 2. How the stale copy got where it was served.
        match self
            .lineages
            .get(&(s.node, s.item))
            .and_then(|l| l.iter().rev().find(|r| r.at <= s.at))
        {
            Some(lin) => chain.push(format!(
                "the served copy (v{}) reached {} via frame {}#{} after {} hop(s) at t={:.1}s",
                lin.version,
                s.node,
                lin.origin,
                lin.frame,
                lin.hops,
                lin.at.saturating_since(SimTime::ZERO).as_secs_f64(),
            )),
            None => chain.push(format!(
                "the served copy's installation at {} left no lineage record \
                 (run without --provenance, or the copy predates the journal)",
                s.node,
            )),
        }

        // 3. Cause-specific hazard evidence.
        chain.push(self.cause_evidence(s, served_v));

        // 4. The repair, if one happened before the run ended.
        chain.push(self.repair_evidence(s, served_v));
        chain
    }

    /// One line of evidence for the blame tracker's proximate cause.
    fn cause_evidence(&self, s: &StaleServeRecord, served_v: u64) -> String {
        let secs = |t: SimTime| t.saturating_since(SimTime::ZERO).as_secs_f64();
        let update_at = self.missed_update(s, served_v).map(|(t, _, _)| t);
        match s.cause {
            BlameCause::Partitioned => {
                let probe = update_at.unwrap_or(s.at);
                if let Some(opened) = self.partition_active(probe) {
                    format!(
                        "the terrain was bisected (cut opened at t={:.1}s) while v{} propagated, \
                         putting {} out of the source's component",
                        secs(opened),
                        served_v + 1,
                        s.node,
                    )
                } else if self.is_down(s.node, probe) {
                    format!(
                        "{} was switched off or crashed while v{} propagated, so no push \
                         could reach it",
                        s.node,
                        served_v + 1,
                    )
                } else {
                    format!(
                        "{} was unreachable from the source when v{} propagated",
                        s.node,
                        served_v + 1,
                    )
                }
            }
            BlameCause::InvalidateLost => {
                let from = update_at.unwrap_or(SimTime::ZERO);
                let lost = self
                    .superseding_frames(s.item, served_v, s.at)
                    .filter(|(_, push)| push.born >= from)
                    .filter_map(|(key, push)| Some((key, push, push.lost?)))
                    .min_by_key(|&(&key, _, (at, _, _))| (at, key));
                if let Some(((origin, seq), push, (at, node, fate))) = lost {
                    format!(
                        "frame {origin}#{seq} ({}) carrying v{} died at {node} (fate: {}) at \
                         t={:.1}s — the propagation never reached {}",
                        push.class.label(),
                        push.version,
                        fate.label(),
                        secs(at),
                        s.node,
                    )
                } else if let Some(&(t, _, dest, class)) = self
                    .undeliverables
                    .iter()
                    .rev()
                    .find(|&&(t, _, dest, _)| dest == s.node && t <= s.at)
                {
                    format!(
                        "the network gave up on a {} toward {dest} (undeliverable at t={:.1}s) — \
                         the propagation never left its sender",
                        class.label(),
                        secs(t),
                    )
                } else {
                    format!(
                        "a propagation frame carrying v>{served_v} toward {} was lost on the \
                         channel (no frame-level record: run with --provenance to name it)",
                        s.node,
                    )
                }
            }
            BlameCause::CrashWipe => match self
                .crashes
                .get(&s.node)
                .and_then(|c| c.iter().rev().find(|t| **t <= s.at))
            {
                Some(t) => format!(
                    "{} crashed at t={:.1}s, wiping its cache; the re-populated copy lost \
                     its propagation provenance",
                    s.node,
                    secs(*t),
                ),
                None => format!("{}'s volatile state was wiped by a crash", s.node),
            },
            BlameCause::LeaseOrphan => match self
                .lease_expiries
                .get(&(s.node, s.item))
                .and_then(|l| l.iter().rev().find(|t| **t <= s.at))
            {
                Some(t) => format!(
                    "{}'s relay lease on {} expired without source contact at t={:.1}s, \
                     dropping it off every update push path",
                    s.node,
                    s.item,
                    secs(*t),
                ),
                None => format!(
                    "{}'s relay lease on {} expired, orphaning the copy",
                    s.node, s.item,
                ),
            },
            BlameCause::RaceInFlight => {
                let late = self
                    .superseding_frames(s.item, served_v, s.at)
                    .filter_map(|(key, push)| {
                        let mut deliveries = push.deliveries.iter();
                        let &(at, _) = deliveries.find(|&&(at, n)| n == s.node && at >= s.at)?;
                        Some((key, push, at))
                    })
                    .min_by_key(|&(&key, _, at)| (at, key));
                match late {
                    Some(((origin, seq), push, delivered_at)) => format!(
                        "frame {origin}#{seq} carrying v{} was in flight: born t={:.1}s, \
                         delivered to {} only at t={:.1}s — after the serve",
                        push.version,
                        secs(push.born),
                        s.node,
                        secs(delivered_at),
                    ),
                    None => format!(
                        "v{} had been transmitted but was not yet applied at {} when it \
                         answered",
                        served_v + 1,
                        s.node,
                    ),
                }
            }
            BlameCause::UpdateNeverSent => format!(
                "no propagation frame carrying v>{served_v} was ever sent toward {} — the \
                 running strategy does not push to this holder",
                s.node,
            ),
        }
    }

    /// One line naming the recovery action that repaired the stale copy,
    /// or saying that none did.
    fn repair_evidence(&self, s: &StaleServeRecord, served_v: u64) -> String {
        let secs = |t: SimTime| t.saturating_since(SimTime::ZERO).as_secs_f64();
        // Earliest post-serve event that put the holder right again.
        let refresh = self
            .lineages
            .get(&(s.node, s.item))
            .and_then(|l| l.iter().find(|r| r.at > s.at && r.version > served_v))
            .map(|r| {
                (
                    r.at,
                    format!(
                        "repaired: a fresh copy (v{}) reached {} via frame {}#{} at t={:.1}s",
                        r.version,
                        s.node,
                        r.origin,
                        r.frame,
                        secs(r.at),
                    ),
                )
            });
        let resync = self
            .resyncs
            .get(&s.node)
            .and_then(|r| r.iter().find(|(t, _)| *t > s.at))
            .map(|&(t, stale)| {
                (
                    t,
                    format!(
                        "repaired: a rejoin resync at {} settled {stale} stale cop(ies) at \
                         t={:.1}s",
                        s.node,
                        secs(t),
                    ),
                )
            });
        let retransmit = self
            .retransmits
            .iter()
            .find(|&&(t, _, dest, item, _)| t > s.at && dest == s.node && item == s.item)
            .map(|&(t, src, _, _, attempt)| {
                (
                    t,
                    format!(
                        "repaired: {src} retransmitted the unacked update (attempt {attempt}) \
                         to {} at t={:.1}s",
                        s.node,
                        secs(t),
                    ),
                )
            });
        let handover = self
            .handovers
            .iter()
            .find(|&&(t, from, to, item)| {
                t > s.at && item == s.item && (from == s.node || to == s.node)
            })
            .map(|&(t, from, to, _)| {
                (
                    t,
                    format!(
                        "repaired: the relay duty for {} was handed from {from} to {to} at \
                         t={:.1}s",
                        s.item,
                        secs(t),
                    ),
                )
            });
        [refresh, resync, retransmit, handover]
            .into_iter()
            .flatten()
            .min_by_key(|(t, _)| *t)
            .map(|(_, line)| line)
            .unwrap_or_else(|| "never repaired before the run ended".to_string())
    }
}

/// One explained stale serve: the journal record plus the causal chain
/// the provenance graph walked for it.
#[derive(Debug, Clone)]
pub struct Incident {
    /// When the stale answer was served.
    pub at: SimTime,
    /// The peer that answered stale.
    pub node: NodeId,
    /// The query that got the stale answer.
    pub query: u64,
    /// The stale item.
    pub item: ItemId,
    /// The blame tracker's proximate cause (the chain's terminal).
    pub cause: BlameCause,
    /// How long the served version had been superseded.
    pub staleness: SimDuration,
    /// Versions behind the master.
    pub lag: u64,
    /// True if the staleness exceeded the run's Δ.
    pub violation: bool,
    /// The causal chain, one human-readable step per line.
    pub chain: Vec<String>,
}

/// Walks every stale serve in the journal back through the provenance
/// graph, producing one explained [`Incident`] per serve, journal-ordered.
pub fn explain_stale_serves(analysis: &TraceAnalysis) -> Vec<Incident> {
    let graph = &analysis.provenance;
    graph
        .stale_serves
        .iter()
        .map(|s| Incident {
            at: s.at,
            node: s.node,
            query: s.query,
            item: s.item,
            cause: s.cause,
            staleness: SimDuration::from_millis(s.staleness_ms),
            lag: s.lag,
            violation: s.violation,
            chain: graph.chain_for(s),
        })
        .collect()
}

/// Cross-checks the explainer's output against the report's consistency
/// counters: every stale serve must carry a causal chain, and the
/// multiset of chain terminal causes must equal the report's blame
/// partition exactly. One line per mismatch; empty means exact agreement.
pub fn crosscheck_explain(incidents: &[Incident], report: &ConsistencyReportTotals) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut causes = [0u64; BlameCause::ALL.len()];
    for incident in incidents {
        causes[incident.cause.index()] += 1;
        if incident.chain.is_empty() {
            mismatches.push(format!(
                "incident for query {} has no causal chain",
                incident.query
            ));
        }
    }
    for cause in BlameCause::ALL {
        let (explained, reported) = (causes[cause.index()], report.blame[cause.index()]);
        if explained != reported {
            mismatches.push(format!(
                "chains ending in {}: explainer says {explained}, report says {reported}",
                cause.label()
            ));
        }
    }
    if incidents.len() as u64 != report.stale_served {
        mismatches.push(format!(
            "incidents explained: explainer says {}, report says {} stale serves",
            incidents.len(),
            report.stale_served
        ));
    }
    mismatches
}

/// Renders the causal chains, one block per incident. With `query`,
/// only that query's incident is shown (or a note that it was never
/// served stale).
pub fn render_explain(incidents: &[Incident], query: Option<u64>) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    let selected: Vec<&Incident> = incidents
        .iter()
        .filter(|i| query.is_none_or(|q| i.query == q))
        .collect();
    match query {
        Some(q) if selected.is_empty() => {
            let _ = writeln!(
                out,
                "\nQuery {q} was not served stale in this journal (nothing to explain)."
            );
            return out;
        }
        Some(q) => {
            let _ = writeln!(out, "\nCausal chain for query {q}:");
        }
        None => {
            let _ = writeln!(
                out,
                "\nCausal chains: {} stale-serve incident(s) explained:",
                selected.len()
            );
        }
    }
    for incident in selected {
        let _ = writeln!(
            out,
            "\n#{} t={:.1}s node {} item {} — cause: {} (lag {}, {:.3}s stale{})",
            incident.query,
            incident.at.saturating_since(SimTime::ZERO).as_secs_f64(),
            incident.node,
            incident.item,
            incident.cause.label(),
            incident.lag,
            incident.staleness.as_secs_f64(),
            if incident.violation {
                ", Δ-violation"
            } else {
                ""
            },
        );
        for (i, step) in incident.chain.iter().enumerate() {
            let _ = writeln!(out, "  {}. {step}", i + 1);
        }
    }
    out
}

/// Renders the per-node and per-link health scoreboard: frame drop
/// rates, relay load, and the staleness-contribution ranking, all from
/// the same provenance graph the explainer walks.
pub fn render_health(analysis: &TraceAnalysis) -> String {
    use std::fmt::Write as _;
    let graph = &analysis.provenance;
    let mut out = String::with_capacity(2048);
    out.push_str("\nPer-node health scoreboard");
    if !graph.has_frames() {
        out.push_str(
            " (no frame provenance in this journal — run with --provenance \
             for the frame columns)",
        );
    }
    out.push_str(":\n");

    let mut nodes: Vec<(&NodeId, &NodeHealth)> = graph
        .node_health()
        .iter()
        .filter(|(_, h)| h.fates() + h.born + h.forwards + h.stale_serves > 0)
        .collect();
    // Staleness contribution first, then frame losses, then node id.
    nodes.sort_by(|(a, ha), (b, hb)| {
        hb.staleness_ms
            .cmp(&ha.staleness_ms)
            .then(hb.lost.cmp(&ha.lost))
            .then(a.cmp(b))
    });
    let mut rows = Vec::with_capacity(nodes.len());
    for (node, h) in nodes {
        rows.push(vec![
            node.to_string(),
            h.born.to_string(),
            h.forwards.to_string(),
            h.delivered.to_string(),
            h.dups.to_string(),
            h.lost.to_string(),
            format!("{:.3}", h.drop_rate()),
            h.stale_serves.to_string(),
            format!("{:.1}", h.staleness_ms as f64 / 1_000.0),
        ]);
    }
    out.push_str(&render_table(
        &[
            "node",
            "born",
            "relayed",
            "delivered",
            "dups",
            "lost",
            "drop rate",
            "stale",
            "stale s",
        ],
        &rows,
    ));

    let mut links: Vec<(&(NodeId, NodeId), &u64)> = graph.link_drops().iter().collect();
    links.sort_by(|(ka, na), (kb, nb)| nb.cmp(na).then(ka.cmp(kb)));
    if !links.is_empty() {
        out.push_str("\nLossiest links (MAC drops, transmitter -> next hop):\n");
        let mut rows = Vec::new();
        for (&(from, to), n) in links.into_iter().take(10) {
            rows.push(vec![format!("{from} -> {to}"), n.to_string()]);
        }
        out.push_str(&render_table(&["link", "drops"], &rows));
    }
    let _ = writeln!(
        out,
        "\nTotals: {} frames born, {} stale serves across {} node(s).",
        graph.frames_born,
        graph.stale_serves.len(),
        graph.node_health().len(),
    );
    out
}

/// The latest timestamp [`analyze_journal`] folds. The traffic tally
/// keeps one slot per [`DEFAULT_WINDOW`] since t = 0, so a timestamp
/// buys memory in proportion to itself, and a journal is outside input:
/// 65 536 windows (45 simulated days; the paper's runs span 300 minutes)
/// hold the tally at 512 KiB whatever the journal says. Every other fold
/// grows with the number of records, not their values.
const HORIZON: SimTime = SimTime::from_millis(DEFAULT_WINDOW.as_millis() << 16);

/// Streams a journal into spans and a traffic timeline. A record stamped
/// past 65 536 windows of [`DEFAULT_WINDOW`] (45 simulated days) is
/// refused with its line number: see `HORIZON`.
pub fn analyze_journal<R: BufRead>(input: R) -> Result<TraceAnalysis, ReadError> {
    let mut reader = JournalReader::new(input)?;
    let header = reader.header();
    let warmup = SimDuration::from_millis(header.warmup_ms);
    let mut assembler = SpanAssembler::new();
    let mut traffic: Option<Vec<u64>> = None;
    let mut consistency = ConsistencyTimeline::default();
    let mut provenance = ProvenanceGraph::default();
    let mut events = 0u64;
    while let Some(entry) = reader.next() {
        let (at, event) = entry?;
        if at > HORIZON {
            return Err(ReadError::BeyondHorizon {
                line_no: reader.lines_read(),
                at_ms: at.as_millis(),
                horizon_ms: HORIZON.as_millis(),
            });
        }
        assembler.record(at, &event);
        if let TraceEvent::MsgSend { bytes, .. } = event {
            if at.saturating_since(SimTime::ZERO) >= warmup {
                let window = (at.as_millis() / DEFAULT_WINDOW.as_millis()) as usize;
                let tally = traffic.get_or_insert_with(Vec::new);
                if tally.len() <= window {
                    tally.resize(window + 1, 0);
                }
                tally[window] += u64::from(bytes);
            }
        }
        consistency.record(at, &event);
        provenance.record(at, &event);
        events += 1;
    }
    Ok(TraceAnalysis {
        header,
        events,
        orphan_tagged: assembler.orphan_tagged,
        spans: assembler.finish(),
        traffic,
        consistency,
        provenance,
    })
}

/// How much of a journal file [`analyze_file`] holds at a time. The
/// reader decodes a line in place only when all of it is in the buffer
/// and copies out the one that straddles the buffer's end: one line in
/// fourteen thousand at this size, one in 110 at `BufReader`'s 8 KiB.
const FILE_BUFFER: usize = 1 << 20;

/// Opens and streams a journal file.
pub fn analyze_file(path: &Path) -> Result<TraceAnalysis, ReadError> {
    let file = std::fs::File::open(path)?;
    analyze_journal(std::io::BufReader::with_capacity(FILE_BUFFER, file))
}

impl TraceAnalysis {
    /// The warm-up boundary recorded in the header.
    pub fn warmup(&self) -> SimDuration {
        SimDuration::from_millis(self.header.warmup_ms)
    }

    /// True for spans the world's report also counted (issued after
    /// warm-up — the censoring rule the simulation applies at issue
    /// time).
    pub fn is_measured(&self, span: &QuerySpan) -> bool {
        span.issued.saturating_since(SimTime::ZERO) >= self.warmup()
    }

    /// Folds the measured spans into report-comparable totals.
    pub fn measured_totals(&self) -> SpanTotals {
        let mut t = SpanTotals {
            issued: 0,
            served: 0,
            failed: 0,
            open: 0,
            served_by: [0; 3],
            latency: LatencyStats::default(),
            latency_by_level: Default::default(),
            latency_by_served: Default::default(),
        };
        for span in self.spans.iter().filter(|s| self.is_measured(s)) {
            match span.outcome {
                SpanOutcome::Served { at, served_by } => {
                    t.issued += 1;
                    t.served += 1;
                    t.served_by[served_by.index()] += 1;
                    let latency = at.saturating_since(span.issued);
                    t.latency.record(latency);
                    t.latency_by_level[span.level.index()].record(latency);
                    t.latency_by_served[served_by.index()].record(latency);
                }
                SpanOutcome::Failed { .. } => {
                    t.issued += 1;
                    t.failed += 1;
                }
                SpanOutcome::Open => t.open += 1,
            }
        }
        t
    }

    /// Spans whose `QueryServed` terminal was seen (any issue time).
    pub fn answered_spans(&self) -> impl Iterator<Item = &QuerySpan> {
        self.spans
            .iter()
            .filter(|s| matches!(s.outcome, SpanOutcome::Served { .. }))
    }
}

/// Compares span-derived totals against the report's counters. Returns
/// one human-readable line per mismatch; empty means exact agreement.
pub fn crosscheck(totals: &SpanTotals, report: &ReportTotals) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut check = |what: &str, span_side: u64, report_side: u64| {
        if span_side != report_side {
            mismatches.push(format!(
                "{what}: spans say {span_side}, report says {report_side}"
            ));
        }
    };
    check("queries issued", totals.issued, report.queries_issued);
    check("queries served", totals.served, report.queries_served);
    check("queries failed", totals.failed, report.queries_failed);
    for by in ServedBy::ALL {
        check(
            &format!("served by {}", by.label()),
            totals.served_by[by.index()],
            report.served_by[by.index()],
        );
    }
    mismatches
}

fn fmt_latency(stats: &LatencyStats) -> Vec<String> {
    vec![
        stats.count().to_string(),
        format!("{:.3}", stats.mean_secs()),
        format!("{:.3}", stats.percentile(0.50).as_secs_f64()),
        format!("{:.3}", stats.percentile(0.95).as_secs_f64()),
        format!("{:.3}", stats.percentile(0.99).as_secs_f64()),
        format!("{:.3}", stats.max().as_secs_f64()),
    ]
}

/// Renders the full per-run report: outcomes, latency percentiles by
/// level and provenance, the span-phase breakdown, the traffic timeline,
/// and the `top` slowest spans.
pub fn render_analysis(analysis: &TraceAnalysis, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let totals = analysis.measured_totals();

    let _ = writeln!(
        out,
        "Journal: schema {}, {} events, {} spans ({} measured post-warm-up), warm-up {}",
        analysis.header.schema,
        analysis.events,
        analysis.spans.len(),
        totals.issued,
        analysis.warmup(),
    );
    if analysis.orphan_tagged > 0 {
        let _ = writeln!(
            out,
            "warning: {} span-tagged messages had no QueryIssued (truncated journal?)",
            analysis.orphan_tagged
        );
    }

    out.push_str("\nOutcomes (measured):\n");
    let rows = vec![
        vec!["served".to_string(), totals.served.to_string()],
        vec!["failed".to_string(), totals.failed.to_string()],
        vec!["open at end".to_string(), totals.open.to_string()],
        vec![
            "served by source".to_string(),
            totals.served_by[ServedBy::Source.index()].to_string(),
        ],
        vec![
            "served by relay".to_string(),
            totals.served_by[ServedBy::Relay.index()].to_string(),
        ],
        vec![
            "served by cache".to_string(),
            totals.served_by[ServedBy::Cache.index()].to_string(),
        ],
        vec![
            "cache-hit ratio".to_string(),
            format!("{:.4}", totals.cache_hit_ratio()),
        ],
    ];
    out.push_str(&render_table(&["outcome", "count"], &rows));

    out.push_str("\nLatency by consistency level (seconds):\n");
    let header = ["level", "count", "mean", "p50", "p95", "p99", "max"];
    let mut rows = Vec::new();
    for level in LevelTag::ALL {
        let stats = &totals.latency_by_level[level.index()];
        if stats.count() == 0 {
            continue;
        }
        let mut row = vec![level.label().to_string()];
        row.extend(fmt_latency(stats));
        rows.push(row);
    }
    let mut all_row = vec!["all".to_string()];
    all_row.extend(fmt_latency(&totals.latency));
    rows.push(all_row);
    out.push_str(&render_table(&header, &rows));

    out.push_str("\nLatency by answer provenance (seconds):\n");
    let header = ["served by", "count", "mean", "p50", "p95", "p99", "max"];
    let mut rows = Vec::new();
    for by in ServedBy::ALL {
        let stats = &totals.latency_by_served[by.index()];
        if stats.count() == 0 {
            continue;
        }
        let mut row = vec![by.label().to_string()];
        row.extend(fmt_latency(stats));
        rows.push(row);
    }
    out.push_str(&render_table(&header, &rows));

    // Per-phase time: every measured span's critical path, aggregated by
    // segment label. "local" segments are same-instant cache hits.
    out.push_str("\nSpan-phase breakdown (critical-path time, measured spans):\n");
    let labels: Vec<&str> = SpanPhase::ALL
        .iter()
        .map(|p| p.label())
        .chain(["local", "issue"])
        .collect();
    let mut time_ms = vec![0u64; labels.len()];
    let mut seg_count = vec![0u64; labels.len()];
    for span in analysis.spans.iter().filter(|s| analysis.is_measured(s)) {
        for seg in span.critical_path() {
            if let Some(i) = labels.iter().position(|&l| l == seg.label) {
                time_ms[i] += seg.duration().as_millis();
                seg_count[i] += 1;
            }
        }
    }
    let mut rows = Vec::new();
    for (i, label) in labels.iter().enumerate() {
        if seg_count[i] == 0 {
            continue;
        }
        rows.push(vec![
            label.to_string(),
            seg_count[i].to_string(),
            format!("{:.1}", time_ms[i] as f64 / 1_000.0),
            format!("{:.1}", time_ms[i] as f64 / seg_count[i] as f64 / 1_000.0),
        ]);
    }
    out.push_str(&render_table(
        &["phase", "segments", "total s", "mean s"],
        &rows,
    ));

    // Traffic timeline: the windowed byte tally, one row per window that
    // saw traffic.
    if let Some(bytes) = &analysis.traffic {
        out.push_str("\nTraffic timeline (post-warm-up bytes per window):\n");
        let window_secs = DEFAULT_WINDOW.as_secs_f64();
        let mut rows = Vec::new();
        for (i, n) in bytes.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let start = i as f64 * window_secs;
            rows.push(vec![
                format!("{:.0}-{:.0}s", start, start + window_secs),
                n.to_string(),
            ]);
        }
        out.push_str(&render_table(&["window", "bytes"], &rows));
    }

    if top > 0 {
        let _ = writeln!(out, "\nTop {top} slowest served spans:");
        let mut served: Vec<&QuerySpan> = analysis
            .answered_spans()
            .filter(|s| analysis.is_measured(s))
            .collect();
        served.sort_by_key(|s| std::cmp::Reverse(s.latency().unwrap_or(SimDuration::ZERO)));
        let mut rows = Vec::new();
        for span in served.into_iter().take(top) {
            let trail: Vec<&str> = span.critical_path().iter().map(|s| s.label).collect();
            rows.push(vec![
                span.query.to_string(),
                span.node.to_string(),
                span.item.to_string(),
                span.level.label().to_string(),
                format!(
                    "{:.3}",
                    span.latency().unwrap_or(SimDuration::ZERO).as_secs_f64()
                ),
                format!("{}/{}", span.sends, span.delivers),
                trail.join(">"),
            ]);
        }
        out.push_str(&render_table(
            &["query", "node", "item", "lvl", "latency s", "tx/rx", "path"],
            &rows,
        ));
    }
    out
}

/// Human labels for the staleness-age histogram columns, derived from
/// [`AGE_BUCKET_EDGES`] so a bucket change cannot desynchronise the
/// rendering.
fn age_bucket_labels() -> Vec<String> {
    let secs: Vec<u64> = AGE_BUCKET_EDGES
        .iter()
        .map(|e| e.as_millis() / 1000)
        .collect();
    let mut labels = Vec::with_capacity(AGE_BUCKETS);
    labels.push(format!("<{}s", secs[0]));
    for w in secs.windows(2) {
        labels.push(format!("{}-{}s", w[0], w[1]));
    }
    labels.push(format!(">={}s", secs[secs.len() - 1]));
    labels
}

/// Renders the consistency observatory's view of one journal: the
/// divergence timeline (one row per sampler tick), the per-cause blame
/// table (rows sum exactly to the stale serves seen), and the Δ-violation
/// headline.
pub fn render_consistency(timeline: &ConsistencyTimeline) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    if timeline.is_empty() {
        out.push_str(
            "\nConsistency observatory: no records in this journal \
             (run with --consistency to enable the sampler and blame tracker).\n",
        );
        return out;
    }

    out.push_str("\nDivergence timeline (one row per sampler tick):\n");
    let age_labels = age_bucket_labels();
    let mut header: Vec<&str> = vec![
        "t",
        "fresh frac",
        "fresh/total",
        "items",
        "max reps",
        "parts",
        "relays",
    ];
    header.extend(age_labels.iter().map(String::as_str));
    let mut rows = Vec::with_capacity(timeline.samples.len());
    for s in &timeline.samples {
        let mut row = vec![
            format!("{:.0}s", s.at.saturating_since(SimTime::ZERO).as_secs_f64()),
            format!("{:.4}", s.fresh_fraction()),
            format!("{}/{}", s.fresh_copies, s.total_copies),
            s.items_replicated.to_string(),
            s.max_replicas.to_string(),
            s.partitions.to_string(),
            s.relay_nodes.to_string(),
        ];
        row.extend(s.ages.iter().map(u32::to_string));
        rows.push(row);
    }
    out.push_str(&render_table(&header, &rows));

    out.push_str("\nStale-serve blame (rows sum exactly to stale serves):\n");
    let total = timeline.stale_serves();
    let mut rows = Vec::new();
    for cause in BlameCause::ALL {
        let n = timeline.blame[cause.index()];
        if n == 0 {
            continue;
        }
        let share = if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        };
        rows.push(vec![
            cause.label().to_string(),
            n.to_string(),
            format!("{:.1}%", share * 100.0),
        ]);
    }
    rows.push(vec!["total".to_string(), total.to_string(), String::new()]);
    out.push_str(&render_table(&["cause", "stale serves", "share"], &rows));

    let _ = writeln!(
        out,
        "\nΔ-consistency violations: {} (staleness above the protocol's Δ); \
         max staleness served: {:.3}s",
        timeline.delta_violations,
        timeline.max_staleness.as_secs_f64(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn journal(lines: &[&str]) -> String {
        let mut s = String::from("{\"schema\":4,\"kinds\":38,\"warmup_ms\":60000}\n");
        for line in lines {
            s.push_str(line);
            s.push('\n');
        }
        s
    }

    #[test]
    fn analyze_reconstructs_spans_and_censors_warmup() {
        // Query 1 issued pre-warm-up (censored), query 2 post-warm-up.
        let text = journal(&[
            "{\"t\":1000,\"ev\":\"query_issued\",\"node\":0,\"query\":1,\"item\":3,\"level\":\"SC\"}",
            "{\"t\":1400,\"ev\":\"query_served\",\"node\":0,\"query\":1,\"level\":\"SC\",\"by\":\"source\",\"issued\":1000}",
            "{\"t\":61000,\"ev\":\"query_issued\",\"node\":1,\"query\":2,\"item\":3,\"level\":\"DC\"}",
            "{\"t\":61000,\"ev\":\"query_phase\",\"node\":1,\"query\":2,\"item\":3,\"phase\":\"poll_flood\",\"attempt\":1}",
            "{\"t\":61000,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":2}",
            "{\"t\":61500,\"ev\":\"msg_deliver\",\"node\":1,\"origin\":2,\"class\":\"POLL_ACK_A\",\"hops\":2,\"flood\":false,\"span\":2}",
            "{\"t\":61500,\"ev\":\"query_served\",\"node\":1,\"query\":2,\"level\":\"DC\",\"by\":\"relay\",\"issued\":61000}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(analysis.events, 7);
        assert_eq!(analysis.spans.len(), 2);
        assert_eq!(analysis.orphan_tagged, 0);

        let totals = analysis.measured_totals();
        assert_eq!(totals.issued, 1, "pre-warm-up span censored");
        assert_eq!(totals.served, 1);
        assert_eq!(totals.served_by, [0, 1, 0]);
        assert_eq!(totals.cache_hit_ratio(), 1.0);
        assert_eq!(totals.latency.count(), 1);
        assert_eq!(totals.latency.mean(), SimDuration::from_millis(500));
        assert_eq!(totals.latency_by_level[LevelTag::Delta.index()].count(), 1);
        // The tally saw the same stream: the post-warm-up send's bytes
        // land in the window of t = 61 s.
        assert_eq!(analysis.traffic, Some(vec![0, 48]));
    }

    #[test]
    fn a_record_past_the_horizon_is_refused_by_line() {
        let send = |t: u64| {
            format!("{{\"t\":{t},\"ev\":\"msg_send\",\"node\":0,\"class\":\"POLL\",\"bytes\":4,\"dest\":null}}")
        };
        let last = HORIZON.as_millis();
        let text = journal(&[&send(5), &send(last)]);
        let analysis = analyze_journal(text.as_bytes()).expect("the horizon itself is inside");
        let tally = analysis.traffic.expect("a post-warm-up send");
        assert_eq!(tally.len(), (1 << 16) + 1);

        for beyond in [last + 1, 1_000_000_000_000_000] {
            let text = journal(&[&send(5), &send(beyond)]);
            match analyze_journal(text.as_bytes()) {
                Err(ReadError::BeyondHorizon {
                    line_no: 3,
                    at_ms,
                    horizon_ms,
                }) => assert_eq!((at_ms, horizon_ms), (beyond, last)),
                other => panic!("expected a refusal of line 3, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn crosscheck_flags_every_divergent_counter() {
        let text = journal(&[
            "{\"t\":61000,\"ev\":\"query_issued\",\"node\":0,\"query\":1,\"item\":3,\"level\":\"SC\"}",
            "{\"t\":61400,\"ev\":\"query_served\",\"node\":0,\"query\":1,\"level\":\"SC\",\"by\":\"cache\",\"issued\":61000}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let totals = analysis.measured_totals();
        let good = ReportTotals {
            queries_issued: 1,
            queries_served: 1,
            queries_failed: 0,
            served_by: [0, 0, 1],
        };
        assert!(crosscheck(&totals, &good).is_empty());
        let bad = ReportTotals {
            queries_issued: 2,
            queries_served: 1,
            queries_failed: 0,
            served_by: [1, 0, 0],
        };
        let mismatches = crosscheck(&totals, &bad);
        assert_eq!(mismatches.len(), 3, "{mismatches:?}");
    }

    #[test]
    fn report_totals_parse_from_report_json() {
        let text = "{\"queries_issued\":10,\"queries_served\":8,\"queries_failed\":2,\
                    \"served_by\":{\"source\":3,\"relay\":4,\"cache\":1},\"cache_hit_ratio\":0.625}";
        let totals = ReportTotals::from_report_json(text).unwrap();
        assert_eq!(totals.queries_issued, 10);
        assert_eq!(totals.served_by, [3, 4, 1]);
        assert!(ReportTotals::from_report_json("{\"queries_issued\":10}").is_none());
    }

    #[test]
    fn render_analysis_mentions_the_key_sections() {
        let text = journal(&[
            "{\"t\":61000,\"ev\":\"query_issued\",\"node\":0,\"query\":1,\"item\":3,\"level\":\"SC\"}",
            "{\"t\":61000,\"ev\":\"query_phase\",\"node\":0,\"query\":1,\"item\":3,\"phase\":\"fetch\",\"attempt\":1}",
            "{\"t\":61900,\"ev\":\"query_served\",\"node\":0,\"query\":1,\"level\":\"SC\",\"by\":\"source\",\"issued\":61000}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let report = render_analysis(&analysis, 5);
        for needle in [
            "Outcomes (measured)",
            "Latency by consistency level",
            "Span-phase breakdown",
            "slowest served spans",
            "fetch",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn consistency_timeline_folds_observatory_records() {
        let text = journal(&[
            "{\"t\":30000,\"ev\":\"consistency\",\"fresh\":5,\"copies\":8,\"items\":4,\
             \"max_replicas\":3,\"partitions\":2,\"relay_nodes\":6,\"ages\":[1,1,1,0,0,0]}",
            "{\"t\":60000,\"ev\":\"consistency\",\"fresh\":8,\"copies\":8,\"items\":4,\
             \"max_replicas\":3,\"partitions\":1,\"relay_nodes\":6,\"ages\":[0,0,0,0,0,0]}",
            "{\"t\":61000,\"ev\":\"stale_serve\",\"node\":3,\"query\":9,\"item\":2,\
             \"cause\":\"partitioned\",\"staleness_ms\":2500,\"lag\":1,\"violation\":false}",
            "{\"t\":62000,\"ev\":\"stale_serve\",\"node\":4,\"query\":10,\"item\":2,\
             \"cause\":\"invalidate_lost\",\"staleness_ms\":400000,\"lag\":2,\"violation\":true}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let timeline = &analysis.consistency;
        assert!(!timeline.is_empty());
        assert_eq!(timeline.samples.len(), 2);
        assert_eq!(timeline.samples[0].at, SimTime::from_millis(30000));
        assert_eq!(timeline.samples[0].fresh_fraction(), 5.0 / 8.0);
        assert_eq!(timeline.samples[1].fresh_fraction(), 1.0);
        assert_eq!(timeline.stale_serves(), 2);
        assert_eq!(timeline.blame[BlameCause::Partitioned.index()], 1);
        assert_eq!(timeline.blame[BlameCause::InvalidateLost.index()], 1);
        assert_eq!(timeline.delta_violations, 1);
        assert_eq!(timeline.max_staleness, SimDuration::from_millis(400000));
    }

    #[test]
    fn a_journal_without_consistency_records_yields_an_empty_timeline() {
        let text = journal(&[
            "{\"t\":61000,\"ev\":\"query_issued\",\"node\":0,\"query\":1,\"item\":3,\"level\":\"SC\"}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        assert!(analysis.consistency.is_empty());
        let rendered = render_consistency(&analysis.consistency);
        assert!(rendered.contains("no records"), "{rendered}");
    }

    #[test]
    fn consistency_report_totals_parse_from_report_json() {
        let text = "{\"queries_issued\":10,\"stale_served\":6,\"fresh_fraction\":0.925,\
                    \"max_staleness_secs\":12.5,\
                    \"consistency\":{\"stale_attributed\":6,\"delta_violations\":2,\"samples\":16,\
                    \"blame\":{\"partitioned\":3,\"invalidate_lost\":1,\"crash_wipe\":0,\
                    \"lease_orphan\":0,\"race_in_flight\":1,\"update_never_sent\":1}}}";
        let totals = ConsistencyReportTotals::from_report_json(text).unwrap();
        assert_eq!(totals.blame, [3, 1, 0, 0, 1, 1]);
        assert_eq!(totals.delta_violations, 2);
        assert_eq!(totals.samples, 16);
        assert_eq!(totals.stale_served, 6);
        assert!((totals.fresh_fraction - 0.925).abs() < 1e-12);
        // An observatory-off report has no consistency object at all.
        assert!(ConsistencyReportTotals::from_report_json("{\"stale_served\":6}").is_none());
    }

    #[test]
    fn consistency_crosscheck_flags_every_divergent_counter() {
        let mut timeline = ConsistencyTimeline::default();
        timeline.record(
            SimTime::from_millis(30000),
            &TraceEvent::ConsistencySample {
                fresh_copies: 4,
                total_copies: 4,
                items_replicated: 2,
                max_replicas: 2,
                partitions: 1,
                relay_nodes: 3,
                ages: [0; AGE_BUCKETS],
            },
        );
        timeline.record(
            SimTime::from_millis(31000),
            &TraceEvent::StaleServe {
                node: mp2p_sim::NodeId::new(1),
                query: 7,
                item: mp2p_sim::ItemId::new(0),
                cause: BlameCause::RaceInFlight,
                staleness_ms: 100,
                lag: 1,
                violation: false,
            },
        );
        let good = ConsistencyReportTotals {
            blame: [0, 0, 0, 0, 1, 0],
            delta_violations: 0,
            samples: 1,
            stale_served: 1,
            fresh_fraction: 0.99,
        };
        assert!(crosscheck_consistency(&timeline, &good).is_empty());
        let bad = ConsistencyReportTotals {
            blame: [1, 0, 0, 0, 0, 0],
            delta_violations: 1,
            samples: 2,
            stale_served: 3,
            fresh_fraction: 0.99,
        };
        let mismatches = crosscheck_consistency(&timeline, &bad);
        // samples, violations, two blame causes, and the row sum all differ.
        assert_eq!(mismatches.len(), 5, "{mismatches:?}");
    }

    #[test]
    fn render_consistency_shows_timeline_and_blame_partition() {
        let text = journal(&[
            "{\"t\":30000,\"ev\":\"consistency\",\"fresh\":5,\"copies\":8,\"items\":4,\
             \"max_replicas\":3,\"partitions\":2,\"relay_nodes\":6,\"ages\":[1,1,1,0,0,0]}",
            "{\"t\":61000,\"ev\":\"stale_serve\",\"node\":3,\"query\":9,\"item\":2,\
             \"cause\":\"crash_wipe\",\"staleness_ms\":2500,\"lag\":1,\"violation\":true}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let rendered = render_consistency(&analysis.consistency);
        for needle in [
            "Divergence timeline",
            "0.6250",
            "5/8",
            "Stale-serve blame",
            "crash_wipe",
            "violations: 1",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle:?} in:\n{rendered}"
            );
        }
        // Zero-count causes are elided; the total row still closes the sum.
        assert!(!rendered.contains("update_never_sent"));
        assert!(rendered.contains("total"));
    }

    /// A hand-built provenance incident: v1 reaches node 1, v2's
    /// invalidation frame dies in a burst, node 1 serves stale, and a
    /// later frame repairs the copy.
    fn synthetic_provenance_journal() -> String {
        journal(&[
            "{\"t\":61000,\"ev\":\"source_update\",\"node\":2,\"item\":5,\"version\":1}",
            "{\"t\":61100,\"ev\":\"frame_born\",\"node\":2,\"frame\":0,\
             \"class\":\"INVALIDATION\",\"dest\":null,\"item\":5,\"version\":1}",
            "{\"t\":61150,\"ev\":\"frame_hop\",\"node\":3,\"origin\":2,\"frame\":0,\"hops\":1}",
            "{\"t\":61200,\"ev\":\"frame_fate\",\"node\":1,\"origin\":2,\"frame\":0,\
             \"fate\":\"delivered\"}",
            "{\"t\":61200,\"ev\":\"copy_lineage\",\"node\":1,\"item\":5,\"version\":1,\
             \"origin\":2,\"frame\":0,\"hops\":2}",
            "{\"t\":70000,\"ev\":\"source_update\",\"node\":2,\"item\":5,\"version\":2}",
            "{\"t\":70100,\"ev\":\"frame_born\",\"node\":2,\"frame\":1,\
             \"class\":\"INVALIDATION\",\"dest\":null,\"item\":5,\"version\":2}",
            "{\"t\":70200,\"ev\":\"frame_fate\",\"node\":3,\"origin\":2,\"frame\":1,\
             \"fate\":\"burst\"}",
            "{\"t\":71000,\"ev\":\"stale_serve\",\"node\":1,\"query\":9,\"item\":5,\
             \"cause\":\"invalidate_lost\",\"staleness_ms\":1000,\"lag\":1,\"violation\":false}",
            "{\"t\":72000,\"ev\":\"frame_born\",\"node\":2,\"frame\":2,\
             \"class\":\"UPDATE\",\"dest\":1,\"item\":5,\"version\":2}",
            "{\"t\":72300,\"ev\":\"frame_fate\",\"node\":1,\"origin\":2,\"frame\":2,\
             \"fate\":\"delivered\"}",
            "{\"t\":72300,\"ev\":\"copy_lineage\",\"node\":1,\"item\":5,\"version\":2,\
             \"origin\":2,\"frame\":2,\"hops\":1}",
        ])
    }

    #[test]
    fn explain_walks_a_synthetic_incident_end_to_end() {
        let text = synthetic_provenance_journal();
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        assert!(analysis.provenance.has_frames());
        let incidents = explain_stale_serves(&analysis);
        assert_eq!(incidents.len(), 1);
        let incident = &incidents[0];
        assert_eq!(incident.query, 9);
        assert_eq!(incident.cause, BlameCause::InvalidateLost);
        assert_eq!(incident.chain.len(), 4, "{:#?}", incident.chain);
        // 1. The missed update names the superseding version.
        assert!(incident.chain[0].contains("v2"), "{}", incident.chain[0]);
        assert!(incident.chain[0].contains("M2"), "{}", incident.chain[0]);
        // 2. The lineage names the carrying frame of the stale copy.
        assert!(incident.chain[1].contains("M2#0"), "{}", incident.chain[1]);
        assert!(incident.chain[1].contains("v1"), "{}", incident.chain[1]);
        // 3. The hazard names the lost frame and its fate.
        assert!(incident.chain[2].contains("M2#1"), "{}", incident.chain[2]);
        assert!(incident.chain[2].contains("burst"), "{}", incident.chain[2]);
        // 4. The repair names the frame that brought v2 in after the serve.
        assert!(
            incident.chain[3].contains("repaired"),
            "{}",
            incident.chain[3]
        );
        assert!(incident.chain[3].contains("M2#2"), "{}", incident.chain[3]);

        // The rendering carries the whole chain; the single-query filter
        // selects it and misses return a note instead.
        let rendered = render_explain(&incidents, Some(9));
        assert!(rendered.contains("invalidate_lost"));
        assert!(rendered.contains("M2#1"));
        assert!(render_explain(&incidents, Some(10)).contains("not served stale"));
    }

    /// A race: v2 is on the air when node 1 serves v1, and two frames
    /// carrying it reach node 1 at the same instant after the serve. The
    /// explainer names the lower `(origin, seq)`; a delivery elsewhere or
    /// before the serve, a duplicate and a frame that carries no item
    /// name nothing, though every birth is counted.
    #[test]
    fn explain_names_the_frame_still_in_flight() {
        let text = journal(&[
            "{\"t\":70000,\"ev\":\"source_update\",\"node\":2,\"item\":5,\"version\":2}",
            "{\"t\":70050,\"ev\":\"frame_born\",\"node\":1,\"frame\":0,\
             \"class\":\"POLL\",\"dest\":2}",
            "{\"t\":70100,\"ev\":\"frame_born\",\"node\":2,\"frame\":3,\
             \"class\":\"INVALIDATION\",\"dest\":null,\"item\":5,\"version\":2}",
            "{\"t\":70150,\"ev\":\"frame_born\",\"node\":2,\"frame\":1,\
             \"class\":\"UPDATE\",\"dest\":1,\"item\":5,\"version\":2}",
            "{\"t\":70200,\"ev\":\"frame_fate\",\"node\":3,\"origin\":2,\"frame\":1,\
             \"fate\":\"delivered\"}",
            "{\"t\":70900,\"ev\":\"frame_fate\",\"node\":1,\"origin\":2,\"frame\":3,\
             \"fate\":\"delivered\"}",
            "{\"t\":71000,\"ev\":\"stale_serve\",\"node\":1,\"query\":9,\"item\":5,\
             \"cause\":\"race_in_flight\",\"staleness_ms\":1000,\"lag\":1,\"violation\":false}",
            "{\"t\":71200,\"ev\":\"frame_fate\",\"node\":1,\"origin\":2,\"frame\":1,\
             \"fate\":\"dup\"}",
            "{\"t\":71500,\"ev\":\"frame_fate\",\"node\":1,\"origin\":2,\"frame\":3,\
             \"fate\":\"delivered\"}",
            "{\"t\":71500,\"ev\":\"frame_fate\",\"node\":1,\"origin\":2,\"frame\":1,\
             \"fate\":\"delivered\"}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let incidents = explain_stale_serves(&analysis);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].cause, BlameCause::RaceInFlight);
        assert_eq!(
            incidents[0].chain[2],
            "frame M2#1 carrying v2 was in flight: born t=70.2s, delivered to M1 only at \
             t=71.5s — after the serve"
        );
        assert!(render_health(&analysis).contains("Totals: 3 frames born, 1 stale serves"));
    }

    #[test]
    fn explain_names_the_lowest_frame_id_among_losses_at_one_instant() {
        // Two superseding frames die at the same instant; the one born
        // first has the higher (origin, seq), so only the explicit
        // tie-break, not the order pushes were recorded in, names M2#7.
        let text = journal(&[
            "{\"t\":70000,\"ev\":\"source_update\",\"node\":2,\"item\":5,\"version\":2}",
            "{\"t\":70100,\"ev\":\"frame_born\",\"node\":3,\"frame\":0,\
             \"class\":\"INVALIDATION\",\"dest\":null,\"item\":5,\"version\":2}",
            "{\"t\":70150,\"ev\":\"frame_born\",\"node\":2,\"frame\":7,\
             \"class\":\"UPDATE\",\"dest\":1,\"item\":5,\"version\":2}",
            "{\"t\":70500,\"ev\":\"frame_fate\",\"node\":4,\"origin\":3,\"frame\":0,\
             \"fate\":\"burst\"}",
            "{\"t\":70500,\"ev\":\"frame_fate\",\"node\":4,\"origin\":2,\"frame\":7,\
             \"fate\":\"burst\"}",
            "{\"t\":71000,\"ev\":\"stale_serve\",\"node\":1,\"query\":9,\"item\":5,\
             \"cause\":\"invalidate_lost\",\"staleness_ms\":1000,\"lag\":1,\"violation\":false}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let incidents = explain_stale_serves(&analysis);
        assert_eq!(incidents.len(), 1);
        assert!(
            incidents[0].chain[2].starts_with("frame M2#7 (UPDATE) carrying v2 died at M4"),
            "{}",
            incidents[0].chain[2]
        );
    }

    #[test]
    fn explain_falls_back_when_provenance_is_absent() {
        // The same stale serve in a journal without frame records:
        // every chain step must still be present, saying what is missing.
        let text = journal(&[
            "{\"t\":70000,\"ev\":\"source_update\",\"node\":2,\"item\":5,\"version\":2}",
            "{\"t\":71000,\"ev\":\"stale_serve\",\"node\":1,\"query\":9,\"item\":5,\
             \"cause\":\"invalidate_lost\",\"staleness_ms\":1000,\"lag\":1,\"violation\":false}",
        ]);
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        assert!(!analysis.provenance.has_frames());
        let incidents = explain_stale_serves(&analysis);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].chain.len(), 4);
        assert!(incidents[0].chain[1].contains("no lineage record"));
        assert!(incidents[0].chain[2].contains("--provenance"));
        assert!(incidents[0].chain[3].contains("never repaired"));
        // The health board carries the no-frames caveat.
        assert!(render_health(&analysis).contains("no frame provenance"));
    }

    #[test]
    fn crosscheck_explain_flags_every_divergence() {
        let text = synthetic_provenance_journal();
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let incidents = explain_stale_serves(&analysis);
        let mut report = ConsistencyReportTotals {
            blame: [0; BlameCause::ALL.len()],
            delta_violations: 0,
            samples: 0,
            stale_served: 1,
            fresh_fraction: 0.99,
        };
        report.blame[BlameCause::InvalidateLost.index()] = 1;
        assert!(crosscheck_explain(&incidents, &report).is_empty());

        // Shifting one count to another cause trips both cause rows.
        report.blame[BlameCause::InvalidateLost.index()] = 0;
        report.blame[BlameCause::Partitioned.index()] = 1;
        let mismatches = crosscheck_explain(&incidents, &report);
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");

        // Losing an incident trips the cause row and the total.
        report.blame[BlameCause::InvalidateLost.index()] = 1;
        report.blame[BlameCause::Partitioned.index()] = 0;
        let mismatches = crosscheck_explain(&[], &report);
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
    }

    #[test]
    fn health_board_ranks_by_staleness_contribution() {
        let text = synthetic_provenance_journal();
        let analysis = analyze_journal(BufReader::new(text.as_bytes())).unwrap();
        let health = analysis.provenance.node_health();
        let n1 = health.get(&NodeId::new(1)).expect("node 1 active");
        assert_eq!(n1.stale_serves, 1);
        assert_eq!(n1.staleness_ms, 1000);
        assert_eq!(n1.delivered, 2);
        assert_eq!(n1.lost, 0);
        let n2 = health.get(&NodeId::new(2)).expect("node 2 active");
        assert_eq!(n2.born, 3);
        let n3 = health.get(&NodeId::new(3)).expect("node 3 active");
        assert_eq!(n3.forwards, 1);
        assert_eq!(n3.lost, 1);
        assert!((n3.drop_rate() - 1.0).abs() < 1e-9);
        let rendered = render_health(&analysis);
        // Node 1 (1000 ms contribution) ranks above node 3 (one loss).
        let pos_m1 = rendered.find("| M1 ").expect("M1 row");
        let pos_m3 = rendered.find("| M3 ").expect("M3 row");
        assert!(pos_m1 < pos_m3, "{rendered}");
    }
}
