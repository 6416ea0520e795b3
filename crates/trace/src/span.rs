//! Causal span reconstruction: from a flat event stream to per-query
//! span trees.
//!
//! A query's *span* is everything that happened between its
//! [`TraceEvent::QueryIssued`] and its `QueryServed`/`QueryFailed`
//! terminal: the causal phases it entered ([`SpanPhase`] markers — poll
//! unicast, ring-widening floods, source fetch, fallback degradation),
//! and every frame sent or delivered on its behalf (the `span`-tagged
//! `MsgSend`/`MsgDeliver` events). [`SpanAssembler`] folds the stream —
//! live behind a sink or offline from a journal — into one
//! [`QuerySpan`] per query, each with per-phase sim-time durations and
//! a computed critical path.

use mp2p_sim::{FastMap, ItemId, NodeId, SimDuration, SimTime};

use crate::event::{LevelTag, ServedBy, SpanPhase, TraceEvent};

/// One phase entry inside a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMark {
    /// Which phase the query entered.
    pub phase: SpanPhase,
    /// When it entered (sim time).
    pub at: SimTime,
    /// 1-based attempt number within the phase (0 = not applicable).
    pub attempt: u8,
}

/// How (and whether) a span terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// No terminal event seen (query still in flight when the journal
    /// ended; the world censors these from its report).
    Open,
    /// The query was answered.
    Served {
        /// When the answer landed.
        at: SimTime,
        /// Which copy answered.
        served_by: ServedBy,
    },
    /// The query timed out unanswered.
    Failed {
        /// When it gave up.
        at: SimTime,
    },
}

/// One edge of a span's critical path: the span spent `[start, end)`
/// in the activity named by `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Activity label: a [`SpanPhase::label`], `"local"` for
    /// same-instant cache hits, or `"issue"` for the pre-phase gap.
    pub label: &'static str,
    /// Segment start (sim time).
    pub start: SimTime,
    /// Segment end (sim time).
    pub end: SimTime,
}

impl PathSegment {
    /// The segment's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The reconstructed causal span of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpan {
    /// The query id (span id — they coincide by construction).
    pub query: u64,
    /// The issuing peer.
    pub node: NodeId,
    /// The item queried.
    pub item: ItemId,
    /// The consistency level requested.
    pub level: LevelTag,
    /// When the query was issued.
    pub issued: SimTime,
    /// Phases entered, in order.
    pub phases: Vec<PhaseMark>,
    /// Frame transmissions tagged with this span (per hop).
    pub sends: u64,
    /// Deliveries tagged with this span.
    pub delivers: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
}

impl QuerySpan {
    /// Issue-to-answer latency; `None` unless the span was served.
    pub fn latency(&self) -> Option<SimDuration> {
        match self.outcome {
            SpanOutcome::Served { at, .. } => Some(at.saturating_since(self.issued)),
            _ => None,
        }
    }

    /// The end instant used to close the last path segment.
    fn end_instant(&self) -> SimTime {
        match self.outcome {
            SpanOutcome::Served { at, .. } | SpanOutcome::Failed { at } => at,
            SpanOutcome::Open => self.phases.last().map_or(self.issued, |m| m.at),
        }
    }

    /// The span's critical path: consecutive segments from issue to
    /// terminal, one per phase entered (a phase lasts until the next
    /// phase starts, or until the terminal event). A served span with
    /// no phases yields a single `"local"` segment; a leading
    /// `"issue"` segment appears only if the first phase started
    /// strictly after the issue instant.
    pub fn critical_path(&self) -> Vec<PathSegment> {
        let end = self.end_instant();
        if self.phases.is_empty() {
            return vec![PathSegment {
                label: "local",
                start: self.issued,
                end,
            }];
        }
        let mut path = Vec::with_capacity(self.phases.len() + 1);
        if self.phases[0].at > self.issued {
            path.push(PathSegment {
                label: "issue",
                start: self.issued,
                end: self.phases[0].at,
            });
        }
        for (i, mark) in self.phases.iter().enumerate() {
            let seg_end = self.phases.get(i + 1).map_or(end, |next| next.at);
            path.push(PathSegment {
                label: mark.phase.label(),
                start: mark.at,
                end: seg_end,
            });
        }
        path
    }
}

/// Folds a `(SimTime, TraceEvent)` stream into per-query [`QuerySpan`]s.
///
/// Feed it events in emission order (the journal is written in order);
/// call [`SpanAssembler::finish`] for the assembled spans sorted by
/// query id.
#[derive(Debug, Default)]
pub struct SpanAssembler {
    spans: FastMap<u64, QuerySpan>,
    /// `MsgSend`/`MsgDeliver` events carrying a span tag for a query
    /// whose `QueryIssued` was never seen (truncated journal).
    pub orphan_tagged: u64,
}

impl SpanAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one event.
    pub fn record(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::QueryIssued {
                node,
                query,
                item,
                level,
            } => {
                self.spans.entry(query).or_insert(QuerySpan {
                    query,
                    node,
                    item,
                    level,
                    issued: at,
                    phases: Vec::new(),
                    sends: 0,
                    delivers: 0,
                    outcome: SpanOutcome::Open,
                });
            }
            TraceEvent::QueryPhase {
                query,
                phase,
                attempt,
                ..
            } => {
                if let Some(span) = self.spans.get_mut(&query) {
                    span.phases.push(PhaseMark { phase, at, attempt });
                }
            }
            TraceEvent::MsgSend {
                span: Some(query), ..
            } => match self.spans.get_mut(&query) {
                Some(span) => span.sends += 1,
                None => self.orphan_tagged += 1,
            },
            TraceEvent::MsgDeliver {
                span: Some(query), ..
            } => match self.spans.get_mut(&query) {
                Some(span) => span.delivers += 1,
                None => self.orphan_tagged += 1,
            },
            TraceEvent::QueryServed {
                query, served_by, ..
            } => {
                if let Some(span) = self.spans.get_mut(&query) {
                    span.outcome = SpanOutcome::Served { at, served_by };
                }
            }
            TraceEvent::QueryFailed { query, .. } => {
                if let Some(span) = self.spans.get_mut(&query) {
                    span.outcome = SpanOutcome::Failed { at };
                }
            }
            _ => {}
        }
    }

    /// Returns the assembled spans, sorted by query id.
    pub fn finish(self) -> Vec<QuerySpan> {
        let mut spans: Vec<QuerySpan> = self.spans.into_values().collect();
        spans.sort_by_key(|s| s.query);
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp2p_metrics::MessageClass;

    fn feed(assembler: &mut SpanAssembler, events: &[(u64, TraceEvent)]) {
        for (ms, event) in events {
            assembler.record(SimTime::from_millis(*ms), event);
        }
    }

    fn issued(query: u64) -> TraceEvent {
        TraceEvent::QueryIssued {
            node: NodeId::new(1),
            query,
            item: ItemId::new(4),
            level: LevelTag::Strong,
        }
    }

    fn served(query: u64, by: ServedBy, issued_ms: u64) -> TraceEvent {
        TraceEvent::QueryServed {
            node: NodeId::new(1),
            query,
            level: LevelTag::Strong,
            served_by: by,
            issued: SimTime::from_millis(issued_ms),
        }
    }

    fn phase(query: u64, phase: SpanPhase, attempt: u8) -> TraceEvent {
        TraceEvent::QueryPhase {
            node: NodeId::new(1),
            query,
            item: ItemId::new(4),
            phase,
            attempt,
        }
    }

    #[test]
    fn local_hit_yields_a_single_local_segment() {
        let mut a = SpanAssembler::new();
        feed(
            &mut a,
            &[(100, issued(1)), (100, served(1, ServedBy::Cache, 100))],
        );
        let spans = a.finish();
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert!(span.phases.is_empty());
        assert_eq!(span.latency(), Some(SimDuration::ZERO));
        let path = span.critical_path();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].label, "local");
        assert_eq!(path[0].duration(), SimDuration::ZERO);
    }

    #[test]
    fn relay_poll_span_breaks_into_phase_segments() {
        let mut a = SpanAssembler::new();
        feed(
            &mut a,
            &[
                (1_000, issued(7)),
                (1_000, phase(7, SpanPhase::PollUnicast, 1)),
                (1_500, phase(7, SpanPhase::PollFlood, 2)),
                (
                    1_000,
                    TraceEvent::MsgSend {
                        node: NodeId::new(1),
                        class: MessageClass::Poll,
                        bytes: 48,
                        dest: Some(NodeId::new(2)),
                        span: Some(7),
                    },
                ),
                (
                    1_900,
                    TraceEvent::MsgDeliver {
                        node: NodeId::new(1),
                        origin: NodeId::new(2),
                        class: MessageClass::PollAckA,
                        hops: 2,
                        via_flood: false,
                        span: Some(7),
                    },
                ),
                (2_000, served(7, ServedBy::Relay, 1_000)),
            ],
        );
        let spans = a.finish();
        let span = &spans[0];
        assert_eq!(span.latency(), Some(SimDuration::from_millis(1_000)));
        assert_eq!(span.sends, 1);
        assert_eq!(span.delivers, 1);
        assert!(!span.phases.is_empty());

        let path = span.critical_path();
        assert_eq!(path.len(), 2, "{path:?}");
        assert_eq!(path[0].label, "poll_unicast");
        assert_eq!(path[0].duration(), SimDuration::from_millis(500));
        assert_eq!(path[1].label, "poll_flood");
        assert_eq!(path[1].duration(), SimDuration::from_millis(500));
        let total: u64 = path.iter().map(|s| s.duration().as_millis()).sum();
        assert_eq!(total, span.latency().unwrap().as_millis());
    }

    #[test]
    fn failed_and_open_spans_are_distinguished() {
        let mut a = SpanAssembler::new();
        feed(
            &mut a,
            &[
                (0, issued(1)),
                (0, phase(1, SpanPhase::PollFlood, 1)),
                (
                    5_000,
                    TraceEvent::QueryFailed {
                        node: NodeId::new(1),
                        query: 1,
                        level: LevelTag::Strong,
                    },
                ),
                (6_000, issued(2)),
            ],
        );
        let spans = a.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].outcome,
            SpanOutcome::Failed {
                at: SimTime::from_millis(5_000)
            }
        );
        assert_eq!(spans[0].latency(), None);
        assert_eq!(spans[1].outcome, SpanOutcome::Open);
        // A failed span still has a critical path ending at the failure.
        let path = spans[0].critical_path();
        assert_eq!(path.last().unwrap().end, SimTime::from_millis(5_000));
    }

    #[test]
    fn tagged_messages_without_an_issue_event_are_counted_as_orphans() {
        let mut a = SpanAssembler::new();
        feed(
            &mut a,
            &[(
                10,
                TraceEvent::MsgSend {
                    node: NodeId::new(0),
                    class: MessageClass::Poll,
                    bytes: 48,
                    dest: None,
                    span: Some(99),
                },
            )],
        );
        assert_eq!(a.orphan_tagged, 1);
        assert!(a.finish().is_empty());
    }
}
