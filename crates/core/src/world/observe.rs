//! Everything that watches a run without steering it: the flight
//! recorder, the stale-serve blame tracker, the wall-clock profiler and
//! frame provenance, behind one struct.
//!
//! Invariant owned here: **observation never feeds back**. [`Observers`]
//! owns every observation-only field of the world and nothing in the
//! engine reads one of them to make a decision — a hook takes what it
//! needs by reference and returns nothing the simulation acts on — so a
//! seeded run is bit-identical whatever is switched on (pinned by
//! `profiler_determinism.rs`, `consistency_observatory.rs` and
//! `provenance_engine.rs`). Each layer that is off costs one branch per
//! hook.
//!
//! The hooks are the places where a frame's story can change:
//!
//! * **[`Observers::tx`]** — gate 1, push-target selection: a message is
//!   [`offered`](Observers::offered) to the network, and every
//!   transmission it causes is a frame's birth or one more hop.
//! * **[`Observers::fate`]** — gate 2, relay acceptance: a receiver was
//!   down, the channel or a burst lost the frame, the MAC found no
//!   neighbour; the stack's own verdicts (duplicate, hop budget, no
//!   route) arrive through [`Observers::stack_fates`].
//! * **[`Observers::delivered`]** — gate 3, destination acceptance: the
//!   payload reaches a protocol handler, and a copy the handler installs
//!   gets its [`lineage`](Observers::lineage).
//! * **[`Observers::answered`]** — a query is served; a stale answer gets
//!   exactly one blame cause.
//! * **[`Observers::fault`]** — a fault obstructs copies (a crash wipes
//!   them, a lease expires, a source update some holders cannot hear, a
//!   message nobody could route) and stamps each with its cause.
//! * **[`Observers::sample`]** — the divergence sampler's tick.
//!
//! Everything else the journal carries (query life cycle, churn, relay
//! transitions, recovery decisions) is a plain [`Observers::record`].

use std::time::Instant;

use mp2p_metrics::{age_bucket, MessageClass, ServedQuery, VersionHistory, AGE_BUCKETS};
use mp2p_net::{Frame, NetEvent, NetMeta, NetPayload, NetStack};
use mp2p_sim::{ItemId, NodeId, Profiler, QueueStats, SimTime, TopologyStats};
use mp2p_trace::{BlameCause, FrameFateKind, NullSink, ServedBy, TraceEvent, TraceSink};

use super::config::WorldConfig;
use super::report::RunReport;
use super::{Event, NodeState, OpenQuery};
use crate::config::TTP;
use crate::msg::ProtoMsg;
use crate::observatory::{BlameTracker, ConsistencyReport};
use crate::protocol::{Protocol, QueryId};

/// One transmission as the accounts see it: built from the frame the
/// stack put on the air or — under oracle routing, which has no frames —
/// from the bare message.
pub(super) struct Tx<'a> {
    pub(super) class: MessageClass,
    pub(super) bytes: u32,
    span: Option<u64>,
    frame: Option<&'a Frame<ProtoMsg>>,
}

impl<'a> Tx<'a> {
    /// A frame leaving a network stack. Application payloads keep their
    /// message class and span tag; all routing control collapses into
    /// [`MessageClass::RouteControl`] and belongs to no query span.
    pub(super) fn frame(frame: &'a Frame<ProtoMsg>) -> Self {
        let (Frame::Flood { payload, .. } | Frame::Unicast { payload, .. }) = frame;
        let (class, span) = match payload {
            NetPayload::App(m) => (m.class(), m.span()),
            NetPayload::Control(_) => (MessageClass::RouteControl, None),
        };
        Tx {
            class,
            bytes: frame.size(),
            span,
            frame: Some(frame),
        }
    }

    /// One hop of an oracle-routed message.
    pub(super) fn message(msg: &ProtoMsg) -> Tx<'static> {
        Tx {
            class: msg.class(),
            bytes: msg.size_bytes(),
            span: msg.span(),
            frame: None,
        }
    }
}

/// The world's observers. See the module docs for the hooks.
pub(super) struct Observers {
    /// Flight recorder. [`NullSink`] by default, so the hot path stays
    /// allocation-free unless a run opts in.
    tracer: Box<dyn TraceSink>,
    /// `tracer.enabled()`, asked once at install: emission sites test this.
    tracing: bool,
    /// Stale-serve blame tracker (`None` unless the observatory is on).
    blame: Option<BlameTracker>,
    /// Wall-clock profiler (host-side; disabled by default).
    profiler: Profiler,
    /// Whether frame life cycles and copy lineage are journalled.
    provenance: bool,
    /// Divergence samples taken by the observatory ticker.
    samples_taken: u64,
    /// The carrying frame's `(origin, seq, hops)` while a just-delivered
    /// message is being handled; `None` outside delivery (timer handlers,
    /// loopback and oracle deliveries install copies without a frame).
    rx_frame: Option<(NodeId, u64, u8)>,
    /// Transmissions over the whole run, warm-up included; reported only
    /// through the perf section.
    frames_sent: u64,
    /// Scratch the stacks' diagnostic buffers are swapped against, so
    /// their capacity survives a drain.
    net_events: Vec<NetEvent>,
}

impl Observers {
    pub(super) fn new(cfg: &WorldConfig) -> Self {
        Observers {
            tracer: Box::new(NullSink),
            tracing: false,
            // One item per peer (each node owns exactly one).
            blame: cfg
                .observatory
                .enabled()
                .then(|| BlameTracker::new(cfg.n_peers, cfg.n_peers)),
            profiler: Profiler::disabled(),
            provenance: cfg.provenance.enabled(),
            samples_taken: 0,
            rx_frame: None,
            frames_sent: 0,
            net_events: Vec::new(),
        }
    }

    /// Installs the flight-recorder sink; returns whether it records.
    pub(super) fn set_tracer(&mut self, tracer: Box<dyn TraceSink>) -> bool {
        self.tracing = tracer.enabled();
        self.tracer = tracer;
        self.tracing
    }

    pub(super) fn blames(&self) -> bool {
        self.blame.is_some()
    }

    pub(super) fn enable_profiling(&mut self) {
        self.profiler = Profiler::enabled();
    }

    /// Marks the start of the measured run.
    pub(super) fn begin(&mut self) {
        self.profiler.begin();
    }

    /// Opens a profiler scope around one event; close it with
    /// [`Observers::stop`] under [`event_bucket`]'s label. Message
    /// dispatch is additionally attributed to `msg:*` buckets by
    /// [`Observers::delivered`], which therefore nest inside — not add
    /// to — the event buckets.
    #[inline]
    pub(super) fn start(&self) -> Option<Instant> {
        self.profiler.start()
    }

    #[inline]
    pub(super) fn stop(&mut self, bucket: &'static str, scope: Option<Instant>) {
        self.profiler.stop(bucket, scope);
    }

    /// Journals one record, if tracing is on.
    #[inline]
    pub(super) fn record(&mut self, now: SimTime, event: TraceEvent) {
        if self.tracing {
            self.tracer.record(now, &event);
        }
    }

    /// Gate 1, before any transmission: `msg` is handed to the network.
    /// The blame tracker remembers the highest version ever offered per
    /// item, so a stale serve with no specific obstruction splits into
    /// race-in-flight (propagation was sent but had not landed) versus
    /// update-never-sent.
    #[inline]
    pub(super) fn offered(&mut self, msg: &ProtoMsg) {
        if let Some(blame) = self.blame.as_mut() {
            if let Some((item, version)) = msg.propagates() {
                blame.note_propagated(item, version);
            }
        }
    }

    /// Gate 1: `node` transmits once, to `dest` or to whoever hears it.
    /// Journalled even before warm-up (the summary sink applies its own
    /// warm-up filter, so the two stay byte-identical); with provenance
    /// on, the origin's own transmission is the frame's birth and every
    /// later one a hop.
    #[inline]
    pub(super) fn tx(&mut self, now: SimTime, node: NodeId, dest: Option<NodeId>, tx: &Tx<'_>) {
        self.frames_sent += 1;
        if !self.tracing {
            return;
        }
        let class = tx.class;
        self.tracer.record(
            now,
            &TraceEvent::MsgSend {
                node,
                class,
                bytes: tx.bytes,
                dest,
                span: tx.span,
            },
        );
        let (true, Some(frame)) = (self.provenance, tx.frame) else {
            return;
        };
        let (origin, seq) = frame.provenance();
        let event = if frame.hops() == 0 {
            let (item, version) = frame
                .app_payload()
                .and_then(ProtoMsg::propagates)
                .map_or((None, 0), |(item, version)| (Some(item), version));
            let dest = match frame {
                Frame::Unicast { dest, .. } => Some(*dest),
                Frame::Flood { .. } => None,
            };
            TraceEvent::FrameBorn {
                node,
                frame: seq,
                class,
                dest,
                item,
                version,
            }
        } else {
            TraceEvent::FrameHop {
                node,
                origin,
                frame: seq,
                hops: frame.hops(),
            }
        };
        self.tracer.record(now, &event);
    }

    /// Gate 2: `frame`, transmitted by `from`, ended at `at` without
    /// being accepted. A frame the channel, a burst or the MAC lost
    /// deprives a copy of the propagation it carried: for a unicast the
    /// victim is the frame's final destination, for a flood the receiver
    /// that failed to hear it.
    #[inline]
    pub(super) fn fate(
        &mut self,
        now: SimTime,
        from: NodeId,
        at: NodeId,
        frame: &Frame<ProtoMsg>,
        fate: FrameFateKind,
    ) {
        if self.blame.is_none() && !self.tracing {
            return;
        }
        match fate {
            FrameFateKind::BurstDrop => self.record(now, TraceEvent::BurstDrop { node: at }),
            FrameFateKind::MacDrop => self.record(
                now,
                TraceEvent::MacDrop {
                    node: from,
                    next_hop: at,
                    class: Tx::frame(frame).class,
                },
            ),
            _ => {}
        }
        let lost = matches!(
            fate,
            FrameFateKind::ChannelDrop | FrameFateKind::BurstDrop | FrameFateKind::MacDrop
        );
        if let (true, Some(blame)) = (lost, self.blame.as_mut()) {
            if let Some((item, version)) = frame.app_payload().and_then(ProtoMsg::propagates) {
                let victim = match frame {
                    Frame::Unicast { dest, .. } => *dest,
                    Frame::Flood { .. } => at,
                };
                blame.stamp(BlameCause::InvalidateLost, victim, item, version);
            }
        }
        let (origin, seq) = frame.provenance();
        self.frame_fate(now, at, origin, seq, fate);
    }

    /// Gate 2, the stack's half: converts the diagnostics `stack` noted
    /// since the last drain into journal records. Its duplicate,
    /// hop-budget and no-route verdicts are frame deaths; with
    /// provenance on each also closes its frame's life cycle.
    #[inline]
    pub(super) fn stack_fates(
        &mut self,
        now: SimTime,
        node: NodeId,
        stack: &mut NetStack<ProtoMsg>,
    ) {
        if !self.tracing {
            return;
        }
        let mut events = std::mem::take(&mut self.net_events);
        stack.swap_events(&mut events);
        for ev in events.drain(..) {
            let (record, fate) = match ev {
                NetEvent::FloodDupDrop { origin, seq } => (
                    TraceEvent::FloodDupDrop { node, origin },
                    Some((origin, seq, FrameFateKind::DupDrop)),
                ),
                NetEvent::HopBudgetDrop { origin, seq, dest } => (
                    TraceEvent::HopBudgetDrop { node, origin, dest },
                    Some((origin, seq, FrameFateKind::HopBudgetDrop)),
                ),
                NetEvent::NoRouteDrop { origin, seq, dest } => (
                    TraceEvent::NoRouteDrop { node, origin, dest },
                    Some((origin, seq, FrameFateKind::NoRouteDrop)),
                ),
                NetEvent::FloodTtlExhausted { origin } => {
                    (TraceEvent::FloodTtlExhausted { node, origin }, None)
                }
                NetEvent::RreqDupDrop { origin } => {
                    (TraceEvent::RreqDupDrop { node, origin }, None)
                }
                NetEvent::DiscoveryStart { dest, attempt } => (
                    TraceEvent::DiscoveryStart {
                        node,
                        dest,
                        attempt,
                    },
                    None,
                ),
                NetEvent::DiscoveryFailed { dest, dropped } => (
                    TraceEvent::DiscoveryFailed {
                        node,
                        dest,
                        dropped,
                    },
                    None,
                ),
            };
            self.tracer.record(now, &record);
            if let Some((origin, seq, kind)) = fate {
                self.frame_fate(now, node, origin, seq, kind);
            }
        }
        self.net_events = events;
    }

    /// Journals one frame's terminal fate at `node` (provenance only).
    fn frame_fate(
        &mut self,
        now: SimTime,
        node: NodeId,
        origin: NodeId,
        seq: u64,
        fate: FrameFateKind,
    ) {
        if self.provenance {
            self.record(
                now,
                TraceEvent::FrameFate {
                    node,
                    origin,
                    frame: seq,
                    fate,
                },
            );
        }
    }

    /// Gate 3: `payload` is about to be handled at `node`. Exposes the
    /// carrying frame to [`Observers::lineage`] and opens the message's
    /// profiler scope; close it with [`Observers::handled`].
    #[inline]
    pub(super) fn delivered(
        &mut self,
        now: SimTime,
        node: NodeId,
        payload: &ProtoMsg,
        meta: &NetMeta,
    ) -> Option<Instant> {
        if let Some(seq) = meta.frame {
            self.frame_fate(now, node, meta.origin, seq, FrameFateKind::Delivered);
        }
        self.record(
            now,
            TraceEvent::MsgDeliver {
                node,
                origin: meta.origin,
                class: payload.class(),
                hops: meta.hops,
                via_flood: meta.via_flood,
                span: payload.span(),
            },
        );
        self.rx_frame = meta.frame.map(|seq| (meta.origin, seq, meta.hops));
        self.profiler.start()
    }

    /// The handler [`Observers::delivered`] announced has returned.
    #[inline]
    pub(super) fn handled(&mut self, class: MessageClass, scope: Option<Instant>) {
        self.rx_frame = None;
        self.profiler.stop(msg_bucket(class), scope);
    }

    /// The frame whose delivery is being handled right now. A handler's
    /// caller snapshots this before applying the handler's outputs:
    /// nested deliveries (loopback sends) reset it, but every output of
    /// one handler belongs to the delivery that ran it.
    #[inline]
    pub(super) fn carrier(&self) -> Option<(NodeId, u64, u8)> {
        self.rx_frame
    }

    /// Gate 3, after the handler: it installed `version` of `item`.
    /// Lineage exists only for copies that arrived on a frame.
    #[inline]
    pub(super) fn lineage(
        &mut self,
        now: SimTime,
        node: NodeId,
        item: ItemId,
        version: u64,
        carrier: Option<(NodeId, u64, u8)>,
    ) {
        if let (true, Some((origin, frame, hops))) = (self.provenance, carrier) {
            self.record(
                now,
                TraceEvent::CopyLineage {
                    node,
                    item,
                    version,
                    origin,
                    frame,
                    hops,
                },
            );
        }
    }

    /// `query` was answered at `node`. Journalled even before warm-up:
    /// the summary sink re-derives the measured set from `issued`, so
    /// the filters agree by construction. `audited` is what the report's
    /// audit just counted (`None` before warm-up); every stale serve in
    /// it — the exact set the audit counts — gets exactly one cause, so
    /// the per-cause counts sum to `stale_served`.
    pub(super) fn answered(
        &mut self,
        now: SimTime,
        node: NodeId,
        query: QueryId,
        open: &OpenQuery,
        served_by: ServedBy,
        audited: Option<ServedQuery>,
    ) {
        self.record(
            now,
            TraceEvent::QueryServed {
                node,
                query: query.0,
                level: open.level,
                served_by,
                issued: open.issued,
            },
        );
        let Some(served) = audited.filter(|s| s.served < s.master) else {
            return;
        };
        let Some(blame) = self.blame.as_mut() else {
            return;
        };
        let cause = blame.classify(open.node, open.item, served.served.get());
        // The Δ of Eq. 3.2.2 is TTP: a served value may be at most that
        // long behind the master before the serve counts as a violation.
        let violation = served.staleness > TTP;
        if violation {
            blame.note_violation();
        }
        self.record(
            now,
            TraceEvent::StaleServe {
                node: open.node,
                query: query.0,
                item: open.item,
                cause,
                staleness_ms: served.staleness.as_millis(),
                lag: served.master.get() - served.served.get(),
                violation,
            },
        );
    }

    /// A fault was applied: journals `record` and stamps every
    /// `(holder, item, master version)` copy it obstructs with `cause`.
    /// `obstructed` is consumed only when the observatory is on.
    pub(super) fn fault(
        &mut self,
        now: SimTime,
        record: TraceEvent,
        cause: BlameCause,
        obstructed: impl IntoIterator<Item = (NodeId, ItemId, u64)>,
    ) {
        if let Some(blame) = self.blame.as_mut() {
            for (node, item, version) in obstructed {
                blame.stamp(cause, node, item, version);
            }
        }
        self.record(now, record);
    }

    /// One tick of the divergence sampler: snapshot the global replica
    /// state into a `ConsistencySample` timeline record. Aggregation is
    /// order-independent, so the cache stores' hash-order iteration
    /// cannot perturb the result.
    pub(super) fn sample(
        &mut self,
        now: SimTime,
        nodes: &[NodeState],
        histories: &[VersionHistory],
        partitions: u32,
    ) {
        self.samples_taken += 1;
        let mut fresh: u32 = 0;
        let mut total: u32 = 0;
        let mut ages = [0u32; AGE_BUCKETS];
        let mut replicas = vec![0u32; nodes.len()];
        for node in nodes {
            for (item, entry) in node.cache.iter() {
                total += 1;
                replicas[item.index()] += 1;
                let hist = &histories[item.index()];
                if entry.version >= hist.current() {
                    fresh += 1;
                } else {
                    ages[age_bucket(hist.staleness(entry.version, now))] += 1;
                }
            }
        }
        let relay_nodes = nodes.iter().filter(|n| n.proto.relay_item_count() > 0);
        self.record(
            now,
            TraceEvent::ConsistencySample {
                fresh_copies: fresh,
                total_copies: total,
                items_replicated: replicas.iter().filter(|&&n| n > 0).count() as u32,
                max_replicas: replicas.iter().copied().max().unwrap_or(0),
                partitions,
                relay_nodes: relay_nodes.count() as u32,
                ages,
            },
        );
    }

    /// Ends observation: closes `report`'s perf and consistency sections
    /// (each stays `None` unless its layer was on) and hands back the
    /// sink, flushed.
    pub(super) fn finish(
        &mut self,
        cfg: &WorldConfig,
        queue: QueueStats,
        topology: TopologyStats,
        report: &mut RunReport,
    ) -> Box<dyn TraceSink> {
        let mut tracer = std::mem::replace(&mut self.tracer, Box::new(NullSink));
        self.tracing = false;
        tracer.flush();
        report.perf = self.profiler.finish(cfg.sim_time.as_millis()).map(|mut p| {
            p.queue = queue;
            p.topology = topology;
            p.frames_sent = self.frames_sent;
            p.journal_bytes = tracer.bytes_written();
            p
        });
        report.consistency = self.blame.as_ref().map(|blame| ConsistencyReport {
            blame: blame.counts(),
            delta_violations: blame.delta_violations(),
            samples: self.samples_taken,
        });
        tracer
    }
}

/// Profiler bucket label of one world event. Static strings from a
/// closed vocabulary, so [`mp2p_sim::PerfReport::to_json`] needs no escaping and
/// `PerfReport::events` can recognise the family by its `event:` prefix.
pub(super) fn event_bucket(event: &Event) -> &'static str {
    match event {
        Event::Query(_) => "event:query",
        Event::Update(_) => "event:update",
        Event::Switch(_) => "event:switch",
        Event::Write(_) => "event:write",
        Event::WriteRetry { .. } => "event:write_retry",
        Event::Rx { .. } | Event::RxAll { .. } => "event:rx",
        Event::NetTimer { .. } => "event:net_timer",
        Event::ProtoTimer { .. } => "event:proto_timer",
        Event::OracleDeliver { .. } => "event:oracle_deliver",
        Event::CoeffTick => "event:coeff_tick",
        Event::Sample => "event:sample",
        Event::ConsistencyTick => "event:consistency",
        Event::Fault(_) => "event:fault",
    }
}

/// Profiler bucket label of one delivered protocol message, by class.
fn msg_bucket(class: MessageClass) -> &'static str {
    match class {
        MessageClass::Invalidation => "msg:INVALIDATION",
        MessageClass::Update => "msg:UPDATE",
        MessageClass::Poll => "msg:POLL",
        MessageClass::PollAckA => "msg:POLL_ACK_A",
        MessageClass::PollAckB => "msg:POLL_ACK_B",
        MessageClass::Apply => "msg:APPLY",
        MessageClass::ApplyAck => "msg:APPLY_ACK",
        MessageClass::Cancel => "msg:CANCEL",
        MessageClass::GetNew => "msg:GET_NEW",
        MessageClass::SendNew => "msg:SEND_NEW",
        MessageClass::Fetch => "msg:FETCH",
        MessageClass::FetchReply => "msg:FETCH_REPLY",
        MessageClass::WriteRequest => "msg:WRITE_REQ",
        MessageClass::WriteAck => "msg:WRITE_ACK",
        MessageClass::RouteControl => "msg:ROUTE_CTRL",
        MessageClass::ResyncDigest => "msg:RESYNC_DIGEST",
        MessageClass::ResyncAck => "msg:RESYNC_ACK",
        MessageClass::DeliveryAck => "msg:DELIVERY_ACK",
        MessageClass::Handover => "msg:HANDOVER",
    }
}
