//! The typed event vocabulary of the flight recorder.
//!
//! One [`TraceEvent`] is emitted per observable simulation step: MAC
//! transmissions and deliveries, routing-substrate drops, relay-peer
//! state-machine transitions (Fig. 5 of the paper), query lifecycle
//! milestones, and node churn. Events are plain `Copy` data so the
//! recording hot path never allocates.
//!
//! **The vocabulary is stated once.** Each label enum is one
//! `Variant = "label"` list, and the record kinds are one table (the
//! `records!` invocation below): one row per kind giving its `"ev"`
//! label and its fields in wire order as `name: Type = "key"`. [`TraceEvent`], [`EventKind`], the
//! encoder behind [`TraceEvent::write_json`] and the one decoder behind
//! [`crate::reader`], which reads a line back in the encoder's own
//! spelling and no other, are all generated from that table; how a field
//! of a given type is spelled is [`crate::codec`]'s business.

pub use mp2p_metrics::{LevelTag, RelayTransitionKind, ServedBy, SpanPhase};
use mp2p_metrics::{MessageClass, AGE_BUCKETS};
use mp2p_sim::{ItemId, NodeId, SimTime};

use crate::codec::{Scalar, Wire};
use crate::json::Cursor;

mp2p_metrics::label_enum! {
    /// The proximate cause the consistency observatory assigns to one stale
    /// serve: why did this cache answer with a superseded version?
    ///
    /// The variants are ordered by attribution priority — when several
    /// hazards touched the same copy, the blame tracker charges the first
    /// one listed here whose evidence post-dates the served version.
    pub enum BlameCause {
        /// At some update the holder was unreachable from the source
        /// (different connected component, or switched off/crashed).
        Partitioned = "partitioned",
        /// A frame carrying an invalidation/update/resync payload for this
        /// copy was lost on the channel (burst loss, MAC drop, no route).
        InvalidateLost = "invalidate_lost",
        /// The holder's volatile state was wiped by an injected crash; the
        /// re-populated copy lost its propagation provenance.
        CrashWipe = "crash_wipe",
        /// The holder's relay lease expired without source contact, so it
        /// was no longer on any update push path.
        LeaseOrphan = "lease_orphan",
        /// A newer version was transmitted but had not yet been applied at
        /// this holder when it answered (propagation in flight).
        RaceInFlight = "race_in_flight",
        /// No propagation of the newer version was ever transmitted — the
        /// running strategy simply does not push to this holder (e.g. the
        /// pull baseline between TTR polls).
        UpdateNeverSent = "update_never_sent",
    }
}

mp2p_metrics::label_enum! {
    /// What ultimately happened to one transmitted frame at one node: the
    /// terminal of a [`TraceEvent::FrameFate`] provenance record. Delivery
    /// and duplicate suppression are normal life-cycle ends; the drop
    /// variants carry the PR 2 fault cause so the causal explainer can name
    /// the exact hazard that killed an update on its way to a cache.
    pub enum FrameFateKind {
        /// The frame's application payload reached a protocol instance.
        Delivered = "delivered",
        /// A flood copy was suppressed as an already-seen duplicate.
        DupDrop = "dup",
        /// The link-loss channel dropped the frame (independent loss draw).
        ChannelDrop = "channel",
        /// The Gilbert–Elliott channel dropped the frame in its burst state.
        BurstDrop = "burst",
        /// The unicast next hop had moved out of range (MAC-level loss).
        MacDrop = "mac",
        /// The receiving node was switched off or crashed.
        DownDrop = "down",
        /// A forwarding node had no route for the in-flight frame.
        NoRouteDrop = "no_route",
        /// The frame exceeded the unicast hop budget.
        HopBudgetDrop = "hop_budget",
    }
}

impl FrameFateKind {
    /// True for every fate that lost the frame (everything except
    /// delivery and duplicate suppression, which are normal ends).
    pub fn is_loss(self) -> bool {
        !matches!(self, FrameFateKind::Delivered | FrameFateKind::DupDrop)
    }
}

/// Appends one field of a row; a field gated on an optional sibling
/// (`= "key" if sibling`) is written only when the sibling is.
macro_rules! put_field {
    ($out:ident, $value:ident, $key:literal) => {
        Wire::put($value, $key, $out)
    };
    ($out:ident, $value:ident, $key:literal, $gate:ident) => {
        if $gate.is_some() {
            Wire::put($value, $key, $out)
        }
    };
}

/// Reads one field of a row back where `put_field` wrote it, under the
/// literal `,"key":`; a gated field is looked for only when its sibling
/// was present, and is the type's default otherwise.
macro_rules! take_field {
    ($cur:ident, $key:literal) => {
        Wire::take_next($cur, concat!(",\"", $key, "\":"))?
    };
    ($cur:ident, $key:literal, $gate:ident) => {
        if $gate.is_some() {
            take_field!($cur, $key)
        } else {
            Default::default()
        }
    };
}

/// Generates the record vocabulary from its one table. A row is
///
/// ```text
/// /// rustdoc of the variant
/// Variant = "ev_label" {
///     /// rustdoc of the field
///     name: Type = "key",
///     gated: Type = "key" if optional_sibling,
/// }
/// ```
///
/// with the fields in wire order. Rows are in index order: a new kind is
/// appended, so the indices of older kinds stay stable.
///
/// Adding a record kind: append one row and raise `JOURNAL_SCHEMA`; the
/// reader speaks the current schema only, so a journal of the old one is
/// refused by its header rather than read under a vocabulary it never
/// had. Add a sample to `tests::samples()`; add its shape to
/// `tests/vocabulary.rs` and regenerate `tests/golden/vocabulary.jsonl`
/// (`UPDATE_GOLDEN=1`), which pins every shape's bytes in both
/// directions.
macro_rules! records {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent;

        $(
            $(#[$vmeta:meta])*
            $variant:ident = $label:literal {
                $(
                    $(#[$fmeta:meta])*
                    $field:ident: $ty:ty = $key:literal $(if $gate:ident)?,
                )+
            }
        )+
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $ty, )+
                },
            )+
        }

        mp2p_metrics::label_enum! {
            /// Discriminant of a [`TraceEvent`], for counting and table
            /// rendering; its label is the record's `"ev"` field.
            pub enum EventKind {
                $(
                    #[doc = concat!("See [`TraceEvent::", stringify!($variant), "`].")]
                    $variant = $label,
                )+
            }
        }

        impl EventKind {
            /// Reads the fields of a record of this kind as `encode`
            /// wrote them: each met next, under the literal `put_field`
            /// pushed, in wire order. Always inlined into `decode`, which
            /// owns the cursor: left out of line, as the inliner left it
            /// once `decode` had a second caller, it doubled in size and
            /// `journal-read-50` ran 4-5 % slower (2-core x86-64).
            #[inline(always)]
            fn decode_in_order(self, cur: &mut Cursor<'_>) -> Option<TraceEvent> {
                Some(match self {
                    $(
                        EventKind::$variant => {
                            $( let $field: $ty = take_field!(cur, $key $(, $gate)?); )+
                            TraceEvent::$variant { $($field),+ }
                        }
                    )+
                })
            }
        }

        impl TraceEvent {
            /// The kind discriminant of this event.
            pub fn kind(&self) -> EventKind {
                match self {
                    $( TraceEvent::$variant { .. } => EventKind::$variant, )+
                }
            }

            /// Appends this record's own fields, in wire order.
            fn encode(&self, out: &mut Vec<u8>) {
                match *self {
                    $(
                        TraceEvent::$variant { $($field),+ } => {
                            $( put_field!(out, $field, $key $(, $gate)?); )+
                        }
                    )+
                }
            }
        }
    };
}

records! {
    /// One structured flight-recorder event.
    ///
    /// Each variant carries the acting node plus the minimum context needed
    /// to reconstruct the run offline: message class and size for traffic
    /// accounting, hop counts for TTL auditing, the issue instant for
    /// latency accounting, and so on. Everything is `Copy`.
    pub enum TraceEvent;

    /// A MAC-level transmission (`dest: None` means a local broadcast).
    /// One event is emitted per hop, matching [`mp2p_metrics::TrafficStats`].
    MsgSend = "msg_send" {
        /// The transmitting node.
        node: NodeId = "node",
        /// What the frame carried.
        class: MessageClass = "class",
        /// Frame size on the air, in bytes.
        bytes: u32 = "bytes",
        /// MAC receiver for unicast, `None` for broadcast.
        dest: Option<NodeId> = "dest",
        /// The query span this frame serves (POLL/ACK/FETCH traffic),
        /// if any. Diagnostic metadata only: it rides outside the wire
        /// size and never influences protocol decisions.
        span: Option<u64> = "span",
    }
    /// An application message reached its destination protocol.
    MsgDeliver = "msg_deliver" {
        /// The receiving node.
        node: NodeId = "node",
        /// The node that created the message.
        origin: NodeId = "origin",
        /// What the message carried.
        class: MessageClass = "class",
        /// Hops travelled from origin to this node.
        hops: u8 = "hops",
        /// True if it arrived via a flood rather than routed unicast.
        via_flood: bool = "flood",
        /// The query span this message serves, if any (see
        /// [`TraceEvent::MsgSend::span`]).
        span: Option<u64> = "span",
    }
    /// A unicast transmission whose next hop had moved out of range.
    MacDrop = "mac_drop" {
        /// The transmitting node.
        node: NodeId = "node",
        /// The unreachable MAC receiver.
        next_hop: NodeId = "next_hop",
        /// What the lost frame carried.
        class: MessageClass = "class",
    }
    /// The network layer gave up on a message (no route after retries).
    Undeliverable = "undeliverable" {
        /// The sending node that got the message handed back.
        node: NodeId = "node",
        /// The unreachable destination.
        dest: NodeId = "dest",
        /// What the abandoned message carried.
        class: MessageClass = "class",
    }
    /// A flood frame was ignored as a duplicate.
    FloodDupDrop = "flood_dup_drop" {
        /// The node that ignored the frame.
        node: NodeId = "node",
        /// The flood's originator.
        origin: NodeId = "origin",
    }
    /// A flood frame arrived with an exhausted TTL and was not re-broadcast.
    FloodTtlExhausted = "flood_ttl_exhausted" {
        /// The node where propagation stopped.
        node: NodeId = "node",
        /// The flood's originator.
        origin: NodeId = "origin",
    }
    /// A route request was ignored as a duplicate.
    RreqDupDrop = "rreq_dup_drop" {
        /// The node that ignored the RREQ.
        node: NodeId = "node",
        /// The RREQ's originator.
        origin: NodeId = "origin",
    }
    /// A unicast frame exceeded the hop budget and was dropped.
    HopBudgetDrop = "hop_budget_drop" {
        /// The node that dropped the frame.
        node: NodeId = "node",
        /// The frame's originator.
        origin: NodeId = "origin",
        /// The frame's intended destination.
        dest: NodeId = "dest",
    }
    /// A forwarding node had no route for an in-flight unicast frame.
    NoRouteDrop = "no_route_drop" {
        /// The node that dropped the frame.
        node: NodeId = "node",
        /// The frame's originator.
        origin: NodeId = "origin",
        /// The frame's intended destination.
        dest: NodeId = "dest",
    }
    /// Route discovery started (attempt 1) or was retried (attempt > 1).
    DiscoveryStart = "discovery_start" {
        /// The node searching for a route.
        node: NodeId = "node",
        /// The destination being searched for.
        dest: NodeId = "dest",
        /// 1-based discovery attempt number.
        attempt: u8 = "attempt",
    }
    /// Route discovery exhausted its retries; buffered packets dropped.
    DiscoveryFailed = "discovery_failed" {
        /// The node that gave up.
        node: NodeId = "node",
        /// The destination that was never found.
        dest: NodeId = "dest",
        /// How many buffered packets were abandoned.
        dropped: u32 = "dropped",
    }
    /// A relay-peer state-machine transition (Fig. 5).
    RelayTransition = "relay_transition" {
        /// The transitioning peer.
        node: NodeId = "node",
        /// The item whose relay duty changed.
        item: ItemId = "item",
        /// What happened.
        kind: RelayTransitionKind = "kind",
    }
    /// A peer issued a query.
    QueryIssued = "query_issued" {
        /// The querying peer.
        node: NodeId = "node",
        /// The globally unique query number.
        query: u64 = "query",
        /// The item queried.
        item: ItemId = "item",
        /// The consistency level requested.
        level: LevelTag = "level",
    }
    /// A query was answered.
    QueryServed = "query_served" {
        /// The peer whose query completed.
        node: NodeId = "node",
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64 = "query",
        /// The consistency level it ran under.
        level: LevelTag = "level",
        /// Which copy answered it.
        served_by: ServedBy = "by",
        /// When the query was issued (lets a summary sink recompute the
        /// exact latency and warm-up filtering offline).
        issued: SimTime = "issued",
    }
    /// A query timed out unanswered.
    QueryFailed = "query_failed" {
        /// The peer whose query failed.
        node: NodeId = "node",
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64 = "query",
        /// The consistency level it ran under.
        level: LevelTag = "level",
    }
    /// A node switched on (rejoined the network).
    NodeUp = "node_up" {
        /// The node that came up.
        node: NodeId = "node",
    }
    /// A node switched off (left the network).
    NodeDown = "node_down" {
        /// The node that went down.
        node: NodeId = "node",
    }
    /// A source host updated its master copy.
    SourceUpdate = "source_update" {
        /// The source host.
        node: NodeId = "node",
        /// The updated item.
        item: ItemId = "item",
        /// The new master version.
        version: u64 = "version",
    }
    /// Fault injection crashed a node: its volatile state (cache store,
    /// relay/pending protocol state, routing tables) was wiped.
    NodeCrash = "node_crash" {
        /// The crashed node.
        node: NodeId = "node",
    }
    /// A crashed node cold-booted.
    NodeRecover = "node_recover" {
        /// The recovering node.
        node: NodeId = "node",
    }
    /// Fault injection started a bisection partition of the terrain.
    PartitionStart = "partition_start" {
        /// Cut orientation tag (0 = vertical, 1 = horizontal).
        axis: u8 = "axis",
    }
    /// A bisection partition healed.
    PartitionHeal = "partition_heal" {
        /// Cut orientation tag (0 = vertical, 1 = horizontal).
        axis: u8 = "axis",
    }
    /// Fault injection duplicated a transmitted frame.
    FrameDup = "frame_dup" {
        /// The transmitting node whose frame was duplicated.
        node: NodeId = "node",
        /// What the duplicated frame carried.
        class: MessageClass = "class",
    }
    /// The Gilbert–Elliott channel dropped an arriving frame while in
    /// its bad (burst) state.
    BurstDrop = "burst_drop" {
        /// The node whose reception was lost.
        node: NodeId = "node",
    }
    /// A relay's hold on an item expired without source contact; the
    /// peer demoted itself (graceful degradation, self-CANCEL).
    RelayLeaseExpired = "relay_lease_expired" {
        /// The demoting relay peer.
        node: NodeId = "node",
        /// The item whose relay duty lapsed.
        item: ItemId = "item",
    }
    /// A peer exhausted its routed retries and fell back to flooding
    /// the source directly (graceful degradation).
    FallbackFlood = "fallback_flood" {
        /// The degrading peer.
        node: NodeId = "node",
        /// The query being rescued.
        query: u64 = "query",
        /// The item being polled.
        item: ItemId = "item",
    }
    /// An open query entered a new causal phase (sent a poll, widened the
    /// ring, parked on a push report, …). Phase markers plus the
    /// span-tagged message events reconstruct each query's span tree.
    QueryPhase = "query_phase" {
        /// The querying peer.
        node: NodeId = "node",
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64 = "query",
        /// The item queried.
        item: ItemId = "item",
        /// Which phase was entered.
        phase: SpanPhase = "phase",
        /// 1-based attempt number within the phase (ring widenings,
        /// fetch retries); 0 where attempts are meaningless.
        attempt: u8 = "attempt",
    }
    /// One tick of the consistency observatory's divergence sampler: a
    /// global snapshot of how far the cached copies have drifted from
    /// their masters. Written only with the observatory on.
    ConsistencySample = "consistency" {
        /// Cached copies holding the current master version.
        fresh_copies: u32 = "fresh",
        /// Cached copies audited in total.
        total_copies: u32 = "copies",
        /// Items with at least one cached copy.
        items_replicated: u32 = "items",
        /// Largest replica count of any single item.
        max_replicas: u32 = "max_replicas",
        /// Connected components among switched-on nodes (1 = fully
        /// reachable; more = the terrain is partitioned).
        partitions: u32 = "partitions",
        /// Nodes currently holding at least one relay duty.
        relay_nodes: u32 = "relay_nodes",
        /// Histogram of stale-copy ages over
        /// [`mp2p_metrics::AGE_BUCKET_EDGES`] (last bucket = overflow).
        ages: [u32; AGE_BUCKETS] = "ages",
    }
    /// A measured query was answered with a superseded version, with the
    /// proximate cause the blame tracker attributed. Written only with
    /// the observatory on.
    StaleServe = "stale_serve" {
        /// The peer that got the stale answer.
        node: NodeId = "node",
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64 = "query",
        /// The stale item.
        item: ItemId = "item",
        /// Why the copy was stale.
        cause: BlameCause = "cause",
        /// How long the served version had been superseded, in ms.
        staleness_ms: u64 = "staleness_ms",
        /// Versions behind the master.
        lag: u64 = "lag",
        /// True if the staleness exceeded the run's Δ (the TTP), i.e.
        /// this serve violated Δ-consistency (Eq. 3.2.2).
        violation: bool = "violation",
    }
    /// A rejoining node flooded its version digest to its neighbors
    /// (recovery layer).
    ResyncStart = "resync_start" {
        /// The rejoining node.
        node: NodeId = "node",
        /// Digest entries advertised across all frames.
        items: u32 = "items",
    }
    /// A rejoining node finished processing one resync reply (recovery
    /// layer).
    ResyncDone = "resync_done" {
        /// The rejoining node.
        node: NodeId = "node",
        /// Stale copies dropped or queued for refresh by this reply.
        stale: u32 = "stale",
    }
    /// The recovery layer retransmitted an unacknowledged update.
    RecoveryRetransmit = "retransmit" {
        /// The retransmitting sender (source host).
        node: NodeId = "node",
        /// The relay peer being retried.
        dest: NodeId = "dest",
        /// The updated item.
        item: ItemId = "item",
        /// The frame's sequence number.
        seq: u64 = "seq",
        /// 1-based retransmission attempt.
        attempt: u8 = "attempt",
    }
    /// A delivery ACK settled a pending retransmission (recovery layer).
    RecoveryAck = "recovery_ack" {
        /// The sender whose retransmit entry was settled.
        node: NodeId = "node",
        /// The acknowledging relay peer.
        peer: NodeId = "peer",
        /// The acknowledged item.
        item: ItemId = "item",
        /// The acknowledged sequence number.
        seq: u64 = "seq",
    }
    /// An orphan-expiring relay handed its duty to an elected cached
    /// neighbor instead of self-CANCELing (recovery layer).
    RelayHandover = "relay_handover" {
        /// The expiring relay that gave up the duty.
        from: NodeId = "from",
        /// The elected neighbor that takes it over.
        to: NodeId = "to",
        /// The item whose relay duty moved.
        item: ItemId = "item",
    }
    /// A frame entered the network: its first transmission at the origin
    /// node. `(node, frame)` is the frame's deterministic identity (the
    /// per-node monotonic counter) for every later hop and fate record.
    /// This and the next three kinds are written only with provenance on.
    FrameBorn = "frame_born" {
        /// The originating node (also the frame-id namespace).
        node: NodeId = "node",
        /// The origin-local monotonic frame sequence number.
        frame: u64 = "frame",
        /// What the frame carries.
        class: MessageClass = "class",
        /// Final unicast destination; `None` for a flood.
        dest: Option<NodeId> = "dest",
        /// The item whose update/invalidation the frame propagates, if
        /// it is a propagation frame.
        item: Option<ItemId> = "item",
        /// The propagated master version (only with `item`).
        version: u64 = "version" if item,
    }
    /// A frame was re-transmitted by an intermediate node (flood
    /// re-broadcast or routed unicast forward).
    FrameHop = "frame_hop" {
        /// The forwarding node.
        node: NodeId = "node",
        /// The frame's originating node.
        origin: NodeId = "origin",
        /// The origin-local frame sequence number.
        frame: u64 = "frame",
        /// Hops travelled so far (this transmission included).
        hops: u8 = "hops",
    }
    /// A frame's life ended at one node: delivered, suppressed as a
    /// duplicate, or dropped with the injecting fault's cause.
    FrameFate = "frame_fate" {
        /// The node where the fate occurred.
        node: NodeId = "node",
        /// The frame's originating node.
        origin: NodeId = "origin",
        /// The origin-local frame sequence number.
        frame: u64 = "frame",
        /// What happened.
        fate: FrameFateKind = "fate",
    }
    /// A cached copy was installed or refreshed from a delivered
    /// message: the copy's lineage record, naming the carrying frame and
    /// its hop path.
    CopyLineage = "copy_lineage" {
        /// The node whose cache changed.
        node: NodeId = "node",
        /// The installed item.
        item: ItemId = "item",
        /// The installed version (the origin update sequence).
        version: u64 = "version",
        /// The carrying frame's originating node.
        origin: NodeId = "origin",
        /// The carrying frame's origin-local sequence number.
        frame: u64 = "frame",
        /// Hops the carrying frame travelled to arrive here.
        hops: u8 = "hops",
    }
}

impl TraceEvent {
    /// Serialises this event as one JSON object appended to `out` (no
    /// trailing newline). `at` is the simulated timestamp.
    ///
    /// # Example
    ///
    /// ```
    /// use mp2p_sim::{NodeId, SimTime};
    /// use mp2p_trace::TraceEvent;
    ///
    /// let mut line = Vec::new();
    /// TraceEvent::NodeDown { node: NodeId::new(3) }
    ///     .write_json(SimTime::from_millis(1_500), &mut line);
    /// assert_eq!(line, br#"{"t":1500,"ev":"node_down","node":3}"#);
    /// ```
    pub fn write_json(&self, at: SimTime, out: &mut Vec<u8>) {
        // Every record starts with two framing fields no row may reuse:
        // the timestamp in milliseconds and the kind's label. The opening
        // is one literal: pushed piecewise it costs 10 % per record.
        out.extend_from_slice(b"{\"t\":");
        at.write(out);
        self.kind().put("ev", out);
        self.encode(out);
        out.push(b'}');
    }
}

/// Inverse of [`TraceEvent::write_json`]: the record that starts `bytes`,
/// with the bytes after its closing brace. The record must be spelled
/// exactly as the writer spells it — the framing fields, each field of
/// the row under its literal key, in wire order, each value in its type's
/// written form — so encoding what this returns gives back the bytes it
/// took; any other spelling of the same record (reordered, repeated or
/// unknown keys, whitespace, an escape, `1.0`, `007`) is `None`. What
/// may follow the brace is the caller's to check.
pub(crate) fn decode(bytes: &[u8]) -> Option<(SimTime, TraceEvent, &[u8])> {
    let mut cur = Cursor { rest: bytes };
    cur.eat("{\"t\":")?;
    let at = SimTime::parse(&mut cur)?;
    let kind = EventKind::take_next(&mut cur, ",\"ev\":")?;
    let event = kind.decode_in_order(&mut cur)?;
    cur.eat("}")?;
    Some((at, event, cur.rest))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json;

    /// `event` stamped `at`, as the writer spells it.
    pub(crate) fn written(event: &TraceEvent, at: SimTime) -> String {
        let mut line = Vec::new();
        event.write_json(at, &mut line);
        String::from_utf8(line).expect("the writer writes ASCII")
    }

    /// One sample of every variant, exercising every serialisation arm.
    pub(crate) fn samples() -> Vec<TraceEvent> {
        let n = NodeId::new(1);
        let m = NodeId::new(2);
        let item = ItemId::new(3);
        vec![
            TraceEvent::MsgSend {
                node: n,
                class: MessageClass::Poll,
                bytes: 48,
                dest: Some(m),
                span: Some(7),
            },
            TraceEvent::MsgSend {
                node: n,
                class: MessageClass::Invalidation,
                bytes: 40,
                dest: None,
                span: None,
            },
            TraceEvent::MsgDeliver {
                node: m,
                origin: n,
                class: MessageClass::Update,
                hops: 3,
                via_flood: false,
                span: None,
            },
            TraceEvent::MsgDeliver {
                node: m,
                origin: n,
                class: MessageClass::PollAckB,
                hops: 2,
                via_flood: true,
                span: Some(7),
            },
            TraceEvent::MacDrop {
                node: n,
                next_hop: m,
                class: MessageClass::Apply,
            },
            TraceEvent::Undeliverable {
                node: n,
                dest: m,
                class: MessageClass::GetNew,
            },
            TraceEvent::FloodDupDrop { node: n, origin: m },
            TraceEvent::FloodTtlExhausted { node: n, origin: m },
            TraceEvent::RreqDupDrop { node: n, origin: m },
            TraceEvent::HopBudgetDrop {
                node: n,
                origin: m,
                dest: n,
            },
            TraceEvent::NoRouteDrop {
                node: n,
                origin: m,
                dest: n,
            },
            TraceEvent::DiscoveryStart {
                node: n,
                dest: m,
                attempt: 2,
            },
            TraceEvent::DiscoveryFailed {
                node: n,
                dest: m,
                dropped: 5,
            },
            TraceEvent::RelayTransition {
                node: n,
                item,
                kind: RelayTransitionKind::Promoted,
            },
            TraceEvent::QueryIssued {
                node: n,
                query: 7,
                item,
                level: LevelTag::Strong,
            },
            TraceEvent::QueryServed {
                node: n,
                query: 7,
                level: LevelTag::Strong,
                served_by: ServedBy::Relay,
                issued: SimTime::from_millis(120),
            },
            TraceEvent::QueryFailed {
                node: n,
                query: 8,
                level: LevelTag::Weak,
            },
            TraceEvent::NodeUp { node: n },
            TraceEvent::NodeDown { node: n },
            TraceEvent::SourceUpdate {
                node: n,
                item,
                version: 4,
            },
            TraceEvent::NodeCrash { node: n },
            TraceEvent::NodeRecover { node: n },
            TraceEvent::PartitionStart { axis: 0 },
            TraceEvent::PartitionHeal { axis: 0 },
            TraceEvent::FrameDup {
                node: n,
                class: MessageClass::Update,
            },
            TraceEvent::BurstDrop { node: m },
            TraceEvent::RelayLeaseExpired { node: n, item },
            TraceEvent::FallbackFlood {
                node: n,
                query: 9,
                item,
            },
            TraceEvent::QueryPhase {
                node: n,
                query: 7,
                item,
                phase: SpanPhase::PollFlood,
                attempt: 2,
            },
            TraceEvent::QueryPhase {
                node: n,
                query: 9,
                item,
                phase: SpanPhase::Grace,
                attempt: 0,
            },
            TraceEvent::ConsistencySample {
                fresh_copies: 12,
                total_copies: 20,
                items_replicated: 7,
                max_replicas: 5,
                partitions: 2,
                relay_nodes: 4,
                ages: [3, 2, 1, 1, 0, 1],
            },
            TraceEvent::StaleServe {
                node: n,
                query: 7,
                item,
                cause: BlameCause::InvalidateLost,
                staleness_ms: 1_500,
                lag: 2,
                violation: false,
            },
            TraceEvent::StaleServe {
                node: m,
                query: 11,
                item,
                cause: BlameCause::Partitioned,
                staleness_ms: 250_000,
                lag: 4,
                violation: true,
            },
            TraceEvent::ResyncStart { node: n, items: 6 },
            TraceEvent::ResyncDone { node: n, stale: 2 },
            TraceEvent::RecoveryRetransmit {
                node: n,
                dest: m,
                item,
                seq: 17,
                attempt: 1,
            },
            TraceEvent::RecoveryAck {
                node: n,
                peer: m,
                item,
                seq: 17,
            },
            TraceEvent::RelayHandover {
                from: n,
                to: m,
                item,
            },
            TraceEvent::FrameBorn {
                node: n,
                frame: 12,
                class: MessageClass::Update,
                dest: Some(m),
                item: Some(item),
                version: 4,
            },
            TraceEvent::FrameBorn {
                node: n,
                frame: 13,
                class: MessageClass::Invalidation,
                dest: None,
                item: None,
                version: 0,
            },
            TraceEvent::FrameHop {
                node: m,
                origin: n,
                frame: 12,
                hops: 2,
            },
            TraceEvent::FrameFate {
                node: m,
                origin: n,
                frame: 12,
                fate: FrameFateKind::Delivered,
            },
            TraceEvent::FrameFate {
                node: m,
                origin: n,
                frame: 13,
                fate: FrameFateKind::BurstDrop,
            },
            TraceEvent::CopyLineage {
                node: m,
                item,
                version: 4,
                origin: n,
                frame: 12,
                hops: 2,
            },
        ]
    }

    #[test]
    fn every_variant_serialises_to_valid_json() {
        for event in samples() {
            let line = written(&event, SimTime::from_millis(250));
            assert!(
                json::parse(&line).is_some(),
                "{:?} produced invalid JSON: {line}",
                event.kind()
            );
            assert!(
                line.contains(&format!("\"ev\":\"{}\"", event.kind().label())),
                "missing kind tag in {line}"
            );
        }
    }

    #[test]
    fn samples_cover_every_kind() {
        let mut kinds: Vec<_> = samples().iter().map(|e| e.kind()).collect();
        kinds.sort_by_key(|k| k.index());
        kinds.dedup();
        assert_eq!(kinds.len(), EventKind::ALL.len());
    }

    #[test]
    fn kind_labels_and_indices_are_unique() {
        let mut labels: Vec<_> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "the index is the discriminant");
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn no_record_repeats_a_key_or_reuses_a_framing_key() {
        for event in samples() {
            let line = written(&event, SimTime::ZERO);
            let Some(json::Value::Obj(pairs)) = json::parse(&line) else {
                panic!("not an object: {line}");
            };
            let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(keys[..2], ["t", "ev"], "{line}");
            for (i, key) in keys.iter().enumerate() {
                assert!(!keys[..i].contains(key), "{key} twice in {line}");
            }
        }
    }

    #[test]
    fn broadcast_dest_serialises_as_null() {
        let line = written(
            &TraceEvent::MsgSend {
                node: NodeId::new(0),
                class: MessageClass::Invalidation,
                bytes: 40,
                dest: None,
                span: None,
            },
            SimTime::ZERO,
        );
        assert!(line.contains("\"dest\":null"), "{line}");
        assert!(!line.contains("\"span\""), "untagged frames omit the span");
        assert!(json::parse(&line).is_some());
    }

    #[test]
    fn span_tag_serialises_only_when_present() {
        let line = written(
            &TraceEvent::MsgSend {
                node: NodeId::new(0),
                class: MessageClass::Poll,
                bytes: 40,
                dest: Some(NodeId::new(4)),
                span: Some(31),
            },
            SimTime::ZERO,
        );
        assert!(line.contains("\"span\":31"), "{line}");
        assert!(json::parse(&line).is_some());
    }

    /// `label` and `from_label` are generated from one list; this is the
    /// safety net under the generator. The journal hands `from_label`
    /// bytes, so the near misses are bytes too.
    macro_rules! assert_labels_invert {
        ($($ty:ident),+) => {$({
            let labels = $ty::ALL.map($ty::label);
            for (i, x) in $ty::ALL.into_iter().enumerate() {
                let label = x.label();
                assert_eq!($ty::from_label(label.as_bytes()), Some(x), "{label}");
                assert!(!labels[..i].contains(&label), "{label} listed twice");
                // Near misses: one byte short, the other case, a byte
                // past the label, and a last byte that is not ASCII.
                let flipped = if label.chars().any(char::is_lowercase) {
                    label.to_uppercase()
                } else {
                    label.to_lowercase()
                };
                let bytes = label.as_bytes();
                let past = [bytes, &[0xFF]].concat();
                let mut last = bytes.to_vec();
                *last.last_mut().unwrap() = 0x80;
                for miss in [&bytes[..bytes.len() - 1], flipped.as_bytes(), &past, &last] {
                    if !labels.iter().any(|label| label.as_bytes() == miss) {
                        assert_eq!($ty::from_label(miss), None, "{miss:?}");
                    }
                }
            }
            assert_eq!($ty::from_label(b""), None);
        })+};
    }

    #[test]
    fn every_label_inverts_and_near_misses_do_not() {
        assert_labels_invert!(
            EventKind,
            FrameFateKind,
            BlameCause,
            SpanPhase,
            LevelTag,
            ServedBy,
            RelayTransitionKind
        );
        for miss in ["frame_fat", "FRAME_FATE", "frame_fate "] {
            assert_eq!(EventKind::from_label(miss.as_bytes()), None, "{miss}");
        }
    }

    #[test]
    fn tag_indices_follow_all() {
        for (i, phase) in SpanPhase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        for (i, cause) in BlameCause::ALL.into_iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        for (i, fate) in FrameFateKind::ALL.into_iter().enumerate() {
            assert_eq!(fate.index(), i);
        }
    }
}
