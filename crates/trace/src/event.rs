//! The typed event vocabulary of the flight recorder.
//!
//! One [`TraceEvent`] is emitted per observable simulation step: MAC
//! transmissions and deliveries, routing-substrate drops, relay-peer
//! state-machine transitions (Fig. 5 of the paper), query lifecycle
//! milestones, and node churn. Events are plain `Copy` data so the
//! recording hot path never allocates.

use mp2p_metrics::{MessageClass, AGE_BUCKETS};
use mp2p_sim::{ItemId, NodeId, SimTime};

use crate::json;

/// Who answered a query (the paper's three answer paths: the item's
/// source host, a relay peer holding a pushed copy, or the querying
/// peer's own cached copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Answered by the item's source host (master copy).
    Source,
    /// Answered by a relay peer on the item's relay table.
    Relay,
    /// Answered from the local cache without contacting anyone.
    Cache,
}

impl ServedBy {
    /// All answer paths, for iteration and per-path counters.
    pub const ALL: [ServedBy; 3] = [ServedBy::Source, ServedBy::Relay, ServedBy::Cache];

    /// Position of this path in [`ServedBy::ALL`] (stable array index).
    pub fn index(self) -> usize {
        match self {
            ServedBy::Source => 0,
            ServedBy::Relay => 1,
            ServedBy::Cache => 2,
        }
    }

    /// Short lowercase label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            ServedBy::Source => "source",
            ServedBy::Relay => "relay",
            ServedBy::Cache => "cache",
        }
    }

    /// Inverse of [`ServedBy::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<ServedBy> {
        match label {
            "source" => Some(ServedBy::Source),
            "relay" => Some(ServedBy::Relay),
            "cache" => Some(ServedBy::Cache),
            _ => None,
        }
    }
}

/// A relay-peer state-machine transition (Fig. 5): candidacy
/// application, promotion, demotion, and the GET_NEW/SEND_NEW resync
/// exchange a stale relay runs against the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelayTransitionKind {
    /// A candidate sent APPLY to the source host.
    ApplySent,
    /// The peer became a relay (APPLY_ACK received, or an UPDATE push
    /// implicitly confirmed candidacy).
    Promoted,
    /// The peer resigned relay duty (CANCEL sent or demotion swept).
    Demoted,
    /// A stale relay asked the source for missed content (GET_NEW).
    ResyncStarted,
    /// The relay's copy was refreshed (SEND_NEW or UPDATE arrived).
    ResyncCompleted,
}

impl RelayTransitionKind {
    /// All transition kinds, for iteration and journal parsing.
    pub const ALL: [RelayTransitionKind; 5] = [
        RelayTransitionKind::ApplySent,
        RelayTransitionKind::Promoted,
        RelayTransitionKind::Demoted,
        RelayTransitionKind::ResyncStarted,
        RelayTransitionKind::ResyncCompleted,
    ];

    /// Short snake_case label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            RelayTransitionKind::ApplySent => "apply_sent",
            RelayTransitionKind::Promoted => "promoted",
            RelayTransitionKind::Demoted => "demoted",
            RelayTransitionKind::ResyncStarted => "resync_started",
            RelayTransitionKind::ResyncCompleted => "resync_completed",
        }
    }

    /// Inverse of [`RelayTransitionKind::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<RelayTransitionKind> {
        match label {
            "apply_sent" => Some(RelayTransitionKind::ApplySent),
            "promoted" => Some(RelayTransitionKind::Promoted),
            "demoted" => Some(RelayTransitionKind::Demoted),
            "resync_started" => Some(RelayTransitionKind::ResyncStarted),
            "resync_completed" => Some(RelayTransitionKind::ResyncCompleted),
            _ => None,
        }
    }
}

/// The proximate cause the consistency observatory assigns to one stale
/// serve: why did this cache answer with a superseded version?
///
/// The variants are ordered by attribution priority — when several
/// hazards touched the same copy, the blame tracker charges the first
/// one listed here whose evidence post-dates the served version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlameCause {
    /// At some update the holder was unreachable from the source
    /// (different connected component, or switched off/crashed).
    Partitioned,
    /// A frame carrying an invalidation/update/resync payload for this
    /// copy was lost on the channel (burst loss, MAC drop, no route).
    InvalidateLost,
    /// The holder's volatile state was wiped by an injected crash; the
    /// re-populated copy lost its propagation provenance.
    CrashWipe,
    /// The holder's relay lease expired without source contact, so it
    /// was no longer on any update push path.
    LeaseOrphan,
    /// A newer version was transmitted but had not yet been applied at
    /// this holder when it answered (propagation in flight).
    RaceInFlight,
    /// No propagation of the newer version was ever transmitted — the
    /// running strategy simply does not push to this holder (e.g. the
    /// pull baseline between TTR polls).
    UpdateNeverSent,
}

impl BlameCause {
    /// All causes, in attribution-priority order.
    pub const ALL: [BlameCause; 6] = [
        BlameCause::Partitioned,
        BlameCause::InvalidateLost,
        BlameCause::CrashWipe,
        BlameCause::LeaseOrphan,
        BlameCause::RaceInFlight,
        BlameCause::UpdateNeverSent,
    ];

    /// Position of this cause in [`BlameCause::ALL`] (stable array index).
    pub fn index(self) -> usize {
        match self {
            BlameCause::Partitioned => 0,
            BlameCause::InvalidateLost => 1,
            BlameCause::CrashWipe => 2,
            BlameCause::LeaseOrphan => 3,
            BlameCause::RaceInFlight => 4,
            BlameCause::UpdateNeverSent => 5,
        }
    }

    /// Short snake_case label used in JSONL output and blame tables.
    pub fn label(self) -> &'static str {
        match self {
            BlameCause::Partitioned => "partitioned",
            BlameCause::InvalidateLost => "invalidate_lost",
            BlameCause::CrashWipe => "crash_wipe",
            BlameCause::LeaseOrphan => "lease_orphan",
            BlameCause::RaceInFlight => "race_in_flight",
            BlameCause::UpdateNeverSent => "update_never_sent",
        }
    }

    /// Inverse of [`BlameCause::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<BlameCause> {
        match label {
            "partitioned" => Some(BlameCause::Partitioned),
            "invalidate_lost" => Some(BlameCause::InvalidateLost),
            "crash_wipe" => Some(BlameCause::CrashWipe),
            "lease_orphan" => Some(BlameCause::LeaseOrphan),
            "race_in_flight" => Some(BlameCause::RaceInFlight),
            "update_never_sent" => Some(BlameCause::UpdateNeverSent),
            _ => None,
        }
    }
}

/// What ultimately happened to one transmitted frame at one node: the
/// terminal of a [`TraceEvent::FrameFate`] provenance record. Delivery
/// and duplicate suppression are normal life-cycle ends; the drop
/// variants carry the PR 2 fault cause so the causal explainer can name
/// the exact hazard that killed an update on its way to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameFateKind {
    /// The frame's application payload reached a protocol instance.
    Delivered,
    /// A flood copy was suppressed as an already-seen duplicate.
    DupDrop,
    /// The link-loss channel dropped the frame (independent loss draw).
    ChannelDrop,
    /// The Gilbert–Elliott channel dropped the frame in its burst state.
    BurstDrop,
    /// The unicast next hop had moved out of range (MAC-level loss).
    MacDrop,
    /// The receiving node was switched off or crashed.
    DownDrop,
    /// A forwarding node had no route for the in-flight frame.
    NoRouteDrop,
    /// The frame exceeded the unicast hop budget.
    HopBudgetDrop,
}

impl FrameFateKind {
    /// All fates, for iteration and per-fate counters.
    pub const ALL: [FrameFateKind; 8] = [
        FrameFateKind::Delivered,
        FrameFateKind::DupDrop,
        FrameFateKind::ChannelDrop,
        FrameFateKind::BurstDrop,
        FrameFateKind::MacDrop,
        FrameFateKind::DownDrop,
        FrameFateKind::NoRouteDrop,
        FrameFateKind::HopBudgetDrop,
    ];

    /// Position of this fate in [`FrameFateKind::ALL`] (stable index).
    pub fn index(self) -> usize {
        match self {
            FrameFateKind::Delivered => 0,
            FrameFateKind::DupDrop => 1,
            FrameFateKind::ChannelDrop => 2,
            FrameFateKind::BurstDrop => 3,
            FrameFateKind::MacDrop => 4,
            FrameFateKind::DownDrop => 5,
            FrameFateKind::NoRouteDrop => 6,
            FrameFateKind::HopBudgetDrop => 7,
        }
    }

    /// True for every fate that lost the frame (everything except
    /// delivery and duplicate suppression, which are normal ends).
    pub fn is_loss(self) -> bool {
        !matches!(self, FrameFateKind::Delivered | FrameFateKind::DupDrop)
    }

    /// Short snake_case label used in JSONL output and fate tables.
    pub fn label(self) -> &'static str {
        match self {
            FrameFateKind::Delivered => "delivered",
            FrameFateKind::DupDrop => "dup",
            FrameFateKind::ChannelDrop => "channel",
            FrameFateKind::BurstDrop => "burst",
            FrameFateKind::MacDrop => "mac",
            FrameFateKind::DownDrop => "down",
            FrameFateKind::NoRouteDrop => "no_route",
            FrameFateKind::HopBudgetDrop => "hop_budget",
        }
    }

    /// Inverse of [`FrameFateKind::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<FrameFateKind> {
        match label {
            "delivered" => Some(FrameFateKind::Delivered),
            "dup" => Some(FrameFateKind::DupDrop),
            "channel" => Some(FrameFateKind::ChannelDrop),
            "burst" => Some(FrameFateKind::BurstDrop),
            "mac" => Some(FrameFateKind::MacDrop),
            "down" => Some(FrameFateKind::DownDrop),
            "no_route" => Some(FrameFateKind::NoRouteDrop),
            "hop_budget" => Some(FrameFateKind::HopBudgetDrop),
            _ => None,
        }
    }
}

/// The consistency level a query was issued under (Section 4: weak,
/// delta, strong). Mirrors the core crate's `ConsistencyLevel` without
/// making the trace crate depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelTag {
    /// Weak consistency ("WC"): any cached copy is acceptable.
    Weak,
    /// Delta consistency ("DC"): staleness bounded by a lease.
    Delta,
    /// Strong consistency ("SC"): the answer must be validated.
    Strong,
}

impl LevelTag {
    /// All levels, for iteration and per-level counters.
    pub const ALL: [LevelTag; 3] = [LevelTag::Weak, LevelTag::Delta, LevelTag::Strong];

    /// Position of this level in [`LevelTag::ALL`] (stable array index).
    pub fn index(self) -> usize {
        match self {
            LevelTag::Weak => 0,
            LevelTag::Delta => 1,
            LevelTag::Strong => 2,
        }
    }

    /// The paper's two-letter label ("WC" / "DC" / "SC").
    pub fn label(self) -> &'static str {
        match self {
            LevelTag::Weak => "WC",
            LevelTag::Delta => "DC",
            LevelTag::Strong => "SC",
        }
    }

    /// Inverse of [`LevelTag::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<LevelTag> {
        match label {
            "WC" => Some(LevelTag::Weak),
            "DC" => Some(LevelTag::Delta),
            "SC" => Some(LevelTag::Strong),
            _ => None,
        }
    }
}

/// The causal phase a query entered while being resolved. Together with
/// [`TraceEvent::QueryIssued`] / [`TraceEvent::QueryServed`] these phase
/// markers reconstruct the span tree of each query: issue → (phases) →
/// answer, with per-phase sim-time durations.
///
/// A query with *no* phase events was a local hit: it was answered in the
/// same instant it was issued, from this node's own copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// A POLL was unicast to the last known relay peer (RPCC attempt 1).
    PollUnicast,
    /// A POLL went out as a TTL-scoped flood (expanding ring or baseline
    /// broadcast).
    PollFlood,
    /// A content FETCH was sent to the item's source host (cache miss or
    /// push-baseline refresh).
    Fetch,
    /// The push-baseline query parked, waiting for the next invalidation
    /// report.
    PushWait,
    /// Routed retries were exhausted; one max-TTL flood toward the source
    /// went out (hardened degradation path).
    FallbackFlood,
    /// All attempts exhausted; the query lingers for a late answer before
    /// failing.
    Grace,
}

impl SpanPhase {
    /// All phases, for iteration and per-phase breakdown tables.
    pub const ALL: [SpanPhase; 6] = [
        SpanPhase::PollUnicast,
        SpanPhase::PollFlood,
        SpanPhase::Fetch,
        SpanPhase::PushWait,
        SpanPhase::FallbackFlood,
        SpanPhase::Grace,
    ];

    /// Position of this phase in [`SpanPhase::ALL`] (stable array index).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("phase listed in ALL")
    }

    /// Short snake_case label used in JSONL output and tables.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::PollUnicast => "poll_unicast",
            SpanPhase::PollFlood => "poll_flood",
            SpanPhase::Fetch => "fetch",
            SpanPhase::PushWait => "push_wait",
            SpanPhase::FallbackFlood => "fallback_flood",
            SpanPhase::Grace => "grace",
        }
    }

    /// Inverse of [`SpanPhase::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<SpanPhase> {
        match label {
            "poll_unicast" => Some(SpanPhase::PollUnicast),
            "poll_flood" => Some(SpanPhase::PollFlood),
            "fetch" => Some(SpanPhase::Fetch),
            "push_wait" => Some(SpanPhase::PushWait),
            "fallback_flood" => Some(SpanPhase::FallbackFlood),
            "grace" => Some(SpanPhase::Grace),
            _ => None,
        }
    }
}

/// One structured flight-recorder event.
///
/// Each variant carries the acting node plus the minimum context needed
/// to reconstruct the run offline: message class and size for traffic
/// accounting, hop counts for TTL auditing, the issue instant for
/// latency accounting, and so on. Everything is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A MAC-level transmission (`dest: None` means a local broadcast).
    /// One event is emitted per hop, matching [`mp2p_metrics::TrafficStats`].
    MsgSend {
        /// The transmitting node.
        node: NodeId,
        /// What the frame carried.
        class: MessageClass,
        /// Frame size on the air, in bytes.
        bytes: u32,
        /// MAC receiver for unicast, `None` for broadcast.
        dest: Option<NodeId>,
        /// The query span this frame serves (POLL/ACK/FETCH traffic),
        /// if any. Diagnostic metadata only: it rides outside the wire
        /// size and never influences protocol decisions.
        span: Option<u64>,
    },
    /// An application message reached its destination protocol.
    MsgDeliver {
        /// The receiving node.
        node: NodeId,
        /// The node that created the message.
        origin: NodeId,
        /// What the message carried.
        class: MessageClass,
        /// Hops travelled from origin to this node.
        hops: u8,
        /// True if it arrived via a flood rather than routed unicast.
        via_flood: bool,
        /// The query span this message serves, if any (see
        /// [`TraceEvent::MsgSend::span`]).
        span: Option<u64>,
    },
    /// A unicast transmission whose next hop had moved out of range.
    MacDrop {
        /// The transmitting node.
        node: NodeId,
        /// The unreachable MAC receiver.
        next_hop: NodeId,
        /// What the lost frame carried.
        class: MessageClass,
    },
    /// The network layer gave up on a message (no route after retries).
    Undeliverable {
        /// The sending node that got the message handed back.
        node: NodeId,
        /// The unreachable destination.
        dest: NodeId,
        /// What the abandoned message carried.
        class: MessageClass,
    },
    /// A flood frame was ignored as a duplicate.
    FloodDupDrop {
        /// The node that ignored the frame.
        node: NodeId,
        /// The flood's originator.
        origin: NodeId,
    },
    /// A flood frame arrived with an exhausted TTL and was not re-broadcast.
    FloodTtlExhausted {
        /// The node where propagation stopped.
        node: NodeId,
        /// The flood's originator.
        origin: NodeId,
    },
    /// A route request was ignored as a duplicate.
    RreqDupDrop {
        /// The node that ignored the RREQ.
        node: NodeId,
        /// The RREQ's originator.
        origin: NodeId,
    },
    /// A unicast frame exceeded the hop budget and was dropped.
    HopBudgetDrop {
        /// The node that dropped the frame.
        node: NodeId,
        /// The frame's originator.
        origin: NodeId,
        /// The frame's intended destination.
        dest: NodeId,
    },
    /// A forwarding node had no route for an in-flight unicast frame.
    NoRouteDrop {
        /// The node that dropped the frame.
        node: NodeId,
        /// The frame's originator.
        origin: NodeId,
        /// The frame's intended destination.
        dest: NodeId,
    },
    /// Route discovery started (attempt 1) or was retried (attempt > 1).
    DiscoveryStart {
        /// The node searching for a route.
        node: NodeId,
        /// The destination being searched for.
        dest: NodeId,
        /// 1-based discovery attempt number.
        attempt: u8,
    },
    /// Route discovery exhausted its retries; buffered packets dropped.
    DiscoveryFailed {
        /// The node that gave up.
        node: NodeId,
        /// The destination that was never found.
        dest: NodeId,
        /// How many buffered packets were abandoned.
        dropped: u32,
    },
    /// A relay-peer state-machine transition (Fig. 5).
    RelayTransition {
        /// The transitioning peer.
        node: NodeId,
        /// The item whose relay duty changed.
        item: ItemId,
        /// What happened.
        kind: RelayTransitionKind,
    },
    /// A peer issued a query.
    QueryIssued {
        /// The querying peer.
        node: NodeId,
        /// The globally unique query number.
        query: u64,
        /// The item queried.
        item: ItemId,
        /// The consistency level requested.
        level: LevelTag,
    },
    /// An open query entered a new causal phase (sent a poll, widened the
    /// ring, parked on a push report, …). Phase markers plus the
    /// span-tagged message events reconstruct each query's span tree.
    QueryPhase {
        /// The querying peer.
        node: NodeId,
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64,
        /// The item queried.
        item: ItemId,
        /// Which phase was entered.
        phase: SpanPhase,
        /// 1-based attempt number within the phase (ring widenings,
        /// fetch retries); 0 where attempts are meaningless.
        attempt: u8,
    },
    /// A query was answered.
    QueryServed {
        /// The peer whose query completed.
        node: NodeId,
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64,
        /// The consistency level it ran under.
        level: LevelTag,
        /// Which copy answered it.
        served_by: ServedBy,
        /// When the query was issued (lets a summary sink recompute the
        /// exact latency and warm-up filtering offline).
        issued: SimTime,
    },
    /// A query timed out unanswered.
    QueryFailed {
        /// The peer whose query failed.
        node: NodeId,
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64,
        /// The consistency level it ran under.
        level: LevelTag,
    },
    /// A node switched on (rejoined the network).
    NodeUp {
        /// The node that came up.
        node: NodeId,
    },
    /// A node switched off (left the network).
    NodeDown {
        /// The node that went down.
        node: NodeId,
    },
    /// A source host updated its master copy.
    SourceUpdate {
        /// The source host.
        node: NodeId,
        /// The updated item.
        item: ItemId,
        /// The new master version.
        version: u64,
    },
    /// Fault injection crashed a node: its volatile state (cache store,
    /// relay/pending protocol state, routing tables) was wiped.
    NodeCrash {
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node cold-booted.
    NodeRecover {
        /// The recovering node.
        node: NodeId,
    },
    /// Fault injection started a bisection partition of the terrain.
    PartitionStart {
        /// Cut orientation tag (0 = vertical, 1 = horizontal).
        axis: u8,
    },
    /// A bisection partition healed.
    PartitionHeal {
        /// Cut orientation tag (0 = vertical, 1 = horizontal).
        axis: u8,
    },
    /// Fault injection duplicated a transmitted frame.
    FrameDup {
        /// The transmitting node whose frame was duplicated.
        node: NodeId,
        /// What the duplicated frame carried.
        class: MessageClass,
    },
    /// The Gilbert–Elliott channel dropped an arriving frame while in
    /// its bad (burst) state.
    BurstDrop {
        /// The node whose reception was lost.
        node: NodeId,
    },
    /// A relay's hold on an item expired without source contact; the
    /// peer demoted itself (graceful degradation, self-CANCEL).
    RelayLeaseExpired {
        /// The demoting relay peer.
        node: NodeId,
        /// The item whose relay duty lapsed.
        item: ItemId,
    },
    /// A peer exhausted its routed retries and fell back to flooding
    /// the source directly (graceful degradation).
    FallbackFlood {
        /// The degrading peer.
        node: NodeId,
        /// The query being rescued.
        query: u64,
        /// The item being polled.
        item: ItemId,
    },
    /// One tick of the consistency observatory's divergence sampler: a
    /// global snapshot of how far the cached copies have drifted from
    /// their masters. Journal schema ≥ 2 only.
    ConsistencySample {
        /// Cached copies holding the current master version.
        fresh_copies: u32,
        /// Cached copies audited in total.
        total_copies: u32,
        /// Items with at least one cached copy.
        items_replicated: u32,
        /// Largest replica count of any single item.
        max_replicas: u32,
        /// Connected components among switched-on nodes (1 = fully
        /// reachable; more = the terrain is partitioned).
        partitions: u32,
        /// Nodes currently holding at least one relay duty.
        relay_nodes: u32,
        /// Histogram of stale-copy ages over
        /// [`mp2p_metrics::AGE_BUCKET_EDGES`] (last bucket = overflow).
        ages: [u32; AGE_BUCKETS],
    },
    /// A measured query was answered with a superseded version, with the
    /// proximate cause the blame tracker attributed. Journal schema ≥ 2
    /// only.
    StaleServe {
        /// The peer that got the stale answer.
        node: NodeId,
        /// The query number from [`TraceEvent::QueryIssued`].
        query: u64,
        /// The stale item.
        item: ItemId,
        /// Why the copy was stale.
        cause: BlameCause,
        /// How long the served version had been superseded, in ms.
        staleness_ms: u64,
        /// Versions behind the master.
        lag: u64,
        /// True if the staleness exceeded the run's Δ (the TTP), i.e.
        /// this serve violated Δ-consistency (Eq. 3.2.2).
        violation: bool,
    },
    /// A rejoining node flooded its version digest to its neighbors
    /// (recovery layer). Journal schema ≥ 3 only.
    ResyncStart {
        /// The rejoining node.
        node: NodeId,
        /// Digest entries advertised across all frames.
        items: u32,
    },
    /// A rejoining node finished processing one resync reply. Journal
    /// schema ≥ 3 only.
    ResyncDone {
        /// The rejoining node.
        node: NodeId,
        /// Stale copies dropped or queued for refresh by this reply.
        stale: u32,
    },
    /// The recovery layer retransmitted an unacknowledged update.
    /// Journal schema ≥ 3 only.
    RecoveryRetransmit {
        /// The retransmitting sender (source host).
        node: NodeId,
        /// The relay peer being retried.
        dest: NodeId,
        /// The updated item.
        item: ItemId,
        /// The frame's sequence number.
        seq: u64,
        /// 1-based retransmission attempt.
        attempt: u8,
    },
    /// A delivery ACK settled a pending retransmission. Journal
    /// schema ≥ 3 only.
    RecoveryAck {
        /// The sender whose retransmit entry was settled.
        node: NodeId,
        /// The acknowledging relay peer.
        peer: NodeId,
        /// The acknowledged item.
        item: ItemId,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// An orphan-expiring relay handed its duty to an elected cached
    /// neighbor instead of self-CANCELing. Journal schema ≥ 3 only.
    RelayHandover {
        /// The expiring relay that gave up the duty.
        from: NodeId,
        /// The elected neighbor that takes it over.
        to: NodeId,
        /// The item whose relay duty moved.
        item: ItemId,
    },
    /// A frame entered the network: its first transmission at the origin
    /// node. `(node, frame)` is the frame's deterministic identity (the
    /// per-node monotonic counter) for every later hop and fate record.
    /// Journal schema ≥ 4 only.
    FrameBorn {
        /// The originating node (also the frame-id namespace).
        node: NodeId,
        /// The origin-local monotonic frame sequence number.
        frame: u64,
        /// What the frame carries.
        class: MessageClass,
        /// Final unicast destination; `None` for a flood.
        dest: Option<NodeId>,
        /// The item whose update/invalidation the frame propagates, if
        /// it is a propagation frame.
        item: Option<ItemId>,
        /// The propagated master version (only with `item`).
        version: u64,
    },
    /// A frame was re-transmitted by an intermediate node (flood
    /// re-broadcast or routed unicast forward). Journal schema ≥ 4 only.
    FrameHop {
        /// The forwarding node.
        node: NodeId,
        /// The frame's originating node.
        origin: NodeId,
        /// The origin-local frame sequence number.
        frame: u64,
        /// Hops travelled so far (this transmission included).
        hops: u8,
    },
    /// A frame's life ended at one node: delivered, suppressed as a
    /// duplicate, or dropped with the injecting fault's cause. Journal
    /// schema ≥ 4 only.
    FrameFate {
        /// The node where the fate occurred.
        node: NodeId,
        /// The frame's originating node.
        origin: NodeId,
        /// The origin-local frame sequence number.
        frame: u64,
        /// What happened.
        fate: FrameFateKind,
    },
    /// A cached copy was installed or refreshed from a delivered
    /// message: the copy's lineage record, naming the carrying frame and
    /// its hop path. Journal schema ≥ 4 only.
    CopyLineage {
        /// The node whose cache changed.
        node: NodeId,
        /// The installed item.
        item: ItemId,
        /// The installed version (the origin update sequence).
        version: u64,
        /// The carrying frame's originating node.
        origin: NodeId,
        /// The carrying frame's origin-local sequence number.
        frame: u64,
        /// Hops the carrying frame travelled to arrive here.
        hops: u8,
    },
}

/// Discriminant of a [`TraceEvent`], for counting and table rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// See [`TraceEvent::MsgSend`].
    MsgSend,
    /// See [`TraceEvent::MsgDeliver`].
    MsgDeliver,
    /// See [`TraceEvent::MacDrop`].
    MacDrop,
    /// See [`TraceEvent::Undeliverable`].
    Undeliverable,
    /// See [`TraceEvent::FloodDupDrop`].
    FloodDupDrop,
    /// See [`TraceEvent::FloodTtlExhausted`].
    FloodTtlExhausted,
    /// See [`TraceEvent::RreqDupDrop`].
    RreqDupDrop,
    /// See [`TraceEvent::HopBudgetDrop`].
    HopBudgetDrop,
    /// See [`TraceEvent::NoRouteDrop`].
    NoRouteDrop,
    /// See [`TraceEvent::DiscoveryStart`].
    DiscoveryStart,
    /// See [`TraceEvent::DiscoveryFailed`].
    DiscoveryFailed,
    /// See [`TraceEvent::RelayTransition`].
    RelayTransition,
    /// See [`TraceEvent::QueryIssued`].
    QueryIssued,
    /// See [`TraceEvent::QueryServed`].
    QueryServed,
    /// See [`TraceEvent::QueryFailed`].
    QueryFailed,
    /// See [`TraceEvent::NodeUp`].
    NodeUp,
    /// See [`TraceEvent::NodeDown`].
    NodeDown,
    /// See [`TraceEvent::SourceUpdate`].
    SourceUpdate,
    /// See [`TraceEvent::NodeCrash`].
    NodeCrash,
    /// See [`TraceEvent::NodeRecover`].
    NodeRecover,
    /// See [`TraceEvent::PartitionStart`].
    PartitionStart,
    /// See [`TraceEvent::PartitionHeal`].
    PartitionHeal,
    /// See [`TraceEvent::FrameDup`].
    FrameDup,
    /// See [`TraceEvent::BurstDrop`].
    BurstDrop,
    /// See [`TraceEvent::RelayLeaseExpired`].
    RelayLeaseExpired,
    /// See [`TraceEvent::FallbackFlood`].
    FallbackFlood,
    /// See [`TraceEvent::QueryPhase`].
    QueryPhase,
    /// See [`TraceEvent::ConsistencySample`].
    ConsistencySample,
    /// See [`TraceEvent::StaleServe`].
    StaleServe,
    /// See [`TraceEvent::ResyncStart`].
    ResyncStart,
    /// See [`TraceEvent::ResyncDone`].
    ResyncDone,
    /// See [`TraceEvent::RecoveryRetransmit`].
    RecoveryRetransmit,
    /// See [`TraceEvent::RecoveryAck`].
    RecoveryAck,
    /// See [`TraceEvent::RelayHandover`].
    RelayHandover,
    /// See [`TraceEvent::FrameBorn`].
    FrameBorn,
    /// See [`TraceEvent::FrameHop`].
    FrameHop,
    /// See [`TraceEvent::FrameFate`].
    FrameFate,
    /// See [`TraceEvent::CopyLineage`].
    CopyLineage,
}

impl EventKind {
    /// All kinds, for iteration and table rendering. Schema-2, schema-3
    /// and schema-4 kinds are appended at the end so older indices stay
    /// stable.
    pub const ALL: [EventKind; 38] = [
        EventKind::MsgSend,
        EventKind::MsgDeliver,
        EventKind::MacDrop,
        EventKind::Undeliverable,
        EventKind::FloodDupDrop,
        EventKind::FloodTtlExhausted,
        EventKind::RreqDupDrop,
        EventKind::HopBudgetDrop,
        EventKind::NoRouteDrop,
        EventKind::DiscoveryStart,
        EventKind::DiscoveryFailed,
        EventKind::RelayTransition,
        EventKind::QueryIssued,
        EventKind::QueryServed,
        EventKind::QueryFailed,
        EventKind::NodeUp,
        EventKind::NodeDown,
        EventKind::SourceUpdate,
        EventKind::NodeCrash,
        EventKind::NodeRecover,
        EventKind::PartitionStart,
        EventKind::PartitionHeal,
        EventKind::FrameDup,
        EventKind::BurstDrop,
        EventKind::RelayLeaseExpired,
        EventKind::FallbackFlood,
        EventKind::QueryPhase,
        EventKind::ConsistencySample,
        EventKind::StaleServe,
        EventKind::ResyncStart,
        EventKind::ResyncDone,
        EventKind::RecoveryRetransmit,
        EventKind::RecoveryAck,
        EventKind::RelayHandover,
        EventKind::FrameBorn,
        EventKind::FrameHop,
        EventKind::FrameFate,
        EventKind::CopyLineage,
    ];

    /// Position of this kind in [`EventKind::ALL`] (stable array index
    /// for per-kind counters).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind listed in ALL")
    }

    /// The snake_case label used both in JSONL `"ev"` fields and tables.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::MsgSend => "msg_send",
            EventKind::MsgDeliver => "msg_deliver",
            EventKind::MacDrop => "mac_drop",
            EventKind::Undeliverable => "undeliverable",
            EventKind::FloodDupDrop => "flood_dup_drop",
            EventKind::FloodTtlExhausted => "flood_ttl_exhausted",
            EventKind::RreqDupDrop => "rreq_dup_drop",
            EventKind::HopBudgetDrop => "hop_budget_drop",
            EventKind::NoRouteDrop => "no_route_drop",
            EventKind::DiscoveryStart => "discovery_start",
            EventKind::DiscoveryFailed => "discovery_failed",
            EventKind::RelayTransition => "relay_transition",
            EventKind::QueryIssued => "query_issued",
            EventKind::QueryServed => "query_served",
            EventKind::QueryFailed => "query_failed",
            EventKind::NodeUp => "node_up",
            EventKind::NodeDown => "node_down",
            EventKind::SourceUpdate => "source_update",
            EventKind::NodeCrash => "node_crash",
            EventKind::NodeRecover => "node_recover",
            EventKind::PartitionStart => "partition_start",
            EventKind::PartitionHeal => "partition_heal",
            EventKind::FrameDup => "frame_dup",
            EventKind::BurstDrop => "burst_drop",
            EventKind::RelayLeaseExpired => "relay_lease_expired",
            EventKind::FallbackFlood => "fallback_flood",
            EventKind::QueryPhase => "query_phase",
            EventKind::ConsistencySample => "consistency",
            EventKind::StaleServe => "stale_serve",
            EventKind::ResyncStart => "resync_start",
            EventKind::ResyncDone => "resync_done",
            EventKind::RecoveryRetransmit => "retransmit",
            EventKind::RecoveryAck => "recovery_ack",
            EventKind::RelayHandover => "relay_handover",
            EventKind::FrameBorn => "frame_born",
            EventKind::FrameHop => "frame_hop",
            EventKind::FrameFate => "frame_fate",
            EventKind::CopyLineage => "copy_lineage",
        }
    }

    /// Inverse of [`EventKind::label`] (journal parsing).
    pub fn from_label(label: &str) -> Option<EventKind> {
        match label {
            "msg_send" => Some(EventKind::MsgSend),
            "msg_deliver" => Some(EventKind::MsgDeliver),
            "mac_drop" => Some(EventKind::MacDrop),
            "undeliverable" => Some(EventKind::Undeliverable),
            "flood_dup_drop" => Some(EventKind::FloodDupDrop),
            "flood_ttl_exhausted" => Some(EventKind::FloodTtlExhausted),
            "rreq_dup_drop" => Some(EventKind::RreqDupDrop),
            "hop_budget_drop" => Some(EventKind::HopBudgetDrop),
            "no_route_drop" => Some(EventKind::NoRouteDrop),
            "discovery_start" => Some(EventKind::DiscoveryStart),
            "discovery_failed" => Some(EventKind::DiscoveryFailed),
            "relay_transition" => Some(EventKind::RelayTransition),
            "query_issued" => Some(EventKind::QueryIssued),
            "query_served" => Some(EventKind::QueryServed),
            "query_failed" => Some(EventKind::QueryFailed),
            "node_up" => Some(EventKind::NodeUp),
            "node_down" => Some(EventKind::NodeDown),
            "source_update" => Some(EventKind::SourceUpdate),
            "node_crash" => Some(EventKind::NodeCrash),
            "node_recover" => Some(EventKind::NodeRecover),
            "partition_start" => Some(EventKind::PartitionStart),
            "partition_heal" => Some(EventKind::PartitionHeal),
            "frame_dup" => Some(EventKind::FrameDup),
            "burst_drop" => Some(EventKind::BurstDrop),
            "relay_lease_expired" => Some(EventKind::RelayLeaseExpired),
            "fallback_flood" => Some(EventKind::FallbackFlood),
            "query_phase" => Some(EventKind::QueryPhase),
            "consistency" => Some(EventKind::ConsistencySample),
            "stale_serve" => Some(EventKind::StaleServe),
            "resync_start" => Some(EventKind::ResyncStart),
            "resync_done" => Some(EventKind::ResyncDone),
            "retransmit" => Some(EventKind::RecoveryRetransmit),
            "recovery_ack" => Some(EventKind::RecoveryAck),
            "relay_handover" => Some(EventKind::RelayHandover),
            "frame_born" => Some(EventKind::FrameBorn),
            "frame_hop" => Some(EventKind::FrameHop),
            "frame_fate" => Some(EventKind::FrameFate),
            "copy_lineage" => Some(EventKind::CopyLineage),
            _ => None,
        }
    }

    /// The lowest journal schema whose vocabulary includes this kind.
    /// A [`crate::JsonlSink`] writing an older schema skips the event;
    /// a [`crate::reader::JournalReader`] of an older journal rejects
    /// its line.
    pub fn min_schema(self) -> u64 {
        match self {
            EventKind::ConsistencySample | EventKind::StaleServe => 2,
            EventKind::ResyncStart
            | EventKind::ResyncDone
            | EventKind::RecoveryRetransmit
            | EventKind::RecoveryAck
            | EventKind::RelayHandover => 3,
            EventKind::FrameBorn
            | EventKind::FrameHop
            | EventKind::FrameFate
            | EventKind::CopyLineage => 4,
            _ => 1,
        }
    }
}

impl TraceEvent {
    /// The kind discriminant of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::MsgSend { .. } => EventKind::MsgSend,
            TraceEvent::MsgDeliver { .. } => EventKind::MsgDeliver,
            TraceEvent::MacDrop { .. } => EventKind::MacDrop,
            TraceEvent::Undeliverable { .. } => EventKind::Undeliverable,
            TraceEvent::FloodDupDrop { .. } => EventKind::FloodDupDrop,
            TraceEvent::FloodTtlExhausted { .. } => EventKind::FloodTtlExhausted,
            TraceEvent::RreqDupDrop { .. } => EventKind::RreqDupDrop,
            TraceEvent::HopBudgetDrop { .. } => EventKind::HopBudgetDrop,
            TraceEvent::NoRouteDrop { .. } => EventKind::NoRouteDrop,
            TraceEvent::DiscoveryStart { .. } => EventKind::DiscoveryStart,
            TraceEvent::DiscoveryFailed { .. } => EventKind::DiscoveryFailed,
            TraceEvent::RelayTransition { .. } => EventKind::RelayTransition,
            TraceEvent::QueryIssued { .. } => EventKind::QueryIssued,
            TraceEvent::QueryServed { .. } => EventKind::QueryServed,
            TraceEvent::QueryFailed { .. } => EventKind::QueryFailed,
            TraceEvent::NodeUp { .. } => EventKind::NodeUp,
            TraceEvent::NodeDown { .. } => EventKind::NodeDown,
            TraceEvent::SourceUpdate { .. } => EventKind::SourceUpdate,
            TraceEvent::NodeCrash { .. } => EventKind::NodeCrash,
            TraceEvent::NodeRecover { .. } => EventKind::NodeRecover,
            TraceEvent::PartitionStart { .. } => EventKind::PartitionStart,
            TraceEvent::PartitionHeal { .. } => EventKind::PartitionHeal,
            TraceEvent::FrameDup { .. } => EventKind::FrameDup,
            TraceEvent::BurstDrop { .. } => EventKind::BurstDrop,
            TraceEvent::RelayLeaseExpired { .. } => EventKind::RelayLeaseExpired,
            TraceEvent::FallbackFlood { .. } => EventKind::FallbackFlood,
            TraceEvent::QueryPhase { .. } => EventKind::QueryPhase,
            TraceEvent::ConsistencySample { .. } => EventKind::ConsistencySample,
            TraceEvent::StaleServe { .. } => EventKind::StaleServe,
            TraceEvent::ResyncStart { .. } => EventKind::ResyncStart,
            TraceEvent::ResyncDone { .. } => EventKind::ResyncDone,
            TraceEvent::RecoveryRetransmit { .. } => EventKind::RecoveryRetransmit,
            TraceEvent::RecoveryAck { .. } => EventKind::RecoveryAck,
            TraceEvent::RelayHandover { .. } => EventKind::RelayHandover,
            TraceEvent::FrameBorn { .. } => EventKind::FrameBorn,
            TraceEvent::FrameHop { .. } => EventKind::FrameHop,
            TraceEvent::FrameFate { .. } => EventKind::FrameFate,
            TraceEvent::CopyLineage { .. } => EventKind::CopyLineage,
        }
    }

    /// Serialises this event as one JSON object appended to `out` (no
    /// trailing newline). `at` is the simulated timestamp.
    ///
    /// # Example
    ///
    /// ```
    /// use mp2p_sim::{NodeId, SimTime};
    /// use mp2p_trace::TraceEvent;
    ///
    /// let mut line = String::new();
    /// TraceEvent::NodeDown { node: NodeId::new(3) }
    ///     .write_json(SimTime::from_millis(1_500), &mut line);
    /// assert_eq!(line, r#"{"t":1500,"ev":"node_down","node":3}"#);
    /// ```
    pub fn write_json(&self, at: SimTime, out: &mut String) {
        // No `core::fmt` on this path: it runs once per journal record.
        let field_key = |out: &mut String, key: &str| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
        };
        let field_str = |out: &mut String, key: &str, value: &str| {
            field_key(out, key);
            json::escape_into(out, value);
        };
        let field_num = |out: &mut String, key: &str, value: u64| {
            field_key(out, key);
            json::push_u64(out, value);
        };
        let field_bool = |out: &mut String, key: &str, value: bool| {
            field_key(out, key);
            out.push_str(if value { "true" } else { "false" });
        };

        out.push_str("{\"t\":");
        json::push_u64(out, at.as_millis());
        field_str(out, "ev", self.kind().label());
        match *self {
            TraceEvent::MsgSend {
                node,
                class,
                bytes,
                dest,
                span,
            } => {
                field_num(out, "node", node.index() as u64);
                field_str(out, "class", class.label());
                field_num(out, "bytes", u64::from(bytes));
                match dest {
                    Some(d) => field_num(out, "dest", d.index() as u64),
                    None => out.push_str(",\"dest\":null"),
                }
                if let Some(span) = span {
                    field_num(out, "span", span);
                }
            }
            TraceEvent::MsgDeliver {
                node,
                origin,
                class,
                hops,
                via_flood,
                span,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "origin", origin.index() as u64);
                field_str(out, "class", class.label());
                field_num(out, "hops", u64::from(hops));
                field_bool(out, "flood", via_flood);
                if let Some(span) = span {
                    field_num(out, "span", span);
                }
            }
            TraceEvent::MacDrop {
                node,
                next_hop,
                class,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "next_hop", next_hop.index() as u64);
                field_str(out, "class", class.label());
            }
            TraceEvent::Undeliverable { node, dest, class } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "dest", dest.index() as u64);
                field_str(out, "class", class.label());
            }
            TraceEvent::FloodDupDrop { node, origin }
            | TraceEvent::FloodTtlExhausted { node, origin }
            | TraceEvent::RreqDupDrop { node, origin } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "origin", origin.index() as u64);
            }
            TraceEvent::HopBudgetDrop { node, origin, dest }
            | TraceEvent::NoRouteDrop { node, origin, dest } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "origin", origin.index() as u64);
                field_num(out, "dest", dest.index() as u64);
            }
            TraceEvent::DiscoveryStart {
                node,
                dest,
                attempt,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "dest", dest.index() as u64);
                field_num(out, "attempt", u64::from(attempt));
            }
            TraceEvent::DiscoveryFailed {
                node,
                dest,
                dropped,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "dest", dest.index() as u64);
                field_num(out, "dropped", u64::from(dropped));
            }
            TraceEvent::RelayTransition { node, item, kind } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "item", item.index() as u64);
                field_str(out, "kind", kind.label());
            }
            TraceEvent::QueryIssued {
                node,
                query,
                item,
                level,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "query", query);
                field_num(out, "item", item.index() as u64);
                field_str(out, "level", level.label());
            }
            TraceEvent::QueryServed {
                node,
                query,
                level,
                served_by,
                issued,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "query", query);
                field_str(out, "level", level.label());
                field_str(out, "by", served_by.label());
                field_num(out, "issued", issued.as_millis());
            }
            TraceEvent::QueryFailed { node, query, level } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "query", query);
                field_str(out, "level", level.label());
            }
            TraceEvent::NodeUp { node } | TraceEvent::NodeDown { node } => {
                field_num(out, "node", node.index() as u64);
            }
            TraceEvent::SourceUpdate {
                node,
                item,
                version,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "item", item.index() as u64);
                field_num(out, "version", version);
            }
            TraceEvent::NodeCrash { node }
            | TraceEvent::NodeRecover { node }
            | TraceEvent::BurstDrop { node } => {
                field_num(out, "node", node.index() as u64);
            }
            TraceEvent::PartitionStart { axis } | TraceEvent::PartitionHeal { axis } => {
                field_num(out, "axis", u64::from(axis));
            }
            TraceEvent::FrameDup { node, class } => {
                field_num(out, "node", node.index() as u64);
                field_str(out, "class", class.label());
            }
            TraceEvent::RelayLeaseExpired { node, item } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "item", item.index() as u64);
            }
            TraceEvent::FallbackFlood { node, query, item } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "query", query);
                field_num(out, "item", item.index() as u64);
            }
            TraceEvent::QueryPhase {
                node,
                query,
                item,
                phase,
                attempt,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "query", query);
                field_num(out, "item", item.index() as u64);
                field_str(out, "phase", phase.label());
                field_num(out, "attempt", u64::from(attempt));
            }
            TraceEvent::ConsistencySample {
                fresh_copies,
                total_copies,
                items_replicated,
                max_replicas,
                partitions,
                relay_nodes,
                ages,
            } => {
                field_num(out, "fresh", u64::from(fresh_copies));
                field_num(out, "copies", u64::from(total_copies));
                field_num(out, "items", u64::from(items_replicated));
                field_num(out, "max_replicas", u64::from(max_replicas));
                field_num(out, "partitions", u64::from(partitions));
                field_num(out, "relay_nodes", u64::from(relay_nodes));
                out.push_str(",\"ages\":[");
                for (i, count) in ages.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::push_u64(out, u64::from(*count));
                }
                out.push(']');
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
                field_num(out, "node", node.index() as u64);
                field_num(out, "query", query);
                field_num(out, "item", item.index() as u64);
                field_str(out, "cause", cause.label());
                field_num(out, "staleness_ms", staleness_ms);
                field_num(out, "lag", lag);
                field_bool(out, "violation", violation);
            }
            TraceEvent::ResyncStart { node, items } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "items", u64::from(items));
            }
            TraceEvent::ResyncDone { node, stale } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "stale", u64::from(stale));
            }
            TraceEvent::RecoveryRetransmit {
                node,
                dest,
                item,
                seq,
                attempt,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "dest", dest.index() as u64);
                field_num(out, "item", item.index() as u64);
                field_num(out, "seq", seq);
                field_num(out, "attempt", u64::from(attempt));
            }
            TraceEvent::RecoveryAck {
                node,
                peer,
                item,
                seq,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "peer", peer.index() as u64);
                field_num(out, "item", item.index() as u64);
                field_num(out, "seq", seq);
            }
            TraceEvent::RelayHandover { from, to, item } => {
                field_num(out, "from", from.index() as u64);
                field_num(out, "to", to.index() as u64);
                field_num(out, "item", item.index() as u64);
            }
            TraceEvent::FrameBorn {
                node,
                frame,
                class,
                dest,
                item,
                version,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "frame", frame);
                field_str(out, "class", class.label());
                match dest {
                    Some(d) => field_num(out, "dest", d.index() as u64),
                    None => out.push_str(",\"dest\":null"),
                }
                if let Some(item) = item {
                    field_num(out, "item", item.index() as u64);
                    field_num(out, "version", version);
                }
            }
            TraceEvent::FrameHop {
                node,
                origin,
                frame,
                hops,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "origin", origin.index() as u64);
                field_num(out, "frame", frame);
                field_num(out, "hops", u64::from(hops));
            }
            TraceEvent::FrameFate {
                node,
                origin,
                frame,
                fate,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "origin", origin.index() as u64);
                field_num(out, "frame", frame);
                field_str(out, "fate", fate.label());
            }
            TraceEvent::CopyLineage {
                node,
                item,
                version,
                origin,
                frame,
                hops,
            } => {
                field_num(out, "node", node.index() as u64);
                field_num(out, "item", item.index() as u64);
                field_num(out, "version", version);
                field_num(out, "origin", origin.index() as u64);
                field_num(out, "frame", frame);
                field_num(out, "hops", u64::from(hops));
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
            let mut line = String::new();
            event.write_json(SimTime::from_millis(250), &mut line);
            assert!(
                json::is_valid(&line),
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
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn broadcast_dest_serialises_as_null() {
        let mut line = String::new();
        TraceEvent::MsgSend {
            node: NodeId::new(0),
            class: MessageClass::Invalidation,
            bytes: 40,
            dest: None,
            span: None,
        }
        .write_json(SimTime::ZERO, &mut line);
        assert!(line.contains("\"dest\":null"), "{line}");
        assert!(!line.contains("\"span\""), "untagged frames omit the span");
        assert!(json::is_valid(&line));
    }

    #[test]
    fn span_tag_serialises_only_when_present() {
        let mut line = String::new();
        TraceEvent::MsgSend {
            node: NodeId::new(0),
            class: MessageClass::Poll,
            bytes: 40,
            dest: Some(NodeId::new(4)),
            span: Some(31),
        }
        .write_json(SimTime::ZERO, &mut line);
        assert!(line.contains("\"span\":31"), "{line}");
        assert!(json::is_valid(&line));
    }

    /// `from_label` is a hand-written `match` that repeats every string
    /// of `label`: this is what keeps the two tables one vocabulary.
    macro_rules! assert_labels_invert {
        ($($ty:ident),+) => {$({
            let labels = $ty::ALL.map($ty::label);
            for (i, x) in $ty::ALL.into_iter().enumerate() {
                let label = x.label();
                assert_eq!($ty::from_label(label), Some(x), "{label}");
                assert!(!labels[..i].contains(&label), "{label} listed twice");
                // Near misses: one character short, the other case.
                let flipped = if label.chars().any(char::is_lowercase) {
                    label.to_uppercase()
                } else {
                    label.to_lowercase()
                };
                for miss in [&label[..label.len() - 1], flipped.as_str()] {
                    if !labels.contains(&miss) {
                        assert_eq!($ty::from_label(miss), None, "{miss}");
                    }
                }
            }
            assert_eq!($ty::from_label(""), None);
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
            assert_eq!(EventKind::from_label(miss), None, "{miss}");
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

    #[test]
    fn schema_tiers_match_the_kind_vocabulary() {
        for kind in EventKind::ALL {
            let expected = match kind {
                EventKind::ConsistencySample | EventKind::StaleServe => 2,
                EventKind::ResyncStart
                | EventKind::ResyncDone
                | EventKind::RecoveryRetransmit
                | EventKind::RecoveryAck
                | EventKind::RelayHandover => 3,
                EventKind::FrameBorn
                | EventKind::FrameHop
                | EventKind::FrameFate
                | EventKind::CopyLineage => 4,
                _ => 1,
            };
            assert_eq!(kind.min_schema(), expected, "{kind:?}");
        }
    }
}
