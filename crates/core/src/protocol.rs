//! The consistency-protocol interface and its driver-side context.

use mp2p_cache::{CacheStore, DataItem, Version};
use mp2p_metrics::{RelayTransitionKind, ServedBy, SpanPhase};
use mp2p_sim::{ItemId, NodeId, SimDuration, SimRng, SimTime};

use crate::config::{ProtocolConfig, BROADCAST_TTL, TTN};
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::recovery::RecoveryAction;

/// Identifier of one query request (globally unique within a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A protocol-level timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// RPCC source / push baseline: the next invalidation period (`TTN`).
    Ttn,
    /// A pending POLL (RPCC or pull baseline) timed out; retry or fail.
    PollRetry {
        /// The waiting query.
        query: QueryId,
        /// 1-based attempt that just timed out.
        attempt: u8,
    },
    /// A push-baseline query waited too long for an invalidation report.
    PushWait {
        /// The waiting query.
        query: QueryId,
    },
    /// All POLL attempts are exhausted; the query lingers this long for a
    /// late answer (a relay draining its held polls at the next
    /// INVALIDATION, Fig. 6(c) line 16) before failing.
    PollGrace {
        /// The lingering query.
        query: QueryId,
    },
    /// Periodic cleanup of held POLLs at a relay peer.
    RelayHoldSweep,
    /// Periodic sweep of the recovery layer's retransmit queue (only
    /// armed when acked delivery is on).
    RetxSweep,
}

/// A graceful-degradation decision a hardened protocol took instead of
/// failing outright (surfaced as a typed trace event and counted in the
/// run report's fault statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationKind {
    /// A relay's hold on an item outlived TTR plus the configured orphan
    /// grace without any source contact; the peer demoted itself with a
    /// best-effort CANCEL rather than serve unverifiable data.
    RelayLeaseExpired,
    /// Routed POLL retries were exhausted; the peer fell back to one
    /// max-TTL flood aimed at the source before giving up.
    FallbackFlood,
}

/// One output of a protocol handler, applied by the simulation driver.
#[derive(Debug, Clone, PartialEq)]
pub enum CtxOut {
    /// Route `msg` to `to` (unicast via the network stack).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: ProtoMsg,
    },
    /// Flood `msg` with the given TTL.
    Flood {
        /// Flood scope in hops.
        ttl: u8,
        /// The message.
        msg: ProtoMsg,
    },
    /// Fire [`crate::Protocol::on_timer`] after `after`.
    SetTimer {
        /// Delay until the timer fires.
        after: SimDuration,
        /// Timer payload.
        timer: Timer,
    },
    /// Answer an open query with the given served version.
    Answer {
        /// The query being answered.
        query: QueryId,
        /// The version served to the client.
        version: Version,
        /// Which copy produced the answer (flight-recorder metadata).
        served_by: ServedBy,
    },
    /// Give up on an open query (counted as failed, not as latency).
    Fail {
        /// The abandoned query.
        query: QueryId,
    },
    /// Report a relay state-machine transition (Fig. 5) to the flight
    /// recorder. Carries no simulation effect.
    Transition {
        /// The item whose relay duty changed on this node.
        item: ItemId,
        /// What happened.
        kind: RelayTransitionKind,
    },
    /// Report a graceful-degradation decision (hardening extensions) to
    /// the flight recorder and fault counters. Carries no simulation
    /// effect beyond bookkeeping.
    Degraded {
        /// The item the decision concerned.
        item: ItemId,
        /// The query being rescued, if the decision was query-scoped.
        query: Option<QueryId>,
        /// Which degradation path was taken.
        kind: DegradationKind,
    },
    /// Report a recovery-layer decision (resync, retransmit, ack,
    /// handover) to the driver: fault counters, trace events, and — for
    /// handover requests — the neighbor election only the driver's
    /// shared topology view can run.
    Recovery {
        /// What the recovery layer did or requests.
        action: RecoveryAction,
    },
    /// Report that a cached copy of `item` was installed or refreshed to
    /// `version` from a just-delivered message. The driver pairs it with
    /// the carrying frame's identity to journal a provenance
    /// `copy_lineage` record. Carries no simulation effect.
    CopyInstalled {
        /// The item whose cached copy changed.
        item: ItemId,
        /// The installed version.
        version: Version,
    },
    /// Report that an open query entered a new causal phase (span
    /// tracing). Carries no simulation effect.
    QueryPhase {
        /// The query whose span advanced.
        query: QueryId,
        /// The item being queried.
        item: ItemId,
        /// Which phase was entered.
        phase: SpanPhase,
        /// 1-based attempt number within the phase (0 where attempts are
        /// meaningless).
        attempt: u8,
    },
}

/// The per-call context a protocol handler runs against: direct access to
/// this node's cache and master copy, buffered network/timer/query
/// outputs.
///
/// Handlers mutate local state eagerly (cache, RNG) and *request* global
/// effects (sends, floods, timers, answers) through [`CtxOut`]s that the
/// driver applies after the handler returns — keeping every protocol a
/// deterministic, synchronously-testable state machine.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node this handler runs on.
    pub me: NodeId,
    /// This node's cache store.
    pub cache: &'a mut CacheStore,
    /// The master copy of this node's own item.
    pub own_item: &'a mut DataItem,
    /// This node's random stream.
    pub rng: &'a mut SimRng,
    /// Protocol parameters.
    pub cfg: &'a ProtocolConfig,
    /// Battery fraction remaining (`CE` input).
    pub energy_fraction: f64,
    /// True if this node is currently connected (switched on).
    pub connected: bool,
    /// The recovery layer's dedicated random stream (backoff jitter for
    /// retransmissions). Kept separate from [`Ctx::rng`] so switching
    /// recovery on never reorders the draws of existing machinery; the
    /// driver attaches it after construction, unit fixtures may leave
    /// it `None` (see [`Ctx::recovery_delay`]).
    pub recovery_rng: Option<&'a mut SimRng>,
    /// Buffered outputs, drained by the driver.
    out: Vec<CtxOut>,
}

impl<'a> Ctx<'a> {
    /// Builds a context (driver-side).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: SimTime,
        me: NodeId,
        cache: &'a mut CacheStore,
        own_item: &'a mut DataItem,
        rng: &'a mut SimRng,
        cfg: &'a ProtocolConfig,
        energy_fraction: f64,
        connected: bool,
    ) -> Self {
        Ctx {
            now,
            me,
            cache,
            own_item,
            rng,
            cfg,
            energy_fraction,
            connected,
            recovery_rng: None,
            out: Vec::new(),
        }
    }

    /// Requests a unicast send.
    pub fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        self.out.push(CtxOut::Send { to, msg });
    }

    /// Requests a TTL-scoped flood.
    pub fn flood(&mut self, ttl: u8, msg: ProtoMsg) {
        self.out.push(CtxOut::Flood { ttl, msg });
    }

    /// Requests a protocol timer.
    pub fn set_timer(&mut self, after: SimDuration, timer: Timer) {
        self.out.push(CtxOut::SetTimer { after, timer });
    }

    /// Answers an open query, noting which copy served it.
    pub fn answer(&mut self, query: QueryId, version: Version, served_by: ServedBy) {
        self.out.push(CtxOut::Answer {
            query,
            version,
            served_by,
        });
    }

    /// Abandons an open query.
    pub fn fail(&mut self, query: QueryId) {
        self.out.push(CtxOut::Fail { query });
    }

    /// Reports a relay state-machine transition (Fig. 5) for tracing.
    pub fn transition(&mut self, item: ItemId, kind: RelayTransitionKind) {
        self.out.push(CtxOut::Transition { item, kind });
    }

    /// Reports a graceful-degradation decision for tracing/accounting.
    pub fn degraded(&mut self, item: ItemId, query: Option<QueryId>, kind: DegradationKind) {
        self.out.push(CtxOut::Degraded { item, query, kind });
    }

    /// Reports a recovery-layer decision to the driver.
    pub fn recovery(&mut self, action: RecoveryAction) {
        self.out.push(CtxOut::Recovery { action });
    }

    /// The backed-off, jittered delay before the `attempt`-th
    /// retransmission, drawn from the **recovery** stream so acked
    /// delivery never reorders existing protocol draws. Fixtures
    /// without an attached stream get a deterministic private one.
    pub fn recovery_delay(&mut self, base: SimDuration, attempt: u8) -> SimDuration {
        let cfg = self.cfg;
        match self.recovery_rng.as_deref_mut() {
            Some(rng) => cfg.retry_delay(base, attempt, rng),
            None => {
                let mut scratch = SimRng::from_seed(0, 0);
                cfg.retry_delay(base, attempt, &mut scratch)
            }
        }
    }

    /// Reports that a cached copy was installed or refreshed from a
    /// delivered message (provenance lineage). Unconditional at every
    /// install site: it draws no randomness and the driver discards it
    /// unless provenance tracing is on.
    pub fn note_copy(&mut self, item: ItemId, version: Version) {
        self.out.push(CtxOut::CopyInstalled { item, version });
    }

    /// Reports that `query` entered a new causal phase (span tracing).
    pub fn phase(&mut self, query: QueryId, item: ItemId, phase: SpanPhase, attempt: u8) {
        self.out.push(CtxOut::QueryPhase {
            query,
            item,
            phase,
            attempt,
        });
    }

    /// Answers `query` from the master copy when `item` is this node's
    /// own (every strategy's first step); false when it is not.
    pub(crate) fn answer_own(&mut self, query: QueryId, item: ItemId) -> bool {
        let own = item == self.own_item.id();
        if own {
            self.answer(query, self.own_item.version(), ServedBy::Source);
        }
        own
    }

    /// The version of `item` this node caches, or [`Version::INITIAL`]
    /// without a copy (what a poll for an uncached item advertises).
    pub(crate) fn cached_version(&self, item: ItemId) -> Version {
        self.cache
            .peek(item)
            .map_or(Version::INITIAL, |e| e.version)
    }

    /// Installs `version` of `item` from a delivered message — refreshing
    /// the cached copy, or inserting one when the item is not cached —
    /// and reports the install for lineage.
    pub(crate) fn install_copy(&mut self, item: ItemId, version: Version, content_bytes: u32) {
        if !self.cache.refresh(item, version, self.now) {
            self.cache.insert(item, version, content_bytes, self.now);
        }
        self.note_copy(item, version);
    }

    /// Answers `to`'s POLL for `item` from the copy this node vouches for
    /// (`ours`: version and content size — the master copy at the source,
    /// a fresh cached copy at a relay): POLL_ACK_A confirms the poller's
    /// version, POLL_ACK_B ships the newer content.
    pub(crate) fn reply_to_poll(
        &mut self,
        to: NodeId,
        item: ItemId,
        theirs: Version,
        ours: (Version, u32),
        span: Option<u64>,
    ) {
        let msg = if theirs >= ours.0 {
            let version = theirs;
            ProtoMsg::PollAckA {
                item,
                version,
                span,
            }
        } else {
            let (version, content_bytes) = ours;
            ProtoMsg::PollAckB {
                item,
                version,
                content_bytes,
                span,
            }
        };
        self.send(to, msg);
    }

    /// Source side of FETCH: ships the master copy of the own item.
    pub(crate) fn reply_to_fetch(&mut self, to: NodeId, span: Option<u64>) {
        let msg = ProtoMsg::FetchReply {
            item: self.own_item.id(),
            version: self.own_item.version(),
            content_bytes: self.own_item.size_bytes(),
            span,
        };
        self.send(to, msg);
    }

    /// Arms a source's first TTN tick at a uniformly random offset within
    /// one period, so sources do not flood in step.
    pub(crate) fn stagger_ttn(&mut self) {
        let offset = self.rng.uniform_u64(TTN.as_millis().max(1));
        self.set_timer(SimDuration::from_millis(offset), Timer::Ttn);
    }

    /// The TTN tick of the report-flooding baselines: a connected source
    /// floods its current version at the baseline TTL, then re-arms.
    pub(crate) fn flood_report(&mut self, publishes: bool) {
        if publishes && self.connected {
            let msg = ProtoMsg::Invalidation {
                item: self.own_item.id(),
                version: self.own_item.version(),
                seq: None,
            };
            self.flood(BROADCAST_TTL, msg);
        }
        self.set_timer(TTN, Timer::Ttn);
    }

    /// Exchanges the output buffer with `buf` (driver-side, the
    /// `NetStack::swap_events` idiom): lent an emptied buffer before the
    /// handler runs and swapped again after it, the context fills the
    /// caller's allocation instead of growing one of its own.
    pub fn swap_outputs(&mut self, buf: &mut Vec<CtxOut>) {
        std::mem::swap(&mut self.out, buf);
    }

    /// Drains the buffered outputs into a vector of their own.
    pub fn take_outputs(&mut self) -> Vec<CtxOut> {
        std::mem::take(&mut self.out)
    }
}

/// A cache-consistency strategy, driven by the simulation [`crate::World`].
///
/// One instance runs per node; the same instance plays the *source host*
/// role for the node's own item and the *cache/relay peer* roles for the
/// items it caches — exactly as in the paper, where "each host serves as
/// the source host for some data item, while at the same time, caches
/// data items from other hosts" (Section 4.1).
pub trait Protocol {
    /// Called once at start-up (schedule initial timers here). A purely
    /// reactive strategy has nothing to arm.
    fn on_init(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A query request arrived at this node for `item` with the given
    /// consistency requirement. Must eventually lead to
    /// [`Ctx::answer`] or [`Ctx::fail`] for `query`.
    fn on_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: QueryId,
        item: ItemId,
        level: ConsistencyLevel,
    );

    /// The node's own master copy was just updated (version already
    /// incremented by the driver). A strategy whose next report or poll
    /// answer carries the current version anyway need not react.
    fn on_source_update(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A protocol message arrived (sender and reception hops provided).
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg);

    /// A previously requested timer fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer);

    /// The network layer gave up delivering `msg` to `dest` (the paper's
    /// MAC-layer disconnection discovery, Section 4.5). Ignoring it
    /// leaves recovery to the sender's own retry timers.
    fn on_undeliverable(&mut self, _ctx: &mut Ctx<'_>, _dest: NodeId, _msg: ProtoMsg) {}

    /// This node switched on (`up == true`) or off.
    fn on_status_change(&mut self, _ctx: &mut Ctx<'_>, _up: bool) {}

    /// A coefficient period φ elapsed; `moved` reports a subnet crossing
    /// since the previous tick. Baselines ignore this.
    fn on_coefficient_tick(&mut self, _ctx: &mut Ctx<'_>, _moved: bool) {}

    /// Number of items this node currently serves as relay peer for
    /// (gauge; 0 for baselines).
    fn relay_item_count(&self) -> usize {
        0
    }

    /// True if this node is currently a relay-peer candidate (gauge).
    fn is_candidate(&self) -> bool {
        false
    }

    /// High-water mark of this node's recovery retransmit queue (0 for
    /// protocols without acked delivery).
    fn retx_high_water(&self) -> usize {
        0
    }
}

/// The one unit-test fixture of the strategies: a node's local state
/// around a protocol instance, and a way to run one handler against it.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;

    pub(crate) struct Fixture<P> {
        pub(crate) cache: CacheStore,
        pub(crate) own: DataItem,
        pub(crate) rng: SimRng,
        pub(crate) cfg: ProtocolConfig,
        pub(crate) proto: P,
        pub(crate) now: SimTime,
    }

    impl<P: Protocol> Fixture<P> {
        /// Node `me` (publishing `D<me>`) with one pre-warmed foreign item
        /// (`D1`, or `D2` when `me` is node 1), default parameters, the
        /// random stream `(seed, me)` and a fresh `make(cfg, true)`.
        pub(crate) fn new(me: u32, seed: u64, make: fn(&ProtocolConfig, bool) -> P) -> Self {
            let cfg = ProtocolConfig::default();
            let mut cache = CacheStore::new(10);
            let foreign = ItemId::new(if me == 1 { 2 } else { 1 });
            cache.insert(foreign, Version::INITIAL, 1_024, SimTime::ZERO);
            Fixture {
                cache,
                own: DataItem::new(ItemId::new(me), 1_024),
                rng: SimRng::from_seed(seed, u64::from(me)),
                cfg,
                proto: make(&cfg, true),
                now: SimTime::ZERO,
            }
        }

        /// Runs `f` on a full-battery, connected context at `self.now`
        /// and returns what the handler asked for.
        pub(crate) fn run(&mut self, f: impl FnOnce(&mut P, &mut Ctx<'_>)) -> Vec<CtxOut> {
            let me = NodeId::new(self.own.id().index() as u32);
            let mut ctx = Ctx::new(
                self.now,
                me,
                &mut self.cache,
                &mut self.own,
                &mut self.rng,
                &self.cfg,
                1.0,
                true,
            );
            f(&mut self.proto, &mut ctx);
            ctx.take_outputs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp2p_cache::CacheStore;

    #[test]
    fn ctx_buffers_outputs_in_order() {
        let mut cache = CacheStore::new(4);
        let mut own = DataItem::new(ItemId::new(0), 512);
        let mut rng = SimRng::from_seed(0, 0);
        let cfg = ProtocolConfig::default();
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId::new(0),
            &mut cache,
            &mut own,
            &mut rng,
            &cfg,
            1.0,
            true,
        );
        ctx.send(
            NodeId::new(1),
            ProtoMsg::GetNew {
                item: ItemId::new(1),
            },
        );
        ctx.set_timer(SimDuration::from_secs(1), Timer::Ttn);
        ctx.answer(QueryId(7), Version::new(2), ServedBy::Source);
        ctx.transition(ItemId::new(1), RelayTransitionKind::Promoted);
        let out = ctx.take_outputs();
        assert_eq!(out.len(), 4);
        assert!(matches!(out[0], CtxOut::Send { .. }));
        assert!(matches!(
            out[1],
            CtxOut::SetTimer {
                timer: Timer::Ttn,
                ..
            }
        ));
        assert!(matches!(
            out[2],
            CtxOut::Answer {
                query: QueryId(7),
                served_by: ServedBy::Source,
                ..
            }
        ));
        assert!(matches!(
            out[3],
            CtxOut::Transition {
                kind: RelayTransitionKind::Promoted,
                ..
            }
        ));
        assert!(ctx.take_outputs().is_empty(), "drain empties the buffer");
    }
}
