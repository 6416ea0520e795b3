//! The RPCC protocol (Section 4): relay-peer based cache consistency.
//!
//! One [`Rpcc`] instance per node plays all three roles of Fig. 4:
//!
//! * **Source host** for the node's own item — Fig. 6(b): periodic
//!   `INVALIDATION` floods (TTL-limited), batched `UPDATE` pushes to the
//!   relay table, `GET_NEW`/`APPLY`/`CANCEL` handling.
//! * **Relay peer** for approved cached items — Fig. 6(c): freshness via
//!   `TTR`, poll answering (or holding until the next invalidation),
//!   missed-update resynchronisation via `GET_NEW`.
//! * **Cache peer** for the rest of the cache — Fig. 6(d): weak/Δ/strong
//!   query handling (Section 4.4), expanding-ring `POLL`s, candidacy and
//!   promotion per the Fig. 5 state machine.
//!
//! Fig. 5 is node-level candidacy (`candidate`, Eq. 4.2.8) plus one
//! `ItemRole` per item in `roles`; no entry is a plain cache copy. Every
//! role change is one `Edge` taken by `Rpcc::set_role`. The private
//! module `fig5` makes it the only writer of `roles` and of a relay's
//! `resyncing` flag: outside it `Roles` has no insert, remove or
//! `get_mut`, and the flag is a private field. This table is its
//! `match`; each edge sends before it journals, in the order listed, and
//! a `(edge, from)` pair it lacks fails a `debug_assert!`:
//!
//! | edge | from | to | sends | journals | taken by |
//! |---|---|---|---|---|---|
//! | `Apply` | copy, `Applying` | `Applying` | APPLY | `apply_sent` | an INVALIDATION at a candidate |
//! | `Promote` | copy, `Applying`, `Relay` | `Relay`, resyncing iff the copy lags | GET_NEW iff it lags | `resync_started` iff it lags, then `promoted` | APPLY_ACK, UPDATE at a candidate, handover |
//! | `Resync` | `Relay` | `Relay`, resyncing | GET_NEW unless resyncing | `resync_started` unless resyncing | a lagging INVALIDATION or resync digest, a stale POLL |
//! | `Confirm` | `Relay` | `Relay`, lease renewed | — | `resync_completed` iff resyncing | UPDATE, SEND_NEW |
//! | `ResyncLost` | `Relay` | `Relay`, not resyncing | — | — | an undeliverable GET_NEW |
//! | `Resign` | `Relay` | copy | CANCEL | `demoted` | coefficient demotion, an orphaned lease |
//! | `Withdraw` | `Applying` | copy | — | — | coefficient demotion, an evicted copy's APPLY_ACK |
//!
//! `Promote` from `Relay` is a re-adoption (a second APPLY_ACK, e.g. the
//! source acking a handover recipient's APPLY): it journals `promoted`
//! again, drops the held polls and ends an open resync with no record.

use std::collections::{BTreeMap, BTreeSet};

use mp2p_cache::Version;
use mp2p_metrics::{RelayTransitionKind, ServedBy, SpanPhase};
use mp2p_sim::{FastMap, ItemId, NodeId, SimTime};

use fig5::{Edge, ItemRole, Roles};

use crate::adaptive::AdaptiveTuner;
use crate::coefficients::Coefficients;
use crate::config::{
    ProtocolConfig, ADAPTIVE_SPAN, BROADCAST_TTL, FETCH_TIMEOUT, OMEGA, POLL_ATTEMPTS, POLL_GRACE,
    POLL_TIMEOUT, RELAY_POLL_HOLD, TTN, TTP, TTR,
};
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::pending::{PendingTable, Waiting};
use crate::protocol::{Ctx, DegradationKind, Protocol, QueryId, Timer};
use crate::recovery::{
    self, RecoveryAction, RetransmitQueue, SeqTracker, VersionDigest, RETX_ATTEMPTS, RETX_TIMEOUT,
};

/// Fig. 5's per-item state and its one writer, `Rpcc::set_role`.
mod fig5 {
    use super::*;

    /// Fig. 5's state of one item at this node (module docs).
    #[derive(Debug, Clone)]
    pub(super) enum ItemRole {
        /// A candidate applied (Section 4.3). `sent` rate-limits the next
        /// APPLY (`None`: the last was undeliverable, re-apply at once);
        /// `attempts` unacknowledged APPLYs widen the gap under hardening.
        Applying { sent: Option<SimTime>, attempts: u8 },
        /// An approved relay peer.
        Relay(RelayState),
    }

    #[derive(Debug, Clone)]
    pub(super) struct RelayState {
        /// The copy is authoritatively fresh until this instant (`TTR_d`).
        pub(super) ttr_expiry: SimTime,
        /// POLLs that arrived while stale, waiting for the next
        /// INVALIDATION/UPDATE (Fig. 6(c) line 16).
        pub(super) held_polls: Vec<HeldPoll>,
        /// True while a `GET_NEW` is outstanding; `set_role` alone writes it.
        resyncing: bool,
    }

    /// One Fig. 5 edge of one item: a row of the module docs' table, which
    /// gives where it starts and ends and what it sends and journals.
    /// `attempts` counts unacknowledged APPLYs; `version` is the one
    /// vouched for.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum Edge {
        Apply { attempts: u8 },
        Promote { version: Version },
        Resync,
        Confirm,
        ResyncLost,
        Resign,
        Withdraw,
    }

    /// Fig. 5's per-item state, ascending by item. It has no `Default` and
    /// no `get_mut`: outside this module a role is read, or a relay's lease
    /// and held polls and an application's APPLY stamp are reached, each
    /// with one map operation; `set_role` alone adds, drops or rebuilds one.
    #[derive(Debug, Clone)]
    pub(super) struct Roles(BTreeMap<ItemId, ItemRole>);

    impl Roles {
        pub(super) fn new() -> Self {
            Roles(BTreeMap::new())
        }

        pub(super) fn get(&self, item: ItemId) -> Option<&ItemRole> {
            self.0.get(&item)
        }

        /// The role of the lowest item.
        pub(super) fn first(&self) -> Option<(ItemId, &ItemRole)> {
            self.0.first_key_value().map(|(&item, role)| (item, role))
        }

        /// Every role, ascending by item.
        pub(super) fn iter(&self) -> impl Iterator<Item = (ItemId, &ItemRole)> {
            self.0.iter().map(|(&item, role)| (item, role))
        }

        /// `item`'s relay state, if this node relays it.
        pub(super) fn relay_mut(&mut self, item: ItemId) -> Option<&mut RelayState> {
            match self.0.get_mut(&item) {
                Some(ItemRole::Relay(st)) => Some(st),
                _ => None,
            }
        }

        /// Every relay state, ascending by item.
        pub(super) fn relays_mut(&mut self) -> impl Iterator<Item = (ItemId, &mut RelayState)> {
            self.0.iter_mut().filter_map(|(&item, role)| match role {
                ItemRole::Relay(st) => Some((item, st)),
                ItemRole::Applying { .. } => None,
            })
        }

        /// When `item`'s last APPLY went, if this node is applying for it.
        pub(super) fn apply_stamp_mut(&mut self, item: ItemId) -> Option<&mut Option<SimTime>> {
            match self.0.get_mut(&item) {
                Some(ItemRole::Applying { sent, .. }) => Some(sent),
                _ => None,
            }
        }
    }

    impl Rpcc {
        /// Takes one Fig. 5 edge for `item`: the only writer of `roles` and
        /// of a relay's `resyncing` flag. The arms are the module docs' table.
        pub(super) fn set_role(&mut self, ctx: &mut Ctx<'_>, item: ItemId, edge: Edge) {
            use RelayTransitionKind as Kind;
            let source = item.source_host();
            match (edge, self.roles.0.get_mut(&item)) {
                (Edge::Apply { attempts }, None | Some(ItemRole::Applying { .. })) => {
                    let sent = Some(ctx.now);
                    self.roles
                        .0
                        .insert(item, ItemRole::Applying { sent, attempts });
                    ctx.send(source, ProtoMsg::Apply { item });
                    ctx.transition(item, Kind::ApplySent);
                }
                (Edge::Promote { version }, _) => {
                    let lags = ctx.cached_version(item) < version;
                    let mut st = RelayState {
                        ttr_expiry: ctx.now + Self::relay_lease(),
                        held_polls: Vec::new(),
                        resyncing: lags,
                    };
                    if lags {
                        st.ttr_expiry = ctx.now; // stale until SEND_NEW arrives
                        ctx.send(source, ProtoMsg::GetNew { item });
                        ctx.transition(item, Kind::ResyncStarted);
                    }
                    self.roles.0.insert(item, ItemRole::Relay(st));
                    ctx.transition(item, Kind::Promoted);
                }
                (Edge::Resync, Some(ItemRole::Relay(st))) => {
                    if !st.resyncing {
                        st.resyncing = true;
                        ctx.send(source, ProtoMsg::GetNew { item });
                        ctx.transition(item, Kind::ResyncStarted);
                    }
                }
                (Edge::Confirm, Some(ItemRole::Relay(st))) => {
                    st.ttr_expiry = ctx.now + Self::relay_lease();
                    if std::mem::take(&mut st.resyncing) {
                        ctx.transition(item, Kind::ResyncCompleted);
                    }
                }
                (Edge::ResyncLost, Some(ItemRole::Relay(st))) => st.resyncing = false,
                (Edge::Resign, Some(ItemRole::Relay(_))) => {
                    // Held polls cannot be answered honestly any more; the
                    // pollers' retry timers recover them.
                    self.roles.0.remove(&item);
                    ctx.send(source, ProtoMsg::Cancel { item });
                    ctx.transition(item, Kind::Demoted);
                }
                (Edge::Withdraw, Some(ItemRole::Applying { .. })) => {
                    self.roles.0.remove(&item);
                }
                (edge, from) => debug_assert!(false, "Fig. 5 has no {edge:?} from {from:?}"),
            }
        }
    }

    #[cfg(test)]
    impl RelayState {
        pub(super) fn resyncing(&self) -> bool {
            self.resyncing
        }
    }

    #[cfg(test)]
    impl Roles {
        /// Writes `item`'s role directly rather than through `set_role`: an
        /// `Applying` after one unsent APPLY for `None`, else a relay whose
        /// lease has run out, resyncing iff `Some(true)`.
        pub(super) fn stand_at(&mut self, item: ItemId, relay: Option<bool>) {
            let role = match relay {
                None => ItemRole::Applying {
                    sent: None,
                    attempts: 1,
                },
                Some(resyncing) => ItemRole::Relay(RelayState {
                    ttr_expiry: SimTime::ZERO,
                    held_polls: Vec::new(),
                    resyncing,
                }),
            };
            self.0.insert(item, role);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HeldPoll {
    from: NodeId,
    version: Version,
    held_at: SimTime,
    /// Span tag of the held poll, echoed into the eventual ack.
    span: Option<u64>,
}

/// Relay-side: answer one POLL against the local (fresh) copy, echoing
/// the poll's span tag into the ack.
fn answer_poll(ctx: &mut Ctx<'_>, item: ItemId, poll: HeldPoll) {
    if let Some(copy) = ctx.cache.peek(item).map(|e| (e.version, e.size_bytes)) {
        ctx.reply_to_poll(poll.from, item, poll.version, copy, poll.span);
    }
}

/// Hardening: the coverage hole a relay leaves once it resigned an
/// orphaned lease — TTR expired more than
/// [`ProtocolConfig::relay_orphan_grace`] ago with no source contact
/// since. Its CANCEL is best effort (the source's own MAC-failure pruning
/// is the backstop).
fn cover_orphan(ctx: &mut Ctx<'_>, item: ItemId) {
    if ctx.cfg.recovery.on {
        // Recovery: instead of letting the coverage hole stand, ask the
        // driver to elect a reachable cached neighbour and hand the relay
        // role over (DESIGN.md §5). The degradation only lands if no
        // successor exists.
        let version = ctx.cached_version(item);
        ctx.recovery(RecoveryAction::HandoverRequest { item, version });
    } else {
        ctx.degraded(item, None, DegradationKind::RelayLeaseExpired);
    }
    // The copy stays cached as ordinary (possibly stale) data; it gets no
    // fresh TTP lease because nothing validated it.
}

/// The RPCC protocol state of one node. See the module docs.
#[derive(Debug, Clone)]
pub struct Rpcc {
    /// Whether this node's own item participates (false for non-source
    /// nodes in the single-item Fig. 9 scenario).
    publishes: bool,
    /// Source role: the relay-peer table for the own item (`RP_d`).
    relay_table: BTreeSet<NodeId>,
    /// Source role: did the master copy change since the last TTN tick?
    updated_since_inv: bool,
    /// Node-level candidacy (Fig. 5).
    candidate: bool,
    /// Consecutive coefficient ticks that failed Eq. 4.2.8.
    failing_ticks: u8,
    coeffs: Coefficients,
    /// Fig. 5's per-item state; `fig5` holds who may write it.
    roles: Roles,
    /// Cache role: `TTP` expiry per cached item.
    ttp_expiry: FastMap<ItemId, SimTime>,
    /// Latest master version learnt per item (from INVALIDATION/acks).
    last_seen_ver: FastMap<ItemId, Version>,
    /// The nearest known answerer per item ("find the nearest relay
    /// peer", Section 4.1): first polls go unicast to it; a miss falls
    /// back to the expanding-ring flood.
    known_relay: FastMap<ItemId, NodeId>,
    /// Open local queries awaiting network answers.
    pending: PendingTable,
    /// Adaptive push/pull frequency machinery (extension, future work
    /// §6 item 1); `None` reproduces the paper.
    tuner: Option<AdaptiveTuner>,
    /// Recovery: bounded retransmit queue for acknowledged UPDATE
    /// delivery (source role). Also the sequence allocator for
    /// INVALIDATION floods, so every stamped frame is totally ordered
    /// per source.
    retx: RetransmitQueue,
    /// Recovery: highest UPDATE seq seen per (peer, item) — makes
    /// delivery idempotent under frame duplication and retransmits.
    seen_upd: SeqTracker,
    /// Recovery: highest INVALIDATION seq seen per (peer, item).
    /// Tracked separately from UPDATEs: the two ride different paths
    /// (unicast vs flood) and may arrive out of allocation order.
    seen_inv: SeqTracker,
}

impl Rpcc {
    /// Creates the protocol state for one node.
    ///
    /// `publishes` controls whether the node runs the source role for its
    /// own item (true in the paper's main scenarios; false for all but
    /// one node in the Fig. 9 single-item scenario).
    pub fn new(cfg: &ProtocolConfig, publishes: bool) -> Self {
        Rpcc {
            publishes,
            relay_table: BTreeSet::new(),
            updated_since_inv: false,
            candidate: false,
            failing_ticks: 0,
            coeffs: Coefficients::new(OMEGA),
            roles: Roles::new(),
            ttp_expiry: FastMap::default(),
            last_seen_ver: FastMap::default(),
            known_relay: FastMap::default(),
            pending: PendingTable::default(),
            tuner: cfg.adaptive.then(|| AdaptiveTuner::new(ADAPTIVE_SPAN)),
            retx: RetransmitQueue::new(cfg.recovery.retx_cap),
            seen_upd: SeqTracker::new(),
            seen_inv: SeqTracker::new(),
        }
    }

    /// True if this node is an approved relay for `item`.
    pub fn is_relay_for(&self, item: ItemId) -> bool {
        matches!(self.roles.get(item), Some(ItemRole::Relay(_)))
    }

    fn ttr_fresh(&self, item: ItemId, now: SimTime) -> bool {
        matches!(self.roles.get(item), Some(ItemRole::Relay(st)) if st.ttr_expiry > now)
    }

    /// The relay serving lease granted by a freshness confirmation.
    ///
    /// Table 1 sets `TTR` (1.5 min) *below* the invalidation period `TTN`
    /// (2 min). Read literally as a serving lease that would forbid relays
    /// from answering for 25% of every cycle, contradicting the latency
    /// and traffic behaviour of Figs. 8/9 — so `TTR` is interpreted as the
    /// relay's tolerance for *missing* reports, and the lease runs to the
    /// next expected report (plus flood-jitter slack) or `TTR`, whichever
    /// is longer (DESIGN.md §5).
    fn relay_lease() -> mp2p_sim::SimDuration {
        TTR.max(TTN + mp2p_sim::SimDuration::from_secs(5))
    }

    /// A freshness proof arrived: answer every poll the relay holds.
    fn answer_held(&mut self, ctx: &mut Ctx<'_>, item: ItemId) {
        if let Some(st) = self.roles.relay_mut(item) {
            for poll in std::mem::take(&mut st.held_polls) {
                answer_poll(ctx, item, poll);
            }
        }
    }

    fn ttp_fresh(&self, item: ItemId, now: SimTime) -> bool {
        matches!(self.ttp_expiry.get(&item), Some(&t) if t > now)
    }

    fn renew_ttp(&mut self, ctx: &Ctx<'_>, item: ItemId) {
        let lease = match &self.tuner {
            Some(tuner) => tuner.effective_ttp(item, TTP),
            None => TTP,
        };
        self.ttp_expiry.insert(item, ctx.now + lease);
    }

    /// Starts (or widens) a POLL for an open query. The first attempt
    /// goes unicast to the last known answerer; misses and retries fall
    /// back to the expanding-ring flood.
    fn start_poll(&mut self, ctx: &mut Ctx<'_>, query: QueryId, item: ItemId, attempt: u8) {
        let version = ctx.cached_version(item);
        let span = Some(query.0);
        match self.known_relay.get(&item) {
            Some(&relay) if attempt == 1 => {
                ctx.phase(query, item, SpanPhase::PollUnicast, attempt);
                ctx.send(
                    relay,
                    ProtoMsg::Poll {
                        item,
                        version,
                        span,
                    },
                );
            }
            _ => {
                self.known_relay.remove(&item);
                let ttl = ctx.cfg.poll_ttl_for_attempt(attempt);
                ctx.phase(query, item, SpanPhase::PollFlood, attempt);
                ctx.flood(
                    ttl,
                    ProtoMsg::Poll {
                        item,
                        version,
                        span,
                    },
                );
            }
        }
        let delay = ctx.cfg.retry_delay(POLL_TIMEOUT, attempt, ctx.rng);
        self.pending
            .insert(ctx, query, item, Waiting::Poll, attempt, delay);
    }

    /// Starts a cache-miss fetch for an open query.
    fn start_fetch(&mut self, ctx: &mut Ctx<'_>, query: QueryId, item: ItemId, attempt: u8) {
        ctx.phase(query, item, SpanPhase::Fetch, attempt);
        let span = Some(query.0);
        ctx.send(item.source_host(), ProtoMsg::Fetch { item, span });
        let delay = ctx.cfg.retry_delay(FETCH_TIMEOUT, attempt, ctx.rng);
        self.pending
            .insert(ctx, query, item, Waiting::Fetch, attempt, delay);
    }

    /// Answers every open query on `item` with the (just-validated)
    /// cached version, attributing the answer to `served_by`.
    fn answer_pending_for(&mut self, ctx: &mut Ctx<'_>, item: ItemId, served_by: ServedBy) {
        let Some(version) = ctx.cache.peek(item).map(|e| e.version) else {
            return;
        };
        for q in self.pending.take_item(item, |_| true) {
            ctx.answer(q, version, served_by);
        }
    }

    /// Source-side TTN tick (Fig. 6(b) lines 1–8).
    fn source_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.publishes && ctx.connected {
            let item = ctx.own_item.id();
            let version = ctx.own_item.version();
            let acked = ctx.cfg.recovery.on;
            if self.updated_since_inv {
                let peers: Vec<NodeId> = self.relay_table.iter().copied().collect();
                for rp in peers {
                    let seq =
                        acked.then(|| self.retx.enqueue(rp, item, version, ctx.now + RETX_TIMEOUT));
                    ctx.send(
                        rp,
                        ProtoMsg::Update {
                            item,
                            version,
                            content_bytes: ctx.own_item.size_bytes(),
                            seq,
                        },
                    );
                }
                self.updated_since_inv = false;
            }
            // INVALIDATION floods are stamped but never retransmitted:
            // the seq buys receiver-side dedup under frame duplication,
            // and the next TTN tick is the natural retry.
            let seq = acked.then(|| self.retx.alloc_seq());
            ctx.flood(
                ctx.cfg.invalidation_ttl,
                ProtoMsg::Invalidation { item, version, seq },
            );
        }
        // Adaptive push (extension): report on the item's own update
        // timescale instead of the fixed TTN.
        let period = match &self.tuner {
            Some(tuner) => tuner.effective_ttn(TTN),
            None => TTN,
        };
        ctx.set_timer(period, Timer::Ttn);
    }

    fn note_master_version(&mut self, item: ItemId, version: Version) {
        let known = self.last_seen_ver.entry(item).or_insert(Version::INITIAL);
        if version > *known {
            *known = version;
        }
    }

    /// Handles INVALIDATION (Fig. 6(c) lines 1–8 for relays, Section 4.3
    /// for candidates).
    fn on_invalidation(&mut self, ctx: &mut Ctx<'_>, item: ItemId, version: Version) {
        self.note_master_version(item, version);
        let (sent, attempts) = match self.roles.get(item) {
            Some(ItemRole::Relay(_)) => {
                if ctx.cached_version(item) < version {
                    // Missed an update while disconnected: resynchronise.
                    self.set_role(ctx, item, Edge::Resync);
                } else if let Some(st) = self.roles.relay_mut(item) {
                    st.ttr_expiry = ctx.now + Self::relay_lease();
                    self.answer_held(ctx, item);
                }
                return;
            }
            Some(&ItemRole::Applying { sent, attempts }) => (sent, attempts),
            None => (None, 0),
        };
        // Candidate hearing an invalidation for a cached item applies for
        // promotion (Section 4.3).
        if self.candidate && ctx.cache.contains(item) {
            // Hardening: each unacknowledged APPLY widens the re-apply
            // gap (un-hardened, the gap stays exactly TTN — the paper's
            // behaviour).
            let attempts = attempts.saturating_add(1);
            let gap = ctx.cfg.retry_delay(TTN, attempts, ctx.rng);
            if sent.is_none_or(|when| ctx.now.saturating_since(when) >= gap) {
                self.set_role(ctx, item, Edge::Apply { attempts });
            }
        }
    }

    /// Handles UPDATE (Fig. 6(c) lines 23–25 and Fig. 6(d) lines 27–36).
    fn on_update(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        item: ItemId,
        version: Version,
        content: u32,
    ) {
        self.note_master_version(item, version);
        if self.is_relay_for(item) {
            self.set_role(ctx, item, Edge::Confirm);
            ctx.install_copy(item, version, content);
            self.answer_held(ctx, item);
        } else if self.candidate {
            // We are a candidate that missed its APPLY_ACK: the UPDATE
            // proves the source considers us a relay (Fig. 6(d) 28–31).
            ctx.install_copy(item, version, content);
            self.set_role(ctx, item, Edge::Promote { version });
        } else {
            // Plain cache peer: the owner missed our CANCEL (Fig. 6(d)
            // 32–35): use the data, tell it again.
            ctx.install_copy(item, version, content);
            self.renew_ttp(ctx, item);
            ctx.send(from, ProtoMsg::Cancel { item });
        }
    }

    /// Handles POLL (Fig. 6(c) lines 9–18, plus the source answering for
    /// its own item).
    fn on_poll(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        item: ItemId,
        their_version: Version,
        span: Option<u64>,
    ) {
        if from == ctx.me {
            return; // own flood heard back; floods do not self-deliver, but guard anyway
        }
        if self.publishes && item == ctx.own_item.id() {
            self.coeffs.note_access();
            let master = (ctx.own_item.version(), ctx.own_item.size_bytes());
            ctx.reply_to_poll(from, item, their_version, master, span);
            return;
        }
        if let Some(st) = self.roles.relay_mut(item) {
            self.coeffs.note_access();
            let poll = HeldPoll {
                from,
                version: their_version,
                held_at: ctx.now,
                span,
            };
            if st.ttr_expiry > ctx.now {
                answer_poll(ctx, item, poll);
            } else {
                // Stale TTR: hold the poll (Fig. 6(c) 16). Rather than
                // idle until the next INVALIDATION, resynchronise with the
                // source right away via GET_NEW — the message the protocol
                // already uses for relay resync (DESIGN.md §5 documents
                // this as the poll-triggered-resync interpretation).
                // One held slot per poller: a retry replaces the original.
                st.held_polls.retain(|p| p.from != from);
                st.held_polls.push(poll);
                self.set_role(ctx, item, Edge::Resync);
            }
        }
        // Plain cache peers ignore other peers' polls.
    }

    fn on_poll_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        item: ItemId,
        version: Version,
        content: Option<u32>,
    ) {
        if let Some(tuner) = &mut self.tuner {
            // Adaptive pull (extension): confirmations stretch the lease,
            // changes collapse it.
            match content {
                Some(_) => tuner.note_changed(item),
                None => tuner.note_confirmed(item),
            }
        }
        if let Some(content) = content {
            ctx.install_copy(item, version, content);
        }
        self.note_master_version(item, version);
        self.renew_ttp(ctx, item);
        // Sticky nearest-relay choice: switching on every answer would
        // churn routes; failures clear the entry instead.
        self.known_relay.entry(item).or_insert(from);
        let served_by = if from == item.source_host() {
            ServedBy::Source
        } else {
            ServedBy::Relay
        };
        self.answer_pending_for(ctx, item, served_by);
    }

    /// Promotion on APPLY_ACK (Fig. 6(d) lines 24–26).
    fn on_apply_ack(&mut self, ctx: &mut Ctx<'_>, item: ItemId, version: Version) {
        self.note_master_version(item, version);
        if ctx.cache.contains(item) {
            self.set_role(ctx, item, Edge::Promote { version });
        } else if let Some(ItemRole::Applying { .. }) = self.roles.get(item) {
            // The cached copy was evicted meanwhile; let the table age out.
            self.set_role(ctx, item, Edge::Withdraw);
        }
    }

    /// Demotes this node from all relay roles and drops its applications
    /// (coefficient failure; Fig. 5 "relay peer → cache node" edge).
    fn demote(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((item, role)) = self.roles.first() {
            if let ItemRole::Relay(_) = role {
                self.set_role(ctx, item, Edge::Resign);
                // The copy stays cached; give it a normal TTP lease from now.
                self.renew_ttp(ctx, item);
            } else {
                self.set_role(ctx, item, Edge::Withdraw);
            }
        }
    }

    /// Neighbour side of a rejoin resync. The freshest version this node
    /// can vouch for is its own master copy, the cached copy, or the
    /// latest advertisement it heard — the digest's own included.
    fn on_resync_digest(&mut self, ctx: &mut Ctx<'_>, from: NodeId, digest: VersionDigest) {
        let publishes = self.publishes;
        recovery::answer_resync_digest(ctx, from, &digest, |ctx, item, version| {
            self.note_master_version(item, version);
            recovery::held_version(ctx, publishes, item).max(self.last_seen_ver[&item])
        });
    }

    /// Rejoiner side of a resync answer: refresh or drop every copy a
    /// neighbour proved stale, so it is never served after the rejoin.
    fn on_resync_ack(&mut self, ctx: &mut Ctx<'_>, digest: VersionDigest) {
        if !ctx.cfg.recovery.on {
            return;
        }
        let mut stale = 0u32;
        for &(item, version) in digest.entries() {
            if item == ctx.own_item.id() {
                continue; // nothing outranks the master copy
            }
            self.note_master_version(item, version);
            let local = match ctx.cache.peek(item) {
                Some(e) => e.version,
                None => continue,
            };
            if local >= version {
                continue;
            }
            stale += 1;
            if let Some(st) = self.roles.relay_mut(item) {
                // Relay copies refresh through the protocol's own resync
                // channel instead of being dropped.
                st.ttr_expiry = ctx.now;
                self.set_role(ctx, item, Edge::Resync);
            } else {
                // A plain stale copy is dropped rather than served; the
                // next query re-fetches fresh data on the miss path.
                ctx.cache.remove(item);
                self.ttp_expiry.remove(&item);
                self.known_relay.remove(&item);
            }
        }
        ctx.recovery(RecoveryAction::ResyncDone { stale });
    }

    /// An expiring relay handed its role to this node (driver-elected).
    /// Adopt the item with a fresh lease, resyncing first if the local
    /// copy lags the version the old relay vouched for.
    fn on_handover(&mut self, ctx: &mut Ctx<'_>, item: ItemId, version: Version) {
        if !ctx.cfg.recovery.on || !ctx.connected {
            return;
        }
        if self.is_relay_for(item) || !ctx.cache.contains(item) {
            return;
        }
        self.note_master_version(item, version);
        self.set_role(ctx, item, Edge::Promote { version });
        // Tell the source, so its relay table points at the successor.
        ctx.send(item.source_host(), ProtoMsg::Apply { item });
    }

    /// Source-side retransmit sweep: re-push unacknowledged UPDATEs with
    /// deterministic-jitter backoff, giving up after [`RETX_ATTEMPTS`].
    fn retx_sweep(&mut self, ctx: &mut Ctx<'_>) {
        for entry in self.retx.due_entries(ctx.now) {
            if entry.attempt >= RETX_ATTEMPTS {
                self.retx.drop_seq(entry.seq);
                continue;
            }
            let attempt = entry.attempt + 1;
            let delay = ctx.recovery_delay(RETX_TIMEOUT, attempt);
            self.retx.bump(entry.seq, ctx.now + delay);
            if ctx.connected {
                ctx.send(
                    entry.dest,
                    ProtoMsg::Update {
                        item: entry.item,
                        version: entry.version,
                        content_bytes: ctx.own_item.size_bytes(),
                        seq: Some(entry.seq),
                    },
                );
                ctx.recovery(RecoveryAction::Retransmit {
                    dest: entry.dest,
                    item: entry.item,
                    seq: entry.seq,
                    attempt,
                });
            }
        }
    }
}

impl Protocol for Rpcc {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        // Pre-warmed cache copies carry a fresh TTP lease.
        let items: Vec<ItemId> = ctx.cache.iter().map(|(id, _)| id).collect();
        for item in items {
            self.renew_ttp(ctx, item);
        }
        if self.publishes {
            ctx.stagger_ttn();
        }
        ctx.set_timer(RELAY_POLL_HOLD, Timer::RelayHoldSweep);
        if ctx.cfg.recovery.on && self.publishes {
            ctx.set_timer(RETX_TIMEOUT, Timer::RetxSweep);
        }
    }

    fn on_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: QueryId,
        item: ItemId,
        level: ConsistencyLevel,
    ) {
        self.coeffs.note_access();
        if ctx.answer_own(query, item) {
            return;
        }
        let Some(entry) = ctx.cache.touch(item).copied() else {
            self.start_fetch(ctx, query, item, 1);
            return;
        };
        // A relay's own copy is authoritative while TTR is fresh.
        if self.ttr_fresh(item, ctx.now) {
            ctx.answer(query, entry.version, ServedBy::Relay);
            return;
        }
        match level {
            ConsistencyLevel::Weak => ctx.answer(query, entry.version, ServedBy::Cache),
            ConsistencyLevel::Delta if self.ttp_fresh(item, ctx.now) => {
                ctx.answer(query, entry.version, ServedBy::Cache);
            }
            ConsistencyLevel::Delta | ConsistencyLevel::Strong => {
                self.start_poll(ctx, query, item, 1);
            }
        }
    }

    fn on_source_update(&mut self, ctx: &mut Ctx<'_>) {
        self.updated_since_inv = true;
        if let Some(tuner) = &mut self.tuner {
            tuner.note_source_update(ctx.now);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg) {
        // Cache/relay-role messages about this node's *own* item are
        // nonsense (we are its source); acting on them would create
        // self-addressed traffic. Source-role messages (GET_NEW, APPLY,
        // CANCEL, POLL, FETCH) legitimately concern the own item and pass.
        if msg.item() == ctx.own_item.id() {
            if let ProtoMsg::Invalidation { .. }
            | ProtoMsg::Update { .. }
            | ProtoMsg::SendNew { .. }
            | ProtoMsg::ApplyAck { .. }
            | ProtoMsg::PollAckA { .. }
            | ProtoMsg::PollAckB { .. }
            | ProtoMsg::FetchReply { .. }
            | ProtoMsg::Handover { .. } = msg
            {
                return;
            }
        }
        match msg {
            ProtoMsg::Invalidation { item, version, seq } => {
                if let Some(seq) = seq {
                    if !self.seen_inv.is_new(from, item, seq) {
                        return; // duplicated frame: idempotent drop
                    }
                }
                self.on_invalidation(ctx, item, version)
            }
            ProtoMsg::Update {
                item,
                version,
                content_bytes,
                seq,
            } => {
                if let Some(seq) = seq {
                    // Ack first — even for duplicates — so a lost
                    // DELIVERY_ACK cannot strand the source's
                    // retransmit entry until it exhausts its attempts.
                    ctx.send(from, ProtoMsg::DeliveryAck { item, seq });
                    if !self.seen_upd.is_new(from, item, seq) {
                        return;
                    }
                }
                self.on_update(ctx, from, item, version, content_bytes)
            }
            ProtoMsg::GetNew { item } => {
                if self.publishes && item == ctx.own_item.id() {
                    self.coeffs.note_access();
                    ctx.send(
                        from,
                        ProtoMsg::SendNew {
                            item,
                            version: ctx.own_item.version(),
                            content_bytes: ctx.own_item.size_bytes(),
                        },
                    );
                }
            }
            ProtoMsg::SendNew {
                item,
                version,
                content_bytes,
            } => {
                self.note_master_version(item, version);
                ctx.install_copy(item, version, content_bytes);
                if self.is_relay_for(item) {
                    self.set_role(ctx, item, Edge::Confirm);
                    self.answer_held(ctx, item);
                } else {
                    self.renew_ttp(ctx, item);
                }
            }
            ProtoMsg::Apply { item } => {
                if self.publishes && item == ctx.own_item.id() {
                    // Admission control (extension, future work §6 item 2):
                    // a full relay table rejects new applicants silently;
                    // the candidate re-applies at a later report.
                    let full = ctx.cfg.max_relays_per_item.is_some_and(|cap| {
                        self.relay_table.len() >= cap && !self.relay_table.contains(&from)
                    });
                    if !full {
                        self.relay_table.insert(from);
                        ctx.send(
                            from,
                            ProtoMsg::ApplyAck {
                                item,
                                version: ctx.own_item.version(),
                            },
                        );
                    }
                }
            }
            ProtoMsg::ApplyAck { item, version } => self.on_apply_ack(ctx, item, version),
            ProtoMsg::Cancel { item } => {
                if self.publishes && item == ctx.own_item.id() {
                    self.relay_table.remove(&from);
                }
            }
            ProtoMsg::Poll {
                item,
                version,
                span,
            } => self.on_poll(ctx, from, item, version, span),
            ProtoMsg::PollAckA { item, version, .. } => {
                self.on_poll_ack(ctx, from, item, version, None)
            }
            ProtoMsg::PollAckB {
                item,
                version,
                content_bytes,
                ..
            } => self.on_poll_ack(ctx, from, item, version, Some(content_bytes)),
            ProtoMsg::Fetch { item, span } => {
                if self.publishes && item == ctx.own_item.id() {
                    self.coeffs.note_access();
                    ctx.reply_to_fetch(from, span);
                }
            }
            ProtoMsg::FetchReply {
                item,
                version,
                content_bytes,
                ..
            } => {
                self.note_master_version(item, version);
                ctx.install_copy(item, version, content_bytes);
                self.renew_ttp(ctx, item);
                self.answer_pending_for(ctx, item, ServedBy::Source);
            }
            ProtoMsg::ResyncDigest { digest } => self.on_resync_digest(ctx, from, digest),
            ProtoMsg::ResyncAck { digest } => self.on_resync_ack(ctx, digest),
            ProtoMsg::DeliveryAck { item: _, seq } => {
                if let Some(entry) = self.retx.ack(from, seq) {
                    ctx.recovery(RecoveryAction::AckReceived {
                        peer: from,
                        item: entry.item,
                        seq,
                    });
                }
            }
            ProtoMsg::Handover { item, version } => self.on_handover(ctx, item, version),
            // Replica writes are handled by the simulation driver before
            // they reach the protocol layer.
            ProtoMsg::WriteRequest { .. } | ProtoMsg::WriteAck { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer {
            Timer::Ttn => self.source_tick(ctx),
            Timer::PollRetry { query, attempt } => {
                let Some(pending) = self.pending.due(query, attempt) else {
                    return; // already answered, or an earlier attempt's timer
                };
                if attempt >= POLL_ATTEMPTS {
                    // Hardening: before giving up, one last max-TTL flood
                    // aimed at reaching the source (or any relay) past
                    // whatever localized damage swallowed the ring polls.
                    if ctx.cfg.hardened {
                        let version = ctx.cached_version(pending.item);
                        self.known_relay.remove(&pending.item);
                        ctx.phase(query, pending.item, SpanPhase::FallbackFlood, attempt);
                        ctx.flood(
                            BROADCAST_TTL,
                            ProtoMsg::Poll {
                                item: pending.item,
                                version,
                                span: Some(query.0),
                            },
                        );
                        ctx.degraded(pending.item, Some(query), DegradationKind::FallbackFlood);
                    }
                    // A relay may still be holding our poll until its next
                    // INVALIDATION; linger before giving up.
                    ctx.phase(query, pending.item, SpanPhase::Grace, 0);
                    ctx.set_timer(POLL_GRACE, Timer::PollGrace { query });
                    return;
                }
                match pending.kind {
                    Waiting::Poll => self.start_poll(ctx, query, pending.item, attempt + 1),
                    Waiting::Fetch => self.start_fetch(ctx, query, pending.item, attempt + 1),
                }
            }
            Timer::PollGrace { query } => {
                if self.pending.remove(query) {
                    ctx.fail(query);
                }
            }
            Timer::RelayHoldSweep => {
                let (hold, grace, now) = (RELAY_POLL_HOLD, ctx.cfg.relay_orphan_grace(), ctx.now);
                // One ascending pass drops polls held past `hold` and
                // finds every relay whose lease is orphaned; each resigns.
                let mut orphans = Vec::new();
                for (item, st) in self.roles.relays_mut() {
                    st.held_polls
                        .retain(|p| now.saturating_since(p.held_at) < hold);
                    if grace.is_some_and(|g| now.saturating_since(st.ttr_expiry) > g) {
                        orphans.push(item);
                    }
                }
                for item in orphans {
                    self.set_role(ctx, item, Edge::Resign);
                    cover_orphan(ctx, item);
                }
                ctx.set_timer(hold, Timer::RelayHoldSweep);
            }
            Timer::RetxSweep => {
                self.retx_sweep(ctx);
                // Re-arms itself like TTN, so it survives nothing — a
                // crash wipes it with the rest of the protocol state and
                // on_init re-arms it on the rebuilt instance.
                ctx.set_timer(RETX_TIMEOUT, Timer::RetxSweep);
            }
            Timer::PushWait { .. } => {}
        }
    }

    fn on_undeliverable(&mut self, ctx: &mut Ctx<'_>, dest: NodeId, msg: ProtoMsg) {
        match msg {
            // Source side: an unreachable relay peer leaves the table
            // (Section 4.5: "the destination peer of APPLY_ACK
            // unreachable ⇒ remove the peer").
            ProtoMsg::ApplyAck { .. } | ProtoMsg::Update { .. } | ProtoMsg::SendNew { .. } => {
                self.relay_table.remove(&dest);
                // Pending retransmits to an unreachable peer are moot.
                self.retx.drop_dest(dest);
            }
            // Retry at the next INVALIDATION.
            ProtoMsg::GetNew { item } if self.is_relay_for(item) => {
                self.set_role(ctx, item, Edge::ResyncLost);
            }
            ProtoMsg::Apply { item } => {
                // Re-apply at the next INVALIDATION, keeping the backoff count.
                if let Some(sent) = self.roles.apply_stamp_mut(item) {
                    *sent = None;
                }
            }
            ProtoMsg::Poll { item, .. } => {
                // Our remembered nearest relay is gone; re-discover by
                // flooding on the retry.
                self.known_relay.remove(&item);
            }
            ProtoMsg::Fetch { item, .. } => {
                for q in self.pending.take_item(item, |kind| kind == Waiting::Fetch) {
                    ctx.fail(q);
                }
            }
            _ => {}
        }
    }

    fn on_status_change(&mut self, ctx: &mut Ctx<'_>, up: bool) {
        self.coeffs.note_switch();
        if up && ctx.cfg.recovery.on && ctx.connected {
            recovery::flood_resync_digest(ctx, self.publishes);
        }
    }

    fn on_coefficient_tick(&mut self, ctx: &mut Ctx<'_>, moved: bool) {
        self.coeffs.tick(moved, ctx.energy_fraction);
        if self.coeffs.qualifies() {
            self.failing_ticks = 0;
            self.candidate = true;
        } else {
            self.failing_ticks = self.failing_ticks.saturating_add(1);
            if self.failing_ticks >= ctx.cfg.demote_grace_ticks
                && (self.candidate || self.roles.first().is_some())
            {
                self.candidate = false;
                self.demote(ctx);
            }
        }
    }

    fn relay_item_count(&self) -> usize {
        self.roles
            .iter()
            .filter(|(_, role)| matches!(role, ItemRole::Relay(_)))
            .count()
    }

    fn is_candidate(&self) -> bool {
        self.candidate
    }

    fn retx_high_water(&self) -> usize {
        self.retx.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp2p_sim::{SimDuration, SimRng};

    type Fixture = crate::protocol::fixture::Fixture<Rpcc>;

    /// The node-level position in the Fig. 5 state machine.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RelayRole {
        /// Ordinary cache node.
        CachePeer,
        /// Qualifies per Eq. 4.2.8, not yet approved for any item.
        Candidate,
        /// Approved relay peer for at least one item.
        Relay,
    }

    /// What only these tests read back from a protocol instance.
    impl Rpcc {
        fn tuner(&self) -> Option<&AdaptiveTuner> {
            self.tuner.as_ref()
        }

        fn role(&self) -> RelayRole {
            if self.relay_item_count() > 0 {
                RelayRole::Relay
            } else if self.candidate {
                RelayRole::Candidate
            } else {
                RelayRole::CachePeer
            }
        }

        /// Size of the source-side relay table for this node's own item.
        fn relay_table_len(&self) -> usize {
            self.relay_table.len()
        }
    }

    fn fixture(me: u32) -> Fixture {
        Fixture::new(me, 9, Rpcc::new)
    }

    /// Drives the node to candidate status via busy, stable periods.
    fn make_candidate(fx: &mut Fixture) {
        for _ in 0..5 {
            for _ in 0..10 {
                fx.proto.coeffs.note_access();
            }
            let out = fx.run(|p, ctx| p.on_coefficient_tick(ctx, false));
            assert!(out.is_empty());
        }
        assert!(fx.proto.is_candidate());
    }

    fn sends_of(out: &[crate::CtxOut]) -> Vec<(NodeId, ProtoMsg)> {
        out.iter()
            .filter_map(|o| match o {
                crate::CtxOut::Send { to, msg } => Some((*to, *msg)),
                _ => None,
            })
            .collect()
    }

    fn answers_of(out: &[crate::CtxOut]) -> Vec<(QueryId, Version)> {
        out.iter()
            .filter_map(|o| match o {
                crate::CtxOut::Answer { query, version, .. } => Some((*query, *version)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn weak_query_answers_immediately() {
        let mut fx = fixture(0);
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(1), ItemId::new(1), ConsistencyLevel::Weak));
        assert_eq!(answers_of(&out), vec![(QueryId(1), Version::INITIAL)]);
    }

    #[test]
    fn delta_query_with_fresh_ttp_answers_immediately() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx)); // grants TTP leases to warmed items
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(2), ItemId::new(1), ConsistencyLevel::Delta));
        assert_eq!(answers_of(&out).len(), 1);
    }

    #[test]
    fn strong_query_polls_even_with_fresh_ttp() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(3), ItemId::new(1), ConsistencyLevel::Strong));
        assert!(answers_of(&out).is_empty());
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Flood { msg: ProtoMsg::Poll { .. }, ttl } if *ttl == 2
        )));
    }

    #[test]
    fn delta_query_with_expired_ttp_polls() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        fx.now = SimTime::ZERO + SimDuration::from_mins(10); // past TTP=4min
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(4), ItemId::new(1), ConsistencyLevel::Delta));
        assert!(answers_of(&out).is_empty());
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Flood {
                msg: ProtoMsg::Poll { .. },
                ..
            }
        )));
    }

    #[test]
    fn poll_ack_a_answers_and_renews_ttp() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(5), ItemId::new(1), ConsistencyLevel::Strong));
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(7),
                ProtoMsg::PollAckA {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                    span: None,
                },
            )
        });
        assert_eq!(answers_of(&out), vec![(QueryId(5), Version::INITIAL)]);
        // TTP renewed: an immediate Δ query answers locally.
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(6), ItemId::new(1), ConsistencyLevel::Delta));
        assert_eq!(answers_of(&out).len(), 1);
    }

    #[test]
    fn poll_ack_b_refreshes_cache_before_answering() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(7), ItemId::new(1), ConsistencyLevel::Strong));
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(7),
                ProtoMsg::PollAckB {
                    item: ItemId::new(1),
                    version: Version::new(4),
                    content_bytes: 1_024,
                    span: None,
                },
            )
        });
        assert_eq!(answers_of(&out), vec![(QueryId(7), Version::new(4))]);
        assert_eq!(
            fx.cache.peek(ItemId::new(1)).unwrap().version,
            Version::new(4)
        );
    }

    #[test]
    fn poll_retry_escalates_then_fails() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(8), ItemId::new(1), ConsistencyLevel::Strong));
        // Attempt 1 timed out: retry with doubled TTL.
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(8),
                    attempt: 1,
                },
            )
        });
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Flood {
                ttl: 4,
                msg: ProtoMsg::Poll { .. }
            }
        )));
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(8),
                    attempt: 2,
                },
            )
        });
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Flood {
                ttl: 8,
                msg: ProtoMsg::Poll { .. }
            }
        )));
        // Final attempt exhausted: the query lingers in grace, then fails.
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(8),
                    attempt: 3,
                },
            )
        });
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::SetTimer {
                timer: Timer::PollGrace { query: QueryId(8) },
                ..
            }
        )));
        // A late answer during grace still completes the query.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(7),
                ProtoMsg::PollAckA {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                    span: None,
                },
            )
        });
        assert_eq!(answers_of(&out), vec![(QueryId(8), Version::INITIAL)]);
        // Grace firing after the answer is a no-op.
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::PollGrace { query: QueryId(8) }));
        assert!(out.is_empty());
    }

    #[test]
    fn grace_expiry_fails_unanswered_query() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(20), ItemId::new(1), ConsistencyLevel::Strong));
        for attempt in 1..=3 {
            let _ = fx.run(|p, ctx| {
                p.on_timer(
                    ctx,
                    Timer::PollRetry {
                        query: QueryId(20),
                        attempt,
                    },
                )
            });
        }
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::PollGrace { query: QueryId(20) }));
        assert!(out
            .iter()
            .any(|o| matches!(o, crate::CtxOut::Fail { query: QueryId(20) })));
    }

    #[test]
    fn source_answers_polls_for_own_item() {
        let mut fx = fixture(0);
        fx.own.update(); // v1
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(3),
                ProtoMsg::Poll {
                    item: ItemId::new(0),
                    version: Version::INITIAL,
                    span: None,
                },
            )
        });
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            sends[0],
            (to, ProtoMsg::PollAckB { version, .. }) if to == NodeId::new(3) && version == Version::new(1)
        ));
    }

    #[test]
    fn source_ttn_floods_invalidation_and_pushes_updates() {
        let mut fx = fixture(0);
        // Install a relay peer and a pending update.
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(4),
                ProtoMsg::Apply {
                    item: ItemId::new(0),
                },
            )
        });
        fx.own.update();
        let _ = fx.run(|p, ctx| p.on_source_update(ctx));
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::Ttn));
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Flood {
                ttl: 3,
                msg: ProtoMsg::Invalidation { .. }
            }
        )));
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(4) && matches!(m, ProtoMsg::Update { .. })));
        // TTN rescheduled.
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::SetTimer {
                timer: Timer::Ttn,
                ..
            }
        )));
    }

    #[test]
    fn apply_then_ack_promotes_to_relay() {
        let mut fx = fixture(0);
        make_candidate(&mut fx);
        // Candidate hears an INVALIDATION for its cached item D1 → APPLY.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::Invalidation {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                    seq: None,
                },
            )
        });
        assert!(sends_of(&out).iter().any(|(to, m)| *to == NodeId::new(1)
            && matches!(m, ProtoMsg::Apply { item } if *item == ItemId::new(1))));
        // Source acks: promotion.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                },
            )
        });
        assert!(
            out.iter()
                .all(|o| matches!(o, crate::CtxOut::Transition { .. })),
            "up-to-date new relay needs no GET_NEW"
        );
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Transition {
                kind: RelayTransitionKind::Promoted,
                ..
            }
        )));
        assert!(fx.proto.is_relay_for(ItemId::new(1)));
        assert_eq!(fx.proto.role(), RelayRole::Relay);
    }

    #[test]
    fn stale_new_relay_fetches_content() {
        let mut fx = fixture(0);
        make_candidate(&mut fx);
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(1),
                    version: Version::new(3),
                },
            )
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(_, m)| matches!(m, ProtoMsg::GetNew { item } if *item == ItemId::new(1))));
    }

    #[test]
    fn fresh_relay_answers_polls_stale_relay_holds_them() {
        let mut fx = fixture(0);
        make_candidate(&mut fx);
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                },
            )
        });
        // Fresh TTR: poll answered instantly.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(9),
                ProtoMsg::Poll {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                    span: None,
                },
            )
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(9) && matches!(m, ProtoMsg::PollAckA { .. })));
        // Let TTR lapse: poll is held.
        fx.now += SimDuration::from_mins(5);
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(9),
                ProtoMsg::Poll {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                    span: None,
                },
            )
        });
        let sends = sends_of(&out);
        assert!(
            !sends
                .iter()
                .any(|(_, m)| matches!(m, ProtoMsg::PollAckA { .. } | ProtoMsg::PollAckB { .. })),
            "stale relay must hold the poll, not answer it"
        );
        assert!(
            sends
                .iter()
                .any(|(to, m)| *to == NodeId::new(1) && matches!(m, ProtoMsg::GetNew { .. })),
            "stale relay resynchronises with the source when polled"
        );
        // The next INVALIDATION (same version) proves freshness: held poll
        // answered.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::Invalidation {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                    seq: None,
                },
            )
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(9) && matches!(m, ProtoMsg::PollAckA { .. })));
    }

    #[test]
    fn relay_missing_updates_resyncs_with_get_new() {
        let mut fx = fixture(0);
        make_candidate(&mut fx);
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                },
            )
        });
        // INVALIDATION advertises v2 while we hold v0 (missed UPDATEs).
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::Invalidation {
                    item: ItemId::new(1),
                    version: Version::new(2),
                    seq: None,
                },
            )
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(1) && matches!(m, ProtoMsg::GetNew { .. })));
        // SEND_NEW restores freshness.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::SendNew {
                    item: ItemId::new(1),
                    version: Version::new(2),
                    content_bytes: 1_024,
                },
            )
        });
        assert!(out.iter().all(|o| matches!(
            o,
            crate::CtxOut::Transition {
                kind: RelayTransitionKind::ResyncCompleted,
                ..
            } | crate::CtxOut::CopyInstalled { .. }
        )));
        assert!(out
            .iter()
            .any(|o| matches!(o, crate::CtxOut::Transition { .. })));
        assert_eq!(
            fx.cache.peek(ItemId::new(1)).unwrap().version,
            Version::new(2)
        );
        // Relay answers its own strong query instantly now.
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(9), ItemId::new(1), ConsistencyLevel::Strong));
        assert_eq!(answers_of(&out), vec![(QueryId(9), Version::new(2))]);
    }

    #[test]
    fn update_to_plain_cache_peer_triggers_cancel() {
        let mut fx = fixture(0);
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::Update {
                    item: ItemId::new(1),
                    version: Version::new(5),
                    content_bytes: 1_024,
                    seq: None,
                },
            )
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(1) && matches!(m, ProtoMsg::Cancel { .. })));
        assert_eq!(
            fx.cache.peek(ItemId::new(1)).unwrap().version,
            Version::new(5)
        );
    }

    #[test]
    fn update_to_candidate_promotes_without_ack() {
        let mut fx = fixture(0);
        make_candidate(&mut fx);
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::Update {
                    item: ItemId::new(1),
                    version: Version::new(1),
                    content_bytes: 1_024,
                    seq: None,
                },
            )
        });
        assert!(out.iter().all(|o| matches!(
            o,
            crate::CtxOut::Transition {
                kind: RelayTransitionKind::Promoted,
                ..
            } | crate::CtxOut::CopyInstalled { .. }
        )));
        assert!(out
            .iter()
            .any(|o| matches!(o, crate::CtxOut::Transition { .. })));
        assert!(
            fx.proto.is_relay_for(ItemId::new(1)),
            "Fig 6(d) 28-31: missed APPLY_ACK"
        );
    }

    #[test]
    fn demotion_cancels_all_relayed_items() {
        let mut fx = fixture(0);
        make_candidate(&mut fx);
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                },
            )
        });
        // Heavy churn: demotion needs `demote_grace_ticks` failing ticks.
        fx.proto.coeffs.note_switch();
        let first = fx.run(|p, ctx| {
            ctx.energy_fraction = 0.1;
            p.on_coefficient_tick(ctx, true)
        });
        assert!(
            sends_of(&first).is_empty(),
            "one failing tick is grace, not demotion"
        );
        assert!(fx.proto.is_relay_for(ItemId::new(1)));
        fx.proto.coeffs.note_switch();
        let out = fx.run(|p, ctx| {
            ctx.energy_fraction = 0.1;
            p.on_coefficient_tick(ctx, true)
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(1) && matches!(m, ProtoMsg::Cancel { .. })));
        assert_eq!(fx.proto.role(), RelayRole::CachePeer);
        assert_eq!(fx.proto.relay_item_count(), 0);
    }

    #[test]
    fn source_drops_unreachable_relay_from_table() {
        let mut fx = fixture(0);
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(4),
                ProtoMsg::Apply {
                    item: ItemId::new(0),
                },
            )
        });
        assert_eq!(fx.proto.relay_table_len(), 1);
        let _ = fx.run(|p, ctx| {
            p.on_undeliverable(
                ctx,
                NodeId::new(4),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(0),
                    version: Version::INITIAL,
                },
            )
        });
        assert_eq!(fx.proto.relay_table_len(), 0);
    }

    #[test]
    fn cache_miss_fetches_from_source() {
        let mut fx = fixture(0);
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(11), ItemId::new(5), ConsistencyLevel::Weak));
        assert!(sends_of(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(5) && matches!(m, ProtoMsg::Fetch { .. })));
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(5),
                ProtoMsg::FetchReply {
                    item: ItemId::new(5),
                    version: Version::new(1),
                    content_bytes: 1_024,
                    span: None,
                },
            )
        });
        assert_eq!(answers_of(&out), vec![(QueryId(11), Version::new(1))]);
        assert!(fx.cache.contains(ItemId::new(5)));
    }

    #[test]
    fn admission_cap_rejects_extra_relays() {
        let mut fx = fixture(0);
        fx.cfg.max_relays_per_item = Some(2);
        for peer in [4u32, 5] {
            let out = fx.run(|p, ctx| {
                p.on_message(
                    ctx,
                    NodeId::new(peer),
                    ProtoMsg::Apply {
                        item: ItemId::new(0),
                    },
                )
            });
            assert!(
                sends_of(&out)
                    .iter()
                    .any(|(_, m)| matches!(m, ProtoMsg::ApplyAck { .. })),
                "peer {peer} is under the cap and must be approved"
            );
        }
        assert_eq!(fx.proto.relay_table_len(), 2);
        // Third applicant: silently rejected.
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(6),
                ProtoMsg::Apply {
                    item: ItemId::new(0),
                },
            )
        });
        assert!(sends_of(&out).is_empty(), "a full table must not approve");
        assert_eq!(fx.proto.relay_table_len(), 2);
        // Existing member re-applying is re-approved (idempotent).
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(5),
                ProtoMsg::Apply {
                    item: ItemId::new(0),
                },
            )
        });
        assert!(sends_of(&out)
            .iter()
            .any(|(_, m)| matches!(m, ProtoMsg::ApplyAck { .. })));
    }

    #[test]
    fn adaptive_ttp_lease_reacts_to_poll_answers() {
        let mut fx = fixture(0);
        fx.cfg.adaptive = true;
        fx.proto = Rpcc::new(&fx.cfg, true);
        // Confirmations stretch the Δ-lease.
        for _ in 0..10 {
            let _ = fx.run(|p, ctx| {
                p.on_message(
                    ctx,
                    NodeId::new(7),
                    ProtoMsg::PollAckA {
                        item: ItemId::new(1),
                        version: Version::INITIAL,
                        span: None,
                    },
                )
            });
        }
        let stretched = fx.proto.tuner().unwrap().ttp_scale_of(ItemId::new(1));
        assert!(
            stretched > 1.0,
            "confirmed answers must stretch the lease, got {stretched}"
        );
        // One change collapses it.
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(7),
                ProtoMsg::PollAckB {
                    item: ItemId::new(1),
                    version: Version::new(2),
                    content_bytes: 64,
                    span: None,
                },
            )
        });
        let collapsed = fx.proto.tuner().unwrap().ttp_scale_of(ItemId::new(1));
        assert!(
            collapsed < stretched,
            "a changed answer must shrink the lease"
        );
    }

    #[test]
    fn adaptive_source_stretches_quiet_reports() {
        let mut fx = fixture(0);
        fx.cfg.adaptive = true;
        fx.proto = Rpcc::new(&fx.cfg, true);
        // Sparse updates: one every 6 minutes.
        for i in 1..=6u64 {
            fx.now = SimTime::from_millis(i * 360_000);
            fx.own.update();
            let _ = fx.run(|p, ctx| p.on_source_update(ctx));
        }
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::Ttn));
        let period = out
            .iter()
            .find_map(|o| match o {
                crate::CtxOut::SetTimer {
                    after,
                    timer: Timer::Ttn,
                } => Some(*after),
                _ => None,
            })
            .expect("TTN rescheduled");
        assert!(
            period > SimDuration::from_mins(2),
            "a quiet source must report less often than base TTN, got {period}"
        );
        assert!(
            period <= SimDuration::from_mins(8),
            "bounded by the adaptive span"
        );
    }

    #[test]
    fn own_item_queries_answer_from_master() {
        let mut fx = fixture(0);
        fx.own.update();
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(12), ItemId::new(0), ConsistencyLevel::Strong));
        assert_eq!(answers_of(&out), vec![(QueryId(12), Version::new(1))]);
    }

    /// Promotes the fixture to relay for D1 via APPLY_ACK.
    fn make_relay(fx: &mut Fixture) {
        make_candidate(fx);
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::ApplyAck {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                },
            )
        });
        assert!(fx.proto.is_relay_for(ItemId::new(1)));
    }

    #[test]
    fn orphaned_relay_lease_expires_with_self_cancel() {
        let mut fx = fixture(0);
        fx.cfg = fx.cfg.hardened();
        fx.proto = Rpcc::new(&fx.cfg, true);
        make_relay(&mut fx);
        let grace = fx.cfg.relay_orphan_grace().expect("hardened sets a grace");
        // Within lease + grace: the sweep leaves the relay alone.
        fx.now += Rpcc::relay_lease();
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RelayHoldSweep));
        assert!(fx.proto.is_relay_for(ItemId::new(1)));
        assert!(!out
            .iter()
            .any(|o| matches!(o, crate::CtxOut::Degraded { .. })));
        // Past the grace with no source contact: self-CANCEL demotion.
        fx.now += grace + SimDuration::from_secs(1);
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RelayHoldSweep));
        assert!(!fx.proto.is_relay_for(ItemId::new(1)));
        assert_eq!(fx.proto.role(), RelayRole::Candidate);
        assert!(
            sends_of(&out).iter().any(|(to, m)| *to == NodeId::new(1)
                && matches!(m, ProtoMsg::Cancel { item } if *item == ItemId::new(1))),
            "orphaned relay must tell the source it resigned"
        );
        assert!(
            out.iter().any(|o| matches!(
                o,
                crate::CtxOut::Degraded {
                    kind: DegradationKind::RelayLeaseExpired,
                    query: None,
                    ..
                }
            )),
            "lease expiry must surface as a degradation output"
        );
    }

    #[test]
    fn source_contact_keeps_renewing_the_relay_lease() {
        let mut fx = fixture(0);
        fx.cfg = fx.cfg.hardened();
        fx.proto = Rpcc::new(&fx.cfg, true);
        make_relay(&mut fx);
        // Invalidations keep arriving: even far past the original expiry
        // the lease stays alive.
        for _ in 0..5 {
            fx.now += SimDuration::from_mins(2);
            let _ = fx.run(|p, ctx| {
                p.on_message(
                    ctx,
                    NodeId::new(1),
                    ProtoMsg::Invalidation {
                        item: ItemId::new(1),
                        version: Version::INITIAL,
                        seq: None,
                    },
                )
            });
            let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RelayHoldSweep));
            assert!(
                !out.iter()
                    .any(|o| matches!(o, crate::CtxOut::Degraded { .. })),
                "a relay in contact with its source never orphans"
            );
        }
        assert!(fx.proto.is_relay_for(ItemId::new(1)));
    }

    #[test]
    fn exhausted_poll_falls_back_to_source_flood() {
        let mut fx = fixture(0);
        fx.cfg = fx.cfg.hardened();
        fx.proto = Rpcc::new(&fx.cfg, true);
        // Strong query on the cached (non-fresh) D1 starts a POLL.
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(5), ItemId::new(1), ConsistencyLevel::Strong));
        assert!(out.iter().any(|o| matches!(o, crate::CtxOut::Flood { .. })));
        // Exhaust every attempt without an answer.
        for attempt in 1..POLL_ATTEMPTS {
            let out = fx.run(|p, ctx| {
                p.on_timer(
                    ctx,
                    Timer::PollRetry {
                        query: QueryId(5),
                        attempt,
                    },
                )
            });
            assert!(
                !out.iter()
                    .any(|o| matches!(o, crate::CtxOut::Degraded { .. })),
                "no fallback before the attempts run out"
            );
        }
        let last_attempt = POLL_ATTEMPTS;
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(5),
                    attempt: last_attempt,
                },
            )
        });
        let fallback = out.iter().find_map(|o| match o {
            crate::CtxOut::Flood { ttl, msg } => Some((*ttl, *msg)),
            _ => None,
        });
        let (ttl, msg) = fallback.expect("exhaustion must trigger the fallback flood");
        assert_eq!(ttl, BROADCAST_TTL, "fallback goes out at max TTL");
        assert!(matches!(msg, ProtoMsg::Poll { item, .. } if item == ItemId::new(1)));
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Degraded {
                kind: DegradationKind::FallbackFlood,
                query: Some(QueryId(5)),
                ..
            }
        )));
        // The query lingers (PollGrace) rather than failing on the spot,
        // so a flood answer can still rescue it.
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::SetTimer {
                timer: Timer::PollGrace { query: QueryId(5) },
                ..
            }
        )));
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::PollAckB {
                    item: ItemId::new(1),
                    version: Version::new(2),
                    content_bytes: 1_024,
                    span: None,
                },
            )
        });
        assert_eq!(answers_of(&out), vec![(QueryId(5), Version::new(2))]);
    }

    #[test]
    fn hardened_poll_retries_back_off_exponentially() {
        let mut fx = fixture(0);
        fx.cfg = fx.cfg.hardened();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let timer_delay = |out: &[crate::CtxOut]| {
            out.iter()
                .find_map(|o| match o {
                    crate::CtxOut::SetTimer {
                        after,
                        timer: Timer::PollRetry { .. },
                    } => Some(*after),
                    _ => None,
                })
                .expect("poll schedules a retry timer")
        };
        // The exact delay of the `attempt`-th poll: doubled per prior
        // attempt, then stretched by the jitter the handler is about to
        // draw, read from a clone of the node's stream.
        let expected = |rng: &SimRng, attempt: i32| {
            let jitter = rng.clone().uniform_f64();
            POLL_TIMEOUT
                .mul_f64(2.0f64.powi(attempt - 1))
                .mul_f64(1.0 + 0.3 * jitter)
        };
        let want = expected(&fx.rng, 1);
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(6), ItemId::new(1), ConsistencyLevel::Strong));
        assert_eq!(timer_delay(&out), want);
        for attempt in 1..=2u8 {
            let want = expected(&fx.rng, i32::from(attempt) + 1);
            let out = fx.run(|p, ctx| {
                p.on_timer(
                    ctx,
                    Timer::PollRetry {
                        query: QueryId(6),
                        attempt,
                    },
                )
            });
            assert_eq!(timer_delay(&out), want);
        }
    }

    #[test]
    fn recovery_off_changes_nothing_on_the_wire() {
        let mut fx = fixture(0);
        let out = fx.run(|p, ctx| p.on_status_change(ctx, true));
        assert!(out.is_empty(), "rejoin is silent with recovery off");
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::Ttn));
        assert!(
            out.iter().all(|o| !matches!(
                o,
                crate::CtxOut::Flood {
                    msg: ProtoMsg::Invalidation { seq: Some(_), .. },
                    ..
                }
            )),
            "invalidations stay unstamped with recovery off"
        );
    }

    #[test]
    fn rejoin_resync_floods_a_sorted_digest() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let out = fx.run(|p, ctx| p.on_status_change(ctx, true));
        let digest = out
            .iter()
            .find_map(|o| match o {
                crate::CtxOut::Flood {
                    ttl,
                    msg: ProtoMsg::ResyncDigest { digest },
                } => {
                    assert_eq!(*ttl, recovery::RESYNC_TTL);
                    Some(*digest)
                }
                _ => None,
            })
            .expect("rejoin floods a version digest");
        // Cached D1 plus the own item D0, in ascending item order.
        assert_eq!(
            digest.entries(),
            &[
                (ItemId::new(0), Version::INITIAL),
                (ItemId::new(1), Version::INITIAL),
            ]
        );
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Recovery {
                action: RecoveryAction::ResyncStart { items: 2 }
            }
        )));
    }

    #[test]
    fn resync_digest_is_answered_with_newer_versions_only() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        fx.own.update(); // master D0 now at v1
                         // The rejoiner claims D0@v0 (older than our master) and D1@v0
                         // (same as our cached copy).
        let digest = VersionDigest::new(&[
            (ItemId::new(0), Version::INITIAL),
            (ItemId::new(1), Version::INITIAL),
        ]);
        let out =
            fx.run(|p, ctx| p.on_message(ctx, NodeId::new(7), ProtoMsg::ResyncDigest { digest }));
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        let (to, ProtoMsg::ResyncAck { digest }) = sends[0] else {
            panic!("expected a ResyncAck, got {:?}", sends[0]);
        };
        assert_eq!(to, NodeId::new(7));
        assert_eq!(digest.entries(), &[(ItemId::new(0), Version::new(1))]);
    }

    #[test]
    fn resync_ack_drops_stale_plain_copies() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let digest = VersionDigest::new(&[(ItemId::new(1), Version::new(3))]);
        let out =
            fx.run(|p, ctx| p.on_message(ctx, NodeId::new(7), ProtoMsg::ResyncAck { digest }));
        assert!(
            !fx.cache.contains(ItemId::new(1)),
            "a proven-stale plain copy must not survive the rejoin"
        );
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Recovery {
                action: RecoveryAction::ResyncDone { stale: 1 }
            }
        )));
    }

    #[test]
    fn seqd_update_acks_always_but_processes_once() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let update = ProtoMsg::Update {
            item: ItemId::new(1),
            version: Version::new(2),
            content_bytes: 1_024,
            seq: Some(9),
        };
        let out = fx.run(|p, ctx| p.on_message(ctx, NodeId::new(1), update));
        let sends = sends_of(&out);
        assert!(sends
            .iter()
            .any(|(to, m)| *to == NodeId::new(1)
                && matches!(m, ProtoMsg::DeliveryAck { seq: 9, .. })));
        assert!(
            sends
                .iter()
                .any(|(_, m)| matches!(m, ProtoMsg::Cancel { .. })),
            "first delivery is processed normally (plain peer cancels)"
        );
        // The duplicated frame is acked again but not re-processed.
        let out = fx.run(|p, ctx| p.on_message(ctx, NodeId::new(1), update));
        let sends = sends_of(&out);
        assert!(sends
            .iter()
            .any(|(_, m)| matches!(m, ProtoMsg::DeliveryAck { seq: 9, .. })));
        assert!(
            !sends
                .iter()
                .any(|(_, m)| matches!(m, ProtoMsg::Cancel { .. })),
            "a duplicate must be idempotent"
        );
    }

    /// Installs relay peer 4, updates the master and runs one TTN tick;
    /// returns the seq the pushed UPDATE was stamped with.
    fn push_one_acked_update(fx: &mut Fixture) -> u64 {
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(4),
                ProtoMsg::Apply {
                    item: ItemId::new(0),
                },
            )
        });
        fx.own.update();
        let _ = fx.run(|p, ctx| p.on_source_update(ctx));
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::Ttn));
        sends_of(&out)
            .iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Update { seq, .. } => *seq,
                _ => None,
            })
            .expect("acked delivery stamps pushed updates")
    }

    #[test]
    fn unacked_update_retransmits_then_gives_up() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let _seq = push_one_acked_update(&mut fx);
        // No ack: each sweep past the deadline retransmits once...
        for attempt in 1..=RETX_ATTEMPTS {
            fx.now += RETX_TIMEOUT + SimDuration::from_secs(1);
            let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RetxSweep));
            assert!(
                out.iter().any(|o| matches!(
                    o,
                    crate::CtxOut::Recovery {
                        action: RecoveryAction::Retransmit { attempt: a, .. }
                    } if *a == attempt
                )),
                "sweep {attempt} must retransmit"
            );
        }
        // ...until the attempts run out and the entry is abandoned.
        fx.now += RETX_TIMEOUT + SimDuration::from_secs(1);
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RetxSweep));
        assert!(
            !out.iter()
                .any(|o| matches!(o, crate::CtxOut::Recovery { .. })),
            "an exhausted entry must not retransmit forever"
        );
        assert_eq!(fx.proto.retx_high_water(), 1);
    }

    #[test]
    fn delivery_ack_clears_the_retransmit_entry() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let seq = push_one_acked_update(&mut fx);
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(4),
                ProtoMsg::DeliveryAck {
                    item: ItemId::new(0),
                    seq,
                },
            )
        });
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Recovery {
                action: RecoveryAction::AckReceived { .. }
            }
        )));
        // The sweep has nothing left to resend.
        fx.now += RETX_TIMEOUT + RETX_TIMEOUT;
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RetxSweep));
        assert!(
            !out.iter().any(|o| matches!(
                o,
                crate::CtxOut::Send { .. } | crate::CtxOut::Recovery { .. }
            )),
            "an acked entry must not be retransmitted"
        );
    }

    #[test]
    fn lease_expiry_requests_handover_instead_of_degrading() {
        let mut fx = fixture(0);
        fx.cfg = fx.cfg.hardened();
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        make_relay(&mut fx);
        let grace = fx.cfg.relay_orphan_grace().expect("hardened sets a grace");
        fx.now += Rpcc::relay_lease() + grace + SimDuration::from_secs(1);
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::RelayHoldSweep));
        assert!(!fx.proto.is_relay_for(ItemId::new(1)));
        assert!(
            !out.iter()
                .any(|o| matches!(o, crate::CtxOut::Degraded { .. })),
            "with handover on, expiry defers degradation to the driver"
        );
        assert!(out.iter().any(|o| matches!(
            o,
            crate::CtxOut::Recovery {
                action: RecoveryAction::HandoverRequest { item, .. }
            } if *item == ItemId::new(1)
        )));
    }

    /// An item has one role: a handover that lands while an APPLY is
    /// outstanding ends the application, so once the handed-over lease is
    /// orphaned the next INVALIDATION applies again at once instead of
    /// waiting out the first APPLY's backoff gap (≥ 4 min here).
    #[test]
    fn a_handover_ends_the_application_it_overtook() {
        let mut fx = fixture(0);
        fx.cfg = fx.cfg.hardened();
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        make_candidate(&mut fx);
        let item = ItemId::new(1);
        let invalidation = ProtoMsg::Invalidation {
            item,
            version: Version::INITIAL,
            seq: None,
        };
        let applies = |out: &[crate::CtxOut]| {
            sends_of(out)
                .iter()
                .filter(|(_, m)| matches!(m, ProtoMsg::Apply { .. }))
                .count()
        };
        let out = fx.run(|p, ctx| p.on_message(ctx, NodeId::new(1), invalidation));
        assert_eq!(applies(&out), 1);
        let handover = ProtoMsg::Handover {
            item,
            version: Version::INITIAL,
        };
        let _ = fx.run(|p, ctx| p.on_message(ctx, NodeId::new(9), handover));
        assert!(
            fx.proto.is_relay_for(item),
            "handed over before the APPLY_ACK"
        );
        let grace = fx.cfg.relay_orphan_grace().expect("hardened sets a grace");
        fx.now += Rpcc::relay_lease() + grace + SimDuration::from_secs(1);
        let _ = fx.run(|p, ctx| p.on_timer(ctx, Timer::RelayHoldSweep));
        assert_eq!(fx.proto.role(), RelayRole::Candidate);
        let out = fx.run(|p, ctx| p.on_message(ctx, NodeId::new(1), invalidation));
        assert_eq!(
            applies(&out),
            1,
            "no stale APPLY stamp survives the relay role"
        );
    }

    #[test]
    fn handover_recipient_adopts_the_relay_role() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(9),
                ProtoMsg::Handover {
                    item: ItemId::new(1),
                    version: Version::INITIAL,
                },
            )
        });
        assert!(fx.proto.is_relay_for(ItemId::new(1)));
        assert!(
            sends_of(&out)
                .iter()
                .any(|(to, m)| *to == NodeId::new(1) && matches!(m, ProtoMsg::Apply { .. })),
            "the successor must introduce itself to the source"
        );
        // A strong query is now answered locally from the adopted lease.
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(30), ItemId::new(1), ConsistencyLevel::Strong));
        assert_eq!(answers_of(&out), vec![(QueryId(30), Version::INITIAL)]);
    }

    /// Where D1 stands before and after an edge: a table row's "from" or
    /// "to", with a relay's resync flag spelled out.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Stand {
        Copy,
        Applying,
        Relay,
        Resyncing,
    }

    fn stand_of(proto: &Rpcc) -> Stand {
        match proto.roles.get(ItemId::new(1)) {
            None => Stand::Copy,
            Some(ItemRole::Applying { .. }) => Stand::Applying,
            Some(ItemRole::Relay(st)) if st.resyncing() => Stand::Resyncing,
            Some(ItemRole::Relay(_)) => Stand::Relay,
        }
    }

    /// A fixture whose cached D1 (at `Version::INITIAL`) stands at
    /// `stand`, written directly rather than through `set_role`.
    fn standing_at(stand: Stand) -> Fixture {
        let mut fx = fixture(0);
        let relay = match stand {
            Stand::Copy => return fx,
            Stand::Applying => None,
            Stand::Relay => Some(false),
            Stand::Resyncing => Some(true),
        };
        fx.proto.roles.stand_at(ItemId::new(1), relay);
        fx
    }

    /// The module docs' table, row by row: every legal `(edge, from)`
    /// pair emits exactly its sends and journal records, in order, and
    /// lands where the table says — the silent rows included.
    #[test]
    fn every_fig5_edge_emits_its_table_row() {
        use RelayTransitionKind::*;
        use Stand::*;
        let item = ItemId::new(1);
        let send = |msg| crate::CtxOut::Send {
            to: item.source_host(),
            msg,
        };
        let journal = |kind| crate::CtxOut::Transition { item, kind };
        let applied = vec![send(ProtoMsg::Apply { item }), journal(ApplySent)];
        let resynced = vec![send(ProtoMsg::GetNew { item }), journal(ResyncStarted)];
        let resigned = vec![send(ProtoMsg::Cancel { item }), journal(Demoted)];
        let completed = vec![journal(ResyncCompleted)];
        let promoted = vec![journal(Promoted)];
        let lagged = [resynced.clone(), promoted.clone()].concat();
        let silent = vec![];
        let mut rows = vec![
            (Edge::Apply { attempts: 1 }, Copy, Applying, &applied),
            (Edge::Apply { attempts: 2 }, Applying, Applying, &applied),
            (Edge::Resync, Relay, Resyncing, &resynced),
            (Edge::Resync, Resyncing, Resyncing, &silent),
            (Edge::Confirm, Resyncing, Relay, &completed),
            (Edge::Confirm, Relay, Relay, &silent),
            (Edge::ResyncLost, Relay, Relay, &silent),
            (Edge::ResyncLost, Resyncing, Relay, &silent),
            (Edge::Resign, Relay, Copy, &resigned),
            (Edge::Resign, Resyncing, Copy, &resigned),
            (Edge::Withdraw, Applying, Copy, &silent),
        ];
        // D1 is cached at `Version::INITIAL`: a promotion at version 3 lags.
        for from in [Copy, Applying, Relay, Resyncing] {
            let version = Version::INITIAL;
            rows.push((Edge::Promote { version }, from, Relay, &promoted));
            let version = Version::new(3);
            rows.push((Edge::Promote { version }, from, Resyncing, &lagged));
        }
        for (edge, from, to, records) in rows {
            let mut fx = standing_at(from);
            let out = fx.run(|p, ctx| p.set_role(ctx, item, edge));
            assert_eq!(&out, records, "{edge:?} from {from:?}");
            assert_eq!(stand_of(&fx.proto), to, "{edge:?} from {from:?}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Fig. 5 has no Resign from None")]
    fn an_edge_the_table_lacks_fails_the_debug_assert() {
        let mut fx = standing_at(Stand::Copy);
        let _ = fx.run(|p, ctx| p.set_role(ctx, ItemId::new(1), Edge::Resign));
    }

    /// Re-adoption, pinned as it stands: the source acks the APPLY a
    /// handover recipient sends, and that second APPLY_ACK journals
    /// `promoted` again for an item the node already relays.
    #[test]
    fn a_handover_then_its_apply_ack_journals_promoted_twice() {
        let mut fx = fixture(0);
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = Rpcc::new(&fx.cfg, true);
        let (item, version) = (ItemId::new(1), Version::INITIAL);
        let handover = ProtoMsg::Handover { item, version };
        let mut out = fx.run(|p, ctx| p.on_message(ctx, NodeId::new(9), handover));
        let ack = ProtoMsg::ApplyAck { item, version };
        out.extend(fx.run(|p, ctx| p.on_message(ctx, NodeId::new(1), ack)));
        let records: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                crate::CtxOut::Transition { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        use RelayTransitionKind::Promoted;
        assert_eq!(records, [Promoted, Promoted]);
        assert!(fx.proto.is_relay_for(item));
    }
}
