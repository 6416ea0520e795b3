//! The simple push baseline (Lan et al. [Lan03], Section 2/5).
//!
//! Every source floods an `INVALIDATION` with the *baseline* TTL
//! (`TTL_BR` = 8 hops, Table 1) every `TTN`. Queries wait for the next
//! invalidation report covering their item before answering — the classic
//! IR discipline ([Bar94]) that gives push its strong consistency and its
//! multi-ten-second latency ("the average query latency is longer than
//! half of the invalidation interval", Section 5.2). A report that
//! reveals the copy stale while queries wait on it triggers a content
//! fetch from the source. Larger caches mean each item is queried (and
//! so validated) less often, raising the per-query staleness probability
//! — the reason push traffic grows with the cache size in Fig. 7(c).

use mp2p_metrics::{ServedBy, SpanPhase};
use mp2p_sim::{FastMap, ItemId, NodeId};

use crate::config::{ProtocolConfig, FETCH_TIMEOUT, POLL_ATTEMPTS, PUSH_WAIT_TIMEOUT};
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::pending::{PendingTable, Waiting};
use crate::protocol::{Ctx, Protocol, QueryId, Timer};
use crate::recovery::{self, RecoveryAction};

/// The push-based baseline strategy. One instance per node; see the
/// module docs for its semantics.
#[derive(Debug, Clone)]
pub struct SimplePush {
    publishes: bool,
    /// Queries waiting for the next invalidation report, per item.
    waiting: FastMap<ItemId, Vec<QueryId>>,
    /// Queries waiting for a FETCH_REPLY.
    pending_fetch: PendingTable,
    /// True while a refresh fetch for the item is already in flight
    /// (avoids duplicate fetches when reports repeat).
    fetch_in_flight: FastMap<ItemId, bool>,
}

impl SimplePush {
    /// Creates the baseline state for one node.
    pub fn new(_cfg: &ProtocolConfig, publishes: bool) -> Self {
        SimplePush {
            publishes,
            waiting: FastMap::default(),
            pending_fetch: PendingTable::default(),
            fetch_in_flight: FastMap::default(),
        }
    }

    fn start_fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: Option<QueryId>,
        item: ItemId,
        attempt: u8,
    ) {
        let in_flight = self.fetch_in_flight.entry(item).or_insert(false);
        if !*in_flight {
            *in_flight = true;
            let span = query.map(|q| q.0);
            ctx.send(item.source_host(), ProtoMsg::Fetch { item, span });
        }
        if let Some(q) = query {
            ctx.phase(q, item, SpanPhase::Fetch, attempt);
            self.pending_fetch
                .insert(ctx, q, item, Waiting::Fetch, attempt, FETCH_TIMEOUT);
        }
    }

    /// Releases queries on `item`; `vouched_by` attributes the *waiting*
    /// queries (their cached copy was validated by a report, or refreshed
    /// by a fetch). Fetch-blocked queries are always served fresh source
    /// content.
    fn answer_all_for(&mut self, ctx: &mut Ctx<'_>, item: ItemId, vouched_by: ServedBy) {
        let Some(entry) = ctx.cache.peek(item).copied() else {
            return;
        };
        if let Some(waiting) = self.waiting.remove(&item) {
            for q in waiting {
                ctx.answer(q, entry.version, vouched_by);
            }
        }
        for q in self.pending_fetch.take_item(item, |_| true) {
            ctx.answer(q, entry.version, ServedBy::Source);
        }
    }
}

impl Protocol for SimplePush {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        if self.publishes {
            ctx.stagger_ttn();
        }
    }

    fn on_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: QueryId,
        item: ItemId,
        _level: ConsistencyLevel,
    ) {
        if ctx.answer_own(query, item) {
            return;
        }
        if ctx.cache.touch(item).is_none() {
            self.start_fetch(ctx, Some(query), item, 1);
            return;
        }
        // IR discipline: hold the query until the next invalidation report
        // (or the fallback timeout) regardless of the requested level.
        ctx.phase(query, item, SpanPhase::PushWait, 0);
        self.waiting.entry(item).or_default().push(query);
        ctx.set_timer(PUSH_WAIT_TIMEOUT, Timer::PushWait { query });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Invalidation { item, version, .. } => {
                let Some(entry) = ctx.cache.peek(item).copied() else {
                    return;
                };
                if entry.version >= version {
                    // Report confirms freshness: release waiting queries.
                    self.answer_all_for(ctx, item, ServedBy::Cache);
                } else {
                    ctx.cache.mark_stale(item);
                    // Fetch on demand: only queries actually waiting on
                    // this item pull the new content (the report itself is
                    // the push; content moves when someone needs it).
                    if self.waiting.get(&item).is_some_and(|qs| !qs.is_empty()) {
                        self.start_fetch(ctx, None, item, 1);
                    }
                }
            }
            ProtoMsg::Fetch { item, span } if self.publishes && item == ctx.own_item.id() => {
                ctx.reply_to_fetch(from, span);
            }
            ProtoMsg::FetchReply {
                item,
                version,
                content_bytes,
                ..
            } => {
                ctx.install_copy(item, version, content_bytes);
                self.fetch_in_flight.insert(item, false);
                self.answer_all_for(ctx, item, ServedBy::Source);
            }
            ProtoMsg::ResyncDigest { digest } => {
                let publishes = self.publishes;
                recovery::answer_resync_digest(ctx, from, &digest, |ctx, item, _| {
                    recovery::held_version(ctx, publishes, item)
                });
            }
            ProtoMsg::ResyncAck { digest } if ctx.cfg.recovery.on => {
                let mut stale = 0u32;
                for &(item, version) in digest.entries() {
                    // Nothing outranks the master copy.
                    let stale_copy = ctx.cache.peek(item).is_some_and(|e| e.version < version);
                    if stale_copy && item != ctx.own_item.id() {
                        stale += 1;
                        // Drop the stale copy; waiting queries recover
                        // through the PushWait fallback fetch.
                        ctx.cache.remove(item);
                        self.fetch_in_flight.insert(item, false);
                    }
                }
                ctx.recovery(RecoveryAction::ResyncDone { stale });
            }
            _ => {} // push uses no other message types
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer {
            Timer::Ttn => ctx.flood_report(self.publishes),
            Timer::PushWait { query } => {
                // The report never came (partition / out of flood range):
                // fall back to a direct fetch.
                let item = self.waiting.iter_mut().find_map(|(&item, qs)| {
                    let before = qs.len();
                    qs.retain(|&q| q != query);
                    (qs.len() != before).then_some(item)
                });
                if let Some(item) = item {
                    // Force a fresh fetch even if one already completed.
                    self.fetch_in_flight.insert(item, false);
                    self.start_fetch(ctx, Some(query), item, 1);
                }
            }
            Timer::PollRetry { query, attempt } => {
                let Some(pending) = self.pending_fetch.due(query, attempt) else {
                    return;
                };
                if attempt >= POLL_ATTEMPTS {
                    self.pending_fetch.remove(query);
                    ctx.fail(query);
                    return;
                }
                self.fetch_in_flight.insert(pending.item, false);
                self.start_fetch(ctx, Some(query), pending.item, attempt + 1);
            }
            Timer::RelayHoldSweep | Timer::PollGrace { .. } | Timer::RetxSweep => {}
        }
    }

    fn on_undeliverable(&mut self, ctx: &mut Ctx<'_>, _dest: NodeId, msg: ProtoMsg) {
        if let ProtoMsg::Fetch { item, .. } = msg {
            self.fetch_in_flight.insert(item, false);
            for q in self.pending_fetch.take_item(item, |_| true) {
                ctx.fail(q);
            }
        }
    }

    fn on_status_change(&mut self, ctx: &mut Ctx<'_>, up: bool) {
        if up && ctx.cfg.recovery.on && ctx.connected {
            recovery::flood_resync_digest(ctx, self.publishes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::fixture::Fixture;
    use crate::recovery::VersionDigest;
    use crate::CtxOut;
    use mp2p_cache::Version;

    fn fixture() -> Fixture<SimplePush> {
        Fixture::new(0, 3, SimplePush::new)
    }

    #[test]
    fn queries_wait_for_invalidation_report() {
        let mut fx = fixture();
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(1), ItemId::new(1), ConsistencyLevel::Strong));
        assert!(
            out.iter().all(|o| !matches!(o, CtxOut::Answer { .. })),
            "push must not answer before the report"
        );
        // Fresh report releases the query.
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
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Answer {
                query: QueryId(1),
                ..
            }
        )));
    }

    #[test]
    fn stale_report_triggers_fetch_then_answer() {
        let mut fx = fixture();
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(2), ItemId::new(1), ConsistencyLevel::Strong));
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
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Send { to, msg: ProtoMsg::Fetch { .. } } if *to == NodeId::new(1)
        )));
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::FetchReply {
                    item: ItemId::new(1),
                    version: Version::new(2),
                    content_bytes: 1_024,
                    span: None,
                },
            )
        });
        assert!(out
            .iter()
            .any(|o| matches!(o, CtxOut::Answer { query: QueryId(2), version, .. } if *version == Version::new(2))));
        assert_eq!(
            fx.cache.peek(ItemId::new(1)).unwrap().version,
            Version::new(2)
        );
    }

    #[test]
    fn source_floods_with_baseline_ttl() {
        let mut fx = fixture();
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::Ttn));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Flood {
                ttl: 8,
                msg: ProtoMsg::Invalidation { .. }
            }
        )));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::SetTimer {
                timer: Timer::Ttn,
                ..
            }
        )));
    }

    #[test]
    fn push_wait_timeout_falls_back_to_fetch() {
        let mut fx = fixture();
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(3), ItemId::new(1), ConsistencyLevel::Strong));
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::PushWait { query: QueryId(3) }));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Send {
                msg: ProtoMsg::Fetch { .. },
                ..
            }
        )));
    }

    #[test]
    fn unreachable_source_fails_fetch_queries() {
        let mut fx = fixture();
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(4), ItemId::new(5), ConsistencyLevel::Weak));
        let out = fx.run(|p, ctx| {
            p.on_undeliverable(
                ctx,
                NodeId::new(5),
                ProtoMsg::Fetch {
                    item: ItemId::new(5),
                    span: None,
                },
            )
        });
        assert!(out
            .iter()
            .any(|o| matches!(o, CtxOut::Fail { query: QueryId(4) })));
    }

    #[test]
    fn stale_report_without_waiters_marks_but_does_not_fetch() {
        let mut fx = fixture();
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::Invalidation {
                    item: ItemId::new(1),
                    version: Version::new(1),
                    seq: None,
                },
            )
        });
        assert!(
            out.iter().all(|o| !matches!(
                o,
                CtxOut::Send {
                    msg: ProtoMsg::Fetch { .. },
                    ..
                }
            )),
            "content moves on demand, not per report"
        );
        assert!(fx.cache.peek(ItemId::new(1)).unwrap().stale);
    }

    #[test]
    fn rejoin_resync_floods_digest_and_drops_stale_copies() {
        let mut fx = fixture();
        fx.cfg.recovery = crate::RecoveryConfig::on();
        fx.proto = SimplePush::new(&fx.cfg, true);
        let out = fx.run(|p, ctx| p.on_status_change(ctx, true));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Flood {
                msg: ProtoMsg::ResyncDigest { .. },
                ..
            }
        )));
        // A neighbour proves the cached D1 stale: the copy is dropped.
        let digest = VersionDigest::new(&[(ItemId::new(1), Version::new(4))]);
        let out =
            fx.run(|p, ctx| p.on_message(ctx, NodeId::new(7), ProtoMsg::ResyncAck { digest }));
        assert!(!fx.cache.contains(ItemId::new(1)));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Recovery {
                action: RecoveryAction::ResyncDone { stale: 1 }
            }
        )));
    }
}
