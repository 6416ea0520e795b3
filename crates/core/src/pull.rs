//! The simple pull baseline (Lan et al. [Lan03], Section 2/5).
//!
//! "Each time when a query request comes, the cache node [has] to poll
//! the source host to [validate] the status of the data items it caches"
//! (Section 5.1). The poll is a `TTL_BR` = 8-hop flood (the baselines
//! have no relay infrastructure to narrow it); the source answers with a
//! unicast `POLL_ACK_A`/`POLL_ACK_B`. On-demand polling gives pull its
//! short latency (Fig. 8) and its dominating traffic (Fig. 7).

use mp2p_cache::Version;
use mp2p_sim::{FastMap, ItemId, NodeId};
use mp2p_trace::{ServedBy, SpanPhase};

use crate::config::ProtocolConfig;
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::protocol::{Ctx, Protocol, QueryId, Timer};

#[derive(Debug, Clone, Copy)]
struct PendingPoll {
    item: ItemId,
    attempt: u8,
}

/// The pull-based baseline strategy. One instance per node; see the
/// module docs for its semantics.
#[derive(Debug, Clone)]
pub struct SimplePull {
    publishes: bool,
    pending: FastMap<QueryId, PendingPoll>,
}

impl SimplePull {
    /// Creates the baseline state for one node.
    pub fn new(_cfg: &ProtocolConfig, publishes: bool) -> Self {
        SimplePull {
            publishes,
            pending: FastMap::default(),
        }
    }

    fn start_poll(&mut self, ctx: &mut Ctx<'_>, query: QueryId, item: ItemId, attempt: u8) {
        let version = ctx
            .cache
            .peek(item)
            .map(|e| e.version)
            .unwrap_or(Version::INITIAL);
        ctx.phase(query, item, SpanPhase::PollFlood, attempt);
        ctx.flood(
            ctx.cfg.broadcast_ttl,
            ProtoMsg::Poll {
                item,
                version,
                span: Some(query.0),
            },
        );
        self.pending.insert(query, PendingPoll { item, attempt });
        let delay = ctx.cfg.retry_delay(ctx.cfg.poll_timeout, attempt, ctx.rng);
        ctx.set_timer(delay, Timer::PollRetry { query, attempt });
    }

    fn answer_pending_for(&mut self, ctx: &mut Ctx<'_>, item: ItemId, version: Version) {
        let mut queries: Vec<QueryId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.item == item)
            .map(|(&q, _)| q)
            .collect();
        // Map iteration order is arbitrary: sort for determinism.
        queries.sort_unstable();
        for q in queries {
            self.pending.remove(&q);
            // Only the source host answers polls in simple pull.
            ctx.answer(q, version, ServedBy::Source);
        }
    }
}

impl Protocol for SimplePull {
    fn on_init(&mut self, _ctx: &mut Ctx<'_>) {
        // Pull is purely reactive: no periodic machinery.
    }

    fn on_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: QueryId,
        item: ItemId,
        _level: ConsistencyLevel,
    ) {
        if item == ctx.own_item.id() {
            let version = ctx.own_item.version();
            ctx.answer(query, version, ServedBy::Source);
            return;
        }
        ctx.cache.touch(item);
        // Every query polls, whatever the level (the baseline has no
        // freshness lease to rely on).
        self.start_poll(ctx, query, item, 1);
    }

    fn on_source_update(&mut self, _ctx: &mut Ctx<'_>) {
        // The next poll will observe the new version.
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Poll { item, version, span }
                // Only the source host answers polls in simple pull.
                if self.publishes && item == ctx.own_item.id() => {
                    let master = ctx.own_item.version();
                    if version >= master {
                        ctx.send(from, ProtoMsg::PollAckA { item, version, span });
                    } else {
                        ctx.send(
                            from,
                            ProtoMsg::PollAckB {
                                item,
                                version: master,
                                content_bytes: ctx.own_item.size_bytes(),
                                span,
                            },
                        );
                    }
                }
            ProtoMsg::PollAckA { item, version, .. } => {
                self.answer_pending_for(ctx, item, version);
            }
            ProtoMsg::PollAckB { item, version, content_bytes, .. } => {
                if !ctx.cache.refresh(item, version, ctx.now) {
                    ctx.cache.insert(item, version, content_bytes, ctx.now);
                }
                ctx.note_copy(item, version);
                self.answer_pending_for(ctx, item, version);
            }
            _ => {} // pull uses no other message types
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        if let Timer::PollRetry { query, attempt } = timer {
            let Some(pending) = self.pending.get(&query).copied() else {
                return;
            };
            if attempt != pending.attempt {
                return;
            }
            if attempt >= ctx.cfg.poll_attempts {
                self.pending.remove(&query);
                ctx.fail(query);
                return;
            }
            self.start_poll(ctx, query, pending.item, attempt + 1);
        }
    }

    fn on_undeliverable(&mut self, _ctx: &mut Ctx<'_>, _dest: NodeId, _msg: ProtoMsg) {
        // Poll answers are fire-and-forget; the poller's retry recovers.
    }

    fn on_status_change(&mut self, _ctx: &mut Ctx<'_>, _up: bool) {}

    fn on_coefficient_tick(&mut self, _ctx: &mut Ctx<'_>, _moved: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtxOut;
    use mp2p_cache::{CacheStore, DataItem};
    use mp2p_sim::{SimRng, SimTime};

    struct Fixture {
        cache: CacheStore,
        own: DataItem,
        rng: SimRng,
        cfg: ProtocolConfig,
        proto: SimplePull,
        now: SimTime,
    }

    impl Fixture {
        fn new() -> Self {
            let cfg = ProtocolConfig::default();
            let mut cache = CacheStore::new(10);
            cache.insert(ItemId::new(1), Version::INITIAL, 1_024, SimTime::ZERO);
            Fixture {
                cache,
                own: DataItem::new(ItemId::new(0), 1_024),
                rng: SimRng::from_seed(5, 0),
                cfg,
                proto: SimplePull::new(&cfg, true),
                now: SimTime::ZERO,
            }
        }

        fn run<F: FnOnce(&mut SimplePull, &mut Ctx<'_>)>(&mut self, f: F) -> Vec<CtxOut> {
            let mut proto = self.proto.clone();
            let mut ctx = Ctx::new(
                self.now,
                NodeId::new(0),
                &mut self.cache,
                &mut self.own,
                &mut self.rng,
                &self.cfg,
                1.0,
                true,
            );
            f(&mut proto, &mut ctx);
            let out = ctx.take_outputs();
            self.proto = proto;
            out
        }
    }

    #[test]
    fn every_query_floods_a_poll_with_baseline_ttl() {
        let mut fx = Fixture::new();
        for level in [
            ConsistencyLevel::Weak,
            ConsistencyLevel::Delta,
            ConsistencyLevel::Strong,
        ] {
            let out = fx.run(|p, ctx| {
                p.on_query(ctx, QueryId(level.index() as u64), ItemId::new(1), level)
            });
            assert!(
                out.iter().any(|o| matches!(
                    o,
                    CtxOut::Flood {
                        ttl: 8,
                        msg: ProtoMsg::Poll { .. }
                    }
                )),
                "pull must flood-poll for {level}"
            );
            assert!(out.iter().all(|o| !matches!(o, CtxOut::Answer { .. })));
        }
    }

    #[test]
    fn source_answers_stale_poll_with_content() {
        let mut fx = Fixture::new();
        fx.own.update();
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(2),
                ProtoMsg::Poll {
                    item: ItemId::new(0),
                    version: Version::INITIAL,
                    span: None,
                },
            )
        });
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Send { to, msg: ProtoMsg::PollAckB { version, .. } }
                if *to == NodeId::new(2) && *version == Version::new(1)
        )));
    }

    #[test]
    fn ack_answers_the_pending_query() {
        let mut fx = Fixture::new();
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(9), ItemId::new(1), ConsistencyLevel::Strong));
        let out = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(1),
                ProtoMsg::PollAckB {
                    item: ItemId::new(1),
                    version: Version::new(3),
                    content_bytes: 1_024,
                    span: None,
                },
            )
        });
        assert!(out
            .iter()
            .any(|o| matches!(o, CtxOut::Answer { query: QueryId(9), version, .. } if *version == Version::new(3))));
        assert_eq!(
            fx.cache.peek(ItemId::new(1)).unwrap().version,
            Version::new(3)
        );
    }

    #[test]
    fn retries_then_fails() {
        let mut fx = Fixture::new();
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(4), ItemId::new(1), ConsistencyLevel::Strong));
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(4),
                    attempt: 1,
                },
            )
        });
        assert!(
            out.iter().any(|o| matches!(o, CtxOut::Flood { .. })),
            "retry re-polls"
        );
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(4),
                    attempt: 2,
                },
            )
        });
        assert!(out.iter().any(|o| matches!(o, CtxOut::Flood { .. })));
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(4),
                    attempt: 3,
                },
            )
        });
        assert!(out
            .iter()
            .any(|o| matches!(o, CtxOut::Fail { query: QueryId(4) })));
    }

    #[test]
    fn stale_retry_timers_are_ignored() {
        let mut fx = Fixture::new();
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(5), ItemId::new(1), ConsistencyLevel::Strong));
        let _ = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(5),
                    attempt: 1,
                },
            )
        });
        // The attempt-1 timer firing again (duplicate) must be a no-op.
        let out = fx.run(|p, ctx| {
            p.on_timer(
                ctx,
                Timer::PollRetry {
                    query: QueryId(5),
                    attempt: 1,
                },
            )
        });
        assert!(out.is_empty());
    }

    #[test]
    fn uncached_item_poll_acquires_content() {
        let mut fx = Fixture::new();
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(6), ItemId::new(7), ConsistencyLevel::Weak));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Flood { msg: ProtoMsg::Poll { version, .. }, .. } if *version == Version::INITIAL
        )));
        let _ = fx.run(|p, ctx| {
            p.on_message(
                ctx,
                NodeId::new(7),
                ProtoMsg::PollAckB {
                    item: ItemId::new(7),
                    version: Version::new(2),
                    content_bytes: 1_024,
                    span: None,
                },
            )
        });
        assert!(fx.cache.contains(ItemId::new(7)));
    }
}
