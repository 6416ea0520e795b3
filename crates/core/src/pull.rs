//! The simple pull baseline (Lan et al. [Lan03], Section 2/5).
//!
//! "Each time when a query request comes, the cache node [has] to poll
//! the source host to [validate] the status of the data items it caches"
//! (Section 5.1). The poll is a `TTL_BR` = 8-hop flood (the baselines
//! have no relay infrastructure to narrow it); the source answers with a
//! unicast `POLL_ACK_A`/`POLL_ACK_B`. On-demand polling gives pull its
//! short latency (Fig. 8) and its dominating traffic (Fig. 7).

use mp2p_cache::Version;
use mp2p_metrics::{ServedBy, SpanPhase};
use mp2p_sim::{ItemId, NodeId};

use crate::config::{ProtocolConfig, BROADCAST_TTL, POLL_ATTEMPTS, POLL_TIMEOUT};
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::pending::{PendingTable, Waiting};
use crate::protocol::{Ctx, Protocol, QueryId, Timer};

/// The pull-based baseline strategy. One instance per node; see the
/// module docs for its semantics.
#[derive(Debug, Clone)]
pub struct SimplePull {
    publishes: bool,
    pending: PendingTable,
}

impl SimplePull {
    /// Creates the baseline state for one node.
    pub fn new(_cfg: &ProtocolConfig, publishes: bool) -> Self {
        SimplePull {
            publishes,
            pending: PendingTable::default(),
        }
    }

    fn start_poll(&mut self, ctx: &mut Ctx<'_>, query: QueryId, item: ItemId, attempt: u8) {
        ctx.phase(query, item, SpanPhase::PollFlood, attempt);
        let poll = ProtoMsg::Poll {
            item,
            version: ctx.cached_version(item),
            span: Some(query.0),
        };
        ctx.flood(BROADCAST_TTL, poll);
        let delay = ctx.cfg.retry_delay(POLL_TIMEOUT, attempt, ctx.rng);
        self.pending
            .insert(ctx, query, item, Waiting::Poll, attempt, delay);
    }

    fn answer_pending_for(&mut self, ctx: &mut Ctx<'_>, item: ItemId, version: Version) {
        for q in self.pending.take_item(item, |_| true) {
            // Only the source host answers polls in simple pull.
            ctx.answer(q, version, ServedBy::Source);
        }
    }
}

impl Protocol for SimplePull {
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
        ctx.cache.touch(item);
        // Every query polls, whatever the level (the baseline has no
        // freshness lease to rely on).
        self.start_poll(ctx, query, item, 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg) {
        match msg {
            // Only the source host answers polls in simple pull.
            ProtoMsg::Poll {
                item,
                version,
                span,
            } if self.publishes && item == ctx.own_item.id() => {
                let master = (ctx.own_item.version(), ctx.own_item.size_bytes());
                ctx.reply_to_poll(from, item, version, master, span);
            }
            ProtoMsg::PollAckA { item, version, .. } => {
                self.answer_pending_for(ctx, item, version);
            }
            ProtoMsg::PollAckB {
                item,
                version,
                content_bytes,
                ..
            } => {
                ctx.install_copy(item, version, content_bytes);
                self.answer_pending_for(ctx, item, version);
            }
            _ => {} // pull uses no other message types
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        let Timer::PollRetry { query, attempt } = timer else {
            return;
        };
        let Some(pending) = self.pending.due(query, attempt) else {
            return;
        };
        if attempt >= POLL_ATTEMPTS {
            self.pending.remove(query);
            ctx.fail(query);
        } else {
            self.start_poll(ctx, query, pending.item, attempt + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::fixture::Fixture;
    use crate::CtxOut;

    fn fixture() -> Fixture<SimplePull> {
        Fixture::new(0, 5, SimplePull::new)
    }

    #[test]
    fn every_query_floods_a_poll_with_baseline_ttl() {
        let mut fx = fixture();
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
        let mut fx = fixture();
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
        let mut fx = fixture();
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
        let mut fx = fixture();
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
        let mut fx = fixture();
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
        let mut fx = fixture();
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
