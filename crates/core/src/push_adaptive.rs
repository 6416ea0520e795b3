//! The third strategy of Lan et al. [Lan03], which the paper cites but
//! does not plot: **push with adaptive pull**.
//!
//! Sources flood invalidation reports exactly like the simple push
//! baseline. Cache peers, however, do not hold queries for the next
//! report: a peer that has *recently heard* a report for the item trusts
//! its (unmarked) copy and answers immediately; a peer whose report
//! stream has gone quiet — it drifted out of the flood's reach or was
//! disconnected — falls back to *pulling* the item from the source on
//! demand. The result is push-like traffic with pull-like latency, at
//! report-cycle consistency (the same level RPCC's relays provide, but
//! with every source flooding at full TTL instead of a relay overlay).

use mp2p_metrics::{ServedBy, SpanPhase};
use mp2p_sim::{FastMap, ItemId, NodeId, SimDuration, SimTime};

use crate::config::{ProtocolConfig, FETCH_TIMEOUT, POLL_ATTEMPTS, TTN};
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::pending::{PendingTable, Waiting};
use crate::protocol::{Ctx, Protocol, QueryId, Timer};

/// The push-with-adaptive-pull baseline. One instance per node; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct PushAdaptivePull {
    publishes: bool,
    /// When each item's latest invalidation report was heard.
    last_report: FastMap<ItemId, SimTime>,
    /// Queries waiting for a FETCH_REPLY.
    pending: PendingTable,
}

impl PushAdaptivePull {
    /// Creates the baseline state for one node.
    pub fn new(_cfg: &ProtocolConfig, publishes: bool) -> Self {
        PushAdaptivePull {
            publishes,
            last_report: FastMap::default(),
            pending: PendingTable::default(),
        }
    }

    /// How long a heard report keeps the push stream "live" for an item:
    /// one report period plus slack for flood jitter.
    fn report_lease() -> SimDuration {
        TTN + SimDuration::from_secs(10)
    }

    fn start_fetch(&mut self, ctx: &mut Ctx<'_>, query: QueryId, item: ItemId, attempt: u8) {
        ctx.phase(query, item, SpanPhase::Fetch, attempt);
        let span = Some(query.0);
        ctx.send(item.source_host(), ProtoMsg::Fetch { item, span });
        self.pending
            .insert(ctx, query, item, Waiting::Fetch, attempt, FETCH_TIMEOUT);
    }
}

impl Protocol for PushAdaptivePull {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        // Pre-warmed copies start with a live report lease (placement just
        // validated them).
        let items: Vec<ItemId> = ctx.cache.iter().map(|(id, _)| id).collect();
        for item in items {
            self.last_report.insert(item, ctx.now);
        }
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
        let Some(entry) = ctx.cache.touch(item).copied() else {
            self.start_fetch(ctx, query, item, 1);
            return;
        };
        let live = matches!(
            self.last_report.get(&item),
            Some(&heard) if ctx.now.saturating_since(heard) <= Self::report_lease()
        );
        if live && !entry.stale {
            // The push stream vouches for the copy: answer immediately.
            ctx.answer(query, entry.version, ServedBy::Cache);
        } else {
            // Marked stale, or we drifted out of the flood's reach:
            // adaptive pull from the source.
            self.start_fetch(ctx, query, item, 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Invalidation { item, version, .. } => {
                self.last_report.insert(item, ctx.now);
                if ctx.cache.peek(item).is_some_and(|e| e.version < version) {
                    ctx.cache.mark_stale(item);
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
                // A fetched answer is as good as a report.
                self.last_report.insert(item, ctx.now);
                for q in self.pending.take_item(item, |_| true) {
                    // Fetch-blocked queries are served fresh source content.
                    ctx.answer(q, version, ServedBy::Source);
                }
            }
            _ => {} // uses no other message types
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer {
            Timer::Ttn => ctx.flood_report(self.publishes),
            Timer::PollRetry { query, attempt } => {
                let Some(pending) = self.pending.due(query, attempt) else {
                    return;
                };
                if attempt >= POLL_ATTEMPTS {
                    self.pending.remove(query);
                    ctx.fail(query);
                } else {
                    self.start_fetch(ctx, query, pending.item, attempt + 1);
                }
            }
            _ => {}
        }
    }

    fn on_undeliverable(&mut self, ctx: &mut Ctx<'_>, _dest: NodeId, msg: ProtoMsg) {
        if let ProtoMsg::Fetch { item, .. } = msg {
            for q in self.pending.take_item(item, |_| true) {
                ctx.fail(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::fixture::Fixture;
    use crate::CtxOut;
    use mp2p_cache::Version;

    fn fixture() -> Fixture<PushAdaptivePull> {
        Fixture::new(0, 8, PushAdaptivePull::new)
    }

    #[test]
    fn live_report_stream_answers_instantly() {
        let mut fx = fixture();
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(1), ItemId::new(1), ConsistencyLevel::Strong));
        assert!(
            out.iter().any(|o| matches!(
                o,
                CtxOut::Answer {
                    query: QueryId(1),
                    ..
                }
            )),
            "a fresh report lease must answer without network traffic"
        );
    }

    #[test]
    fn quiet_stream_falls_back_to_pull() {
        let mut fx = fixture();
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        fx.now = SimTime::from_millis(10 * 60_000); // far past the lease
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(2), ItemId::new(1), ConsistencyLevel::Strong));
        assert!(
            out.iter().any(|o| matches!(
                o,
                CtxOut::Send { to, msg: ProtoMsg::Fetch { .. } } if *to == NodeId::new(1)
            )),
            "a silent report stream must trigger an adaptive pull"
        );
    }

    #[test]
    fn stale_mark_forces_pull_despite_live_lease() {
        let mut fx = fixture();
        let _ = fx.run(|p, ctx| p.on_init(ctx));
        let _ = fx.run(|p, ctx| {
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
        let out =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(3), ItemId::new(1), ConsistencyLevel::Weak));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Send {
                msg: ProtoMsg::Fetch { .. },
                ..
            }
        )));
        // Reply refreshes and answers.
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
            .any(|o| matches!(o, CtxOut::Answer { query: QueryId(3), version, .. } if *version == Version::new(2))));
    }

    #[test]
    fn source_floods_reports_like_push() {
        let mut fx = fixture();
        let out = fx.run(|p, ctx| p.on_timer(ctx, Timer::Ttn));
        assert!(out.iter().any(|o| matches!(
            o,
            CtxOut::Flood {
                ttl: 8,
                msg: ProtoMsg::Invalidation { .. }
            }
        )));
    }

    #[test]
    fn fetch_retries_then_fails() {
        let mut fx = fixture();
        fx.now = SimTime::from_millis(10 * 60_000);
        let _ =
            fx.run(|p, ctx| p.on_query(ctx, QueryId(4), ItemId::new(1), ConsistencyLevel::Strong));
        for attempt in 1..=2 {
            let out = fx.run(|p, ctx| {
                p.on_timer(
                    ctx,
                    Timer::PollRetry {
                        query: QueryId(4),
                        attempt,
                    },
                )
            });
            assert!(out.iter().any(|o| matches!(
                o,
                CtxOut::Send {
                    msg: ProtoMsg::Fetch { .. },
                    ..
                }
            )));
        }
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
}
