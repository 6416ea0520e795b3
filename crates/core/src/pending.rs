//! The table of local queries waiting on the network, shared by all four
//! strategies: Fig. 6's "send, arm a timer, retry or give up" skeleton.
//!
//! Invariant owned here: **a waiting query is released exactly once, and
//! in an order no hash function chose**. [`PendingTable::take_item`]
//! removes what it returns and returns it ascending by query id;
//! [`PendingTable::due`] ignores a retry timer that belongs to an
//! earlier attempt, so a superseded timer can neither retry nor fail a
//! query twice.

use mp2p_sim::{FastMap, ItemId, SimDuration};

use crate::protocol::{Ctx, QueryId, Timer};

/// What a waiting query waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waiting {
    /// A POLL_ACK.
    Poll,
    /// A FETCH_REPLY (cache-miss or refresh path).
    Fetch,
}

/// One waiting query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) item: ItemId,
    pub(crate) kind: Waiting,
    /// 1-based attempt whose retry timer is the live one.
    pub(crate) attempt: u8,
}

/// Open local queries awaiting network answers.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingTable {
    open: FastMap<QueryId, Pending>,
}

impl PendingTable {
    /// Records that `query` now waits on `item` (replacing its earlier
    /// attempt, if any) and arms the retry timer of this attempt.
    pub(crate) fn insert(
        &mut self,
        ctx: &mut Ctx<'_>,
        query: QueryId,
        item: ItemId,
        kind: Waiting,
        attempt: u8,
        retry_after: SimDuration,
    ) {
        let pending = Pending {
            item,
            kind,
            attempt,
        };
        self.open.insert(query, pending);
        ctx.set_timer(retry_after, Timer::PollRetry { query, attempt });
    }

    /// The entry a `PollRetry { query, attempt }` timer is due for:
    /// `None` when the query was answered meanwhile or the timer belongs
    /// to an earlier attempt.
    pub(crate) fn due(&self, query: QueryId, attempt: u8) -> Option<Pending> {
        self.open
            .get(&query)
            .copied()
            .filter(|p| p.attempt == attempt)
    }

    /// Stops waiting for `query`; true if it was waiting.
    pub(crate) fn remove(&mut self, query: QueryId) -> bool {
        self.open.remove(&query).is_some()
    }

    /// Releases every query waiting on `item` for something `kinds`
    /// accepts, ascending by id (map iteration order is arbitrary and
    /// must not reach the outputs).
    pub(crate) fn take_item(
        &mut self,
        item: ItemId,
        kinds: impl Fn(Waiting) -> bool,
    ) -> Vec<QueryId> {
        let mut queries: Vec<QueryId> = self
            .open
            .iter()
            .filter(|(_, p)| p.item == item && kinds(p.kind))
            .map(|(&q, _)| q)
            .collect();
        queries.sort_unstable();
        for q in &queries {
            self.open.remove(q);
        }
        queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::fixture::Fixture;
    use crate::{CtxOut, SimplePull};

    fn wait(table: &mut PendingTable, ctx: &mut Ctx<'_>, query: u64, item: u32, kind: Waiting) {
        let retry = SimDuration::from_secs(1);
        table.insert(ctx, QueryId(query), ItemId::new(item), kind, 1, retry);
    }

    #[test]
    fn a_stale_attempts_timer_is_ignored() {
        let mut fx = Fixture::new(0, 0, SimplePull::new);
        let mut table = PendingTable::default();
        let out = fx.run(|_, ctx| {
            wait(&mut table, ctx, 7, 1, Waiting::Poll);
            let due = table.due(QueryId(7), 1).expect("attempt 1 is live");
            let retry = SimDuration::from_secs(2);
            table.insert(ctx, QueryId(7), due.item, due.kind, 2, retry);
        });
        let armed: Vec<u8> = out
            .iter()
            .filter_map(|o| match o {
                CtxOut::SetTimer {
                    timer: Timer::PollRetry { attempt, .. },
                    ..
                } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(armed, [1, 2], "each attempt arms its own timer");
        assert!(
            table.due(QueryId(7), 1).is_none(),
            "attempt 1 is superseded"
        );
        assert_eq!(table.due(QueryId(7), 2).map(|p| p.attempt), Some(2));
        assert!(table.remove(QueryId(7)));
        assert!(table.due(QueryId(7), 2).is_none(), "answered meanwhile");
        assert!(!table.remove(QueryId(7)));
    }

    #[test]
    fn take_item_releases_ascending_whatever_the_insertion_order() {
        let mut fx = Fixture::new(0, 0, SimplePull::new);
        let mut table = PendingTable::default();
        let ids = [41u64, 3, 977, 12, 500, 8];
        fx.run(|_, ctx| {
            for &q in &ids {
                wait(&mut table, ctx, q, 1, Waiting::Poll);
            }
            wait(&mut table, ctx, 1, 2, Waiting::Poll);
        });
        let released = table.take_item(ItemId::new(1), |_| true);
        let mut sorted: Vec<QueryId> = ids.iter().map(|&q| QueryId(q)).collect();
        sorted.sort_unstable();
        assert_eq!(released, sorted);
        assert!(table.take_item(ItemId::new(1), |_| true).is_empty());
        assert!(
            table.due(QueryId(1), 1).is_some(),
            "other items keep waiting"
        );
    }

    #[test]
    fn a_filter_leaves_the_other_kind_pending() {
        let mut fx = Fixture::new(0, 0, SimplePull::new);
        let mut table = PendingTable::default();
        fx.run(|_, ctx| {
            wait(&mut table, ctx, 1, 1, Waiting::Poll);
            wait(&mut table, ctx, 2, 1, Waiting::Fetch);
        });
        let failed = table.take_item(ItemId::new(1), |k| k == Waiting::Fetch);
        assert_eq!(failed, [QueryId(2)]);
        assert!(table.due(QueryId(1), 1).is_some(), "the poll still waits");
    }
}
