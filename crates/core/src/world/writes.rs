//! Replica writes (extension, the paper's future work §6 item 3): any
//! node may modify an item it caches, and writes serialise through the
//! item's source host.
//!
//! Invariant owned here: **a write is driver-level machinery, invisible
//! to the strategy under test**. The world issues the `WRITE_REQUEST`,
//! applies it at the source as an ordinary source update — which the
//! running strategy then propagates like any other — and settles the
//! writer's retry timer on the `WRITE_ACK`; issued = completed + failed
//! holds exactly (`check_report`). With `i_write` off (the default) no
//! write event is ever queued.

use mp2p_cache::Version;
use mp2p_sim::{ItemId, NodeId, SimTime};

use super::{Event, World};
use crate::config::{CONTENT_BYTES, FETCH_TIMEOUT, POLL_ATTEMPTS};
use crate::msg::ProtoMsg;
use crate::protocol::QueryId;

#[derive(Debug, Clone, Copy)]
pub(super) struct OpenWrite {
    pub(super) writer: NodeId,
    item: ItemId,
    issued: SimTime,
    attempt: u8,
    pub(super) measured: bool,
}

impl World {
    /// A node decides to write one of its cached items.
    pub(super) fn handle_write_arrival(&mut self, id: NodeId) {
        let Some(item) = self.pick_target(id) else {
            return;
        };
        let write = self.next_id();
        let measured = self.measuring();
        self.open_writes.insert(
            write,
            OpenWrite {
                writer: id,
                item,
                issued: self.now,
                attempt: 1,
                measured,
            },
        );
        if measured {
            self.report.writes_issued += 1;
        }
        self.send_write(id, write, item);
    }

    fn send_write(&mut self, id: NodeId, write: QueryId, item: ItemId) {
        let msg = ProtoMsg::WriteRequest {
            item,
            content_bytes: CONTENT_BYTES,
        };
        self.unicast(id, item.source_host(), msg);
        self.queue.push(
            self.now + FETCH_TIMEOUT,
            Event::WriteRetry { at: id, write },
        );
    }

    /// The retry timer of an outstanding write fired. Discovery failure
    /// is not reported to the writer: this timer alone decides when to
    /// give up, after as many attempts as any other request gets.
    pub(super) fn retry_write(&mut self, at: NodeId, write: QueryId) {
        let Some(open) = self.open_writes.get_mut(&write) else {
            return; // already acknowledged
        };
        if open.attempt >= POLL_ATTEMPTS {
            self.close_write_failed(write);
        } else {
            open.attempt += 1;
            let item = open.item;
            self.send_write(at, write, item);
        }
    }

    /// The source host serialises an incoming replica write.
    pub(super) fn handle_write_request(&mut self, node: NodeId, writer: NodeId, item: ItemId) {
        if item.source_host() != node || !self.nodes[node.index()].publishes {
            return; // misrouted or unpublished item
        }
        let version = self.source_update(node);
        self.unicast(node, writer, ProtoMsg::WriteAck { item, version });
    }

    /// The writer's acknowledgement arrived: the write is durable.
    pub(super) fn handle_write_ack(&mut self, node: NodeId, item: ItemId, version: Version) {
        // Writes are acknowledged once; duplicates from retries are benign.
        let Some(write) = self
            .open_writes
            .iter()
            .filter(|(_, w)| w.item == item && w.writer == node)
            .map(|(&q, _)| q)
            .min()
        else {
            return;
        };
        let open = self.open_writes.remove(&write).expect("just found");
        // Read-your-writes: the writer's own copy advances to at least the
        // acknowledged version.
        let cache = &mut self.nodes[node.index()].cache;
        if cache.peek(item).is_some_and(|e| e.version < version) {
            cache.refresh(item, version, self.now);
        }
        if open.measured {
            self.report
                .write_latency
                .record(self.now.saturating_since(open.issued));
        }
    }

    pub(super) fn close_write_failed(&mut self, write: QueryId) {
        if self.open_writes.remove(&write).is_some_and(|w| w.measured) {
            self.report.writes_failed += 1;
        }
    }
}
