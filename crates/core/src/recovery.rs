//! Self-healing recovery layer: rejoin resync digests, acknowledged
//! invalidation/update delivery with a bounded retransmit queue, and
//! relay-lease handover.
//!
//! The paper's schemes assume invalidations eventually arrive; the PR 6
//! blame tracker showed that under chaos they often don't
//! (`lost_invalidation`, `crash_wipe`, `lease_orphan` dominate stale
//! serves). This module adds the *recovery* half: CUP-style rejoin
//! resynchronisation (Roussopoulos & Baker, PAPERS.md) and acknowledged,
//! retried dissemination (Tabassum et al., PAPERS.md).
//!
//! Everything here is pure protocol state — no clock, RNG, or network
//! access — so the same machinery runs unchanged under the DES driver
//! and any future async runtime (ROADMAP item 1). All of it is gated
//! behind the one switch of [`RecoveryConfig`], default **off**:
//! recovery-off runs stay byte-identical to pre-recovery output
//! (golden-fixture pinned).

use mp2p_cache::Version;
use mp2p_sim::{require, ConfigError, FastMap, ItemId, NodeId, SimDuration, SimTime};

use crate::msg::ProtoMsg;
use crate::protocol::Ctx;

/// Flood scope of the rejoin digest, in hops.
pub(crate) const RESYNC_TTL: u8 = 2;
/// Base delay before a pending update is retransmitted, and the period
/// of the source's retransmit sweep (backed off and jittered per attempt
/// via [`crate::ProtocolConfig::retry_delay`] when hardened).
pub(crate) const RETX_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Retransmissions attempted per entry before giving up.
pub(crate) const RETX_ATTEMPTS: u8 = 3;

/// The switch of the recovery layer, carried inside
/// [`crate::ProtocolConfig`]; the default is off.
///
/// On, every mechanism runs with its recommended setting:
///
/// * **rejoin resync** — on switch-on/crash-recovery, flood a compact
///   version digest of the local cache two hops out and drop-or-refresh
///   stale copies from the replies before serving;
/// * **acknowledged delivery** — sequence-stamp INVALIDATION/UPDATE
///   frames, ACK unicast updates, retransmit unacknowledged ones every
///   2 s, three times at most;
/// * **relay-lease handover** — an orphan-expiring relay hands its duty
///   to a reachable cached neighbour (deterministic lowest-id election)
///   instead of self-CANCELing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Whether the layer runs.
    pub on: bool,
    /// Upper bound on in-flight retransmit entries per sender; the
    /// oldest entry is evicted when a new one would exceed it.
    pub retx_cap: usize,
}

impl RecoveryConfig {
    /// Off: the pre-recovery protocol, byte-identical.
    pub fn off() -> Self {
        RecoveryConfig {
            on: false,
            retx_cap: 32,
        }
    }

    /// On, with the recommended retransmit cap.
    #[must_use]
    pub fn on() -> Self {
        RecoveryConfig {
            on: true,
            ..RecoveryConfig::off()
        }
    }

    /// True if the layer is switched on.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Checks that the retransmit queue, when the layer is on, has room.
    /// The error names the field as the `proto.recovery.*` member of a
    /// world configuration.
    pub fn check(&self) -> Result<(), ConfigError> {
        require(
            !self.on || self.retx_cap >= 1,
            "proto.recovery.retx_cap",
            "must be at least 1 (the retransmit queue needs capacity)",
        )
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::off()
    }
}

/// Entries one [`VersionDigest`] frame can carry. Digests above this
/// size are chunked into several frames.
pub const DIGEST_CAP: usize = 4;

/// Wire bytes per digest entry (item id + version).
const DIGEST_ENTRY_BYTES: u32 = 12;

/// A compact `item id → version` map exchanged during rejoin resync.
///
/// Fixed-capacity so [`crate::ProtoMsg`] stays `Copy`; a full cache
/// digest is chunked into several frames via [`VersionDigest::chunk`].
/// Entries are kept in ascending item-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionDigest {
    len: u8,
    slots: [(ItemId, Version); DIGEST_CAP],
}

impl VersionDigest {
    /// Builds a digest from up to [`DIGEST_CAP`] entries.
    ///
    /// # Panics
    ///
    /// Panics on an empty or over-capacity entry list (digests are
    /// never sent empty).
    pub fn new(entries: &[(ItemId, Version)]) -> Self {
        assert!(!entries.is_empty(), "digests are never empty");
        assert!(entries.len() <= DIGEST_CAP, "digest overflow");
        let mut slots = [(ItemId::new(0), Version::new(0)); DIGEST_CAP];
        slots[..entries.len()].copy_from_slice(entries);
        VersionDigest {
            len: entries.len() as u8,
            slots,
        }
    }

    /// Splits a sorted `(item, version)` list into minimal digest
    /// frames. The caller sorts by item id first — cache-store
    /// iteration order is arbitrary and must never reach the wire.
    pub fn chunk(sorted: &[(ItemId, Version)]) -> Vec<VersionDigest> {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].0 < w[1].0),
            "digest entries must be sorted and unique"
        );
        sorted.chunks(DIGEST_CAP).map(VersionDigest::new).collect()
    }

    /// The carried entries, in ascending item-id order.
    pub fn entries(&self) -> &[(ItemId, Version)] {
        &self.slots[..usize::from(self.len)]
    }

    /// Number of entries carried.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Digests are never empty (construction enforces it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first carried item (stands in as "the" item for single-item
    /// accounting interfaces).
    pub fn first_item(&self) -> ItemId {
        self.slots[0].0
    }

    /// On-air payload cost of the carried entries.
    pub fn wire_bytes(&self) -> u32 {
        u32::from(self.len) * DIGEST_ENTRY_BYTES
    }
}

/// The freshest version of `item` this node holds: its master copy
/// when it publishes the item, else its cached copy.
pub(crate) fn held_version(ctx: &Ctx<'_>, publishes: bool, item: ItemId) -> Version {
    let cached = ctx.cached_version(item);
    if publishes && item == ctx.own_item.id() {
        cached.max(ctx.own_item.version())
    } else {
        cached
    }
}

/// Rejoin resync, rejoiner side: flood a compact version digest of
/// everything held, so nearby peers can flag stale copies *before* they
/// get served to local queries.
pub(crate) fn flood_resync_digest(ctx: &mut Ctx<'_>, publishes: bool) {
    let mut entries: Vec<(ItemId, Version)> =
        ctx.cache.iter().map(|(id, e)| (id, e.version)).collect();
    if publishes {
        entries.push((ctx.own_item.id(), ctx.own_item.version()));
    }
    if entries.is_empty() {
        return;
    }
    // Map iteration order is arbitrary: sort for determinism.
    entries.sort_unstable_by_key(|&(id, _)| id);
    for digest in VersionDigest::chunk(&entries) {
        ctx.flood(RESYNC_TTL, ProtoMsg::ResyncDigest { digest });
    }
    let items = entries.len() as u32;
    ctx.recovery(RecoveryAction::ResyncStart { items });
}

/// Rejoin resync, neighbour side: answer `from` with the subset of its
/// digest that `known` — the freshest version this node can vouch for,
/// given the advertised one — strictly outranks.
pub(crate) fn answer_resync_digest(
    ctx: &mut Ctx<'_>,
    from: NodeId,
    digest: &VersionDigest,
    mut known: impl FnMut(&Ctx<'_>, ItemId, Version) -> Version,
) {
    if !ctx.cfg.recovery.on {
        return;
    }
    let mut newer: Vec<(ItemId, Version)> = Vec::new();
    for &(item, version) in digest.entries() {
        let known = known(ctx, item, version);
        if known > version {
            newer.push((item, known));
        }
    }
    for digest in VersionDigest::chunk(&newer) {
        ctx.send(from, ProtoMsg::ResyncAck { digest });
    }
}

/// One pending (unacknowledged) update retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxEntry {
    /// The relay peer the update was sent to.
    pub dest: NodeId,
    /// The updated item.
    pub item: ItemId,
    /// The version shipped.
    pub version: Version,
    /// The sequence number stamped on the frame.
    pub seq: u64,
    /// Retransmissions already performed (0 = only the original send).
    pub attempt: u8,
    /// When the next retransmission is due.
    pub due: SimTime,
}

/// A bounded sender-side retransmit queue with a monotone sequence
/// counter.
///
/// Invariants (property-tested):
/// * never holds more than `cap` entries — the oldest is evicted first;
/// * at most one entry per `(dest, item)` — a newer update supersedes
///   the older one (versions are monotone, so only the latest matters);
/// * [`RetransmitQueue::ack`] is idempotent — duplicated ACK frames
///   remove nothing twice.
#[derive(Debug, Clone)]
pub struct RetransmitQueue {
    cap: usize,
    next_seq: u64,
    entries: Vec<RetxEntry>,
    high_water: usize,
}

impl RetransmitQueue {
    /// An empty queue bounded at `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "retransmit queue needs capacity");
        RetransmitQueue {
            cap,
            next_seq: 0,
            entries: Vec::new(),
            high_water: 0,
        }
    }

    /// Allocates the next sequence number without queueing anything
    /// (used to stamp flooded INVALIDATIONs, which are deduplicated by
    /// receivers but never acknowledged).
    pub fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Queues an update for retransmission tracking and returns the
    /// sequence number to stamp on the frame. Supersedes any pending
    /// entry for the same `(dest, item)`; evicts the oldest entry when
    /// the bound would be exceeded.
    pub fn enqueue(&mut self, dest: NodeId, item: ItemId, version: Version, due: SimTime) -> u64 {
        let seq = self.alloc_seq();
        self.entries.retain(|e| !(e.dest == dest && e.item == item));
        if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push(RetxEntry {
            dest,
            item,
            version,
            seq,
            attempt: 0,
            due,
        });
        self.high_water = self.high_water.max(self.entries.len());
        seq
    }

    /// Processes an ACK from `dest` for `seq`: removes and returns the
    /// matching entry, or `None` if it was already acknowledged (or
    /// never queued) — duplicated ACK frames are no-ops.
    pub fn ack(&mut self, dest: NodeId, seq: u64) -> Option<RetxEntry> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.dest == dest && e.seq == seq)?;
        Some(self.entries.remove(idx))
    }

    /// The entries whose retransmission is due, oldest first.
    pub fn due_entries(&self, now: SimTime) -> Vec<RetxEntry> {
        self.entries
            .iter()
            .filter(|e| e.due <= now)
            .copied()
            .collect()
    }

    /// Records one more retransmission attempt for `seq` and schedules
    /// the next one at `due`.
    pub fn bump(&mut self, seq: u64, due: SimTime) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.attempt += 1;
            e.due = due;
        }
    }

    /// Drops the entry with the given sequence number (retransmission
    /// budget exhausted). Returns true if something was dropped.
    pub fn drop_seq(&mut self, seq: u64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.seq != seq);
        self.entries.len() != before
    }

    /// Drops every pending entry for `dest` (the MAC layer reported the
    /// peer unreachable; the relay table drops it too). Returns how
    /// many entries were dropped.
    pub fn drop_dest(&mut self, dest: NodeId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.dest != dest);
        before - self.entries.len()
    }

    /// Currently pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most entries ever pending at once (bounded by `cap`).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Receiver-side duplicate suppression for sequence-stamped frames.
///
/// Senders allocate sequence numbers from one monotone counter, so per
/// `(peer, item)` a frame is new exactly when its sequence number
/// exceeds the highest one seen — duplicated or re-flooded frames
/// become idempotent no-ops.
#[derive(Debug, Clone, Default)]
pub struct SeqTracker {
    highest: FastMap<(NodeId, ItemId), u64>,
}

impl SeqTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        SeqTracker::default()
    }

    /// Records `seq` from `peer` for `item`; returns true when this is
    /// the first sighting (i.e. the frame is not a duplicate).
    pub fn is_new(&mut self, peer: NodeId, item: ItemId, seq: u64) -> bool {
        let highest = self.highest.entry((peer, item)).or_insert(0);
        if seq > *highest {
            *highest = seq;
            true
        } else {
            false
        }
    }
}

/// A recovery-layer decision a protocol reports to the driver (for
/// fault counters, trace events, and — for handover — the neighbor
/// election only the driver's shared topology view can run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A rejoining node flooded its version digest.
    ResyncStart {
        /// Entries advertised across all digest frames.
        items: u32,
    },
    /// A rejoining node finished processing one resync reply.
    ResyncDone {
        /// Stale copies dropped or queued for refresh.
        stale: u32,
    },
    /// A pending update was retransmitted.
    Retransmit {
        /// The relay peer being retried.
        dest: NodeId,
        /// The updated item.
        item: ItemId,
        /// The frame's sequence number.
        seq: u64,
        /// 1-based retransmission attempt.
        attempt: u8,
    },
    /// A delivery ACK settled a pending retransmission.
    AckReceived {
        /// The acknowledging relay peer.
        peer: NodeId,
        /// The acknowledged item.
        item: ItemId,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// An orphan-expiring relay asks the driver to elect a reachable
    /// neighbor and hand it the relay duty for `item`.
    HandoverRequest {
        /// The item whose relay duty is being handed over.
        item: ItemId,
        /// The last version the expiring relay confirmed.
        version: Version,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn default_config_is_off_and_valid() {
        let cfg = RecoveryConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.check(), Ok(()));
        let on = RecoveryConfig::on();
        assert!(on.enabled() && on.on);
        assert_eq!(on.check(), Ok(()));
    }

    #[test]
    fn check_rejects_zero_retx_cap() {
        let cfg = RecoveryConfig {
            retx_cap: 0,
            ..RecoveryConfig::on()
        };
        let e = cfg.check().unwrap_err();
        assert_eq!(e.field, "proto.recovery.retx_cap");
    }

    #[test]
    fn digest_chunks_preserve_order_and_cost() {
        let entries: Vec<(ItemId, Version)> = (0..10)
            .map(|i| (ItemId::new(i), Version::new(i as u64 + 1)))
            .collect();
        let frames = VersionDigest::chunk(&entries);
        assert_eq!(frames.len(), 3, "10 entries at cap 4 need 3 frames");
        let rejoined: Vec<_> = frames.iter().flat_map(|f| f.entries().to_vec()).collect();
        assert_eq!(rejoined, entries, "chunking is order-preserving");
        assert_eq!(frames[0].wire_bytes(), 4 * 12);
        assert_eq!(frames[2].wire_bytes(), 2 * 12);
        assert_eq!(frames[2].first_item(), ItemId::new(8));
        assert!(!frames[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "digests are never empty")]
    fn empty_digest_is_rejected() {
        let _ = VersionDigest::new(&[]);
    }

    #[test]
    fn retx_queue_bounds_supersedes_and_acks_idempotently() {
        let mut q = RetransmitQueue::new(3);
        let a = NodeId::new(1);
        let s1 = q.enqueue(a, ItemId::new(7), Version::new(1), t(10));
        let s2 = q.enqueue(a, ItemId::new(7), Version::new(2), t(20));
        assert!(s2 > s1, "sequence numbers are monotone");
        assert_eq!(q.len(), 1, "newer update supersedes the pending one");
        q.enqueue(a, ItemId::new(8), Version::new(1), t(20));
        q.enqueue(a, ItemId::new(9), Version::new(1), t(20));
        q.enqueue(a, ItemId::new(10), Version::new(1), t(20));
        assert_eq!(q.len(), 3, "bound holds; oldest evicted");
        assert!(q.ack(a, s2).is_none(), "evicted entries cannot be acked");
        let s_last = q.due_entries(t(20)).last().unwrap().seq;
        assert!(q.ack(a, s_last).is_some());
        assert!(q.ack(a, s_last).is_none(), "duplicate ACK is a no-op");
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn retx_due_bump_and_drop() {
        let mut q = RetransmitQueue::new(8);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let s1 = q.enqueue(a, ItemId::new(1), Version::new(1), t(10));
        let s2 = q.enqueue(b, ItemId::new(1), Version::new(1), t(30));
        assert_eq!(
            q.due_entries(t(15))
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>(),
            vec![s1]
        );
        q.bump(s1, t(50));
        assert!(
            q.due_entries(t(15)).is_empty(),
            "bumped entry is rescheduled"
        );
        assert_eq!(q.due_entries(t(60)).len(), 2);
        assert_eq!(q.due_entries(t(60))[0].attempt, 1);
        assert_eq!(q.drop_dest(b), 1);
        assert!(q.drop_seq(s1));
        assert!(!q.drop_seq(s1), "already dropped");
        assert!(q.is_empty());
        assert_eq!(q.ack(b, s2), None);
    }

    #[test]
    fn seq_tracker_suppresses_duplicates_per_peer_item() {
        let mut t = SeqTracker::new();
        let p = NodeId::new(3);
        assert!(t.is_new(p, ItemId::new(1), 5));
        assert!(!t.is_new(p, ItemId::new(1), 5), "duplicate frame");
        assert!(!t.is_new(p, ItemId::new(1), 4), "stale retransmit");
        assert!(t.is_new(p, ItemId::new(2), 4), "other item is independent");
        assert!(
            t.is_new(NodeId::new(4), ItemId::new(1), 5),
            "other peer too"
        );
        assert!(t.is_new(p, ItemId::new(1), 6));
    }
}
