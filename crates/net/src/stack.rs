//! The per-node network layer: flooding + on-demand unicast routing.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use mp2p_sim::{FastMap, NodeId, SimDuration, SimTime};

use crate::frame::{FloodId, Frame, NetMeta, NetPayload, RouteControl};
use crate::link::LinkModel;

/// Tunables for the network layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Lifetime of a route-table entry; refreshed on every use, in the
    /// style of AODV's active-route timeout.
    pub route_ttl: SimDuration,
    /// TTL of route-request floods (should exceed the network diameter).
    pub rreq_ttl: u8,
    /// Route-discovery attempts before a destination is declared
    /// unreachable.
    pub rreq_retries: u8,
    /// How long to wait for a route reply before retrying discovery.
    pub rreq_timeout: SimDuration,
    /// Size in bytes of RREQ/RREP/RERR control frames.
    pub control_size: u32,
    /// Maximum packets buffered per destination while discovering.
    pub buffer_cap: usize,
    /// The link this stack's frames cross. Its longest hop delay bounds
    /// how long copies of a flood keep arriving, and so how long the
    /// duplicate-suppression memories hold a flood's ids.
    pub link: LinkModel,
    /// Hop budget for unicast frames: a frame that travelled this many
    /// hops is dropped (with an RERR towards its origin). Guards against
    /// forwarding loops, which hop-count-learned routes cannot fully
    /// exclude (real AODV uses sequence numbers for the same purpose).
    pub max_unicast_hops: u8,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            // Pedestrian-speed MANET: links live for tens of seconds;
            // breaks are detected at the MAC and repaired.
            route_ttl: SimDuration::from_secs(60),
            rreq_ttl: 10,
            rreq_retries: 2,
            rreq_timeout: SimDuration::from_millis(1_500),
            control_size: 32,
            buffer_cap: 32,
            link: LinkModel::default(),
            max_unicast_hops: 24,
        }
    }
}

/// A network-layer timer (scheduled by the driver on the stack's behalf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetTimer {
    /// Route discovery towards `dest` timed out (attempt number included).
    RreqTimeout {
        /// The destination being discovered.
        dest: NodeId,
        /// 1-based attempt counter.
        attempt: u8,
    },
}

/// What the stack asks the driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum NetAction<M> {
    /// Transmit `frame` once; every current neighbour hears it.
    Broadcast(Frame<M>),
    /// Transmit `frame` once, MAC-addressed to `next_hop`. The driver must
    /// report unreachable next-hops back via
    /// [`NetStack::on_send_failed`].
    Send {
        /// The MAC-layer receiver.
        next_hop: NodeId,
        /// The frame to transmit.
        frame: Frame<M>,
    },
    /// Hand `payload` to the application layer of this node.
    Deliver {
        /// The application message.
        payload: M,
        /// Reception metadata.
        meta: NetMeta,
    },
    /// Schedule [`NetStack::on_timer`] after `after`.
    SetTimer {
        /// Delay until the timer fires.
        after: SimDuration,
        /// The timer payload.
        timer: NetTimer,
    },
    /// Route discovery exhausted its retries; `payload` could not be sent.
    Undeliverable {
        /// The unreachable destination.
        dest: NodeId,
        /// The application message handed back.
        payload: M,
    },
}

/// A diagnostic event the stack noted while processing input.
///
/// These cover the silent paths a flight recorder wants to see —
/// duplicate suppression, TTL and hop-budget drops, route-discovery
/// progress — which produce no [`NetAction`] of their own. Events are
/// only collected after [`NetStack::set_tracing`]`(true)`; the driver
/// drains them with [`NetStack::swap_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A flood frame was ignored as an already-seen duplicate.
    FloodDupDrop {
        /// The flood's originator.
        origin: NodeId,
        /// The flood's origin-local frame sequence number.
        seq: u64,
    },
    /// A flood frame arrived with an exhausted TTL and was not
    /// re-broadcast (propagation stopped here).
    FloodTtlExhausted {
        /// The flood's originator.
        origin: NodeId,
    },
    /// A route request was ignored as an already-answered duplicate.
    RreqDupDrop {
        /// The requesting node.
        origin: NodeId,
    },
    /// A unicast frame exceeded the hop budget and was dropped.
    HopBudgetDrop {
        /// The frame's originator.
        origin: NodeId,
        /// The frame's origin-local sequence number.
        seq: u64,
        /// The frame's intended destination.
        dest: NodeId,
    },
    /// A forwarding node had no fresh route for an in-flight frame.
    NoRouteDrop {
        /// The frame's originator.
        origin: NodeId,
        /// The frame's origin-local sequence number.
        seq: u64,
        /// The frame's intended destination.
        dest: NodeId,
    },
    /// A route discovery (re)started towards `dest`.
    DiscoveryStart {
        /// The destination being searched for.
        dest: NodeId,
        /// 1-based attempt number (`> 1` means a retry).
        attempt: u8,
    },
    /// Route discovery towards `dest` exhausted its retries.
    DiscoveryFailed {
        /// The destination that was never found.
        dest: NodeId,
        /// Buffered packets abandoned as a result.
        dropped: u32,
    },
}

#[derive(Debug, Clone)]
struct RouteEntry {
    next_hop: NodeId,
    hops: u8,
    expires: SimTime,
}

#[derive(Debug, Clone)]
struct PendingDiscovery<M> {
    attempt: u8,
    packets: VecDeque<(M, u32)>,
}

/// Per-node network stack: duplicate-suppressed TTL flooding plus
/// AODV-style on-demand unicast routing.
///
/// The stack is a pure state machine: every input pushes the
/// [`NetAction`]s the driver must perform onto a buffer the driver owns
/// (the `_into` entry points append and never read what is already
/// there; the `Vec`-returning forms wrap them for callers that hold no
/// buffer). It never looks at the clock or the topology itself — time
/// arrives as arguments, connectivity arrives as delivered/failed frames.
///
/// # Example
///
/// ```
/// use mp2p_net::{NetAction, NetConfig, NetStack};
/// use mp2p_sim::{NodeId, SimTime};
///
/// let mut stack: NetStack<&'static str> = NetStack::new(NodeId::new(0), NetConfig::default());
/// // Flooding needs no route: one broadcast action.
/// let actions = stack.flood_app(SimTime::ZERO, 3, "INVALIDATION", 48);
/// assert!(matches!(actions[0], NetAction::Broadcast(_)));
/// ```
#[derive(Debug, Clone)]
pub struct NetStack<M> {
    node: NodeId,
    cfg: NetConfig,
    flood_seq: u64,
    rreq_seq: u64,
    seen_floods: DedupMemory,
    seen_rreqs: DedupMemory,
    routes: FastMap<NodeId, RouteEntry>,
    pending: FastMap<NodeId, PendingDiscovery<M>>,
    tracing: bool,
    events: Vec<NetEvent>,
}

impl<M: Clone> NetStack<M> {
    /// Creates the stack for `node`.
    pub fn new(node: NodeId, cfg: NetConfig) -> Self {
        NetStack {
            node,
            cfg,
            flood_seq: 0,
            rreq_seq: 0,
            seen_floods: DedupMemory::default(),
            seen_rreqs: DedupMemory::default(),
            routes: FastMap::default(),
            pending: FastMap::default(),
            tracing: false,
            events: Vec::new(),
        }
    }

    /// The stack this node comes back with after a crash: every volatile
    /// table empty, but the two sequence counters carried over. They name
    /// this node's floods, frames and route requests to everyone else,
    /// whose duplicate-suppression memories outlive the crash — restarted
    /// at 0 they would re-issue `(origin, seq)` ids still held there, and
    /// the node's fresh floods and RREQs would be dropped as duplicates
    /// (AODV keeps its sequence number in stable storage for this reason).
    #[must_use]
    pub fn rebooted(&self) -> Self {
        let mut fresh = NetStack::new(self.node, self.cfg);
        fresh.flood_seq = self.flood_seq;
        fresh.rreq_seq = self.rreq_seq;
        fresh.tracing = self.tracing;
        fresh
    }

    /// The node this stack belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Enables or disables diagnostic [`NetEvent`] collection. Off by
    /// default; when off, [`NetStack::swap_events`] always returns empty.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drains the diagnostic events noted since the last call by
    /// exchanging the buffer with `buf`: the caller receives the events
    /// and the stack keeps `buf`'s allocation, so a per-frame driver
    /// passing one scratch vector never allocates here.
    pub fn swap_events(&mut self, buf: &mut Vec<NetEvent>) {
        buf.clear();
        std::mem::swap(&mut self.events, buf);
    }

    fn note(&mut self, event: NetEvent) {
        if self.tracing {
            self.events.push(event);
        }
    }

    /// Number of live route-table entries at `now`.
    pub fn route_count(&self, now: SimTime) -> usize {
        self.routes.values().filter(|r| r.expires > now).count()
    }

    /// True if a fresh route to `dest` is installed.
    pub fn has_route(&self, dest: NodeId, now: SimTime) -> bool {
        matches!(self.routes.get(&dest), Some(r) if r.expires > now)
    }

    /// Starts an application flood with the given TTL: one broadcast
    /// action (or nothing when `ttl == 0`) pushed onto `out`.
    pub fn flood_app_into(
        &mut self,
        now: SimTime,
        ttl: u8,
        payload: M,
        size: u32,
        out: &mut Vec<NetAction<M>>,
    ) {
        if ttl == 0 {
            return;
        }
        let id = FloodId {
            origin: self.node,
            seq: self.next_seq(),
        };
        let lifetime = self.dedup_lifetime(u64::from(ttl), size);
        self.remember_flood(now, id, lifetime);
        out.push(NetAction::Broadcast(Frame::Flood {
            id,
            ttl,
            hops: 0,
            payload: NetPayload::App(payload),
            size,
        }));
    }

    /// Sends `payload` to `dest`, discovering a route first if needed.
    ///
    /// Sending to self delivers immediately (loopback).
    pub fn send_app_into(
        &mut self,
        now: SimTime,
        dest: NodeId,
        payload: M,
        size: u32,
        out: &mut Vec<NetAction<M>>,
    ) {
        if dest == self.node {
            out.push(NetAction::Deliver {
                payload,
                meta: NetMeta {
                    origin: self.node,
                    hops: 0,
                    via_flood: false,
                    frame: None,
                },
            });
        } else if let Some(next_hop) = self.fresh_route(dest, now) {
            let frame = self.originate(dest, NetPayload::App(payload), size);
            out.push(NetAction::Send { next_hop, frame });
        } else {
            self.enqueue_and_discover(now, dest, payload, size, out);
        }
    }

    /// Handles a frame heard from transmitter `from`. The frame is read
    /// in place: a duplicate flood copies nothing, and a payload is
    /// cloned only into the actions that carry it on (a first-seen flood
    /// once for `Deliver` and once for the re-`Broadcast`).
    pub fn on_frame_into(
        &mut self,
        now: SimTime,
        from: NodeId,
        frame: &Frame<M>,
        out: &mut Vec<NetAction<M>>,
    ) {
        match frame {
            Frame::Flood {
                id,
                ttl,
                hops,
                payload,
                size,
            } => self.on_flood(now, from, *id, *ttl, *hops, payload, *size, out),
            Frame::Unicast {
                origin,
                seq,
                dest,
                hops,
                payload,
                size,
            } => self.on_unicast(now, from, *origin, *seq, *dest, *hops, payload, *size, out),
        }
    }

    /// Handles a timer previously requested via [`NetAction::SetTimer`].
    pub fn on_timer_into(&mut self, now: SimTime, timer: NetTimer, out: &mut Vec<NetAction<M>>) {
        let NetTimer::RreqTimeout { dest, attempt } = timer;
        if self.fresh_route(dest, now).is_some() || !self.pending.contains_key(&dest) {
            return; // discovery already succeeded
        }
        if attempt < self.cfg.rreq_retries {
            self.note(NetEvent::DiscoveryStart {
                dest,
                attempt: attempt + 1,
            });
            out.push(self.rreq_flood(now, dest, self.rreq_ttl_for_attempt(attempt + 1)));
            if let Some(p) = self.pending.get_mut(&dest) {
                p.attempt = attempt + 1;
            }
            out.push(NetAction::SetTimer {
                after: self.cfg.rreq_timeout,
                timer: NetTimer::RreqTimeout {
                    dest,
                    attempt: attempt + 1,
                },
            });
        } else if let Some(pending) = self.pending.remove(&dest) {
            self.note(NetEvent::DiscoveryFailed {
                dest,
                dropped: pending.packets.len() as u32,
            });
            let abandoned = pending.packets.into_iter();
            out.extend(abandoned.map(|(payload, _)| NetAction::Undeliverable { dest, payload }));
        }
    }

    /// MAC feedback: the transmission of `frame` to `next_hop` could not
    /// be delivered (receiver out of range or down). Routes through
    /// `next_hop` are purged; data frames originated here are re-queued
    /// for a fresh discovery, relayed data triggers an RERR towards its
    /// origin.
    pub fn on_send_failed_into(
        &mut self,
        now: SimTime,
        next_hop: NodeId,
        frame: Frame<M>,
        out: &mut Vec<NetAction<M>>,
    ) {
        self.routes.retain(|_, r| r.next_hop != next_hop);
        // Lost control frames are recovered by the requester's own
        // discovery timer; nothing to do for them here.
        if let Frame::Unicast {
            origin,
            dest,
            payload: NetPayload::App(m),
            size,
            ..
        } = frame
        {
            if origin == self.node {
                self.enqueue_and_discover(now, dest, m, size, out);
            } else {
                // Relayed data: tell the origin its route broke, if we
                // still know a way back; otherwise the loss surfaces at
                // the origin's own application timeout.
                self.send_control_towards(
                    now,
                    origin,
                    RouteControl::Rerr { broken_dest: dest },
                    out,
                );
            }
        }
    }

    /// [`NetStack::flood_app_into`] into a fresh vector.
    pub fn flood_app(&mut self, now: SimTime, ttl: u8, payload: M, size: u32) -> Vec<NetAction<M>> {
        collected(|out| self.flood_app_into(now, ttl, payload, size, out))
    }

    /// [`NetStack::send_app_into`] into a fresh vector.
    pub fn send_app(
        &mut self,
        now: SimTime,
        dest: NodeId,
        payload: M,
        size: u32,
    ) -> Vec<NetAction<M>> {
        collected(|out| self.send_app_into(now, dest, payload, size, out))
    }

    /// [`NetStack::on_frame_into`] into a fresh vector.
    pub fn on_frame(&mut self, now: SimTime, from: NodeId, frame: Frame<M>) -> Vec<NetAction<M>> {
        collected(|out| self.on_frame_into(now, from, &frame, out))
    }

    /// [`NetStack::on_timer_into`] into a fresh vector.
    pub fn on_timer(&mut self, now: SimTime, timer: NetTimer) -> Vec<NetAction<M>> {
        collected(|out| self.on_timer_into(now, timer, out))
    }

    /// [`NetStack::on_send_failed_into`] into a fresh vector.
    pub fn on_send_failed(
        &mut self,
        now: SimTime,
        next_hop: NodeId,
        frame: Frame<M>,
    ) -> Vec<NetAction<M>> {
        collected(|out| self.on_send_failed_into(now, next_hop, frame, out))
    }

    #[allow(clippy::too_many_arguments)] // mirrors the frame's fields
    fn on_flood(
        &mut self,
        now: SimTime,
        from: NodeId,
        id: FloodId,
        ttl: u8,
        hops: u8,
        payload: &NetPayload<M>,
        size: u32,
        out: &mut Vec<NetAction<M>>,
    ) {
        // `ttl + hops` is the TTL the flood was sent with.
        let lifetime = self.dedup_lifetime(u64::from(ttl) + u64::from(hops), size);
        if !self.remember_flood(now, id, lifetime) {
            self.note(NetEvent::FloodDupDrop {
                origin: id.origin,
                seq: id.seq,
            });
            return;
        }
        // Hearing any frame teaches the reverse route to its origin.
        self.learn_route(id.origin, from, hops + 1, now);
        match payload {
            NetPayload::App(m) => out.push(NetAction::Deliver {
                payload: m.clone(),
                meta: NetMeta {
                    origin: id.origin,
                    hops: hops + 1,
                    via_flood: true,
                    frame: Some(id.seq),
                },
            }),
            NetPayload::Control(RouteControl::Rreq {
                origin,
                target,
                req_id,
            }) => {
                if !self.remember_rreq(now, *origin, *req_id, lifetime) {
                    self.note(NetEvent::RreqDupDrop { origin: *origin });
                    return;
                }
                if *target == self.node {
                    // Answer with a route reply unwinding the reverse path.
                    let reply = RouteControl::Rrep { requester: *origin };
                    return self.send_control_towards(now, *origin, reply, out);
                }
            }
            NetPayload::Control(_) => {}
        }
        if ttl > 1 {
            out.push(NetAction::Broadcast(Frame::Flood {
                id,
                ttl: ttl - 1,
                hops: hops + 1,
                payload: payload.clone(),
                size,
            }));
        } else {
            self.note(NetEvent::FloodTtlExhausted { origin: id.origin });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_unicast(
        &mut self,
        now: SimTime,
        from: NodeId,
        origin: NodeId,
        seq: u64,
        dest: NodeId,
        hops: u8,
        payload: &NetPayload<M>,
        size: u32,
        out: &mut Vec<NetAction<M>>,
    ) {
        self.learn_route(origin, from, hops + 1, now);
        if dest == self.node {
            match payload {
                NetPayload::App(m) => out.push(NetAction::Deliver {
                    payload: m.clone(),
                    meta: NetMeta {
                        origin,
                        hops: hops + 1,
                        via_flood: false,
                        frame: Some(seq),
                    },
                }),
                // A discovery completed: the route to the RREP's origin
                // (the discovered target) was just learned above.
                NetPayload::Control(RouteControl::Rrep { .. }) => {
                    self.flush_pending(now, origin, out)
                }
                NetPayload::Control(RouteControl::Rerr { broken_dest }) => {
                    self.routes.remove(broken_dest);
                }
                NetPayload::Control(RouteControl::Rreq { .. }) => {} // RREQs never travel unicast
            }
            return;
        }
        // Forwarding role.
        let rerr = RouteControl::Rerr { broken_dest: dest };
        if hops >= self.cfg.max_unicast_hops {
            // Hop budget exhausted: almost certainly a forwarding loop.
            self.note(NetEvent::HopBudgetDrop { origin, seq, dest });
            if matches!(payload, NetPayload::App(_)) {
                self.routes.remove(&dest);
                self.send_control_towards(now, origin, rerr, out);
            }
            return;
        }
        // Split horizon: never hand a frame straight back to the node it
        // came from (the tightest loop hop-count learning can create).
        let route = self.fresh_route(dest, now).filter(|&hop| hop != from);
        match route {
            Some(next_hop) => out.push(NetAction::Send {
                next_hop,
                frame: Frame::Unicast {
                    origin,
                    seq,
                    dest,
                    hops: hops + 1,
                    payload: payload.clone(),
                    size,
                },
            }),
            None => {
                // No route at an intermediate hop: report back to the origin.
                self.note(NetEvent::NoRouteDrop { origin, seq, dest });
                if matches!(payload, NetPayload::App(_)) {
                    self.send_control_towards(now, origin, rerr, out);
                }
            }
        }
    }

    /// A frame this node originates towards `dest`, numbered now.
    fn originate(&mut self, dest: NodeId, payload: NetPayload<M>, size: u32) -> Frame<M> {
        Frame::Unicast {
            origin: self.node,
            seq: self.next_seq(),
            dest,
            hops: 0,
            payload,
            size,
        }
    }

    /// Sends a control payload towards `dest` if a fresh route is known.
    fn send_control_towards(
        &mut self,
        now: SimTime,
        dest: NodeId,
        ctl: RouteControl,
        out: &mut Vec<NetAction<M>>,
    ) {
        if let Some(next_hop) = self.fresh_route(dest, now) {
            let frame = self.originate(dest, NetPayload::Control(ctl), self.cfg.control_size);
            out.push(NetAction::Send { next_hop, frame });
        }
    }

    /// Draws the next origin-local frame sequence number. Floods and
    /// unicasts share one counter, so `(origin, seq)` identifies a frame
    /// regardless of shape; flood seq values simply skip the numbers
    /// consumed by unicast sends (dedup only needs uniqueness). A seq
    /// stays below 2^40, the width a dedup key gives it: reaching that
    /// would take more than 10^12 frames from one node.
    fn next_seq(&mut self) -> u64 {
        let seq = self.flood_seq;
        debug_assert!(seq < 1 << SEQ_BITS, "node {} ran out of seq", self.node);
        self.flood_seq += 1;
        seq
    }

    fn enqueue_and_discover(
        &mut self,
        now: SimTime,
        dest: NodeId,
        payload: M,
        size: u32,
        out: &mut Vec<NetAction<M>>,
    ) {
        let start_discovery = !self.pending.contains_key(&dest);
        let pending = self
            .pending
            .entry(dest)
            .or_insert_with(|| PendingDiscovery {
                attempt: 1,
                packets: VecDeque::new(),
            });
        if pending.packets.len() >= self.cfg.buffer_cap {
            // Oldest packet gives way; its application-level timeout
            // handles the loss.
            pending.packets.pop_front();
        }
        pending.packets.push_back((payload, size));
        if start_discovery {
            self.note(NetEvent::DiscoveryStart { dest, attempt: 1 });
            out.push(self.rreq_flood(now, dest, self.rreq_ttl_for_attempt(1)));
            out.push(NetAction::SetTimer {
                after: self.cfg.rreq_timeout,
                timer: NetTimer::RreqTimeout { dest, attempt: 1 },
            });
        }
    }

    /// AODV-style expanding-ring search: the first attempt stays local,
    /// later attempts use the full discovery TTL.
    fn rreq_ttl_for_attempt(&self, attempt: u8) -> u8 {
        if attempt <= 1 {
            (self.cfg.rreq_ttl / 3).max(2)
        } else {
            self.cfg.rreq_ttl
        }
    }

    fn rreq_flood(&mut self, now: SimTime, target: NodeId, ttl: u8) -> NetAction<M> {
        let id = FloodId {
            origin: self.node,
            seq: self.next_seq(),
        };
        let lifetime = self.dedup_lifetime(u64::from(ttl), self.cfg.control_size);
        self.remember_flood(now, id, lifetime);
        let req_id = self.rreq_seq;
        self.rreq_seq += 1;
        self.remember_rreq(now, self.node, req_id, lifetime);
        NetAction::Broadcast(Frame::Flood {
            id,
            ttl,
            hops: 0,
            payload: NetPayload::Control(RouteControl::Rreq {
                origin: self.node,
                target,
                req_id,
            }),
            size: self.cfg.control_size,
        })
    }

    fn flush_pending(&mut self, now: SimTime, dest: NodeId, out: &mut Vec<NetAction<M>>) {
        let Some(pending) = self.pending.remove(&dest) else {
            return;
        };
        for (payload, size) in pending.packets {
            out.push(match self.fresh_route(dest, now) {
                Some(next_hop) => NetAction::Send {
                    next_hop,
                    frame: self.originate(dest, NetPayload::App(payload), size),
                },
                None => NetAction::Undeliverable { dest, payload },
            });
        }
    }

    fn fresh_route(&mut self, dest: NodeId, now: SimTime) -> Option<NodeId> {
        match self.routes.get_mut(&dest) {
            Some(entry) if entry.expires > now => {
                entry.expires = now + self.cfg.route_ttl; // refresh on use
                Some(entry.next_hop)
            }
            _ => None,
        }
    }

    fn learn_route(&mut self, dest: NodeId, next_hop: NodeId, hops: u8, now: SimTime) {
        if dest == self.node {
            return;
        }
        let learned = RouteEntry {
            next_hop,
            hops,
            expires: now + self.cfg.route_ttl,
        };
        match self.routes.entry(dest) {
            // Prefer fresher information; replace stale or longer routes.
            Entry::Occupied(known) if known.get().expires > now && known.get().hops < hops => {}
            Entry::Occupied(mut known) => *known.get_mut() = learned,
            Entry::Vacant(unknown) => {
                unknown.insert(learned);
            }
        }
    }

    /// How long the ids of a flood sent with TTL `ttl` in frames of
    /// `size` bytes are held: see [`DedupMemory`].
    fn dedup_lifetime(&self, ttl: u64, size: u32) -> SimDuration {
        self.cfg.link.max_hop_delay(size) * (2 * ttl)
    }

    /// Returns false if this flood was already heard (or sent).
    fn remember_flood(&mut self, now: SimTime, id: FloodId, lifetime: SimDuration) -> bool {
        let key = DedupKey::new(id.origin, id.seq);
        self.seen_floods.remember(now, key, lifetime)
    }

    /// Returns false if this RREQ was already processed.
    fn remember_rreq(
        &mut self,
        now: SimTime,
        origin: NodeId,
        req_id: u64,
        lifetime: SimDuration,
    ) -> bool {
        let key = DedupKey::new(origin, req_id);
        self.seen_rreqs.remember(now, key, lifetime)
    }
}

/// Bits of a [`DedupKey`] that hold the sequence number; the origin
/// takes the other 24, so a network holds at most [`MAX_NODES`] nodes.
const SEQ_BITS: u32 = 40;

/// The most nodes a network may hold: a duplicate-suppression key packs
/// the origin of a frame into 24 bits, so every node id a stack hears
/// must be below this.
pub const MAX_NODES: usize = 1 << (u64::BITS - SEQ_BITS);

/// An `(origin, seq)` frame id in one word, `origin << 40 | seq`, for
/// origin < 2^24 and seq < 2^40: half the bytes of a [`FloodId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DedupKey(u64);

impl DedupKey {
    fn new(origin: NodeId, seq: u64) -> Self {
        debug_assert!(origin.index() < MAX_NODES && seq < 1 << SEQ_BITS);
        DedupKey((origin.index() as u64) << SEQ_BITS | seq)
    }
}

/// A duplicate-suppression memory: every key first heard within its
/// lifetime, in a ring in arrival order, each with the last instant it
/// must be held. A scan of the ring answers new-or-known: on the
/// benchmark runs a memory holds 1.1–1.5 keys on average when asked,
/// and at most 22.
///
/// A flood's ids live `2 · T · h` from when this node first hears (or
/// sends) the flood, where `T` is the TTL the flood was sent with (a
/// frame's `ttl + hops`) and `h` the link's [`LinkModel::max_hop_delay`]
/// for the frame's size. That is long enough. A node forwards a flood
/// once, the instant it first hears it, and a transmission is heard at
/// most `h` after it is sent — or `2h` when the fault plan duplicates it
/// and only the duplicate gets through. So a node whose first copy had
/// made `k` hops heard it by `2kh` after origination; only copies of
/// fewer than `T` hops are forwarded, so every copy is heard within
/// `2Th` of origination, which is no later than this node's first
/// hearing. A memory that forgets a key after its lifetime is never
/// asked about it again and answers as one that never forgets, while
/// what it holds is bounded by the floods heard in one lifetime, not by
/// how long the stream runs.
///
/// Keys are forgotten from the front of the ring, so one held past its
/// lifetime waits for those heard before it: the slots need not be in
/// lifetime order, because keeping a key longer never changes an answer.
#[derive(Debug, Clone, Default)]
struct DedupMemory {
    order: VecDeque<(DedupKey, SimTime)>,
}

impl DedupMemory {
    /// Forgets the keys at the front of the ring whose lifetime ended
    /// before `now`, then notes `key`, to be held through `now +
    /// lifetime`; returns false if it is still held.
    fn remember(&mut self, now: SimTime, key: DedupKey, lifetime: SimDuration) -> bool {
        while let Some(&(_, held_until)) = self.order.front() {
            if held_until >= now {
                break;
            }
            self.order.pop_front();
        }
        if self.order.iter().any(|&(held, _)| held == key) {
            return false;
        }
        self.order.push_back((key, now + lifetime));
        true
    }
}

/// What `fill` pushed, in a fresh vector: the by-value form of an
/// `_into` entry point, kept for callers that hold no buffer.
fn collected<M>(fill: impl FnOnce(&mut Vec<NetAction<M>>)) -> Vec<NetAction<M>> {
    let mut out = Vec::new();
    fill(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The events `stack` noted since the last drain.
    fn drained<M: Clone>(stack: &mut NetStack<M>) -> Vec<NetEvent> {
        let mut events = Vec::new();
        stack.swap_events(&mut events);
        events
    }

    fn frame_of<M: Clone + std::fmt::Debug>(actions: &[NetAction<M>]) -> Frame<M> {
        match &actions[0] {
            NetAction::Broadcast(f) => f.clone(),
            other => panic!("expected broadcast, got {other:?}"),
        }
    }

    #[test]
    fn a_rebooted_stack_forgets_everything_but_its_sequence_numbers() {
        let target = NodeId::new(9);
        let mut a: NetStack<&str> = NetStack::new(NodeId::new(0), NetConfig::default());
        let mut b: NetStack<&str> = NetStack::new(NodeId::new(1), NetConfig::default());
        a.set_tracing(true);
        // Two floods and one route request leave a's ids in b's memory.
        for payload in ["X", "Y"] {
            let flood = frame_of(&a.flood_app(SimTime::ZERO, 3, payload, 40));
            b.on_frame(SimTime::ZERO, NodeId::new(0), flood);
        }
        let rreq = frame_of(&a.send_app(SimTime::ZERO, target, "Z", 40));
        b.on_frame(SimTime::ZERO, NodeId::new(0), rreq);

        let mut a = a.rebooted();
        assert_eq!(a.route_count(SimTime::ZERO), 0);
        assert!(a.pending.is_empty() && a.seen_floods.order.is_empty());
        assert!(a.tracing, "the flight recorder stays attached");
        // What a sends next must be new to b: a fresh flood is delivered,
        // a fresh route request is re-flooded, neither is a duplicate.
        let flood = frame_of(&a.flood_app(SimTime::ZERO, 3, "W", 40));
        assert!(flood.provenance().1 >= 3, "ids continue past the crash");
        let heard = b.on_frame(SimTime::ZERO, NodeId::new(0), flood);
        assert!(heard
            .iter()
            .any(|act| matches!(act, NetAction::Deliver { payload: "W", .. })));
        let rreq = frame_of(&a.send_app(SimTime::ZERO, target, "Z", 40));
        let heard = b.on_frame(SimTime::ZERO, NodeId::new(0), rreq);
        assert!(
            heard.iter().any(|a| matches!(a, NetAction::Broadcast(_))),
            "b must forward the rebooted node's request, not suppress it: {heard:?}"
        );
    }

    #[test]
    fn events_are_off_by_default() {
        let mut a: NetStack<&str> = NetStack::new(NodeId::new(0), NetConfig::default());
        let mut b: NetStack<&str> = NetStack::new(NodeId::new(1), NetConfig::default());
        let flood = frame_of(&a.flood_app(SimTime::ZERO, 3, "X", 40));
        b.on_frame(SimTime::ZERO, NodeId::new(0), flood.clone());
        b.on_frame(SimTime::ZERO, NodeId::new(0), flood); // duplicate
        assert!(drained(&mut b).is_empty());
    }

    #[test]
    fn tracing_notes_dup_and_ttl_drops() {
        let mut a: NetStack<&str> = NetStack::new(NodeId::new(0), NetConfig::default());
        let mut b: NetStack<&str> = NetStack::new(NodeId::new(1), NetConfig::default());
        b.set_tracing(true);
        let fresh = frame_of(&a.flood_app(SimTime::ZERO, 1, "X", 40));
        b.on_frame(SimTime::ZERO, NodeId::new(0), fresh.clone());
        b.on_frame(SimTime::ZERO, NodeId::new(0), fresh);
        let events = drained(&mut b);
        assert_eq!(
            events,
            vec![
                // TTL 1 floods deliver but never re-broadcast.
                NetEvent::FloodTtlExhausted {
                    origin: NodeId::new(0)
                },
                NetEvent::FloodDupDrop {
                    origin: NodeId::new(0),
                    seq: 0,
                },
            ]
        );
        // The buffer drains on swap.
        assert!(drained(&mut b).is_empty());
    }

    #[test]
    fn swapping_events_keeps_the_callers_allocation_in_the_stack() {
        let mut a: NetStack<&str> = NetStack::new(NodeId::new(0), NetConfig::default());
        let mut b: NetStack<&str> = NetStack::new(NodeId::new(1), NetConfig::default());
        b.set_tracing(true);
        let flood = frame_of(&a.flood_app(SimTime::ZERO, 3, "X", 40));
        b.on_frame(SimTime::ZERO, NodeId::new(0), flood.clone());
        let mut scratch = Vec::with_capacity(64);
        scratch.push(NetEvent::RreqDupDrop {
            origin: NodeId::new(9),
        }); // stale content must not leak into the stack
        b.swap_events(&mut scratch);
        assert!(scratch.is_empty(), "first reception noted nothing");
        b.on_frame(SimTime::ZERO, NodeId::new(0), flood);
        assert!(
            b.events.capacity() >= 64,
            "stack adopted the scratch buffer"
        );
        b.swap_events(&mut scratch);
        assert_eq!(
            scratch,
            vec![NetEvent::FloodDupDrop {
                origin: NodeId::new(0),
                seq: 0,
            }]
        );
    }

    #[test]
    fn tracing_notes_discovery_lifecycle() {
        let cfg = NetConfig::default();
        let mut a: NetStack<&str> = NetStack::new(NodeId::new(0), cfg);
        a.set_tracing(true);
        let dest = NodeId::new(9);
        a.send_app(SimTime::ZERO, dest, "hello", 64);
        assert_eq!(
            drained(&mut a),
            vec![NetEvent::DiscoveryStart { dest, attempt: 1 }]
        );
        // Let every retry time out.
        let mut at = SimTime::ZERO;
        for attempt in 1..=cfg.rreq_retries {
            at += cfg.rreq_timeout;
            a.on_timer(at, NetTimer::RreqTimeout { dest, attempt });
        }
        let events = drained(&mut a);
        assert!(events
            .iter()
            .any(|e| matches!(e, NetEvent::DiscoveryStart { attempt: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, NetEvent::DiscoveryFailed { dropped: 1, .. })));
    }

    #[test]
    fn disabling_tracing_clears_buffered_events() {
        let mut a: NetStack<&str> = NetStack::new(NodeId::new(0), NetConfig::default());
        a.set_tracing(true);
        a.send_app(SimTime::ZERO, NodeId::new(5), "x", 16);
        a.set_tracing(false);
        assert!(drained(&mut a).is_empty());
    }

    /// A memory forgets every key whose lifetime ended before the
    /// reception that asks it. Route requests of one shape, a TTL-1
    /// flood of 32 bytes each, live 12 ms on the default link; one heard
    /// every 5 ms leaves at most three ids in each memory, however long
    /// the stream runs.
    #[test]
    fn no_expired_slot_survives_a_remember() {
        let (me, origin) = (NodeId::new(0), NodeId::new(1));
        let mut stack: NetStack<u64> = NetStack::new(me, NetConfig::default());
        assert_eq!(stack.dedup_lifetime(1, 32), SimDuration::from_millis(12));
        for seq in 0..1_000u64 {
            let now = SimTime::from_millis(5 * seq);
            let rreq = RouteControl::Rreq {
                origin,
                target: NodeId::new(9),
                req_id: seq,
            };
            let frame = Frame::Flood {
                id: FloodId { origin, seq },
                ttl: 1,
                hops: 0,
                payload: NetPayload::Control(rreq),
                size: 32,
            };
            stack.on_frame(now, origin, frame);
            for memory in [&stack.seen_floods, &stack.seen_rreqs] {
                let held: Vec<_> = memory.order.iter().map(|&(_, until)| until).collect();
                assert!(
                    held.iter().all(|&until| until >= now) && held.len() <= 3,
                    "at {now}: slots held until {held:?}"
                );
            }
        }
    }

    /// The latest copy a flood can send back is still a duplicate. A
    /// 48-byte flood sent with TTL 8 at 0 ms, first heard here two hops
    /// out at 2 ms, can return as late as 96 ms: eight transmissions of
    /// at most 6 ms on the default link, each possibly heard only as a
    /// duplicate one more hop delay later. The lifetime runs from the
    /// TTL the flood was sent with, not from the TTL left here, and
    /// ends there: a copy one millisecond later would be new.
    #[test]
    fn the_latest_copy_a_ttl_allows_is_a_duplicate() {
        let (me, origin, via) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let copy = |ttl, hops| Frame::Flood {
            id: FloodId { origin, seq: 0 },
            ttl,
            hops,
            payload: NetPayload::App(0u64),
            size: 48,
        };
        let mut stack: NetStack<u64> = NetStack::new(me, NetConfig::default());
        let first = stack.on_frame(SimTime::from_millis(2), via, copy(7, 1));
        assert!(matches!(first[0], NetAction::Deliver { .. }));
        let latest = stack.on_frame(SimTime::from_millis(96), via, copy(1, 7));
        assert!(latest.is_empty(), "heard at 96 ms: {latest:?}");
        let after = stack.on_frame(SimTime::from_millis(99), via, copy(1, 7));
        assert!(!after.is_empty(), "forgotten after 98 ms");
    }

    /// The two memories share a key format, not a set: an app flood
    /// `(origin, 5)` leaves request 5 of `origin` new, and request 7
    /// leaves the app flood `(origin, 7)` new.
    #[test]
    fn a_flood_and_a_route_request_with_one_id_stay_in_separate_memories() {
        let (me, origin) = (NodeId::new(0), NodeId::new(1));
        let flood = |seq, payload| Frame::Flood {
            id: FloodId { origin, seq },
            ttl: 2,
            hops: 0,
            payload,
            size: 32,
        };
        let rreq = |req_id| {
            NetPayload::Control(RouteControl::Rreq {
                origin,
                target: NodeId::new(9),
                req_id,
            })
        };
        let mut stack: NetStack<u64> = NetStack::new(me, NetConfig::default());
        let mut hear = |frame| stack.on_frame(SimTime::ZERO, origin, frame);
        for (first, second) in [
            (flood(5, NetPayload::App(5)), flood(6, rreq(5))),
            (flood(8, rreq(7)), flood(7, NetPayload::App(7))),
        ] {
            for frame in [first, second] {
                let heard = hear(frame);
                assert!(
                    matches!(heard.last(), Some(NetAction::Broadcast(_))),
                    "first seen, so forwarded: {heard:?}"
                );
            }
        }
    }

    /// The ids at the corners of the packed key's domain (origin below
    /// 2^24, seq below 2^40) and a few ordinary ones, drawn with repeats.
    fn dedup_stream() -> impl Strategy<Value = Vec<(NodeId, u64)>> {
        const ORIGINS: [u32; 4] = [0, 1, (1 << 24) - 2, (1 << 24) - 1];
        const SEQS: [u64; 6] = [0, 1, 7, 1 << 39, (1 << 40) - 2, (1 << 40) - 1];
        let id = (0usize..ORIGINS.len(), 0usize..SEQS.len())
            .prop_map(|(o, s)| (NodeId::new(ORIGINS[o]), SEQS[s]));
        proptest::collection::vec(id, 0..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An id is new iff it was not first heard within its lifetime:
        /// an id first heard (answered new) at `t` with lifetime `l` is
        /// known through `t + l` and may be new again after. When every
        /// id lives as long, the ring forgets in lifetime order and the
        /// answer is exactly that; with mixed lifetimes an id may be
        /// held longer, behind one heard before it, but never shorter,
        /// and an id never heard is always new.
        #[test]
        fn prop_an_id_is_new_iff_it_was_not_first_heard_within_its_lifetime(
            stream in dedup_stream(),
            steps in proptest::collection::vec((0u64..8, 1u64..24), 200),
            one_lifetime in any::<bool>(),
        ) {
            let mut memory = DedupMemory::default();
            let mut held_until: FastMap<(NodeId, u64), SimTime> = FastMap::default();
            let mut now = SimTime::ZERO;
            for (i, (&key, &(step, lifetime))) in stream.iter().zip(&steps).enumerate() {
                now += SimDuration::from_millis(step);
                let lifetime = SimDuration::from_millis(if one_lifetime { 10 } else { lifetime });
                let held = held_until.get(&key).map(|&until| until >= now);
                let new = memory.remember(now, DedupKey::new(key.0, key.1), lifetime);
                match held {
                    Some(true) => prop_assert!(!new, "id {} of {:?} forgotten early", i, stream),
                    None => prop_assert!(new, "id {} of {:?} never heard", i, stream),
                    Some(false) if one_lifetime => prop_assert!(new, "id {} of {:?} held late", i, stream),
                    Some(false) => {}
                }
                if new {
                    held_until.insert(key, now + lifetime);
                }
            }
        }
    }
}
