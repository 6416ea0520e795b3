//! End-to-end tests of the network layer over static topologies, driven
//! by a miniature event loop (the real driver lives in `mp2p-rpcc`).

use mp2p_mobility::Point;
use mp2p_net::{
    FloodId, Frame, LinkModel, NetAction, NetConfig, NetMeta, NetPayload, NetStack, NetTimer,
    RouteControl, Topology,
};
use mp2p_sim::{EventQueue, FastMap, NodeId, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// A static-network test driver: applies `NetAction`s, delivers frames
/// after link delays, and records deliveries/undeliverables/traffic.
struct TestNet {
    topo: Topology,
    stacks: Vec<NetStack<String>>,
    queue: EventQueue<Event>,
    link: LinkModel,
    rng: SimRng,
    now: SimTime,
    delivered: Vec<(NodeId, String, NetMeta)>,
    undeliverable: Vec<(NodeId, NodeId, String)>,
    transmissions: usize,
    control_transmissions: usize,
}

enum Event {
    Rx {
        at: NodeId,
        from: NodeId,
        frame: Frame<String>,
    },
    Timer {
        at: NodeId,
        timer: NetTimer,
    },
}

impl TestNet {
    fn new(positions: Vec<Point>, range: f64) -> Self {
        let n = positions.len();
        let topo = Topology::new(&positions, &vec![true; n], range);
        let stacks = (0..n)
            .map(|i| NetStack::new(NodeId::new(i as u32), NetConfig::default()))
            .collect();
        TestNet {
            topo,
            stacks,
            queue: EventQueue::new(),
            link: LinkModel::default(),
            rng: SimRng::from_seed(7, 0),
            now: SimTime::ZERO,
            delivered: Vec::new(),
            undeliverable: Vec::new(),
            transmissions: 0,
            control_transmissions: 0,
        }
    }

    fn line(n: usize, spacing: f64) -> Self {
        TestNet::new(
            (0..n)
                .map(|i| Point::new(i as f64 * spacing, 0.0))
                .collect(),
            250.0,
        )
    }

    fn apply(&mut self, node: NodeId, actions: Vec<NetAction<String>>) {
        for action in actions {
            match action {
                NetAction::Broadcast(frame) => {
                    self.transmissions += 1;
                    if frame.is_control() {
                        self.control_transmissions += 1;
                    }
                    let delay = self.link.hop_delay(frame.size(), &mut self.rng);
                    for &nb in self.topo.neighbors(node) {
                        self.queue.push(
                            self.now + delay,
                            Event::Rx {
                                at: nb,
                                from: node,
                                frame: frame.clone(),
                            },
                        );
                    }
                }
                NetAction::Send { next_hop, frame } => {
                    self.transmissions += 1;
                    if frame.is_control() {
                        self.control_transmissions += 1;
                    }
                    if self.topo.are_neighbors(node, next_hop) {
                        let delay = self.link.hop_delay(frame.size(), &mut self.rng);
                        self.queue.push(
                            self.now + delay,
                            Event::Rx {
                                at: next_hop,
                                from: node,
                                frame,
                            },
                        );
                    } else {
                        let now = self.now;
                        let fail = self.stacks[node.index()].on_send_failed(now, next_hop, frame);
                        self.apply(node, fail);
                    }
                }
                NetAction::Deliver { payload, meta } => self.delivered.push((node, payload, meta)),
                NetAction::SetTimer { after, timer } => {
                    self.queue
                        .push(self.now + after, Event::Timer { at: node, timer });
                }
                NetAction::Undeliverable { dest, payload } => {
                    self.undeliverable.push((node, dest, payload));
                }
            }
        }
    }

    fn run(&mut self) {
        while let Some((t, event)) = self.queue.pop() {
            self.now = t;
            match event {
                Event::Rx { at, from, frame } => {
                    let actions = self.stacks[at.index()].on_frame(t, from, frame);
                    self.apply(at, actions);
                }
                Event::Timer { at, timer } => {
                    let actions = self.stacks[at.index()].on_timer(t, timer);
                    self.apply(at, actions);
                }
            }
        }
    }

    fn flood(&mut self, from: NodeId, ttl: u8, msg: &str) {
        let actions = self.stacks[from.index()].flood_app(self.now, ttl, msg.to_string(), 48);
        self.apply(from, actions);
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: &str) {
        let actions = self.stacks[from.index()].send_app(self.now, to, msg.to_string(), 128);
        self.apply(from, actions);
    }

    fn receivers_of(&self, msg: &str) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .delivered
            .iter()
            .filter(|(_, m, _)| m == msg)
            .map(|(n, _, _)| *n)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn flood_reaches_exactly_ttl_hops_on_a_line() {
    let mut net = TestNet::line(8, 200.0);
    net.flood(n(0), 3, "inv");
    net.run();
    assert_eq!(net.receivers_of("inv"), vec![n(1), n(2), n(3)]);
}

#[test]
fn flood_is_duplicate_suppressed_on_dense_graph() {
    // A 5-node clique: everyone hears everyone; each node must deliver
    // exactly once and rebroadcast at most once.
    let mut net = TestNet::new(
        (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect(),
        250.0,
    );
    net.flood(n(0), 4, "inv");
    net.run();
    assert_eq!(net.receivers_of("inv"), vec![n(1), n(2), n(3), n(4)]);
    assert_eq!(net.delivered.len(), 4, "each node delivers exactly once");
    // Transmissions: origin + at most one rebroadcast per other node.
    assert!(
        net.transmissions <= 5,
        "dup suppression failed: {} txs",
        net.transmissions
    );
}

#[test]
fn flood_ttl_one_reaches_only_neighbors() {
    let mut net = TestNet::line(4, 200.0);
    net.flood(n(1), 1, "hello");
    net.run();
    assert_eq!(net.receivers_of("hello"), vec![n(0), n(2)]);
    assert_eq!(net.transmissions, 1, "TTL 1 floods are never rebroadcast");
}

#[test]
fn unicast_discovers_route_and_delivers_multi_hop() {
    let mut net = TestNet::line(6, 200.0);
    net.send(n(0), n(5), "update");
    net.run();
    let got = net.receivers_of("update");
    assert_eq!(got, vec![n(5)]);
    let (_, _, meta) = net
        .delivered
        .iter()
        .find(|(_, m, _)| m == "update")
        .unwrap();
    assert_eq!(meta.hops, 5);
    assert_eq!(meta.origin, n(0));
    assert!(!meta.via_flood);
    assert!(
        net.control_transmissions > 0,
        "discovery should cost control traffic"
    );
}

#[test]
fn second_send_reuses_cached_route() {
    let mut net = TestNet::line(5, 200.0);
    net.send(n(0), n(4), "first");
    net.run();
    let control_after_first = net.control_transmissions;
    net.send(n(0), n(4), "second");
    net.run();
    assert_eq!(net.receivers_of("second"), vec![n(4)]);
    assert_eq!(
        net.control_transmissions, control_after_first,
        "cached route must not trigger a second discovery"
    );
}

#[test]
fn reply_path_is_learned_from_request() {
    // After 0 -> 4 delivery, node 4 can answer without its own discovery.
    let mut net = TestNet::line(5, 200.0);
    net.send(n(0), n(4), "poll");
    net.run();
    let control_after = net.control_transmissions;
    net.send(n(4), n(0), "poll_ack");
    net.run();
    assert_eq!(net.receivers_of("poll_ack"), vec![n(0)]);
    assert_eq!(
        net.control_transmissions, control_after,
        "reverse route was free"
    );
}

#[test]
fn unreachable_destination_reports_undeliverable() {
    // Two far-apart islands.
    let mut net = TestNet::new(
        vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(5_000.0, 0.0),
        ],
        250.0,
    );
    net.send(n(0), n(2), "lost");
    net.run();
    assert!(net.receivers_of("lost").is_empty());
    assert_eq!(net.undeliverable.len(), 1);
    let (at, dest, payload) = &net.undeliverable[0];
    assert_eq!((*at, *dest, payload.as_str()), (n(0), n(2), "lost"));
}

#[test]
fn loopback_delivers_without_traffic() {
    let mut net = TestNet::line(3, 200.0);
    net.send(n(1), n(1), "self");
    net.run();
    assert_eq!(net.receivers_of("self"), vec![n(1)]);
    assert_eq!(net.transmissions, 0);
}

#[test]
fn many_floods_with_distinct_ids_all_deliver() {
    let mut net = TestNet::line(4, 200.0);
    for i in 0..10 {
        net.flood(n(0), 4, &format!("inv{i}"));
    }
    net.run();
    for i in 0..10 {
        assert_eq!(net.receivers_of(&format!("inv{i}")), vec![n(1), n(2), n(3)]);
    }
}

#[test]
fn concurrent_discoveries_to_same_dest_share_one_rreq() {
    let mut net = TestNet::line(5, 200.0);
    let a1 = net.stacks[0].send_app(SimTime::ZERO, n(4), "m1".into(), 64);
    let a2 = net.stacks[0].send_app(SimTime::ZERO, n(4), "m2".into(), 64);
    // Second send while discovery pending: no second RREQ broadcast.
    let rreqs_in = |actions: &[NetAction<String>]| {
        actions
            .iter()
            .filter(|a| matches!(a, NetAction::Broadcast(_)))
            .count()
    };
    assert_eq!(rreqs_in(&a1), 1);
    assert_eq!(rreqs_in(&a2), 0);
    net.apply(n(0), a1);
    net.apply(n(0), a2);
    net.run();
    assert_eq!(net.receivers_of("m1"), vec![n(4)]);
    assert_eq!(net.receivers_of("m2"), vec![n(4)]);
}

/// One input to a lone stack: a frame it hears, a MAC failure, an
/// application send or a clock step.
#[derive(Debug, Clone)]
enum Step {
    /// A first-seen TTL-1 flood of `origin`'s, heard from `from`.
    Flood { origin: u32, from: u32, hops: u8 },
    /// An application unicast from `origin` to `dest`, relayed by `from`.
    Relay {
        origin: u32,
        from: u32,
        dest: u32,
        hops: u8,
    },
    /// An RERR from `origin` naming `broken`, addressed to this node.
    Rerr {
        origin: u32,
        from: u32,
        broken: u32,
        hops: u8,
    },
    /// The MAC could not reach `next_hop`: a flood of this node's, or
    /// (`origin` set) data relayed for `origin`.
    SendFailed { next_hop: u32, origin: Option<u32> },
    /// The application sends to `dest`.
    Send { dest: u32 },
    /// The clock moves on.
    Wait { ms: u64 },
}

/// Ids of the route property: the stack is node 0, its neighbours are
/// 1–6, and the destinations are 1–149 plus eight ids at the top of the
/// 24 bits a node id may use.
fn route_ids() -> Vec<u32> {
    (1..150).chain((1 << 24) - 8..1 << 24).collect()
}

fn route_id() -> impl Strategy<Value = u32> {
    (0u32..157).prop_map(|i| if i < 149 { i + 1 } else { (1 << 24) - 157 + i })
}

/// Floods weigh three, relays and clock steps two, the rest one.
fn route_step() -> impl Strategy<Value = Step> {
    let flood = || {
        (route_id(), 1u32..7, 0u8..6).prop_map(|(origin, from, hops)| Step::Flood {
            origin,
            from,
            hops,
        })
    };
    let relay = || {
        (route_id(), 1u32..7, route_id(), 0u8..30).prop_map(|(origin, from, dest, hops)| {
            Step::Relay {
                origin,
                from,
                dest,
                hops,
            }
        })
    };
    let wait = || prop_oneof![0u64..2_000, 59_990u64..60_010].prop_map(|ms| Step::Wait { ms });
    prop_oneof![
        flood(),
        flood(),
        flood(),
        relay(),
        relay(),
        (route_id(), 1u32..7, route_id(), 0u8..6).prop_map(|(origin, from, broken, hops)| {
            Step::Rerr {
                origin,
                from,
                broken,
                hops,
            }
        }),
        (1u32..7, any::<bool>(), route_id()).prop_map(|(next_hop, relayed, origin)| {
            Step::SendFailed {
                next_hop,
                origin: relayed.then_some(origin),
            }
        }),
        route_id().prop_map(|dest| Step::Send { dest }),
        wait(),
        wait(),
    ]
}

/// The route table as a map: what `learn_route`, `fresh_route`, RERR
/// removal and the send-failure purge do to it, spelled out.
struct RouteModel {
    me: NodeId,
    ttl: SimDuration,
    routes: FastMap<NodeId, (NodeId, u8, SimTime)>,
}

impl RouteModel {
    fn learn(&mut self, dest: NodeId, next_hop: NodeId, hops: u8, now: SimTime) {
        if dest == self.me {
            return;
        }
        match self.routes.get(&dest) {
            Some(&(_, known, expires)) if expires > now && known < hops => {}
            _ => {
                self.routes.insert(dest, (next_hop, hops, now + self.ttl));
            }
        }
    }

    fn fresh(&mut self, dest: NodeId, now: SimTime) -> Option<NodeId> {
        match self.routes.get_mut(&dest) {
            Some(route) if route.2 > now => {
                route.2 = now + self.ttl;
                Some(route.0)
            }
            _ => None,
        }
    }

    fn has(&self, dest: NodeId, now: SimTime) -> bool {
        matches!(self.routes.get(&dest), Some(&(_, _, expires)) if expires > now)
    }
}

fn sends(actions: &[NetAction<u64>]) -> Vec<NodeId> {
    actions
        .iter()
        .filter_map(|action| match action {
            NetAction::Send { next_hop, .. } => Some(*next_hop),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A lone stack's route table answers as a map would, whatever it
    /// hears: after every step, `has_route` for every id and
    /// `route_count` agree with a `FastMap` model, and every unicast the
    /// stack sends leaves by the next hop the model names. A hundred and
    /// more destinations make the table grow, share home slots and wrap
    /// past its end; RERRs and MAC failures remove from it, and clock
    /// steps of about `route_ttl` expire routes at the boundary.
    #[test]
    fn prop_the_route_table_answers_as_a_map(
        steps in proptest::collection::vec(route_step(), 1..300),
    ) {
        let me = n(0);
        let cfg = NetConfig::default();
        let mut stack: NetStack<u64> = NetStack::new(me, cfg);
        let mut model = RouteModel {
            me,
            ttl: cfg.route_ttl,
            routes: FastMap::default(),
        };
        let ids = route_ids();
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        for (seq, step) in (0u64..).zip(&steps) {
            out.clear();
            let expected: Vec<NodeId> = match *step {
                Step::Flood { origin, from, hops } => {
                    let flood = Frame::Flood {
                        id: FloodId { origin: n(origin), seq },
                        ttl: 1,
                        hops,
                        payload: NetPayload::App(seq),
                        size: 48,
                    };
                    stack.on_frame_into(now, n(from), &flood, &mut out);
                    model.learn(n(origin), n(from), hops + 1, now);
                    Vec::new()
                }
                Step::Relay { origin, from, dest, hops } => {
                    let unicast = Frame::Unicast {
                        origin: n(origin),
                        seq,
                        dest: n(dest),
                        hops,
                        payload: NetPayload::App(seq),
                        size: 64,
                    };
                    stack.on_frame_into(now, n(from), &unicast, &mut out);
                    model.learn(n(origin), n(from), hops + 1, now);
                    let onward = if hops >= cfg.max_unicast_hops {
                        model.routes.remove(&n(dest));
                        None
                    } else {
                        model.fresh(n(dest), now).filter(|&hop| hop != n(from))
                    };
                    // Forwarded, or else an RERR back towards the origin.
                    onward.or_else(|| model.fresh(n(origin), now)).into_iter().collect()
                }
                Step::Rerr { origin, from, broken, hops } => {
                    let rerr = Frame::Unicast {
                        origin: n(origin),
                        seq,
                        dest: me,
                        hops,
                        payload: NetPayload::Control(RouteControl::Rerr { broken_dest: n(broken) }),
                        size: 32,
                    };
                    stack.on_frame_into(now, n(from), &rerr, &mut out);
                    model.learn(n(origin), n(from), hops + 1, now);
                    model.routes.remove(&n(broken));
                    Vec::new()
                }
                Step::SendFailed { next_hop, origin } => {
                    let frame = match origin {
                        Some(origin) => Frame::Unicast {
                            origin: n(origin),
                            seq,
                            dest: n(149),
                            hops: 1,
                            payload: NetPayload::App(seq),
                            size: 64,
                        },
                        None => Frame::Flood {
                            id: FloodId { origin: me, seq },
                            ttl: 3,
                            hops: 0,
                            payload: NetPayload::App(seq),
                            size: 48,
                        },
                    };
                    stack.on_send_failed_into(now, n(next_hop), frame, &mut out);
                    model.routes.retain(|_, route| route.0 != n(next_hop));
                    // Relayed data is answered with an RERR to its origin.
                    origin.and_then(|origin| model.fresh(n(origin), now)).into_iter().collect()
                }
                Step::Send { dest } => {
                    stack.send_app_into(now, n(dest), seq, 64, &mut out);
                    model.fresh(n(dest), now).into_iter().collect()
                }
                Step::Wait { ms } => {
                    now += SimDuration::from_millis(ms);
                    Vec::new()
                }
            };
            prop_assert_eq!(sends(&out), expected, "step {} {:?}", seq, step);
            for &id in &ids {
                prop_assert_eq!(
                    stack.has_route(n(id), now),
                    model.has(n(id), now),
                    "route to {} after step {} {:?}", id, seq, step
                );
            }
            let live = model.routes.values().filter(|route| route.2 > now).count();
            prop_assert_eq!(stack.route_count(now), live, "after step {} {:?}", seq, step);
        }
    }
}
