//! Property tests of the network layer over random static geometries: the
//! flood reach matches the topology's TTL ball, and unicast delivery
//! succeeds exactly on connected pairs.

use proptest::prelude::*;

use mp2p_mobility::{Point, Terrain};
use mp2p_net::{
    FloodId, Frame, LinkModel, NetAction, NetConfig, NetEvent, NetPayload, NetStack, NetTimer,
    RouteControl, Topology, TopologyScratch,
};
use mp2p_sim::{EventQueue, NodeId, SimDuration, SimRng, SimTime};

/// Minimal synchronous driver (mirrors the one in routing.rs, kept local
/// so each test file stands alone).
struct Driver {
    topo: Topology,
    stacks: Vec<NetStack<u64>>,
    queue: EventQueue<Ev>,
    link: LinkModel,
    rng: SimRng,
    now: SimTime,
    delivered: Vec<(NodeId, u64)>,
    undeliverable: Vec<(NodeId, u64)>,
}

enum Ev {
    Rx {
        at: NodeId,
        from: NodeId,
        frame: Frame<u64>,
    },
    Timer {
        at: NodeId,
        timer: NetTimer,
    },
}

impl Driver {
    fn new(positions: &[Point]) -> Self {
        let n = positions.len();
        Driver {
            topo: Topology::new(positions, &vec![true; n], 250.0),
            stacks: (0..n)
                .map(|i| NetStack::new(NodeId::new(i as u32), NetConfig::default()))
                .collect(),
            queue: EventQueue::new(),
            link: LinkModel::default(),
            rng: SimRng::from_seed(99, 0),
            now: SimTime::ZERO,
            delivered: Vec::new(),
            undeliverable: Vec::new(),
        }
    }

    fn apply(&mut self, node: NodeId, actions: Vec<NetAction<u64>>) {
        for action in actions {
            match action {
                NetAction::Broadcast(frame) => {
                    let delay = self.link.hop_delay(frame.size(), &mut self.rng);
                    for &nb in self.topo.neighbors(node) {
                        self.queue.push(
                            self.now + delay,
                            Ev::Rx {
                                at: nb,
                                from: node,
                                frame: frame.clone(),
                            },
                        );
                    }
                }
                NetAction::Send { next_hop, frame } => {
                    if self.topo.are_neighbors(node, next_hop) {
                        let delay = self.link.hop_delay(frame.size(), &mut self.rng);
                        self.queue.push(
                            self.now + delay,
                            Ev::Rx {
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
                NetAction::Deliver { payload, .. } => self.delivered.push((node, payload)),
                NetAction::SetTimer { after, timer } => {
                    self.queue
                        .push(self.now + after, Ev::Timer { at: node, timer });
                }
                NetAction::Undeliverable { dest: _, payload } => {
                    self.undeliverable.push((node, payload));
                }
            }
        }
    }

    fn run(&mut self) {
        let mut steps = 0usize;
        while let Some((t, ev)) = self.queue.pop() {
            steps += 1;
            assert!(steps < 2_000_000, "event storm: likely a loop");
            self.now = t;
            match ev {
                Ev::Rx { at, from, frame } => {
                    let actions = self.stacks[at.index()].on_frame(t, from, frame);
                    self.apply(at, actions);
                }
                Ev::Timer { at, timer } => {
                    let actions = self.stacks[at.index()].on_timer(t, timer);
                    self.apply(at, actions);
                }
            }
        }
    }
}

fn random_positions(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = SimRng::from_seed(seed, 1);
    let terrain = Terrain::new(1_200.0, 1_200.0);
    (0..n).map(|_| terrain.random_point(&mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A TTL-k flood delivers to exactly the nodes within k hops.
    #[test]
    fn prop_flood_reach_is_the_ttl_ball(seed in any::<u64>(), n in 3usize..20, ttl in 1u8..5) {
        let positions = random_positions(seed, n);
        let mut driver = Driver::new(&positions);
        let origin = NodeId::new(0);
        let actions = driver.stacks[0].flood_app(SimTime::ZERO, ttl, 7u64, 48);
        driver.apply(origin, actions);
        driver.run();
        let mut got: Vec<NodeId> = driver
            .delivered
            .iter()
            .filter(|(_, p)| *p == 7)
            .map(|(node, _)| *node)
            .collect();
        got.sort_unstable();
        got.dedup();
        let mut expected = Vec::new();
        driver
            .topo
            .within_hops_with(&mut TopologyScratch::new(), origin, u32::from(ttl), &mut expected);
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Unicast delivers iff the pair is connected; otherwise the stack
    /// reports the payload undeliverable. Exactly one of the two happens.
    #[test]
    fn prop_unicast_delivers_iff_connected(seed in any::<u64>(), n in 2usize..16) {
        let positions = random_positions(seed, 2 + n);
        let count = positions.len();
        let mut driver = Driver::new(&positions);
        let src = NodeId::new(0);
        let dst = NodeId::new(count as u32 - 1);
        let connected = driver
            .topo
            .hops_with(&mut TopologyScratch::new(), src, dst)
            .is_some();
        let actions = driver.stacks[0].send_app(SimTime::ZERO, dst, 99u64, 64);
        driver.apply(src, actions);
        driver.run();
        let delivered = driver.delivered.iter().any(|&(node, p)| node == dst && p == 99);
        let bounced = driver.undeliverable.iter().any(|&(node, p)| node == src && p == 99);
        prop_assert_eq!(delivered, connected, "delivery must match connectivity");
        prop_assert_eq!(bounced, !connected, "disconnection must surface as undeliverable");
        prop_assert!(delivered != bounced, "exactly one outcome");
    }

    /// Back-to-back unicasts all arrive, in order of transmission, over a
    /// static topology.
    #[test]
    fn prop_unicast_stream_is_complete(seed in any::<u64>(), k in 1usize..12) {
        let positions = random_positions(seed, 10);
        let mut driver = Driver::new(&positions);
        let src = NodeId::new(0);
        let dst = NodeId::new(9);
        if driver
            .topo
            .hops_with(&mut TopologyScratch::new(), src, dst)
            .is_none()
        {
            return Ok(()); // disconnected geometry: covered elsewhere
        }
        for i in 0..k as u64 {
            let actions = driver.stacks[0].send_app(SimTime::ZERO, dst, i, 64);
            driver.apply(src, actions);
        }
        driver.run();
        let got: Vec<u64> = driver
            .delivered
            .iter()
            .filter(|&&(node, _)| node == dst)
            .map(|&(_, p)| p)
            .collect();
        prop_assert_eq!(got.len(), k, "every message arrives exactly once");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..k as u64).collect::<Vec<_>>());
    }
}

/// One input to a stack, drawn from a space small enough that floods
/// repeat, routes exist, discoveries overlap and hop budgets run out.
#[derive(Debug, Clone)]
enum Input {
    Frame { from: NodeId, frame: Frame<u64> },
    Flood { ttl: u8, payload: u64 },
    Send { dest: NodeId, payload: u64 },
    Timer(NetTimer),
    SendFailed { next_hop: NodeId, frame: Frame<u64> },
}

fn any_frame(me: NodeId) -> impl Strategy<Value = Frame<u64>> {
    let fields = (0u8..7, 0u32..5, 0u64..6, 0u32..5, 0u8..30, 0u8..4);
    fields.prop_map(move |(shape, origin, seq, other, hops, ttl)| {
        let (origin, other) = (NodeId::new(origin), NodeId::new(other));
        let control = match shape % 3 {
            0 => RouteControl::Rreq {
                origin,
                target: other,
                req_id: seq % 3,
            },
            1 => RouteControl::Rrep { requester: other },
            _ => RouteControl::Rerr { broken_dest: other },
        };
        let payload = if shape < 4 {
            NetPayload::App(seq * 10 + u64::from(shape))
        } else {
            NetPayload::Control(control)
        };
        if shape % 2 == 0 {
            let id = FloodId { origin, seq };
            Frame::Flood {
                id,
                ttl,
                hops: hops % 8,
                payload,
                size: 40,
            }
        } else {
            Frame::Unicast {
                origin,
                seq,
                // Addressed here half of the time, relayed otherwise.
                dest: if seq % 2 == 0 { me } else { other },
                hops,
                payload,
                size: 64,
            }
        }
    })
}

fn any_input(me: NodeId) -> impl Strategy<Value = Input> {
    let node = || (0u32..5).prop_map(NodeId::new);
    prop_oneof![
        (node(), any_frame(me)).prop_map(|(from, frame)| Input::Frame { from, frame }),
        (node(), any_frame(me)).prop_map(|(from, frame)| Input::Frame { from, frame }),
        (0u8..4, 0u64..9).prop_map(|(ttl, payload)| Input::Flood { ttl, payload }),
        (node(), 0u64..9).prop_map(|(dest, payload)| Input::Send { dest, payload }),
        (node(), 1u8..4)
            .prop_map(|(dest, attempt)| Input::Timer(NetTimer::RreqTimeout { dest, attempt })),
        (node(), any_frame(me)).prop_map(|(next_hop, frame)| Input::SendFailed { next_hop, frame }),
    ]
}

fn events_of(stack: &mut NetStack<u64>) -> Vec<NetEvent> {
    let mut events = Vec::new();
    stack.swap_events(&mut events);
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `Vec`-returning entry points and their `_into` forms are one
    /// machine: two stacks fed the same inputs, one through each, ask for
    /// the same actions, note the same events and stay in step. The
    /// `_into` side appends to one buffer it never clears, behind a
    /// sentinel, and must leave a frame it only borrows as it found it.
    #[test]
    fn prop_into_forms_match_the_wrappers(
        inputs in proptest::collection::vec(any_input(NodeId::new(2)), 1..120),
    ) {
        let me = NodeId::new(2);
        let cfg = NetConfig { buffer_cap: 2, ..NetConfig::default() };
        let mut by_value: NetStack<u64> = NetStack::new(me, cfg);
        let mut in_place: NetStack<u64> = NetStack::new(me, cfg);
        by_value.set_tracing(true);
        in_place.set_tracing(true);
        let sentinel = NetAction::Undeliverable { dest: me, payload: u64::MAX };
        let mut out = vec![sentinel.clone()];
        let mut now = SimTime::ZERO;
        for input in inputs {
            now += SimDuration::from_millis(400);
            let start = out.len();
            let want = match input {
                Input::Frame { from, frame } => {
                    // Twice, so every flood is also heard as a duplicate.
                    let untouched = frame.clone();
                    in_place.on_frame_into(now, from, &frame, &mut out);
                    in_place.on_frame_into(now, from, &frame, &mut out);
                    prop_assert_eq!(&frame, &untouched);
                    let mut want = by_value.on_frame(now, from, frame.clone());
                    want.extend(by_value.on_frame(now, from, frame));
                    want
                }
                Input::Flood { ttl, payload } => {
                    in_place.flood_app_into(now, ttl, payload, 48, &mut out);
                    by_value.flood_app(now, ttl, payload, 48)
                }
                Input::Send { dest, payload } => {
                    in_place.send_app_into(now, dest, payload, 64, &mut out);
                    by_value.send_app(now, dest, payload, 64)
                }
                Input::Timer(timer) => {
                    in_place.on_timer_into(now, timer, &mut out);
                    by_value.on_timer(now, timer)
                }
                Input::SendFailed { next_hop, frame } => {
                    in_place.on_send_failed_into(now, next_hop, frame.clone(), &mut out);
                    by_value.on_send_failed(now, next_hop, frame)
                }
            };
            prop_assert_eq!(&out[start..], &want[..]);
            prop_assert_eq!(events_of(&mut in_place), events_of(&mut by_value));
            prop_assert_eq!(in_place.route_count(now), by_value.route_count(now));
        }
        prop_assert_eq!(&out[0], &sentinel);
    }
}
