//! Property tests of the network layer over random static geometries: the
//! flood reach matches the topology's TTL ball, and unicast delivery
//! succeeds exactly on connected pairs.

use proptest::prelude::*;

use mp2p_mobility::{Point, Terrain};
use mp2p_net::{
    Frame, LinkModel, NetAction, NetConfig, NetStack, NetTimer, Topology, TopologyScratch,
};
use mp2p_sim::{EventQueue, NodeId, SimRng, SimTime};

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
