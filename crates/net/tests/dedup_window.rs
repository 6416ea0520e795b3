//! Differential test of duplicate suppression: a network of stacks whose
//! memories forget, driven as the world drives its stacks, asks for
//! exactly the actions of the same network with memories that never
//! forget. Hop delays are drawn from a random [`LinkModel`], receptions
//! are lost at random, and a duplicated transmission is heard a second
//! time one more hop delay later — so a copy can be the first one a node
//! hears, and a late copy can come back along the longest path a TTL
//! allows.

use proptest::prelude::*;

use mp2p_mobility::Point;
use mp2p_net::{Frame, LinkModel, NetAction, NetConfig, NetStack, NetTimer, Topology};
use mp2p_sim::{EventQueue, NodeId, SimDuration, SimRng, SimTime};

/// The two configurations compared: the stack as the world builds it
/// for `link`, and one that believes a hop may take a day, so its
/// memories never forget within a test.
fn configs(link: LinkModel) -> [NetConfig; 2] {
    let forgetful = NetConfig {
        link,
        ..NetConfig::default()
    };
    let never = NetConfig {
        link: LinkModel {
            base_latency: SimDuration::from_hours(24),
            ..link
        },
        ..NetConfig::default()
    };
    [forgetful, never]
}

/// What the application asks one node to do.
#[derive(Debug, Clone, Copy)]
enum Ask {
    Flood { ttl: u8, size: u32 },
    Send { dest: usize, size: u32 },
}

enum Ev {
    Ask {
        at: NodeId,
        ask: Ask,
    },
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

/// One action a stack asked for, when and where.
type Logged = (SimTime, NodeId, NetAction<u64>);

/// A world-shaped driver: a broadcast is heard by every neighbour one
/// drawn hop delay later, each reception is lost with the link's
/// probability, and a duplicated transmission is heard again after one
/// more hop delay.
struct Net {
    topo: Topology,
    stacks: Vec<NetStack<u64>>,
    queue: EventQueue<Ev>,
    link: LinkModel,
    dup_prob: f64,
    rng: SimRng,
    now: SimTime,
    log: Vec<Logged>,
    payloads: u64,
}

impl Net {
    fn new(positions: &[Point], cfg: NetConfig, link: LinkModel, dup_prob: f64, seed: u64) -> Self {
        let n = positions.len();
        Net {
            topo: Topology::new(positions, &vec![true; n], 250.0),
            stacks: (0..n)
                .map(|i| NetStack::new(NodeId::new(i as u32), cfg))
                .collect(),
            queue: EventQueue::new(),
            link,
            dup_prob,
            rng: SimRng::from_seed(seed, 0),
            now: SimTime::ZERO,
            log: Vec::new(),
            payloads: 0,
        }
    }

    /// When `frame` is heard, and when its duplicate is, if it has one.
    fn air_times(&mut self, frame: &Frame<u64>) -> (SimTime, Option<SimTime>) {
        let heard = self.now + self.link.hop_delay(frame.size(), &mut self.rng);
        let again = self
            .rng
            .bernoulli(self.dup_prob)
            .then(|| heard + self.link.hop_delay(frame.size(), &mut self.rng));
        (heard, again)
    }

    fn hear(&mut self, when: SimTime, at: NodeId, from: NodeId, frame: Frame<u64>) {
        if self.link.delivered(&mut self.rng) {
            self.queue.push(when, Ev::Rx { at, from, frame });
        }
    }

    fn apply(&mut self, node: NodeId, actions: Vec<NetAction<u64>>) {
        for action in actions {
            self.log.push((self.now, node, action.clone()));
            match action {
                NetAction::Broadcast(frame) => {
                    let (heard, again) = self.air_times(&frame);
                    let neighbours = self.topo.neighbors(node).to_vec();
                    for when in std::iter::once(heard).chain(again) {
                        for &nb in &neighbours {
                            self.hear(when, nb, node, frame.clone());
                        }
                    }
                }
                NetAction::Send { next_hop, frame } => {
                    if self.topo.are_neighbors(node, next_hop) {
                        let (heard, again) = self.air_times(&frame);
                        for when in std::iter::once(heard).chain(again) {
                            self.hear(when, next_hop, node, frame.clone());
                        }
                    } else {
                        let failed =
                            self.stacks[node.index()].on_send_failed(self.now, next_hop, frame);
                        self.apply(node, failed);
                    }
                }
                NetAction::SetTimer { after, timer } => {
                    self.queue
                        .push(self.now + after, Ev::Timer { at: node, timer });
                }
                NetAction::Deliver { .. } | NetAction::Undeliverable { .. } => {}
            }
        }
    }

    fn run(&mut self, asks: &[(u64, usize, Ask)]) -> Vec<Logged> {
        let n = self.stacks.len();
        let mut at = SimTime::ZERO;
        for &(gap_ms, node, ask) in asks {
            at += SimDuration::from_millis(gap_ms);
            let ask = match ask {
                Ask::Send { dest, size } => Ask::Send {
                    dest: dest % n,
                    size,
                },
                flood => flood,
            };
            self.queue.push(
                at,
                Ev::Ask {
                    at: NodeId::new((node % n) as u32),
                    ask,
                },
            );
        }
        let mut steps = 0usize;
        while let Some((t, ev)) = self.queue.pop() {
            steps += 1;
            assert!(steps < 2_000_000, "event storm: likely a loop");
            self.now = t;
            let (node, actions) = match ev {
                Ev::Ask { at, ask } => {
                    self.payloads += 1;
                    let stack = &mut self.stacks[at.index()];
                    let actions = match ask {
                        Ask::Flood { ttl, size } => stack.flood_app(t, ttl, self.payloads, size),
                        Ask::Send { dest, size } => {
                            stack.send_app(t, NodeId::new(dest as u32), self.payloads, size)
                        }
                    };
                    (at, actions)
                }
                Ev::Rx { at, from, frame } => {
                    (at, self.stacks[at.index()].on_frame(t, from, frame))
                }
                Ev::Timer { at, timer } => (at, self.stacks[at.index()].on_timer(t, timer)),
            };
            self.apply(node, actions);
        }
        std::mem::take(&mut self.log)
    }
}

/// Three floods to one unicast send, of one of five sizes.
fn ask() -> impl Strategy<Value = Ask> {
    const SIZES: [u32; 5] = [16, 32, 48, 400, 1_500];
    let size = 0..SIZES.len();
    (0u8..4, 1u8..=8, 0usize..12, size).prop_map(|(kind, ttl, dest, s)| {
        let size = SIZES[s];
        if kind > 0 {
            Ask::Flood { ttl, size }
        } else {
            Ask::Send { dest, size }
        }
    })
}

/// A link whose hop delays often sit at their bound: jitter is zero in
/// half the cases, so every hop then takes exactly the longest delay.
fn link() -> impl Strategy<Value = LinkModel> {
    (
        prop_oneof![Just(250_000u64), Just(2_000_000), Just(11_000_000)],
        0u64..=6,
        prop_oneof![Just(0u64), 0u64..=12],
        prop_oneof![Just(0.0f64), 0.0f64..0.3],
    )
        .prop_map(|(bps, base, jitter, loss)| {
            LinkModel::new(
                bps,
                SimDuration::from_millis(base),
                SimDuration::from_millis(jitter),
                loss,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A memory that forgets answers as one that never does: on a random
    /// field of 6 to 12 stacks, every stack asks for the same actions at
    /// the same instants, over a stream that spans many memory lifetimes.
    #[test]
    fn prop_a_forgetting_memory_asks_for_what_a_perfect_one_does(
        positions in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 6..13),
        link in link(),
        dup_prob in prop_oneof![Just(0.0f64), 0.05f64..0.5],
        asks in proptest::collection::vec((0u64..300, 0usize..12, ask()), 1..60),
        seed in any::<u64>(),
    ) {
        let positions: Vec<Point> = positions.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let [forgetful, never] = configs(link).map(|cfg| Net::new(&positions, cfg, link, dup_prob, seed).run(&asks));
        prop_assert!(!forgetful.is_empty());
        prop_assert_eq!(forgetful.len(), never.len());
        for (i, (got, want)) in forgetful.iter().zip(&never).enumerate() {
            prop_assert_eq!(got, want, "action {} of {}", i, forgetful.len());
        }
    }
}
