//! Layer replay kernels: one definition of each micro-workload the
//! traced pass times, sized from the counts the traced pass observed.
//!
//! Every kernel drives one layer of the simulator through its public
//! API, the way `World` drives it, and returns a unit cost taken on the
//! calling thread's CPU clock. None reaches into a crate's internals, so
//! a kernel keeps measuring the same thing when the layer behind the
//! API is rebuilt.

use std::hint::black_box;

use mp2p_cache::{CacheStore, DataItem, Version};
use mp2p_mobility::{MobilityModel, Point, RandomWaypoint};
use mp2p_net::{
    FaultPlan, FloodId, Frame, GilbertElliott, LinkModel, NetConfig, NetPayload, NetStack,
    TopologyBuilder, TopologyScratch,
};
use mp2p_rpcc::{
    ConsistencyLevel, Ctx, MobilityKind, ProtoMsg, Protocol, ProtocolConfig, QueryId,
    RetransmitQueue, Rpcc, SimplePull, SimplePush, WorldConfig,
};
use mp2p_sim::{EventQueue, ItemId, NodeId, SimDuration, SimRng, SimTime};
use mp2p_trace::bridge::{RegistrySink, DEFAULT_WINDOW};
use mp2p_trace::reader::JournalReader;
use mp2p_trace::{RingSink, TraceEvent, TraceSink};

use crate::host::Stamp;

/// Upper bound on the operations any one kernel replays: enough for a
/// unit cost good to a few percent, small enough that all kernels
/// together stay a fraction of the traced pass.
pub const MAX_OPS: u64 = 2_000_000;

/// CPU nanoseconds per operation of `f`, which performs `ops` of them.
fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let start = Stamp::now();
    f();
    start.elapsed().cpu_s * 1e9 / ops.max(1) as f64
}

fn poll(item: u32) -> ProtoMsg {
    ProtoMsg::Poll {
        item: ItemId::new(item),
        version: Version::INITIAL,
        span: None,
    }
}

fn app_flood(origin: u32, seq: u64, hops: u8) -> Frame<ProtoMsg> {
    Frame::Flood {
        id: FloodId {
            origin: NodeId::new(origin),
            seq,
        },
        ttl: 3,
        hops,
        payload: NetPayload::App(poll(1)),
        size: 48,
    }
}

/// `sim::EventQueue`: steady push+pop churn of the world's Rx event
/// payload at `depth` pending events. Returns ns per push-or-pop.
pub fn queue_churn(depth: usize, ops: u64) -> f64 {
    type RxEvent = (NodeId, NodeId, Frame<ProtoMsg>);
    let ops = ops.clamp(2, MAX_OPS);
    let depth = depth.max(1) as u64;
    let mut rng = SimRng::from_seed(5, 0);
    let mut queue: EventQueue<RxEvent> = EventQueue::with_capacity(depth as usize + 1);
    let event = |i: u64| -> RxEvent {
        (
            NodeId::new((i % 50) as u32),
            NodeId::new((i % 49) as u32),
            app_flood((i % 50) as u32, i, 1),
        )
    };
    for i in 0..depth {
        queue.push(SimTime::from_millis(rng.uniform_u64(1_000)), event(i));
    }
    ns_per_op(ops, || {
        let mut now = 0u64;
        for i in 0..ops / 2 {
            let (at, ev) = queue.pop().expect("queue stays at depth");
            now = now.max(at.as_millis());
            black_box(ev);
            // Hop delays are 2–7 ms; timers re-arm seconds out.
            queue.push(
                SimTime::from_millis(now + 1 + rng.uniform_u64(1_000)),
                event(depth + i),
            );
        }
    })
}

/// `sim::SimRng`: the two draws the workload generators make per event
/// (an exponential gap and a uniform pick). Returns ns per draw.
pub fn rng_draws(draws: u64) -> f64 {
    let draws = draws.clamp(2, MAX_OPS);
    let mut rng = SimRng::from_seed(2, 0);
    ns_per_op(draws, || {
        let mut acc = 0.0;
        for _ in 0..draws / 2 {
            acc += rng.exponential(20.0);
            acc += rng.uniform_f64();
        }
        black_box(acc);
    })
}

/// Result of [`mobility_replay`].
#[derive(Debug)]
pub struct MobilityReplay {
    /// ns per `position_at` call.
    pub ns_per_call: f64,
    /// Node positions at the last timed refresh steps, consecutive and
    /// oldest first, for [`topology_replay`].
    pub snapshots: Vec<Vec<Point>>,
}

/// `mobility`: the scenario's model for every node, advanced in
/// topology-refresh steps over the horizon (what `ensure_topology`
/// asks of it), capped at [`MAX_OPS`] calls.
pub fn mobility_replay(cfg: &WorldConfig) -> MobilityReplay {
    // Consecutive steps, because that is what the world rebuilds over:
    // between two refreshes a pedestrian moves half a metre, and a
    // rebuild over nearly unchanged bins costs a third of one over a
    // reshuffled field.
    const SNAPSHOTS: u64 = 128;
    let MobilityKind::Waypoint {
        speed_min,
        speed_max,
        max_pause,
    } = cfg.mobility
    else {
        unreachable!("every benchmark workload uses random waypoint mobility");
    };
    let mut nodes: Vec<RandomWaypoint> = (0..cfg.n_peers as u64)
        .map(|i| {
            RandomWaypoint::new(
                cfg.terrain,
                speed_min,
                speed_max,
                max_pause,
                SimRng::from_seed(cfg.seed, 0x0B00 + i),
            )
        })
        .collect();
    let step_ms = cfg.topology_refresh.as_millis().max(1);
    let steps = (cfg.sim_time.as_millis() / step_ms).max(1);
    let timed_steps = steps.min((MAX_OPS / cfg.n_peers as u64).max(1));
    let mut snapshots = Vec::new();
    let mut positions = vec![Point::new(0.0, 0.0); cfg.n_peers];
    let ns_per_call = ns_per_op(timed_steps * cfg.n_peers as u64, || {
        for step in 0..timed_steps {
            let at = SimTime::from_millis(step * step_ms);
            for (slot, node) in positions.iter_mut().zip(nodes.iter_mut()) {
                *slot = node.position_at(at);
            }
            if step + SNAPSHOTS >= timed_steps {
                snapshots.push(positions.clone());
            }
        }
    });
    MobilityReplay {
        ns_per_call,
        snapshots,
    }
}

/// Result of [`topology_replay`].
#[derive(Debug, Clone, Copy)]
pub struct TopologyReplay {
    /// µs per snapshot rebuild.
    pub rebuild_us: f64,
    /// Mean neighbour count over the replayed snapshots.
    pub mean_degree: f64,
    /// µs per BFS query (one `hops_with` + one `within_hops_with`).
    pub bfs_us: f64,
}

/// `net::topology`: steady-state `TopologyBuilder::rebuild` recycling
/// the previous snapshot over the replayed positions, then BFS queries
/// on a warm scratch.
pub fn topology_replay(snapshots: &[Vec<Point>], range: f64) -> TopologyReplay {
    assert!(
        !snapshots.is_empty(),
        "mobility_replay always yields a snapshot"
    );
    let n = snapshots[0].len();
    let up = vec![true; n];
    let mut builder = TopologyBuilder::new();
    let mut prev = Some(builder.build(&snapshots[0], &up, range, |_, _| true));
    // Enough rounds that the smallest field (50 nodes, ~2 µs a rebuild)
    // still accumulates milliseconds.
    let rounds = (200_000 / (n * snapshots.len())).max(1);
    let rebuilds = (rounds * snapshots.len()) as u64;
    let mut edges = 0usize;
    let rebuild_ns = ns_per_op(rebuilds, || {
        for _ in 0..rounds {
            for positions in snapshots {
                let topo = builder.rebuild(prev.take(), positions, &up, range, |_, _| true);
                edges += topo.edge_count();
                prev = Some(topo);
            }
        }
    });
    let topo = prev.expect("at least one rebuild ran");
    let mut scratch = TopologyScratch::new();
    let mut reached = Vec::new();
    let mut probe = SimRng::from_seed(n as u64, 0xBF);
    let queries = 2_000u64;
    let bfs_ns = ns_per_op(queries, || {
        for _ in 0..queries {
            let from = NodeId::new(probe.uniform_u64(n as u64) as u32);
            let to = NodeId::new(probe.uniform_u64(n as u64) as u32);
            black_box(topo.hops_with(&mut scratch, from, to));
            topo.within_hops_with(&mut scratch, from, 3, &mut reached);
            black_box(reached.len());
        }
    });
    TopologyReplay {
        rebuild_us: rebuild_ns / 1e3,
        // `edge_count` is directed: one entry per neighbour per node.
        mean_degree: edges as f64 / (rebuilds as f64 * n as f64),
        bfs_us: bfs_ns / 1e3,
    }
}

/// Result of [`netstack_replay`].
#[derive(Debug, Clone, Copy)]
pub struct StackReplay {
    /// ns per first-seen flood (deliver + rebroadcast).
    pub flood_fwd_ns: f64,
    /// ns per duplicate flood (suppressed).
    pub flood_dup_ns: f64,
    /// ns per unicast forwarded along a known route.
    pub unicast_fwd_ns: f64,
    /// Net actions returned per frame over the whole mix.
    pub actions_per_frame: f64,
}

/// `net::NetStack::on_frame`, the rx path: first-seen floods, their
/// duplicates, and routed unicasts, in chunks small enough to stay
/// inside the stack's dedup window.
pub fn netstack_replay(frames: u64) -> StackReplay {
    const CHUNK: u64 = 256;
    let chunks = (frames.clamp(3 * CHUNK, MAX_OPS) / (3 * CHUNK)).max(1);
    let me = NodeId::new(0);
    let (n1, n2, dest) = (NodeId::new(1), NodeId::new(2), NodeId::new(9));
    let mut stack: NetStack<ProtoMsg> = NetStack::new(me, NetConfig::default());
    let mut actions = 0usize;
    let (mut fwd_s, mut dup_s, mut uni_s) = (0.0, 0.0, 0.0);
    for chunk in 0..chunks {
        // One simulated second per chunk keeps the learned routes fresh.
        let now = SimTime::from_millis(chunk * 1_000);
        let base = chunk * CHUNK;
        let start = Stamp::now();
        for seq in base..base + CHUNK {
            actions += stack.on_frame(now, n1, app_flood(1, seq, 1)).len();
        }
        fwd_s += start.elapsed().cpu_s;
        let start = Stamp::now();
        for seq in base..base + CHUNK {
            actions += stack.on_frame(now, n2, app_flood(1, seq, 2)).len();
        }
        dup_s += start.elapsed().cpu_s;
        // Hearing `dest`'s flood via n2 teaches the route the unicasts take.
        actions += stack.on_frame(now, n2, app_flood(9, chunk, 1)).len();
        let start = Stamp::now();
        for seq in base..base + CHUNK {
            let frame = Frame::Unicast {
                origin: n1,
                seq,
                dest,
                hops: 1,
                payload: NetPayload::App(poll(9)),
                size: 48,
            };
            actions += stack.on_frame(now, n1, frame).len();
        }
        uni_s += start.elapsed().cpu_s;
    }
    let per_kind = (chunks * CHUNK) as f64;
    StackReplay {
        flood_fwd_ns: fwd_s * 1e9 / per_kind,
        flood_dup_ns: dup_s * 1e9 / per_kind,
        unicast_fwd_ns: uni_s * 1e9 / per_kind,
        actions_per_frame: actions as f64 / (3.0 * per_kind + chunks as f64),
    }
}

/// `net::LinkModel`: one `hop_delay` + one `delivered` draw per
/// reception, with the scenario's link parameters. Returns ns per
/// reception.
pub fn link_draws(link: &LinkModel, receptions: u64) -> f64 {
    let receptions = receptions.clamp(1, MAX_OPS);
    let mut rng = SimRng::from_seed(6, 0);
    ns_per_op(receptions, || {
        let mut acc = 0u64;
        for i in 0..receptions {
            acc += link
                .hop_delay(48 + (i % 4) as u32 * 256, &mut rng)
                .as_millis();
            acc += u64::from(link.delivered(&mut rng));
        }
        black_box(acc);
    })
}

/// `net::GilbertElliott`: the burst-loss chain the `bursty` preset
/// swaps in for the memoryless draw. Returns ns per reception.
pub fn burst_draws(receptions: u64) -> f64 {
    let receptions = receptions.clamp(1, MAX_OPS);
    let mut rng = SimRng::from_seed(7, 0);
    let mut chain = GilbertElliott::new(FaultPlan::burst_params());
    ns_per_op(receptions, || {
        let mut delivered = 0u64;
        for _ in 0..receptions {
            delivered += u64::from(chain.delivered(&mut rng));
        }
        black_box(delivered);
    })
}

/// `cache::CacheStore` at the scenario's `C_Num`: the touch / refresh /
/// insert-with-eviction mix a cache peer sees, over the foreign
/// catalogue. Returns ns per operation.
pub fn cache_ops(c_num: usize, catalogue: usize, ops: u64) -> f64 {
    let ops = ops.clamp(1, MAX_OPS);
    let mut store = CacheStore::new(c_num);
    let mut rng = SimRng::from_seed(8, 0);
    let catalogue = catalogue.max(c_num + 1) as u64;
    for i in 0..c_num as u32 {
        store.insert(ItemId::new(i), Version::INITIAL, 1_024, SimTime::ZERO);
    }
    ns_per_op(ops, || {
        let mut hits = 0u64;
        for i in 0..ops {
            let item = ItemId::new(rng.uniform_u64(catalogue) as u32);
            let now = SimTime::from_millis(i);
            match i % 4 {
                // Queries touch; invalidation-driven refreshes and miss
                // fills are each a quarter of the mix.
                0 | 1 => hits += u64::from(store.touch(item).is_some()),
                2 => hits += u64::from(store.refresh(item, Version::new(i), now)),
                _ => hits += u64::from(store.insert(item, Version::new(i), 1_024, now).is_some()),
            }
        }
        black_box(hits);
    })
}

/// One protocol node outside any world: the state `Ctx::new` borrows.
struct Node {
    me: NodeId,
    cache: CacheStore,
    own: DataItem,
    rng: SimRng,
    cfg: ProtocolConfig,
    outputs: usize,
}

impl Node {
    /// Node `me` owning item `me`, with foreign item 1 cached.
    fn new(me: u32, cfg: &ProtocolConfig) -> Self {
        let mut cache = CacheStore::new(10);
        cache.insert(ItemId::new(1), Version::INITIAL, 1_024, SimTime::ZERO);
        Node {
            me: NodeId::new(me),
            cache,
            own: DataItem::new(ItemId::new(me), 1_024),
            rng: SimRng::from_seed(1, u64::from(me)),
            cfg: *cfg,
            outputs: 0,
        }
    }

    /// Runs one handler call the way `World` does: fresh `Ctx`, call,
    /// drain the outputs.
    fn call(&mut self, at_ms: u64, f: impl FnOnce(&mut Ctx<'_>)) {
        let mut ctx = Ctx::new(
            SimTime::from_millis(at_ms),
            self.me,
            &mut self.cache,
            &mut self.own,
            &mut self.rng,
            &self.cfg,
            1.0,
            true,
        );
        f(&mut ctx);
        self.outputs += ctx.take_outputs().len();
    }
}

/// Drives an RPCC cache peer of item 1 to relay status through the
/// public protocol surface: busy, stable coefficient periods make it a
/// candidate, the source's APPLY_ACK promotes it (Fig. 5).
fn make_relay(node: &mut Node, proto: &mut Rpcc) {
    let mut query = 0u64;
    for _ in 0..8 {
        for _ in 0..10 {
            query += 1;
            node.call(0, |ctx| {
                proto.on_query(ctx, QueryId(query), ItemId::new(1), ConsistencyLevel::Weak)
            });
        }
        node.call(0, |ctx| proto.on_coefficient_tick(ctx, false));
    }
    node.call(0, |ctx| {
        proto.on_message(
            ctx,
            NodeId::new(1),
            ProtoMsg::ApplyAck {
                item: ItemId::new(1),
                version: Version::INITIAL,
            },
        )
    });
    assert!(
        proto.is_relay_for(ItemId::new(1)),
        "the replay node must reach relay status"
    );
}

/// Result of [`protocol_replay`]: ns per handler call.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolReplay {
    /// RPCC `on_message(POLL)` at a relay peer with a fresh copy.
    pub rpcc_poll_ns: f64,
    /// RPCC `on_message(INVALIDATION)` at a plain cache peer.
    pub rpcc_invalidation_ns: f64,
    /// RPCC `on_query` at SC / Δ / WC.
    pub rpcc_query_ns: [f64; 3],
    /// RPCC `on_coefficient_tick`.
    pub rpcc_coeff_tick_ns: f64,
    /// Push baseline `on_message(INVALIDATION)`.
    pub push_message_ns: f64,
    /// Pull baseline `on_message(POLL)` at the source host.
    pub pull_message_ns: f64,
}

/// `core` protocol handlers through `Ctx::new` + `take_outputs`, no
/// network and no world.
pub fn protocol_replay(cfg: &ProtocolConfig, ops: u64) -> ProtocolReplay {
    let ops = ops.clamp(1, 200_000);
    let from = |i: u64| NodeId::new((2 + i % 15) as u32);
    let invalidation = |i: u64| ProtoMsg::Invalidation {
        item: ItemId::new(1),
        version: Version::new(1 + i),
        seq: None,
    };

    let mut relay = Node::new(0, cfg);
    let mut proto = Rpcc::new(cfg, true);
    make_relay(&mut relay, &mut proto);
    // Polls arrive within one simulated second, well inside the relay's
    // TTR, so every one is answered from the fresh copy.
    let rpcc_poll_ns = ns_per_op(ops, || {
        for i in 0..ops {
            relay.call(i * 1_000 / ops, |ctx| {
                proto.on_message(ctx, from(i), poll(1))
            });
        }
    });

    let mut peer = Node::new(0, cfg);
    let mut proto = Rpcc::new(cfg, true);
    let rpcc_invalidation_ns = ns_per_op(ops, || {
        for i in 0..ops {
            peer.call(i, |ctx| {
                proto.on_message(ctx, NodeId::new(1), invalidation(i))
            });
        }
    });

    let mut rpcc_query_ns = [0.0; 3];
    for (slot, level) in rpcc_query_ns.iter_mut().zip(ConsistencyLevel::ALL) {
        let mut peer = Node::new(0, cfg);
        let mut proto = Rpcc::new(cfg, true);
        *slot = ns_per_op(ops, || {
            for i in 0..ops {
                peer.call(i, |ctx| {
                    proto.on_query(ctx, QueryId(i), ItemId::new(1), level)
                });
            }
        });
        black_box(peer.outputs);
    }

    let mut ticker = Node::new(0, cfg);
    let mut proto = Rpcc::new(cfg, true);
    let rpcc_coeff_tick_ns = ns_per_op(ops, || {
        for i in 0..ops {
            ticker.call(i, |ctx| proto.on_coefficient_tick(ctx, i % 3 == 0));
        }
    });

    let mut push_peer = Node::new(0, cfg);
    let mut push = SimplePush::new(cfg, true);
    let push_message_ns = ns_per_op(ops, || {
        for i in 0..ops {
            push_peer.call(i, |ctx| {
                push.on_message(ctx, NodeId::new(1), invalidation(i))
            });
        }
    });

    let mut source = Node::new(0, cfg);
    let mut pull = SimplePull::new(cfg, true);
    let pull_message_ns = ns_per_op(ops, || {
        for i in 0..ops {
            source.call(i, |ctx| pull.on_message(ctx, from(i), poll(0)));
        }
    });

    black_box((
        relay.outputs,
        peer.outputs,
        ticker.outputs,
        push_peer.outputs,
        source.outputs,
    ));
    ProtocolReplay {
        rpcc_poll_ns,
        rpcc_invalidation_ns,
        rpcc_query_ns,
        rpcc_coeff_tick_ns,
        push_message_ns,
        pull_message_ns,
    }
}

/// `core::recovery::RetransmitQueue`: enqueue an acknowledged UPDATE,
/// settle it with its ACK, at the configured cap's occupancy. Returns
/// ns per enqueue-or-ack.
pub fn retx_ops(cap: usize, ops: u64) -> f64 {
    let ops = ops.clamp(2, MAX_OPS);
    let mut queue = RetransmitQueue::new(cap);
    let dest = |i: u64| NodeId::new((i % cap as u64) as u32);
    let mut seqs = std::collections::VecDeque::with_capacity(cap);
    for i in 0..cap as u64 / 2 {
        seqs.push_back((
            dest(i),
            queue.enqueue(dest(i), ItemId::new(0), Version::new(i), SimTime::ZERO),
        ));
    }
    ns_per_op(ops, || {
        for i in cap as u64 / 2..cap as u64 / 2 + ops / 2 {
            let seq = queue.enqueue(dest(i), ItemId::new(0), Version::new(i), SimTime::ZERO);
            seqs.push_back((dest(i), seq));
            let (to, oldest) = seqs.pop_front().expect("half the cap stays queued");
            black_box(queue.ack(to, oldest));
        }
    })
}

/// A real event mix for [`registry_records`]: what a short Table 1
/// RPCC(HY) run emits, captured through a `RingSink`.
pub fn capture_event_mix(seed: u64) -> Vec<(SimTime, TraceEvent)> {
    let mut cfg = WorldConfig::small_test(seed);
    cfg.level_mix = mp2p_rpcc::LevelMix::hybrid();
    cfg.sim_time = SimDuration::from_mins(4);
    cfg.warmup = SimDuration::from_mins(1);
    let mut world = mp2p_rpcc::World::new(cfg);
    world.set_tracer(Box::new(RingSink::new(100_000)));
    let (_, sink) = world.run_traced();
    let ring = sink
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("run_traced hands back the sink it was given");
    ring.iter().cloned().collect()
}

/// `metrics::Registry` behind `trace::RegistrySink`: the `--metrics-out`
/// path, fed a captured event mix. Returns ns per record.
pub fn registry_records(events: &[(SimTime, TraceEvent)]) -> f64 {
    let mut sink = RegistrySink::new(DEFAULT_WINDOW, SimDuration::from_mins(1));
    let rounds = (MAX_OPS / 4 / events.len().max(1) as u64).max(1);
    let ns = ns_per_op(rounds * events.len() as u64, || {
        for _ in 0..rounds {
            for (at, event) in events {
                sink.record(*at, event);
            }
        }
    });
    black_box(sink.registry().window_count());
    ns
}

/// Result of [`reader_replay`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderReplay {
    /// CPU seconds to parse and validate every line.
    pub parse_s: f64,
    /// Event records read.
    pub records: u64,
    /// Lines that failed to parse (a correct journal has none).
    pub errors: u64,
}

/// `trace::reader::JournalReader` alone over a journal: parse and
/// validate every record, fold nothing.
pub fn reader_replay(journal: &[u8]) -> ReaderReplay {
    let start = Stamp::now();
    let mut out = ReaderReplay::default();
    match JournalReader::new(journal) {
        Err(_) => out.errors = 1,
        Ok(reader) => {
            for entry in reader {
                match entry {
                    Ok(record) => {
                        black_box(&record);
                        out.records += 1;
                    }
                    Err(_) => out.errors += 1,
                }
            }
        }
    }
    out.parse_s = start.elapsed().cpu_s;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_return_positive_unit_costs() {
        assert!(queue_churn(64, 2_000) > 0.0);
        assert!(rng_draws(2_000) > 0.0);
        assert!(link_draws(&LinkModel::default(), 2_000) > 0.0);
        assert!(burst_draws(2_000) > 0.0);
        assert!(cache_ops(10, 49, 2_000) > 0.0);
        assert!(retx_ops(32, 2_000) > 0.0);
    }

    #[test]
    fn netstack_mix_forwards_suppresses_and_routes() {
        let replay = netstack_replay(0);
        // Per chunk: 256 first-seen floods → deliver + rebroadcast, 256
        // duplicates → nothing, one route-teaching flood → 2, 256
        // unicasts → one send each.
        let expected = (256.0 * 2.0 + 2.0 + 256.0) / (3.0 * 256.0 + 1.0);
        assert!((replay.actions_per_frame - expected).abs() < 1e-9);
    }

    #[test]
    fn mobility_and_topology_replay_a_small_field() {
        let mut cfg = WorldConfig::small_test(3);
        cfg.sim_time = SimDuration::from_secs(30);
        cfg.warmup = SimDuration::from_secs(10);
        let mobility = mobility_replay(&cfg);
        assert_eq!(mobility.snapshots.len(), 128);
        assert!(mobility.ns_per_call > 0.0);
        let topo = topology_replay(&mobility.snapshots, cfg.range);
        assert!(topo.mean_degree > 0.0 && topo.mean_degree < 20.0);
        assert!(topo.rebuild_us > 0.0 && topo.bfs_us > 0.0);
    }

    #[test]
    fn protocol_replay_reaches_every_handler() {
        let replay = protocol_replay(&ProtocolConfig::default(), 200);
        assert!(replay.rpcc_poll_ns > 0.0);
        assert!(replay.rpcc_query_ns.iter().all(|&ns| ns > 0.0));
        assert!(replay.push_message_ns > 0.0 && replay.pull_message_ns > 0.0);
    }

    #[test]
    fn registry_and_reader_consume_real_events() {
        let events = capture_event_mix(5);
        assert!(events.len() > 100);
        assert!(registry_records(&events) > 0.0);
        let garbage = reader_replay(b"not a journal\n");
        assert_eq!((garbage.records, garbage.errors), (0, 1));
    }
}
