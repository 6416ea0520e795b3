//! The simulation world: mobility, radio, network stacks, protocols and
//! metrics wired into one deterministic event loop.
//!
//! This is the reproduction's equivalent of the paper's GloMoSim
//! scenario: Table 1's parameters are [`WorldConfig::paper_default`], the
//! Fig. 9 single-item scenario is [`WorkloadMode::SingleItem`].
//!
//! This file is the engine and nothing else: it pops events, runs the
//! handler each names, and applies what the handler asked for. Invariant
//! owned here: **each decision of the loop is written once** —
//! [`World::unicast`] is the only place the routing mode is matched,
//! [`World::account_tx`] the only place a transmission is counted, traced
//! and charged to the battery, [`World::transmit`] the only way a frame
//! reaches the air, [`World::with_stack`] the only way a stack entry
//! point runs, [`World::with_proto`] the only way a protocol handler
//! runs. What a run is described by lives in [`config`], what it
//! accumulates in [`report`] (the world holds the [`RunReport`] it
//! returns), what watches it in [`observe`], what breaks it in
//! [`faults`], and the replica-write extension in [`writes`].

mod config;
mod faults;
mod observe;
mod report;
mod writes;

pub use config::{MobilityKind, RoutingMode, Strategy, WorkloadMode, WorldConfig};
pub use report::{FaultStats, RunReport};

use mp2p_cache::{CacheStore, DataItem, Version};
use mp2p_metrics::{idle_cost, rx_cost, tx_cost, PeerEnergy, ServedQuery, VersionHistory};
use mp2p_mobility::{AnyMobility, MobilityModel, SubnetGrid};
use mp2p_net::{
    Frame, NetAction, NetConfig, NetMeta, NetStack, NetTimer, TopologyScratch, TopologySnapshot,
};
use mp2p_sim::{EventQueue, FastMap, ItemId, NodeId, SimDuration, SimRng, SimTime};
use mp2p_trace::{BlameCause, FrameFateKind, ServedBy, TraceEvent, TraceSink};

use crate::config::{ProtocolConfig, CONTENT_BYTES, PHI};
use crate::level::ConsistencyLevel;
use crate::msg::ProtoMsg;
use crate::protocol::{Ctx, CtxOut, DegradationKind, Protocol, QueryId, Timer};
use crate::pull::SimplePull;
use crate::push::SimplePush;
use crate::push_adaptive::PushAdaptivePull;
use crate::recovery::RecoveryAction;
use crate::rpcc::Rpcc;
use faults::{FaultAction, FaultRuntime};
use observe::{event_bucket, Observers, Tx};
use writes::OpenWrite;

/// Strategy dispatch without trait objects (keeps the world `Clone`-free
/// and the dispatch static).
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one instance per node, sized by Rpcc
enum AnyProtocol {
    Rpcc(Rpcc),
    Push(SimplePush),
    Pull(SimplePull),
    PushAdaptive(PushAdaptivePull),
}

macro_rules! dispatch {
    ($self:expr, $p:pat => $body:expr) => {
        match $self {
            AnyProtocol::Rpcc($p) => $body,
            AnyProtocol::Push($p) => $body,
            AnyProtocol::Pull($p) => $body,
            AnyProtocol::PushAdaptive($p) => $body,
        }
    };
}

impl AnyProtocol {
    /// Builds a fresh (empty-state) protocol instance for one node. Used
    /// at construction and again when a crash fault wipes a node.
    fn fresh(strategy: Strategy, cfg: &ProtocolConfig, publishes: bool) -> Self {
        match strategy {
            Strategy::Rpcc => AnyProtocol::Rpcc(Rpcc::new(cfg, publishes)),
            Strategy::Push => AnyProtocol::Push(SimplePush::new(cfg, publishes)),
            Strategy::Pull => AnyProtocol::Pull(SimplePull::new(cfg, publishes)),
            Strategy::PushAdaptivePull => {
                AnyProtocol::PushAdaptive(PushAdaptivePull::new(cfg, publishes))
            }
        }
    }
}

impl Protocol for AnyProtocol {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        dispatch!(self, p => p.on_init(ctx))
    }
    fn on_query(&mut self, ctx: &mut Ctx<'_>, q: QueryId, item: ItemId, level: ConsistencyLevel) {
        dispatch!(self, p => p.on_query(ctx, q, item, level))
    }
    fn on_source_update(&mut self, ctx: &mut Ctx<'_>) {
        dispatch!(self, p => p.on_source_update(ctx))
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ProtoMsg) {
        dispatch!(self, p => p.on_message(ctx, from, msg))
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        dispatch!(self, p => p.on_timer(ctx, timer))
    }
    fn on_undeliverable(&mut self, ctx: &mut Ctx<'_>, dest: NodeId, msg: ProtoMsg) {
        dispatch!(self, p => p.on_undeliverable(ctx, dest, msg))
    }
    fn on_status_change(&mut self, ctx: &mut Ctx<'_>, up: bool) {
        dispatch!(self, p => p.on_status_change(ctx, up))
    }
    fn on_coefficient_tick(&mut self, ctx: &mut Ctx<'_>, moved: bool) {
        dispatch!(self, p => p.on_coefficient_tick(ctx, moved))
    }
    fn relay_item_count(&self) -> usize {
        dispatch!(self, p => p.relay_item_count())
    }
    fn is_candidate(&self) -> bool {
        dispatch!(self, p => p.is_candidate())
    }
    fn retx_high_water(&self) -> usize {
        dispatch!(self, p => p.retx_high_water())
    }
}

/// What a reception reads comes first (`repr(C)`), the stack's included.
#[derive(Debug)]
#[repr(C)]
struct NodeState {
    up: bool,
    battery: PeerEnergy,
    stack: NetStack<ProtoMsg>,
    mobility: AnyMobility,
    proto: AnyProtocol,
    cache: CacheStore,
    own_item: DataItem,
    /// Whether this node's own item participates as source data.
    publishes: bool,
    rng: SimRng,
    /// Dedicated recovery-layer randomness (stream `0xA00 + i`): seeded
    /// unconditionally so turning recovery on or off never shifts any
    /// other stream's draw sequence.
    recovery_rng: SimRng,
    last_cell: (u32, u32),
}

#[derive(Debug)]
enum Event {
    Query(NodeId),
    Update(NodeId),
    Switch(NodeId),
    /// A replica-write arrival at `NodeId` (extension workload).
    Write(NodeId),
    /// Retry timer for an outstanding replica write.
    WriteRetry {
        at: NodeId,
        write: QueryId,
    },
    Rx {
        at: NodeId,
        from: NodeId,
        frame: Frame<ProtoMsg>,
    },
    /// One broadcast transmission reaching every node that was in range
    /// when it was sent: `listeners` is the sender's neighbour row
    /// copied at send time (the snapshot it came from may be re-taken and
    /// its arena recycled before this pops), ascending by id. Handled
    /// as one [`World::handle_rx`] per listener in that order — exactly
    /// the order the queue's FIFO tie-break gave one `Rx` per listener.
    RxAll {
        from: NodeId,
        frame: Frame<ProtoMsg>,
        listeners: Vec<NodeId>,
    },
    NetTimer {
        at: NodeId,
        timer: NetTimer,
    },
    ProtoTimer {
        at: NodeId,
        timer: Timer,
    },
    /// Oracle-routed unicast arriving at its destination (no stack).
    OracleDeliver {
        at: NodeId,
        from: NodeId,
        msg: ProtoMsg,
    },
    CoeffTick,
    Sample,
    /// The consistency observatory's divergence-sampler tick. Queued only
    /// when [`crate::ObservatoryConfig::sample_period`] is set, so a
    /// default run never sees this variant.
    ConsistencyTick,
    /// A scheduled fault-plan action fires.
    Fault(FaultAction),
}

/// The four Poisson arrival streams every node runs.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    Query,
    Update,
    Switch,
    Write,
}

#[derive(Debug, Clone, Copy)]
struct OpenQuery {
    /// The node the query was issued at (a crash fault fails its open
    /// queries — the pending state dies with the node).
    node: NodeId,
    item: ItemId,
    level: ConsistencyLevel,
    issued: SimTime,
    /// Whether this query counts towards the metrics (issued after the
    /// warm-up period), decided once at issue time so served/failed/issued
    /// counters partition exactly.
    measured: bool,
}

/// The simulation world. Construct with a [`WorldConfig`], call
/// [`World::run`].
///
/// See the crate-level example.
pub struct World {
    cfg: WorldConfig,
    queue: EventQueue<Event>,
    now: SimTime,
    nodes: Vec<NodeState>,
    /// Interarrival randomness, one stream per node per purpose.
    query_rngs: Vec<SimRng>,
    update_rngs: Vec<SimRng>,
    switch_rngs: Vec<SimRng>,
    write_rngs: Vec<SimRng>,
    link_rng: SimRng,
    /// When `links` was taken; `None` once a switch or a fault has
    /// changed connectivity under it.
    topo: Option<SimTime>,
    /// The radio graph as of `topo`: positions, up flags and cell bins,
    /// plus the adjacency rows asked for since.
    links: TopologySnapshot,
    /// BFS bookkeeping reused by every whole-graph query.
    topo_scratch: TopologyScratch,
    /// Node buffer of the whole-graph queries (an oracle path, what a
    /// source update reaches), reused across them.
    path_buf: Vec<NodeId>,
    /// Emptied [`Event::RxAll`] listener buffers awaiting reuse, so a
    /// warm run copies neighbour lists without allocating.
    listener_pool: Vec<Vec<NodeId>>,
    /// Emptied buffers the stacks push their actions into, and the
    /// protocol handlers their outputs. Pools, not one scratch vector
    /// each: applying an action or an output can re-enter the stack or a
    /// handler (a send that fails at the MAC, a delivery that answers)
    /// while the outer buffer is still being drained.
    action_pool: Vec<Vec<NetAction<ProtoMsg>>>,
    output_pool: Vec<Vec<CtxOut>>,
    /// The cached items of the node [`World::pick_target`] is choosing
    /// for, sorted.
    target_buf: Vec<ItemId>,
    grid: SubnetGrid,
    /// Fig. 9 single-item source (when applicable).
    single_source: Option<NodeId>,
    next_query_id: u64,
    open: FastMap<QueryId, OpenQuery>,
    open_writes: FastMap<QueryId, OpenWrite>,
    histories: Vec<VersionHistory>,
    /// The ledger: every metric of the run accumulates here and this is
    /// what [`World::run`] returns.
    report: RunReport,
    /// Fault injector (`None` unless the plan is non-empty).
    faults: Option<FaultRuntime>,
    /// Everything that watches the run without steering it.
    obs: Observers,
}

impl World {
    /// Builds the world: places nodes, pre-warms caches, seeds streams.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`WorldConfig::validate`].
    pub fn new(cfg: WorldConfig) -> Self {
        cfg.validate();
        let master = cfg.seed;
        let n = cfg.n_peers;
        let grid = SubnetGrid::new(cfg.terrain, SUBNET_GRID.0, SUBNET_GRID.1);

        let mut world_rng = SimRng::from_seed(master, WORLD_STREAM);
        let single_source = match cfg.workload {
            WorkloadMode::SingleItem => Some(NodeId::new(world_rng.uniform_u64(n as u64) as u32)),
            WorkloadMode::CachedUniform => None,
        };

        let mut nodes = Vec::with_capacity(n);
        for id in NodeId::all(n) {
            let i = id.index() as u64;
            let mobility = config::build_mobility(&cfg, SimRng::from_seed(master, 0x100 + i));
            let publishes = match single_source {
                Some(src) => id == src,
                None => true,
            };
            let proto = AnyProtocol::fresh(cfg.strategy, &cfg.proto, publishes);
            nodes.push(NodeState {
                up: true,
                battery: PeerEnergy::new(cfg.battery_mj),
                stack: NetStack::new(
                    id,
                    NetConfig {
                        link: cfg.link,
                        ..NetConfig::default()
                    },
                ),
                mobility,
                proto,
                cache: CacheStore::new(cfg.c_num),
                own_item: DataItem::new(id.owned_item(), CONTENT_BYTES),
                publishes,
                rng: SimRng::from_seed(master, 0x200 + i),
                recovery_rng: SimRng::from_seed(master, 0xA00 + i),
                last_cell: (0, 0),
            });
        }

        // Pre-warm caches (the paper's assumed placement mechanism).
        match single_source {
            Some(src) => {
                let item = src.owned_item();
                for node in nodes.iter_mut().filter(|n| n.own_item.id() != item) {
                    node.cache
                        .insert(item, Version::INITIAL, CONTENT_BYTES, SimTime::ZERO);
                }
            }
            None => {
                for id in NodeId::all(n) {
                    let mut catalogue: Vec<ItemId> =
                        ItemId::all(n).filter(|it| it.source_host() != id).collect();
                    let mut warm_rng = SimRng::from_seed(master, 0x300 + id.index() as u64);
                    warm_rng.shuffle(&mut catalogue);
                    let node = &mut nodes[id.index()];
                    for &item in catalogue.iter().take(cfg.c_num) {
                        node.cache
                            .insert(item, Version::INITIAL, CONTENT_BYTES, SimTime::ZERO);
                    }
                }
            }
        }

        let per_node = |family: u64| -> Vec<SimRng> {
            (0..n as u64)
                .map(|i| SimRng::from_seed(master, family + i))
                .collect()
        };
        let mut world = World {
            queue: EventQueue::with_capacity(1024),
            now: SimTime::ZERO,
            nodes,
            query_rngs: per_node(0x400),
            update_rngs: per_node(0x500),
            switch_rngs: per_node(0x600),
            write_rngs: per_node(0x800),
            link_rng: SimRng::from_seed(master, 0x700),
            topo: None,
            links: TopologySnapshot::new(cfg.range),
            topo_scratch: TopologyScratch::new(),
            path_buf: Vec::new(),
            listener_pool: Vec::new(),
            action_pool: Vec::new(),
            output_pool: Vec::new(),
            target_buf: Vec::new(),
            grid,
            single_source,
            next_query_id: 0,
            open: FastMap::default(),
            open_writes: FastMap::default(),
            histories: (0..n).map(|_| VersionHistory::new()).collect(),
            report: RunReport::new(&cfg),
            faults: FaultRuntime::new(&cfg),
            obs: Observers::new(&cfg),
            cfg,
        };
        world.bootstrap();
        world
    }

    /// Installs a flight-recorder sink for this run and switches the
    /// network stacks' event buffering on (or off for a
    /// [`mp2p_trace::NullSink`]). Call before [`World::run_traced`];
    /// events from the bootstrap phase (already past) are not replayed.
    pub fn set_tracer(&mut self, tracer: Box<dyn TraceSink>) {
        let on = self.obs.set_tracer(tracer);
        for node in self.nodes.iter_mut() {
            node.stack.set_tracing(on);
        }
    }

    /// Switches wall-clock profiling on for this run: the report gains a
    /// [`RunReport::perf`] section. Profiling only *reads* the host
    /// clock — it never feeds back into simulation state — so a seeded
    /// run produces bit-identical protocol results and trace journals
    /// with or without it (asserted by `profiler_determinism` tests).
    pub fn enable_profiling(&mut self) {
        self.obs.enable_profiling();
    }

    fn bootstrap(&mut self) {
        // Initial subnet cells.
        for i in 0..self.nodes.len() {
            let pos = self.nodes[i].mobility.position_at(SimTime::ZERO);
            self.nodes[i].last_cell = self.grid.cell_of(pos);
        }
        // Protocol initialisation.
        for id in NodeId::all(self.nodes.len()) {
            self.with_proto(id, |p, ctx| p.on_init(ctx));
        }
        // Workload streams.
        for id in NodeId::all(self.nodes.len()) {
            if self.queries_enabled(id) {
                self.schedule_next(Arrival::Query, id);
            }
            if self.nodes[id.index()].publishes {
                self.schedule_next(Arrival::Update, id);
            }
            self.schedule_next(Arrival::Switch, id);
            if self.queries_enabled(id) {
                self.schedule_next(Arrival::Write, id);
            }
        }
        self.queue.push(self.now + PHI, Event::CoeffTick);
        self.queue.push(self.now + SAMPLE_PERIOD, Event::Sample);
        if let Some(period) = self.cfg.observatory.sample_period {
            self.queue.push(self.now + period, Event::ConsistencyTick);
        }
        self.schedule_faults();
    }

    fn queries_enabled(&self, id: NodeId) -> bool {
        self.single_source != Some(id)
    }

    /// Queues `id`'s next arrival on one of its Poisson streams: one
    /// exponential draw from the stream's own generator around the
    /// configured mean, at least 1 ms out. A stream whose interval is
    /// switched off (`i_write`, `i_switch`) queues nothing and draws
    /// nothing.
    fn schedule_next(&mut self, stream: Arrival, id: NodeId) {
        let (rngs, mean, event) = match stream {
            Arrival::Query => (
                &mut self.query_rngs,
                Some(self.cfg.i_query),
                Event::Query(id),
            ),
            Arrival::Update => (
                &mut self.update_rngs,
                Some(self.cfg.i_update),
                Event::Update(id),
            ),
            Arrival::Write => (&mut self.write_rngs, self.cfg.i_write, Event::Write(id)),
            // An up node stays up for ~I_Switch, then disconnects for a
            // short off period (~switch_off_mean) before reconnecting.
            Arrival::Switch => {
                let up = self.nodes[id.index()].up;
                let mean = self
                    .cfg
                    .i_switch
                    .map(|on| if up { on } else { self.cfg.switch_off_mean });
                (&mut self.switch_rngs, mean, Event::Switch(id))
            }
        };
        let Some(mean) = mean else {
            return;
        };
        let gap = rngs[id.index()].exponential(mean.as_secs_f64());
        let when = self.now + SimDuration::from_secs_f64(gap).max(SimDuration::from_millis(1));
        self.queue.push(when, event);
    }

    /// Runs to completion and returns the report.
    pub fn run(self) -> RunReport {
        self.run_traced().0
    }

    /// Runs to completion and hands back both the report and the
    /// flight-recorder sink installed via [`World::set_tracer`] (a
    /// [`mp2p_trace::NullSink`] when none was), flushed and ready for
    /// inspection.
    pub fn run_traced(mut self) -> (RunReport, Box<dyn TraceSink>) {
        let end = SimTime::ZERO + self.cfg.sim_time;
        self.obs.begin();
        while let Some((t, event)) = self.queue.pop() {
            if t > end {
                break;
            }
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            // Name the bucket before the event is consumed; the scope
            // covers everything the event triggers.
            let bucket = event_bucket(&event);
            let scope = self.obs.start();
            self.handle(event);
            self.obs.stop(bucket, scope);
        }
        // Queries still legitimately in flight when the run ends are
        // censored observations, not failures: remove them from the
        // issued count so served + failed == issued stays exact.
        for (_, open) in self.open.drain() {
            self.report.queries_issued -= u64::from(open.measured);
        }
        for (_, open) in self.open_writes.drain() {
            self.report.writes_issued -= u64::from(open.measured);
        }
        self.report.energy_used_mj = self.nodes.iter().map(|n| n.battery.used_mj()).sum();
        // The queue high-water survives in the live protocol state (it
        // never resets), so sampling once at the end is exact — except
        // across crash wipes, which fold the pre-crash peak in before the
        // instance is lost.
        let retx_peak = self.nodes.iter().map(|n| n.proto.retx_high_water() as u64);
        let faults = &mut self.report.faults;
        faults.retx_queue_peak = retx_peak.fold(faults.retx_queue_peak, u64::max);
        let queue = self.queue.stats();
        let topology = self.links.stats();
        let tracer = self
            .obs
            .finish(&self.cfg, queue, topology, &mut self.report);
        (self.report, tracer)
    }

    fn measuring(&self) -> bool {
        self.now.saturating_since(SimTime::ZERO) >= self.cfg.warmup
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Query(id) => {
                self.handle_query_arrival(id);
                self.schedule_next(Arrival::Query, id);
            }
            Event::Update(id) => {
                self.source_update(id);
                self.schedule_next(Arrival::Update, id);
            }
            Event::Write(id) => {
                self.handle_write_arrival(id);
                self.schedule_next(Arrival::Write, id);
            }
            Event::WriteRetry { at, write } => self.retry_write(at, write),
            Event::Switch(id) => {
                // A crashed node stays down until its window closes: the
                // stream keeps drawing and re-queueing, but toggles,
                // journals and notifies nothing meanwhile.
                if !self.crashed(id) {
                    let up = !self.nodes[id.index()].up;
                    self.nodes[id.index()].up = up;
                    self.topo = None; // connectivity changed
                    let record = if up {
                        TraceEvent::NodeUp { node: id }
                    } else {
                        TraceEvent::NodeDown { node: id }
                    };
                    self.obs.record(self.now, record);
                    self.with_proto(id, |p, ctx| p.on_status_change(ctx, up));
                }
                self.schedule_next(Arrival::Switch, id);
            }
            Event::Rx { at, from, frame } => self.handle_rx(at, from, &frame),
            Event::RxAll {
                from,
                frame,
                mut listeners,
            } => {
                // Every listener reads the one frame the event holds.
                // Anything a reception schedules at `now` runs after the
                // remaining listeners, as it did when each listener held
                // its own (earlier-numbered) queue entry.
                for &at in &listeners {
                    self.handle_rx(at, from, &frame);
                }
                listeners.clear();
                self.listener_pool.push(listeners);
            }
            Event::NetTimer { at, timer } => {
                self.with_stack(at, |stack, now, out| stack.on_timer_into(now, timer, out));
            }
            Event::ProtoTimer { at, timer } => self.with_proto(at, |p, ctx| p.on_timer(ctx, timer)),
            Event::OracleDeliver { at, from, msg } => {
                if self.nodes[at.index()].up {
                    // The oracle bypasses hop accounting, and no frame
                    // carried the message.
                    let meta = NetMeta {
                        origin: from,
                        hops: 0,
                        via_flood: false,
                        frame: None,
                    };
                    self.deliver(at, msg, meta);
                }
            }
            Event::CoeffTick => {
                for id in NodeId::all(self.nodes.len()) {
                    let pos = self.nodes[id.index()].mobility.position_at(self.now);
                    let cell = self.grid.cell_of(pos);
                    let moved = cell != self.nodes[id.index()].last_cell;
                    self.nodes[id.index()].last_cell = cell;
                    self.with_proto(id, |p, ctx| p.on_coefficient_tick(ctx, moved));
                }
                self.queue.push(self.now + PHI, Event::CoeffTick);
            }
            Event::Sample => {
                self.take_samples();
                self.queue.push(self.now + SAMPLE_PERIOD, Event::Sample);
            }
            Event::ConsistencyTick => {
                self.ensure_topology();
                let components = self.links.graph().components_with(&mut self.topo_scratch);
                let partitions = components.len() as u32;
                self.obs
                    .sample(self.now, &self.nodes, &self.histories, partitions);
                if let Some(period) = self.cfg.observatory.sample_period {
                    self.queue.push(self.now + period, Event::ConsistencyTick);
                }
            }
            Event::Fault(action) => self.handle_fault(action),
        }
    }

    fn take_samples(&mut self) {
        let idle = idle_cost(SAMPLE_PERIOD);
        let mut relays = 0usize;
        let mut candidates = 0usize;
        let mut routes = 0usize;
        let mut battery_total = 0.0;
        for node in self.nodes.iter_mut() {
            node.battery.drain(idle);
            relays += node.proto.relay_item_count();
            candidates += usize::from(node.proto.is_candidate());
            routes += node.stack.route_count(self.now);
            battery_total += node.battery.fraction_remaining();
        }
        if self.measuring() {
            let report = &mut self.report;
            report.relay_gauge.sample(relays as f64);
            report.candidate_gauge.sample(candidates as f64);
            report.route_gauge.sample(routes as f64);
            report
                .battery_gauge
                .sample(battery_total / self.nodes.len() as f64);
        }
    }

    /// The item a query or write arriving at `id` targets: the single
    /// published item, or a uniform draw over what the node caches
    /// (`None` for an empty cache: nothing to ask about).
    fn pick_target(&mut self, id: NodeId) -> Option<ItemId> {
        if let Some(src) = self.single_source {
            return Some(src.owned_item());
        }
        let (node, cached) = (&mut self.nodes[id.index()], &mut self.target_buf);
        cached.clear();
        cached.extend(node.cache.iter().map(|(it, _)| it));
        // The store iterates in arbitrary hash order; sort so the uniform
        // choice below is deterministic per seed.
        cached.sort_unstable();
        node.rng.choose(cached).copied()
    }

    /// Queries and replica writes draw their ids from one counter.
    fn next_id(&mut self) -> QueryId {
        let id = QueryId(self.next_query_id);
        self.next_query_id += 1;
        id
    }

    fn handle_query_arrival(&mut self, id: NodeId) {
        let Some(item) = self.pick_target(id) else {
            return;
        };
        let level = self.cfg.level_mix.sample(&mut self.nodes[id.index()].rng);
        let query = self.next_id();
        let measured = self.measuring();
        self.open.insert(
            query,
            OpenQuery {
                node: id,
                item,
                level,
                issued: self.now,
                measured,
            },
        );
        self.report.queries_issued += u64::from(measured);
        self.obs.record(
            self.now,
            TraceEvent::QueryIssued {
                node: id,
                query: query.0,
                item,
                level,
            },
        );
        self.with_proto(id, |p, ctx| p.on_query(ctx, query, item, level));
    }

    /// The master copy of `id`'s item changes (its own update stream, or
    /// a replica write it serialised). Every holder that cannot currently
    /// be reached from the source — no multi-hop path joins them, or
    /// either is down — is obstructed by partition at the new version.
    fn source_update(&mut self, id: NodeId) -> Version {
        let item = id.owned_item();
        let version = self.nodes[id.index()].own_item.update();
        self.histories[item.index()].record_update(self.now);
        let record = TraceEvent::SourceUpdate {
            node: id,
            item,
            version: version.get(),
        };
        // What the source reaches, sorted for the binary search below.
        // Only read under blame tracking, which is when it is filled.
        if self.obs.blames() {
            self.ensure_topology();
            let (graph, reached) = (self.links.graph(), &mut self.path_buf);
            graph.within_hops_with(&mut self.topo_scratch, id, u32::MAX, reached);
            reached.sort_unstable();
        }
        let reached = &self.path_buf;
        let master = self.histories[item.index()].current().get();
        let holders = NodeId::all(self.nodes.len()).zip(&self.nodes);
        // The source never caches its own item, so its absence from
        // `reached` cannot make it a holder.
        let cut_off = holders
            .filter(|(n, node)| node.cache.contains(item) && reached.binary_search(n).is_err())
            .map(|(n, _)| (n, item, master));
        self.obs
            .fault(self.now, record, BlameCause::Partitioned, cut_off);
        self.with_proto(id, |p, ctx| p.on_source_update(ctx));
        version
    }

    /// Gate 2 for one reception: a switched-off node hears nothing, and
    /// the channel may lose the frame.
    fn handle_rx(&mut self, at: NodeId, from: NodeId, frame: &Frame<ProtoMsg>) {
        let lost = if self.nodes[at.index()].up {
            self.channel_verdict()
        } else {
            Some(FrameFateKind::DownDrop)
        };
        if let Some(fate) = lost {
            self.report.faults.burst_drops += u64::from(fate == FrameFateKind::BurstDrop);
            self.obs.fate(self.now, from, at, frame, fate);
            return;
        }
        self.nodes[at.index()].battery.drain(rx_cost(frame.size()));
        self.with_stack(at, |stack, now, out| {
            stack.on_frame_into(now, from, frame, out)
        });
    }

    /// Re-takes the topology snapshot if stale: every node's position
    /// and up flag, re-binned only when a node has moved far enough to
    /// end the snapshot's Verlet epoch. No adjacency row is built here —
    /// whoever needs one asks `links` — and every buffer is the previous
    /// snapshot's, so a refresh allocates nothing once the run is warm.
    fn ensure_topology(&mut self) {
        let stale = match self.topo {
            Some(taken) => self.now.saturating_since(taken) > self.cfg.topology_refresh,
            None => true,
        };
        if !stale {
            return;
        }
        let now = self.now;
        let cut = self.partition_cut();
        let nodes = self.nodes.iter_mut();
        self.links
            .refresh(cut, nodes.map(|n| (n.mobility.position_at(now), n.up)));
        self.topo = Some(now);
    }

    /// The one place a transmission is counted (towards the traffic
    /// metric, once past warm-up), traced and charged to the sender's
    /// battery.
    #[inline]
    fn account_tx(&mut self, node: NodeId, dest: Option<NodeId>, tx: &Tx<'_>) {
        if self.measuring() {
            self.report.traffic.record(tx.class, tx.bytes);
        }
        self.obs.tx(self.now, node, dest, tx);
        self.nodes[node.index()].battery.drain(tx_cost(tx.bytes));
    }

    /// When a transmission of `frame` by `node` is heard, and — when the
    /// fault plan duplicates it in flight — when it is heard a second
    /// time, an extra, independently drawn hop delay later.
    fn air_times(&mut self, node: NodeId, frame: &Frame<ProtoMsg>) -> (SimTime, Option<SimTime>) {
        let heard = self.now + self.cfg.link.hop_delay(frame.size(), &mut self.link_rng);
        let extra = self.duplicate_delay(frame.size());
        if extra.is_some() {
            self.report.faults.frames_duplicated += 1;
            let class = Tx::frame(frame).class;
            self.obs
                .record(self.now, TraceEvent::FrameDup { node, class });
        }
        (heard, extra.map(|extra| heard + extra))
    }

    /// Gate 1: `node` puts `frame` on the air once, MAC-addressed to
    /// `next_hop` or — with none — heard by every current neighbour.
    fn transmit(&mut self, node: NodeId, next_hop: Option<NodeId>, frame: Frame<ProtoMsg>) {
        if !self.nodes[node.index()].up {
            return; // a down node cannot transmit
        }
        self.account_tx(node, next_hop, &Tx::frame(&frame));
        let Some(next_hop) = next_hop else {
            let (heard, heard_again) = self.air_times(node, &frame);
            self.ensure_topology();
            let neighbors = self.links.neighbors(node);
            if neighbors.is_empty() {
                return; // nobody in range: nothing to deliver
            }
            // The frame moves into its event; only a duplicate is a copy.
            let copy = heard_again.map(|again| (again, frame.clone()));
            for (when, frame) in std::iter::once((heard, frame)).chain(copy) {
                let mut listeners = self.listener_pool.pop().unwrap_or_default();
                listeners.extend_from_slice(neighbors);
                self.queue.push(
                    when,
                    Event::RxAll {
                        from: node,
                        frame,
                        listeners,
                    },
                );
            }
            return;
        };
        self.ensure_topology();
        let reachable = self.links.linked(node, next_hop) && self.nodes[next_hop.index()].up;
        if reachable {
            let (heard, heard_again) = self.air_times(node, &frame);
            let rx = |frame| Event::Rx {
                at: next_hop,
                from: node,
                frame,
            };
            if let Some(again) = heard_again {
                self.queue.push(again, rx(frame.clone()));
            }
            self.queue.push(heard, rx(frame));
        } else {
            self.obs
                .fate(self.now, node, next_hop, &frame, FrameFateKind::MacDrop);
            // MAC-level delivery failure feedback (Section 4.5).
            self.with_stack(node, |stack, now, out| {
                stack.on_send_failed_into(now, next_hop, frame, out)
            });
        }
    }

    /// The only way a stack entry point runs: `call` pushes what `node`'s
    /// stack asks for into a pooled buffer, and the funnel applies it.
    fn with_stack(
        &mut self,
        node: NodeId,
        call: impl FnOnce(&mut NetStack<ProtoMsg>, SimTime, &mut Vec<NetAction<ProtoMsg>>),
    ) {
        let mut actions = self.action_pool.pop().unwrap_or_default();
        call(&mut self.nodes[node.index()].stack, self.now, &mut actions);
        self.apply_net_actions(node, actions);
    }

    /// The single funnel every stack invocation drains through; the
    /// emptied buffer goes (back) to the pool.
    fn apply_net_actions(&mut self, node: NodeId, mut actions: Vec<NetAction<ProtoMsg>>) {
        let stack = &mut self.nodes[node.index()].stack;
        self.obs.stack_fates(self.now, node, stack);
        for action in actions.drain(..) {
            match action {
                NetAction::Broadcast(frame) => self.transmit(node, None, frame),
                NetAction::Send { next_hop, frame } => self.transmit(node, Some(next_hop), frame),
                NetAction::Deliver { payload, meta } => self.deliver(node, payload, meta),
                NetAction::SetTimer { after, timer } => {
                    self.queue
                        .push(self.now + after, Event::NetTimer { at: node, timer });
                }
                NetAction::Undeliverable { dest, payload } => {
                    let record = TraceEvent::Undeliverable {
                        node,
                        dest,
                        class: payload.class(),
                    };
                    let deprived = payload.propagates().map(|(item, v)| (dest, item, v));
                    self.obs
                        .fault(self.now, record, BlameCause::InvalidateLost, deprived);
                    // A writer's own retry timer decides when to give up;
                    // discovery failure just means wait for it.
                    if !matches!(payload, ProtoMsg::WriteRequest { .. }) {
                        self.with_proto(node, |p, ctx| p.on_undeliverable(ctx, dest, payload));
                    }
                }
            }
        }
        self.action_pool.push(actions);
    }

    /// Hands a message that reached `node` — through the stack or the
    /// oracle — to whoever handles it.
    fn deliver(&mut self, node: NodeId, payload: ProtoMsg, meta: NetMeta) {
        let scope = self.obs.delivered(self.now, node, &payload, &meta);
        match payload {
            // Replica writes are driver-level machinery: apply at the
            // source, acknowledge to the writer; the running consistency
            // strategy propagates the change.
            ProtoMsg::WriteRequest { item, .. } => {
                self.handle_write_request(node, meta.origin, item);
            }
            ProtoMsg::WriteAck { item, version } => self.handle_write_ack(node, item, version),
            _ => self.with_proto(node, |p, ctx| p.on_message(ctx, meta.origin, payload)),
        }
        self.obs.handled(payload.class(), scope);
    }

    /// Runs `f` against node `id`'s protocol with a fresh context
    /// writing into a pooled buffer, then applies the buffered outputs.
    fn with_proto<F: FnOnce(&mut AnyProtocol, &mut Ctx<'_>)>(&mut self, id: NodeId, f: F) {
        let mut outputs = self.output_pool.pop().unwrap_or_default();
        {
            let node = &mut self.nodes[id.index()];
            let energy = node.battery.fraction_remaining();
            let mut ctx = Ctx::new(
                self.now,
                id,
                &mut node.cache,
                &mut node.own_item,
                &mut node.rng,
                &self.cfg.proto,
                energy,
                node.up,
            );
            ctx.recovery_rng = Some(&mut node.recovery_rng);
            ctx.swap_outputs(&mut outputs); // lend the pooled buffer
            f(&mut node.proto, &mut ctx);
            ctx.swap_outputs(&mut outputs); // and take it back, filled
        }
        let carrier = self.obs.carrier();
        for out in outputs.drain(..) {
            match out {
                CtxOut::Send { to, msg } => self.unicast(id, to, msg),
                CtxOut::Flood { ttl, msg } => self.flood(id, ttl, msg),
                CtxOut::SetTimer { after, timer } => {
                    self.queue
                        .push(self.now + after, Event::ProtoTimer { at: id, timer });
                }
                CtxOut::Answer {
                    query,
                    version,
                    served_by,
                } => self.close_answered(id, query, version, served_by),
                CtxOut::Fail { query } => self.close_failed(id, query),
                CtxOut::Transition { item, kind } => {
                    let node = id;
                    self.obs
                        .record(self.now, TraceEvent::RelayTransition { node, item, kind });
                }
                CtxOut::QueryPhase {
                    query,
                    item,
                    phase,
                    attempt,
                } => self.obs.record(
                    self.now,
                    TraceEvent::QueryPhase {
                        node: id,
                        query: query.0,
                        item,
                        phase,
                        attempt,
                    },
                ),
                CtxOut::CopyInstalled { item, version } => {
                    self.obs.lineage(self.now, id, item, version.get(), carrier);
                }
                CtxOut::Degraded { item, query, kind } => match kind {
                    DegradationKind::RelayLeaseExpired => self.lease_expired(id, item),
                    DegradationKind::FallbackFlood => {
                        self.report.faults.fallback_floods += 1;
                        self.obs.record(
                            self.now,
                            TraceEvent::FallbackFlood {
                                node: id,
                                query: query.map_or(0, |q| q.0),
                                item,
                            },
                        );
                    }
                },
                CtxOut::Recovery { action } => self.apply_recovery(id, action),
            }
        }
        self.output_pool.push(outputs);
    }

    /// Counts and journals one recovery-layer decision of `node`'s
    /// protocol; a handover request is the one the driver must resolve.
    fn apply_recovery(&mut self, node: NodeId, action: RecoveryAction) {
        let faults = &mut self.report.faults;
        let record = match action {
            RecoveryAction::ResyncStart { items } => {
                faults.resyncs += 1;
                TraceEvent::ResyncStart { node, items }
            }
            RecoveryAction::ResyncDone { stale } => TraceEvent::ResyncDone { node, stale },
            RecoveryAction::Retransmit {
                dest,
                item,
                seq,
                attempt,
            } => {
                faults.retransmits += 1;
                TraceEvent::RecoveryRetransmit {
                    node,
                    dest,
                    item,
                    seq,
                    attempt,
                }
            }
            RecoveryAction::AckReceived { peer, item, seq } => {
                faults.delivery_acks += 1;
                TraceEvent::RecoveryAck {
                    node,
                    peer,
                    item,
                    seq,
                }
            }
            RecoveryAction::HandoverRequest { item, version } => {
                return self.handle_handover_request(node, item, version);
            }
        };
        self.obs.record(self.now, record);
    }

    /// A relay's lease on `item` ran out with no successor: the coverage
    /// hole stands, and stale answers from this copy trace back to it.
    fn lease_expired(&mut self, node: NodeId, item: ItemId) {
        self.report.faults.lease_expiries += 1;
        let master = self.histories[item.index()].current().get();
        let record = TraceEvent::RelayLeaseExpired { node, item };
        let orphan = [(node, item, master)];
        self.obs
            .fault(self.now, record, BlameCause::LeaseOrphan, orphan);
    }

    /// Resolves a relay-lease handover request: elect the lowest-id up
    /// neighbour that caches the item (and is not its source host) and
    /// hand it the expiring role; with no eligible successor the expiry
    /// degrades exactly as it would with handover off.
    fn handle_handover_request(&mut self, from: NodeId, item: ItemId, version: Version) {
        self.ensure_topology();
        // Neighbour rows are ascending, so the first hit is the
        // deterministic lowest-id successor.
        let neighbors = self.links.neighbors(from).iter().copied();
        let winner = neighbors.into_iter().find(|&n| {
            let node = &self.nodes[n.index()];
            node.up && item.source_host() != n && node.cache.contains(item)
        });
        match winner {
            Some(to) => {
                self.report.faults.handovers += 1;
                self.obs
                    .record(self.now, TraceEvent::RelayHandover { from, to, item });
                self.unicast(from, to, ProtoMsg::Handover { item, version });
            }
            None => self.lease_expired(from, item),
        }
    }

    /// The send funnel: every unicast of the run — protocol output,
    /// handover grant, replica write or its acknowledgement — leaves
    /// through here, and this is the only place the routing mode is
    /// matched.
    fn unicast(&mut self, from: NodeId, to: NodeId, msg: ProtoMsg) {
        self.obs.offered(&msg);
        match self.cfg.routing {
            RoutingMode::OnDemand => self.with_stack(from, |stack, now, out| {
                stack.send_app_into(now, to, msg, msg.size_bytes(), out)
            }),
            RoutingMode::Oracle => self.oracle_send(from, to, msg),
        }
    }

    /// The flood half of the send funnel (floods need no route, so both
    /// routing modes share the stack's TTL-scoped broadcast).
    fn flood(&mut self, from: NodeId, ttl: u8, msg: ProtoMsg) {
        self.obs.offered(&msg);
        self.with_stack(from, |stack, now, out| {
            stack.flood_app_into(now, ttl, msg, msg.size_bytes(), out)
        });
    }

    /// Oracle-mode unicast: the message follows the current BFS shortest
    /// path with per-hop costs but zero routing control.
    fn oracle_send(&mut self, from: NodeId, to: NodeId, msg: ProtoMsg) {
        if to == from {
            return self.with_proto(from, |p, ctx| p.on_message(ctx, from, msg));
        }
        if !self.nodes[from.index()].up {
            return; // a down node cannot transmit
        }
        // Take the reusable path buffer out of `self` so per-hop costing
        // below can borrow the world mutably; no allocation either way.
        let mut path = std::mem::take(&mut self.path_buf);
        self.ensure_topology();
        let graph = self.links.graph();
        if graph.shortest_path_with(&mut self.topo_scratch, from, to, &mut path) {
            let tx = Tx::message(&msg);
            let rx_mj = rx_cost(tx.bytes);
            let mut arrival = self.now;
            for pair in path.windows(2) {
                self.account_tx(pair[0], Some(pair[1]), &tx);
                self.nodes[pair[1].index()].battery.drain(rx_mj);
                arrival += self.cfg.link.hop_delay(tx.bytes, &mut self.link_rng);
            }
            self.queue
                .push(arrival, Event::OracleDeliver { at: to, from, msg });
        } else {
            // No path: surface as the MAC-level failure the protocols
            // already handle.
            self.with_proto(from, |p, ctx| p.on_undeliverable(ctx, to, msg));
        }
        self.path_buf = path;
    }

    fn close_answered(
        &mut self,
        node: NodeId,
        query: QueryId,
        version: Version,
        served_by: ServedBy,
    ) {
        let Some(open) = self.open.remove(&query) else {
            return; // duplicate answer (e.g. two poll acks): first one won
        };
        let audited = open.measured.then(|| {
            let report = &mut self.report;
            report.served_by[served_by.index()] += 1;
            let latency = self.now.saturating_since(open.issued);
            report.latency.record(latency);
            report.latency_by_level[open.level.index()].record(latency);
            let history = &self.histories[open.item.index()];
            let served = ServedQuery {
                served: version,
                master: history.current(),
                staleness: history.staleness(version, self.now),
            };
            report.audit.record(served);
            report.audit_by_level[open.level.index()].record(served);
            served
        });
        self.obs
            .answered(self.now, node, query, &open, served_by, audited);
    }

    fn close_failed(&mut self, node: NodeId, query: QueryId) {
        let Some(open) = self.open.remove(&query) else {
            return;
        };
        self.obs.record(
            self.now,
            TraceEvent::QueryFailed {
                node,
                query: query.0,
                level: open.level,
            },
        );
        self.report.queries_failed += u64::from(open.measured);
    }
}

/// Stream id of the world-level RNG ("WORLD" in ASCII).
const WORLD_STREAM: u64 = 0x57_4F_52_4C_44;

/// Period of the gauge samples (relay population, routes, battery) and
/// of the idle battery drain.
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(30);
/// Subnet grid (columns, rows) whose cell changes count as moves in the
/// PMR coefficient (Eq. 4.2.5).
const SUBNET_GRID: (u32, u32) = (3, 3);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObservatoryConfig;
    use mp2p_metrics::MessageClass;
    use mp2p_mobility::{Point, Stationary, Terrain};
    use mp2p_net::FaultPlan;
    use mp2p_sim::TopologyStats;

    fn tiny(strategy: Strategy, seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::small_test(seed);
        cfg.n_peers = 8;
        cfg.c_num = 3;
        cfg.terrain = Terrain::new(500.0, 500.0);
        cfg.sim_time = SimDuration::from_mins(5);
        cfg.warmup = SimDuration::from_mins(1);
        cfg.strategy = strategy;
        cfg
    }

    /// A reception reads the up flag, the battery and the stack's hot
    /// fields: they stay inside the first three cache lines of a
    /// `NodeState`. The stack's hot fields end within its first 136
    /// bytes (`stack.rs`'s `a_receptions_fields_lead_the_stack`), so
    /// the stack starts within the node's first 56, after the flag and
    /// the battery.
    #[test]
    fn a_receptions_fields_lead_the_node_state() {
        use std::mem::{offset_of, size_of};
        assert_eq!(offset_of!(NodeState, up), 0);
        let battery_end = offset_of!(NodeState, battery) + size_of::<PeerEnergy>();
        assert!(battery_end <= offset_of!(NodeState, stack));
        assert!(offset_of!(NodeState, stack) + 136 <= 3 * 64);
    }

    #[test]
    fn every_strategy_constructs_and_runs() {
        for strategy in [
            Strategy::Rpcc,
            Strategy::Push,
            Strategy::Pull,
            Strategy::PushAdaptivePull,
        ] {
            let report = World::new(tiny(strategy, 1)).run();
            assert_eq!(report.strategy, strategy);
            assert!(report.queries_issued > 0, "{strategy} generated no queries");
        }
    }

    #[test]
    fn strategy_labels_are_unique() {
        let labels = [
            Strategy::Rpcc.label(),
            Strategy::Push.label(),
            Strategy::Pull.label(),
            Strategy::PushAdaptivePull.label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    /// Every rule of `check`, broken one at a time: the error names the
    /// field (and, for a rule between two, the other one) and nothing
    /// panics — including the values that used to reach an assertion or a
    /// never-ending loop inside a model.
    #[test]
    fn check_names_the_field_of_every_broken_rule() {
        type Break = fn(&mut WorldConfig);
        fn manhattan(block: f64, speed: f64) -> MobilityKind {
            MobilityKind::Manhattan { block, speed }
        }
        fn walk(speed_min: f64, speed_max: f64, epoch_ms: u64) -> MobilityKind {
            let epoch = SimDuration::from_millis(epoch_ms);
            MobilityKind::Walk {
                speed_min,
                speed_max,
                epoch,
            }
        }
        let cases: [(&str, Option<&str>, Break); 24] = [
            ("terrain", Some("range"), |c| {
                c.terrain = Terrain::new(1e300, 1.0)
            }),
            ("terrain", Some("range"), |c| c.range = 1e-3),
            ("n_peers", None, |c| c.n_peers = 1),
            ("c_num", None, |c| c.c_num = 0),
            ("c_num", Some("n_peers"), |c| c.c_num = c.n_peers),
            ("range", None, |c| c.range = 0.0),
            ("range", None, |c| c.range = f64::NAN),
            ("warmup", Some("sim_time"), |c| c.warmup = c.sim_time),
            ("i_query", None, |c| c.i_query = SimDuration::ZERO),
            ("i_update", None, |c| c.i_update = SimDuration::ZERO),
            ("i_write", None, |c| c.i_write = Some(SimDuration::ZERO)),
            ("i_switch", None, |c| c.i_switch = Some(SimDuration::ZERO)),
            ("topology_refresh", None, |c| {
                c.topology_refresh = SimDuration::ZERO
            }),
            ("link.loss_prob", None, |c| c.link.loss_prob = 1.5),
            ("battery_mj", None, |c| c.battery_mj = 0.0),
            ("mobility.epoch", None, |c| c.mobility = walk(1.0, 2.0, 0)),
            ("mobility.speed_min", None, |c| {
                c.mobility = walk(1e-300, 2.0, 1)
            }),
            ("mobility.speed_max", None, |c| {
                c.mobility = walk(1.0, f64::INFINITY, 1)
            }),
            ("mobility.speed_min", Some("mobility.speed_max"), |c| {
                c.mobility = walk(3.0, 1.0, 1)
            }),
            ("mobility.block", None, |c| {
                c.mobility = manhattan(1e-9, 8.0)
            }),
            ("mobility.block", None, |c| {
                c.mobility = manhattan(1e308, 8.0)
            }),
            ("mobility.speed", None, |c| {
                c.mobility = manhattan(150.0, 1e308)
            }),
            ("proto.poll_ttl", None, |c| c.proto.poll_ttl = 9),
            ("observatory.sample_period", None, |c| {
                c.observatory = ObservatoryConfig::full(SimDuration::ZERO)
            }),
        ];
        assert_eq!(WorldConfig::paper_default(1).check(), Ok(()));
        for (field, related, break_it) in cases {
            let mut cfg = WorldConfig::paper_default(1);
            cfg.mobility = walk(1.0, 2.0, 60_000);
            break_it(&mut cfg);
            let e = cfg.check().expect_err(field);
            assert_eq!((e.field, e.related), (field, related), "{e}");
        }
    }

    #[test]
    fn oracle_routing_carries_zero_control_traffic() {
        let mut cfg = tiny(Strategy::Pull, 2);
        cfg.routing = RoutingMode::Oracle;
        let report = World::new(cfg).run();
        assert_eq!(report.traffic.by_class(MessageClass::RouteControl), 0);
        assert!(report.queries_served() > 0);
    }

    #[test]
    fn oracle_routing_is_cheaper_than_on_demand() {
        let run = |routing| {
            let mut cfg = tiny(Strategy::Push, 3);
            cfg.routing = routing;
            World::new(cfg).run()
        };
        let oracle = run(RoutingMode::Oracle);
        let on_demand = run(RoutingMode::OnDemand);
        assert!(oracle.traffic.transmissions() <= on_demand.traffic.transmissions());
    }

    #[test]
    fn single_item_mode_publishes_exactly_one_source() {
        let mut cfg = tiny(Strategy::Rpcc, 4);
        cfg.workload = WorkloadMode::SingleItem;
        let world = World::new(cfg);
        let publishers = world.nodes.iter().filter(|n| n.publishes).count();
        assert_eq!(publishers, 1);
        assert!(world.single_source.is_some());
        // Every non-source node pre-warmed with the single item.
        let src = world.single_source.unwrap();
        for (i, node) in world.nodes.iter().enumerate() {
            if i != src.index() {
                assert!(node.cache.contains(src.owned_item()));
            }
        }
    }

    #[test]
    fn cached_uniform_prewarms_full_caches() {
        let cfg = tiny(Strategy::Rpcc, 5);
        let c_num = cfg.c_num;
        let world = World::new(cfg);
        for node in &world.nodes {
            assert_eq!(node.cache.len(), c_num, "placement fills every slot");
            assert!(
                !node.cache.contains(node.own_item.id()),
                "no node caches its own item"
            );
        }
    }

    #[test]
    fn validate_rejects_oversized_cache() {
        let mut cfg = tiny(Strategy::Rpcc, 6);
        cfg.c_num = cfg.n_peers; // no room for the foreign catalogue
        let result = std::panic::catch_unwind(move || World::new(cfg));
        assert!(result.is_err());
    }

    #[test]
    fn report_to_json_is_valid_json() {
        let report = World::new(tiny(Strategy::Rpcc, 9)).run();
        let json = report.to_json();
        assert!(
            mp2p_trace::json::parse(&json).is_some(),
            "to_json produced invalid JSON: {json}"
        );
        assert!(json.contains("\"strategy\":\"RPCC\""));
        assert!(json.contains("\"queries_issued\":"));
    }

    #[test]
    fn report_helpers_are_consistent() {
        let report = World::new(tiny(Strategy::Pull, 7)).run();
        assert!(report.traffic_per_minute() > 0.0);
        assert_eq!(report.measured, SimDuration::from_mins(4));
        let per_min = report.traffic.transmissions() as f64 / 4.0;
        assert!((report.traffic_per_minute() - per_min).abs() < 1e-9);
    }

    #[test]
    fn fault_free_report_json_carries_no_fault_keys() {
        let report = World::new(tiny(Strategy::Rpcc, 9)).run();
        assert!(report.fault_plan.is_none());
        assert_eq!(report.faults, FaultStats::default());
        assert!(!report.to_json().contains("fault_plan"));
    }

    #[test]
    fn hostile_plan_keeps_accounting_exact_and_deterministic() {
        let make = || {
            let mut cfg = tiny(Strategy::Rpcc, 11);
            cfg.proto = cfg.proto.hardened();
            cfg.faults = FaultPlan::hostile(cfg.sim_time);
            cfg
        };
        let a = World::new(make()).run();
        let b = World::new(make()).run();
        assert_eq!(a.to_json(), b.to_json(), "same seed, same bytes");
        assert_eq!(
            a.queries_issued,
            a.queries_served() + a.queries_failed,
            "accounting must stay exact under faults"
        );
        assert_eq!(a.fault_plan, Some("hostile"));
        assert!(a.faults.crashes >= 1, "hostile plan crashes nodes");
        assert!(a.faults.recoveries >= 1);
        assert_eq!(a.faults.partitions_started, 1);
        assert_eq!(a.faults.partitions_healed, 1);
        assert!(mp2p_trace::json::parse(&a.to_json()).is_some());
    }

    #[test]
    fn bursty_preset_records_burst_drops_and_duplicates() {
        let mut cfg = tiny(Strategy::Pull, 14);
        cfg.faults = FaultPlan::bursty(cfg.sim_time);
        let report = World::new(cfg).run();
        assert_eq!(report.fault_plan, Some("bursty"));
        assert!(report.faults.burst_drops > 0, "GE bad state never dropped");
        assert!(report.faults.frames_duplicated > 0, "no frame duplicated");
        assert_eq!(
            report.queries_issued,
            report.queries_served() + report.queries_failed
        );
    }

    #[test]
    fn partition_preset_opens_and_heals_exactly_once() {
        let mut cfg = tiny(Strategy::Pull, 13);
        cfg.faults = FaultPlan::partition(cfg.sim_time);
        let report = World::new(cfg).run();
        assert_eq!(report.faults.partitions_started, 1);
        assert_eq!(report.faults.partitions_healed, 1);
        assert_eq!(
            report.queries_issued,
            report.queries_served() + report.queries_failed
        );
    }

    /// Four stationary nodes 200 m apart under the 250 m range: the path
    /// graph 0 – 1 – 2 – 3, on the default (lossless) link.
    fn line_world() -> World {
        let mut cfg = tiny(Strategy::Push, 21);
        cfg.n_peers = 4;
        cfg.c_num = 2;
        cfg.mobility = MobilityKind::Stationary;
        cfg.i_switch = None;
        let mut world = World::new(cfg);
        for (i, node) in world.nodes.iter_mut().enumerate() {
            node.mobility = Stationary::new(Point::new(i as f64 * 200.0, 0.0)).into();
        }
        world.topo = None;
        world
    }

    /// Has `from` flood a one-hop invalidation; returns the queue pushes
    /// the transmission cost.
    fn flood_from(world: &mut World, from: u32) -> u64 {
        let node = NodeId::new(from);
        let msg = ProtoMsg::Invalidation {
            item: node.owned_item(),
            version: Version::INITIAL,
            seq: None,
        };
        let before = world.queue.stats().pushes;
        let actions =
            world.nodes[node.index()]
                .stack
                .flood_app(world.now, 1, msg, msg.size_bytes());
        world.apply_net_actions(node, actions);
        world.queue.stats().pushes - before
    }

    #[test]
    fn a_broadcast_is_one_queue_event_however_many_hear_it() {
        let mut world = line_world();
        assert_eq!(flood_from(&mut world, 1), 1, "two listeners, one event");
        assert_eq!(flood_from(&mut world, 0), 1, "one listener, one event");
        world.nodes[1].up = false;
        world.topo = None;
        assert_eq!(flood_from(&mut world, 0), 0, "nobody in range: no event");

        let ids = |ids: &[u32]| ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        let mut heard = Vec::new();
        while let Some((t, event)) = world.queue.pop() {
            if let Event::RxAll {
                from, listeners, ..
            } = &event
            {
                heard.push((*from, listeners.clone()));
                world.now = t;
                world.handle(event);
            }
        }
        heard.sort_unstable(); // hop jitter decides which lands first
        assert_eq!(
            heard,
            vec![(NodeId::new(0), ids(&[1])), (NodeId::new(1), ids(&[0, 2]))],
            "listeners are the send-time neighbours, ascending"
        );
        assert_eq!(world.listener_pool.len(), 2, "handled buffers are kept");
        assert!(world.listener_pool.iter().all(Vec::is_empty));
        world.nodes[1].up = true;
        world.topo = None;
        flood_from(&mut world, 2);
        assert_eq!(world.listener_pool.len(), 1, "and reused by the next send");
    }

    #[test]
    fn a_snapshot_builds_only_the_rows_a_broadcast_asks_for() {
        let stats = |snapshots, rows_built| TopologyStats {
            snapshots,
            rows_built,
        };
        let ids = |ids: &[u32]| ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        let mut world = line_world();
        flood_from(&mut world, 1);
        flood_from(&mut world, 1);
        assert_eq!(world.links.stats(), stats(1, 1), "one sender, one row");

        // A switch only invalidates; the next transmission re-takes the
        // snapshot, and builds its sender's row and no other.
        world.handle(Event::Switch(NodeId::new(3)));
        assert_eq!((world.topo, world.links.stats()), (None, stats(1, 1)));
        flood_from(&mut world, 0);
        assert_eq!(world.topo, Some(world.now));
        assert_eq!(world.links.stats(), stats(2, 2));

        // A unicast is tested on the two positions: no row.
        let msg = ProtoMsg::Invalidation {
            item: NodeId::new(2).owned_item(),
            version: Version::INITIAL,
            seq: None,
        };
        let stack = &mut world.nodes[2].stack;
        let mut actions = stack.flood_app(world.now, 1, msg, msg.size_bytes());
        let Some(NetAction::Broadcast(frame)) = actions.pop() else {
            panic!("a flood is one broadcast");
        };
        let before = world.queue.stats().pushes;
        world.transmit(NodeId::new(2), Some(NodeId::new(1)), frame);
        assert_eq!(world.queue.stats().pushes - before, 1, "1 hears 2");
        assert_eq!(world.links.stats(), stats(2, 2));

        assert_eq!(world.links.neighbors(NodeId::new(3)), [], "down: no row");
        assert_eq!(world.links.neighbors(NodeId::new(2)), ids(&[1]));
        assert_eq!(world.links.neighbors(NodeId::new(1)), ids(&[0, 2]));
    }

    #[test]
    fn buffers_return_to_their_pools_empty_and_the_pools_stop_growing() {
        let mut world = line_world();
        let (near, relay, far) = (NodeId::new(0), 1, NodeId::new(3));
        let msg = ProtoMsg::Invalidation {
            item: far.owned_item(),
            version: Version::INITIAL,
            seq: None,
        };
        let cycle = |world: &mut World| {
            // 3 floods three hops: 0 learns the route to it through 1.
            world.nodes[relay].up = true;
            world.topo = None;
            world.flood(far, 3, msg);
            while let Some((t, event)) = world.queue.pop() {
                if let Event::Rx { .. } | Event::RxAll { .. } | Event::NetTimer { .. } = event {
                    world.now = t;
                    world.handle(event);
                }
            }
            assert!(world.nodes[near.index()].stack.has_route(far, world.now));
            // The relay goes dark, so the send fails at the MAC, and the
            // failure re-enters the stack — a discovery flood and its
            // timer — while the buffer holding the send is being drained.
            world.nodes[relay].up = false;
            world.topo = None;
            world.unicast(near, far, msg);
            world.handle_query_arrival(near);
            assert!(world.action_pool.iter().all(Vec::is_empty));
            assert!(world.output_pool.iter().all(Vec::is_empty));
            (world.action_pool.len(), world.output_pool.len())
        };
        let warm = cycle(&mut world);
        assert!(warm.0 >= 2, "the failed send nested a second action buffer");
        assert!(warm.1 >= 1, "the query ran a handler");
        for _ in 0..3 {
            assert_eq!(cycle(&mut world), warm, "a warm pool has every buffer");
        }
    }

    #[test]
    fn open_windows_on_one_axis_cut_it_once() {
        use mp2p_net::{Axis, PartitionCut, PartitionWindow};
        let opened = |axes: &[Axis]| {
            let mut cfg = tiny(Strategy::Push, 22);
            let window = |&axis| PartitionWindow {
                start: SimTime::ZERO + SimDuration::from_secs(10),
                heal: SimTime::ZERO + SimDuration::from_secs(20),
                axis,
            };
            cfg.faults = FaultPlan {
                label: "overlapping",
                partitions: axes.iter().map(window).collect(),
                ..FaultPlan::none()
            };
            let mut world = World::new(cfg);
            for idx in 0..axes.len() {
                world.handle_fault(FaultAction::PartitionStart(idx));
            }
            world.ensure_topology();
            world
        };
        let mut both = opened(&[Axis::Vertical, Axis::Horizontal]);
        let mut repeated = opened(&[Axis::Vertical, Axis::Horizontal, Axis::Vertical]);
        let mut uncut = opened(&[]);
        let quartered = PartitionCut {
            mid_x: Some(250.0),
            mid_y: Some(250.0),
        };
        assert_eq!(both.partition_cut(), quartered);
        assert_eq!(repeated.partition_cut(), quartered);
        let mut severed = 0;
        for id in NodeId::all(8) {
            let row = both.links.neighbors(id);
            assert_eq!(repeated.links.neighbors(id), row, "row of {id}");
            severed += uncut.links.neighbors(id).len() - row.len();
        }
        assert!(severed > 0, "the fixture has links across the midlines");
    }

    #[test]
    fn queue_pushes_count_transmissions_not_receptions() {
        // Pinned: moves only when the engine schedules differently.
        const PUSHES: u64 = 11_754;
        // Pinned: snapshots move only when the engine re-takes the radio
        // graph at different instants; rows are the ones a broadcast or
        // a handover asked for, of the 645 × 20 there were to build.
        const TOPOLOGY: TopologyStats = TopologyStats {
            snapshots: 645,
            rows_built: 5_882,
        };
        let mut profiled = World::new(WorldConfig::small_test(42));
        profiled.enable_profiling();
        let perf = profiled.run().perf.expect("profiling was enabled");
        assert_eq!(perf.queue.pushes, PUSHES);
        assert_eq!(perf.topology, TOPOLOGY);

        // The same run stepped by hand, counting what the events deliver.
        let mut world = World::new(WorldConfig::small_test(42));
        let end = SimTime::ZERO + world.cfg.sim_time;
        let mut receptions = 0u64;
        while let Some((t, event)) = world.queue.pop() {
            if t > end {
                break;
            }
            world.now = t;
            receptions += match &event {
                Event::Rx { .. } => 1,
                Event::RxAll { listeners, .. } => listeners.len() as u64,
                _ => 0,
            };
            world.handle(event);
        }
        assert_eq!(world.queue.stats().pushes, PUSHES);
        assert!(
            receptions > PUSHES,
            "{receptions} receptions should outnumber every queue event together"
        );
    }

    /// What the queue stores per pending event: grows only by decision.
    #[test]
    fn an_event_is_at_most_136_bytes() {
        assert!(std::mem::size_of::<Event>() <= 136);
    }

    #[test]
    fn crash_wipes_volatile_state_but_keeps_the_master_copy() {
        use mp2p_net::CrashWindow;
        let mut cfg = tiny(Strategy::Rpcc, 12);
        cfg.faults = FaultPlan {
            label: "one-crash",
            crashes: vec![CrashWindow {
                at: SimTime::ZERO + SimDuration::from_secs(10),
                recover: SimTime::ZERO + SimDuration::from_secs(20),
                node: Some(3),
            }],
            ..FaultPlan::none()
        };
        let mut world = World::new(cfg);
        let version_before = world.nodes[3].own_item.version();
        assert!(!world.nodes[3].cache.is_empty(), "cache pre-warmed");
        world.crash_node(0);
        assert!(!world.nodes[3].up, "crashed node is down");
        assert_eq!(world.nodes[3].cache.len(), 0, "cache wiped");
        assert_eq!(
            world.nodes[3].own_item.version(),
            version_before,
            "durable master copy survives the crash"
        );
        assert_eq!(world.report.faults.crashes, 1);
        world.recover_node(0);
        assert!(world.nodes[3].up, "recovered node is back up");
        assert_eq!(world.report.faults.recoveries, 1);
    }

    #[test]
    fn a_crashed_node_stays_down_until_it_recovers() {
        use mp2p_net::CrashWindow;
        let mut cfg = tiny(Strategy::Rpcc, 12);
        cfg.faults = FaultPlan {
            label: "one-crash",
            crashes: vec![CrashWindow {
                at: SimTime::ZERO + SimDuration::from_secs(10),
                recover: SimTime::ZERO + SimDuration::from_secs(20),
                node: Some(3),
            }],
            ..FaultPlan::none()
        };
        let mut world = World::new(cfg);
        let victim = NodeId::new(3);
        world.crash_node(0);
        // The victim's own switch stream arrives inside the window: it
        // re-arms, and changes nothing.
        for _ in 0..3 {
            let (pushes, stream) = (world.queue.stats().pushes, world.switch_rngs[3].clone());
            world.topo = Some(world.now);
            world.handle(Event::Switch(victim));
            assert!(!world.nodes[3].up, "switched back on inside its window");
            assert!(world.topo.is_some(), "nothing changed for the radio graph");
            assert_ne!(world.switch_rngs[3], stream, "the stream keeps drawing");
            assert_eq!(world.queue.stats().pushes, pushes + 1, "and re-arms");
        }
        // Anyone else's stream still toggles.
        world.handle(Event::Switch(NodeId::new(2)));
        assert!(!world.nodes[2].up);
        // After recovery the victim's stream is its own again.
        world.recover_node(0);
        assert!(world.nodes[3].up);
        world.handle(Event::Switch(victim));
        assert!(!world.nodes[3].up, "an up node switches off as before");
    }

    #[test]
    fn crash_fails_the_victims_open_queries() {
        use mp2p_net::CrashWindow;
        let mut cfg = tiny(Strategy::Rpcc, 15);
        cfg.warmup = SimDuration::from_millis(1); // measure from the start
        cfg.faults = FaultPlan {
            label: "one-crash",
            crashes: vec![CrashWindow {
                at: SimTime::ZERO + SimDuration::from_secs(10),
                recover: SimTime::ZERO + SimDuration::from_secs(20),
                node: Some(2),
            }],
            ..FaultPlan::none()
        };
        let mut world = World::new(cfg);
        world.now = SimTime::ZERO + SimDuration::from_secs(5);
        world.handle_query_arrival(NodeId::new(2));
        let pending_at_victim = world
            .open
            .values()
            .filter(|q| q.node == NodeId::new(2))
            .count();
        assert!(pending_at_victim > 0, "fixture produced no open query");
        let failed_before = world.report.queries_failed;
        world.crash_node(0);
        assert_eq!(
            world
                .open
                .values()
                .filter(|q| q.node == NodeId::new(2))
                .count(),
            0,
            "crash closes the victim's open queries"
        );
        assert_eq!(
            world.report.queries_failed,
            failed_before + pending_at_victim as u64,
            "closed queries are counted as failed, keeping accounting exact"
        );
    }
}
