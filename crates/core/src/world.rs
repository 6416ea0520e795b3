//! The simulation world: mobility, radio, network stacks, protocols and
//! metrics wired into one deterministic event loop.
//!
//! This is the reproduction's equivalent of the paper's GloMoSim
//! scenario: Table 1's parameters are [`WorldConfig::paper_default`], the
//! Fig. 9 single-item scenario is [`WorkloadMode::SingleItem`].

use mp2p_cache::{CacheStore, DataItem, Version};
use mp2p_metrics::{
    age_bucket, ConsistencyAudit, EnergyModel, Gauge, LatencyStats, MessageClass, PeerEnergy,
    ServedQuery, TrafficStats, VersionHistory, AGE_BUCKETS,
};
use mp2p_mobility::{
    AnyMobility, ManhattanGrid, MobilityModel, Point, RandomWalk, RandomWaypoint, Stationary,
    SubnetGrid, Terrain,
};
use mp2p_net::{
    Axis, FaultPlan, Frame, GilbertElliott, LinkModel, NetAction, NetConfig, NetEvent, NetStack,
    NetTimer, RouteControl, Topology, TopologyBuilder, TopologyScratch,
};
use mp2p_sim::{
    relate, require, ConfigError, EventQueue, FastMap, ItemId, NodeId, PerfReport, Profiler,
    SimDuration, SimRng, SimTime,
};
use mp2p_trace::{BlameCause, FrameFateKind, LevelTag, NullSink, ServedBy, TraceEvent, TraceSink};

use crate::config::ProtocolConfig;
use crate::level::{ConsistencyLevel, LevelMix};
use crate::msg::ProtoMsg;
use crate::observatory::{BlameTracker, ConsistencyReport, ObservatoryConfig};
use crate::protocol::{Ctx, CtxOut, DegradationKind, Protocol, QueryId, Timer};
use crate::provenance::ProvenanceConfig;
use crate::pull::SimplePull;
use crate::push::SimplePush;
use crate::push_adaptive::PushAdaptivePull;
use crate::recovery::RecoveryAction;
use crate::rpcc::Rpcc;

/// Which consistency strategy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's relay-peer protocol.
    Rpcc,
    /// The simple push baseline.
    Push,
    /// The simple pull baseline.
    Pull,
    /// Lan et al.'s third strategy, cited by the paper's related work:
    /// push invalidation reports with adaptive pull fallback.
    PushAdaptivePull,
}

impl Strategy {
    /// Label for tables ("RPCC"/"Push"/"Pull").
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Rpcc => "RPCC",
            Strategy::Push => "Push",
            Strategy::Pull => "Pull",
            Strategy::PushAdaptivePull => "Push+AP",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which mobility model every node follows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityKind {
    /// The paper's random waypoint (speeds in m/s, max pause).
    Waypoint {
        /// Minimum leg speed (m/s).
        speed_min: f64,
        /// Maximum leg speed (m/s).
        speed_max: f64,
        /// Maximum pause at each waypoint.
        max_pause: SimDuration,
    },
    /// Random walk with reflection.
    Walk {
        /// Minimum epoch speed (m/s).
        speed_min: f64,
        /// Maximum epoch speed (m/s).
        speed_max: f64,
        /// Heading-change period.
        epoch: SimDuration,
    },
    /// Street-grid movement.
    Manhattan {
        /// Street-block edge length (m).
        block: f64,
        /// Constant speed (m/s).
        speed: f64,
    },
    /// No movement (static topologies for tests).
    Stationary,
}

/// How unicast messages find their way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// The real stack: AODV-style on-demand discovery with RREQ/RREP/RERR
    /// control traffic (the paper's setting — GloMoSim ran DSR).
    #[default]
    OnDemand,
    /// An omniscient router: every unicast follows the current BFS
    /// shortest path, hop-by-hop, with zero control traffic. Not
    /// physically realisable — used by the routing-overhead ablation and
    /// by tests that need connectivity-exact delivery semantics.
    Oracle,
}

/// What the query streams target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMode {
    /// Every node queries uniformly over the items it caches (the paper's
    /// main scenarios; caches are pre-warmed with `C_Num` random foreign
    /// items).
    CachedUniform,
    /// The Fig. 9 scenario: one randomly selected source; "its data item
    /// is cached by all other peers" and is the only query target and the
    /// only published item.
    SingleItem,
}

/// Full scenario configuration. Defaults mirror Table 1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// `N_Peers`: number of mobile hosts (50).
    pub n_peers: usize,
    /// `T_Area`: the flatland (1.5 km × 1.5 km).
    pub terrain: Terrain,
    /// `C_Num`: cache slots per host (10).
    pub c_num: usize,
    /// `C_Range`: radio range in metres (250).
    pub range: f64,
    /// `T_Sim`: simulated duration (5 h).
    pub sim_time: SimDuration,
    /// Metrics ignore everything before this offset (steady state).
    pub warmup: SimDuration,
    /// `I_Update`: mean update interval (2 min).
    pub i_update: SimDuration,
    /// `I_Query`: mean query interval (20 s).
    pub i_query: SimDuration,
    /// **Extension (future work §6 item 3):** mean interval between
    /// replica writes issued by each node against items it caches; writes
    /// serialise through the item's source host. `None` (default)
    /// reproduces the paper: only sources modify their own items.
    pub i_write: Option<SimDuration>,
    /// `I_Switch`: mean interval between disconnections (5 min); `None`
    /// disables churn.
    pub i_switch: Option<SimDuration>,
    /// Mean length of each disconnection (the off period that follows a
    /// switch; exponential). Table 1 gives only the switching interval;
    /// DESIGN.md §5 documents this choice.
    pub switch_off_mean: SimDuration,
    /// MAC/PHY model.
    pub link: LinkModel,
    /// Network-layer tunables.
    pub net: NetConfig,
    /// Protocol tunables (Table 1 rows TTL_BR…ω).
    pub proto: ProtocolConfig,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Consistency-level mix of the query load.
    pub level_mix: LevelMix,
    /// Query-target mode.
    pub workload: WorkloadMode,
    /// Unicast routing substrate (ablation knob; default on-demand).
    pub routing: RoutingMode,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Battery capacity per node, millijoules (`E_MAX`).
    pub battery_mj: f64,
    /// Radio energy model.
    pub energy: EnergyModel,
    /// Maximum age of a topology snapshot before rebuild.
    pub topology_refresh: SimDuration,
    /// Gauge-sampling / idle-drain period.
    pub sample_period: SimDuration,
    /// Subnet grid (columns, rows) for the PMR coefficient.
    pub subnet_grid: (u32, u32),
    /// Scheduled fault-injection plan (chaos harness). [`FaultPlan::none`]
    /// — the default — keeps every hot path and random stream untouched:
    /// a fault-free run is bit-identical to one built before the fault
    /// subsystem existed.
    pub faults: FaultPlan,
    /// Consistency-observatory switches (divergence sampler + stale-serve
    /// blame attribution). [`ObservatoryConfig::off`] — the default —
    /// queues no events, draws no randomness and emits no trace records:
    /// a default run is bit-identical to one from a pre-observatory
    /// build.
    pub observatory: ObservatoryConfig,
    /// Frame-level provenance switches (causal lineage tracing).
    /// [`ProvenanceConfig::off`] — the default — emits no schema-4
    /// records and draws no randomness: a default run is bit-identical
    /// to one from a pre-provenance build.
    pub provenance: ProvenanceConfig,
    /// Master random seed.
    pub seed: u64,
}

impl WorldConfig {
    /// The paper's Table 1 scenario: 50 peers, 1.5 km², C_Num 10, 250 m
    /// range, 5 h, I_Update 2 min, I_Query 20 s, I_Switch 5 min, random
    /// waypoint.
    pub fn paper_default(seed: u64) -> Self {
        WorldConfig {
            n_peers: 50,
            terrain: Terrain::paper_default(),
            c_num: 10,
            range: 250.0,
            sim_time: SimDuration::from_hours(5),
            warmup: SimDuration::from_mins(10),
            i_update: SimDuration::from_mins(2),
            i_query: SimDuration::from_secs(20),
            i_write: None,
            i_switch: Some(SimDuration::from_mins(5)),
            switch_off_mean: SimDuration::from_secs(30),
            link: LinkModel::default(),
            net: NetConfig::default(),
            proto: ProtocolConfig::default(),
            strategy: Strategy::Rpcc,
            level_mix: LevelMix::strong_only(),
            workload: WorkloadMode::CachedUniform,
            routing: RoutingMode::OnDemand,
            // Pedestrian speeds: the paper's motivating scenarios are
            // soldiers and mobile booths; speed is not given in Table 1
            // (DESIGN.md §5).
            mobility: MobilityKind::Waypoint {
                speed_min: 0.5,
                speed_max: 2.5,
                max_pause: SimDuration::from_secs(30),
            },
            battery_mj: 100_000.0,
            energy: EnergyModel::default(),
            topology_refresh: SimDuration::from_millis(200),
            sample_period: SimDuration::from_secs(30),
            subnet_grid: (3, 3),
            faults: FaultPlan::none(),
            observatory: ObservatoryConfig::off(),
            provenance: ProvenanceConfig::off(),
            seed,
        }
    }

    /// A scaled-down scenario for tests and doc examples: 20 peers on
    /// 900 m², 10 simulated minutes, otherwise Table 1 semantics.
    pub fn small_test(seed: u64) -> Self {
        let mut cfg = WorldConfig::paper_default(seed);
        cfg.n_peers = 20;
        cfg.terrain = Terrain::new(900.0, 900.0);
        cfg.sim_time = SimDuration::from_mins(10);
        cfg.warmup = SimDuration::from_mins(2);
        cfg.c_num = 5;
        cfg
    }

    /// Checks that the event loop can run this configuration. Every
    /// rule a parameter must satisfy, by itself or against another, lives
    /// here (and in the `check` of the member configurations) and nowhere
    /// else: front ends build the configuration first and check the
    /// result, so a rule sees the value the model receives — an interval
    /// that rounded to 0 ms, not the `0.0001` it was typed as.
    pub fn check(&self) -> Result<(), ConfigError> {
        require(self.n_peers >= 2, "n_peers", "must be at least 2")?;
        // CacheStore::new(0) is unreachable past this rule.
        require(self.c_num >= 1, "c_num", "must be at least 1")?;
        let foreign = self.n_peers - 1;
        let reason = format!("must be below the number of foreign items ({foreign})");
        relate(self.c_num < self.n_peers, "c_num", "n_peers", reason)?;
        let reach = self.range > 0.0 && self.range.is_finite();
        require(reach, "range", "must be positive")?;
        // The neighbour search keeps a counter per range-sized cell.
        let cells = (self.terrain.width() / self.range).ceil()
            * (self.terrain.height() / self.range).ceil();
        let reason = format!("must hold at most {MAX_CELLS} cells of range by range");
        relate(cells <= MAX_CELLS, "terrain", "range", reason)?;
        let reason = "must end before sim_time does";
        relate(self.warmup < self.sim_time, "warmup", "sim_time", reason)?;
        // Arrival streams draw exponential gaps around these means and
        // tickers re-arm by these periods: none may be 0 ms.
        let epoch = match self.mobility {
            MobilityKind::Walk { epoch, .. } => Some(epoch),
            _ => None,
        };
        for (field, period) in [
            ("i_update", Some(self.i_update)),
            ("i_query", Some(self.i_query)),
            ("i_write", self.i_write),
            ("i_switch", self.i_switch),
            ("switch_off_mean", Some(self.switch_off_mean)),
            ("sample_period", Some(self.sample_period)),
            ("topology_refresh", Some(self.topology_refresh)),
            ("mobility.epoch", epoch),
        ] {
            require(period != Some(SimDuration::ZERO), field, "must be positive")?;
        }
        let loss = self.link.loss_prob;
        require(
            (0.0..=1.0).contains(&loss),
            "link.loss_prob",
            "must be in [0,1]",
        )?;
        require(self.battery_mj > 0.0, "battery_mj", "must be positive")?;
        // Speeds stay inside SPEED_RANGE_MPS in every model so that no leg
        // lasts 0 ms (the trajectory would never advance) or longer than
        // the clock can count; a street block is at least a metre and
        // fits the terrain.
        let speed = |field, v: f64| {
            let rule = "must be a speed of 0.001 to 1000 m/s";
            require(SPEED_RANGE_MPS.contains(&v), field, rule)
        };
        match self.mobility {
            MobilityKind::Waypoint {
                speed_min: min,
                speed_max: max,
                ..
            }
            | MobilityKind::Walk {
                speed_min: min,
                speed_max: max,
                ..
            } => {
                speed("mobility.speed_min", min)?;
                speed("mobility.speed_max", max)?;
                let (field, other) = ("mobility.speed_min", "mobility.speed_max");
                relate(
                    min <= max,
                    field,
                    other,
                    "must not exceed mobility.speed_max",
                )?;
            }
            MobilityKind::Manhattan { block, speed: v } => {
                speed("mobility.speed", v)?;
                let side = self.terrain.width().min(self.terrain.height());
                let rule = "must be at least 1 m and fit the terrain's shorter side";
                require((1.0..=side).contains(&block), "mobility.block", rule)?;
            }
            MobilityKind::Stationary => {}
        }
        self.proto.check()?;
        self.faults.check(self.n_peers)?;
        self.observatory.check()
    }

    /// [`Self::check`] for callers that treat a bad configuration as a
    /// bug ([`World::new`] is one).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] of the first broken rule (no
    /// peers, cache larger than the foreign catalogue, warmup past the
    /// run, …).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// The largest spatial hash a world may need (2^24 cells, 64 MB of
/// counters): what bounds terrain against radio range.
const MAX_CELLS: f64 = 16_777_216.0;

/// Speeds every mobility model accepts, in m/s: from a millimetre a
/// second to a kilometre a second.
const SPEED_RANGE_MPS: std::ops::RangeInclusive<f64> = 0.001..=1_000.0;

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

#[derive(Debug)]
struct NodeState {
    mobility: AnyMobility,
    up: bool,
    stack: NetStack<ProtoMsg>,
    proto: AnyProtocol,
    cache: CacheStore,
    own_item: DataItem,
    /// Whether this node's own item participates as source data.
    publishes: bool,
    battery: PeerEnergy,
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
    /// when it was sent: `listeners` is the sender's neighbour slice
    /// copied at send time (the snapshot it came from may be rebuilt and
    /// its arrays recycled before this pops), ascending by id. Handled
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
    /// when [`ObservatoryConfig::sample_period`] is set, so a default run
    /// never sees this variant.
    ConsistencyTick,
    /// A scheduled fault-plan action fires.
    Fault(FaultAction),
}

/// One scheduled action of the active [`FaultPlan`], with indices into
/// the plan's window lists.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    PartitionStart(usize),
    PartitionHeal(usize),
    Crash(usize),
    Recover(usize),
}

#[derive(Debug, Clone, Copy)]
struct OpenWrite {
    writer: NodeId,
    item: ItemId,
    issued: SimTime,
    attempt: u8,
    measured: bool,
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

/// Counters for injected faults and the hardening decisions they
/// provoked. All-zero — and absent from [`RunReport::to_json`] — for a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Hard node crashes injected (volatile state wiped).
    pub crashes: u64,
    /// Crash recoveries completed.
    pub recoveries: u64,
    /// Partition windows opened.
    pub partitions_started: u64,
    /// Partition windows healed.
    pub partitions_healed: u64,
    /// Frames duplicated in flight.
    pub frames_duplicated: u64,
    /// Frames dropped by the Gilbert–Elliott chain's bad (burst) state.
    pub burst_drops: u64,
    /// Relay leases expired without source contact (self-CANCEL).
    pub lease_expiries: u64,
    /// Fallback floods issued after routed POLL retries were exhausted.
    pub fallback_floods: u64,
    /// Rejoin resyncs started (recovery layer).
    pub resyncs: u64,
    /// UPDATE retransmissions issued by the acked-delivery sweep.
    pub retransmits: u64,
    /// DELIVERY_ACKs that cleared a pending retransmit entry.
    pub delivery_acks: u64,
    /// Relay-lease handovers completed (a successor was elected).
    pub handovers: u64,
    /// High-water mark of any node's retransmit queue over the run.
    pub retx_queue_peak: u64,
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy that produced this report.
    pub strategy: Strategy,
    /// Level mix of the query load.
    pub level_mix: LevelMix,
    /// MAC-level traffic (post-warmup).
    pub traffic: TrafficStats,
    /// Query latency over served queries (post-warmup).
    pub latency: LatencyStats,
    /// Latency split per requested level.
    pub latency_by_level: [LatencyStats; 3],
    /// Ground-truth staleness audit of served answers.
    pub audit: ConsistencyAudit,
    /// Audit split per requested level.
    pub audit_by_level: [ConsistencyAudit; 3],
    /// Queries issued post-warmup.
    pub queries_issued: u64,
    /// Queries abandoned (network gave up) post-warmup.
    pub queries_failed: u64,
    /// Replica-write latency over acknowledged writes (extension
    /// workload; empty when `i_write` is off).
    pub write_latency: LatencyStats,
    /// Replica writes issued post-warmup.
    pub writes_issued: u64,
    /// Replica writes abandoned after retries.
    pub writes_failed: u64,
    /// Served queries by answer provenance, indexed by
    /// [`ServedBy::index`] (source, relay, cache). Post-warmup; the three
    /// cells sum to [`RunReport::queries_served`].
    pub served_by: [u64; 3],
    /// Relay-peer items held across all nodes, sampled.
    pub relay_gauge: Gauge,
    /// Candidate nodes, sampled.
    pub candidate_gauge: Gauge,
    /// Live route-table entries across all nodes, sampled.
    pub route_gauge: Gauge,
    /// Mean battery fraction, sampled.
    pub battery_gauge: Gauge,
    /// Total energy drained across all nodes (mJ, whole run).
    pub energy_used_mj: f64,
    /// Label of the active fault plan (`None` for a fault-free run).
    pub fault_plan: Option<&'static str>,
    /// Injected-fault and degradation counters.
    pub faults: FaultStats,
    /// Whether any recovery-layer feature was on. Gates the recovery
    /// keys in [`RunReport::to_json`], so a recovery-off report stays
    /// byte-identical to one from a pre-recovery build.
    pub recovery_enabled: bool,
    /// Wall-clock profile of the run (`None` unless profiling was
    /// enabled via [`World::enable_profiling`]). Strictly observational:
    /// its presence never changes any other field.
    pub perf: Option<PerfReport>,
    /// Consistency-observatory summary (`None` unless the observatory
    /// was enabled via [`WorldConfig::observatory`]): blame counts per
    /// cause, Δ-violation count, divergence samples taken.
    pub consistency: Option<ConsistencyReport>,
    /// The measured window (sim_time − warmup).
    pub measured: SimDuration,
}

impl RunReport {
    /// Queries served (answered) post-warmup.
    pub fn queries_served(&self) -> u64 {
        self.audit.served()
    }

    /// Transmissions per simulated minute — the Fig. 7/9(a) y-axis.
    pub fn traffic_per_minute(&self) -> f64 {
        let mins = self.measured.as_secs_f64() / 60.0;
        if mins == 0.0 {
            0.0
        } else {
            self.traffic.transmissions() as f64 / mins
        }
    }

    /// Mean query latency in seconds — the Fig. 8/9(b) y-axis.
    pub fn mean_latency_secs(&self) -> f64 {
        self.latency.mean_secs()
    }

    /// Replica writes acknowledged post-warmup.
    pub fn writes_completed(&self) -> u64 {
        self.write_latency.count()
    }

    /// Fraction of issued queries that failed.
    pub fn failure_rate(&self) -> f64 {
        if self.queries_issued == 0 {
            0.0
        } else {
            self.queries_failed as f64 / self.queries_issued as f64
        }
    }

    /// Fraction of served queries answered from a cached copy — the
    /// poller's own cache or a relay peer — rather than the source host.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total: u64 = self.served_by.iter().sum();
        if total == 0 {
            0.0
        } else {
            let hits =
                self.served_by[ServedBy::Relay.index()] + self.served_by[ServedBy::Cache.index()];
            hits as f64 / total as f64
        }
    }

    /// Serialises the headline results as one JSON object (hand-rolled;
    /// the workspace is dependency-free). Keys are stable: scripts may
    /// parse them.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        s.push('{');
        // json::escape returns the quoted literal, quotes included.
        let _ = write!(
            s,
            "\"strategy\":{},\"level_mix\":{},",
            mp2p_trace::json::escape(self.strategy.label()),
            mp2p_trace::json::escape(self.level_mix.label()),
        );
        let _ = write!(
            s,
            "\"measured_secs\":{},\"transmissions\":{},\"app_transmissions\":{},\"bytes\":{},",
            self.measured.as_secs_f64(),
            self.traffic.transmissions(),
            self.traffic.app_transmissions(),
            self.traffic.bytes(),
        );
        s.push_str("\"traffic_by_class\":{");
        let mut first = true;
        for class in MessageClass::ALL {
            let n = self.traffic.by_class(class);
            if n == 0 {
                continue; // keep the object small; absent means zero
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "{}:{}", mp2p_trace::json::escape(class.label()), n);
        }
        s.push_str("},");
        let _ = write!(
            s,
            "\"traffic_per_minute\":{},\"queries_issued\":{},\"queries_served\":{},\"queries_failed\":{},",
            self.traffic_per_minute(),
            self.queries_issued,
            self.queries_served(),
            self.queries_failed,
        );
        let _ = write!(
            s,
            "\"mean_latency_secs\":{},\"max_latency_secs\":{},",
            self.mean_latency_secs(),
            self.latency.max().as_secs_f64(),
        );
        let _ = write!(
            s,
            "\"stale_served\":{},\"fresh_fraction\":{},\"max_staleness_secs\":{},",
            self.audit.stale_served(),
            self.audit.fresh_fraction(),
            self.audit.max_staleness().as_secs_f64(),
        );
        let _ = write!(
            s,
            "\"writes_issued\":{},\"writes_completed\":{},\"writes_failed\":{},",
            self.writes_issued,
            self.writes_completed(),
            self.writes_failed,
        );
        let _ = write!(
            s,
            "\"relay_items_mean\":{},\"candidates_mean\":{},\"routes_mean\":{},\"battery_mean\":{},\"energy_used_mj\":{}",
            self.relay_gauge.mean(),
            self.candidate_gauge.mean(),
            self.route_gauge.mean(),
            self.battery_gauge.mean(),
            self.energy_used_mj,
        );
        let _ = write!(
            s,
            ",\"served_by\":{{\"source\":{},\"relay\":{},\"cache\":{}}},\"cache_hit_ratio\":{}",
            self.served_by[ServedBy::Source.index()],
            self.served_by[ServedBy::Relay.index()],
            self.served_by[ServedBy::Cache.index()],
            self.cache_hit_ratio(),
        );
        // Fault keys appear only when a plan was active, so a fault-free
        // report stays byte-identical to one from a pre-chaos build.
        if let Some(plan) = self.fault_plan {
            let _ = write!(
                s,
                ",\"fault_plan\":{},\"crashes\":{},\"recoveries\":{},\"partitions_started\":{},\"partitions_healed\":{},\"frames_duplicated\":{},\"burst_drops\":{},\"lease_expiries\":{},\"fallback_floods\":{}",
                mp2p_trace::json::escape(plan),
                self.faults.crashes,
                self.faults.recoveries,
                self.faults.partitions_started,
                self.faults.partitions_healed,
                self.faults.frames_duplicated,
                self.faults.burst_drops,
                self.faults.lease_expiries,
                self.faults.fallback_floods,
            );
        }
        // Recovery keys appear only when the layer was on, so a
        // recovery-off report stays byte-identical to a pre-recovery
        // build's.
        if self.recovery_enabled {
            let _ = write!(
                s,
                ",\"resyncs\":{},\"retransmits\":{},\"delivery_acks\":{},\"handovers\":{},\"retx_queue_peak\":{}",
                self.faults.resyncs,
                self.faults.retransmits,
                self.faults.delivery_acks,
                self.faults.handovers,
                self.faults.retx_queue_peak,
            );
        }
        // Likewise the perf section exists only for profiled runs, so an
        // unprofiled report is byte-identical to a pre-profiler build's.
        if let Some(perf) = &self.perf {
            let _ = write!(s, ",\"perf\":{}", perf.to_json());
        }
        // And the consistency section only for observatory runs.
        if let Some(consistency) = &self.consistency {
            let _ = write!(s, ",\"consistency\":{}", consistency.to_json());
        }
        s.push('}');
        s
    }
}

/// Live state of the fault injector. Present only when the configured
/// plan is non-empty, so the fault-free hot path carries nothing beyond
/// one `Option` discriminant check.
#[derive(Debug)]
struct FaultRuntime {
    /// Dedicated randomness (stream [`FAULT_STREAM`]): an active plan
    /// never perturbs the workload or link streams, so the *pattern* of
    /// faults stays fixed across plans and strategies for one seed.
    rng: SimRng,
    /// The burst-loss chain, replacing the memoryless link model.
    ge: Option<GilbertElliott>,
    /// Per-transmission duplication probability.
    duplicate_prob: f64,
    /// Which partition windows are currently open (plan order).
    partition_active: Vec<bool>,
    /// Crash victims, one per [`mp2p_net::CrashWindow`], resolved from
    /// the fault stream at construction when the plan leaves them open.
    crash_victims: Vec<NodeId>,
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
    link_rng: SimRng,
    topo: Option<(SimTime, Topology)>,
    /// Snapshot-build scratch: spatial-hash bins plus — by recycling the
    /// retired snapshot's CSR arrays — allocation-free steady-state
    /// rebuilds.
    topo_builder: TopologyBuilder,
    /// BFS bookkeeping reused by every topology query.
    topo_scratch: TopologyScratch,
    /// Position/up staging buffers reused across topology rebuilds.
    topo_positions: Vec<Point>,
    topo_up: Vec<bool>,
    /// Oracle-mode shortest-path buffer, reused across sends.
    path_buf: Vec<NodeId>,
    /// Emptied [`Event::RxAll`] listener buffers awaiting reuse, so a
    /// warm run copies neighbour lists without allocating.
    listener_pool: Vec<Vec<NodeId>>,
    /// Scratch the stacks' diagnostic buffers are swapped against in
    /// [`World::drain_net_events`], so their capacity survives a drain.
    net_events: Vec<NetEvent>,
    grid: SubnetGrid,
    /// Fig. 9 single-item source (when applicable).
    single_source: Option<NodeId>,
    next_query_id: u64,
    open: FastMap<QueryId, OpenQuery>,
    open_writes: FastMap<QueryId, OpenWrite>,
    write_rngs: Vec<SimRng>,
    histories: Vec<VersionHistory>,
    // metrics
    traffic: TrafficStats,
    latency: LatencyStats,
    latency_by_level: [LatencyStats; 3],
    audit: ConsistencyAudit,
    audit_by_level: [ConsistencyAudit; 3],
    queries_issued: u64,
    queries_failed: u64,
    served_by: [u64; 3],
    write_latency: LatencyStats,
    writes_issued: u64,
    writes_failed: u64,
    relay_gauge: Gauge,
    candidate_gauge: Gauge,
    route_gauge: Gauge,
    battery_gauge: Gauge,
    /// Fault injector (None unless the plan is non-empty).
    faults: Option<FaultRuntime>,
    fault_stats: FaultStats,
    /// Stale-serve blame tracker (None unless
    /// [`ObservatoryConfig::blame`] is on, so the default hot path pays
    /// one `Option` discriminant check per hook).
    blame: Option<BlameTracker>,
    /// Divergence samples taken by the observatory ticker.
    samples_taken: u64,
    /// Flight recorder. [`NullSink`] by default, so the hot path stays
    /// allocation-free unless a run opts in via [`World::set_tracer`].
    tracer: Box<dyn TraceSink>,
    /// Wall-clock profiler (host-side, strictly observational; disabled
    /// by default so the event loop pays one branch per scope).
    profiler: Profiler,
    /// MAC-level frames transmitted (plus oracle-mode per-hop sends)
    /// over the whole run, warm-up included. A plain counter — always
    /// maintained, reported only through the perf section.
    frames_sent: u64,
    /// Delivery context for provenance lineage: the carrying frame's
    /// `(origin, seq, hops)` while a just-delivered message is being
    /// dispatched to a protocol handler; `None` outside delivery (timer
    /// handlers, loopback and oracle deliveries install copies without a
    /// carrying frame).
    rx_frame: Option<(NodeId, u64, u8)>,
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
        let grid = SubnetGrid::new(cfg.terrain, cfg.subnet_grid.0, cfg.subnet_grid.1);

        let mut world_rng = SimRng::from_seed(master, WORLD_STREAM);
        let single_source = match cfg.workload {
            WorkloadMode::SingleItem => Some(NodeId::new(world_rng.uniform_u64(n as u64) as u32)),
            WorkloadMode::CachedUniform => None,
        };

        let mut nodes = Vec::with_capacity(n);
        for id in NodeId::all(n) {
            let i = id.index() as u64;
            let mobility = build_mobility(&cfg, SimRng::from_seed(master, 0x100 + i));
            let publishes = match single_source {
                Some(src) => id == src,
                None => true,
            };
            let proto = AnyProtocol::fresh(cfg.strategy, &cfg.proto, publishes);
            nodes.push(NodeState {
                mobility,
                up: true,
                stack: NetStack::new(id, cfg.net),
                proto,
                cache: CacheStore::new(cfg.c_num.max(1)),
                own_item: DataItem::new(id.owned_item(), cfg.proto.content_bytes),
                publishes,
                battery: PeerEnergy::new(cfg.battery_mj),
                rng: SimRng::from_seed(master, 0x200 + i),
                recovery_rng: SimRng::from_seed(master, 0xA00 + i),
                last_cell: (0, 0),
            });
        }

        // Pre-warm caches (the paper's assumed placement mechanism).
        match single_source {
            Some(src) => {
                let item = src.owned_item();
                for node in nodes.iter_mut() {
                    if node.own_item.id() != item {
                        node.cache.insert(
                            item,
                            Version::INITIAL,
                            cfg.proto.content_bytes,
                            SimTime::ZERO,
                        );
                    }
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
                        node.cache.insert(
                            item,
                            Version::INITIAL,
                            cfg.proto.content_bytes,
                            SimTime::ZERO,
                        );
                    }
                }
            }
        }

        let histories = (0..n).map(|_| VersionHistory::new()).collect();
        let query_rngs = (0..n)
            .map(|i| SimRng::from_seed(master, 0x400 + i as u64))
            .collect();
        let update_rngs = (0..n)
            .map(|i| SimRng::from_seed(master, 0x500 + i as u64))
            .collect();
        let switch_rngs = (0..n)
            .map(|i| SimRng::from_seed(master, 0x600 + i as u64))
            .collect();
        let write_rngs = (0..n)
            .map(|i| SimRng::from_seed(master, 0x800 + i as u64))
            .collect();

        let faults = if cfg.faults.enabled() {
            let mut rng = SimRng::from_seed(master, FAULT_STREAM);
            let crash_victims = cfg
                .faults
                .crashes
                .iter()
                .map(|w| match w.node {
                    Some(node) => NodeId::new(node),
                    None => NodeId::new(rng.uniform_u64(n as u64) as u32),
                })
                .collect();
            Some(FaultRuntime {
                ge: cfg.faults.ge.map(GilbertElliott::new),
                duplicate_prob: cfg.faults.duplicate_prob,
                partition_active: vec![false; cfg.faults.partitions.len()],
                crash_victims,
                rng,
            })
        } else {
            None
        };

        let mut world = World {
            cfg,
            queue: EventQueue::with_capacity(1024),
            now: SimTime::ZERO,
            nodes,
            query_rngs,
            update_rngs,
            switch_rngs,
            link_rng: SimRng::from_seed(master, 0x700),
            topo: None,
            topo_builder: TopologyBuilder::new(),
            topo_scratch: TopologyScratch::new(),
            topo_positions: Vec::with_capacity(n),
            topo_up: Vec::with_capacity(n),
            path_buf: Vec::new(),
            listener_pool: Vec::new(),
            net_events: Vec::new(),
            grid,
            single_source,
            next_query_id: 0,
            open: FastMap::default(),
            open_writes: FastMap::default(),
            write_rngs,
            histories,
            traffic: TrafficStats::default(),
            latency: LatencyStats::default(),
            latency_by_level: Default::default(),
            audit: ConsistencyAudit::default(),
            audit_by_level: Default::default(),
            queries_issued: 0,
            queries_failed: 0,
            served_by: [0; 3],
            write_latency: LatencyStats::default(),
            writes_issued: 0,
            writes_failed: 0,
            relay_gauge: Gauge::default(),
            candidate_gauge: Gauge::default(),
            route_gauge: Gauge::default(),
            battery_gauge: Gauge::default(),
            faults,
            fault_stats: FaultStats::default(),
            blame: None,
            samples_taken: 0,
            tracer: Box::new(NullSink),
            profiler: Profiler::disabled(),
            frames_sent: 0,
            rx_frame: None,
        };
        if world.cfg.observatory.blame {
            // One item per peer (each node owns exactly one).
            world.blame = Some(BlameTracker::new(n, n));
        }
        world.bootstrap();
        world
    }

    /// Installs a flight-recorder sink for this run and switches the
    /// network stacks' event buffering on (or off for a [`NullSink`]).
    /// Call before [`World::run_traced`]; events from the bootstrap phase
    /// (already past) are not replayed.
    pub fn set_tracer(&mut self, tracer: Box<dyn TraceSink>) {
        let on = tracer.enabled();
        self.tracer = tracer;
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
        self.profiler = Profiler::enabled();
    }

    /// Records one event at the current sim time, if tracing is on.
    fn trace(&mut self, event: TraceEvent) {
        if self.tracer.enabled() {
            self.tracer.record(self.now, &event);
        }
    }

    /// Converts the network stack's buffered diagnostics into trace
    /// events. Called on entry to [`World::apply_net_actions`], which is
    /// the single funnel every stack invocation drains through.
    fn drain_net_events(&mut self, node: NodeId) {
        if !self.tracer.enabled() {
            return;
        }
        let mut events = std::mem::take(&mut self.net_events);
        self.nodes[node.index()].stack.swap_events(&mut events);
        for ev in events.drain(..) {
            // The stack's dup/hop-budget/no-route diagnostics are frame
            // deaths; with provenance on each also closes its frame's
            // life cycle as a schema-4 fate record.
            let fate = match ev {
                NetEvent::FloodDupDrop { origin, seq } => {
                    Some((origin, seq, FrameFateKind::DupDrop))
                }
                NetEvent::HopBudgetDrop { origin, seq, .. } => {
                    Some((origin, seq, FrameFateKind::HopBudgetDrop))
                }
                NetEvent::NoRouteDrop { origin, seq, .. } => {
                    Some((origin, seq, FrameFateKind::NoRouteDrop))
                }
                _ => None,
            };
            let event = match ev {
                NetEvent::FloodDupDrop { origin, .. } => TraceEvent::FloodDupDrop { node, origin },
                NetEvent::FloodTtlExhausted { origin } => {
                    TraceEvent::FloodTtlExhausted { node, origin }
                }
                NetEvent::RreqDupDrop { origin } => TraceEvent::RreqDupDrop { node, origin },
                NetEvent::HopBudgetDrop { origin, dest, .. } => {
                    TraceEvent::HopBudgetDrop { node, origin, dest }
                }
                NetEvent::NoRouteDrop { origin, dest, .. } => {
                    TraceEvent::NoRouteDrop { node, origin, dest }
                }
                NetEvent::DiscoveryStart { dest, attempt } => TraceEvent::DiscoveryStart {
                    node,
                    dest,
                    attempt,
                },
                NetEvent::DiscoveryFailed { dest, dropped } => TraceEvent::DiscoveryFailed {
                    node,
                    dest,
                    dropped,
                },
            };
            self.tracer.record(self.now, &event);
            if self.cfg.provenance.enabled() {
                if let Some((origin, seq, kind)) = fate {
                    self.note_frame_fate(node, origin, seq, kind);
                }
            }
        }
        self.net_events = events;
    }

    /// Journals one frame's terminal fate at `node` (provenance only).
    fn note_frame_fate(&mut self, node: NodeId, origin: NodeId, seq: u64, fate: FrameFateKind) {
        if self.cfg.provenance.enabled() {
            self.trace(TraceEvent::FrameFate {
                node,
                origin,
                frame: seq,
                fate,
            });
        }
    }

    fn bootstrap(&mut self) {
        // Initial subnet cells.
        for i in 0..self.nodes.len() {
            let pos = self.nodes[i].mobility.position_at(SimTime::ZERO);
            self.nodes[i].last_cell = self.grid.cell_of(pos);
        }
        // Protocol initialisation.
        for id in NodeId::all(self.nodes.len()) {
            self.with_proto(id, |proto, ctx| dispatch!(proto, p => p.on_init(ctx)));
        }
        // Workload streams.
        for id in NodeId::all(self.nodes.len()) {
            if self.queries_enabled(id) {
                self.schedule_next_query(id);
            }
            if self.nodes[id.index()].publishes {
                self.schedule_next_update(id);
            }
            if self.cfg.i_switch.is_some() {
                self.schedule_next_switch(id);
            }
            if self.cfg.i_write.is_some() && self.queries_enabled(id) {
                self.schedule_next_write(id);
            }
        }
        self.queue
            .push(self.now + self.cfg.proto.phi, Event::CoeffTick);
        self.queue
            .push(self.now + self.cfg.sample_period, Event::Sample);
        if let Some(period) = self.cfg.observatory.sample_period {
            self.queue.push(self.now + period, Event::ConsistencyTick);
        }
        // The fault schedule is fixed at bootstrap: every window of the
        // plan becomes a pair of queued actions.
        if self.faults.is_some() {
            for (i, w) in self.cfg.faults.partitions.iter().enumerate() {
                self.queue
                    .push(w.start, Event::Fault(FaultAction::PartitionStart(i)));
                self.queue
                    .push(w.heal, Event::Fault(FaultAction::PartitionHeal(i)));
            }
            for (i, w) in self.cfg.faults.crashes.iter().enumerate() {
                self.queue.push(w.at, Event::Fault(FaultAction::Crash(i)));
                self.queue
                    .push(w.recover, Event::Fault(FaultAction::Recover(i)));
            }
        }
    }

    fn queries_enabled(&self, id: NodeId) -> bool {
        match self.single_source {
            Some(src) => id != src,
            None => true,
        }
    }

    fn schedule_next_query(&mut self, id: NodeId) {
        let gap = self.query_rngs[id.index()].exponential(self.cfg.i_query.as_secs_f64());
        let when = self.now + SimDuration::from_secs_f64(gap).max(SimDuration::from_millis(1));
        self.queue.push(when, Event::Query(id));
    }

    fn schedule_next_update(&mut self, id: NodeId) {
        let gap = self.update_rngs[id.index()].exponential(self.cfg.i_update.as_secs_f64());
        let when = self.now + SimDuration::from_secs_f64(gap).max(SimDuration::from_millis(1));
        self.queue.push(when, Event::Update(id));
    }

    fn schedule_next_write(&mut self, id: NodeId) {
        let Some(i_write) = self.cfg.i_write else {
            return;
        };
        let gap = self.write_rngs[id.index()].exponential(i_write.as_secs_f64());
        let when = self.now + SimDuration::from_secs_f64(gap).max(SimDuration::from_millis(1));
        self.queue.push(when, Event::Write(id));
    }

    fn schedule_next_switch(&mut self, id: NodeId) {
        let Some(i_switch) = self.cfg.i_switch else {
            return;
        };
        // An up node stays up for ~I_Switch, then disconnects for a short
        // off period (~switch_off_mean) before reconnecting.
        let mean = if self.nodes[id.index()].up {
            i_switch
        } else {
            self.cfg.switch_off_mean
        };
        let gap = self.switch_rngs[id.index()].exponential(mean.as_secs_f64());
        let when = self.now + SimDuration::from_secs_f64(gap).max(SimDuration::from_millis(1));
        self.queue.push(when, Event::Switch(id));
    }

    /// Runs to completion and returns the report.
    pub fn run(self) -> RunReport {
        self.run_traced().0
    }

    /// Runs to completion and hands back both the report and the
    /// flight-recorder sink installed via [`World::set_tracer`] (a
    /// [`NullSink`] when none was), flushed and ready for inspection.
    pub fn run_traced(mut self) -> (RunReport, Box<dyn TraceSink>) {
        let end = SimTime::ZERO + self.cfg.sim_time;
        self.profiler.begin();
        while let Some((t, event)) = self.queue.pop() {
            if t > end {
                break;
            }
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            // Name the bucket before the event is consumed; the scope
            // covers everything the event triggers (message dispatch is
            // additionally sub-attributed to `msg:*` buckets, which
            // therefore nest inside — not add to — the event buckets).
            let bucket = event_bucket(&event);
            let scope = self.profiler.start();
            self.handle(event);
            self.profiler.stop(bucket, scope);
        }
        // Queries still legitimately in flight when the run ends are
        // censored observations, not failures: remove them from the
        // issued count so served + failed == issued stays exact.
        for (_, open) in self.open.drain() {
            if open.measured {
                self.queries_issued -= 1;
            }
        }
        for (_, open) in self.open_writes.drain() {
            if open.measured {
                self.writes_issued -= 1;
            }
        }
        let energy_used_mj = self.nodes.iter().map(|n| n.battery.used_mj()).sum();
        // The queue high-water survives in the live protocol state (it
        // never resets), so sampling once at the end is exact — except
        // across crash wipes, where the pre-crash peak is lost with the
        // rest of the volatile state; the reported peak is then the max
        // over the surviving instances.
        let retx_peak = self
            .nodes
            .iter()
            .map(|n| n.proto.retx_high_water() as u64)
            .max()
            .unwrap_or(0);
        self.fault_stats.retx_queue_peak = self.fault_stats.retx_queue_peak.max(retx_peak);
        let mut tracer = std::mem::replace(&mut self.tracer, Box::new(NullSink));
        tracer.flush();
        let perf = self
            .profiler
            .finish(self.cfg.sim_time.as_millis())
            .map(|mut p| {
                p.queue = self.queue.stats();
                p.frames_sent = self.frames_sent;
                p.journal_bytes = tracer.bytes_written();
                p
            });
        let consistency = self.cfg.observatory.enabled().then(|| ConsistencyReport {
            blame: self
                .blame
                .as_ref()
                .map_or([0; BlameCause::ALL.len()], |b| b.counts()),
            delta_violations: self.blame.as_ref().map_or(0, |b| b.delta_violations()),
            samples: self.samples_taken,
        });
        let report = RunReport {
            strategy: self.cfg.strategy,
            level_mix: self.cfg.level_mix,
            traffic: self.traffic,
            latency: self.latency,
            latency_by_level: self.latency_by_level,
            audit: self.audit,
            audit_by_level: self.audit_by_level,
            queries_issued: self.queries_issued,
            queries_failed: self.queries_failed,
            served_by: self.served_by,
            write_latency: self.write_latency,
            writes_issued: self.writes_issued,
            writes_failed: self.writes_failed,
            relay_gauge: self.relay_gauge,
            candidate_gauge: self.candidate_gauge,
            route_gauge: self.route_gauge,
            battery_gauge: self.battery_gauge,
            energy_used_mj,
            fault_plan: self.faults.is_some().then_some(self.cfg.faults.label),
            faults: self.fault_stats,
            recovery_enabled: self.cfg.proto.recovery.enabled(),
            perf,
            consistency,
            measured: self.cfg.sim_time - self.cfg.warmup,
        };
        (report, tracer)
    }

    fn measuring(&self) -> bool {
        self.now.saturating_since(SimTime::ZERO) >= self.cfg.warmup
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Query(id) => {
                self.handle_query_arrival(id);
                self.schedule_next_query(id);
            }
            Event::Update(id) => {
                let version = self.nodes[id.index()].own_item.update();
                self.histories[id.index()].record_update(self.now);
                self.trace(TraceEvent::SourceUpdate {
                    node: id,
                    item: id.owned_item(),
                    version: version.get(),
                });
                self.stamp_partition_victims(id, id.owned_item());
                self.with_proto(
                    id,
                    |proto, ctx| dispatch!(proto, p => p.on_source_update(ctx)),
                );
                self.schedule_next_update(id);
            }
            Event::Write(id) => {
                self.handle_write_arrival(id);
                self.schedule_next_write(id);
            }
            Event::WriteRetry { at, write } => {
                let Some(open) = self.open_writes.get(&write).copied() else {
                    return; // already acknowledged
                };
                if open.attempt >= 3 {
                    self.close_write_failed(write);
                } else {
                    self.open_writes.get_mut(&write).expect("checked").attempt += 1;
                    self.send_write(at, write, open.item);
                }
            }
            Event::Switch(id) => {
                let up = !self.nodes[id.index()].up;
                self.nodes[id.index()].up = up;
                self.topo = None; // connectivity changed
                self.trace(if up {
                    TraceEvent::NodeUp { node: id }
                } else {
                    TraceEvent::NodeDown { node: id }
                });
                self.with_proto(
                    id,
                    |proto, ctx| dispatch!(proto, p => p.on_status_change(ctx, up)),
                );
                self.schedule_next_switch(id);
            }
            Event::Rx { at, from, frame } => self.handle_rx(at, from, frame),
            Event::RxAll {
                from,
                frame,
                mut listeners,
            } => {
                // Anything a reception schedules at `now` runs after the
                // remaining listeners, as it did when each listener held
                // its own (earlier-numbered) queue entry.
                for &at in &listeners {
                    self.handle_rx(at, from, frame.clone());
                }
                listeners.clear();
                self.listener_pool.push(listeners);
            }
            Event::NetTimer { at, timer } => {
                let actions = self.nodes[at.index()].stack.on_timer(self.now, timer);
                self.apply_net_actions(at, actions);
            }
            Event::ProtoTimer { at, timer } => {
                self.with_proto(
                    at,
                    |proto, ctx| dispatch!(proto, p => p.on_timer(ctx, timer)),
                );
            }
            Event::OracleDeliver { at, from, msg } => {
                if self.nodes[at.index()].up {
                    self.trace(TraceEvent::MsgDeliver {
                        node: at,
                        origin: from,
                        class: msg.class(),
                        hops: 0, // the oracle bypasses hop accounting
                        via_flood: false,
                        span: msg.span(),
                    });
                    let bucket = msg_bucket(msg.class());
                    let scope = self.profiler.start();
                    self.with_proto(
                        at,
                        |proto, ctx| dispatch!(proto, p => p.on_message(ctx, from, msg)),
                    );
                    self.profiler.stop(bucket, scope);
                }
            }
            Event::CoeffTick => {
                for id in NodeId::all(self.nodes.len()) {
                    let pos = self.nodes[id.index()].mobility.position_at(self.now);
                    let cell = self.grid.cell_of(pos);
                    let moved = cell != self.nodes[id.index()].last_cell;
                    self.nodes[id.index()].last_cell = cell;
                    self.with_proto(
                        id,
                        |proto, ctx| dispatch!(proto, p => p.on_coefficient_tick(ctx, moved)),
                    );
                }
                self.queue
                    .push(self.now + self.cfg.proto.phi, Event::CoeffTick);
            }
            Event::Sample => {
                self.take_samples();
                self.queue
                    .push(self.now + self.cfg.sample_period, Event::Sample);
            }
            Event::ConsistencyTick => {
                self.sample_consistency();
                if let Some(period) = self.cfg.observatory.sample_period {
                    self.queue.push(self.now + period, Event::ConsistencyTick);
                }
            }
            Event::Fault(action) => self.handle_fault(action),
        }
    }

    /// Applies one scheduled action of the active fault plan.
    fn handle_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::PartitionStart(idx) => {
                let axis = self.cfg.faults.partitions[idx].axis;
                if let Some(fr) = self.faults.as_mut() {
                    fr.partition_active[idx] = true;
                }
                self.topo = None; // connectivity changed
                self.fault_stats.partitions_started += 1;
                self.trace(TraceEvent::PartitionStart { axis: axis.tag() });
            }
            FaultAction::PartitionHeal(idx) => {
                let axis = self.cfg.faults.partitions[idx].axis;
                if let Some(fr) = self.faults.as_mut() {
                    fr.partition_active[idx] = false;
                }
                self.topo = None;
                self.fault_stats.partitions_healed += 1;
                self.trace(TraceEvent::PartitionHeal { axis: axis.tag() });
            }
            FaultAction::Crash(idx) => self.crash_node(idx),
            FaultAction::Recover(idx) => self.recover_node(idx),
        }
    }

    /// A hard crash: volatile state — cache contents, relay duties,
    /// pending polls, route tables — is wiped and rebuilt empty, and
    /// queries pending at the node die with it. Only the durable master
    /// copy of the node's own item survives. Contrast with
    /// [`Event::Switch`], which merely silences a node while all its
    /// state persists.
    fn crash_node(&mut self, idx: usize) {
        let id = match self.faults.as_ref() {
            Some(fr) => fr.crash_victims[idx],
            None => return,
        };
        let mut orphans: Vec<QueryId> = self
            .open
            .iter()
            .filter(|(_, q)| q.node == id)
            .map(|(&q, _)| q)
            .collect();
        orphans.sort_unstable(); // hash order must not pick the close order
        for query in orphans {
            self.close_failed(id, query);
        }
        let mut dead_writes: Vec<QueryId> = self
            .open_writes
            .iter()
            .filter(|(_, w)| w.writer == id)
            .map(|(&q, _)| q)
            .collect();
        dead_writes.sort_unstable();
        for write in dead_writes {
            self.close_write_failed(write);
        }
        if let Some(blame) = self.blame.as_mut() {
            // The crash is about to destroy every cached copy; whatever
            // stale answer the node later gives for these items traces
            // back to this wipe (unless a sharper cause supersedes it).
            for (item, _) in self.nodes[id.index()].cache.iter() {
                let version = self.histories[item.index()].current().get();
                blame.stamp_crash(id, item, version);
            }
        }
        let tracing = self.tracer.enabled();
        // The wipe below discards the retransmit queue with the rest of
        // the volatile state, so fold its high-water mark into the run
        // peak before it is lost.
        let retx_peak = self.nodes[id.index()].proto.retx_high_water() as u64;
        self.fault_stats.retx_queue_peak = self.fault_stats.retx_queue_peak.max(retx_peak);
        let node = &mut self.nodes[id.index()];
        node.up = false;
        node.cache = CacheStore::new(self.cfg.c_num.max(1));
        node.stack = NetStack::new(id, self.cfg.net);
        node.stack.set_tracing(tracing);
        node.proto = AnyProtocol::fresh(self.cfg.strategy, &self.cfg.proto, node.publishes);
        self.topo = None;
        self.fault_stats.crashes += 1;
        self.trace(TraceEvent::NodeCrash { node: id });
    }

    /// Recovery from a crash: the node rejoins with its volatile state
    /// still empty. `on_init` is deliberately NOT re-run — the perpetual
    /// timer chains scheduled before the crash (TTN, relay-hold sweeps)
    /// are still queued and resume against the fresh instance, exactly
    /// as a rebooted host rejoining mid-protocol would.
    fn recover_node(&mut self, idx: usize) {
        let id = match self.faults.as_ref() {
            Some(fr) => fr.crash_victims[idx],
            None => return,
        };
        self.nodes[id.index()].up = true;
        self.topo = None;
        self.fault_stats.recoveries += 1;
        self.trace(TraceEvent::NodeRecover { node: id });
        self.with_proto(
            id,
            |proto, ctx| dispatch!(proto, p => p.on_status_change(ctx, true)),
        );
    }

    fn take_samples(&mut self) {
        let idle = self.cfg.energy.idle_cost(self.cfg.sample_period);
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
            self.relay_gauge.sample(relays as f64);
            self.candidate_gauge.sample(candidates as f64);
            self.route_gauge.sample(routes as f64);
            self.battery_gauge
                .sample(battery_total / self.nodes.len() as f64);
        }
    }

    /// One tick of the observatory's divergence sampler: snapshot the
    /// global replica state and emit a `ConsistencySample` timeline
    /// record. Aggregation is order-independent, so the cache stores'
    /// hash-order iteration cannot perturb the result.
    fn sample_consistency(&mut self) {
        self.samples_taken += 1;
        let mut fresh: u32 = 0;
        let mut total: u32 = 0;
        let mut ages = [0u32; AGE_BUCKETS];
        let mut replicas = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for (item, entry) in node.cache.iter() {
                total += 1;
                replicas[item.index()] += 1;
                let hist = &self.histories[item.index()];
                if entry.version >= hist.current() {
                    fresh += 1;
                } else {
                    ages[age_bucket(hist.staleness(entry.version, self.now))] += 1;
                }
            }
        }
        let items_replicated = replicas.iter().filter(|&&n| n > 0).count() as u32;
        let max_replicas = replicas.iter().copied().max().unwrap_or(0);
        let relay_nodes = self
            .nodes
            .iter()
            .filter(|n| n.proto.relay_item_count() > 0)
            .count() as u32;
        self.ensure_topology();
        let (_, topo) = self.topo.as_ref().expect("just refreshed");
        let partitions = topo.components_with(&mut self.topo_scratch).len() as u32;
        self.trace(TraceEvent::ConsistencySample {
            fresh_copies: fresh,
            total_copies: total,
            items_replicated,
            max_replicas,
            partitions,
            relay_nodes,
            ages,
        });
    }

    /// Blame hook at a source update: stamp every cached copy whose
    /// holder cannot currently be reached from the source — it is in a
    /// different connectivity component, or down — as obstructed by
    /// partition at the new version.
    fn stamp_partition_victims(&mut self, source: NodeId, item: ItemId) {
        if self.blame.is_none() {
            return;
        }
        let version = self.histories[item.index()].current().get();
        self.ensure_topology();
        let (_, topo) = self.topo.as_ref().expect("just refreshed");
        let components = topo.components_with(&mut self.topo_scratch);
        let reachable: Vec<bool> = {
            let mut reach = vec![false; self.nodes.len()];
            if let Some(comp) = components.iter().find(|c| c.contains(&source)) {
                for &n in comp {
                    reach[n.index()] = true;
                }
            }
            reach
        };
        let blame = self.blame.as_mut().expect("checked above");
        for (i, node) in self.nodes.iter().enumerate() {
            if !reachable[i] && node.cache.contains(item) {
                blame.stamp_partitioned(NodeId::new(i as u32), item, version);
            }
        }
    }

    /// Blame hook for a lost frame: if it carried an update propagation
    /// (invalidation / update / send-new), stamp the deprived copy. For a
    /// unicast the victim is the frame's final destination; for a flood,
    /// the receiver that failed to hear it.
    fn note_frame_lost(&mut self, at: NodeId, frame: &Frame<ProtoMsg>) {
        let Some(blame) = self.blame.as_mut() else {
            return;
        };
        let Some((item, version)) = frame.app_payload().and_then(propagation_of) else {
            return;
        };
        let victim = match frame {
            Frame::Unicast { dest, .. } => *dest,
            Frame::Flood { .. } => at,
        };
        blame.stamp_lost(victim, item, version);
    }

    /// Blame hook for an outgoing protocol message: remember the highest
    /// version ever handed to the network per item, so a stale serve with
    /// no specific obstruction flag can be split into race-in-flight
    /// (propagation was sent but had not landed) versus update-never-sent
    /// (the strategy simply had not pushed the version at all).
    fn note_propagation(&mut self, msg: &ProtoMsg) {
        if let Some(blame) = self.blame.as_mut() {
            if let Some((item, version)) = propagation_of(msg) {
                blame.note_propagated(item, version);
            }
        }
    }

    fn handle_query_arrival(&mut self, id: NodeId) {
        let item = match self.single_source {
            Some(src) => src.owned_item(),
            None => {
                let mut cached: Vec<ItemId> = self.nodes[id.index()]
                    .cache
                    .iter()
                    .map(|(it, _)| it)
                    .collect();
                // The store iterates in arbitrary hash order; sort so
                // the uniform choice below is deterministic per seed.
                cached.sort_unstable();
                match self.nodes[id.index()].rng.choose(&cached) {
                    Some(&item) => item,
                    None => return, // empty cache: nothing to query
                }
            }
        };
        let level = self.cfg.level_mix.sample(&mut self.nodes[id.index()].rng);
        let query = QueryId(self.next_query_id);
        self.next_query_id += 1;
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
        if measured {
            self.queries_issued += 1;
        }
        self.trace(TraceEvent::QueryIssued {
            node: id,
            query: query.0,
            item,
            level: level_tag(level),
        });
        self.with_proto(
            id,
            |proto, ctx| dispatch!(proto, p => p.on_query(ctx, query, item, level)),
        );
    }

    fn handle_rx(&mut self, at: NodeId, from: NodeId, frame: Frame<ProtoMsg>) {
        if !self.nodes[at.index()].up {
            let (origin, seq) = frame.provenance();
            self.note_frame_fate(at, origin, seq, FrameFateKind::DownDrop);
            return; // switched-off nodes hear nothing
        }
        // Channel loss. A Gilbert–Elliott chain (when the fault plan
        // installs one) replaces the memoryless link model entirely;
        // drops rolled in its bad state are counted as burst losses.
        let dropped_in_burst = if let Some(fr) = self.faults.as_mut() {
            if let Some(ge) = fr.ge.as_mut() {
                let was_bad = ge.is_bad();
                if ge.delivered(&mut fr.rng) {
                    None
                } else {
                    Some(was_bad)
                }
            } else if self.cfg.link.delivered(&mut self.link_rng) {
                None
            } else {
                Some(false)
            }
        } else if self.cfg.link.delivered(&mut self.link_rng) {
            None
        } else {
            Some(false)
        };
        match dropped_in_burst {
            None => {}
            Some(false) => {
                // Channel loss.
                self.note_frame_lost(at, &frame);
                let (origin, seq) = frame.provenance();
                self.note_frame_fate(at, origin, seq, FrameFateKind::ChannelDrop);
                return;
            }
            Some(true) => {
                self.fault_stats.burst_drops += 1;
                self.trace(TraceEvent::BurstDrop { node: at });
                self.note_frame_lost(at, &frame);
                let (origin, seq) = frame.provenance();
                self.note_frame_fate(at, origin, seq, FrameFateKind::BurstDrop);
                return;
            }
        }
        let rx_cost = self.cfg.energy.rx_cost(frame.size());
        self.nodes[at.index()].battery.drain(rx_cost);
        let actions = self.nodes[at.index()].stack.on_frame(self.now, from, frame);
        self.apply_net_actions(at, actions);
    }

    /// Current topology snapshot, rebuilt when stale.
    fn topology(&mut self) -> &Topology {
        self.ensure_topology();
        &self.topo.as_ref().expect("just built").1
    }

    /// Rebuilds the topology snapshot if stale. Steady-state rebuilds
    /// recycle the staging buffers, the builder's spatial-hash bins and
    /// the retired snapshot's CSR arrays, so a refresh allocates nothing
    /// once the run is warm.
    fn ensure_topology(&mut self) {
        let stale = match &self.topo {
            Some((built, _)) => self.now.saturating_since(*built) > self.cfg.topology_refresh,
            None => true,
        };
        if !stale {
            return;
        }
        let now = self.now;
        let mut positions = std::mem::take(&mut self.topo_positions);
        positions.clear();
        positions.extend(self.nodes.iter_mut().map(|n| n.mobility.position_at(now)));
        let mut up = std::mem::take(&mut self.topo_up);
        up.clear();
        up.extend(self.nodes.iter().map(|n| n.up));
        let axes = self.active_partition_axes();
        let recycle = self.topo.take().map(|(_, t)| t);
        let topo = if axes.is_empty() {
            self.topo_builder
                .rebuild(recycle, &positions, &up, self.cfg.range, |_, _| true)
        } else {
            // A bisection partition severs every link crossing the
            // terrain midline of each open window's axis; nodes keep
            // moving and hearing their own side.
            let mid_x = self.cfg.terrain.width() / 2.0;
            let mid_y = self.cfg.terrain.height() / 2.0;
            let pos = &positions;
            self.topo_builder
                .rebuild(recycle, pos, &up, self.cfg.range, |a, b| {
                    axes.iter().all(|axis| match axis {
                        Axis::Vertical => (pos[a].x < mid_x) == (pos[b].x < mid_x),
                        Axis::Horizontal => (pos[a].y < mid_y) == (pos[b].y < mid_y),
                    })
                })
        };
        self.topo_positions = positions;
        self.topo_up = up;
        self.topo = Some((now, topo));
    }

    /// Axes of the currently open partition windows (deduplicated, plan
    /// order). Empty — without allocating — for a fault-free run.
    fn active_partition_axes(&self) -> Vec<Axis> {
        let Some(fr) = self.faults.as_ref() else {
            return Vec::new();
        };
        let mut axes: Vec<Axis> = self
            .cfg
            .faults
            .partitions
            .iter()
            .zip(&fr.partition_active)
            .filter(|(_, &active)| active)
            .map(|(w, _)| w.axis)
            .collect();
        axes.dedup();
        axes
    }

    /// Rolls the fault plan's duplication dice for one transmission and
    /// returns the duplicate copy's extra delay beyond the original's.
    fn duplicate_delay(&mut self, frame_bytes: u32) -> Option<SimDuration> {
        let fr = self.faults.as_mut()?;
        if fr.duplicate_prob <= 0.0 || !fr.rng.bernoulli(fr.duplicate_prob) {
            return None;
        }
        Some(self.cfg.link.hop_delay(frame_bytes, &mut fr.rng))
    }

    /// Counts one MAC transmission towards the traffic metric (when past
    /// warm-up) and the flight recorder (always; the summary sink applies
    /// its own warm-up filter so the two stay byte-identical).
    fn record_transmission(&mut self, node: NodeId, frame: &Frame<ProtoMsg>, dest: Option<NodeId>) {
        let class = frame_class(frame);
        let bytes = frame.size();
        self.frames_sent += 1;
        if self.measuring() {
            self.traffic.record(class, bytes);
        }
        self.trace(TraceEvent::MsgSend {
            node,
            class,
            bytes,
            dest,
            span: frame_span(frame),
        });
        if self.cfg.provenance.enabled() {
            let (origin, seq) = frame.provenance();
            if frame.hops() == 0 {
                // The origin's own transmission: the frame is born here.
                let (item, version) = frame
                    .app_payload()
                    .and_then(propagation_of)
                    .map_or((None, 0), |(item, version)| (Some(item), version));
                let final_dest = match frame {
                    Frame::Unicast { dest, .. } => Some(*dest),
                    Frame::Flood { .. } => None,
                };
                self.trace(TraceEvent::FrameBorn {
                    node,
                    frame: seq,
                    class,
                    dest: final_dest,
                    item,
                    version,
                });
            } else {
                self.trace(TraceEvent::FrameHop {
                    node,
                    origin,
                    frame: seq,
                    hops: frame.hops(),
                });
            }
        }
    }

    fn apply_net_actions(&mut self, node: NodeId, actions: Vec<NetAction<ProtoMsg>>) {
        self.drain_net_events(node);
        for action in actions {
            match action {
                NetAction::Broadcast(frame) => {
                    if !self.nodes[node.index()].up {
                        continue; // a down node cannot transmit
                    }
                    self.record_transmission(node, &frame, None);
                    let tx_cost = self.cfg.energy.tx_cost(frame.size());
                    self.nodes[node.index()].battery.drain(tx_cost);
                    let delay = self.cfg.link.hop_delay(frame.size(), &mut self.link_rng);
                    // In-flight duplication (fault plan): the whole
                    // broadcast is heard a second time after an extra,
                    // independently drawn hop delay.
                    let extra = self.duplicate_delay(frame.size());
                    if extra.is_some() {
                        self.fault_stats.frames_duplicated += 1;
                        self.trace(TraceEvent::FrameDup {
                            node,
                            class: frame_class(&frame),
                        });
                    }
                    self.ensure_topology();
                    let topo = &self.topo.as_ref().expect("just refreshed").1;
                    let neighbors = topo.neighbors(node);
                    if neighbors.is_empty() {
                        continue; // nobody in range: nothing to deliver
                    }
                    let heard = self.now + delay;
                    let heard_again = extra.map(|extra| heard + extra);
                    for when in std::iter::once(heard).chain(heard_again) {
                        let mut listeners = self.listener_pool.pop().unwrap_or_default();
                        listeners.extend_from_slice(neighbors);
                        self.queue.push(
                            when,
                            Event::RxAll {
                                from: node,
                                frame: frame.clone(),
                                listeners,
                            },
                        );
                    }
                }
                NetAction::Send { next_hop, frame } => {
                    if !self.nodes[node.index()].up {
                        continue;
                    }
                    self.record_transmission(node, &frame, Some(next_hop));
                    let tx_cost = self.cfg.energy.tx_cost(frame.size());
                    self.nodes[node.index()].battery.drain(tx_cost);
                    let reachable = self.topology().are_neighbors(node, next_hop)
                        && self.nodes[next_hop.index()].up;
                    if reachable {
                        let delay = self.cfg.link.hop_delay(frame.size(), &mut self.link_rng);
                        if let Some(extra) = self.duplicate_delay(frame.size()) {
                            self.fault_stats.frames_duplicated += 1;
                            self.trace(TraceEvent::FrameDup {
                                node,
                                class: frame_class(&frame),
                            });
                            self.queue.push(
                                self.now + delay + extra,
                                Event::Rx {
                                    at: next_hop,
                                    from: node,
                                    frame: frame.clone(),
                                },
                            );
                        }
                        self.queue.push(
                            self.now + delay,
                            Event::Rx {
                                at: next_hop,
                                from: node,
                                frame,
                            },
                        );
                    } else {
                        self.trace(TraceEvent::MacDrop {
                            node,
                            next_hop,
                            class: frame_class(&frame),
                        });
                        self.note_frame_lost(next_hop, &frame);
                        let (origin, seq) = frame.provenance();
                        self.note_frame_fate(next_hop, origin, seq, FrameFateKind::MacDrop);
                        // MAC-level delivery failure feedback (Section 4.5).
                        let follow_up = self.nodes[node.index()]
                            .stack
                            .on_send_failed(self.now, next_hop, frame);
                        self.apply_net_actions(node, follow_up);
                    }
                }
                NetAction::Deliver { payload, meta } => {
                    if let Some(seq) = meta.frame {
                        self.note_frame_fate(node, meta.origin, seq, FrameFateKind::Delivered);
                    }
                    self.trace(TraceEvent::MsgDeliver {
                        node,
                        origin: meta.origin,
                        class: payload.class(),
                        hops: meta.hops,
                        via_flood: meta.via_flood,
                        span: payload.span(),
                    });
                    let bucket = msg_bucket(payload.class());
                    let scope = self.profiler.start();
                    // Expose the carrying frame to the handler's outputs so
                    // a copy install inside can be paired with its lineage.
                    self.rx_frame = meta.frame.map(|seq| (meta.origin, seq, meta.hops));
                    match payload {
                        // Replica writes are driver-level machinery: apply at
                        // the source, acknowledge to the writer; the running
                        // consistency strategy propagates the change.
                        ProtoMsg::WriteRequest { item, .. } => {
                            self.handle_write_request(node, meta.origin, item);
                        }
                        ProtoMsg::WriteAck { item, version } => {
                            self.handle_write_ack(node, item, version);
                        }
                        _ => {
                            self.with_proto(node, |proto, ctx| {
                            dispatch!(proto, p => p.on_message(ctx, meta.origin, payload))
                        });
                        }
                    }
                    self.rx_frame = None;
                    self.profiler.stop(bucket, scope);
                }
                NetAction::SetTimer { after, timer } => {
                    self.queue
                        .push(self.now + after, Event::NetTimer { at: node, timer });
                }
                NetAction::Undeliverable { dest, payload } => {
                    self.trace(TraceEvent::Undeliverable {
                        node,
                        dest,
                        class: payload.class(),
                    });
                    if let Some(blame) = self.blame.as_mut() {
                        if let Some((item, version)) = propagation_of(&payload) {
                            blame.stamp_lost(dest, item, version);
                        }
                    }
                    match payload {
                        ProtoMsg::WriteRequest { item, .. } => {
                            // The writer's own retry timer decides when to
                            // give up; discovery failure just means wait
                            // for it.
                            let _ = (dest, item);
                        }
                        _ => {
                            self.with_proto(node, |proto, ctx| {
                                dispatch!(proto, p => p.on_undeliverable(ctx, dest, payload))
                            });
                        }
                    }
                }
            }
        }
    }

    /// Runs `f` against node `id`'s protocol with a fresh context, then
    /// applies the buffered outputs.
    fn with_proto<F: FnOnce(&mut AnyProtocol, &mut Ctx<'_>)>(&mut self, id: NodeId, f: F) {
        let outputs = {
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
            f(&mut node.proto, &mut ctx);
            ctx.take_outputs()
        };
        // Snapshot the delivery context: nested dispatches (loopback
        // sends recurse through apply_net_actions) reset `self.rx_frame`,
        // but every output of *this* handler belongs to this delivery.
        let rx_frame = self.rx_frame;
        for out in outputs {
            match out {
                CtxOut::Send { to, msg } => {
                    self.note_propagation(&msg);
                    match self.cfg.routing {
                        RoutingMode::OnDemand => {
                            let size = msg.size_bytes();
                            let actions = self.nodes[id.index()]
                                .stack
                                .send_app(self.now, to, msg, size);
                            self.apply_net_actions(id, actions);
                        }
                        RoutingMode::Oracle => self.oracle_send(id, to, msg),
                    }
                }
                CtxOut::Flood { ttl, msg } => {
                    self.note_propagation(&msg);
                    let size = msg.size_bytes();
                    let actions = self.nodes[id.index()]
                        .stack
                        .flood_app(self.now, ttl, msg, size);
                    self.apply_net_actions(id, actions);
                }
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
                    self.trace(TraceEvent::RelayTransition {
                        node: id,
                        item,
                        kind,
                    });
                }
                CtxOut::QueryPhase {
                    query,
                    item,
                    phase,
                    attempt,
                } => {
                    self.trace(TraceEvent::QueryPhase {
                        node: id,
                        query: query.0,
                        item,
                        phase,
                        attempt,
                    });
                }
                CtxOut::CopyInstalled { item, version } => {
                    // Lineage exists only for copies that arrived on a
                    // frame; timer-driven or loopback installs have none.
                    if self.cfg.provenance.enabled() {
                        if let Some((origin, seq, hops)) = rx_frame {
                            self.trace(TraceEvent::CopyLineage {
                                node: id,
                                item,
                                version: version.get(),
                                origin,
                                frame: seq,
                                hops,
                            });
                        }
                    }
                }
                CtxOut::Degraded { item, query, kind } => match kind {
                    DegradationKind::RelayLeaseExpired => {
                        self.fault_stats.lease_expiries += 1;
                        if let Some(blame) = self.blame.as_mut() {
                            let version = self.histories[item.index()].current().get();
                            blame.stamp_lease(id, item, version);
                        }
                        self.trace(TraceEvent::RelayLeaseExpired { node: id, item });
                    }
                    DegradationKind::FallbackFlood => {
                        self.fault_stats.fallback_floods += 1;
                        self.trace(TraceEvent::FallbackFlood {
                            node: id,
                            query: query.map_or(0, |q| q.0),
                            item,
                        });
                    }
                },
                CtxOut::Recovery { action } => match action {
                    RecoveryAction::ResyncStart { items } => {
                        self.fault_stats.resyncs += 1;
                        self.trace(TraceEvent::ResyncStart { node: id, items });
                    }
                    RecoveryAction::ResyncDone { stale } => {
                        self.trace(TraceEvent::ResyncDone { node: id, stale });
                    }
                    RecoveryAction::Retransmit {
                        dest,
                        item,
                        seq,
                        attempt,
                    } => {
                        self.fault_stats.retransmits += 1;
                        self.trace(TraceEvent::RecoveryRetransmit {
                            node: id,
                            dest,
                            item,
                            seq,
                            attempt,
                        });
                    }
                    RecoveryAction::AckReceived { peer, item, seq } => {
                        self.fault_stats.delivery_acks += 1;
                        self.trace(TraceEvent::RecoveryAck {
                            node: id,
                            peer,
                            item,
                            seq,
                        });
                    }
                    RecoveryAction::HandoverRequest { item, version } => {
                        self.handle_handover_request(id, item, version);
                    }
                },
            }
        }
    }

    /// Resolves a relay-lease handover request: elect the lowest-id up
    /// neighbour that caches the item (and is not its source host) and
    /// hand it the expiring role; with no eligible successor the expiry
    /// degrades exactly as it would with handover off.
    fn handle_handover_request(&mut self, from: NodeId, item: ItemId, version: Version) {
        self.ensure_topology();
        let winner = {
            let topo = &self.topo.as_ref().expect("just refreshed").1;
            // CSR neighbour lists are ascending, so the first hit is the
            // deterministic lowest-id successor.
            topo.neighbors(from).iter().copied().find(|&n| {
                let node = &self.nodes[n.index()];
                node.up && item.source_host() != n && node.cache.contains(item)
            })
        };
        match winner {
            Some(to) => {
                self.fault_stats.handovers += 1;
                self.trace(TraceEvent::RelayHandover { from, to, item });
                let msg = ProtoMsg::Handover { item, version };
                match self.cfg.routing {
                    RoutingMode::OnDemand => {
                        let size = msg.size_bytes();
                        let actions = self.nodes[from.index()]
                            .stack
                            .send_app(self.now, to, msg, size);
                        self.apply_net_actions(from, actions);
                    }
                    RoutingMode::Oracle => self.oracle_send(from, to, msg),
                }
            }
            None => {
                self.fault_stats.lease_expiries += 1;
                if let Some(blame) = self.blame.as_mut() {
                    let v = self.histories[item.index()].current().get();
                    blame.stamp_lease(from, item, v);
                }
                self.trace(TraceEvent::RelayLeaseExpired { node: from, item });
            }
        }
    }

    /// Oracle-mode unicast: the message follows the current BFS shortest
    /// path with per-hop costs but zero routing control.
    fn oracle_send(&mut self, from: NodeId, to: NodeId, msg: ProtoMsg) {
        if to == from {
            self.with_proto(
                from,
                |proto, ctx| dispatch!(proto, p => p.on_message(ctx, from, msg)),
            );
            return;
        }
        if !self.nodes[from.index()].up {
            return; // a down node cannot transmit
        }
        // Take the reusable path buffer out of `self` so per-hop costing
        // below can borrow the world mutably; no allocation either way.
        let mut path = std::mem::take(&mut self.path_buf);
        self.ensure_topology();
        let topo = &self.topo.as_ref().expect("just refreshed").1;
        let found = topo.shortest_path_with(&mut self.topo_scratch, from, to, &mut path);
        if found {
            let size = msg.size_bytes();
            let mut arrival = self.now;
            for pair in path.windows(2) {
                self.frames_sent += 1;
                if self.measuring() {
                    self.traffic.record(msg.class(), size);
                }
                self.trace(TraceEvent::MsgSend {
                    node: pair[0],
                    class: msg.class(),
                    bytes: size,
                    dest: Some(pair[1]),
                    span: msg.span(),
                });
                let tx_cost = self.cfg.energy.tx_cost(size);
                self.nodes[pair[0].index()].battery.drain(tx_cost);
                let rx_cost = self.cfg.energy.rx_cost(size);
                self.nodes[pair[1].index()].battery.drain(rx_cost);
                arrival += self.cfg.link.hop_delay(size, &mut self.link_rng);
            }
            self.queue
                .push(arrival, Event::OracleDeliver { at: to, from, msg });
        } else {
            // No path: surface as the MAC-level failure the protocols
            // already handle.
            self.with_proto(
                from,
                |proto, ctx| dispatch!(proto, p => p.on_undeliverable(ctx, to, msg)),
            );
        }
        self.path_buf = path;
    }

    /// A node decides to write one of its cached items (extension).
    fn handle_write_arrival(&mut self, id: NodeId) {
        let item = match self.single_source {
            Some(src) => src.owned_item(),
            None => {
                let mut cached: Vec<ItemId> = self.nodes[id.index()]
                    .cache
                    .iter()
                    .map(|(it, _)| it)
                    .collect();
                cached.sort_unstable();
                match self.nodes[id.index()].rng.choose(&cached) {
                    Some(&item) => item,
                    None => return,
                }
            }
        };
        let write = QueryId(self.next_query_id);
        self.next_query_id += 1;
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
            self.writes_issued += 1;
        }
        self.send_write(id, write, item);
    }

    fn send_write(&mut self, id: NodeId, write: QueryId, item: ItemId) {
        let msg = ProtoMsg::WriteRequest {
            item,
            content_bytes: self.cfg.proto.content_bytes,
        };
        match self.cfg.routing {
            RoutingMode::OnDemand => {
                let size = msg.size_bytes();
                let actions =
                    self.nodes[id.index()]
                        .stack
                        .send_app(self.now, item.source_host(), msg, size);
                self.apply_net_actions(id, actions);
            }
            RoutingMode::Oracle => self.oracle_send(id, item.source_host(), msg),
        }
        self.queue.push(
            self.now + self.cfg.proto.fetch_timeout,
            Event::WriteRetry { at: id, write },
        );
    }

    /// The source host serialises an incoming replica write.
    fn handle_write_request(&mut self, node: NodeId, writer: NodeId, item: ItemId) {
        if item.source_host() != node || !self.nodes[node.index()].publishes {
            return; // misrouted or unpublished item
        }
        let version = self.nodes[node.index()].own_item.update();
        self.histories[item.index()].record_update(self.now);
        self.trace(TraceEvent::SourceUpdate {
            node,
            item,
            version: version.get(),
        });
        self.stamp_partition_victims(node, item);
        self.with_proto(
            node,
            |proto, ctx| dispatch!(proto, p => p.on_source_update(ctx)),
        );
        let ack = ProtoMsg::WriteAck { item, version };
        match self.cfg.routing {
            RoutingMode::OnDemand => {
                let size = ack.size_bytes();
                let actions = self.nodes[node.index()]
                    .stack
                    .send_app(self.now, writer, ack, size);
                self.apply_net_actions(node, actions);
            }
            RoutingMode::Oracle => self.oracle_send(node, writer, ack),
        }
    }

    /// The writer's acknowledgement arrived: the write is durable.
    fn handle_write_ack(&mut self, node: NodeId, item: ItemId, version: Version) {
        // Writes are acknowledged once; duplicates from retries are benign.
        let Some((&write, _)) = self
            .open_writes
            .iter()
            .filter(|(_, w)| w.item == item && w.writer == node)
            .min_by_key(|(&q, _)| q)
        else {
            return;
        };
        let open = self.open_writes.remove(&write).expect("just found");
        // Read-your-writes: the writer's own copy advances to at least the
        // acknowledged version.
        let entry_version = self.nodes[node.index()].cache.peek(item).map(|e| e.version);
        if entry_version.is_some_and(|v| v < version) {
            self.nodes[node.index()]
                .cache
                .refresh(item, version, self.now);
        }
        if open.measured {
            self.write_latency
                .record(self.now.saturating_since(open.issued));
        }
    }

    fn close_write_failed(&mut self, write: QueryId) {
        if self.open_writes.remove(&write).is_some_and(|w| w.measured) {
            self.writes_failed += 1;
        }
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
        // Traced even before warm-up: the summary sink re-derives the
        // measured set from `issued`, so the filters agree by construction.
        self.trace(TraceEvent::QueryServed {
            node,
            query: query.0,
            level: level_tag(open.level),
            served_by,
            issued: open.issued,
        });
        if !open.measured {
            return;
        }
        self.served_by[served_by.index()] += 1;
        let latency = self.now.saturating_since(open.issued);
        self.latency.record(latency);
        self.latency_by_level[open.level.index()].record(latency);
        let history = &self.histories[open.item.index()];
        let served = ServedQuery {
            served: version,
            master: history.current(),
            staleness: history.staleness(version, self.now),
        };
        self.audit.record(served);
        self.audit_by_level[open.level.index()].record(served);
        // Blame attribution: every measured stale serve — the exact set
        // the audit counts — gets exactly one cause, so the per-cause
        // counts sum to `stale_served` by construction.
        if self.blame.is_some() && served.served < served.master {
            let cause = self.blame.as_mut().expect("checked above").classify(
                open.node,
                open.item,
                version.get(),
            );
            // Δ-consistency (Eq. 3.2.2) with Δ = TTP: a served value may
            // be at most that long behind the master.
            let violation = served.staleness > self.cfg.proto.ttp;
            if violation {
                self.blame.as_mut().expect("checked above").note_violation();
            }
            self.trace(TraceEvent::StaleServe {
                node: open.node,
                query: query.0,
                item: open.item,
                cause,
                staleness_ms: served.staleness.as_millis(),
                lag: served.master.get() - served.served.get(),
                violation,
            });
        }
    }

    fn close_failed(&mut self, node: NodeId, query: QueryId) {
        let Some(open) = self.open.remove(&query) else {
            return;
        };
        self.trace(TraceEvent::QueryFailed {
            node,
            query: query.0,
            level: level_tag(open.level),
        });
        if open.measured {
            self.queries_failed += 1;
        }
    }
}

/// MAC-level class of one frame (application payloads keep their message
/// class; all routing control collapses into [`MessageClass::RouteControl`]).
fn frame_class(frame: &Frame<ProtoMsg>) -> MessageClass {
    match frame {
        Frame::Flood { payload, .. } | Frame::Unicast { payload, .. } => match payload {
            mp2p_net::NetPayload::App(m) => m.class(),
            mp2p_net::NetPayload::Control(
                RouteControl::Rreq { .. } | RouteControl::Rrep { .. } | RouteControl::Rerr { .. },
            ) => MessageClass::RouteControl,
        },
    }
}

/// The item and version an update-propagation message carries, if the
/// message is one. These three classes are the only ways a strategy
/// moves version knowledge outward from a source or relay; everything
/// else (polls, fetches, acks) is demand-driven and not "propagation"
/// for blame purposes.
fn propagation_of(msg: &ProtoMsg) -> Option<(ItemId, u64)> {
    match *msg {
        ProtoMsg::Invalidation { item, version, .. }
        | ProtoMsg::Update { item, version, .. }
        | ProtoMsg::SendNew { item, version, .. } => Some((item, version.get())),
        _ => None,
    }
}

/// Span tag riding on one frame, if its payload is a tagged application
/// message. Routing control never belongs to a query span.
fn frame_span(frame: &Frame<ProtoMsg>) -> Option<u64> {
    match frame {
        Frame::Flood { payload, .. } | Frame::Unicast { payload, .. } => match payload {
            mp2p_net::NetPayload::App(m) => m.span(),
            mp2p_net::NetPayload::Control(_) => None,
        },
    }
}

/// Profiler bucket label of one world event. Static strings from a
/// closed vocabulary, so [`PerfReport::to_json`] needs no escaping and
/// `PerfReport::events` can recognise the family by its `event:` prefix.
fn event_bucket(event: &Event) -> &'static str {
    match event {
        Event::Query(_) => "event:query",
        Event::Update(_) => "event:update",
        Event::Switch(_) => "event:switch",
        Event::Write(_) => "event:write",
        Event::WriteRetry { .. } => "event:write_retry",
        Event::Rx { .. } | Event::RxAll { .. } => "event:rx",
        Event::NetTimer { .. } => "event:net_timer",
        Event::ProtoTimer { .. } => "event:proto_timer",
        Event::OracleDeliver { .. } => "event:oracle_deliver",
        Event::CoeffTick => "event:coeff_tick",
        Event::Sample => "event:sample",
        Event::ConsistencyTick => "event:consistency",
        Event::Fault(_) => "event:fault",
    }
}

/// Profiler bucket label of one delivered protocol message, by class.
fn msg_bucket(class: MessageClass) -> &'static str {
    match class {
        MessageClass::Invalidation => "msg:INVALIDATION",
        MessageClass::Update => "msg:UPDATE",
        MessageClass::Poll => "msg:POLL",
        MessageClass::PollAckA => "msg:POLL_ACK_A",
        MessageClass::PollAckB => "msg:POLL_ACK_B",
        MessageClass::Apply => "msg:APPLY",
        MessageClass::ApplyAck => "msg:APPLY_ACK",
        MessageClass::Cancel => "msg:CANCEL",
        MessageClass::GetNew => "msg:GET_NEW",
        MessageClass::SendNew => "msg:SEND_NEW",
        MessageClass::Fetch => "msg:FETCH",
        MessageClass::FetchReply => "msg:FETCH_REPLY",
        MessageClass::WriteRequest => "msg:WRITE_REQ",
        MessageClass::WriteAck => "msg:WRITE_ACK",
        MessageClass::RouteControl => "msg:ROUTE_CTRL",
        MessageClass::ResyncDigest => "msg:RESYNC_DIGEST",
        MessageClass::ResyncAck => "msg:RESYNC_ACK",
        MessageClass::DeliveryAck => "msg:DELIVERY_ACK",
        MessageClass::Handover => "msg:HANDOVER",
    }
}

/// Maps a protocol-level consistency requirement to its trace tag.
fn level_tag(level: ConsistencyLevel) -> LevelTag {
    match level {
        ConsistencyLevel::Weak => LevelTag::Weak,
        ConsistencyLevel::Delta => LevelTag::Delta,
        ConsistencyLevel::Strong => LevelTag::Strong,
    }
}

/// Stream id of the world-level RNG ("WORLD" in ASCII).
const WORLD_STREAM: u64 = 0x57_4F_52_4C_44;

/// Stream id of the fault injector's RNG. Distinct from every per-node
/// stream family (0x100..0x8ff) and from [`WORLD_STREAM`], so enabling a
/// plan cannot shift any pre-existing random sequence.
const FAULT_STREAM: u64 = 0x900;

fn build_mobility(cfg: &WorldConfig, rng: SimRng) -> AnyMobility {
    match cfg.mobility {
        MobilityKind::Waypoint {
            speed_min,
            speed_max,
            max_pause,
        } => RandomWaypoint::new(cfg.terrain, speed_min, speed_max, max_pause, rng).into(),
        MobilityKind::Walk {
            speed_min,
            speed_max,
            epoch,
        } => RandomWalk::new(cfg.terrain, speed_min, speed_max, epoch, rng).into(),
        MobilityKind::Manhattan { block, speed } => {
            ManhattanGrid::new(cfg.terrain, block, speed, rng).into()
        }
        MobilityKind::Stationary => {
            let mut seed_rng = rng;
            Stationary::new(cfg.terrain.random_point(&mut seed_rng)).into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ("sample_period", None, |c| {
                c.sample_period = SimDuration::ZERO
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
            ("proto.ttn", None, |c| c.proto.ttn = SimDuration::ZERO),
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
            mp2p_trace::json::is_valid(&json),
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
        assert!(mp2p_trace::json::is_valid(&a.to_json()));
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
    fn queue_pushes_count_transmissions_not_receptions() {
        // Pinned: moves only when the engine schedules differently.
        const PUSHES: u64 = 11_754;
        let mut profiled = World::new(WorldConfig::small_test(42));
        profiled.enable_profiling();
        let perf = profiled.run().perf.expect("profiling was enabled");
        assert_eq!(perf.queue.pushes, PUSHES);

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
        assert_eq!(world.fault_stats.crashes, 1);
        world.recover_node(0);
        assert!(world.nodes[3].up, "recovered node is back up");
        assert_eq!(world.fault_stats.recoveries, 1);
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
        let failed_before = world.queries_failed;
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
            world.queries_failed,
            failed_before + pending_at_victim as u64,
            "closed queries are counted as failed, keeping accounting exact"
        );
    }
}
