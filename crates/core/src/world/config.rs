//! The description of a run: [`WorldConfig`] and the enums it selects
//! between.
//!
//! Invariant owned here: **every rule a run parameter must satisfy is a
//! clause of [`WorldConfig::check`]** (or of a member configuration's
//! `check`, which it calls). [`super::World::new`] panics on a
//! configuration that fails it, so nothing past construction re-checks or
//! clamps a parameter. Pinned from outside by
//! `crates/experiments/tests/run_description.rs` and from inside by
//! `world::tests::check_names_the_field_of_every_broken_rule`.

use mp2p_mobility::{AnyMobility, ManhattanGrid, RandomWalk, RandomWaypoint, Stationary, Terrain};
use mp2p_net::{FaultPlan, LinkModel, MAX_NODES};
use mp2p_sim::{relate, require, ConfigError, SimDuration, SimRng};

use crate::config::ProtocolConfig;
use crate::level::LevelMix;
use crate::observatory::ObservatoryConfig;
use crate::provenance::ProvenanceConfig;

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
    /// Protocol knobs and the switches of the hardening and recovery
    /// layers (Table 1's fixed rows are constants beside it).
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
    /// Maximum age of a topology snapshot before rebuild.
    pub topology_refresh: SimDuration,
    /// Scheduled fault-injection plan (chaos harness). [`FaultPlan::none`]
    /// — the default — keeps every hot path and random stream untouched:
    /// a fault-free run is bit-identical to one built before the fault
    /// subsystem existed.
    pub faults: FaultPlan,
    /// Consistency-observatory switch (divergence sampler + stale-serve
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
            topology_refresh: SimDuration::from_millis(200),
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
        let reason =
            format!("must be at most {MAX_NODES} (a frame id names its origin in 24 bits)");
        require(self.n_peers <= MAX_NODES, "n_peers", reason)?;
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
    /// bug ([`crate::World::new`] is one).
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

/// Builds one node's mobility model from its dedicated random stream.
pub(super) fn build_mobility(cfg: &WorldConfig, rng: SimRng) -> AnyMobility {
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
