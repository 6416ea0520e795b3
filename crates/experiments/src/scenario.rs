//! The scenario corpus: a dependency-free TOML-subset format describing
//! one named simulation scenario end to end — terrain, mobility model,
//! workload mix, fault plan, strategy set, seeds and per-scenario gate
//! floors.
//!
//! A scenario file is the unit `mp2p matrix` sweeps: every
//! `(scenario, strategy, seed)` triple becomes one matrix cell. The
//! format is a deliberately small TOML subset (the workspace is
//! dependency-free, so the parser is hand-rolled here, like the JSON
//! stack in `mp2p_trace::json`):
//!
//! * `# comment` lines and blank lines,
//! * `[section]` headers (`world`, `mobility`, `faults`, `matrix`,
//!   `gates`),
//! * `key = value` pairs where a value is a number, `true`/`false`, a
//!   `"string"` (`\"` and `\\` escapes), or a `[a, b, c]` array of
//!   numbers or strings.
//!
//! Errors are **line-accurate**: [`Scenario::parse`] reports the first
//! offending line by number, both for syntax errors and for semantic
//! ones (unknown keys, values out of range). [`Scenario::to_toml`]
//! writes the canonical form back; parse → serialise → parse is the
//! identity (covered by `tests/scenario_corpus.rs`).
//!
//! # Example
//!
//! ```
//! use mp2p_experiments::scenario::Scenario;
//!
//! let text = r#"
//! schema = 1
//! name = "demo"
//!
//! [world]
//! peers = 10
//! cache = 3
//! range_m = 250
//! terrain_w_m = 700
//! terrain_h_m = 700
//! sim_mins = 6
//! warmup_mins = 1
//! query_secs = 20
//! update_secs = 120
//!
//! [mobility]
//! model = "manhattan"
//! block_m = 100
//! speed_mps = 8
//!
//! [matrix]
//! strategies = ["rpcc", "push"]
//! seeds = [42]
//! "#;
//! let scenario = Scenario::parse(text).unwrap();
//! assert_eq!(scenario.name, "demo");
//! let cfg = scenario.world_config(scenario.strategies[0], 42);
//! cfg.validate();
//! ```

use std::path::Path;

use mp2p_mobility::Terrain;
use mp2p_rpcc::{
    MobilityKind, ObservatoryConfig, RecoveryConfig, Strategy, WorkloadMode, World, WorldConfig,
};
use mp2p_sim::SimDuration;

use crate::cli;

/// Version tag required in every scenario file (`schema = 1`). Bump on
/// layout changes so old files are refused instead of misread.
pub const SCENARIO_SCHEMA: u64 = 1;

/// A line-accurate scenario-file error: `line` is 1-based (0 for errors
/// that concern the file as a whole, e.g. a missing section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line of the offending token (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.msg)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The mobility model of a scenario, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilitySpec {
    /// Random waypoint (speeds m/s, max pause seconds).
    Waypoint {
        /// Minimum leg speed (m/s).
        speed_min: f64,
        /// Maximum leg speed (m/s).
        speed_max: f64,
        /// Maximum pause at each waypoint (s).
        max_pause_secs: f64,
    },
    /// Random walk with reflection.
    Walk {
        /// Minimum epoch speed (m/s).
        speed_min: f64,
        /// Maximum epoch speed (m/s).
        speed_max: f64,
        /// Heading-change period (s).
        epoch_secs: f64,
    },
    /// Street-grid (Manhattan) movement.
    Manhattan {
        /// Street-block edge length (m).
        block_m: f64,
        /// Constant speed (m/s).
        speed_mps: f64,
    },
    /// No movement.
    Stationary,
}

impl MobilitySpec {
    /// The model token written to / read from the file.
    pub fn model(&self) -> &'static str {
        match self {
            MobilitySpec::Waypoint { .. } => "waypoint",
            MobilitySpec::Walk { .. } => "walk",
            MobilitySpec::Manhattan { .. } => "manhattan",
            MobilitySpec::Stationary => "stationary",
        }
    }

    /// The core-config mobility kind this spec selects.
    pub fn kind(&self) -> MobilityKind {
        match *self {
            MobilitySpec::Waypoint {
                speed_min,
                speed_max,
                max_pause_secs,
            } => MobilityKind::Waypoint {
                speed_min,
                speed_max,
                max_pause: SimDuration::from_secs_f64(max_pause_secs),
            },
            MobilitySpec::Walk {
                speed_min,
                speed_max,
                epoch_secs,
            } => MobilityKind::Walk {
                speed_min,
                speed_max,
                epoch: SimDuration::from_secs_f64(epoch_secs),
            },
            MobilitySpec::Manhattan { block_m, speed_mps } => MobilityKind::Manhattan {
                block: block_m,
                speed: speed_mps,
            },
            MobilitySpec::Stationary => MobilityKind::Stationary,
        }
    }
}

/// Per-scenario absolute quality floors, checked by `mp2p matrix`
/// against every cell of the scenario. `None` disables the axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateFloors {
    /// Minimum served fresh fraction.
    pub min_fresh_fraction: Option<f64>,
    /// Maximum 95th-percentile query latency (seconds).
    pub max_p95_latency_secs: Option<f64>,
    /// Minimum event-loop throughput (events/sec; wall-clock, so only
    /// meaningful on known hardware — prefer the baseline gate in CI).
    pub min_events_per_sec: Option<f64>,
}

/// One parsed scenario: everything needed to construct the
/// [`WorldConfig`] of each of its matrix cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (path-safe: `[a-z0-9-]`). Keys matrix cells.
    pub name: String,
    /// One-line human description.
    pub summary: String,
    /// `N_Peers`.
    pub peers: usize,
    /// `C_Num` cache slots per host.
    pub cache: usize,
    /// `C_Range` radio range (m).
    pub range_m: f64,
    /// Terrain width (m).
    pub terrain_w_m: f64,
    /// Terrain height (m).
    pub terrain_h_m: f64,
    /// Simulated duration (seconds; the file says `sim_mins`).
    pub sim_secs: f64,
    /// Warm-up excluded from metrics (seconds; the file says
    /// `warmup_mins`).
    pub warmup_secs: f64,
    /// `I_Query` mean query interval (s).
    pub query_secs: f64,
    /// `I_Update` mean source-update interval (s).
    pub update_secs: f64,
    /// `I_Switch` mean churn interval (s); `None` disables churn.
    pub churn_secs: Option<f64>,
    /// Workload token: `cached-uniform` or `single-item`.
    pub workload: String,
    /// Level-mix token: `sc`, `dc`, `wc` or `hy`.
    pub mix: String,
    /// Run with the hardened protocol knobs.
    pub hardened: bool,
    /// Run with the self-healing recovery layer.
    pub recovery: bool,
    /// Consistency-observatory sample period (s); `None` leaves the
    /// observatory off (cells then report no blame attribution).
    pub consistency_sample_secs: Option<f64>,
    /// Mobility model.
    pub mobility: MobilitySpec,
    /// Fault-plan preset name (`none` or a `FaultPlan::PRESETS` entry).
    pub fault_preset: String,
    /// Strategies every seed is swept across.
    pub strategies: Vec<Strategy>,
    /// Seeds every strategy is swept across.
    pub seeds: Vec<u64>,
    /// Absolute per-cell quality floors.
    pub gates: GateFloors,
}

impl Scenario {
    /// Builds the world configuration of one matrix cell.
    ///
    /// Starts from [`WorldConfig::paper_default`] so every knob the
    /// format does not capture keeps its Table 1 value — which is what
    /// makes a scenario transcribing the defaults reproduce
    /// `mp2p run`'s output byte for byte.
    pub fn world_config(&self, strategy: Strategy, seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::paper_default(seed);
        cfg.strategy = strategy;
        cfg.n_peers = self.peers;
        cfg.c_num = self.cache;
        cfg.range = self.range_m;
        cfg.terrain = Terrain::new(self.terrain_w_m, self.terrain_h_m);
        cfg.sim_time = SimDuration::from_secs_f64(self.sim_secs);
        cfg.warmup = SimDuration::from_secs_f64(self.warmup_secs);
        cfg.i_query = SimDuration::from_secs_f64(self.query_secs);
        cfg.i_update = SimDuration::from_secs_f64(self.update_secs);
        cfg.i_switch = self.churn_secs.map(SimDuration::from_secs_f64);
        cfg.workload = match self.workload.as_str() {
            "single-item" => WorkloadMode::SingleItem,
            _ => WorkloadMode::CachedUniform,
        };
        cfg.level_mix = cli::parse_mix(&self.mix).expect("mix validated at parse");
        if self.hardened {
            cfg.proto = cfg.proto.hardened();
        }
        if self.recovery {
            cfg.proto.recovery = RecoveryConfig::on();
        }
        if let Some(secs) = self.consistency_sample_secs {
            cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs_f64(secs));
        }
        cfg.mobility = self.mobility.kind();
        cfg.faults = cli::parse_faults(&self.fault_preset, cfg.sim_time)
            .expect("fault preset validated at parse");
        cfg
    }

    /// Runs one cell of this scenario, unprofiled, and returns the
    /// report. The deterministic counterpart of a
    /// [`crate::matrix::run_matrix`] cell — used by the determinism tests.
    pub fn run_cell_report(&self, strategy: Strategy, seed: u64) -> mp2p_rpcc::RunReport {
        World::new(self.world_config(strategy, seed)).run()
    }

    /// Parses one scenario file. Errors carry the 1-based line number of
    /// the first offending token.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = Document::parse(text)?;
        Scenario::from_document(doc)
    }

    /// Reads and parses a scenario file, prefixing errors with the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Loads every `*.toml` under `dir`, sorted by scenario name.
    /// Duplicate names are an error (cells are keyed by name).
    pub fn load_dir(dir: &Path) -> Result<Vec<Scenario>, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        let mut scenarios = Vec::with_capacity(paths.len());
        for path in &paths {
            scenarios.push(Scenario::load(path)?);
        }
        scenarios.sort_by(|a, b| a.name.cmp(&b.name));
        for pair in scenarios.windows(2) {
            if pair[0].name == pair[1].name {
                return Err(format!(
                    "{}: two scenario files share the name {:?}",
                    dir.display(),
                    pair[0].name
                ));
            }
        }
        Ok(scenarios)
    }

    /// Serialises the canonical TOML form. `parse(to_toml(s)) == s`.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "schema = {SCENARIO_SCHEMA}");
        let _ = writeln!(s, "name = {}", quote(&self.name));
        if !self.summary.is_empty() {
            let _ = writeln!(s, "summary = {}", quote(&self.summary));
        }
        s.push_str("\n[world]\n");
        let _ = writeln!(s, "peers = {}", self.peers);
        let _ = writeln!(s, "cache = {}", self.cache);
        let _ = writeln!(s, "range_m = {}", self.range_m);
        let _ = writeln!(s, "terrain_w_m = {}", self.terrain_w_m);
        let _ = writeln!(s, "terrain_h_m = {}", self.terrain_h_m);
        let _ = writeln!(s, "sim_mins = {}", self.sim_secs / 60.0);
        let _ = writeln!(s, "warmup_mins = {}", self.warmup_secs / 60.0);
        let _ = writeln!(s, "query_secs = {}", self.query_secs);
        let _ = writeln!(s, "update_secs = {}", self.update_secs);
        if let Some(churn) = self.churn_secs {
            let _ = writeln!(s, "churn_secs = {churn}");
        }
        let _ = writeln!(s, "workload = {}", quote(&self.workload));
        let _ = writeln!(s, "mix = {}", quote(&self.mix));
        if self.hardened {
            s.push_str("hardened = true\n");
        }
        if self.recovery {
            s.push_str("recovery = true\n");
        }
        if let Some(secs) = self.consistency_sample_secs {
            let _ = writeln!(s, "consistency_sample_secs = {secs}");
        }
        s.push_str("\n[mobility]\n");
        let _ = writeln!(s, "model = {}", quote(self.mobility.model()));
        match self.mobility {
            MobilitySpec::Waypoint {
                speed_min,
                speed_max,
                max_pause_secs,
            } => {
                let _ = writeln!(s, "speed_min_mps = {speed_min}");
                let _ = writeln!(s, "speed_max_mps = {speed_max}");
                let _ = writeln!(s, "max_pause_secs = {max_pause_secs}");
            }
            MobilitySpec::Walk {
                speed_min,
                speed_max,
                epoch_secs,
            } => {
                let _ = writeln!(s, "speed_min_mps = {speed_min}");
                let _ = writeln!(s, "speed_max_mps = {speed_max}");
                let _ = writeln!(s, "epoch_secs = {epoch_secs}");
            }
            MobilitySpec::Manhattan { block_m, speed_mps } => {
                let _ = writeln!(s, "block_m = {block_m}");
                let _ = writeln!(s, "speed_mps = {speed_mps}");
            }
            MobilitySpec::Stationary => {}
        }
        s.push_str("\n[faults]\n");
        let _ = writeln!(s, "preset = {}", quote(&self.fault_preset));
        s.push_str("\n[matrix]\n");
        let tokens: Vec<String> = self
            .strategies
            .iter()
            .map(|&st| quote(cli::strategy_token(st)))
            .collect();
        let _ = writeln!(s, "strategies = [{}]", tokens.join(", "));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "seeds = [{}]", seeds.join(", "));
        let g = &self.gates;
        if g.min_fresh_fraction.is_some()
            || g.max_p95_latency_secs.is_some()
            || g.min_events_per_sec.is_some()
        {
            s.push_str("\n[gates]\n");
            if let Some(v) = g.min_fresh_fraction {
                let _ = writeln!(s, "min_fresh_fraction = {v}");
            }
            if let Some(v) = g.max_p95_latency_secs {
                let _ = writeln!(s, "max_p95_latency_secs = {v}");
            }
            if let Some(v) = g.min_events_per_sec {
                let _ = writeln!(s, "min_events_per_sec = {v}");
            }
        }
        s
    }

    fn from_document(doc: Document) -> Result<Self, ScenarioError> {
        let mut doc = doc;
        let schema = doc.require_u64("", "schema")?;
        if schema.0 != SCENARIO_SCHEMA {
            return Err(err(
                schema.1,
                format!(
                    "scenario schema {} unsupported (this build speaks {SCENARIO_SCHEMA})",
                    schema.0
                ),
            ));
        }
        let (name, name_line) = doc.require_str("", "name")?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            return Err(err(
                name_line,
                format!("name {name:?} must be non-empty lowercase [a-z0-9-] (it names files)"),
            ));
        }
        let summary = doc.optional_str("", "summary")?.unwrap_or_default().0;

        let peers = doc.require_count("world", "peers", 2)?;
        let cache = doc.require_count("world", "cache", 1)?;
        if cache.0 >= peers.0 {
            return Err(err(
                cache.1,
                format!(
                    "cache ({}) must be below the number of foreign items ({})",
                    cache.0,
                    peers.0 - 1
                ),
            ));
        }
        let range_m = doc.require_positive("world", "range_m")?.0;
        let terrain_w_m = doc.require_positive("world", "terrain_w_m")?.0;
        let terrain_h_m = doc.require_positive("world", "terrain_h_m")?.0;
        let sim = doc.require_positive("world", "sim_mins")?;
        let warmup = doc.require_positive("world", "warmup_mins")?;
        if warmup.0 >= sim.0 {
            return Err(err(
                warmup.1,
                format!(
                    "warmup_mins ({}) must end before sim_mins ({}) does",
                    warmup.0, sim.0
                ),
            ));
        }
        let query_secs = doc.require_positive("world", "query_secs")?.0;
        let update_secs = doc.require_positive("world", "update_secs")?.0;
        let churn_secs = match doc.optional_f64("world", "churn_secs")? {
            Some((v, line)) => {
                if !(v.is_finite() && v > 0.0) {
                    return Err(err(line, format!("churn_secs must be positive, got {v}")));
                }
                Some(v)
            }
            None => None,
        };
        let workload = match doc.optional_str("world", "workload")? {
            Some((tok, line)) => {
                if tok != "cached-uniform" && tok != "single-item" {
                    return Err(err(
                        line,
                        format!("unknown workload {tok:?} (cached-uniform|single-item)"),
                    ));
                }
                tok
            }
            None => "cached-uniform".to_owned(),
        };
        let mix = match doc.optional_str("world", "mix")? {
            Some((tok, line)) => {
                cli::parse_mix(&tok).map_err(|msg| err(line, msg))?;
                tok
            }
            None => "sc".to_owned(),
        };
        let hardened = doc.optional_bool("world", "hardened")?.unwrap_or(false);
        let recovery = doc.optional_bool("world", "recovery")?.unwrap_or(false);
        let consistency_sample_secs = match doc.optional_f64("world", "consistency_sample_secs")? {
            Some((v, line)) => {
                if !(v.is_finite() && v > 0.0) {
                    return Err(err(
                        line,
                        format!("consistency_sample_secs must be positive, got {v}"),
                    ));
                }
                Some(v)
            }
            None => None,
        };

        let mobility = doc.parse_mobility()?;

        let fault_preset = match doc.optional_str("faults", "preset")? {
            Some((tok, line)) => {
                cli::parse_faults(&tok, SimDuration::from_mins(1)).map_err(|msg| err(line, msg))?;
                tok
            }
            None => "none".to_owned(),
        };

        let (strategy_tokens, strategies_line) = doc.require_str_array("matrix", "strategies")?;
        if strategy_tokens.is_empty() {
            return Err(err(strategies_line, "strategies must not be empty".into()));
        }
        let strategies = strategy_tokens
            .iter()
            .map(|t| cli::parse_strategy(t))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|msg| err(strategies_line, msg))?;
        let (seed_nums, seeds_line) = doc.require_num_array("matrix", "seeds")?;
        if seed_nums.is_empty() {
            return Err(err(seeds_line, "seeds must not be empty".into()));
        }
        let seeds = seed_nums
            .iter()
            .map(|&n| {
                if n >= 0.0 && n.fract() == 0.0 && n <= 9.007_199_254_740_992e15 {
                    Ok(n as u64)
                } else {
                    Err(err(
                        seeds_line,
                        format!("seed {n} is not a non-negative integer"),
                    ))
                }
            })
            .collect::<Result<Vec<_>, _>>()?;

        let gates = GateFloors {
            min_fresh_fraction: match doc.optional_f64("gates", "min_fresh_fraction")? {
                Some((v, line)) => {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(err(
                            line,
                            format!("min_fresh_fraction must be in [0,1], got {v}"),
                        ));
                    }
                    Some(v)
                }
                None => None,
            },
            max_p95_latency_secs: match doc.optional_f64("gates", "max_p95_latency_secs")? {
                Some((v, line)) => {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(err(
                            line,
                            format!("max_p95_latency_secs must be positive, got {v}"),
                        ));
                    }
                    Some(v)
                }
                None => None,
            },
            min_events_per_sec: match doc.optional_f64("gates", "min_events_per_sec")? {
                Some((v, line)) => {
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(err(
                            line,
                            format!("min_events_per_sec must be non-negative, got {v}"),
                        ));
                    }
                    Some(v)
                }
                None => None,
            },
        };

        doc.reject_unused()?;

        Ok(Scenario {
            name,
            summary,
            peers: peers.0,
            cache: cache.0,
            range_m,
            terrain_w_m,
            terrain_h_m,
            sim_secs: sim.0 * 60.0,
            warmup_secs: warmup.0 * 60.0,
            query_secs,
            update_secs,
            churn_secs,
            workload,
            mix,
            hardened,
            recovery,
            consistency_sample_secs,
            mobility,
            fault_preset,
            strategies,
            seeds,
            gates,
        })
    }
}

fn err(line: usize, msg: String) -> ScenarioError {
    ScenarioError { line, msg }
}

/// Quotes a string for the canonical TOML form (`\\` and `\"` escaped).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A raw parsed value with its source line.
#[derive(Debug, Clone, PartialEq)]
enum RawValue {
    Num(f64),
    Str(String),
    Bool(bool),
    NumArr(Vec<f64>),
    StrArr(Vec<String>),
}

impl RawValue {
    fn type_name(&self) -> &'static str {
        match self {
            RawValue::Num(_) => "number",
            RawValue::Str(_) => "string",
            RawValue::Bool(_) => "boolean",
            RawValue::NumArr(_) => "number array",
            RawValue::StrArr(_) => "string array",
        }
    }
}

/// The flat `(section, key) -> (value, line)` form of a scenario file.
#[derive(Debug)]
struct Document {
    /// Entries in file order; `used` marks keys a typed accessor read.
    entries: Vec<Entry>,
}

#[derive(Debug)]
struct Entry {
    section: String,
    key: String,
    value: RawValue,
    line: usize,
    used: bool,
}

const SECTIONS: [&str; 6] = ["", "world", "mobility", "faults", "matrix", "gates"];

/// Every key the format knows, per section. Checked at parse time so an
/// unknown key is reported on its own line even when required keys are
/// also missing.
const KNOWN_KEYS: [(&str, &[&str]); 6] = [
    ("", &["schema", "name", "summary"]),
    (
        "world",
        &[
            "peers",
            "cache",
            "range_m",
            "terrain_w_m",
            "terrain_h_m",
            "sim_mins",
            "warmup_mins",
            "query_secs",
            "update_secs",
            "churn_secs",
            "workload",
            "mix",
            "hardened",
            "recovery",
            "consistency_sample_secs",
        ],
    ),
    (
        "mobility",
        &[
            "model",
            "speed_min_mps",
            "speed_max_mps",
            "max_pause_secs",
            "epoch_secs",
            "block_m",
            "speed_mps",
        ],
    ),
    ("faults", &["preset"]),
    ("matrix", &["strategies", "seeds"]),
    (
        "gates",
        &[
            "min_fresh_fraction",
            "max_p95_latency_secs",
            "min_events_per_sec",
        ],
    ),
];

impl Document {
    fn parse(text: &str) -> Result<Document, ScenarioError> {
        let mut entries: Vec<Entry> = Vec::new();
        let mut section = String::new();
        for (i, raw_line) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw_line, lineno)?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(err(lineno, format!("unterminated section header {line:?}")));
                };
                let name = name.trim();
                if !SECTIONS.contains(&name) {
                    return Err(err(
                        lineno,
                        format!(
                            "unknown section [{name}] (expected one of [world] [mobility] [faults] [matrix] [gates])"
                        ),
                    ));
                }
                section = name.to_owned();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(err(
                    lineno,
                    format!("expected `key = value` or `[section]`, got {line:?}"),
                ));
            };
            let key = line[..eq].trim();
            if key.is_empty()
                || !key
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
            {
                return Err(err(lineno, format!("bad key {key:?}")));
            }
            let known = KNOWN_KEYS
                .iter()
                .find(|(s, _)| *s == section)
                .is_some_and(|(_, keys)| keys.contains(&key));
            if !known {
                return Err(err(
                    lineno,
                    format!("unknown key {key:?} in {}", Self::section_label(&section)),
                ));
            }
            let value = parse_value(line[eq + 1..].trim(), lineno)?;
            if entries.iter().any(|e| e.section == section && e.key == key) {
                return Err(err(
                    lineno,
                    format!("duplicate key {key:?} in section [{section}]"),
                ));
            }
            entries.push(Entry {
                section: section.clone(),
                key: key.to_owned(),
                value,
                line: lineno,
                used: false,
            });
        }
        Ok(Document { entries })
    }

    fn take(&mut self, section: &str, key: &str) -> Option<(&RawValue, usize)> {
        self.entries
            .iter_mut()
            .find(|e| e.section == section && e.key == key)
            .map(|e| {
                e.used = true;
                (&e.value, e.line)
            })
    }

    fn section_label(section: &str) -> String {
        if section.is_empty() {
            "the top of the file".to_owned()
        } else {
            format!("section [{section}]")
        }
    }

    fn require_f64(&mut self, section: &str, key: &str) -> Result<(f64, usize), ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::Num(n), line)) => Ok((*n, line)),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be a number, got a {}", other.type_name()),
            )),
            None => Err(err(
                0,
                format!("missing key {key:?} in {}", Self::section_label(section)),
            )),
        }
    }

    fn require_positive(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<(f64, usize), ScenarioError> {
        let (v, line) = self.require_f64(section, key)?;
        if !(v.is_finite() && v > 0.0) {
            return Err(err(line, format!("{key} must be positive, got {v}")));
        }
        Ok((v, line))
    }

    fn require_count(
        &mut self,
        section: &str,
        key: &str,
        min: usize,
    ) -> Result<(usize, usize), ScenarioError> {
        let (v, line) = self.require_f64(section, key)?;
        if !(v.is_finite() && v >= min as f64 && v.fract() == 0.0 && v <= 1e12) {
            return Err(err(
                line,
                format!("{key} must be an integer >= {min}, got {v}"),
            ));
        }
        Ok((v as usize, line))
    }

    fn require_u64(&mut self, section: &str, key: &str) -> Result<(u64, usize), ScenarioError> {
        let (v, line) = self.require_f64(section, key)?;
        if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= 9.007_199_254_740_992e15) {
            return Err(err(
                line,
                format!("{key} must be a non-negative integer, got {v}"),
            ));
        }
        Ok((v as u64, line))
    }

    fn optional_f64(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<Option<(f64, usize)>, ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::Num(n), line)) => Ok(Some((*n, line))),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be a number, got a {}", other.type_name()),
            )),
            None => Ok(None),
        }
    }

    fn require_str(&mut self, section: &str, key: &str) -> Result<(String, usize), ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::Str(s), line)) => Ok((s.clone(), line)),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be a string, got a {}", other.type_name()),
            )),
            None => Err(err(
                0,
                format!("missing key {key:?} in {}", Self::section_label(section)),
            )),
        }
    }

    fn optional_str(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<Option<(String, usize)>, ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::Str(s), line)) => Ok(Some((s.clone(), line))),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be a string, got a {}", other.type_name()),
            )),
            None => Ok(None),
        }
    }

    fn optional_bool(&mut self, section: &str, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::Bool(b), _)) => Ok(Some(*b)),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be true or false, got a {}", other.type_name()),
            )),
            None => Ok(None),
        }
    }

    fn require_str_array(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<(Vec<String>, usize), ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::StrArr(v), line)) => Ok((v.clone(), line)),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be a string array, got a {}", other.type_name()),
            )),
            None => Err(err(
                0,
                format!("missing key {key:?} in {}", Self::section_label(section)),
            )),
        }
    }

    fn require_num_array(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<(Vec<f64>, usize), ScenarioError> {
        match self.take(section, key) {
            Some((RawValue::NumArr(v), line)) => Ok((v.clone(), line)),
            Some((other, line)) => Err(err(
                line,
                format!("{key} must be a number array, got a {}", other.type_name()),
            )),
            None => Err(err(
                0,
                format!("missing key {key:?} in {}", Self::section_label(section)),
            )),
        }
    }

    fn parse_mobility(&mut self) -> Result<MobilitySpec, ScenarioError> {
        let (model, model_line) = self.require_str("mobility", "model")?;
        let positive = |doc: &mut Self, key: &str| -> Result<f64, ScenarioError> {
            doc.require_positive("mobility", key).map(|(v, _)| v)
        };
        let spec = match model.as_str() {
            "waypoint" => {
                let speed_min = positive(self, "speed_min_mps")?;
                let speed_max = positive(self, "speed_max_mps")?;
                if speed_min > speed_max {
                    return Err(err(
                        model_line,
                        format!(
                            "need speed_min_mps <= speed_max_mps, got {speed_min} > {speed_max}"
                        ),
                    ));
                }
                // A zero pause is legal (continuous movement): positive
                // is not required here, only non-negative and finite.
                let (max_pause_secs, pause_line) =
                    self.require_f64("mobility", "max_pause_secs")?;
                if !(max_pause_secs.is_finite() && max_pause_secs >= 0.0) {
                    return Err(err(
                        pause_line,
                        format!("max_pause_secs must be non-negative, got {max_pause_secs}"),
                    ));
                }
                MobilitySpec::Waypoint {
                    speed_min,
                    speed_max,
                    max_pause_secs,
                }
            }
            "walk" => {
                let speed_min = positive(self, "speed_min_mps")?;
                let speed_max = positive(self, "speed_max_mps")?;
                if speed_min > speed_max {
                    return Err(err(
                        model_line,
                        format!(
                            "need speed_min_mps <= speed_max_mps, got {speed_min} > {speed_max}"
                        ),
                    ));
                }
                let epoch_secs = positive(self, "epoch_secs")?;
                MobilitySpec::Walk {
                    speed_min,
                    speed_max,
                    epoch_secs,
                }
            }
            "manhattan" => MobilitySpec::Manhattan {
                block_m: positive(self, "block_m")?,
                speed_mps: positive(self, "speed_mps")?,
            },
            "stationary" => MobilitySpec::Stationary,
            other => {
                return Err(err(
                    model_line,
                    format!(
                        "unknown mobility model {other:?} (waypoint|walk|manhattan|stationary)"
                    ),
                ))
            }
        };
        Ok(spec)
    }

    /// A known key no typed accessor consumed belongs to a different
    /// configuration (e.g. `epoch_secs` under a `manhattan` model) —
    /// report the first by line.
    fn reject_unused(&self) -> Result<(), ScenarioError> {
        match self.entries.iter().find(|e| !e.used) {
            Some(e) => Err(err(
                e.line,
                format!(
                    "key {:?} does not apply in {} with this configuration",
                    e.key,
                    Self::section_label(&e.section)
                ),
            )),
            None => Ok(()),
        }
    }
}

/// Strips a trailing `# comment`, respecting `#` inside quoted strings.
fn strip_comment(line: &str, lineno: usize) -> Result<&str, ScenarioError> {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return Ok(&line[..i]),
            _ => {}
        }
    }
    if in_str {
        return Err(err(lineno, "unterminated string".into()));
    }
    Ok(line)
}

/// Parses one value: number, bool, string, or a flat array of numbers
/// or strings.
fn parse_value(text: &str, lineno: usize) -> Result<RawValue, ScenarioError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value after `=`".into()));
    }
    if text == "true" {
        return Ok(RawValue::Bool(true));
    }
    if text == "false" {
        return Ok(RawValue::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(err(lineno, format!("unterminated array {text:?}")));
        };
        let items = split_array_items(inner, lineno)?;
        if items.is_empty() {
            // An empty array's element type is ambiguous; every array
            // key in the format requires at least one element anyway.
            return Ok(RawValue::NumArr(Vec::new()));
        }
        if items[0].starts_with('"') {
            let strings = items
                .iter()
                .map(|item| parse_string(item, lineno))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(RawValue::StrArr(strings));
        }
        let nums = items
            .iter()
            .map(|item| parse_number(item, lineno))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(RawValue::NumArr(nums));
    }
    if text.starts_with('"') {
        return parse_string(text, lineno).map(RawValue::Str);
    }
    parse_number(text, lineno).map(RawValue::Num)
}

/// Splits `a, b, c` at top-level commas (commas inside strings kept).
fn split_array_items(inner: &str, lineno: usize) -> Result<Vec<String>, ScenarioError> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for ch in inner.chars() {
        if escaped {
            current.push(ch);
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_str => {
                current.push(ch);
                escaped = true;
            }
            '"' => {
                current.push(ch);
                in_str = !in_str;
            }
            ',' if !in_str => {
                items.push(current.trim().to_owned());
                current.clear();
            }
            c => current.push(c),
        }
    }
    if in_str {
        return Err(err(lineno, "unterminated string in array".into()));
    }
    let last = current.trim();
    if !last.is_empty() {
        items.push(last.to_owned());
    } else if !items.is_empty() {
        return Err(err(lineno, "trailing comma in array".into()));
    }
    if items.iter().any(String::is_empty) {
        return Err(err(lineno, "empty element in array".into()));
    }
    Ok(items)
}

fn parse_string(text: &str, lineno: usize) -> Result<String, ScenarioError> {
    let Some(body) = text.strip_prefix('"') else {
        return Err(err(
            lineno,
            format!("expected a quoted string, got {text:?}"),
        ));
    };
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    loop {
        match chars.next() {
            Some('"') => {
                let rest: &str = chars.as_str();
                if !rest.trim().is_empty() {
                    return Err(err(
                        lineno,
                        format!("unexpected trailing characters after string: {rest:?}"),
                    ));
                }
                return Ok(out);
            }
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    return Err(err(lineno, format!("unknown escape \\{other}")));
                }
                None => return Err(err(lineno, "unterminated string".into())),
            },
            Some(c) => out.push(c),
            None => return Err(err(lineno, "unterminated string".into())),
        }
    }
}

fn parse_number(text: &str, lineno: usize) -> Result<f64, ScenarioError> {
    let ok_charset = text
        .bytes()
        .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E' | b'_'));
    let cleaned = text.replace('_', "");
    let parsed = if ok_charset {
        cleaned.parse::<f64>().ok()
    } else {
        None
    };
    match parsed {
        Some(v) if v.is_finite() => Ok(v),
        _ => Err(err(lineno, format!("{text:?} is not a number"))),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A minimal valid scenario exercising every section.
    pub(crate) const MINIMAL: &str = r#"
schema = 1
name = "mini"
summary = "tiny test scenario"

[world]
peers = 8
cache = 3
range_m = 250
terrain_w_m = 500
terrain_h_m = 500
sim_mins = 5
warmup_mins = 1
query_secs = 20
update_secs = 120
churn_secs = 300
mix = "sc"

[mobility]
model = "manhattan"
block_m = 100
speed_mps = 8

[faults]
preset = "bursty"

[matrix]
strategies = ["rpcc", "push", "pull"]
seeds = [42, 43]

[gates]
min_fresh_fraction = 0.5
"#;

    #[test]
    fn minimal_scenario_parses_and_builds_a_valid_world() {
        let s = Scenario::parse(MINIMAL).expect("minimal scenario parses");
        assert_eq!(s.name, "mini");
        assert_eq!(s.peers, 8);
        assert_eq!(s.churn_secs, Some(300.0));
        assert_eq!(
            s.mobility,
            MobilitySpec::Manhattan {
                block_m: 100.0,
                speed_mps: 8.0
            }
        );
        assert_eq!(s.fault_preset, "bursty");
        assert_eq!(s.strategies.len(), 3);
        assert_eq!(s.seeds, vec![42, 43]);
        assert_eq!(s.gates.min_fresh_fraction, Some(0.5));
        for &strategy in &s.strategies {
            let cfg = s.world_config(strategy, 42);
            cfg.validate();
            assert_eq!(
                cfg.mobility,
                MobilityKind::Manhattan {
                    block: 100.0,
                    speed: 8.0
                }
            );
            assert_eq!(cfg.faults.label, "bursty");
        }
    }

    #[test]
    fn parse_serialize_parse_is_identity() {
        let s = Scenario::parse(MINIMAL).unwrap();
        let round = Scenario::parse(&s.to_toml()).expect("canonical form reparses");
        assert_eq!(round, s);
        // And serialisation is a fixed point.
        assert_eq!(round.to_toml(), s.to_toml());
    }

    #[test]
    fn errors_carry_the_offending_line() {
        // Line 3 (1-based) holds the bad key below.
        let text = "schema = 1\nname = \"x\"\nbogus_key = 7\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("bogus_key"), "{e}");

        let text = "schema = 1\nname = \"x\"\n[world]\npeers = \"many\"\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.msg.contains("peers"), "{e}");

        let text = "schema = 1\nname = \"x\"\n[nowhere]\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");

        let text = "schema = 2\nname = \"x\"\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.msg.contains("schema"), "{e}");
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let text = MINIMAL.replace(
            "summary = \"tiny test scenario\"",
            "summary = \"has # inside\" # and a real comment",
        );
        let s = Scenario::parse(&text).unwrap();
        assert_eq!(s.summary, "has # inside");
    }

    #[test]
    fn semantic_bounds_are_enforced() {
        for (needle, replacement) in [
            ("peers = 8", "peers = 1"),
            ("cache = 3", "cache = 8"),
            ("warmup_mins = 1", "warmup_mins = 9"),
            ("seeds = [42, 43]", "seeds = [-1]"),
            (
                "strategies = [\"rpcc\", \"push\", \"pull\"]",
                "strategies = [\"gossip\"]",
            ),
            ("preset = \"bursty\"", "preset = \"meteor\""),
            ("model = \"manhattan\"", "model = \"teleport\""),
            ("min_fresh_fraction = 0.5", "min_fresh_fraction = 1.5"),
        ] {
            let text = MINIMAL.replace(needle, replacement);
            assert!(
                Scenario::parse(&text).is_err(),
                "should reject {replacement:?}"
            );
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let text = MINIMAL.replace("peers = 8", "peers = 8\npeers = 9");
        let e = Scenario::parse(&text).unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
    }
}
