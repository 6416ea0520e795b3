//! The run-key table: the one place a run parameter is spelled.
//!
//! A run is described by `mp2p run` flags or by a scenario file; both
//! end in a [`WorldConfig`]. Each [`Row`] of [`TABLE`] is one parameter:
//! its file spelling, its flag spelling (a row may have only one of the
//! two), how a value is written into the configuration and read back
//! out, and the words a usage error says it `expects`. Three loops walk
//! the table — [`crate::scenario`] reads a document and emits the
//! canonical one, [`crate::run`] applies flags as overrides — and none
//! of them knows a parameter by name.
//!
//! A row converts; it does not judge. `set` fails only when the text is
//! not a value of the field's type (not a number, negative where the
//! type is unsigned, too long for 64-bit milliseconds, not a token of
//! the vocabulary). Every range and cross-field rule lives in
//! [`WorldConfig::check`], which the front ends call on the built
//! configuration and whose [`mp2p_rpcc::ConfigError::field`] they map
//! back to a row through [`Row::field`].
//!
//! Adding a parameter is one row here, plus one clause in `check` if it
//! has a rule.

use mp2p_mobility::Terrain;
use mp2p_rpcc::{
    MobilityKind, ObservatoryConfig, ProtocolConfig, ProvenanceConfig, RecoveryConfig, RoutingMode,
    WorkloadMode, WorldConfig,
};
use mp2p_sim::SimDuration;

use crate::cli;

/// A value between its text and the configuration: what a scenario file
/// holds after `=`, and what a flag's argument is wrapped in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number a scenario file gave, or `get` reads back.
    Num(f64),
    /// A file string.
    Text(String),
    /// A file boolean, or `true` for a bare switch that was given.
    Bool(bool),
    /// The raw text that followed a flag (numeric rows parse it with the
    /// field's own type, so `--seed` keeps all 64 bits).
    Arg(String),
    /// A file array of values of one type (`seeds`, `strategies`, a
    /// sweep axis; no row takes one — an axis hands a row its elements).
    List(Vec<Value>),
}

/// The bare value, as a table cell or a cell key shows it (the canonical
/// file form, which quotes strings, is `scenario.rs`'s business).
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Text(t) | Value::Arg(t) => f.write_str(t),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(v) => {
                let items: Vec<String> = v.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

/// Why a row's `set` refused a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Not what the row's `expects` says (the front end words it).
    Expects,
    /// A file value of another type than the row takes, which is this
    /// one ("a number").
    Type(&'static str),
    /// An unknown token; the message names the vocabulary.
    Unknown(String),
    /// The parameter belongs to a different mobility model.
    Inapplicable,
}

/// Where a row appears in a scenario file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileKey {
    /// `[section]` the key lives under.
    pub section: &'static str,
    /// The key.
    pub key: &'static str,
    /// Whether a file must give it whenever it applies.
    pub required: bool,
}

/// One run parameter.
#[derive(Debug)]
pub struct Row {
    /// The [`WorldConfig`] field this row writes, as
    /// [`WorldConfig::check`] names it.
    pub field: &'static str,
    /// Scenario-file spelling, if files can set it.
    pub file: Option<FileKey>,
    /// `mp2p run` spelling, if a flag can set it.
    pub flag: Option<&'static str>,
    /// What a value must be, in the words that follow "`--flag`
    /// expects" and "`key` must be".
    pub expects: &'static str,
    /// Converts a value and writes it.
    pub set: fn(&mut WorldConfig, &Value) -> Result<(), Reject>,
    /// Reads the parameter back in file units; `None` when the canonical
    /// file omits it (a switch that is off, another model's parameter).
    pub get: fn(&WorldConfig) -> Option<Value>,
}

/// A finite number.
fn real(v: &Value) -> Result<f64, Reject> {
    let n = match v {
        Value::Num(n) => Some(*n),
        Value::Arg(t) => t.parse().ok(),
        _ => return Err(Reject::Type("a number")),
    };
    n.filter(|n| n.is_finite()).ok_or(Reject::Expects)
}

/// A non-negative integer that fits the field's own type.
fn whole<T: std::str::FromStr + TryFrom<u64>>(v: &Value) -> Result<T, Reject> {
    let n = match v {
        Value::Num(n) if n.fract() == 0.0 && (0.0..=1e12).contains(n) => {
            T::try_from(*n as u64).ok()
        }
        Value::Num(_) => None,
        Value::Arg(t) => t.parse().ok(),
        _ => return Err(Reject::Type("a number")),
    };
    n.ok_or(Reject::Expects)
}

/// A duration given in units of `unit` seconds that fits the clock.
fn span(v: &Value, unit: f64) -> Result<SimDuration, Reject> {
    SimDuration::try_from_secs_f64(real(v)? * unit).ok_or(Reject::Expects)
}

/// A terrain side: [`Terrain`] holds only finite positive sizes.
fn side(v: &Value) -> Result<f64, Reject> {
    real(v).and_then(|m| if m > 0.0 { Ok(m) } else { Err(Reject::Expects) })
}

/// A token of `parse`'s vocabulary.
fn token<T>(v: &Value, parse: impl Fn(&str) -> Result<T, String>) -> Result<T, Reject> {
    let (Value::Text(t) | Value::Arg(t)) = v else {
        return Err(Reject::Type("a string"));
    };
    parse(t).map_err(Reject::Unknown)
}

/// Whether a switch was turned on (a file may say `hardened = false`).
fn on(v: &Value) -> Result<bool, Reject> {
    match v {
        Value::Bool(on) => Ok(*on),
        _ => Err(Reject::Type("true or false")),
    }
}

fn num(n: f64) -> Option<Value> {
    Some(Value::Num(n))
}

fn text(t: &str) -> Option<Value> {
    Some(Value::Text(t.to_owned()))
}

fn units(d: SimDuration, unit: f64) -> Option<Value> {
    num(d.as_secs_f64() / unit)
}

/// `true` for a switch that is on: the canonical file omits one that is
/// off.
fn shown(on: bool) -> Option<Value> {
    on.then_some(Value::Bool(true))
}

/// A protocol knob, shown only off its Table 1 value: the canonical file
/// of a scenario that leaves it alone does not mention it.
fn knob(c: &WorldConfig, read: fn(&ProtocolConfig) -> u8) -> Option<Value> {
    let now = read(&c.proto);
    (now != read(&ProtocolConfig::default())).then(|| Value::Num(now.into()))
}

/// Writes `value` into a mobility parameter the current model has.
fn put<T>(slot: Option<&mut T>, value: T) -> Result<(), Reject> {
    slot.map(|s| *s = value).ok_or(Reject::Inapplicable)
}

fn speed_min(m: &mut MobilityKind) -> Option<&mut f64> {
    match m {
        MobilityKind::Waypoint { speed_min, .. } | MobilityKind::Walk { speed_min, .. } => {
            Some(speed_min)
        }
        _ => None,
    }
}

fn speed_max(m: &mut MobilityKind) -> Option<&mut f64> {
    match m {
        MobilityKind::Waypoint { speed_max, .. } | MobilityKind::Walk { speed_max, .. } => {
            Some(speed_max)
        }
        _ => None,
    }
}

fn max_pause(m: &mut MobilityKind) -> Option<&mut SimDuration> {
    match m {
        MobilityKind::Waypoint { max_pause, .. } => Some(max_pause),
        _ => None,
    }
}

fn epoch(m: &mut MobilityKind) -> Option<&mut SimDuration> {
    match m {
        MobilityKind::Walk { epoch, .. } => Some(epoch),
        _ => None,
    }
}

fn block(m: &mut MobilityKind) -> Option<&mut f64> {
    match m {
        MobilityKind::Manhattan { block, .. } => Some(block),
        _ => None,
    }
}

fn speed(m: &mut MobilityKind) -> Option<&mut f64> {
    match m {
        MobilityKind::Manhattan { speed, .. } => Some(speed),
        _ => None,
    }
}

fn workload(name: &str) -> Result<WorkloadMode, String> {
    let known = WORKLOADS.iter().find(|(n, _)| *n == name);
    known
        .map(|(_, mode)| *mode)
        .ok_or_else(|| format!("unknown workload {name:?} (cached-uniform|single-item)"))
}

fn routing(name: &str) -> Result<RoutingMode, String> {
    match name {
        "on-demand" => Ok(RoutingMode::OnDemand),
        "oracle" => Ok(RoutingMode::Oracle),
        _ => Err(format!("unknown routing {name:?} (on-demand|oracle)")),
    }
}

fn model(name: &str) -> Result<MobilityKind, String> {
    let known = MODELS.iter().find(|(n, _)| *n == name);
    known.map(|(_, kind)| *kind).ok_or_else(|| {
        format!("unknown mobility model {name:?} (waypoint|walk|manhattan|stationary)")
    })
}

fn model_name(kind: &MobilityKind) -> Option<Value> {
    let same =
        |(_, m): &&(&str, MobilityKind)| std::mem::discriminant(m) == std::mem::discriminant(kind);
    MODELS.iter().find(same).and_then(|(name, _)| text(name))
}

const MINUTE: f64 = 60.0;
const SECOND: f64 = 1.0;
const SECONDS: &str = "a positive number of seconds";
const SPEED: &str = "a speed of 0.001 to 1000 m/s";
const MIXES: [&str; 4] = ["sc", "dc", "wc", "hy"];
const WORKLOADS: [(&str, WorkloadMode); 2] = [
    ("cached-uniform", WorkloadMode::CachedUniform),
    ("single-item", WorkloadMode::SingleItem),
];

/// The models by file token, each with the parameters it takes when a
/// `--mobility` token leaves them out (a file must give them all).
#[rustfmt::skip]
const MODELS: [(&str, MobilityKind); 4] = [
    ("waypoint",   MobilityKind::Waypoint { speed_min: 0.5, speed_max: 2.5, max_pause: SimDuration::from_secs(30) }),
    ("walk",       MobilityKind::Walk { speed_min: 0.5, speed_max: 2.5, epoch: SimDuration::from_secs(60) }),
    ("manhattan",  MobilityKind::Manhattan { block: 150.0, speed: 8.0 }),
    ("stationary", MobilityKind::Stationary),
];

/// The defaults a row overrides: no spelling, nothing to read back.
const ROW: Row = Row {
    field: "",
    file: None,
    flag: None,
    expects: "",
    set: |_, _| Err(Reject::Inapplicable),
    get: |_| None,
};

/// A key a file must give whenever it applies.
const fn req(section: &'static str, key: &'static str) -> Option<FileKey> {
    let required = true;
    Some(FileKey {
        section,
        key,
        required,
    })
}

/// A key a file may leave out.
const fn opt(section: &'static str, key: &'static str) -> Option<FileKey> {
    let required = false;
    Some(FileKey {
        section,
        key,
        required,
    })
}

/// Every run parameter, one per entry — hand-aligned, spelling and
/// wording on the first line, conversion below it. File rows are in
/// canonical file order; a row that builds on another's value
/// (`--sample-secs` on `--consistency`, a mobility parameter on the
/// model, the fault preset on the horizon it scales to) comes after it.
#[rustfmt::skip]
pub static TABLE: [Row; 38] = [
    Row { field: "n_peers", file: req("world", "peers"), flag: Some("--peers"), expects: "an integer >= 2",
          set: |c, v| whole(v).map(|n| c.n_peers = n), get: |c| num(c.n_peers as f64) },
    Row { field: "c_num", file: req("world", "cache"), flag: Some("--cache"), expects: "an integer >= 1",
          set: |c, v| whole(v).map(|n| c.c_num = n), get: |c| num(c.c_num as f64) },
    Row { field: "range", file: req("world", "range_m"), flag: Some("--range"), expects: "a positive range in metres",
          set: |c, v| real(v).map(|m| c.range = m), get: |c| num(c.range) },
    Row { field: "terrain", file: req("world", "terrain_w_m"), expects: "a positive width in metres",
          set: |c, v| side(v).map(|w| c.terrain = Terrain::new(w, c.terrain.height())),
          get: |c| num(c.terrain.width()), ..ROW },
    Row { field: "terrain", file: req("world", "terrain_h_m"), expects: "a positive height in metres",
          set: |c, v| side(v).map(|h| c.terrain = Terrain::new(c.terrain.width(), h)),
          get: |c| num(c.terrain.height()), ..ROW },
    Row { field: "terrain", flag: Some("--terrain"), expects: "a positive side in metres",
          set: |c, v| side(v).map(|m| c.terrain = Terrain::new(m, m)), ..ROW },
    Row { field: "sim_time", file: req("world", "sim_mins"), flag: Some("--sim"), expects: "a positive number of minutes",
          set: |c, v| span(v, MINUTE).map(|d| c.sim_time = d), get: |c| units(c.sim_time, MINUTE) },
    Row { field: "warmup", file: req("world", "warmup_mins"), flag: Some("--warmup"), expects: "a non-negative number of minutes",
          set: |c, v| span(v, MINUTE).map(|d| c.warmup = d), get: |c| units(c.warmup, MINUTE) },
    Row { field: "i_query", file: req("world", "query_secs"), flag: Some("--query-secs"), expects: SECONDS,
          set: |c, v| span(v, SECOND).map(|d| c.i_query = d), get: |c| units(c.i_query, SECOND) },
    Row { field: "i_update", file: req("world", "update_secs"), flag: Some("--update-secs"), expects: SECONDS,
          set: |c, v| span(v, SECOND).map(|d| c.i_update = d), get: |c| units(c.i_update, SECOND) },
    Row { field: "i_write", flag: Some("--write-secs"), expects: SECONDS,
          set: |c, v| span(v, SECOND).map(|d| c.i_write = Some(d)), ..ROW },
    Row { field: "i_switch", file: opt("world", "churn_secs"), expects: SECONDS,
          set: |c, v| span(v, SECOND).map(|d| c.i_switch = Some(d)), get: |c| units(c.i_switch?, SECOND), ..ROW },
    Row { field: "i_switch", flag: Some("--no-churn"),
          set: |c, _| { c.i_switch = None; Ok(()) }, ..ROW },
    Row { field: "workload", file: opt("world", "workload"),
          set: |c, v| token(v, workload).map(|mode| c.workload = mode),
          get: |c| WORKLOADS.iter().find(|(_, mode)| *mode == c.workload).and_then(|(name, _)| text(name)), ..ROW },
    Row { field: "workload", flag: Some("--single-item"),
          set: |c, _| { c.workload = WorkloadMode::SingleItem; Ok(()) }, ..ROW },
    Row { field: "level_mix", file: opt("world", "mix"),
          set: |c, v| token(v, cli::parse_mix).map(|mix| c.level_mix = mix),
          get: |c| MIXES.iter().find(|t| cli::parse_mix(t) == Ok(c.level_mix)).and_then(|t| text(t)), ..ROW },
    Row { field: "proto.hardened", file: opt("world", "hardened"), flag: Some("--hardened"),
          set: |c, v| { if on(v)? { c.proto = c.proto.hardened() }; Ok(()) },
          get: |c| shown(c.proto.hardened), ..ROW },
    Row { field: "proto.recovery.on", file: opt("world", "recovery"), flag: Some("--recovery"),
          set: |c, v| { if on(v)? { c.proto.recovery = RecoveryConfig::on() }; Ok(()) },
          get: |c| shown(c.proto.recovery.enabled()), ..ROW },
    Row { field: "observatory", flag: Some("--consistency"),
          set: |c, _| { c.observatory = ObservatoryConfig::full(SimDuration::from_secs(30)); Ok(()) }, ..ROW },
    Row { field: "observatory.sample_period", file: opt("world", "consistency_sample_secs"), flag: Some("--sample-secs"),
          expects: SECONDS,
          set: |c, v| span(v, SECOND).map(|d| c.observatory = ObservatoryConfig::full(d)),
          get: |c| units(c.observatory.sample_period?, SECOND) },
    Row { field: "proto.invalidation_ttl", file: opt("world", "invalidation_ttl"), flag: Some("--ttl"),
          expects: "a hop count in 1..=255",
          set: |c, v| whole(v).map(|hops| c.proto.invalidation_ttl = hops),
          get: |c| knob(c, |p| p.invalidation_ttl) },
    Row { field: "proto.poll_ttl", file: opt("world", "poll_ttl"), expects: "a hop count of 1 to 8",
          set: |c, v| whole(v).map(|hops| c.proto.poll_ttl = hops), get: |c| knob(c, |p| p.poll_ttl), ..ROW },
    Row { field: "proto.demote_grace_ticks", file: opt("world", "demote_grace_ticks"), expects: "a tick count of 1 or more",
          set: |c, v| whole(v).map(|ticks| c.proto.demote_grace_ticks = ticks),
          get: |c| knob(c, |p| p.demote_grace_ticks), ..ROW },
    Row { field: "proto.max_relays_per_item", file: opt("world", "relay_cap"), flag: Some("--relay-cap"),
          expects: "an integer >= 1",
          set: |c, v| whole(v).map(|n| c.proto.max_relays_per_item = Some(n)),
          get: |c| num(c.proto.max_relays_per_item? as f64) },
    Row { field: "proto.adaptive", file: opt("world", "adaptive"), flag: Some("--adaptive"),
          set: |c, v| on(v).map(|adaptive| c.proto.adaptive = adaptive),
          get: |c| shown(c.proto.adaptive), ..ROW },
    Row { field: "routing", file: opt("world", "routing"),
          set: |c, v| token(v, routing).map(|mode| c.routing = mode),
          get: |c| match c.routing { RoutingMode::Oracle => text("oracle"), RoutingMode::OnDemand => None }, ..ROW },
    Row { field: "mobility", file: req("mobility", "model"),
          set: |c, v| token(v, model).map(|kind| c.mobility = kind), get: |c| model_name(&c.mobility), ..ROW },
    Row { field: "mobility.speed_min", file: req("mobility", "speed_min_mps"), expects: SPEED,
          set: |c, v| put(speed_min(&mut c.mobility), real(v)?),
          get: |c| num(*speed_min(&mut { c.mobility })?), ..ROW },
    Row { field: "mobility.speed_max", file: req("mobility", "speed_max_mps"), expects: SPEED,
          set: |c, v| put(speed_max(&mut c.mobility), real(v)?),
          get: |c| num(*speed_max(&mut { c.mobility })?), ..ROW },
    Row { field: "mobility.max_pause", file: req("mobility", "max_pause_secs"), expects: "a pause of 0 s or more",
          set: |c, v| put(max_pause(&mut c.mobility), span(v, SECOND)?),
          get: |c| units(*max_pause(&mut { c.mobility })?, SECOND), ..ROW },
    Row { field: "mobility.epoch", file: req("mobility", "epoch_secs"), expects: "an epoch of 0.001 s or more",
          set: |c, v| put(epoch(&mut c.mobility), span(v, SECOND)?),
          get: |c| units(*epoch(&mut { c.mobility })?, SECOND), ..ROW },
    Row { field: "mobility.block", file: req("mobility", "block_m"),
          expects: "a block edge of 1 m or more that fits the terrain",
          set: |c, v| put(block(&mut c.mobility), real(v)?),
          get: |c| num(*block(&mut { c.mobility })?), ..ROW },
    Row { field: "mobility.speed", file: req("mobility", "speed_mps"), expects: SPEED,
          set: |c, v| put(speed(&mut c.mobility), real(v)?),
          get: |c| num(*speed(&mut { c.mobility })?), ..ROW },
    Row { field: "link.loss_prob", flag: Some("--loss"), expects: "a probability in [0,1]",
          set: |c, v| real(v).map(|p| c.link.loss_prob = p), ..ROW },
    Row { field: "seed", flag: Some("--seed"), expects: "a non-negative integer",
          set: |c, v| whole(v).map(|n| c.seed = n), ..ROW },
    Row { field: "routing", flag: Some("--oracle-routing"),
          set: |c, _| { c.routing = RoutingMode::Oracle; Ok(()) }, ..ROW },
    Row { field: "provenance", flag: Some("--provenance"),
          set: |c, _| { c.provenance = ProvenanceConfig::full(); Ok(()) }, ..ROW },
    Row { field: "faults", file: opt("faults", "preset"), flag: Some("--faults"),
          set: |c, v| token(v, |name| cli::parse_faults(name, c.sim_time)).map(|plan| c.faults = plan),
          get: |c| text(c.faults.label), ..ROW },
];

/// The row a scenario file spells `[section] key`.
pub fn file_row(section: &str, key: &str) -> Option<&'static Row> {
    let spelled = |f: FileKey| f.section == section && f.key == key;
    TABLE.iter().find(|r| r.file.is_some_and(spelled))
}

/// The row a `[matrix]` axis spells `key`: a file key names one row
/// whatever its section, so an axis does not repeat the section.
pub fn axis_row(key: &str) -> Option<&'static Row> {
    TABLE.iter().find(|r| r.file.is_some_and(|f| f.key == key))
}
