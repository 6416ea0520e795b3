//! The scenario corpus: a dependency-free TOML-subset format describing
//! one named simulation scenario end to end — terrain, mobility model,
//! workload mix, fault plan, strategy set, seeds and per-scenario gate
//! floors.
//!
//! A scenario file is the unit `mp2p matrix` sweeps: every
//! `(scenario, strategy, axis value, seed)` tuple becomes one matrix
//! cell ([`Cell`]). The format is a deliberately small TOML subset (the
//! workspace is dependency-free, so the parser is hand-rolled here, like
//! the JSON stack in `mp2p_trace::json`):
//!
//! * `# comment` lines and blank lines,
//! * `[section]` headers (`world`, `mobility`, `faults`, `matrix`,
//!   `gates`),
//! * `key = value` pairs where a value is a number, `true`/`false`, a
//!   `"string"` (`\"` and `\\` escapes), or a `[a, b, c]` array of
//!   values of one of those types.
//!
//! The `[world]`, `[mobility]` and `[faults]` keys are not known here by
//! name: they are the file spellings of the run-key table
//! ([`crate::keys::TABLE`]), which [`Scenario::parse`] walks to fill a
//! [`WorldConfig`] and [`Scenario::to_toml`] walks to write the
//! canonical form back (parse → serialise → parse is the identity,
//! covered by `tests/scenario_corpus.rs`). What a value may be is decided
//! by [`WorldConfig::check`] on the configuration the file built, not on
//! the text.
//!
//! `[matrix]` spans the cells: `strategies` (entries may carry their own
//! level mix, `"rpcc:dc"`, in the grammar of `mp2p run --strategy`),
//! `seeds`, and at most one **axis** — any of those same file keys with
//! an array of the values to sweep (`update_secs = [30, 60, 120]`), each
//! of which overrides the `[world]` value in its cells and is checked
//! like it.
//!
//! Errors are **line-accurate**: syntax errors, unknown keys, values of
//! the wrong type and every rule `check` reports are mapped back to the
//! 1-based line of the key that broke it.
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
//! strategies = ["rpcc:hy", "push"]
//! update_secs = [60, 120, 240]
//! seeds = [42]
//! "#;
//! let scenario = Scenario::parse(text).unwrap();
//! assert_eq!(scenario.name, "demo");
//! let cells = scenario.cells();
//! assert_eq!(cells.len(), 2 * 3 * 1);
//! let cfg = scenario.world_config(&cells[0]);
//! assert_eq!(cfg.check(), Ok(()));
//! assert_eq!(cfg.i_update.as_millis(), 60_000);
//! ```

use std::path::Path;

use mp2p_net::FaultPlan;
use mp2p_rpcc::{ConfigError, WorldConfig};
use mp2p_sim::SimDuration;

use crate::cli;
use crate::keys::{self, Reject, Row, Value};
use crate::sweep::StrategySpec;

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

/// Per-scenario absolute quality floors, checked by `mp2p matrix`
/// against every cell of the scenario. `None` disables the axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateFloors {
    /// Minimum served fresh fraction.
    pub min_fresh_fraction: Option<f64>,
    /// Maximum 95th-percentile query latency (seconds).
    pub max_p95_latency_secs: Option<f64>,
}

/// The one swept key of a scenario and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The swept run key, as `[world]`, `[mobility]` or `[faults]` spell it.
    pub key: &'static str,
    /// The values, in sweep order; never empty.
    pub values: Vec<Value>,
}

/// One cell of a scenario's sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The strategy and level mix of the run.
    pub strategy: StrategySpec,
    /// Which of the axis values the run takes; `None` in an unswept
    /// scenario.
    pub x: Option<usize>,
    /// Master seed of the run.
    pub seed: u64,
}

/// A horizon and seed count shorter than a file carries: what
/// `matrix --smoke` and `paper` without `--full` cut a scenario down to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horizon {
    /// Simulated duration per run.
    pub sim_time: SimDuration,
    /// Warm-up excluded from metrics.
    pub warmup: SimDuration,
    /// How many of the file's seeds to keep.
    pub seeds: usize,
}

/// Interactive use: 45 simulated minutes, 2 seeds. Also the horizon of
/// `mp2p run` without `--full`.
pub const QUICK: Horizon = Horizon {
    sim_time: SimDuration::from_mins(45),
    warmup: SimDuration::from_mins(10),
    seeds: 2,
};

/// One parsed scenario: the world its cells share, and the strategies,
/// axis values and seeds that span them.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (path-safe: `[a-z0-9-]`). Keys matrix cells.
    pub name: String,
    /// One-line human description.
    pub summary: String,
    /// The world of every cell: [`WorldConfig::paper_default`] with no
    /// churn, overridden by the file's `[world]`, `[mobility]` and
    /// `[faults]` keys — so every knob the format does not capture
    /// keeps its Table 1 value, which is what makes a scenario
    /// transcribing the defaults reproduce `mp2p run` byte for byte.
    /// Strategy and seed are placeholders until
    /// [`Scenario::world_config`] fills them in.
    pub world: WorldConfig,
    /// Strategies every seed is swept across; an entry without a mix of
    /// its own runs under the world's.
    pub strategies: Vec<StrategySpec>,
    /// The swept key, if the scenario has one.
    pub axis: Option<Axis>,
    /// Seeds every strategy is swept across.
    pub seeds: Vec<u64>,
    /// Absolute per-cell quality floors.
    pub gates: GateFloors,
}

impl Scenario {
    /// Every cell of the sweep: strategies, then axis values, then seeds.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        let xs: Vec<Option<usize>> = match &self.axis {
            Some(axis) => (0..axis.values.len()).map(Some).collect(),
            None => vec![None],
        };
        for &strategy in &self.strategies {
            for &x in &xs {
                let cell = |&seed| Cell { strategy, x, seed };
                cells.extend(self.seeds.iter().map(cell));
            }
        }
        cells
    }

    /// Builds the world configuration of one matrix cell. A fault
    /// preset is re-scaled here, against the horizon the cell actually
    /// runs ([`Scenario::shorten`] cuts it after parsing).
    pub fn world_config(&self, cell: &Cell) -> WorldConfig {
        let mut cfg = self.world.clone();
        cfg.strategy = cell.strategy.strategy;
        cfg.level_mix = cell.strategy.mix;
        cfg.seed = cell.seed;
        if let (Some(axis), Some(x)) = (&self.axis, self.x(cell)) {
            let row = keys::axis_row(axis.key).expect("an axis names a file row");
            (row.set)(&mut cfg, x).expect("axis values are of the row's type");
        }
        if let Some(rescaled) = FaultPlan::preset(cfg.faults.label, cfg.sim_time) {
            cfg.faults = rescaled;
        }
        cfg
    }

    /// The cell's strategy as its `strategies` entry spells it: the
    /// token, with the mix where it is not the world's (`rpcc:dc`).
    pub fn strategy_token(&self, spec: &StrategySpec) -> String {
        let token = cli::strategy_token(spec.strategy);
        if spec.mix == self.world.level_mix {
            token.to_owned()
        } else {
            format!("{token}:{}", spec.mix.label().to_ascii_lowercase())
        }
    }

    /// The axis value the cell takes; `None` in an unswept scenario.
    pub fn x(&self, cell: &Cell) -> Option<&Value> {
        self.axis.as_ref()?.values.get(cell.x?)
    }

    /// The cell's axis point as `key=value`; `None` in an unswept
    /// scenario.
    pub fn point(&self, cell: &Cell) -> Option<String> {
        let axis = self.axis.as_ref()?;
        Some(format!("{}={}", axis.key, self.x(cell)?))
    }

    /// Cuts the scenario down to a shorter horizon and fewer seeds. An
    /// axis value that no longer fits (a swept warm-up past the new
    /// horizon) is an error, never a panic further down.
    pub fn shorten(&mut self, to: Horizon) -> Result<(), String> {
        self.world.sim_time = to.sim_time;
        self.world.warmup = to.warmup;
        self.seeds.truncate(to.seeds);
        for cell in self.cells() {
            let fits = self.world_config(&cell).check();
            fits.map_err(|e| format!("scenario {} at {}: {e}", self.name, to.sim_time))?;
        }
        Ok(())
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
        let mut section = "";
        for row in &keys::TABLE {
            if let (Some(file), Some(value)) = (row.file, (row.get)(&self.world)) {
                if file.section != section {
                    section = file.section;
                    let _ = writeln!(s, "\n[{section}]");
                }
                let _ = writeln!(s, "{} = {}", file.key, render(&value));
            }
        }
        s.push_str("\n[matrix]\n");
        let tokens = self.strategies.iter().map(|spec| self.strategy_token(spec));
        let tokens: Vec<String> = tokens.map(|token| quote(&token)).collect();
        let _ = writeln!(s, "strategies = [{}]", tokens.join(", "));
        if let Some(axis) = &self.axis {
            let values = Value::List(axis.values.clone());
            let _ = writeln!(s, "{} = {}", axis.key, render(&values));
        }
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "seeds = [{}]", seeds.join(", "));
        let mut gates = self.gates;
        let floors = GATES.map(|(key, floor, ..)| (key, *floor(&mut gates)));
        if floors.iter().any(|(_, floor)| floor.is_some()) {
            s.push_str("\n[gates]\n");
        }
        for (key, floor) in floors {
            if let Some(v) = floor {
                let _ = writeln!(s, "{key} = {v}");
            }
        }
        s
    }

    fn from_document(doc: Document) -> Result<Self, ScenarioError> {
        let (schema, schema_line) = doc.require("", "schema", "a number", number)?;
        if schema != SCENARIO_SCHEMA as f64 {
            let msg = format!(
                "scenario schema {schema} unsupported (this build speaks {SCENARIO_SCHEMA})"
            );
            return Err(err(schema_line, msg));
        }
        let (name, name_line) = doc.require("", "name", "a string", string)?;
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
        let summary = doc.get("", "summary", "a string", string)?;
        let summary = summary.unwrap_or_default().0;

        let mut world = WorldConfig::paper_default(0);
        world.i_switch = None;
        for row in &keys::TABLE {
            let Some(file) = row.file else { continue };
            match doc.find(file.section, file.key) {
                Some((value, line)) => set(row, &mut world, value, line)?,
                None if file.required && (row.get)(&world).is_some() => {
                    let label = Document::section_label(file.section);
                    return Err(err(0, format!("missing key {:?} in {label}", file.key)));
                }
                None => {}
            }
        }
        world.check().map_err(|e| doc.locate(&e, &world, None))?;

        let (tokens, line) = doc.require("matrix", "strategies", "a string array", strings)?;
        if tokens.is_empty() {
            return Err(err(line, "strategies must not be empty".into()));
        }
        let strategies = cli::parse_strategy_set(&tokens.join(","), world.level_mix)
            .map_err(|msg| err(line, msg))?;
        let axis = doc.axis(&world)?;
        let (seeds, line) = doc.require("matrix", "seeds", "a number array", numbers)?;
        if seeds.is_empty() {
            return Err(err(line, "seeds must not be empty".into()));
        }
        let seeds = seeds.iter().map(|&n| {
            if n >= 0.0 && n.fract() == 0.0 && n <= 9.007_199_254_740_992e15 {
                Ok(n as u64)
            } else {
                Err(err(line, format!("seed {n} is not a non-negative integer")))
            }
        });
        let seeds = seeds.collect::<Result<Vec<_>, _>>()?;
        if let Some(seed) = cli::first_repeat(&seeds, u64::eq) {
            return Err(err(line, format!("seed {seed} listed twice")));
        }

        let mut gates = GateFloors::default();
        for (key, floor, in_range, expects) in GATES {
            if let Some((v, line)) = doc.get("gates", key, "a number", number)? {
                if !in_range(v) {
                    return Err(err(line, format!("{key} must be {expects}, got {v}")));
                }
                *floor(&mut gates) = Some(v);
            }
        }

        Ok(Scenario {
            name,
            summary,
            world,
            strategies,
            axis,
            seeds,
            gates,
        })
    }
}

/// Writes one file value through its row, wording a refusal at `line`.
fn set(
    row: &Row,
    world: &mut WorldConfig,
    value: &Value,
    line: usize,
) -> Result<(), ScenarioError> {
    let file = row.file.expect("a file row");
    (row.set)(world, value).map_err(|why| {
        let msg = match why {
            Reject::Type(want) => return wrong_type(file.key, want, value, line),
            Reject::Expects => out_of_range(row, value),
            Reject::Unknown(msg) => msg,
            Reject::Inapplicable => format!(
                "key {:?} does not apply in {} with this configuration",
                file.key,
                Document::section_label(file.section)
            ),
        };
        err(line, msg)
    })
}

/// A value that is not what its row expects, by type or by range.
fn out_of_range(row: &keys::Row, value: &Value) -> String {
    let key = row.file.map_or("", |f| f.key);
    format!("{key} must be {}, got {}", row.expects, render(value))
}

/// A value in the canonical TOML form.
fn render(value: &Value) -> String {
    match value {
        Value::Text(t) | Value::Arg(t) => quote(t),
        Value::List(v) => {
            let items: Vec<String> = v.iter().map(render).collect();
            format!("[{}]", items.join(", "))
        }
        plain => plain.to_string(),
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

fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Num(_) => "number",
        Value::Text(_) | Value::Arg(_) => "string",
        Value::Bool(_) => "boolean",
        Value::List(v) => match v.first() {
            Some(Value::Num(_)) | None => "number array",
            Some(Value::Bool(_)) => "boolean array",
            Some(_) => "string array",
        },
    }
}

fn wrong_type(key: &str, want: &str, value: &Value, line: usize) -> ScenarioError {
    let got = type_name(value);
    err(line, format!("{key} must be {want}, got a {got}"))
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

fn string(value: &Value) -> Option<String> {
    match value {
        Value::Text(t) => Some(t.clone()),
        _ => None,
    }
}

fn numbers(value: &Value) -> Option<Vec<f64>> {
    match value {
        Value::List(v) => v.iter().map(number).collect(),
        _ => None,
    }
}

fn strings(value: &Value) -> Option<Vec<String>> {
    match value {
        Value::List(v) => v.iter().map(string).collect(),
        _ => None,
    }
}

/// One `[gates]` key: the floor it sets, the range it must be in, and
/// that range in words.
type Gate = (
    &'static str,
    fn(&mut GateFloors) -> &mut Option<f64>,
    fn(f64) -> bool,
    &'static str,
);

const GATES: [Gate; 2] = [
    (
        "min_fresh_fraction",
        |g| &mut g.min_fresh_fraction,
        |v| (0.0..=1.0).contains(&v),
        "in [0,1]",
    ),
    (
        "max_p95_latency_secs",
        |g| &mut g.max_p95_latency_secs,
        |v| v > 0.0,
        "positive",
    ),
];

/// The flat `(section, key) -> (value, line)` form of a scenario file.
#[derive(Debug)]
struct Document {
    /// Entries in file order.
    entries: Vec<Entry>,
}

#[derive(Debug)]
struct Entry {
    section: String,
    key: String,
    value: Value,
    line: usize,
}

const SECTIONS: [&str; 6] = ["", "world", "mobility", "faults", "matrix", "gates"];

/// The keys outside the run-key table: what identifies the file and
/// what spans its cells (`[gates]` keys are [`GATES`]).
const OTHER_KEYS: [(&str, &str); 5] = [
    ("", "schema"),
    ("", "name"),
    ("", "summary"),
    ("matrix", "strategies"),
    ("matrix", "seeds"),
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
            // Checked here so an unknown key is reported on its own line
            // even when required keys are also missing.
            let known = keys::file_row(&section, key).is_some()
                || OTHER_KEYS.contains(&(section.as_str(), key))
                || (section == "matrix" && keys::axis_row(key).is_some())
                || (section == "gates" && GATES.iter().any(|gate| gate.0 == key));
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
            });
        }
        Ok(Document { entries })
    }

    fn find(&self, section: &str, key: &str) -> Option<(&Value, usize)> {
        self.entries
            .iter()
            .find(|e| e.section == section && e.key == key)
            .map(|e| (&e.value, e.line))
    }

    /// The `[matrix]` axis: the one key there that is a run key, with
    /// every element written through its row and checked in `world`.
    fn axis(&self, world: &WorldConfig) -> Result<Option<Axis>, ScenarioError> {
        let in_matrix = self.entries.iter().filter(|e| e.section == "matrix");
        let mut swept = in_matrix.filter_map(|e| Some((e, keys::axis_row(&e.key)?)));
        let Some((entry, row)) = swept.next() else {
            return Ok(None);
        };
        let (key, line) = (row.file.expect("a file row").key, entry.line);
        if let Some((second, _)) = swept.next() {
            let msg = format!(
                "{:?} is a second axis after {key:?} on line {line} (a scenario sweeps at most one key)",
                second.key
            );
            return Err(err(second.line, msg));
        }
        let Value::List(values) = &entry.value else {
            let got = type_name(&entry.value);
            let msg = format!(
                "{key} in section [matrix] must be an array of the values to sweep, got a {got}"
            );
            return Err(err(line, msg));
        };
        if values.is_empty() {
            return Err(err(line, format!("{key} must not be empty")));
        }
        if let Some(value) = cli::first_repeat(values, Value::eq) {
            let msg = format!("{key} value {} listed twice", render(value));
            return Err(err(line, msg));
        }
        for value in values {
            let mut cell = world.clone();
            set(row, &mut cell, value, line)?;
            let swept = Some((key, value, line));
            cell.check().map_err(|e| self.locate(&e, &cell, swept))?;
        }
        let values = values.clone();
        Ok(Some(Axis { key, values }))
    }

    /// Words a rule of [`WorldConfig::check`] in the file's spelling, at
    /// the line that set the offending field. A field by itself out of
    /// range reads like any other bad value; a rule between two fields
    /// names both keys, each with the value the file gave it (or the
    /// default in force where the file gave none). `swept` is the axis
    /// element in force, which overrides the key's `[world]` value.
    fn locate(
        &self,
        e: &ConfigError,
        world: &WorldConfig,
        swept: Option<(&str, &Value, usize)>,
    ) -> ScenarioError {
        let spelled = |field: &str| {
            let row = keys::TABLE
                .iter()
                .find(|r| r.field == field && r.file.is_some())?;
            let file = row.file?;
            let (value, line) = match (swept, self.find(file.section, file.key)) {
                (Some((key, value, line)), _) if key == file.key => (value.clone(), line),
                (_, Some((value, line))) => (value.clone(), line),
                _ => ((row.get)(world)?, 0),
            };
            Some((
                row,
                format!("{} ({})", file.key, render(&value)),
                value,
                line,
            ))
        };
        let Some((row, named, value, line)) = spelled(e.field) else {
            return err(0, e.to_string());
        };
        let Some(related) = e.related else {
            // Past the network layer's limit, not the key's documented range.
            if e.field == "n_peers" && world.n_peers >= 2 {
                return err(line, format!("{named} {}", e.reason));
            }
            return err(line, out_of_range(row, &value));
        };
        let reason = match spelled(related) {
            Some((_, other, ..)) => e.reason.replace(related, &other),
            None => e.reason.clone(),
        };
        err(line, format!("{named} {reason}"))
    }

    fn section_label(section: &str) -> String {
        if section.is_empty() {
            "the top of the file".to_owned()
        } else {
            format!("section [{section}]")
        }
    }

    /// What `[section] key` holds, as `pick` reads it: `None` when the
    /// file does not give the key, an error when it holds anything but
    /// `what`.
    fn get<T>(
        &self,
        section: &str,
        key: &str,
        what: &str,
        pick: fn(&Value) -> Option<T>,
    ) -> Result<Option<(T, usize)>, ScenarioError> {
        let Some((value, line)) = self.find(section, key) else {
            return Ok(None);
        };
        match pick(value) {
            Some(picked) => Ok(Some((picked, line))),
            None => Err(wrong_type(key, what, value, line)),
        }
    }

    /// [`Self::get`] for a key every file must give.
    fn require<T>(
        &self,
        section: &str,
        key: &str,
        what: &str,
        pick: fn(&Value) -> Option<T>,
    ) -> Result<(T, usize), ScenarioError> {
        let label = Self::section_label(section);
        self.get(section, key, what, pick)?
            .ok_or_else(|| err(0, format!("missing key {key:?} in {label}")))
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

/// Parses one value: number, bool, string, or a flat array of one of
/// those.
fn parse_value(text: &str, lineno: usize) -> Result<Value, ScenarioError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value after `=`".into()));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(err(lineno, format!("unterminated array {text:?}")));
        };
        let items = split_array_items(inner, lineno)?;
        // Checked before recursing: a line of nested `[` would otherwise
        // recurse once per bracket.
        if items.iter().any(|item| item.starts_with('[')) {
            return Err(err(lineno, "arrays do not nest".into()));
        }
        let items = items.iter().map(|item| parse_value(item, lineno));
        let items = items.collect::<Result<Vec<_>, _>>()?;
        let kind = |v: &Value| std::mem::discriminant(v);
        if let Some(odd) = items.iter().find(|v| kind(v) != kind(&items[0])) {
            let (first, got) = (type_name(&items[0]), type_name(odd));
            return Err(err(
                lineno,
                format!("array of {first} elements holds a {got}"),
            ));
        }
        return Ok(Value::List(items));
    }
    if text.starts_with('"') {
        return parse_string(text, lineno).map(Value::Text);
    }
    parse_number(text, lineno).map(Value::Num)
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
    use mp2p_rpcc::MobilityKind;
    use mp2p_sim::SimDuration;

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
        assert_eq!(s.world.n_peers, 8);
        assert_eq!(s.world.i_switch, Some(SimDuration::from_mins(5)));
        assert_eq!(s.world.faults.label, "bursty");
        assert_eq!(s.strategies.len(), 3);
        assert_eq!(s.seeds, vec![42, 43]);
        assert_eq!(s.gates.min_fresh_fraction, Some(0.5));
        assert_eq!(s.cells().len(), 3 * 2);
        for cell in s.cells() {
            let cfg = s.world_config(&cell);
            assert_eq!(cfg.check(), Ok(()));
            assert_eq!(
                (cfg.strategy, cfg.seed),
                (cell.strategy.strategy, cell.seed)
            );
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

    /// `MINIMAL` with `[matrix]` replaced.
    fn with_matrix(matrix: &str) -> String {
        let at = MINIMAL.find("[matrix]").unwrap();
        format!("{}[matrix]\n{matrix}\n", &MINIMAL[..at])
    }

    #[test]
    fn an_axis_and_per_entry_mixes_span_the_cells() {
        let text = with_matrix(
            "strategies = [\"pull\", \"rpcc:sc\", \"rpcc:dc\"]\n\
             update_secs = [30, 60]\nseeds = [7]",
        );
        let s = Scenario::parse(&text).expect("swept scenario parses");
        let axis = s.axis.as_ref().expect("update_secs is swept");
        assert_eq!(axis.key, "update_secs");
        assert_eq!(axis.values, [Value::Num(30.0), Value::Num(60.0)]);
        let names: Vec<&str> = s.strategies.iter().map(|spec| spec.name).collect();
        assert_eq!(names, ["Pull", "RPCC(SC)", "RPCC(DC)"]);
        // Strategy-major, then axis value, then seed; the axis value
        // overrides the [world] one and the entry's mix the world's.
        let cells = s.cells();
        assert_eq!(cells.len(), 3 * 2);
        let last = s.world_config(&cells[5]);
        assert_eq!(last.i_update, SimDuration::from_secs(60));
        assert_eq!(last.level_mix, mp2p_rpcc::LevelMix::delta_only());
        assert_eq!(s.world.i_update, SimDuration::from_secs(120));
        // An entry spells its mix only where it is not the world's.
        assert_eq!(s.strategy_token(&cells[2].strategy), "rpcc");
        assert_eq!(s.strategy_token(&cells[5].strategy), "rpcc:dc");
        assert_eq!(s.point(&cells[5]).as_deref(), Some("update_secs=60"));
        // parse(to_toml(s)) == s for a swept file, and it is a fixed point.
        let toml = s.to_toml();
        assert!(toml.contains("\nstrategies = [\"pull\", \"rpcc\", \"rpcc:dc\"]\nupdate_secs = [30, 60]\nseeds = [7]\n"), "{toml}");
        let back = Scenario::parse(&toml).expect("canonical form reparses");
        assert_eq!(back, s);
        assert_eq!(back.to_toml(), toml);
        // Any file key can be an axis, whatever its section and type.
        for axis in [
            "preset = [\"none\", \"bursty\"]",
            "speed_mps = [4, 8]",
            "hardened = [false, true]",
        ] {
            let text = with_matrix(&format!("strategies = [\"rpcc\"]\n{axis}\nseeds = [1]"));
            let s = Scenario::parse(&text).unwrap_or_else(|e| panic!("{axis}: {e}"));
            assert_eq!(s.cells().len(), 2, "{axis}");
            assert_eq!(Scenario::parse(&s.to_toml()).as_ref(), Ok(&s), "{axis}");
        }
    }

    #[test]
    fn a_bad_axis_names_its_line_and_element() {
        // [matrix], strategies, then the axis.
        let line = MINIMAL[..MINIMAL.find("[matrix]").unwrap()].lines().count() + 3;
        // Refused before recursing, not once per bracket into a stack overflow.
        let deep = format!(
            "update_secs = {}30{}",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        for (axis, wording) in [
            (
                "bogus = [1, 2]",
                "unknown key \"bogus\" in section [matrix]",
            ),
            (
                "update_secs = [30, 60]\nquery_secs = [5]",
                "\"query_secs\" is a second axis after \"update_secs\"",
            ),
            ("update_secs = []", "update_secs must not be empty"),
            (
                "update_secs = 30",
                "update_secs in section [matrix] must be an array",
            ),
            (
                "update_secs = [30, 0.0001]",
                "update_secs must be a positive number of seconds, got 0.0001",
            ),
            (
                "cache = [2, 8]",
                "cache (8) must be below the number of foreign items (7)",
            ),
            (
                "warmup_mins = [1, 7]",
                "warmup_mins (7) must end before sim_mins (5) does",
            ),
            ("peers = [\"many\"]", "peers must be a number, got a string"),
            (
                "peers = [4, \"many\"]",
                "array of number elements holds a string",
            ),
            ("update_secs = [30, [60]]", "arrays do not nest"),
            (deep.as_str(), "arrays do not nest"),
            (
                "epoch_secs = [60]",
                "key \"epoch_secs\" does not apply in section [mobility]",
            ),
        ] {
            let text = with_matrix(&format!("strategies = [\"rpcc\"]\n{axis}\nseeds = [1]"));
            let e = Scenario::parse(&text).unwrap_err();
            let second_axis = usize::from(wording.contains("second axis"));
            assert_eq!(e.line, line + second_axis, "{axis}: {e}");
            assert!(e.msg.starts_with(wording), "{axis}: {e}");
        }
        // Shortening re-checks the axis: a swept warm-up past the new
        // horizon is an error, not a panic in the world.
        let text = with_matrix("strategies = [\"rpcc\"]\nwarmup_mins = [1, 4]\nseeds = [1, 2]");
        let mut s = Scenario::parse(&text).unwrap();
        let short = Horizon {
            sim_time: SimDuration::from_mins(3),
            warmup: SimDuration::from_mins(1),
            seeds: 1,
        };
        let e = s.shorten(short).unwrap_err();
        assert!(e.starts_with("scenario mini at 3min: warmup"), "{e}");
        let mut unswept = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(unswept.shorten(short), Ok(()));
        assert_eq!(
            (unswept.world.sim_time, &unswept.seeds[..]),
            (short.sim_time, &[42][..])
        );
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

    /// Every value that used to reach a panic or a hang inside the model
    /// — or the fault-plan scaler — is a line-accurate error instead.
    #[test]
    fn values_the_model_cannot_run_name_their_line() {
        let walk = "model = \"walk\"\nspeed_min_mps = 1\nspeed_max_mps = 2\nepoch_secs = 0.0001";
        let manhattan = "model = \"manhattan\"\nblock_m = 100\nspeed_mps = 8";
        for (needle, replacement, line, wording) in [
            (
                "query_secs = 20",
                "query_secs = 0.0001",
                14,
                "query_secs must be a positive number of seconds, got 0.0001",
            ),
            (
                "update_secs = 120",
                "update_secs = 1e-9",
                15,
                "update_secs must be a positive",
            ),
            (
                "churn_secs = 300",
                "churn_secs = 0.0004",
                16,
                "churn_secs must be a positive",
            ),
            (
                "churn_secs = 300",
                "consistency_sample_secs = 0.0001",
                16,
                "consistency_sample_secs must be",
            ),
            (
                "sim_mins = 5",
                "sim_mins = 1e300",
                12,
                "sim_mins must be a positive number of minutes, got 1000",
            ),
            (
                "query_secs = 20",
                "query_secs = -5",
                14,
                "query_secs must be",
            ),
            (
                "peers = 8",
                "peers = 2.5",
                7,
                "peers must be an integer >= 2, got 2.5",
            ),
            (
                manhattan,
                walk,
                23,
                "epoch_secs must be an epoch of 0.001 s or more, got 0.0001",
            ),
            (
                "block_m = 100",
                "block_m = 1e-9",
                21,
                "block_m must be a block edge of 1 m or more",
            ),
            (
                "block_m = 100",
                "block_m = 501",
                21,
                "block_m must be a block edge of 1 m or more that fits the terrain, got 501",
            ),
            (
                "speed_mps = 8",
                "speed_mps = 1e-300",
                22,
                "speed_mps must be a speed of 0.001 to 1000 m/s",
            ),
            (
                "speed_mps = 8",
                "speed_mps = 1e308",
                22,
                "speed_mps must be a speed",
            ),
            (
                "speed_mps = 8",
                "speed_mps = 8\nepoch_secs = 60",
                23,
                "key \"epoch_secs\" does not apply in section [mobility]",
            ),
            (
                "speed_mps = 8",
                "",
                0,
                "missing key \"speed_mps\" in section [mobility]",
            ),
            (
                manhattan,
                "model = \"walk\"\nspeed_min_mps = 3\nspeed_max_mps = 1\nepoch_secs = 60",
                21,
                "speed_min_mps (3) must not exceed speed_max_mps (1)",
            ),
        ] {
            assert!(MINIMAL.contains(needle), "{needle:?}");
            let e = Scenario::parse(&MINIMAL.replace(needle, replacement)).unwrap_err();
            assert_eq!(e.line, line, "{replacement:?}: {e}");
            assert!(e.msg.starts_with(wording), "{replacement:?}: {e}");
        }
        // One rule for both front ends: a run may start measuring at once.
        let s = Scenario::parse(&MINIMAL.replace("warmup_mins = 1", "warmup_mins = 0")).unwrap();
        assert!(s.world.warmup.is_zero());
    }

    /// Every file row, set to a value other than the parser's base, shows
    /// up in the canonical form under its own key and parses back to the
    /// same configuration; and re-applying what a row reads is a no-op.
    #[test]
    fn every_file_row_round_trips_through_the_canonical_form() {
        let base = Scenario::parse(MINIMAL).unwrap();
        for row in &keys::TABLE {
            // An axis names a row by its key alone.
            let same_key = |r: &&Row| r.file.map(|f| f.key) == row.file.map(|f| f.key);
            assert!(row.file.is_none() || keys::TABLE.iter().filter(same_key).count() == 1);
            let paper = WorldConfig::paper_default(7);
            if let Some(value) = (row.get)(&paper) {
                let mut again = paper.clone();
                assert_eq!((row.set)(&mut again, &value), Ok(()), "{}", row.field);
                assert_eq!(
                    again, paper,
                    "set(get) must be the identity on {}",
                    row.field
                );
            }
            let Some(file) = row.file else { continue };
            // A model the parameter belongs to, then a non-default value.
            let mut s = base.clone();
            for (model, _) in [("waypoint", ()), ("walk", ()), ("manhattan", ())] {
                if (row.get)(&s.world).is_none() && file.section == "mobility" {
                    let model_row = keys::file_row("mobility", "model").unwrap();
                    (model_row.set)(&mut s.world, &Value::Text(model.to_owned())).unwrap();
                }
            }
            let token = match file.key {
                "workload" => "single-item",
                "mix" => "hy",
                "model" => "walk",
                "routing" => "oracle",
                _ => "crash",
            };
            // 4 is off the Table 1 value of every knob the canonical
            // form leaves out at its default.
            let next = match (row.get)(&s.world) {
                Some(Value::Num(n)) => n + 1.0,
                _ => 4.0,
            };
            let candidates = [
                Value::Num(next),
                Value::Text(token.to_owned()),
                Value::Bool(true),
            ];
            let takes = |v: &&Value| (row.set)(&mut s.world.clone(), v).is_ok();
            let changed = candidates
                .iter()
                .find(takes)
                .expect("a row takes some type");
            assert_eq!((row.set)(&mut s.world, changed), Ok(()), "{}", file.key);
            if s.world.check().is_err() {
                // The +1 broke a relation (speed_min past speed_max):
                // raise the other side too.
                s.world.mobility = MobilityKind::Walk {
                    speed_min: 1.5,
                    speed_max: 3.5,
                    epoch: SimDuration::from_secs(60),
                };
            }
            let toml = s.to_toml();
            let line = format!(
                "\n{} = {}\n",
                file.key,
                render(&(row.get)(&s.world).unwrap())
            );
            assert!(toml.contains(&line), "{} missing from:\n{toml}", file.key);
            assert_eq!(Scenario::parse(&toml).as_ref(), Ok(&s), "{}", file.key);
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let text = MINIMAL.replace("peers = 8", "peers = 8\npeers = 9");
        let e = Scenario::parse(&text).unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
    }
}
