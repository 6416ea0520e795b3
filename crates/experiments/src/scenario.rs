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
//! The `[world]`, `[mobility]` and `[faults]` keys are not known here by
//! name: they are the file spellings of the run-key table
//! ([`crate::keys::TABLE`]), which [`Scenario::parse`] walks to fill a
//! [`WorldConfig`] and [`Scenario::to_toml`] walks to write the
//! canonical form back (parse → serialise → parse is the identity,
//! covered by `tests/scenario_corpus.rs`). What a value may be is decided
//! by [`WorldConfig::check`] on the configuration the file built, not on
//! the text.
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
//! strategies = ["rpcc", "push"]
//! seeds = [42]
//! "#;
//! let scenario = Scenario::parse(text).unwrap();
//! assert_eq!(scenario.name, "demo");
//! let cfg = scenario.world_config(scenario.strategies[0], 42);
//! assert_eq!(cfg.check(), Ok(()));
//! ```

use std::path::Path;

use mp2p_net::FaultPlan;
use mp2p_rpcc::{ConfigError, Strategy, World, WorldConfig};

use crate::cli;
use crate::keys::{self, Reject, Value};

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
    /// Minimum event-loop throughput (events/sec; wall-clock, so only
    /// meaningful on known hardware — prefer the baseline gate in CI).
    pub min_events_per_sec: Option<f64>,
}

/// One parsed scenario: the world its cells share, and the strategies
/// and seeds that span them.
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
    /// Strategies every seed is swept across.
    pub strategies: Vec<Strategy>,
    /// Seeds every strategy is swept across.
    pub seeds: Vec<u64>,
    /// Absolute per-cell quality floors.
    pub gates: GateFloors,
}

impl Scenario {
    /// Builds the world configuration of one matrix cell. A fault
    /// preset is re-scaled here, against the horizon the cell actually
    /// runs (`matrix --smoke` shortens it after parsing).
    pub fn world_config(&self, strategy: Strategy, seed: u64) -> WorldConfig {
        let mut cfg = self.world.clone();
        cfg.strategy = strategy;
        cfg.seed = seed;
        if let Some(rescaled) = FaultPlan::preset(cfg.faults.label, cfg.sim_time) {
            cfg.faults = rescaled;
        }
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
        let tokens: Vec<String> = self
            .strategies
            .iter()
            .map(|&st| quote(cli::strategy_token(st)))
            .collect();
        let _ = writeln!(s, "strategies = [{}]", tokens.join(", "));
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
                Some((value, line)) => {
                    (row.set)(&mut world, value).map_err(|why| {
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
                    })?;
                }
                None if file.required && (row.get)(&world).is_some() => {
                    let label = Document::section_label(file.section);
                    return Err(err(0, format!("missing key {:?} in {label}", file.key)));
                }
                None => {}
            }
        }
        world.check().map_err(|e| doc.locate(&e, &world))?;

        let (tokens, line) = doc.require("matrix", "strategies", "a string array", strings)?;
        if tokens.is_empty() {
            return Err(err(line, "strategies must not be empty".into()));
        }
        let strategies = tokens.iter().map(|t| cli::parse_strategy(t));
        let strategies = strategies
            .collect::<Result<Vec<_>, _>>()
            .map_err(|msg| err(line, msg))?;
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
            seeds,
            gates,
        })
    }
}

/// A value that is not what its row expects, by type or by range.
fn out_of_range(row: &keys::Row, value: &Value) -> String {
    let key = row.file.map_or("", |f| f.key);
    format!("{key} must be {}, got {}", row.expects, render(value))
}

/// A value in the canonical TOML form.
fn render(value: &Value) -> String {
    match value {
        Value::Num(n) => n.to_string(),
        Value::Text(t) | Value::Arg(t) => quote(t),
        Value::Bool(b) => b.to_string(),
        Value::Nums(v) => format!("{v:?}"),
        Value::Texts(v) => format!("{v:?}"),
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
        Value::Nums(_) => "number array",
        Value::Texts(_) => "string array",
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
        Value::Nums(v) => Some(v.clone()),
        _ => None,
    }
}

fn strings(value: &Value) -> Option<Vec<String>> {
    match value {
        Value::Texts(v) => Some(v.clone()),
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

const GATES: [Gate; 3] = [
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
    (
        "min_events_per_sec",
        |g| &mut g.min_events_per_sec,
        |v| v >= 0.0,
        "non-negative",
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

    /// Words a rule of [`WorldConfig::check`] in the file's spelling, at
    /// the line that set the offending field. A field by itself out of
    /// range reads like any other bad value; a rule between two fields
    /// names both keys, each with the value the file gave it (or the
    /// default in force where the file gave none).
    fn locate(&self, e: &ConfigError, world: &WorldConfig) -> ScenarioError {
        let spelled = |field: &str| {
            let row = keys::TABLE
                .iter()
                .find(|r| r.field == field && r.file.is_some())?;
            let file = row.file?;
            let (value, line) = match self.find(file.section, file.key) {
                Some((value, line)) => (value.clone(), line),
                None => ((row.get)(world)?, 0),
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

/// Parses one value: number, bool, string, or a flat array of numbers
/// or strings.
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
        if items.is_empty() {
            // An empty array's element type is ambiguous; every array
            // key in the format requires at least one element anyway.
            return Ok(Value::Nums(Vec::new()));
        }
        if items[0].starts_with('"') {
            let strings = items
                .iter()
                .map(|item| parse_string(item, lineno))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Value::Texts(strings));
        }
        let nums = items
            .iter()
            .map(|item| parse_number(item, lineno))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::Nums(nums));
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
        for &strategy in &s.strategies {
            let cfg = s.world_config(strategy, 42);
            assert_eq!(cfg.check(), Ok(()));
            assert_eq!((cfg.strategy, cfg.seed), (strategy, 42));
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
                _ => "crash",
            };
            let next = match (row.get)(&s.world) {
                Some(Value::Num(n)) => n + 1.0,
                _ => 3.0,
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
