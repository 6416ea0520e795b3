//! `mp2p matrix` — sweep the scenario corpus, print the fleet scorecard,
//! gate regressions against a committed baseline.
//!
//! ```text
//! mp2p matrix [--scenarios DIR] [--only NAME] [--smoke] [--json FILE]
//! mp2p matrix --baseline MATRIX_BASELINE.json [--tolerance T] [--wall-tolerance W] ...
//! ```
//!
//! The sweep loads every `*.toml` directly under `--scenarios` (default
//! `scenarios/`) and runs each scenario × strategy × axis value × seed
//! tuple (one **cell**) in parallel with profiling on — [`run_matrix`],
//! the one executor every sweep of this crate goes through, `mp2p paper`
//! included. It returns the finished runs; everything printed or written
//! is a fold over them. Here each is frozen into a schema-versioned
//! [`MatrixCell`], and the fleet scorecard of all of them is printed.
//! `--json FILE` writes them as one [`MatrixReport`], the only file the
//! command writes; the written file is read back and must parse to the
//! same report, so a malformed report can never reach disk silently.
//! Every cell's report must satisfy [`check_report`] and its scenario's
//! absolute `[gates]` floors ([`gate_violations`]); a violation exits 1.
//!
//! `--smoke` shrinks the sweep for CI: the first two scenarios by name,
//! first two strategies and first seed of each, with the horizon cut to
//! six simulated minutes (90 s warm-up).
//!
//! With `--baseline`, [`compare_matrix`] additionally gates every
//! baseline cell on **three** axes, printing a diff row that names the
//! offending axis and exiting 1. `--tolerance` (default 0.02) bounds the
//! two deterministic axes; `--wall-tolerance` (default 0.5) separately
//! bounds the wall-clock one:
//!
//! * **throughput** — events/sec below `baseline × (1 − wall_tolerance)`
//!   regresses. Wall-clock, hence its own (loose) tolerance; skipped for
//!   unprofiled cells.
//! * **fresh fraction** — below `baseline × (1 − tolerance)` regresses.
//!   Deterministic, so CI gates it tightly.
//! * **p95 latency** — above `baseline × (1 + tolerance)` regresses.
//!   Simulated time, also deterministic.
//!
//! Mismatched cell identities (peer count, simulated duration, warm-up,
//! or a baseline cell the measurement never ran) are an *error*, not a
//! verdict (exit 2) — numbers from different scenarios must never be
//! compared.

use std::path::{Path, PathBuf};

use mp2p_rpcc::{LevelMix, RunReport, World};
use mp2p_sim::SimDuration;
use mp2p_trace::json::{self, Value};
use mp2p_trace::BlameCause;

use crate::check::check_report;
use crate::cli::{first_repeat, parse_strategy_entry, Args, Spec};
use crate::report::render_table;
use crate::scenario::{Cell, Horizon, Scenario};
use crate::sweep::run_parallel;

/// Version tag written into every cell and report. Bump on layout
/// changes so old files are refused instead of misread.
pub const MATRIX_SCHEMA: u64 = 1;

/// One frozen matrix cell: the identity of the run plus its measured
/// consistency / latency / traffic / throughput figures.
///
/// Everything except the three wall-clock fields (`events`,
/// `wall_secs`, `events_per_sec`) is simulation-deterministic: the same
/// cell identity reproduces the same numbers bit for bit on any
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Scenario name the cell belongs to.
    pub scenario: String,
    /// Strategy token (`rpcc`, `push`, `pull`, `push-ap`), with its mix
    /// where the scenario's entry carries one (`rpcc:dc`).
    pub strategy: String,
    /// The axis point as `key=value`; empty in an unswept scenario, whose
    /// cells serialise without the field.
    pub point: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Peer count (identity: must match for comparison).
    pub peers: u64,
    /// Simulated duration in milliseconds (identity).
    pub sim_ms: u64,
    /// Warm-up offset in milliseconds (identity).
    pub warmup_ms: u64,
    /// Transmissions per simulated minute.
    pub traffic_per_min: f64,
    /// MAC-level transmissions (post-warmup).
    pub transmissions: u64,
    /// Bytes on the air (post-warmup).
    pub bytes: u64,
    /// Queries served post-warmup.
    pub queries_served: u64,
    /// Fraction of queries abandoned.
    pub failure_rate: f64,
    /// Mean query latency (simulated seconds).
    pub mean_latency_secs: f64,
    /// 95th-percentile query latency (simulated seconds; gated).
    pub p95_latency_secs: f64,
    /// Fraction of served answers at the master version (gated).
    pub fresh_fraction: f64,
    /// Queries answered with a superseded version.
    pub stale_served: u64,
    /// Label of the most frequent stale-serve blame cause, `none` when
    /// nothing stale was served or the observatory was off.
    pub dominant_blame: String,
    /// World events handled (0 when the cell ran unprofiled).
    pub events: u64,
    /// Wall-clock seconds of the event loop (0 when unprofiled).
    pub wall_secs: f64,
    /// Event-loop throughput (gated; 0 when unprofiled).
    pub events_per_sec: f64,
}

impl MatrixCell {
    /// `scenario/strategy/s<seed>`, or `scenario/strategy/key=value/s<seed>`
    /// in a swept scenario — the cell's display key.
    pub fn key(&self) -> String {
        let point = match self.point.as_str() {
            "" => String::new(),
            point => format!("/{point}"),
        };
        format!("{}/{}{point}/s{}", self.scenario, self.strategy, self.seed)
    }

    /// Freezes one finished run into a cell. `report` must come from
    /// the world that `(scenario, cell)` describes.
    pub fn from_report(scenario: &Scenario, cell: &Cell, report: &RunReport) -> Self {
        let world = scenario.world_config(cell);
        let dominant_blame = report
            .consistency
            .filter(|c| c.blamed_total() > 0)
            .map(|c| {
                let top = BlameCause::ALL
                    .iter()
                    .copied()
                    // max_by_key takes the last maximum; reversing keeps
                    // ties on the higher-priority (earlier) cause.
                    .rev()
                    .max_by_key(|cause| c.blame[cause.index()])
                    .expect("ALL is non-empty");
                top.label().to_owned()
            })
            .unwrap_or_else(|| "none".to_owned());
        MatrixCell {
            scenario: scenario.name.clone(),
            strategy: scenario.strategy_token(&cell.strategy),
            point: scenario.point(cell).unwrap_or_default(),
            seed: cell.seed,
            peers: world.n_peers as u64,
            sim_ms: world.sim_time.as_millis(),
            warmup_ms: world.warmup.as_millis(),
            traffic_per_min: report.traffic_per_minute(),
            transmissions: report.traffic.transmissions(),
            bytes: report.traffic.bytes(),
            queries_served: report.queries_served(),
            failure_rate: report.failure_rate(),
            mean_latency_secs: report.mean_latency_secs(),
            p95_latency_secs: report.latency.percentile(0.95).as_secs_f64(),
            fresh_fraction: report.audit.fresh_fraction(),
            stale_served: report.audit.stale_served(),
            dominant_blame,
            events: report.perf.as_ref().map_or(0, |p| p.events()),
            wall_secs: report.perf.as_ref().map_or(0.0, |p| p.wall_secs()),
            events_per_sec: report.perf.as_ref().map_or(0.0, |p| p.events_per_sec()),
        }
    }

    /// Serialises the cell as one JSON object, `matrix_schema` first.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"matrix_schema\":{MATRIX_SCHEMA},\"scenario\":{},\"strategy\":{}",
            json::escape(&self.scenario),
            json::escape(&self.strategy),
        );
        if !self.point.is_empty() {
            let _ = write!(s, ",\"point\":{}", json::escape(&self.point));
        }
        let _ = write!(
            s,
            ",\"seed\":{},\"peers\":{},\"sim_ms\":{},\"warmup_ms\":{}",
            self.seed, self.peers, self.sim_ms, self.warmup_ms,
        );
        let _ = write!(
            s,
            ",\"traffic_per_min\":{},\"transmissions\":{},\"bytes\":{},\"queries_served\":{},\"failure_rate\":{}",
            self.traffic_per_min,
            self.transmissions,
            self.bytes,
            self.queries_served,
            self.failure_rate,
        );
        let _ = write!(
            s,
            ",\"mean_latency_secs\":{},\"p95_latency_secs\":{},\"fresh_fraction\":{},\"stale_served\":{},\"dominant_blame\":{}",
            self.mean_latency_secs,
            self.p95_latency_secs,
            self.fresh_fraction,
            self.stale_served,
            json::escape(&self.dominant_blame),
        );
        let _ = write!(
            s,
            ",\"events\":{},\"wall_secs\":{},\"events_per_sec\":{}}}",
            self.events, self.wall_secs, self.events_per_sec,
        );
        s
    }

    /// Reads one cell of a report back, refusing unknown schema versions
    /// and any structural mismatch with a descriptive error.
    fn from_value(v: &Value) -> Result<Self, String> {
        let schema = v
            .get("matrix_schema")
            .and_then(Value::as_u64)
            .ok_or("matrix cell has no numeric matrix_schema field")?;
        if schema != MATRIX_SCHEMA {
            return Err(format!(
                "matrix schema {schema} unsupported (this build speaks {MATRIX_SCHEMA})"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let f64_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let strategy = str_field("strategy")?;
        parse_strategy_entry(&strategy, LevelMix::strong_only())?;
        let point = match v.get("point") {
            Some(_) => str_field("point")?,
            None => String::new(),
        };
        Ok(MatrixCell {
            scenario: str_field("scenario")?,
            strategy,
            point,
            seed: u64_field("seed")?,
            peers: u64_field("peers")?,
            sim_ms: u64_field("sim_ms")?,
            warmup_ms: u64_field("warmup_ms")?,
            traffic_per_min: f64_field("traffic_per_min")?,
            transmissions: u64_field("transmissions")?,
            bytes: u64_field("bytes")?,
            queries_served: u64_field("queries_served")?,
            failure_rate: f64_field("failure_rate")?,
            mean_latency_secs: f64_field("mean_latency_secs")?,
            p95_latency_secs: f64_field("p95_latency_secs")?,
            fresh_fraction: f64_field("fresh_fraction")?,
            stale_served: u64_field("stale_served")?,
            dominant_blame: str_field("dominant_blame")?,
            events: u64_field("events")?,
            wall_secs: f64_field("wall_secs")?,
            events_per_sec: f64_field("events_per_sec")?,
        })
    }
}

/// The fleet scorecard: every cell of one matrix sweep, in sweep order
/// (scenarios sorted by name, then file strategy order, then axis
/// values, then seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// All swept cells.
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    /// Freezes every finished run of a sweep.
    pub fn of(runs: &[CellRun<'_>]) -> Self {
        let freeze =
            |run: &CellRun<'_>| MatrixCell::from_report(run.scenario, &run.cell, &run.report);
        MatrixReport {
            cells: runs.iter().map(freeze).collect(),
        }
    }

    /// Looks a cell up by its [`MatrixCell::key`].
    pub fn cell(&self, key: &str) -> Option<&MatrixCell> {
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Serialises the report: `{"matrix_schema":1,"cells":[...]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + 512 * self.cells.len());
        s.push_str(&format!("{{\"matrix_schema\":{MATRIX_SCHEMA},\"cells\":["));
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&cell.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Parses a report back, refusing unknown schemata and a report in
    /// which two cells carry one key (a gate would compare the first).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).ok_or("matrix report is not valid JSON")?;
        let schema = v
            .get("matrix_schema")
            .and_then(Value::as_u64)
            .ok_or("matrix report has no numeric matrix_schema field")?;
        if schema != MATRIX_SCHEMA {
            return Err(format!(
                "matrix schema {schema} unsupported (this build speaks {MATRIX_SCHEMA})"
            ));
        }
        let Some(Value::Arr(items)) = v.get("cells") else {
            return Err("missing cells array".to_owned());
        };
        let cells = items
            .iter()
            .map(MatrixCell::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(cell) = first_repeat(&cells, |a, b| a.key() == b.key()) {
            return Err(format!("cell {} listed twice", cell.key()));
        }
        Ok(MatrixReport { cells })
    }
}

/// One finished run of a sweep: the cell and the report of its world.
#[derive(Debug)]
pub struct CellRun<'a> {
    /// The scenario the cell belongs to.
    pub scenario: &'a Scenario,
    /// Which of its cells.
    pub cell: Cell,
    /// What the run measured.
    pub report: RunReport,
}

/// The one sweep executor: runs every cell of every scenario in
/// parallel and returns the runs in sweep order (scenario, strategy, axis
/// value, seed). With `profile` each world's profiler is enabled, filling
/// a report's wall-clock section — strictly observational, so everything
/// else is identical either way. The second value lists every
/// [`check_report`] violation, prefixed with its cell key.
pub fn run_matrix(scenarios: &[Scenario], profile: bool) -> (Vec<CellRun<'_>>, Vec<String>) {
    let cells_of = |s| std::iter::repeat(s).zip(Scenario::cells(s));
    let jobs: Vec<(&Scenario, Cell)> = scenarios.iter().flat_map(cells_of).collect();
    let reports = run_parallel(&jobs, |(scenario, cell)| {
        let mut world = World::new(scenario.world_config(cell));
        if profile {
            world.enable_profiling();
        }
        world.run()
    });
    let mut runs = Vec::with_capacity(jobs.len());
    let mut violations = Vec::new();
    for ((scenario, cell), report) in jobs.into_iter().zip(reports) {
        let broken = check_report(&report);
        if !broken.is_empty() {
            let key = MatrixCell::from_report(scenario, &cell, &report).key();
            violations.extend(broken.iter().map(|v| format!("{key}: {v}")));
        }
        runs.push(CellRun {
            scenario,
            cell,
            report,
        });
    }
    (runs, violations)
}

/// The runs of a sweep grouped by sweep point: each slice holds the
/// seeds of one scenario × strategy × axis value, in seed order.
pub fn points<'r, 'a>(runs: &'r [CellRun<'a>]) -> impl Iterator<Item = &'r [CellRun<'a>]> {
    runs.chunk_by(|a, b| {
        std::ptr::eq(a.scenario, b.scenario)
            && a.cell.strategy == b.cell.strategy
            && a.cell.x == b.cell.x
    })
}

/// The three baseline-gated axes of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateAxis {
    /// Event-loop events/sec (wall-clock).
    Throughput,
    /// Served fresh fraction (deterministic).
    FreshFraction,
    /// 95th-percentile query latency (deterministic).
    Latency,
}

impl GateAxis {
    /// Human label used in diff tables.
    pub fn label(self) -> &'static str {
        match self {
            GateAxis::Throughput => "events/sec",
            GateAxis::FreshFraction => "fresh-fraction",
            GateAxis::Latency => "p95-latency",
        }
    }
}

/// One cell that fell outside its allowed band on one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRegression {
    /// `scenario/strategy/s<seed>` of the offending cell.
    pub cell: String,
    /// The axis that regressed.
    pub axis: GateAxis,
    /// Baseline value (or the absolute floor for gate violations).
    pub baseline: f64,
    /// Freshly measured value.
    pub measured: f64,
    /// The value the measurement had to stay within.
    pub limit: f64,
}

impl std::fmt::Display for CellRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.4} vs baseline {:.4} (limit {:.4})",
            self.cell,
            self.axis.label(),
            self.measured,
            self.baseline,
            self.limit
        )
    }
}

/// Compares a fresh sweep against a committed baseline, cell by cell,
/// on all three gated axes. Returns every regression found (empty =
/// pass).
///
/// Errs — without a verdict — when any baseline cell is missing from
/// the measurement or describes a different scenario (peer count,
/// simulated duration or warm-up differ): numbers from different
/// workloads must never be compared. Cells the measurement has beyond
/// the baseline are ignored (new scenarios are not regressions).
///
/// `tolerance` bounds the two deterministic axes (fresh fraction may
/// drop by at most that fraction; p95 latency may grow by at most that
/// fraction). `wall_tolerance` separately bounds the wall-clock
/// throughput axis, which is noisy across machines; the axis is skipped
/// when either side ran unprofiled (events/sec of 0).
pub fn compare_matrix(
    baseline: &MatrixReport,
    measured: &MatrixReport,
    tolerance: f64,
    wall_tolerance: f64,
) -> Result<Vec<CellRegression>, String> {
    for (name, t) in [("tolerance", tolerance), ("wall-tolerance", wall_tolerance)] {
        if !(0.0..1.0).contains(&t) {
            return Err(format!("{name} must be in [0, 1), got {t}"));
        }
    }
    let mut regressions = Vec::new();
    for base in &baseline.cells {
        let Some(fresh) = measured.cell(&base.key()) else {
            return Err(format!(
                "baseline cell {} missing from the measured sweep",
                base.key()
            ));
        };
        for (what, b, m) in [
            ("peers", base.peers, fresh.peers),
            ("sim_ms", base.sim_ms, fresh.sim_ms),
            ("warmup_ms", base.warmup_ms, fresh.warmup_ms),
        ] {
            if b != m {
                return Err(format!("cell {} {what} differs: {b} vs {m}", base.key()));
            }
        }
        let fresh_floor = base.fresh_fraction * (1.0 - tolerance);
        if fresh.fresh_fraction < fresh_floor {
            regressions.push(CellRegression {
                cell: base.key(),
                axis: GateAxis::FreshFraction,
                baseline: base.fresh_fraction,
                measured: fresh.fresh_fraction,
                limit: fresh_floor,
            });
        }
        let latency_ceiling = base.p95_latency_secs * (1.0 + tolerance);
        if fresh.p95_latency_secs > latency_ceiling {
            regressions.push(CellRegression {
                cell: base.key(),
                axis: GateAxis::Latency,
                baseline: base.p95_latency_secs,
                measured: fresh.p95_latency_secs,
                limit: latency_ceiling,
            });
        }
        if base.events_per_sec > 0.0 && fresh.events_per_sec > 0.0 {
            let eps_floor = base.events_per_sec * (1.0 - wall_tolerance);
            if fresh.events_per_sec < eps_floor {
                regressions.push(CellRegression {
                    cell: base.key(),
                    axis: GateAxis::Throughput,
                    baseline: base.events_per_sec,
                    measured: fresh.events_per_sec,
                    limit: eps_floor,
                });
            }
        }
    }
    Ok(regressions)
}

/// Checks every cell against its scenario's absolute `[gates]` floors
/// (no baseline involved). Cells of scenarios absent from `scenarios`
/// are skipped. Returned entries reuse [`CellRegression`] with
/// `baseline` set to the floor itself.
pub fn gate_violations(scenarios: &[Scenario], report: &MatrixReport) -> Vec<CellRegression> {
    let mut violations = Vec::new();
    for cell in &report.cells {
        let Some(scenario) = scenarios.iter().find(|s| s.name == cell.scenario) else {
            continue;
        };
        let g = &scenario.gates;
        if let Some(floor) = g.min_fresh_fraction {
            if cell.fresh_fraction < floor {
                violations.push(CellRegression {
                    cell: cell.key(),
                    axis: GateAxis::FreshFraction,
                    baseline: floor,
                    measured: cell.fresh_fraction,
                    limit: floor,
                });
            }
        }
        if let Some(ceiling) = g.max_p95_latency_secs {
            if cell.p95_latency_secs > ceiling {
                violations.push(CellRegression {
                    cell: cell.key(),
                    axis: GateAxis::Latency,
                    baseline: ceiling,
                    measured: cell.p95_latency_secs,
                    limit: ceiling,
                });
            }
        }
        if let Some(floor) = g.min_events_per_sec {
            if cell.events_per_sec > 0.0 && cell.events_per_sec < floor {
                violations.push(CellRegression {
                    cell: cell.key(),
                    axis: GateAxis::Throughput,
                    baseline: floor,
                    measured: cell.events_per_sec,
                    limit: floor,
                });
            }
        }
    }
    violations
}

/// The flag list of `mp2p matrix`.
pub static SPEC: Spec = Spec {
    command: "matrix",
    positional: "",
    flags: &[
        ("--scenarios", "DIR"),
        ("--only", "NAME"),
        ("--smoke", ""),
        ("--json", "FILE"),
        ("--baseline", "FILE"),
        ("--tolerance", "T"),
        ("--wall-tolerance", "W"),
    ],
};

/// A parsed `mp2p matrix` command line.
#[derive(Debug, Clone)]
pub struct Options {
    scenario_dir: PathBuf,
    only: Option<String>,
    smoke: bool,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    wall_tolerance: f64,
}

impl Options {
    /// Parses the arguments following `mp2p matrix`. Every rejection is
    /// a one-line error followed by the flag list.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let args = Args::parse(&SPEC, argv)?;
        let fraction = |name: &str, default: f64| -> Result<f64, String> {
            args.get(name, "a fraction in [0, 1)", |t: &f64| {
                (0.0..1.0).contains(t)
            })
            .map(|t| t.unwrap_or(default))
            .map_err(|msg| SPEC.error(msg))
        };
        Ok(Options {
            scenario_dir: PathBuf::from(args.value_of("--scenarios").unwrap_or("scenarios")),
            only: args.value_of("--only").map(str::to_owned),
            smoke: args.flag("--smoke"),
            json: args.value_of("--json").map(PathBuf::from),
            baseline: args.value_of("--baseline").map(PathBuf::from),
            tolerance: fraction("--tolerance", 0.02)?,
            wall_tolerance: fraction("--wall-tolerance", 0.5)?,
        })
    }

    /// Loads the corpus and applies `--only` / `--smoke` trimming.
    fn load_corpus(&self) -> Result<Vec<Scenario>, String> {
        let mut scenarios = Scenario::load_dir(&self.scenario_dir)?;
        if let Some(only) = &self.only {
            scenarios.retain(|s| &s.name == only);
            if scenarios.is_empty() {
                return Err(format!(
                    "no scenario named {only:?} under {}",
                    self.scenario_dir.display()
                ));
            }
        }
        if scenarios.is_empty() {
            return Err(format!(
                "no *.toml scenarios under {}",
                self.scenario_dir.display()
            ));
        }
        if self.smoke {
            scenarios.truncate(2);
            for s in &mut scenarios {
                s.strategies.truncate(2);
                s.shorten(SMOKE)?;
            }
        }
        Ok(scenarios)
    }
}

/// The horizon of `matrix --smoke`: six simulated minutes, one seed.
const SMOKE: Horizon = Horizon {
    sim_time: SimDuration::from_mins(6),
    warmup: SimDuration::from_secs(90),
    seeds: 1,
};

/// Writes the fleet report and re-parses the written bytes, so a
/// malformed file fails the run instead of poisoning a later gate.
fn write_report(path: &Path, report: &MatrixReport) -> Result<(), String> {
    std::fs::write(path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let back = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot re-read {}: {e}", path.display()))?;
    let parsed = MatrixReport::from_json(&back)
        .map_err(|e| format!("{} is not well-formed: {e}", path.display()))?;
    if &parsed != report {
        return Err(format!("{} does not round-trip", path.display()));
    }
    Ok(())
}

fn scorecard(report: &MatrixReport) -> String {
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.key(),
                format!("{:.4}", c.fresh_fraction),
                c.stale_served.to_string(),
                c.dominant_blame.clone(),
                format!("{:.0}", c.mean_latency_secs * 1000.0),
                format!("{:.0}", c.p95_latency_secs * 1000.0),
                format!("{:.0}", c.traffic_per_min),
                format!("{:.1}", c.failure_rate * 100.0),
                format!("{:.0}", c.events_per_sec / 1000.0),
            ]
        })
        .collect();
    render_table(
        &[
            "cell", "fresh", "stale", "blame", "lat ms", "p95 ms", "tx/min", "fail %", "kev/s",
        ],
        &rows,
    )
}

fn diff_table(regressions: &[CellRegression]) -> String {
    let rows: Vec<Vec<String>> = regressions
        .iter()
        .map(|r| {
            vec![
                r.cell.clone(),
                r.axis.label().to_owned(),
                format!("{:.4} (limit {:.4})", r.baseline, r.limit),
                format!("{:.4}", r.measured),
            ]
        })
        .collect();
    render_table(&["cell", "axis", "baseline/limit", "measured"], &rows)
}

/// `mp2p matrix`: parses `argv`, runs the sweep and all gates.
/// `Ok(false)` means at least one gate or invariant tripped.
pub fn command(argv: &[String]) -> Result<bool, String> {
    let opts = Options::parse(argv)?;
    let scenarios = opts.load_corpus()?;
    let cells_expected: usize = scenarios.iter().map(|s| s.cells().len()).sum();
    println!(
        "Sweeping {} scenario(s), {} cell(s){}...",
        scenarios.len(),
        cells_expected,
        if opts.smoke { " [smoke]" } else { "" },
    );
    let (runs, violations) = run_matrix(&scenarios, true);
    let report = MatrixReport::of(&runs);
    if let Some(path) = &opts.json {
        write_report(path, &report)?;
        println!("fleet report -> {}", path.display());
    }
    print!("{}", scorecard(&report));

    let mut pass = violations.is_empty();
    for violation in &violations {
        eprintln!("INVARIANT VIOLATED: {violation}");
    }
    let floors = gate_violations(&scenarios, &report);
    if !floors.is_empty() {
        pass = false;
        println!("\nGATE FLOOR VIOLATIONS ({}):", floors.len());
        print!("{}", diff_table(&floors));
    }
    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        let baseline = MatrixReport::from_json(&text)
            .map_err(|e| format!("baseline {}: {e}", path.display()))?;
        let regressions = compare_matrix(&baseline, &report, opts.tolerance, opts.wall_tolerance)?;
        if regressions.is_empty() {
            println!(
                "\nPASS: all {} baseline cell(s) within tolerance ({:.0}% deterministic, {:.0}% wall-clock)",
                baseline.cells.len(),
                opts.tolerance * 100.0,
                opts.wall_tolerance * 100.0,
            );
        } else {
            pass = false;
            println!("\nREGRESSIONS ({}):", regressions.len());
            print!("{}", diff_table(&regressions));
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> MatrixCell {
        MatrixCell {
            scenario: "mini".into(),
            strategy: "rpcc".into(),
            point: String::new(),
            seed: 42,
            peers: 8,
            sim_ms: 300_000,
            warmup_ms: 60_000,
            traffic_per_min: 120.5,
            transmissions: 482,
            bytes: 96_400,
            queries_served: 95,
            failure_rate: 0.05,
            mean_latency_secs: 0.21,
            p95_latency_secs: 0.8,
            fresh_fraction: 0.93,
            stale_served: 7,
            dominant_blame: "invalidate_lost".into(),
            events: 10_000,
            wall_secs: 0.05,
            events_per_sec: 200_000.0,
        }
    }

    fn sample_report() -> MatrixReport {
        let mut push = sample_cell();
        push.strategy = "push".into();
        push.fresh_fraction = 0.99;
        MatrixReport {
            cells: vec![sample_cell(), push],
        }
    }

    #[test]
    fn cell_and_report_json_roundtrip() {
        let json = sample_cell().to_json();
        assert!(json.starts_with("{\"matrix_schema\":1,\"scenario\":\"mini\""));
        assert!(mp2p_trace::json::parse(&json).is_some());

        let report = sample_report();
        let back = MatrixReport::from_json(&report.to_json()).expect("roundtrip");
        assert_eq!(back, report);
    }

    #[test]
    fn a_swept_scenario_runs_every_point_and_averages() {
        let text = crate::scenario::tests::MINIMAL
            .replace("preset = \"bursty\"", "preset = \"none\"")
            .replace("[\"rpcc\", \"push\", \"pull\"]", "[\"pull\", \"rpcc:dc\"]")
            .replace(
                "seeds = [42, 43]",
                "query_secs = [10, 20]\nseeds = [42, 43]",
            );
        let scenario = Scenario::parse(&text).unwrap();
        let (runs, violations) = run_matrix(std::slice::from_ref(&scenario), false);
        assert_eq!(violations, Vec::<String>::new());
        assert_eq!(runs.len(), 2 * 2 * 2);
        let points: Vec<_> = points(&runs).collect();
        assert_eq!(points.len(), 2 * 2, "the seeds of a point stay together");
        let traffic = |point: &[CellRun<'_>]| {
            assert_eq!(point.len(), 2);
            assert!(point
                .iter()
                .all(|run| run.report.traffic.transmissions() > 0));
            point
                .iter()
                .map(|run| run.report.traffic_per_minute())
                .sum::<f64>()
                / 2.0
        };
        // Longer query interval => less pull traffic.
        assert!(traffic(points[0]) > traffic(points[1]));

        // A swept cell's key carries strategy mix and axis value.
        let report = MatrixReport::of(&runs);
        let keys: Vec<String> = report.cells.iter().map(MatrixCell::key).collect();
        assert_eq!(keys[0], "mini/pull/query_secs=10/s42");
        assert_eq!(keys[7], "mini/rpcc:dc/query_secs=20/s43");
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
        let path = std::env::temp_dir().join(format!("mp2p-matrix-{}.json", std::process::id()));
        write_report(&path, &report).expect("the swept report writes and reads back");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_schema_and_garbage_are_refused() {
        let future = |json: String| json.replacen("\"matrix_schema\":1", "\"matrix_schema\":9", 1);
        let report = future(sample_report().to_json());
        let cell = future(sample_cell().to_json());
        let in_cell = format!("{{\"matrix_schema\":1,\"cells\":[{cell}]}}");
        for text in [report, in_cell] {
            let refusal = MatrixReport::from_json(&text).unwrap_err();
            assert!(refusal.contains("schema 9"), "{refusal}");
        }
        assert!(MatrixReport::from_json("nope").is_err());
        assert!(MatrixReport::from_json("{}").is_err());
    }

    #[test]
    fn each_axis_trips_the_gate_independently() {
        let base = sample_report();

        // Fresh fraction drops below the floor.
        let mut worse = sample_report();
        worse.cells[0].fresh_fraction = 0.5;
        let regs = compare_matrix(&base, &worse, 0.02, 0.5).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].axis, GateAxis::FreshFraction);
        assert_eq!(regs[0].cell, "mini/rpcc/s42");

        // p95 latency grows past the ceiling.
        let mut worse = sample_report();
        worse.cells[1].p95_latency_secs = 2.0;
        let regs = compare_matrix(&base, &worse, 0.02, 0.5).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].axis, GateAxis::Latency);
        assert_eq!(regs[0].cell, "mini/push/s42");

        // Throughput halves (outside even the loose wall band).
        let mut worse = sample_report();
        worse.cells[0].events_per_sec = 50_000.0;
        let regs = compare_matrix(&base, &worse, 0.02, 0.5).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].axis, GateAxis::Throughput);

        // And an identical sweep passes clean.
        assert!(compare_matrix(&base, &base, 0.02, 0.5).unwrap().is_empty());
    }

    #[test]
    fn unprofiled_cells_skip_the_wall_clock_axis() {
        let base = sample_report();
        let mut unprofiled = sample_report();
        for cell in &mut unprofiled.cells {
            cell.events = 0;
            cell.wall_secs = 0.0;
            cell.events_per_sec = 0.0;
        }
        assert!(compare_matrix(&base, &unprofiled, 0.02, 0.5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn identity_mismatch_is_an_error_not_a_verdict() {
        let base = sample_report();
        let mut other = sample_report();
        other.cells[0].peers = 9;
        assert!(compare_matrix(&base, &other, 0.02, 0.5).is_err());

        // A baseline cell the measurement never ran is an error too.
        let mut short = sample_report();
        short.cells.pop();
        assert!(compare_matrix(&base, &short, 0.02, 0.5).is_err());

        // But extra measured cells (a new scenario) are fine.
        let mut extra = sample_report();
        let mut cell = sample_cell();
        cell.scenario = "new-town".into();
        extra.cells.push(cell);
        assert!(compare_matrix(&base, &extra, 0.02, 0.5).unwrap().is_empty());

        assert!(compare_matrix(&base, &base, 1.5, 0.5).is_err());
    }

    #[test]
    fn a_baseline_with_a_repeated_cell_key_is_refused() {
        let mut report = sample_report();
        let mut twin = sample_cell();
        twin.fresh_fraction = 0.5; // same key, another measurement
        report.cells.push(twin);
        let refusal = MatrixReport::from_json(&report.to_json()).unwrap_err();
        assert_eq!(refusal, "cell mini/rpcc/s42 listed twice");
    }

    #[test]
    fn scenario_floors_flag_violating_cells() {
        use crate::scenario::Scenario;
        let mut scenario = Scenario::parse(crate::scenario::tests::MINIMAL).unwrap();
        scenario.gates.min_fresh_fraction = Some(0.95);
        let report = sample_report(); // rpcc cell sits at 0.93
        let violations = gate_violations(&[scenario], &report);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].axis, GateAxis::FreshFraction);
        assert_eq!(violations[0].cell, "mini/rpcc/s42");
    }
}
