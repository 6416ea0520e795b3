//! `mp2p matrix` — sweep the scenario corpus, print the fleet scorecard.
//!
//! ```text
//! mp2p matrix [--scenarios DIR] [--only NAME] [--smoke] [--json FILE]
//! ```
//!
//! The sweep loads every `*.toml` directly under `--scenarios` (default
//! `scenarios/`) and runs each scenario × strategy × axis value × seed
//! tuple (one **cell**) in parallel — [`run_matrix`], the one executor
//! every sweep of this crate goes through, `mp2p paper` included. It
//! returns the finished runs; everything printed or written is a fold
//! over them. Here each is frozen into a [`MatrixCell`] of simulated
//! numbers, and the fleet scorecard of all of them is printed.
//! `--json FILE` writes them as one [`MatrixReport`], the only file the
//! command writes. Every cell's report must satisfy [`check_report`] and
//! its scenario's absolute `[gates]` floors ([`gate_violations`]); a
//! violation exits 1.
//!
//! The report is a function of the code and the corpus alone: a cell
//! holds no wall-clock field, so two sweeps write the same bytes, and a
//! committed report is checked with `diff`. `ci` pins the `--smoke`
//! report against `results/matrix/MATRIX_BASELINE.json` that way; the
//! report has one cell per line, so the line a diff names is the cell
//! that moved. Host speed is the benchmark's to measure; to ask why one
//! cell is slow, run its world with `mp2p run --profile`.
//!
//! `--smoke` shrinks the sweep for CI: the first two scenarios by name,
//! first two strategies and first seed of each, with the horizon cut to
//! six simulated minutes (90 s warm-up).

use std::path::PathBuf;

use mp2p_rpcc::{RunReport, World};
use mp2p_sim::SimDuration;
use mp2p_trace::json;
use mp2p_trace::BlameCause;

use crate::check::check_report;
use crate::cli::{Args, Spec};
use crate::report::render_table;
use crate::scenario::{Cell, Horizon, Scenario};
use crate::sweep::run_parallel;

/// Version tag at the head of every report. Bump on layout changes so
/// a report of another layout is told apart from a moved cell.
pub const MATRIX_SCHEMA: u64 = 2;

/// One frozen matrix cell: the identity of the run plus its measured
/// consistency / latency / traffic figures, every one of them simulated:
/// the same cell identity reproduces the same numbers bit for bit on any
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
    /// Peer count.
    pub peers: u64,
    /// Simulated duration in milliseconds.
    pub sim_ms: u64,
    /// Warm-up offset in milliseconds.
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
        }
    }

    /// Serialises the cell as one JSON object on one line.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"scenario\":{},\"strategy\":{}",
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
            ",\"mean_latency_secs\":{},\"p95_latency_secs\":{},\"fresh_fraction\":{},\"stale_served\":{},\"dominant_blame\":{}}}",
            self.mean_latency_secs,
            self.p95_latency_secs,
            self.fresh_fraction,
            self.stale_served,
            json::escape(&self.dominant_blame),
        );
        s
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

    /// Serialises the report as JSON with one cell per line, so that a
    /// `diff` of two reports names the cells that moved:
    ///
    /// ```text
    /// {"matrix_schema":2,"cells":[
    /// {"scenario":"highway-convoy","strategy":"rpcc",...},
    /// {"scenario":"highway-convoy","strategy":"push",...}
    /// ]}
    /// ```
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(MatrixCell::to_json).collect();
        format!(
            "{{\"matrix_schema\":{MATRIX_SCHEMA},\"cells\":[\n{}\n]}}\n",
            cells.join(",\n")
        )
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
/// value, seed). The second value lists every [`check_report`]
/// violation, prefixed with its cell key.
pub fn run_matrix(scenarios: &[Scenario]) -> (Vec<CellRun<'_>>, Vec<String>) {
    let cells_of = |s| std::iter::repeat(s).zip(Scenario::cells(s));
    let jobs: Vec<(&Scenario, Cell)> = scenarios.iter().flat_map(cells_of).collect();
    let reports = run_parallel(&jobs, |(scenario, cell)| {
        World::new(scenario.world_config(cell)).run()
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

/// The two axes a scenario's `[gates]` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateAxis {
    /// Served fresh fraction.
    FreshFraction,
    /// 95th-percentile query latency.
    Latency,
}

impl GateAxis {
    /// Human label used in the violation table.
    pub fn label(self) -> &'static str {
        match self {
            GateAxis::FreshFraction => "fresh-fraction",
            GateAxis::Latency => "p95-latency",
        }
    }
}

/// One cell that fell outside its scenario's bound on one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRegression {
    /// `scenario/strategy/s<seed>` of the offending cell.
    pub cell: String,
    /// The axis that regressed.
    pub axis: GateAxis,
    /// The measured value.
    pub measured: f64,
    /// The floor or ceiling the measurement had to stay within.
    pub limit: f64,
}

/// Checks every cell against its scenario's absolute `[gates]` floor
/// and ceiling. Cells of scenarios absent from `scenarios` are skipped.
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
                    measured: cell.p95_latency_secs,
                    limit: ceiling,
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
    ],
};

/// A parsed `mp2p matrix` command line.
#[derive(Debug, Clone)]
pub struct Options {
    scenario_dir: PathBuf,
    only: Option<String>,
    smoke: bool,
    json: Option<PathBuf>,
}

impl Options {
    /// Parses the arguments following `mp2p matrix`. Every rejection is
    /// a one-line error followed by the flag list.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let args = Args::parse(&SPEC, argv)?;
        Ok(Options {
            scenario_dir: PathBuf::from(args.value_of("--scenarios").unwrap_or("scenarios")),
            only: args.value_of("--only").map(str::to_owned),
            smoke: args.flag("--smoke"),
            json: args.value_of("--json").map(PathBuf::from),
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
            ]
        })
        .collect();
    render_table(
        &[
            "cell", "fresh", "stale", "blame", "lat ms", "p95 ms", "tx/min", "fail %",
        ],
        &rows,
    )
}

fn violation_table(violations: &[CellRegression]) -> String {
    let rows: Vec<Vec<String>> = violations
        .iter()
        .map(|r| {
            vec![
                r.cell.clone(),
                r.axis.label().to_owned(),
                format!("{:.4}", r.limit),
                format!("{:.4}", r.measured),
            ]
        })
        .collect();
    render_table(&["cell", "axis", "limit", "measured"], &rows)
}

/// `mp2p matrix`: parses `argv`, runs the sweep and its gates.
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
    let (runs, violations) = run_matrix(&scenarios);
    let report = MatrixReport::of(&runs);
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("fleet report -> {}", path.display());
    }
    print!("{}", scorecard(&report));

    for violation in &violations {
        eprintln!("INVARIANT VIOLATED: {violation}");
    }
    let floors = gate_violations(&scenarios, &report);
    if !floors.is_empty() {
        println!("\nGATE FLOOR VIOLATIONS ({}):", floors.len());
        print!("{}", violation_table(&floors));
    }
    Ok(violations.is_empty() && floors.is_empty())
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
        let report = sample_report();
        let json = report.to_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2 + report.cells.len(), "{json}");
        assert_eq!(lines[0], "{\"matrix_schema\":2,\"cells\":[");
        assert_eq!(lines[1], format!("{},", report.cells[0].to_json()));
        assert_eq!(lines[2], report.cells[1].to_json());
        assert_eq!(lines[3], "]}");
        assert!(json.ends_with("]}\n"));
        assert!(lines[1].starts_with("{\"scenario\":\"mini\",\"strategy\":\"rpcc\",\"seed\":42,"));
        assert!(lines[1].ends_with(",\"dominant_blame\":\"invalidate_lost\"},"));

        // The whole report is one JSON document, and every line of a
        // cell holds that cell's values.
        let tree = mp2p_trace::json::parse(&json).expect("the report is JSON");
        let Some(mp2p_trace::json::Value::Arr(cells)) = tree.get("cells") else {
            panic!("no cells array in {json}");
        };
        assert_eq!(cells.len(), report.cells.len());
        for (tree, cell) in cells.iter().zip(&report.cells) {
            let str_of = |key| tree.get(key).and_then(|v| v.as_str());
            let f64_of = |key| tree.get(key).and_then(|v| v.as_f64());
            assert_eq!(str_of("strategy"), Some(cell.strategy.as_str()));
            assert_eq!(f64_of("fresh_fraction"), Some(cell.fresh_fraction));
            assert_eq!(f64_of("p95_latency_secs"), Some(cell.p95_latency_secs));
            assert_eq!(tree.get("point"), None, "an unswept cell has no point");
        }
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
        let (runs, violations) = run_matrix(std::slice::from_ref(&scenario));
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

        // A swept cell's key carries strategy mix and axis value, and so
        // does its line of the report.
        let report = MatrixReport::of(&runs);
        let keys: Vec<String> = report.cells.iter().map(MatrixCell::key).collect();
        assert_eq!(keys[0], "mini/pull/query_secs=10/s42");
        assert_eq!(keys[7], "mini/rpcc:dc/query_secs=20/s43");
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
        let json = report.to_json();
        let lines: Vec<&str> = json.lines().collect();
        assert!(
            lines[1].starts_with(
                "{\"scenario\":\"mini\",\"strategy\":\"pull\",\"point\":\"query_secs=10\",\"seed\":42,"
            ),
            "{json}"
        );
        assert!(
            lines[8].contains("\"strategy\":\"rpcc:dc\",\"point\":\"query_secs=20\",\"seed\":43,")
        );
    }

    #[test]
    fn scenario_floors_flag_violating_cells() {
        use crate::scenario::Scenario;
        let mut scenario = Scenario::parse(crate::scenario::tests::MINIMAL).unwrap();
        scenario.gates.min_fresh_fraction = Some(0.95);
        let report = sample_report(); // rpcc cell sits at 0.93
        let violations = gate_violations(std::slice::from_ref(&scenario), &report);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].axis, GateAxis::FreshFraction);
        assert_eq!(violations[0].cell, "mini/rpcc/s42");
        assert_eq!(violations[0].limit, 0.95);

        // A p95 ceiling under the push cell's 0.8 s trips that cell on
        // the latency axis too; at 0.8 s it holds.
        let mut report = report;
        report.cells[0].p95_latency_secs = 0.5;
        scenario.gates.max_p95_latency_secs = Some(0.75);
        let violations = gate_violations(std::slice::from_ref(&scenario), &report);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[1].axis, GateAxis::Latency);
        assert_eq!(violations[1].cell, "mini/push/s42");
        assert_eq!(violations[1].measured, 0.8);
        scenario.gates.max_p95_latency_secs = Some(0.8);
        assert_eq!(gate_violations(&[scenario], &report).len(), 1);
    }
}
