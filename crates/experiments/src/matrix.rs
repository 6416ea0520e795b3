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
//! returns the finished runs ([`CellRun`]); everything printed or
//! written is a fold over them. Here that is the fleet scorecard, and
//! with `--json FILE` the [`report_json`] of the sweep, the only file
//! the command writes: one line per run, holding its cell key, its p95
//! latency and its own [`RunReport::to_json`], so a run's numbers have
//! one spelling whichever command wrote them. Every run must satisfy
//! [`check_report`] and its scenario's `[gates]` floor and ceiling; each
//! miss is one stderr line naming the cell, and exits 1.
//!
//! The report is a function of the code and the corpus alone: a run
//! report holds simulated numbers only, so two sweeps write the same
//! bytes, and a committed report is checked with `diff`. `ci` pins the
//! `--smoke` report against `results/matrix/MATRIX_BASELINE.json` that
//! way; the line a diff names is the cell that moved. Host speed is the
//! benchmark's to measure; to ask why one cell is slow, run its world
//! with `mp2p run --profile`.
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
pub const MATRIX_SCHEMA: u64 = 3;

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

impl CellRun<'_> {
    /// `scenario/strategy/s<seed>`, or `scenario/strategy/key=value/s<seed>`
    /// in a swept scenario — the cell's display key. The strategy carries
    /// its mix where the scenario's entry does (`rpcc:dc`).
    pub(crate) fn key(&self) -> String {
        let point = match self.scenario.point(&self.cell) {
            Some(point) => format!("/{point}"),
            None => String::new(),
        };
        let strategy = self.scenario.strategy_token(&self.cell.strategy);
        format!(
            "{}/{strategy}{point}/s{}",
            self.scenario.name, self.cell.seed
        )
    }

    /// 95th-percentile query latency in simulated seconds: the value a
    /// `[gates]` ceiling bounds, which the report's JSON does not carry.
    pub(crate) fn p95_latency_secs(&self) -> f64 {
        self.report.latency.percentile(0.95).as_secs_f64()
    }

    /// Label of the most frequent stale-serve blame cause, `none` when
    /// nothing stale was served or the observatory was off.
    fn dominant_blame(&self) -> &'static str {
        let blamed = self.report.consistency.filter(|c| c.blamed_total() > 0);
        blamed.map_or("none", |c| {
            BlameCause::ALL
                .iter()
                .copied()
                // max_by_key takes the last maximum; reversing keeps
                // ties on the higher-priority (earlier) cause.
                .rev()
                .max_by_key(|cause| c.blame[cause.index()])
                .expect("ALL is non-empty")
                .label()
        })
    }

    /// One message per `[gates]` bound of the scenario this run missed.
    fn missed_gates(&self) -> impl Iterator<Item = String> {
        let gates = &self.scenario.gates;
        let fresh = self.report.audit.fresh_fraction();
        let p95 = self.p95_latency_secs();
        let floor = gates.min_fresh_fraction.filter(|&floor| fresh < floor);
        let ceiling = gates.max_p95_latency_secs.filter(|&ceiling| p95 > ceiling);
        let floor =
            floor.map(|f| format!("fresh fraction {fresh:.4} is below the [gates] floor {f}"));
        let ceiling =
            ceiling.map(|c| format!("p95 latency {p95:.4} s is above the [gates] ceiling {c} s"));
        floor.into_iter().chain(ceiling)
    }
}

/// The one sweep executor: runs every cell of every scenario in
/// parallel and returns the runs in sweep order (scenario, strategy, axis
/// value, seed). The second value lists every [`check_report`]
/// violation and every `[gates]` bound of its scenario a run missed, one
/// message each, prefixed with the cell key.
pub fn run_matrix(scenarios: &[Scenario]) -> (Vec<CellRun<'_>>, Vec<String>) {
    let cells_of = |s| std::iter::repeat(s).zip(Scenario::cells(s));
    let jobs: Vec<(&Scenario, Cell)> = scenarios.iter().flat_map(cells_of).collect();
    let reports = run_parallel(&jobs, |(scenario, cell)| {
        World::new(scenario.world_config(cell)).run()
    });
    let mut runs = Vec::with_capacity(jobs.len());
    let mut violations = Vec::new();
    for ((scenario, cell), report) in jobs.into_iter().zip(reports) {
        let run = CellRun {
            scenario,
            cell,
            report,
        };
        let missed: Vec<String> = check_report(&run.report)
            .into_iter()
            .chain(run.missed_gates())
            .collect();
        if !missed.is_empty() {
            let key = run.key();
            violations.extend(missed.iter().map(|v| format!("{key}: {v}")));
        }
        runs.push(run);
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

/// Serialises a sweep as JSON with one run per line, so that a `diff`
/// of two reports names the cells that moved. A line is the cell key,
/// the p95 latency and the run's own [`RunReport::to_json`]:
///
/// ```text
/// {"matrix_schema":3,"cells":[
/// {"cell":"highway-convoy/rpcc/s42","p95_latency_secs":2.047,"report":{"strategy":"RPCC","level_mix":"SC",...}},
/// {"cell":"highway-convoy/push/s42","p95_latency_secs":184.024,"report":{"strategy":"Push",...}}
/// ]}
/// ```
pub fn report_json(runs: &[CellRun<'_>]) -> String {
    let line = |run: &CellRun<'_>| {
        format!(
            "{{\"cell\":{},\"p95_latency_secs\":{},\"report\":{}}}",
            json::escape(&run.key()),
            run.p95_latency_secs(),
            run.report.to_json()
        )
    };
    let lines: Vec<String> = runs.iter().map(line).collect();
    format!(
        "{{\"matrix_schema\":{MATRIX_SCHEMA},\"cells\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
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

fn scorecard(runs: &[CellRun<'_>]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                run.key(),
                format!("{:.4}", r.audit.fresh_fraction()),
                r.audit.stale_served().to_string(),
                run.dominant_blame().to_owned(),
                format!("{:.0}", r.mean_latency_secs() * 1000.0),
                format!("{:.0}", run.p95_latency_secs() * 1000.0),
                format!("{:.0}", r.traffic_per_minute()),
                format!("{:.1}", r.failure_rate() * 100.0),
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
    if let Some(path) = &opts.json {
        std::fs::write(path, report_json(&runs))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("fleet report -> {}", path.display());
    }
    print!("{}", scorecard(&runs));
    for violation in &violations {
        eprintln!("INVARIANT VIOLATED: {violation}");
    }
    Ok(violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MINIMAL cut to one seed of RPCC and Push, without its `[gates]`.
    fn two_cells() -> Scenario {
        let text = crate::scenario::tests::MINIMAL
            .replace("[\"rpcc\", \"push\", \"pull\"]", "[\"rpcc\", \"push\"]")
            .replace("seeds = [42, 43]", "seeds = [42]")
            .replace("min_fresh_fraction = 0.5\n", "");
        Scenario::parse(&text).unwrap()
    }

    #[test]
    fn cell_and_report_json_roundtrip() {
        let scenario = two_cells();
        let (runs, violations) = run_matrix(std::slice::from_ref(&scenario));
        assert_eq!(violations, Vec::<String>::new());
        let json = report_json(&runs);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2 + runs.len(), "{json}");
        assert_eq!(lines[0], "{\"matrix_schema\":3,\"cells\":[");
        assert_eq!(lines[3], "]}");
        assert!(json.ends_with("]}\n"));
        // Each line is the run's key, p95 and own report, nothing else.
        for (i, run) in runs.iter().enumerate() {
            let comma = if i + 1 < runs.len() { "," } else { "" };
            let line = format!(
                "{{\"cell\":\"{}\",\"p95_latency_secs\":{},\"report\":{}}}{comma}",
                run.key(),
                run.p95_latency_secs(),
                run.report.to_json()
            );
            assert_eq!(lines[1 + i], line);
        }
        assert_eq!(runs[0].key(), "mini/rpcc/s42");
        assert_eq!(runs[1].key(), "mini/push/s42");

        // The whole report is one JSON document, and the values read
        // back are the run's.
        let tree = mp2p_trace::json::parse(&json).expect("the report is JSON");
        let Some(mp2p_trace::json::Value::Arr(cells)) = tree.get("cells") else {
            panic!("no cells array in {json}");
        };
        assert_eq!(cells.len(), runs.len());
        for (tree, run) in cells.iter().zip(&runs) {
            assert_eq!(tree.get("cell").and_then(|v| v.as_str()), Some(&*run.key()));
            let p95 = tree.get("p95_latency_secs").and_then(|v| v.as_f64());
            assert_eq!(p95, Some(run.p95_latency_secs()));
            let fresh = tree.get("report").and_then(|r| r.get("fresh_fraction"));
            assert_eq!(
                fresh.and_then(|v| v.as_f64()),
                Some(run.report.audit.fresh_fraction())
            );
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
            )
            // RPCC(DC) serves under MINIMAL's 0.5 fresh-fraction floor.
            .replace("min_fresh_fraction = 0.5\n", "");
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
        let keys: Vec<String> = runs.iter().map(CellRun::key).collect();
        assert_eq!(keys[0], "mini/pull/query_secs=10/s42");
        assert_eq!(keys[7], "mini/rpcc:dc/query_secs=20/s43");
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
        let json = report_json(&runs);
        let lines: Vec<&str> = json.lines().collect();
        assert!(
            lines[1].starts_with("{\"cell\":\"mini/pull/query_secs=10/s42\",\"p95_latency_secs\":"),
            "{json}"
        );
        assert!(lines[8].starts_with("{\"cell\":\"mini/rpcc:dc/query_secs=20/s43\","));
    }

    #[test]
    fn scenario_floors_flag_violating_cells() {
        let scenario = two_cells();
        let (runs, violations) = run_matrix(std::slice::from_ref(&scenario));
        assert_eq!(violations, Vec::<String>::new(), "no [gates], no miss");
        for run in &runs {
            let fresh = run.report.audit.fresh_fraction();
            let p95 = run.p95_latency_secs();
            let gated = |floor: f64, ceiling: f64| {
                let mut gated = scenario.clone();
                gated.gates.min_fresh_fraction = Some(floor);
                gated.gates.max_p95_latency_secs = Some(ceiling);
                gated
            };
            let missed = |scenario: &Scenario| {
                let run = CellRun {
                    scenario,
                    cell: run.cell,
                    report: run.report.clone(),
                };
                run.missed_gates().collect::<Vec<_>>()
            };
            // A bound at the measured value holds...
            assert_eq!(missed(&gated(fresh, p95)), Vec::<String>::new());
            // ...and one a step past it is missed, on its own axis.
            let floor = fresh.next_up();
            let ceiling = p95.next_down();
            assert_eq!(
                missed(&gated(floor, p95)),
                [format!(
                    "fresh fraction {fresh:.4} is below the [gates] floor {floor}"
                )]
            );
            assert_eq!(
                missed(&gated(fresh, ceiling)),
                [format!(
                    "p95 latency {p95:.4} s is above the [gates] ceiling {ceiling} s"
                )]
            );
        }

        // The sweep reports each miss under its cell key, where it
        // reports a check_report violation.
        let mut tight = scenario.clone();
        tight.gates.min_fresh_fraction = Some(1.5);
        tight.gates.max_p95_latency_secs = Some(0.0);
        let (_, violations) = run_matrix(std::slice::from_ref(&tight));
        assert_eq!(violations.len(), 2 * runs.len(), "{violations:?}");
        assert!(violations[0].starts_with("mini/rpcc/s42: fresh fraction "));
        assert!(violations[0].ends_with(" is below the [gates] floor 1.5"));
        assert!(violations[1].starts_with("mini/rpcc/s42: p95 latency "));
        assert!(violations[3].ends_with(" s is above the [gates] ceiling 0 s"));
    }
}
