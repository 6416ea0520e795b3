//! Experiment harness: the paper's evaluation (Section 5) as runnable
//! sweeps, and the library half of the `mp2p` binary.
//!
//! The binary's four subcommands are the `command` functions of
//! [`run`], [`matrix`], [`analyze`] and [`paper`]; each parses its own
//! flag list (a [`cli::Spec`]) and returns whether its gates passed.
//!
//! Every sweep is a scenario file ([`scenario`]) run through one
//! executor ([`run_matrix`]); what a subcommand prints is a fold over
//! the runs it returns. Every table and figure of the paper maps to a
//! file under `scenarios/paper/` and an artefact id of `mp2p paper`:
//!
//! | Paper artefact | Scenario file(s) | `mp2p paper <id>` |
//! |---|---|---|
//! | Table 1 (simulation parameters) | — ([`paper::table1_rows`]) | `table1` |
//! | Fig. 7(a) / 8(a) traffic / latency vs. update interval | `update-interval.toml` | `fig7a` / `fig8a` |
//! | Fig. 7(b) / 8(b) vs. query interval | `query-interval.toml` | `fig7b` / `fig8b` |
//! | Fig. 7(c) / 8(c) vs. cache number | `cache-number.toml` | `fig7c` / `fig8c` |
//! | Fig. 9(a/b) impact of invalidation TTL | `invalidation-ttl.toml` | `fig9` |
//! | Design-choice ablations (not in the paper) | `ablation-*.toml` | `ablation` |
//! | Per-level staleness audit (not in the paper) | `staleness.toml` | `staleness` |
//!
//! The files carry the paper's five simulated hours and seeds 42–44;
//! `mp2p paper` without `--full` cuts them to [`scenario::QUICK`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod analyze;
mod check;
pub mod cli;
pub mod keys;
pub mod matrix;
pub mod paper;
pub mod perf;
mod report;
pub mod run;
pub mod scenario;
mod sweep;

pub use analysis::{
    analyze_file, analyze_journal, crosscheck, crosscheck_consistency, crosscheck_explain,
    explain_stale_serves, render_analysis, render_consistency, render_explain, render_health,
    ConsistencyReportTotals, ConsistencyTimeline, DivergenceSample, Incident, NodeHealth,
    ProvenanceGraph, ReportTotals, SpanTotals, TraceAnalysis,
};
pub use check::check_report;
pub use matrix::{
    compare_matrix, gate_violations, run_matrix, CellRegression, CellRun, GateAxis, MatrixCell,
    MatrixReport, MATRIX_SCHEMA,
};
pub use perf::{bench_config, bench_terrain, AREA_PER_PEER_M2};
pub use report::render_table;
pub use scenario::{Axis, Cell, GateFloors, Horizon, Scenario, ScenarioError, SCENARIO_SCHEMA};
pub use sweep::{extended_strategies, paper_strategies, StrategySpec};
