//! Experiment harness: the paper's evaluation (Section 5) as runnable
//! sweeps, and the library half of the `mp2p` binary.
//!
//! The binary's four subcommands are the `command` functions of
//! [`run`], [`matrix`], [`analyze`] and [`paper`]; each parses its own
//! flag list (a [`cli::Spec`]) and returns whether its gates passed.
//!
//! Every table and figure of the paper maps to a function here and an
//! artefact id of `mp2p paper`:
//!
//! | Paper artefact | Function | `mp2p paper <id>` |
//! |---|---|---|
//! | Table 1 (simulation parameters) | [`table1_rows`] | `table1` |
//! | Fig. 7(a) traffic vs. update interval | [`fig7a`] | `fig7a` |
//! | Fig. 7(b) traffic vs. query interval | [`fig7b`] | `fig7b` |
//! | Fig. 7(c) traffic vs. cache number | [`fig7c`] | `fig7c` |
//! | Fig. 8(a–c) latency, same sweeps | [`fig8a`]/[`fig8b`]/[`fig8c`] | `fig8a`/`fig8b`/`fig8c` |
//! | Fig. 9(a/b) impact of invalidation TTL | [`fig9`] | `fig9` |
//! | Design-choice ablations (not in the paper) | [`ablation`] | `ablation` |
//! | Per-level staleness audit (not in the paper) | [`staleness`] | `staleness` |
//!
//! Each sweep runs the full simulation once per (strategy, x-value, seed)
//! and averages across seeds. `RunOptions::quick()` uses shortened runs
//! for interactive use; `RunOptions::full()` reproduces the paper's five
//! simulated hours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod analyze;
mod check;
pub mod cli;
mod figures;
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
    ConsistencyReportTotals, ConsistencyTimeline, DivergenceSample, FrameBirth, Incident,
    NodeHealth, ProvenanceGraph, ReportTotals, SpanTotals, TraceAnalysis,
};
pub use check::check_report;
pub use figures::{
    ablation, fig7a, fig7b, fig7c, fig8a, fig8b, fig8c, fig9, staleness, table1_rows, Artefact,
    FigureData, Table, View,
};
pub use matrix::{
    compare_matrix, gate_violations, run_matrix, CellRegression, GateAxis, MatrixCell,
    MatrixReport, MATRIX_SCHEMA,
};
pub use perf::{bench_config, bench_terrain, AREA_PER_PEER_M2};
pub use report::{render_series_table, render_table, write_csv};
pub use scenario::{GateFloors, Scenario, ScenarioError, SCENARIO_SCHEMA};
pub use sweep::{
    extended_strategies, paper_strategies, run_parallel, sweep, MeasuredPoint, RunOptions, Series,
    StrategySpec,
};
