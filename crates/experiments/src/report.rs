//! Plain-text tables and CSV text for the `mp2p` subcommands: the
//! generic table, and the views of a sweep — each a fold over the runs
//! [`crate::matrix::run_matrix`] returns.

use mp2p_rpcc::{ConsistencyLevel, RunReport};

use crate::keys::Value;
use crate::matrix::{points, CellRun};

/// Renders a generic aligned text table.
///
/// # Example
///
/// ```
/// use mp2p_experiments::render_table;
///
/// let out = render_table(
///     &["Parameter", "Value"],
///     &[vec!["N_Peers".into(), "50".into()], vec!["C_Num".into(), "10".into()]],
/// );
/// assert!(out.contains("N_Peers"));
/// assert!(out.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header width");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    rule(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:width$} ", h, width = widths[i]));
    }
    out.push_str("|\n");
    rule(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("| {:width$} ", cell, width = widths[i]));
        }
        out.push_str("|\n");
    }
    rule(&mut out);
    out
}

/// Mean of `value` over the seeds of one sweep point.
fn mean(point: &[CellRun<'_>], value: impl Fn(&RunReport) -> f64) -> f64 {
    point.iter().map(|run| value(&run.report)).sum::<f64>() / point.len() as f64
}

/// Largest `value` over the seeds of one sweep point.
fn worst(point: &[CellRun<'_>], value: impl Fn(&RunReport) -> f64) -> f64 {
    let seeds = point.iter().map(|run| value(&run.report));
    seeds.fold(0.0, f64::max)
}

/// A run's row label: its strategy (as `name`), and in a swept scenario
/// the axis point — alone where one strategy makes the name redundant.
fn label(run: &CellRun<'_>, name: &str) -> String {
    let (scenario, cell) = (run.scenario, &run.cell);
    match (&scenario.axis, scenario.x(cell)) {
        (Some(axis), Some(x)) if scenario.strategies.len() == 1 => {
            format!("{} = {x}", axis.key)
        }
        (Some(axis), Some(x)) => format!("{name} / {} = {x}", axis.key),
        _ => name.to_owned(),
    }
}

/// The metric-by-x view of one scenario's runs: one row per axis value,
/// one column per strategy, each cell the seed mean of `value`.
pub fn render_series_table(
    x_label: &str,
    runs: &[CellRun<'_>],
    value: fn(&RunReport) -> f64,
    unit: &str,
) -> String {
    let points: Vec<&[CellRun<'_>]> = points(runs).collect();
    let strategies = runs.first().map_or(&[][..], |run| &run.scenario.strategies);
    let mut headers: Vec<&str> = vec![x_label];
    headers.extend(strategies.iter().map(|spec| spec.name));
    let x_count = points.len() / strategies.len().max(1);
    let mut rows = Vec::with_capacity(x_count);
    for i in 0..x_count {
        let first = &points[i][0];
        let mut row = vec![match first.scenario.x(&first.cell) {
            Some(Value::Num(x)) => format_num(*x),
            Some(x) => x.to_string(),
            None => "-".to_owned(),
        }];
        for s in 0..strategies.len() {
            let cell = mean(points[s * x_count + i], value);
            row.push(format!("{}{unit}", format_num(cell)));
        }
        rows.push(row);
    }
    render_table(&headers, &rows)
}

fn format_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// The one-row-per-variant view: every sweep point of `runs` with its
/// seed-mean headline metrics.
pub fn render_variant_table(runs: &[CellRun<'_>]) -> String {
    let rows: Vec<Vec<String>> = points(runs)
        .map(|point| {
            vec![
                label(&point[0], point[0].cell.strategy.name),
                format!("{:.0}", mean(point, RunReport::traffic_per_minute)),
                format!("{:.3}", mean(point, RunReport::mean_latency_secs)),
                format!("{:.3}", mean(point, RunReport::failure_rate)),
                format!("{:.1}", mean(point, |r| r.relay_gauge.mean())),
                format!("{:.3}", mean(point, |r| 1.0 - r.audit.fresh_fraction())),
            ]
        })
        .collect();
    render_table(
        &["variant", "tx/min", "latency(s)", "fail", "relays", "stale"],
        &rows,
    )
}

/// The per-level staleness view: for every sweep point and consistency
/// level, how stale the served answers were (means over seeds; the two
/// `max` columns are maxima).
pub fn render_staleness_table(runs: &[CellRun<'_>]) -> String {
    let mut rows = Vec::new();
    for point in points(runs) {
        for level in ConsistencyLevel::ALL {
            let i = level.index();
            let strategy = point[0].cell.strategy.strategy.label();
            rows.push(vec![
                format!("{} / {}", label(&point[0], strategy), level.label()),
                format!(
                    "{:.0}",
                    mean(point, |r| r.audit_by_level[i].served() as f64)
                ),
                format!(
                    "{:.2}",
                    mean(point, |r| (1.0 - r.audit_by_level[i].fresh_fraction())
                        * 100.0)
                ),
                format!(
                    "{:.1}",
                    mean(point, |r| r.audit_by_level[i]
                        .mean_staleness_of_stale()
                        .as_secs_f64())
                ),
                format!(
                    "{:.1}",
                    worst(point, |r| r.audit_by_level[i].max_staleness().as_secs_f64())
                ),
                format!(
                    "{:.0}",
                    worst(point, |r| r.audit_by_level[i].max_version_lag() as f64)
                ),
                format!("{:.3}", mean(point, |r| r.latency_by_level[i].mean_secs())),
            ]);
        }
    }
    render_table(
        &[
            "strategy / level",
            "served",
            "stale %",
            "mean stale (s)",
            "max stale (s)",
            "max version lag",
            "mean latency (s)",
        ],
        &rows,
    )
}

/// A figure's full data as CSV text: every metric, one row per sweep
/// point (strategy × x), seed-averaged; `transmissions` is the sum.
pub fn csv(figure: &str, runs: &[CellRun<'_>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "figure,strategy,x,traffic_per_min,latency_s,latency_p95_s,fail_rate,stale_frac,relay_mean,transmissions\n",
    );
    for point in points(runs) {
        let (scenario, cell) = (point[0].scenario, &point[0].cell);
        let transmissions: u64 = point
            .iter()
            .map(|run| run.report.traffic.transmissions())
            .sum();
        let _ = writeln!(
            out,
            "{figure},{},{},{:.3},{:.4},{:.4},{:.4},{:.4},{:.2},{transmissions}",
            cell.strategy.name,
            scenario.x(cell).map(Value::to_string).unwrap_or_default(),
            mean(point, RunReport::traffic_per_minute),
            mean(point, RunReport::mean_latency_secs),
            mean(point, |r| r.latency.percentile(0.95).as_secs_f64()),
            mean(point, RunReport::failure_rate),
            mean(point, |r| 1.0 - r.audit.fresh_fraction()),
            mean(point, |r| r.relay_gauge.mean()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_matrix;
    use crate::scenario::Scenario;

    /// Two strategies over two query intervals, small and short.
    fn swept() -> Scenario {
        let text = crate::scenario::tests::MINIMAL
            .replace("sim_mins = 5", "sim_mins = 2")
            .replace("preset = \"bursty\"", "preset = \"none\"")
            .replace("[\"rpcc\", \"push\", \"pull\"]", "[\"pull\", \"push\"]")
            .replace("seeds = [42, 43]", "query_secs = [10, 20]\nseeds = [42]");
        Scenario::parse(&text).expect("swept scenario parses")
    }

    #[test]
    fn table_is_aligned() {
        let out = render_table(
            &["a", "bee"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let widths: Vec<usize> = out.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{out}"
        );
    }

    #[test]
    fn series_table_has_row_per_x() {
        let scenario = swept();
        let (runs, _) = run_matrix(std::slice::from_ref(&scenario), false);
        let out = render_series_table("interval", &runs, RunReport::traffic_per_minute, "");
        assert!(out.contains("| interval | Pull "), "{out}");
        assert!(out.contains(" Push "), "{out}");
        assert!(
            out.contains("\n| 10.0 ") && out.contains("\n| 20.0 "),
            "{out}"
        );
        assert_eq!(
            out.matches('\n').count(),
            6,
            "rule + header + rule + 2 rows + rule:\n{out}"
        );
        // The other two views print one row per point (and level).
        assert_eq!(render_variant_table(&runs).matches('\n').count(), 4 + 4);
        let staleness = render_staleness_table(&runs);
        assert_eq!(staleness.matches('\n').count(), 4 + 4 * 3, "{staleness}");
        assert!(
            staleness.contains("| Pull / query_secs = 10 / WC "),
            "{staleness}"
        );
    }

    #[test]
    fn csv_round_trips_headers() {
        let scenario = swept();
        let (runs, _) = run_matrix(std::slice::from_ref(&scenario), false);
        let text = csv("fig7a", &runs);
        assert!(text.starts_with("figure,strategy,x,"));
        assert_eq!(text.lines().count(), 1 + 4, "{text}");
        assert!(text.contains("\nfig7a,Pull,10,"), "{text}");
        assert!(text.contains("\nfig7a,Push,20,"), "{text}");
        let columns = |line: &str| line.split(',').count();
        assert!(text.lines().all(|line| columns(line) == 10), "{text}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
