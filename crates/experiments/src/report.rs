//! Plain-text tables and CSV emission for the `mp2p` subcommands.

use std::io::Write;
use std::path::Path;

use crate::sweep::Series;

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

/// Renders one figure's series as a table: one row per x value, one
/// column per strategy, selecting the metric with `value`.
pub fn render_series_table<F: Fn(&crate::sweep::MeasuredPoint) -> f64>(
    x_label: &str,
    series: &[Series],
    value: F,
    unit: &str,
) -> String {
    let mut headers: Vec<&str> = vec![x_label];
    for s in series {
        headers.push(s.name);
    }
    let x_count = series.first().map(|s| s.points.len()).unwrap_or(0);
    let mut rows = Vec::with_capacity(x_count);
    for i in 0..x_count {
        let mut row = vec![format_num(series[0].points[i].x)];
        for s in series {
            row.push(format!("{}{unit}", format_num(value(&s.points[i]))));
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

/// Writes a figure's full data as CSV (all metrics, one row per
/// strategy × x).
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_csv(path: &Path, figure: &str, series: &[Series]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "figure,strategy,x,traffic_per_min,latency_s,latency_p95_s,fail_rate,stale_frac,relay_mean,transmissions"
    )?;
    for s in series {
        for p in &s.points {
            writeln!(
                f,
                "{figure},{},{},{:.3},{:.4},{:.4},{:.4},{:.4},{:.2},{}",
                s.name,
                p.x,
                p.traffic_per_min,
                p.latency_s,
                p.latency_p95_s,
                p.fail_rate,
                p.stale_frac,
                p.relay_mean,
                p.transmissions
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::MeasuredPoint;

    fn point(x: f64, t: f64) -> MeasuredPoint {
        MeasuredPoint {
            x,
            traffic_per_min: t,
            latency_s: 0.5,
            latency_p95_s: 1.0,
            fail_rate: 0.0,
            stale_frac: 0.0,
            relay_mean: 2.0,
            transmissions: 100,
        }
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
        let series = vec![
            Series {
                name: "Pull",
                points: vec![point(1.0, 100.0), point(2.0, 50.0)],
            },
            Series {
                name: "Push",
                points: vec![point(1.0, 20.0), point(2.0, 20.0)],
            },
        ];
        let out = render_series_table("interval", &series, |p| p.traffic_per_min, "");
        assert!(out.contains("Pull") && out.contains("Push"));
        assert_eq!(
            out.matches('\n').count(),
            6,
            "rule + header + rule + 2 rows + rule:\n{out}"
        );
    }

    #[test]
    fn csv_round_trips_headers() {
        let dir = std::env::temp_dir().join("mp2p_csv_test");
        let path = dir.join("fig.csv");
        let series = vec![Series {
            name: "RPCC(SC)",
            points: vec![point(1.0, 10.0)],
        }];
        write_csv(&path, "fig7a", &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("figure,strategy,x,"));
        assert!(text.contains("fig7a,RPCC(SC),1,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
