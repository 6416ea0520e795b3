//! `--check-repeat A B`: do two runs of one commit at one seed agree?
//!
//! Each file is the captured standard output of one invocation. Host
//! times must agree within the metric's bound; everything simulated —
//! `sim_*` metrics, `count`- and `sim_ratio`-unit metrics, the
//! `sim_fingerprint` line — must be exactly equal, because the simulator
//! is deterministic.

use std::fmt::Write as _;

use mp2p_trace::json::{self, Value};

use crate::spec::END_TO_END;

/// One invocation's result, read back from its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The `correct` flag.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
    /// The `sim_fingerprint` line's value, when the output had one.
    pub fingerprint: Option<String>,
}

/// Parses captured standard output: the last non-empty line is the
/// result object, an earlier `sim_fingerprint <hex>` line is optional.
pub fn parse_output(text: &str) -> Result<RunResult, String> {
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let doc = json::parse(last).ok_or("the last line is not a JSON object")?;
    let field = |key: &str| doc.get(key).ok_or(format!("result lacks {key:?}"));
    let Value::Obj(entries) = field("metrics")? else {
        return Err("\"metrics\" is not an object".into());
    };
    let mut metrics = Vec::with_capacity(entries.len());
    for (name, entry) in entries {
        let value = entry.get("value").and_then(Value::as_f64);
        let unit = entry.get("unit").and_then(Value::as_str);
        match (value, unit) {
            (Some(value), Some(unit)) => metrics.push((name.clone(), value, unit.to_owned())),
            _ => return Err(format!("metric {name:?} lacks a numeric value or a unit")),
        }
    }
    Ok(RunResult {
        correct: field("correct")?
            .as_bool()
            .ok_or("\"correct\" is not a boolean")?,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("\"attempted\" is not a count")?,
        failed: field("failed")?
            .as_u64()
            .ok_or("\"failed\" is not a count")?,
        metrics,
        fingerprint: text
            .lines()
            .find_map(|l| l.strip_prefix("sim_fingerprint "))
            .map(|hex| hex.trim().to_owned()),
    })
}

/// Whether two runs at one seed must agree on this metric exactly: the
/// end-to-end `sim_*` statistics, and per-layer metrics whose unit says
/// they are counts or ratios of simulated counts. (Not "starts with
/// `sim`": `sim.queue.op_ns` is a host time of the `sim` crate.)
fn exact(name: &str, unit: &str) -> bool {
    name.starts_with("sim_") || unit == "count" || unit == "sim_ratio"
}

/// Compares two results metric by metric. Returns the difference table
/// and whether every gated comparison held.
pub fn check_repeat(a: &RunResult, b: &RunResult) -> (String, bool) {
    let mut table = String::new();
    let mut ok = true;
    let mut fail = |table: &mut String, what: String| {
        let _ = writeln!(table, "FAIL {what}");
        ok = false;
    };
    for (label, run) in [("A", a), ("B", b)] {
        if !run.correct || run.failed != 0 {
            fail(
                &mut table,
                format!("{label}: correct={} failed={}", run.correct, run.failed),
            );
        }
    }
    if a.attempted != b.attempted {
        // Not a failure: a timed run fits as many repetitions as the host
        // allowed in its window.
        let _ = writeln!(table, "note: attempted {} vs {}", a.attempted, b.attempted);
    }
    match (&a.fingerprint, &b.fingerprint) {
        (Some(x), Some(y)) if x != y => fail(&mut table, format!("sim_fingerprint {x} vs {y}")),
        _ => {}
    }
    let names = |r: &RunResult| r.metrics.iter().map(|m| m.0.clone()).collect::<Vec<_>>();
    if names(a) != names(b) {
        fail(
            &mut table,
            "the two runs report different metric sets".to_owned(),
        );
        return (table, false);
    }
    let _ = writeln!(
        table,
        "{:<40} {:>16} {:>16} {:>9}  verdict",
        "metric", "A", "B", "rel.diff"
    );
    for ((name, x, unit), (_, y, _)) in a.metrics.iter().zip(&b.metrics) {
        let rel = if x == y {
            0.0
        } else {
            (y - x) / x.abs().max(f64::MIN_POSITIVE)
        };
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        let verdict = if exact(name, unit) {
            if x.to_bits() == y.to_bits() {
                "exact".to_owned()
            } else {
                fail(
                    &mut table,
                    format!("{name} must repeat exactly: {x} vs {y}"),
                );
                "DIFFERS".to_owned()
            }
        } else {
            match bound {
                Some(bound) if rel.abs() > bound => {
                    fail(
                        &mut table,
                        format!("{name} differs by {rel:+.3}, bound {bound}"),
                    );
                    format!("BEYOND {bound}")
                }
                Some(bound) => format!("within {bound}"),
                None => "reported".to_owned(),
            }
        };
        let _ = writeln!(
            table,
            "{name:<40} {x:>16.6} {y:>16.6} {rel:>+9.4}  {verdict}"
        );
    }
    (table, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(cpu: f64, traffic: f64, fingerprint: &str) -> String {
        format!(
            "cell x n=3\nsim_fingerprint {fingerprint}\n{{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{{\"cpu_s\":{{\"value\":{cpu},\"unit\":\"s\"}},\"sim_traffic_per_min\":{{\"value\":{traffic},\"unit\":\"tx/min\"}}}}}}\n"
        )
    }

    #[test]
    fn host_times_get_the_bound_and_simulated_numbers_must_be_exact() {
        let a = parse_output(&output(1.0, 3348.25, "00ff")).unwrap();
        assert_eq!(a.fingerprint.as_deref(), Some("00ff"));
        assert_eq!(a.metrics.len(), 2);
        let near = parse_output(&output(1.2, 3348.25, "00ff")).unwrap();
        assert!(check_repeat(&a, &near).1, "{}", check_repeat(&a, &near).0);
        let slow = parse_output(&output(1.3, 3348.25, "00ff")).unwrap();
        assert!(!check_repeat(&a, &slow).1);
        let drifted = parse_output(&output(1.0, 3348.26, "00ff")).unwrap();
        assert!(!check_repeat(&a, &drifted).1);
        let other = parse_output(&output(1.0, 3348.25, "0100")).unwrap();
        assert!(!check_repeat(&a, &other).1);
    }

    #[test]
    fn malformed_outputs_are_errors_not_panics() {
        assert!(parse_output("").is_err());
        assert!(parse_output("not json").is_err());
        assert!(parse_output("{\"correct\":true}").is_err());
        assert!(parse_output(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"x\":{\"value\":\"1\"}}}"
        )
        .is_err());
    }
}
