//! `mp2p analyze` — offline trace analyzer: span reconstruction, report
//! cross-checks, consistency timeline, root-cause explainer.
//!
//! ```text
//! mp2p analyze --trace FILE.jsonl [--report FILE.json] [--top N]
//!              [--consistency] [--baseline FILE.json] [--tolerance X]
//!              [--explain QUERY | --explain --stale-serves] [--health]
//! ```
//!
//! Reads a JSONL journal written by `mp2p run --trace`, reconstructs the
//! causal span of every query (issue → phases → answer), and prints
//! latency percentiles by consistency level and answer provenance, the
//! span-phase time breakdown, a post-warm-up traffic timeline, and the
//! top-N slowest spans.
//!
//! With `--report` (the JSON written by `mp2p run --json`), the
//! span-derived totals are cross-checked against the simulation's own
//! counters; any divergence is printed and the command exits 1, making
//! the check usable as a CI gate. Exit codes: 0 clean, 1 cross-check
//! mismatch or truncated journal, 2 usage or I/O error.
//!
//! `--consistency` renders the observatory's view of the journal — the
//! divergence timeline and the stale-serve blame partition — and, with
//! `--report`, cross-checks both against the report's `consistency`
//! section. `--baseline` gates the report's `fresh_fraction` against a
//! committed baseline report: exit 1 when it drops more than
//! `--tolerance` (a fraction in [0, 1), default 0.02) below the
//! baseline's. `--tolerance` without `--baseline` is a usage error.
//!
//! `--explain` walks the provenance graph (the frame records written by
//! `mp2p run --provenance`) and prints one causal chain per stale serve,
//! from the missed source update through the dropped or delayed frame to
//! the recovery action that repaired the copy. `--explain QUERY`
//! explains one query; `--explain --stale-serves` explains every stale
//! serve and, with `--report`, cross-checks the terminal causes against
//! the report's blame partition. `--health` prints the per-node
//! scoreboard derived from the same graph.

use std::path::{Path, PathBuf};

use crate::analysis::{
    analyze_file, crosscheck, crosscheck_consistency, crosscheck_explain, explain_stale_serves,
    render_analysis, render_consistency, render_explain, render_health, ConsistencyReportTotals,
    ReportTotals,
};
use crate::cli::{fraction, Args, Spec};

/// The flag list of `mp2p analyze`.
pub static SPEC: Spec = Spec {
    command: "analyze",
    positional: "",
    flags: &[
        ("--trace", "FILE.jsonl"),
        ("--report", "FILE.json"),
        ("--top", "N"),
        ("--consistency", ""),
        ("--baseline", "FILE.json"),
        ("--tolerance", "X"),
        ("--explain", "[QUERY]"),
        ("--stale-serves", ""),
        ("--health", ""),
    ],
};

/// A parsed `mp2p analyze` command line.
#[derive(Debug, Clone)]
pub struct Options {
    trace: PathBuf,
    report: Option<PathBuf>,
    top: usize,
    consistency: bool,
    baseline: Option<PathBuf>,
    tolerance: f64,
    explain: bool,
    explain_query: Option<u64>,
    stale_serves: bool,
    health: bool,
}

impl Options {
    /// Parses the arguments following `mp2p analyze`. Every rejection is
    /// a one-line error followed by the flag list.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let args = Args::parse(&SPEC, argv)?;
        Self::from_args(&args).map_err(|msg| SPEC.error(msg))
    }

    fn from_args(args: &Args) -> Result<Options, String> {
        let opts = Options {
            trace: args
                .value_of("--trace")
                .map(PathBuf::from)
                .ok_or("missing --trace FILE.jsonl")?,
            report: args.value_of("--report").map(PathBuf::from),
            top: args
                .get("--top", "a count", |_: &usize| true)?
                .unwrap_or(10),
            consistency: args.flag("--consistency"),
            baseline: args.value_of("--baseline").map(PathBuf::from),
            tolerance: args
                .get("--tolerance", "a fraction in [0, 1)", fraction)?
                .unwrap_or(0.02),
            explain: args.flag("--explain"),
            explain_query: args.get("--explain", "a query id", |_: &u64| true)?,
            stale_serves: args.flag("--stale-serves"),
            health: args.flag("--health"),
        };
        if opts.baseline.is_some() && opts.report.is_none() {
            return Err("--baseline needs --report (the run to gate)".into());
        }
        if args.flag("--tolerance") && opts.baseline.is_none() {
            return Err("--tolerance is a bound of --baseline".into());
        }
        if opts.stale_serves && !opts.explain {
            return Err("--stale-serves is a mode of --explain".into());
        }
        Ok(opts)
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read report {}: {err}", path.display()))
}

/// Prints one cross-check's verdict; true when it agreed exactly.
fn agreed(what: &str, path: &Path, mismatches: &[String], detail: &str) -> bool {
    if mismatches.is_empty() {
        println!("{what} against {}: exact agreement{detail}", path.display());
    } else {
        eprintln!("\n{what} against {} FAILED:", path.display());
        for line in mismatches {
            eprintln!("  {line}");
        }
    }
    mismatches.is_empty()
}

/// `mp2p analyze`: parses `argv`, replays the journal and runs every
/// requested cross-check. `Ok(false)` means a check failed.
pub fn command(argv: &[String]) -> Result<bool, String> {
    let opts = Options::parse(argv)?;
    let analysis = analyze_file(&opts.trace)
        .map_err(|err| format!("cannot analyze {}: {err}", opts.trace.display()))?;
    print!("{}", render_analysis(&analysis, opts.top));
    if opts.consistency {
        print!("{}", render_consistency(&analysis.consistency));
    }
    let incidents = opts.explain.then(|| explain_stale_serves(&analysis));
    if let Some(incidents) = &incidents {
        print!("{}", render_explain(incidents, opts.explain_query));
    }
    if opts.health {
        print!("{}", render_health(&analysis));
    }

    // Orphan-tagged records are already reported inside render_analysis.
    let mut pass = analysis.orphan_tagged == 0;
    let Some(path) = &opts.report else {
        return Ok(pass);
    };
    let text = read(path)?;
    let report = ReportTotals::from_report_json(&text).ok_or_else(|| {
        format!(
            "report {} lacks the expected counters (written by run --json?)",
            path.display()
        )
    })?;
    println!();
    pass &= agreed(
        "Cross-check",
        path,
        &crosscheck(&analysis.measured_totals(), &report),
        "",
    );
    let consistency_totals = || {
        ConsistencyReportTotals::from_report_json(&text).ok_or_else(|| {
            format!(
                "report {} has no consistency section (run with --consistency?)",
                path.display()
            )
        })
    };
    if opts.consistency {
        let totals = consistency_totals()?;
        pass &= agreed(
            "Consistency cross-check",
            path,
            &crosscheck_consistency(&analysis.consistency, &totals),
            &format!(" ({} stale serves attributed)", totals.stale_served),
        );
    }
    if let Some(incidents) = incidents.as_ref().filter(|_| opts.stale_serves) {
        pass &= agreed(
            "Explain cross-check",
            path,
            &crosscheck_explain(incidents, &consistency_totals()?),
            &format!(
                " ({} causal chains, terminal causes match the blame partition)",
                incidents.len()
            ),
        );
    }
    if let Some(baseline_path) = &opts.baseline {
        let fresh_of = |text: &str, path: &Path| -> Result<f64, String> {
            mp2p_trace::json::parse(text)
                .and_then(|v| v.get("fresh_fraction").and_then(|f| f.as_f64()))
                .ok_or_else(|| format!("report {} lacks fresh_fraction", path.display()))
        };
        let run_fresh = fresh_of(&text, path)?;
        let baseline_fresh = fresh_of(&read(baseline_path)?, baseline_path)?;
        let floor = baseline_fresh - opts.tolerance;
        if run_fresh < floor {
            pass = false;
            eprintln!(
                "\nConsistency regression: fresh_fraction {run_fresh:.4} fell below \
                 the baseline floor {floor:.4} (baseline {baseline_fresh:.4} from {}, \
                 tolerance {:.3})",
                baseline_path.display(),
                opts.tolerance,
            );
        } else {
            println!(
                "Fresh-fraction gate: {run_fresh:.4} >= floor {floor:.4} \
                 (baseline {baseline_fresh:.4}, tolerance {:.3})",
                opts.tolerance,
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Options, String> {
        let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Options::parse(&argv)
    }

    #[test]
    fn explain_takes_an_optional_query_id() {
        let one = parse(&["--trace", "t", "--explain", "17"]).unwrap();
        assert!(one.explain && one.explain_query == Some(17));
        let all = parse(&["--trace", "t", "--explain", "--stale-serves"]).unwrap();
        assert!(all.explain && all.stale_serves && all.explain_query.is_none());
        assert!(parse(&["--trace", "t", "--explain", "seven"]).is_err());
    }

    #[test]
    fn dependent_flags_are_usage_errors() {
        for (bad, needle) in [
            (&[][..], "missing --trace"),
            (&["--trace", "t", "--stale-serves"][..], "mode of --explain"),
            (&["--trace", "t", "--baseline", "b"][..], "needs --report"),
            (&["--trace", "t", "--top", "-1"][..], "--top expects"),
            (
                &["--trace", "t", "--tolerance", "nan"][..],
                "--tolerance expects",
            ),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
            assert!(err.contains("\nusage: mp2p analyze "), "{err}");
        }
    }
}
