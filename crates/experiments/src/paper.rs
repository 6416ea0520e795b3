//! `mp2p paper` — regenerate the paper's evaluation artefacts.
//!
//! ```text
//! mp2p paper [table1|fig7a|fig7b|fig7c|fig8a|fig8b|fig8c|fig9|ablation|staleness|all] [--full]
//! ```
//!
//! An artefact id names scenario files under `scenarios/paper/` and a
//! view of their runs; `mp2p paper` is [`run_matrix`] over those files
//! (so every run passes [`crate::check_report`], and
//! `mp2p matrix --scenarios scenarios/paper` sweeps the same cells).
//! Each artefact prints its tables; figures also write every metric of
//! every curve to `results/<id>.csv`. Without an id (or with `all`)
//! everything is regenerated in one pass, each Fig. 7/8 sweep running
//! once and printing both its traffic (Fig. 7) and latency (Fig. 8)
//! panel. The files carry the paper's 5 hours and seeds 42–44, which is
//! what `--full` runs; the default is a quick mode (45 simulated
//! minutes, 2 seeds).

use std::path::{Path, PathBuf};

use mp2p_rpcc::{
    RunReport, WorldConfig, BROADCAST_TTL, MU_CAR, MU_CE, MU_CS, OMEGA, TTN, TTP, TTR,
};

use crate::cli::{Args, Spec};
use crate::matrix::{run_matrix, CellRun};
use crate::report::{
    csv, render_series_table, render_staleness_table, render_table, render_variant_table,
};
use crate::scenario::{Horizon, Scenario, QUICK};

/// The flag list of `mp2p paper`.
pub static SPEC: Spec = Spec {
    command: "paper",
    positional: "table1|fig7a|fig7b|fig7c|fig8a|fig8b|fig8c|fig9|ablation|staleness|all",
    flags: &[("--full", "")],
};

/// One y-axis reading of a sweep: which metric a figure panel plots.
#[derive(Debug, Clone, Copy)]
pub struct View {
    /// Panel heading, printed when a figure shows more than one view.
    pub heading: &'static str,
    /// Selects the plotted metric of a run.
    pub value: fn(&RunReport) -> f64,
    /// Unit suffix of a table cell.
    pub unit: &'static str,
    /// What the numbers are, printed under the table.
    pub note: &'static str,
}

/// The Fig. 7 / Fig. 9(a) y-axis.
pub const TRAFFIC: View = View {
    heading: "Network traffic",
    value: RunReport::traffic_per_minute,
    unit: "",
    note: "(transmissions per simulated minute; every MAC-level hop counted)",
};

/// The Fig. 8 / Fig. 9(b) y-axis (log scale in the paper).
pub const LATENCY: View = View {
    heading: "Query latency",
    value: RunReport::mean_latency_secs,
    unit: "s",
    note: "(mean query latency over served queries)",
};

/// How an artefact's runs are printed.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// No runs: Table 1, live from [`WorldConfig::paper_default`].
    Table1,
    /// One swept file as metric-by-x series, one table per view; every
    /// metric of every curve goes to the CSV.
    Figure,
    /// One row per strategy × axis value; one table per file, headed by
    /// the file's summary.
    Variants,
    /// One file's served answers per strategy and consistency level.
    Staleness,
}

/// One artefact id of `mp2p paper`: the files it runs and how it prints
/// them.
#[derive(Debug, Clone, Copy)]
struct Artefact {
    id: &'static str,
    /// Scenario files under `scenarios/paper/`, without `.toml`.
    files: &'static [&'static str],
    layout: Layout,
    /// A figure's id as in the paper; names its CSV.
    figure: &'static str,
    /// The title line (after the figure id, for a figure).
    title: &'static str,
    x_label: &'static str,
    views: &'static [View],
}

const ARTEFACT: Artefact = Artefact {
    id: "",
    files: &[],
    layout: Layout::Figure,
    figure: "",
    title: "",
    x_label: "",
    views: &[],
};

const UPDATE: Artefact = Artefact {
    files: &["update-interval"],
    x_label: "update interval (s)",
    ..ARTEFACT
};
const QUERY: Artefact = Artefact {
    files: &["query-interval"],
    x_label: "query interval (s)",
    ..ARTEFACT
};
const CACHE: Artefact = Artefact {
    files: &["cache-number"],
    x_label: "cache number",
    ..ARTEFACT
};

/// Every artefact id but `all`, in the order `all` prints them.
#[rustfmt::skip]
const ARTEFACTS: [Artefact; 10] = [
    Artefact { id: "table1", layout: Layout::Table1,
               title: "Table 1. Simulation Parameters (paper defaults, live from WorldConfig)", ..ARTEFACT },
    Artefact { id: "fig7a", figure: "Fig 7(a)", views: &[TRAFFIC],
               title: "Network traffic under different update intervals", ..UPDATE },
    Artefact { id: "fig7b", figure: "Fig 7(b)", views: &[TRAFFIC],
               title: "Network traffic under different query intervals", ..QUERY },
    Artefact { id: "fig7c", figure: "Fig 7(c)", views: &[TRAFFIC],
               title: "Network traffic under different cache numbers", ..CACHE },
    Artefact { id: "fig8a", figure: "Fig 8(a)", views: &[LATENCY],
               title: "Query latency under different update intervals (log scale in the paper)", ..UPDATE },
    Artefact { id: "fig8b", figure: "Fig 8(b)", views: &[LATENCY],
               title: "Query latency under different query intervals (log scale in the paper)", ..QUERY },
    Artefact { id: "fig8c", figure: "Fig 8(c)", views: &[LATENCY],
               title: "Query latency under different cache numbers (log scale in the paper)", ..CACHE },
    Artefact { id: "fig9", figure: "Fig 9", files: &["invalidation-ttl"], x_label: "TTL (hops)",
               views: &[TRAFFIC, LATENCY],
               title: "Impact of invalidation TTL: (a) network traffic, (b) query latency", ..ARTEFACT },
    Artefact { id: "ablation", layout: Layout::Variants,
               files: &["ablation-hysteresis", "ablation-poll-ttl", "ablation-adaptive-2min",
                        "ablation-adaptive-15min", "ablation-relay-cap", "ablation-routing"],
               title: "Ablations of RPCC(SC) at Table 1 defaults", ..ARTEFACT },
    Artefact { id: "staleness", layout: Layout::Staleness, files: &["staleness"],
               title: "Consistency quality under the hybrid (1/3 weak, 1/3 Δ, 1/3 strong) workload,\n\
                       Table 1 defaults", ..ARTEFACT },
];

const STALENESS_GUIDE: &str =
    "\nReading guide: the baselines ignore the requested level (pull validates every\n\
    query, push holds every query for the next report), so their three rows differ\n\
    only by sampling. RPCC differentiates: weak rows never wait and go stalest,\n\
    Δ rows ride the TTP lease (staleness ≤ TTP + report cycle), strong rows ride\n\
    relay freshness (staleness ≤ one report cycle).";

/// The artefacts `id` names. `all` is everything in one pass: Figs 7 and
/// 8 share their sweeps, so each runs once, under its Fig. 7 id, and
/// prints both panels.
fn artefacts(id: &str) -> Vec<Artefact> {
    if id != "all" {
        return ARTEFACTS.iter().filter(|a| a.id == id).copied().collect();
    }
    let once = ARTEFACTS.iter().filter(|a| !a.id.starts_with("fig8"));
    let both = |a: &Artefact| match a.id.starts_with("fig7") {
        true => &[TRAFFIC, LATENCY][..],
        false => a.views,
    };
    once.map(|a| Artefact {
        views: both(a),
        ..*a
    })
    .collect()
}

/// Table 1 of the paper, as (parameter, description, default) rows taken
/// from the live configuration (so the table can never drift from the
/// code).
pub fn table1_rows() -> Vec<Vec<String>> {
    let cfg = WorldConfig::paper_default(0);
    let km = |metres: f64| metres / 1_000.0;
    let area = format!(
        "{:.1}km*{:.1}km",
        km(cfg.terrain.width()),
        km(cfg.terrain.height())
    );
    let churn = cfg.i_switch.map_or("off".to_owned(), |d| d.to_string());
    #[rustfmt::skip]
    let rows = [
        ("N_Peers", "Number of peers in the network", cfg.n_peers.to_string()),
        ("T_Area", "Physical terrain dimension of the network", area),
        ("C_Num", "Cache number of each mobile host", cfg.c_num.to_string()),
        ("C_Range", "Communication range of mobile hosts", format!("{:.0}m", cfg.range)),
        ("T_Sim", "Simulation time", cfg.sim_time.to_string()),
        ("I_Update", "Average interval of data item update", cfg.i_update.to_string()),
        ("I_Query", "Average interval of query requests", cfg.i_query.to_string()),
        ("TTL_BR", "TTL of broadcast message in simple push/pull", format!("{BROADCAST_TTL} hops")),
        ("", "TTL of invalidation message in RPCC", format!("{} hops", cfg.proto.invalidation_ttl)),
        ("TTN_OP", "TTN of data item at owner peer", TTN.to_string()),
        ("TTR_RP", "TTR of data item at relay peer", TTR.to_string()),
        ("TTP_CP", "TTP of data item at cache peer", TTP.to_string()),
        ("I_Switch", "Switching interval of each peer", churn),
        ("mu_CAR", "Threshold of CAR (Eq. 4.2.3)", MU_CAR.to_string()),
        ("mu_CS", "Threshold of CS (Eq. 4.2.6)", MU_CS.to_string()),
        ("mu_CE", "Threshold of CE (Eq. 4.2.7)", MU_CE.to_string()),
        ("omega", "Weighting parameter of recent/history values", OMEGA.to_string()),
    ];
    let row = |(name, desc, value): (&str, &str, String)| vec![name.into(), desc.into(), value];
    rows.into_iter().map(row).collect()
}

/// One regenerated artefact: what `mp2p paper` prints for it, and the
/// CSV it writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Printed {
    /// The title line and every table, as printed.
    pub text: String,
    /// `results/<id>.csv` and its text; `None` for table-only artefacts.
    pub csv: Option<(PathBuf, String)>,
}

/// Prints one artefact from the runs of its files, one slice per file.
fn print(artefact: &Artefact, files: &[&[CellRun<'_>]]) -> Printed {
    use std::fmt::Write as _;
    let sim_time = |runs: &[CellRun<'_>]| runs[0].scenario.world.sim_time;
    let mut text = String::new();
    let mut csv_file = None;
    match artefact.layout {
        Layout::Table1 => {
            let headers = ["Parameter", "Description", "Default Value"];
            let _ = writeln!(text, "\n{}", artefact.title);
            text.push_str(&render_table(&headers, &table1_rows()));
        }
        Layout::Figure => {
            let runs = files[0];
            let _ = writeln!(text, "\n{} — {}", artefact.figure, artefact.title);
            for view in artefact.views {
                if artefact.views.len() > 1 {
                    let _ = writeln!(text, "\n{}", view.heading);
                }
                let table = render_series_table(artefact.x_label, runs, view.value, view.unit);
                let _ = writeln!(text, "{table}{}", view.note);
            }
            let stem = artefact.figure.to_lowercase().replace([' ', '(', ')'], "");
            let file = PathBuf::from("results").join(format!("{stem}.csv"));
            csv_file = Some((file, csv(artefact.figure, runs)));
        }
        Layout::Variants => {
            let horizon = sim_time(files[0]);
            let _ = writeln!(text, "\n{}, {horizon} simulated", artefact.title);
            for runs in files {
                let _ = writeln!(text, "\n{}", runs[0].scenario.summary);
                text.push_str(&render_variant_table(runs));
            }
        }
        Layout::Staleness => {
            let horizon = sim_time(files[0]);
            let _ = writeln!(text, "\n{}, {horizon} simulated.", artefact.title);
            text.push_str(&render_staleness_table(files[0]));
            let _ = writeln!(text, "{STALENESS_GUIDE}");
        }
    }
    Printed {
        text,
        csv: csv_file,
    }
}

/// Regenerates the artefact(s) `id` names from the scenario files under
/// `dir`, cut down to `horizon` if one is given: loads every file, runs
/// all their cells through [`run_matrix`] in one pass, and prints each
/// artefact from the runs of its files. The second value is
/// [`run_matrix`]'s: every [`crate::check_report`] violation (no file
/// under `scenarios/paper/` has `[gates]`). An unknown id yields nothing.
pub fn regenerate(
    id: &str,
    dir: &Path,
    horizon: Option<Horizon>,
) -> Result<(Vec<Printed>, Vec<String>), String> {
    let artefacts = artefacts(id);
    let mut scenarios = Vec::new();
    for file in artefacts.iter().flat_map(|a| a.files) {
        let mut scenario = Scenario::load(&dir.join(format!("{file}.toml")))?;
        if let Some(horizon) = horizon {
            scenario.shorten(horizon)?;
        }
        scenarios.push(scenario);
    }
    let (runs, violations) = run_matrix(&scenarios);
    // Runs come back in file order: hand each artefact those of its files.
    let mut by_file = runs.chunk_by(|a, b| std::ptr::eq(a.scenario, b.scenario));
    let printed = artefacts.iter().map(|artefact| {
        let files: Vec<_> = by_file.by_ref().take(artefact.files.len()).collect();
        print(artefact, &files)
    });
    Ok((printed.collect(), violations))
}

/// A parsed `mp2p paper` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    id: String,
    horizon: Option<Horizon>,
}

impl Options {
    /// Parses the arguments following `mp2p paper`. Every rejection is a
    /// one-line error followed by the artefact and flag list.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let args = Args::parse(&SPEC, argv)?;
        let id = args.positional().unwrap_or("all");
        if artefacts(id).is_empty() {
            return Err(SPEC.error(format!("unknown artefact {id:?}")));
        }
        Ok(Options {
            id: id.to_owned(),
            horizon: (!args.flag("--full")).then_some(QUICK),
        })
    }
}

/// `mp2p paper`: parses `argv`, regenerates the artefact(s), prints them
/// and writes the CSVs. `Ok(false)` means a run violated an invariant of
/// [`crate::check_report`].
pub fn command(argv: &[String]) -> Result<bool, String> {
    let opts = Options::parse(argv)?;
    let (printed, violations) = regenerate(&opts.id, Path::new("scenarios/paper"), opts.horizon)?;
    for artefact in &printed {
        print!("{}", artefact.text);
        if let Some((file, text)) = &artefact.csv {
            let written =
                std::fs::create_dir_all("results").and_then(|()| std::fs::write(file, text));
            written.map_err(|err| format!("cannot write {}: {err}", file.display()))?;
            println!("wrote {}", file.display());
        }
    }
    for violation in &violations {
        eprintln!("INVARIANT VIOLATED: {violation}");
    }
    Ok(violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_artefact_id_is_accepted_and_nothing_else() {
        let parse = |list: &[&str]| {
            let argv: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            Options::parse(&argv)
        };
        for id in SPEC.positional.split('|') {
            assert!(parse(&[id]).is_ok(), "{id} is listed but not accepted");
        }
        assert_eq!(SPEC.positional.split('|').count(), ARTEFACTS.len() + 1);
        assert_eq!(parse(&[]), parse(&["all"]));
        assert_eq!(parse(&["fig9"]).unwrap().horizon, Some(QUICK));
        assert_eq!(parse(&["fig9", "--full"]).unwrap().horizon, None);
        let err = parse(&["fig10"]).unwrap_err();
        assert!(
            err.starts_with("mp2p paper: unknown artefact \"fig10\"\nusage: mp2p paper [table1|"),
            "{err}"
        );
        assert!(parse(&["fig9", "--quick"]).is_err());
    }

    /// `all` runs each file once: no Fig. 8 id, both panels under Fig. 7.
    #[test]
    fn all_runs_every_file_exactly_once() {
        let all = artefacts("all");
        let mut files: Vec<&str> = all.iter().flat_map(|a| a.files).copied().collect();
        let listed = files.len();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), listed);
        let every: Vec<&str> = ARTEFACTS.iter().flat_map(|a| a.files).copied().collect();
        assert!(every.iter().all(|file| files.contains(file)));
        let fig7a = all.iter().find(|a| a.id == "fig7a").unwrap();
        assert_eq!(fig7a.views.len(), 2);
    }

    #[test]
    fn table1_matches_paper_defaults() {
        let rows = table1_rows();
        let find = |name: &str| {
            rows.iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name} missing"))[2]
                .clone()
        };
        assert_eq!(find("N_Peers"), "50");
        assert_eq!(find("T_Area"), "1.5km*1.5km");
        assert_eq!(find("C_Num"), "10");
        assert_eq!(find("C_Range"), "250m");
        assert_eq!(find("I_Update"), "2min");
        assert_eq!(find("I_Query"), "20.000s");
        assert_eq!(find("TTL_BR"), "8 hops");
        assert_eq!(find("TTN_OP"), "2min");
        assert_eq!(find("TTP_CP"), "4min");
        assert_eq!(find("I_Switch"), "5min");
        assert_eq!(find("mu_CAR"), "0.15");
        assert_eq!(find("omega"), "0.2");
    }
}
