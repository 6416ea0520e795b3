//! `mp2p paper` — regenerate the paper's evaluation artefacts.
//!
//! ```text
//! mp2p paper [table1|fig7a|fig7b|fig7c|fig8a|fig8b|fig8c|fig9|ablation|staleness|all] [--full]
//! ```
//!
//! Each artefact prints its tables; figures also write every metric of
//! every curve to `results/<id>.csv`. Without an id (or with `all`)
//! everything is regenerated in one pass, each Fig. 7/8 sweep running
//! once and printing both its traffic (Fig. 7) and latency (Fig. 8)
//! panel. The default is a quick mode (45 simulated minutes, 2 seeds);
//! `--full` uses the paper's 5 hours and 3 seeds.

use std::path::PathBuf;

use crate::cli::{Args, Spec};
use crate::figures::{self, Artefact, FigureData, LATENCY, TRAFFIC};
use crate::report::write_csv;
use crate::sweep::RunOptions;

/// The flag list of `mp2p paper`.
pub static SPEC: Spec = Spec {
    command: "paper",
    positional: "table1|fig7a|fig7b|fig7c|fig8a|fig8b|fig8c|fig9|ablation|staleness|all",
    flags: &[("--full", "")],
};

type Regenerate = fn(RunOptions) -> Vec<Artefact>;

/// Every artefact id `mp2p paper` accepts, with its regenerator.
const ARTEFACTS: [(&str, Regenerate); 11] = [
    ("table1", |_| vec![figures::table1()]),
    ("fig7a", |o| vec![figures::fig7a(o).into()]),
    ("fig7b", |o| vec![figures::fig7b(o).into()]),
    ("fig7c", |o| vec![figures::fig7c(o).into()]),
    ("fig8a", |o| vec![figures::fig8a(o).into()]),
    ("fig8b", |o| vec![figures::fig8b(o).into()]),
    ("fig8c", |o| vec![figures::fig8c(o).into()]),
    ("fig9", |o| vec![figures::fig9(o).into()]),
    ("ablation", |o| vec![figures::ablation(o)]),
    ("staleness", |o| vec![figures::staleness(o)]),
    ("all", all),
];

/// Everything in one pass. Figs 7 and 8 share their sweeps: each runs
/// once and prints both panels.
fn all(opts: RunOptions) -> Vec<Artefact> {
    let both = |fig: FigureData| FigureData {
        views: &[TRAFFIC, LATENCY],
        ..fig
    };
    vec![
        figures::table1(),
        both(figures::fig7a(opts)).into(),
        both(figures::fig7b(opts)).into(),
        both(figures::fig7c(opts)).into(),
        figures::fig9(opts).into(),
        figures::ablation(opts),
        figures::staleness(opts),
    ]
}

/// A parsed `mp2p paper` command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    regenerate: Regenerate,
    run: RunOptions,
}

impl Options {
    /// Parses the arguments following `mp2p paper`. Every rejection is a
    /// one-line error followed by the artefact and flag list.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let args = Args::parse(&SPEC, argv)?;
        let id = args.positional().unwrap_or("all");
        let (_, regenerate) = ARTEFACTS
            .iter()
            .find(|(name, _)| *name == id)
            .ok_or_else(|| SPEC.error(format!("unknown artefact {id:?}")))?;
        Ok(Options {
            regenerate: *regenerate,
            run: if args.flag("--full") {
                RunOptions::full()
            } else {
                RunOptions::quick()
            },
        })
    }
}

/// Prints one artefact and writes its CSV, if it has one.
fn emit(artefact: &Artefact) -> Result<(), String> {
    println!("\n{}", artefact.title);
    for table in &artefact.tables {
        if !table.heading.is_empty() {
            println!("\n{}", table.heading);
        }
        print!("{}", table.text);
        if !table.note.is_empty() {
            println!("{}", table.note);
        }
    }
    if let Some((id, series)) = &artefact.csv {
        let stem = id.to_lowercase().replace([' ', '(', ')'], "");
        let file = PathBuf::from("results").join(format!("{stem}.csv"));
        write_csv(&file, id, series)
            .map_err(|err| format!("cannot write {}: {err}", file.display()))?;
        println!("wrote {}", file.display());
    }
    Ok(())
}

/// `mp2p paper`: parses `argv`, regenerates the artefact(s), prints them.
pub fn command(argv: &[String]) -> Result<bool, String> {
    let opts = Options::parse(argv)?;
    for artefact in (opts.regenerate)(opts.run) {
        emit(&artefact)?;
    }
    Ok(true)
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
        assert_eq!(SPEC.positional.split('|').count(), ARTEFACTS.len());
        assert!(parse(&[]).is_ok());
        assert_eq!(
            parse(&["fig9", "--full"]).unwrap().run.sim_time,
            RunOptions::full().sim_time
        );
        let err = parse(&["fig10"]).unwrap_err();
        assert!(
            err.starts_with("mp2p paper: unknown artefact \"fig10\"\nusage: mp2p paper [table1|"),
            "{err}"
        );
        assert!(parse(&["fig9", "--quick"]).is_err());
    }
}
