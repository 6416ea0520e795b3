//! Pins what `mp2p paper` prints and writes, byte for byte.
//!
//! Every artefact id but `all` (which reprints the same sweeps), at a
//! 6-minute horizon with one seed: the title, every table with its
//! heading and note, the `wrote …` line and the CSV text. The horizon is
//! short so the pin stays cheap in a debug build; the coverage is every
//! sweep point, every ablation variant and every staleness row.
//!
//! Regenerate (only when a change is *meant* to move a figure) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mp2p-experiments --test paper_identity
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use mp2p_experiments::{
    ablation, fig7a, fig7b, fig7c, fig9, render_table, staleness, table1_rows, write_csv, Artefact,
    FigureData, RunOptions, Table,
};
use mp2p_sim::SimDuration;

/// What `mp2p paper <id>` prints for one artefact, then its CSV.
fn printed(artefact: &Artefact) -> String {
    let mut out = format!("\n{}\n", artefact.title);
    for table in &artefact.tables {
        if !table.heading.is_empty() {
            let _ = writeln!(out, "\n{}", table.heading);
        }
        out.push_str(&table.text);
        if !table.note.is_empty() {
            let _ = writeln!(out, "{}", table.note);
        }
    }
    if let Some((id, series)) = &artefact.csv {
        let stem = id.to_lowercase().replace([' ', '(', ')'], "");
        let file = std::env::temp_dir().join(format!(
            "mp2p-paper-identity-{}-{stem}.csv",
            std::process::id()
        ));
        write_csv(&file, id, series).expect("csv writes");
        let _ = writeln!(out, "wrote results/{stem}.csv");
        out.push_str(&std::fs::read_to_string(&file).expect("csv reads back"));
        std::fs::remove_file(&file).ok();
    }
    out
}

#[test]
fn every_artefact_prints_and_writes_the_pinned_text() {
    let opts = RunOptions {
        sim_time: SimDuration::from_mins(6),
        warmup: SimDuration::from_mins(1),
        seeds: 1,
        base_seed: 42,
    };
    let table1 = Artefact {
        title: "Table 1. Simulation Parameters (paper defaults, live from WorldConfig)".to_owned(),
        tables: vec![Table {
            heading: String::new(),
            text: render_table(
                &["Parameter", "Description", "Default Value"],
                &table1_rows(),
            ),
            note: "",
        }],
        csv: None,
    };
    let fig9 = fig9(opts);
    // Fig. 8 is Fig. 7's sweep read on the latency axis (`fig8a` is
    // `FigureData { id, caption, views, ..fig7a(opts) }`); runs are
    // deterministic, so the sweep is run once and relabelled.
    let latency = &fig9.views[1..];
    let sweeps = [
        (
            "a",
            fig7a(opts),
            "Query latency under different update intervals (log scale in the paper)",
        ),
        (
            "b",
            fig7b(opts),
            "Query latency under different query intervals (log scale in the paper)",
        ),
        (
            "c",
            fig7c(opts),
            "Query latency under different cache numbers (log scale in the paper)",
        ),
    ];
    let fig8: Vec<(String, Artefact)> = sweeps
        .iter()
        .zip(["Fig 8(a)", "Fig 8(b)", "Fig 8(c)"])
        .map(|((panel, fig7, caption), id)| {
            let fig8 = FigureData {
                id,
                caption,
                views: latency,
                ..fig7.clone()
            };
            (format!("fig8{panel}"), fig8.into())
        })
        .collect();

    let mut artefacts: Vec<(String, Artefact)> = vec![("table1".to_owned(), table1)];
    for (panel, fig7, _) in sweeps {
        artefacts.push((format!("fig7{panel}"), fig7.into()));
    }
    artefacts.extend(fig8);
    artefacts.push(("fig9".to_owned(), fig9.into()));
    artefacts.push(("ablation".to_owned(), ablation(opts)));
    artefacts.push(("staleness".to_owned(), staleness(opts)));

    let mut out = String::new();
    for (id, artefact) in &artefacts {
        let _ = writeln!(out, "## mp2p paper {id}");
        out.push_str(&printed(artefact));
    }
    assert_matches_golden(&out, "paper_smoke.txt");
}

/// Compares `actual` with the committed fixture, or rewrites the fixture
/// under `UPDATE_GOLDEN=1`.
fn assert_matches_golden(actual: &str, fixture: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        println!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if actual != golden {
        let differ = |(a, g): (&str, &str)| a != g;
        let line = actual.lines().zip(golden.lines()).position(differ);
        let line = line.unwrap_or(actual.lines().count().min(golden.lines().count())) + 1;
        panic!(
            "{fixture} diverges at line {line}:\n  now:    {:?}\n  golden: {:?}",
            actual.lines().nth(line - 1),
            golden.lines().nth(line - 1)
        );
    }
}
