//! Pins what `mp2p paper` prints and writes, byte for byte.
//!
//! Every artefact id but `all` (which reprints the same sweeps), from
//! the committed `scenarios/paper/` files cut to a 6-minute horizon with
//! one seed: the title, every table with its
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
use std::path::{Path, PathBuf};

use mp2p_experiments::paper::{self, Printed};
use mp2p_experiments::Horizon;
use mp2p_sim::SimDuration;

#[test]
fn every_artefact_prints_and_writes_the_pinned_text() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paper");
    let horizon = Horizon {
        sim_time: SimDuration::from_mins(6),
        warmup: SimDuration::from_mins(1),
        seeds: 1,
    };
    let mut out = String::new();
    for id in paper::SPEC.positional.split('|').filter(|id| *id != "all") {
        let (printed, violations) = paper::regenerate(id, &dir, Some(horizon)).expect("files load");
        assert_eq!(violations, Vec::<String>::new(), "{id}");
        let _ = writeln!(out, "## mp2p paper {id}");
        for Printed { text, csv } in printed {
            out.push_str(&text);
            if let Some((file, csv)) = csv {
                let _ = writeln!(out, "wrote {}", file.display());
                out.push_str(&csv);
            }
        }
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
