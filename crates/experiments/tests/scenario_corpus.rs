//! Corpus-level tests for the scenario format: the committed
//! `scenarios/` files must load, round-trip through the canonical
//! serialiser, and build valid worlds for every cell; the parser must
//! report line-accurate errors and survive arbitrary bytes without
//! panicking (the `journal_fuzz.rs` discipline applied to TOML input).

use std::path::{Path, PathBuf};

use mp2p_experiments::scenario::Scenario;
use mp2p_rpcc::MobilityKind;
use proptest::prelude::*;

/// The committed corpus directory at the workspace root.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn corpus() -> Vec<Scenario> {
    Scenario::load_dir(&corpus_dir()).expect("committed corpus loads")
}

/// The default `mp2p matrix` corpus and the swept files behind
/// `mp2p paper` (`load_dir` does not descend, so they are two corpora).
fn every_committed_file() -> Vec<Scenario> {
    let mut all = corpus();
    all.extend(Scenario::load_dir(&corpus_dir().join("paper")).expect("paper files load"));
    all
}

#[test]
fn corpus_is_complete_and_sorted() {
    let scenarios = corpus();
    let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "load_dir returns scenarios sorted by name");
    for required in [
        "manhattan-downtown",
        "highway-convoy",
        "stadium-flash-crowd",
        "rural-sparse-partition",
        "paper-default",
    ] {
        assert!(
            names.contains(&required),
            "corpus is missing {required:?} (has {names:?})"
        );
    }
    assert!(scenarios.len() >= 5);
}

#[test]
fn every_corpus_file_round_trips_through_the_canonical_form() {
    for s in every_committed_file() {
        let canonical = s.to_toml();
        let back = Scenario::parse(&canonical)
            .unwrap_or_else(|e| panic!("{}: canonical form fails to reparse: {e}", s.name));
        assert_eq!(back, s, "{}: parse(to_toml(s)) != s", s.name);
        assert_eq!(
            back.to_toml(),
            canonical,
            "{}: serialisation is not a fixed point",
            s.name
        );
    }
}

#[test]
fn every_corpus_cell_builds_a_valid_world() {
    for s in every_committed_file() {
        for cell in s.cells() {
            assert_eq!(s.world_config(&cell).check(), Ok(()), "{}", s.name);
        }
        assert!(!s.cells().is_empty());
    }
}

/// The paper's sweeps are files: every `mp2p paper` artefact names one,
/// each sweeps one key (the staleness audit none), and the default
/// corpus stays unswept.
#[test]
fn the_paper_files_are_swept_and_the_default_corpus_is_not() {
    assert!(corpus().iter().all(|s| s.axis.is_none()));
    let paper = Scenario::load_dir(&corpus_dir().join("paper")).expect("paper files load");
    let swept = |name: &str| {
        let s = paper.iter().find(|s| s.name == name);
        let s = s.unwrap_or_else(|| panic!("scenarios/paper/{name}.toml is missing"));
        s.axis.as_ref().map(|axis| (axis.key, axis.values.len()))
    };
    assert_eq!(swept("update-interval"), Some(("update_secs", 5)));
    assert_eq!(swept("query-interval"), Some(("query_secs", 5)));
    assert_eq!(swept("cache-number"), Some(("cache", 5)));
    assert_eq!(swept("invalidation-ttl"), Some(("invalidation_ttl", 7)));
    assert_eq!(swept("ablation-routing"), Some(("routing", 2)));
    assert_eq!(swept("staleness"), None);
    let fig7a = paper.iter().find(|s| s.name == "update-interval").unwrap();
    assert_eq!(fig7a.cells().len(), 6 * 5 * 3);
    let names: Vec<&str> = fig7a.strategies.iter().map(|spec| spec.name).collect();
    assert_eq!(
        names,
        ["Pull", "Push", "RPCC(SC)", "RPCC(DC)", "RPCC(WC)", "RPCC(HY)"]
    );
}

#[test]
fn manhattan_downtown_wires_the_manhattan_model() {
    let scenarios = corpus();
    let downtown = scenarios
        .iter()
        .find(|s| s.name == "manhattan-downtown")
        .expect("manhattan-downtown is committed");
    let cfg = downtown.world_config(&downtown.cells()[0]);
    assert_eq!(
        cfg.mobility,
        MobilityKind::Manhattan {
            block: 150.0,
            speed: 8.0
        },
        "the scenario must select the street-grid model in the world config"
    );
}

#[test]
fn corrupting_a_committed_file_reports_the_exact_line() {
    let path = corpus_dir().join("manhattan-downtown.toml");
    let text = std::fs::read_to_string(&path).expect("committed file reads");
    // Find a known key and break its value in place.
    let victim_line = text
        .lines()
        .position(|l| l.trim_start().starts_with("peers ="))
        .expect("manhattan-downtown sets peers")
        + 1;
    let broken = text.replacen("peers = 50", "peers = \"fifty\"", 1);
    assert_ne!(broken, text, "the needle must exist to corrupt");
    let e = Scenario::parse(&broken).expect_err("a string peer count is rejected");
    assert_eq!(e.line, victim_line, "{e}");
    assert!(e.msg.contains("peers"), "{e}");
}

/// Whatever the parser accepts describes, for every cell, a world that
/// passes `WorldConfig::check`; whatever it rejects points inside the
/// file.
fn accepted_or_located(text: &str) {
    match Scenario::parse(text) {
        Ok(s) => {
            for cell in s.cells() {
                assert_eq!(s.world_config(&cell).check(), Ok(()), "accepted:\n{text}");
            }
        }
        Err(e) => {
            assert!(
                e.line <= text.lines().count(),
                "error line out of range: {e}"
            );
        }
    }
}

proptest! {
    /// Arbitrary bytes (lossily decoded) never panic the parser —
    /// whatever comes back is a value or a line-accurate error.
    #[test]
    fn arbitrary_bytes_never_panic(input in proptest::collection::vec(0u8..=255, 0..2048)) {
        let text = String::from_utf8_lossy(&input);
        accepted_or_located(&text);
    }

    /// Flipping one byte of a valid scenario never panics, and any
    /// resulting error still points inside the file.
    #[test]
    fn single_byte_corruption_never_panics(
        pick in 0usize..64,
        pos_frac in 0.0f64..1.0,
        replacement in 0u8..=255,
    ) {
        let scenarios = every_committed_file();
        let canonical = scenarios[pick % scenarios.len()].to_toml();
        let mut bytes = canonical.into_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] = replacement;
        let text = String::from_utf8_lossy(&bytes);
        accepted_or_located(&text);
    }

    /// Truncating a valid scenario at any byte offset never panics.
    #[test]
    fn truncation_never_panics(cut_frac in 0.0f64..1.0) {
        let scenarios = corpus();
        let canonical = scenarios[0].to_toml();
        let cut = ((canonical.len() as f64) * cut_frac) as usize;
        // Cut on a char boundary (the canonical form is ASCII anyway).
        let cut = (0..=cut).rev().find(|&i| canonical.is_char_boundary(i)).unwrap_or(0);
        accepted_or_located(&canonical[..cut]);
    }
}
