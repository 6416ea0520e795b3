//! Determinism tests for the scenario matrix.
//!
//! Three obligations from the scenario-matrix design (the `ci` matrix
//! smoke adds a fourth: the `--smoke` report equals the committed
//! `results/matrix/MATRIX_BASELINE.json` byte for byte):
//!
//! 1. The same cell run twice produces byte-identical
//!    [`RunReport::to_json`] output — and the matrix report's line of a
//!    cell holds exactly the `to_json` of the same world run directly.
//! 2. The committed `paper-default` scenario reproduces the
//!    `WorldConfig::paper_default` world **byte for byte**: the scenario
//!    layer can never silently drift the paper reproduction.
//! 3. The fleet report of a sweep ([`report_json`]) is pinned byte for
//!    byte as an FNV-1a fingerprint (`golden/matrix_report.fnv`).
//!    Regenerate it only when the report is *meant* to move, with
//!    `UPDATE_GOLDEN=1 cargo test -p mp2p-experiments --test matrix_determinism`.
//!
//! [`RunReport::to_json`]: mp2p_rpcc::RunReport::to_json
//! [`report_json`]: mp2p_experiments::matrix::report_json

use std::path::{Path, PathBuf};

use mp2p_experiments::matrix::{report_json, run_matrix};
use mp2p_experiments::scenario::Scenario;
use mp2p_rpcc::{RunReport, World, WorldConfig};
use mp2p_sim::SimDuration;

/// A fast single-cell scenario.
const TINY: &str = r#"
schema = 1
name = "tiny-gate"
summary = "single fast cell for determinism and gate tests"

[world]
peers = 8
cache = 3
range_m = 250
terrain_w_m = 500
terrain_h_m = 500
sim_mins = 3
warmup_mins = 0.5
query_secs = 10
update_secs = 60
consistency_sample_secs = 30

[mobility]
model = "manhattan"
block_m = 100
speed_mps = 8

[matrix]
strategies = ["rpcc"]
seeds = [42]
"#;

/// The scenario's first cell, run directly.
fn run_first_cell(s: &Scenario) -> RunReport {
    World::new(s.world_config(&s.cells()[0])).run()
}

#[test]
fn the_same_cell_twice_is_byte_identical() {
    let s = Scenario::parse(TINY).unwrap();
    let first = run_first_cell(&s).to_json();
    let second = run_first_cell(&s).to_json();
    assert_eq!(first, second, "same-cell reruns must not drift");
}

#[test]
fn the_matrix_path_equals_the_direct_run_path() {
    let s = Scenario::parse(TINY).unwrap();
    // The matrix executor...
    let (runs, violations) = run_matrix(std::slice::from_ref(&s));
    assert_eq!(violations, Vec::<String>::new());
    let json = report_json(&runs);
    // ...must write, as the cell's line, exactly the report of the
    // world run directly.
    let direct = run_first_cell(&s);
    let p95 = direct.latency.percentile(0.95).as_secs_f64();
    let line = format!(
        "{{\"cell\":\"tiny-gate/rpcc/s42\",\"p95_latency_secs\":{p95},\"report\":{}}}",
        direct.to_json()
    );
    assert_eq!(json.lines().nth(1), Some(line.as_str()), "{json}");
}

/// The golden anchor: `scenarios/paper-default.toml` transcribes Table 1,
/// so running its cell through the scenario layer must reproduce the
/// directly-constructed `WorldConfig::paper_default` world byte for byte.
#[test]
fn paper_default_scenario_reproduces_the_direct_run() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paper-default.toml");
    let s = Scenario::load(&path).expect("committed golden scenario loads");
    let cell = s.cells()[0];

    let mut direct_cfg = WorldConfig::paper_default(cell.seed);
    direct_cfg.strategy = cell.strategy.strategy;
    direct_cfg.sim_time = SimDuration::from_mins(12);
    direct_cfg.warmup = SimDuration::from_mins(3);

    let via_scenario = run_first_cell(&s).to_json();
    let direct = World::new(direct_cfg).run().to_json();
    assert_eq!(
        via_scenario, direct,
        "the scenario layer drifted the paper reproduction"
    );
}

/// The fleet report of TINY plus a two-strategy scenario sweeping
/// `update_secs`: an unprofiled run report holds simulated numbers only,
/// so every byte of `report_json` is deterministic.
#[test]
fn the_fleet_report_is_the_pinned_bytes() {
    let tiny = Scenario::parse(TINY).unwrap();
    let swept = Scenario::parse(
        &TINY
            .replace("\"tiny-gate\"", "\"tiny-sweep\"")
            .replace("[\"rpcc\"]", "[\"rpcc:hy\", \"push\"]")
            .replace("seeds = [42]", "update_secs = [30, 120]\nseeds = [42]"),
    )
    .unwrap();
    let scenarios = [tiny, swept];
    let (runs, violations) = run_matrix(&scenarios);
    assert_eq!(violations, Vec::<String>::new());
    assert_eq!(runs.len(), 1 + 2 * 2);
    let json = report_json(&runs);
    assert!(
        json.contains("\"cell\":\"tiny-sweep/push/update_secs=120/s42\""),
        "{json}"
    );
    assert_matches_golden(&fingerprint(json.as_bytes()), "matrix_report.fnv");
}

/// FNV-1a: the fixture stays one line instead of the whole report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One fingerprint line: FNV-1a and length of `bytes`.
fn fingerprint(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x} len:{}\n", fnv1a(bytes), bytes.len())
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
    assert_eq!(actual, golden, "{fixture} moved");
}
