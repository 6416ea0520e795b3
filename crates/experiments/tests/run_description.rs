//! Pins what a *description of a run* means, byte for byte.
//!
//! A run is described twice — by `mp2p run` flags and by a scenario
//! file — and both descriptions end in a [`WorldConfig`]. These goldens
//! freeze that mapping from the outside, so the code between the text
//! and the config can be reorganised without the worlds it builds, the
//! canonical file form, the flag list or the wording of any rejection
//! moving:
//!
//! * `scenario_configs.txt` — the config of every corpus scenario × each
//!   of its strategies × its first seed;
//! * `run_configs.txt` — the plan of a set of argument vectors that
//!   between them give every flag of `run::SPEC`;
//! * `to_toml.txt` — the canonical form of every corpus file;
//! * `usage.txt` — `mp2p run --help`;
//! * `errors.txt` — the full error string of every bad input the other
//!   tests only grep for a needle in.
//!
//! Regenerate (only when a change is *meant* to move one of them) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mp2p-experiments --test run_description
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mp2p_experiments::keys;
use mp2p_experiments::run::{self, RunPlan};
use mp2p_experiments::scenario::{Cell, Scenario};
use mp2p_rpcc::WorldConfig;

fn corpus() -> Vec<Scenario> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    Scenario::load_dir(&dir).expect("committed corpus loads")
}

/// Compares `actual` with the committed fixture, or rewrites the fixture
/// under `UPDATE_GOLDEN=1`.
fn assert_matches_golden(actual: &str, fixture: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
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
        let shared = actual.lines().count().min(golden.lines().count());
        let differ = |(a, g): (&str, &str)| a != g;
        let line = actual.lines().zip(golden.lines()).position(differ);
        let line = line.unwrap_or(shared) + 1;
        panic!(
            "{fixture} diverges at line {line}:\n  now:    {:?}\n  golden: {:?}",
            actual.lines().nth(line - 1),
            golden.lines().nth(line - 1)
        );
    }
}

/// The pretty `Debug` form of a config, with the `provenance` block
/// collapsed to `on`/`off`: a run description can only switch the
/// provenance engine as a whole, so how `ProvenanceConfig` stores that
/// switch is not part of what is pinned here.
fn describe(cfg: &WorldConfig) -> String {
    let pretty = format!("{cfg:#?}");
    let mut out = String::with_capacity(pretty.len());
    let mut lines = pretty.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("    provenance: ") {
            let state = if cfg.provenance.enabled() {
                "on"
            } else {
                "off"
            };
            let _ = writeln!(out, "    provenance: {state},");
            if !line.ends_with(',') {
                for rest in lines.by_ref() {
                    if rest.starts_with("    }") || rest.starts_with("    )") {
                        break;
                    }
                }
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn every_corpus_cell_builds_the_pinned_world() {
    let mut out = String::new();
    for s in corpus() {
        for &strategy in &s.strategies {
            let (x, seed) = (None, s.seeds[0]);
            let token = s.strategy_token(&strategy);
            let _ = writeln!(out, "## {}/{token}/s{seed}", s.name);
            out.push_str(&describe(&s.world_config(&Cell { strategy, x, seed })));
        }
    }
    assert_matches_golden(&out, "scenario_configs.txt");
}

/// Argument vectors that between them give every flag of `run::SPEC`
/// (the test below checks that), every `--mobility` model with and
/// without parameters, and `--full`.
const ARGVS: [&str; 19] = [
    "",
    "--full --strategy all",
    "--strategy rpcc,push --mix hy --peers 20 --terrain 900 --cache 5 --sim 2 --warmup 0.5 --faults hostile --hardened",
    "--update-secs 30 --query-secs 5 --write-secs 180",
    "--no-churn --oracle-routing --adaptive --single-item --profile",
    "--ttl 5 --loss 0.05 --relay-cap 2 --seed 7 --range 300",
    "--mobility waypoint",
    "--mobility waypoint:1:3:0",
    "--mobility walk",
    "--mobility walk:1:2:45",
    "--mobility manhattan",
    "--mobility manhattan:100:12.5",
    "--mobility stationary",
    "--consistency --sample-secs 10 --recovery --provenance --trace /tmp/x --json /tmp/x.json",
    "--consistency",
    "--peers 5",
    "--faults crash-heavy --sim 10 --warmup 0",
    "--full --sim 60",
    "--faults bursty --full",
];

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn every_run_flag_builds_the_pinned_plan() {
    for (flag, _) in run::SPEC.flags {
        assert!(
            ARGVS
                .iter()
                .any(|line| line.split_whitespace().any(|t| t == *flag)),
            "no pinned argv gives {flag}"
        );
    }
    let mut out = String::new();
    for line in ARGVS {
        let plan = RunPlan::parse(&argv(line)).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        let _ = writeln!(out, "## mp2p run {line}");
        out.push_str(&describe(&plan.cfg));
        let names: Vec<&str> = plan.strategies.iter().map(|s| s.name).collect();
        let _ = writeln!(out, "strategies: {names:?}");
        let _ = writeln!(
            out,
            "trace: {:?}, json: {:?}, profile: {}",
            plan.trace, plan.json, plan.profile
        );
    }
    assert_matches_golden(&out, "run_configs.txt");
}

/// The dotted path of every leaf field in the pretty `Debug` form of
/// `cfg`: a field whose value opens a struct (`terrain: Terrain {`) is a
/// path segment, any other value — a number, a unit variant, an
/// `Option`, a newtype, a list — ends a path.
fn leaf_fields(cfg: &WorldConfig) -> Vec<String> {
    // One entry per open bracket: the field that opened a struct, or
    // `None` for the root and for brackets inside a leaf's value.
    let mut open: Vec<Option<String>> = Vec::new();
    let mut leaves = Vec::new();
    for line in format!("{cfg:#?}").lines() {
        let line = line.trim();
        if line.starts_with(['}', ')', ']']) {
            open.pop();
            continue;
        }
        let in_leaf = open.len() > 1 && open.last().is_some_and(Option::is_none);
        let opens = line.ends_with(['{', '(', '[']);
        let field = line.split_once(": ").map(|(name, _)| name);
        match field {
            Some(name) if !in_leaf => {
                let path: Vec<&str> = open.iter().flatten().map(String::as_str).collect();
                let path = [path.as_slice(), &[name]].concat().join(".");
                if line.ends_with('{') {
                    open.push(Some(name.to_owned()));
                } else {
                    leaves.push(path);
                    if opens {
                        open.push(None);
                    }
                }
            }
            _ if opens => open.push(None),
            _ => {}
        }
    }
    leaves
}

/// A configuration field is a value someone sets: a run key a flag or a
/// scenario file writes, or one of these few that code sets directly,
/// each with the consumer that does.
const SET_IN_CODE: [(&str, &str); 6] = [
    (
        "switch_off_mean",
        "tests/failure_injection.rs, examples/battlefield.rs",
    ),
    (
        "battery_mj",
        "tests/failure_injection.rs, the check rules' test",
    ),
    ("link", "tests, examples/battlefield.rs, perfbench"),
    ("topology_refresh", "perfbench"),
    ("proto.recovery.retx_cap", "perfbench"),
    (
        "strategy",
        "--strategy, which picks a set of runs rather than one",
    ),
];

#[test]
fn every_config_field_is_a_run_key_or_listed() {
    let under = |path: &str, prefix: &str| {
        path == prefix
            || path
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('.'))
    };
    let leaves = leaf_fields(&WorldConfig::paper_default(0));
    assert!(
        leaves.contains(&"proto.recovery.on".to_owned()),
        "{leaves:?}"
    );
    assert!(leaves.contains(&"terrain.width".to_owned()), "{leaves:?}");
    for path in &leaves {
        let keyed = keys::TABLE.iter().any(|row| under(path, row.field));
        let listed = SET_IN_CODE.iter().any(|(prefix, _)| under(path, prefix));
        assert!(
            keyed || listed,
            "{path} is set by no run key and not listed in SET_IN_CODE: \
             make it a constant beside the code that reads it, or give it a front end"
        );
    }
    for (prefix, consumer) in SET_IN_CODE {
        assert!(
            leaves.iter().any(|path| under(path, prefix)),
            "SET_IN_CODE lists {prefix} ({consumer}), which is no field"
        );
    }
}

#[test]
fn every_corpus_file_has_the_pinned_canonical_form() {
    let mut out = String::new();
    for s in corpus() {
        let _ = writeln!(out, "## {}", s.name);
        out.push_str(&s.to_toml());
    }
    assert_matches_golden(&out, "to_toml.txt");
}

#[test]
fn run_help_is_pinned() {
    assert_matches_golden(&format!("{}\n", run::SPEC.usage()), "usage.txt");
}

/// The `MINIMAL` scenario of the `scenario.rs` unit tests.
const MINIMAL: &str = r#"
schema = 1
name = "mini"
summary = "tiny test scenario"

[world]
peers = 8
cache = 3
range_m = 250
terrain_w_m = 500
terrain_h_m = 500
sim_mins = 5
warmup_mins = 1
query_secs = 20
update_secs = 120
churn_secs = 300
mix = "sc"

[mobility]
model = "manhattan"
block_m = 100
speed_mps = 8

[faults]
preset = "bursty"

[matrix]
strategies = ["rpcc", "push", "pull"]
seeds = [42, 43]

[gates]
min_fresh_fraction = 0.5
"#;

/// The bad `mp2p run` inputs of `tests/cli.rs`.
const BAD_ARGVS: [&str; 26] = [
    "--warmup 50",
    "--sim 5 --warmup 5",
    "--peers 1",
    "--cache 0",
    "--sim nan",
    "--sim -3",
    "--ttl 0",
    "--ttl 300",
    "--loss 1.5",
    "--relay-cap 0",
    "--range 0",
    "--sample-secs 5",
    "--consistency --sample-secs 0",
    "--faults meteor",
    "--mobility walk:3:1",
    "--metrics-out m",
    "--strategy rpcc,rpcc",
    // Panicked or never returned before `WorldConfig::check` existed.
    "--query-secs 0.0001",
    "--update-secs 1e-9",
    "--write-secs 0.0001",
    "--consistency --sample-secs 0.0001",
    "--mobility walk:1:2:0.0001",
    "--mobility manhattan:1e-9:8",
    "--mobility manhattan:2000",
    "--sim 1e300",
    "--terrain 1e300",
];

/// The bad scenario edits of `scenario.rs::semantic_bounds_are_enforced`
/// (needle in [`MINIMAL`] → replacement), plus `warmup_mins = 0`, an
/// interval that rounds to 0 ms, a seed listed twice and a POLL ring
/// that starts wider than it may grow.
const BAD_EDITS: [(&str, &str); 12] = [
    ("peers = 8", "peers = 1"),
    ("cache = 3", "cache = 8"),
    ("warmup_mins = 1", "warmup_mins = 9"),
    ("seeds = [42, 43]", "seeds = [-1]"),
    (
        "strategies = [\"rpcc\", \"push\", \"pull\"]",
        "strategies = [\"gossip\"]",
    ),
    ("preset = \"bursty\"", "preset = \"meteor\""),
    ("model = \"manhattan\"", "model = \"teleport\""),
    ("min_fresh_fraction = 0.5", "min_fresh_fraction = 1.5"),
    ("warmup_mins = 1", "warmup_mins = 0"),
    ("query_secs = 20", "query_secs = 0.0001"),
    ("seeds = [42, 43]", "seeds = [42, 43, 42]"),
    ("churn_secs = 300", "churn_secs = 300\npoll_ttl = 9"),
];

/// Bad sweep axes, each put into [`MINIMAL`]'s `[matrix]` (line 29, after
/// `strategies`): an unknown key, two axes, an empty array, a scalar,
/// elements `WorldConfig::check()` rejects by range and by relation, an
/// element of the wrong type, and a value listed twice.
const BAD_AXES: [&str; 9] = [
    "bogus = [1, 2]",
    "update_secs = [30, 60]\nquery_secs = [5, 10]",
    "update_secs = []",
    "update_secs = 30",
    "update_secs = [30, 0.0001]",
    "cache = [2, 8]",
    "routing = [\"on-demand\", \"psychic\"]",
    "peers = [8, \"many\"]",
    "update_secs = [60, 30, 60]",
];

/// The bad files of `scenario.rs::errors_carry_the_offending_line`.
const BAD_FILES: [&str; 4] = [
    "schema = 1\nname = \"x\"\nbogus_key = 7\n",
    "schema = 1\nname = \"x\"\n[world]\npeers = \"many\"\n",
    "schema = 1\nname = \"x\"\n[nowhere]\n",
    "schema = 2\nname = \"x\"\n",
];

fn verdict(parsed: Result<Scenario, impl std::fmt::Display>) -> String {
    match parsed {
        Ok(_) => "accepted".to_owned(),
        Err(e) => e.to_string(),
    }
}

#[test]
fn every_rejection_keeps_its_wording() {
    let mut out = String::new();
    for line in BAD_ARGVS {
        let verdict = match RunPlan::parse(&argv(line)) {
            Ok(_) => "accepted".to_owned(),
            // The flag list that follows the first line is usage.txt.
            Err(e) => e.lines().next().unwrap_or_default().to_owned(),
        };
        let _ = writeln!(out, "mp2p run {line}\n  => {verdict}");
    }
    for (needle, replacement) in BAD_EDITS {
        assert!(MINIMAL.contains(needle), "{needle:?} is not in MINIMAL");
        let text = MINIMAL.replace(needle, replacement);
        let _ = writeln!(
            out,
            "{replacement}\n  => {}",
            verdict(Scenario::parse(&text))
        );
    }
    for axis in BAD_AXES {
        let text = MINIMAL.replace("seeds =", &format!("{axis}\nseeds ="));
        let _ = writeln!(out, "{axis:?}\n  => {}", verdict(Scenario::parse(&text)));
    }
    for text in BAD_FILES {
        let _ = writeln!(out, "{text:?}\n  => {}", verdict(Scenario::parse(text)));
    }
    // scenario_corpus.rs::corrupting_a_committed_file_reports_the_exact_line
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/manhattan-downtown.toml");
    let text = std::fs::read_to_string(path).expect("committed file reads");
    let broken = text.replacen("peers = 50", "peers = \"fifty\"", 1);
    assert_ne!(broken, text);
    let _ = writeln!(
        out,
        "manhattan-downtown.toml with peers = \"fifty\"\n  => {}",
        verdict(Scenario::parse(&broken))
    );
    assert_matches_golden(&out, "errors.txt");
}
