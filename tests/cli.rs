//! The `mp2p` binary at its command-line surface: exit codes, the
//! strategy-set table, the matrix regression gate, and a never-panic
//! property over arbitrary argument vectors.

use std::path::PathBuf;
use std::process::{Command, Output};

use mp2p::experiments::matrix::{MatrixCell, MatrixReport};
use mp2p::experiments::{analyze, matrix, paper, run};
use mp2p::rpcc::WorldConfig;
use mp2p::sim::SimDuration;
use proptest::prelude::*;

fn mp2p(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mp2p"))
        .args(args)
        .output()
        .expect("mp2p binary spawns")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("mp2p-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("temp dir creates");
        TempDir(root)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn usage_errors_exit_2_with_one_line_and_the_flag_list() {
    for (args, first_line) in [
        (
            &["run", "--frobnicate"][..],
            "mp2p run: unknown flag --frobnicate",
        ),
        (
            &["run", "--trace"][..],
            "mp2p run: --trace needs a value (FILE|PREFIX)",
        ),
        (
            &["run", "--sim", "5", "--warmup", "5"][..],
            "mp2p run: --warmup (5min) must end before --sim (5min) does",
        ),
        (
            &["run", "--peers", "1"][..],
            "mp2p run: --peers expects an integer >= 2, got \"1\"",
        ),
        (
            &["matrix", "--tolerance", "1.5"][..],
            "mp2p matrix: --tolerance expects a fraction in [0, 1), got \"1.5\"",
        ),
        (&["analyze"][..], "mp2p analyze: missing --trace FILE.jsonl"),
        (
            &["paper", "fig10"][..],
            "mp2p paper: unknown artefact \"fig10\"",
        ),
    ] {
        let out = mp2p(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = stderr_of(&out);
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some(first_line), "{args:?}");
        let usage = format!("usage: mp2p {} ", args[0]);
        assert!(
            lines.next().is_some_and(|l| l.starts_with(&usage)),
            "{stderr}"
        );
        assert!(
            stdout_of(&out).is_empty(),
            "nothing runs after a usage error"
        );
    }
    // --help prints the same list; an unknown subcommand names the four.
    let help = mp2p(&["run", "--help"]);
    assert!(stderr_of(&help).starts_with("usage: mp2p run [--strategy LIST|paper|all]"));
    let unknown = mp2p(&["chaos"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(stderr_of(&unknown).contains("<run|matrix|analyze|paper>"));
    assert_eq!(mp2p(&[]).status.code(), Some(2));
}

/// `mp2p` under a 2 GB address-space limit, so that a run which would
/// allocate more aborts (exit 134) rather than swapping.
fn mp2p_within_2_gb(args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 2000000 && exec "$0" "$@""#)
        .arg(env!("CARGO_BIN_EXE_mp2p"))
        .args(args)
        .output()
        .expect("sh spawns")
}

/// A frame id names its origin in 24 bits: more peers than that is a
/// usage error naming `n_peers`, from the flag and from a scenario file,
/// found before the world allocates anything (30 M peers used to abort
/// in `World::new`, asking for 30 GB).
#[test]
fn more_peers_than_a_frame_id_can_name_is_refused_before_anything_is_allocated() {
    let out = mp2p_within_2_gb(&["run", "--peers", "30000000"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert_eq!(
        stderr_of(&out).lines().next(),
        Some(
            "mp2p run: --peers (30000000): n_peers must be at most 16777216 \
             (a frame id names its origin in 24 bits)"
        )
    );
    assert!(stdout_of(&out).is_empty(), "nothing runs");

    let dir = TempDir::new("peer-cap");
    std::fs::create_dir_all(dir.0.join("scenarios")).expect("scenario dir creates");
    let scenario = TINY.replace("peers = 8", "peers = 16777217");
    std::fs::write(dir.0.join("scenarios/tiny-gate.toml"), &scenario).expect("scenario writes");
    let scenarios = dir.path("scenarios");
    let out = mp2p_within_2_gb(&["matrix", "--scenarios", &scenarios]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let line = 1 + scenario
        .lines()
        .position(|l| l.starts_with("peers"))
        .unwrap();
    assert_eq!(
        stderr_of(&out),
        format!(
            "{scenarios}/tiny-gate.toml: scenario line {line}: peers (16777217) must be at \
             most 16777216 (a frame id names its origin in 24 bits)\n"
        )
    );
    assert!(stdout_of(&out).is_empty(), "nothing runs");
}

fn argv(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn run_flags_map_onto_the_world_and_bad_values_are_usage_errors() {
    let plan = run::RunPlan::parse(&argv(&[
        "--strategy",
        "rpcc,push",
        "--mix",
        "hy",
        "--peers",
        "20",
        "--terrain",
        "900",
        "--cache",
        "5",
        "--sim",
        "2",
        "--warmup",
        "0.5",
        "--faults",
        "hostile",
        "--hardened",
    ]))
    .unwrap();
    assert_eq!(plan.cfg.n_peers, 20);
    assert_eq!(plan.cfg.sim_time, SimDuration::from_mins(2));
    assert_eq!(plan.cfg.faults.label, "hostile");
    assert_eq!(plan.strategies[0].name, "RPCC(HY)");
    assert_eq!(plan.cfg.check(), Ok(()));

    let full = run::RunPlan::parse(&argv(&["--strategy", "all", "--full"])).unwrap();
    assert_eq!(full.cfg.sim_time, SimDuration::from_hours(5));
    assert_eq!(full.strategies.len(), 7);

    for (bad, needle) in [
        ("--warmup 50", "must end before"),
        ("--sim 5 --warmup 5", "must end before"),
        ("--peers 1", "--peers expects an integer >= 2"),
        ("--cache 0", "--cache expects"),
        ("--sim nan", "--sim expects"),
        ("--sim -3", "--sim expects"),
        ("--ttl 0", "--ttl expects"),
        ("--ttl 300", "--ttl expects"),
        ("--loss 1.5", "--loss expects"),
        ("--relay-cap 0", "--relay-cap expects"),
        ("--range 0", "--range expects"),
        ("--sample-secs 5", "only makes sense"),
        ("--consistency --sample-secs 0", "--sample-secs expects"),
        ("--faults meteor", "unknown fault plan"),
        ("--mobility walk:3:1", "MIN <= MAX"),
        ("--metrics-out m", "unknown flag --metrics-out"),
        ("--strategy rpcc,rpcc", "listed twice"),
        // Values that reached a panic or a hang inside the model: each
        // rounds to 0 ms, or is past what the clock or a street can hold.
        ("--query-secs 0.0001", "--query-secs expects a positive"),
        ("--update-secs 1e-9", "--update-secs expects a positive"),
        ("--write-secs 0.0001", "--write-secs expects a positive"),
        (
            "--consistency --sample-secs 0.0001",
            "--sample-secs expects a positive",
        ),
        (
            "--mobility walk:1:2:0.0001",
            "--mobility expects an epoch of 0.001 s or more",
        ),
        (
            "--mobility manhattan:1e-9:8",
            "--mobility expects a block edge of 1 m or more",
        ),
        (
            "--mobility manhattan:2000",
            "--mobility expects a block edge",
        ),
        ("--sim 1e300", "--sim expects a positive number of minutes"),
        ("--terrain 1e300", "--terrain expects a positive side"),
    ] {
        let tokens: Vec<&str> = bad.split(' ').collect();
        let err = run::RunPlan::parse(&argv(&tokens)).unwrap_err();
        assert!(err.starts_with("mp2p run: "), "{err}");
        assert!(err.contains(needle), "{bad:?}: {err}");
        assert!(err.contains("\nusage: mp2p run "), "{err}");
    }
}

#[test]
fn the_journal_tier_follows_the_enabled_layers() {
    let dir = TempDir::new("tier");
    let path = PathBuf::from(dir.path("t.jsonl"));
    for (flags, schema) in [
        (&[][..], 1),
        (&["--consistency"][..], 2),
        (&["--consistency", "--recovery"][..], 3),
        (&["--recovery", "--provenance"][..], 4),
    ] {
        let plan = run::RunPlan::parse(&argv(flags)).unwrap();
        drop(run::journal_sink(&path, &plan.cfg).unwrap());
        let header = std::fs::read_to_string(&path).unwrap();
        assert!(
            header.starts_with(&format!("{{\"schema\":{schema},")),
            "{flags:?}: {header}"
        );
    }
    let missing = PathBuf::from(dir.path("no/such/dir.jsonl"));
    let err = run::journal_sink(&missing, &WorldConfig::paper_default(1)).unwrap_err();
    assert!(err.starts_with("cannot create trace file"), "{err}");
}

#[test]
fn a_mistyped_journal_header_is_refused_not_read_as_no_warmup() {
    let dir = TempDir::new("header");
    let body = "{\"t\":5,\"ev\":\"node_up\",\"node\":1}\n";
    let analyze = |header: &str| {
        let path = dir.path("j.jsonl");
        std::fs::write(&path, format!("{header}\n{body}")).unwrap();
        mp2p(&["analyze", "--trace", &path])
    };
    let well_typed = analyze("{\"schema\":1,\"kinds\":27,\"warmup_ms\":60000}");
    assert!(well_typed.status.success(), "{}", stderr_of(&well_typed));
    let mistyped = analyze("{\"schema\":1,\"kinds\":27,\"warmup_ms\":\"60000\"}");
    assert_eq!(mistyped.status.code(), Some(2), "{}", stdout_of(&mistyped));
    assert!(
        stderr_of(&mistyped).contains("journal line 1 is not a"),
        "{}",
        stderr_of(&mistyped)
    );
    assert_eq!(stdout_of(&mistyped), "", "nothing analysed");
}

#[test]
fn a_far_future_record_is_refused_by_line_not_an_out_of_memory_abort() {
    // Fifteen digits are in the reader's range; the registry behind the
    // analyzer keeps a slot per window since t = 0 and used to ask the
    // allocator for 133 GB (exit 134).
    let dir = TempDir::new("horizon");
    let path = dir.path("j.jsonl");
    let journal = "{\"schema\":1,\"kinds\":27,\"warmup_ms\":0}\n\
         {\"t\":5,\"ev\":\"node_up\",\"node\":1}\n\
         {\"t\":1000000000000000,\"ev\":\"msg_send\",\"node\":0,\"class\":\"POLL\",\"bytes\":4,\"dest\":null}\n";
    std::fs::write(&path, journal).unwrap();
    let refused = mp2p(&["analyze", "--trace", &path]);
    assert_eq!(refused.status.code(), Some(2), "{}", stderr_of(&refused));
    assert!(
        stderr_of(&refused).contains("journal line 3: t = 1000000000000000 ms is beyond"),
        "{}",
        stderr_of(&refused)
    );
    assert_eq!(stdout_of(&refused), "", "nothing analysed");
}

/// FNV-1a: a pinned text stays a one-line fixture.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn run_trace_prints_the_pinned_event_count_table() {
    // Regenerate (only when the count table is meant to move) with
    // `UPDATE_GOLDEN=1 cargo test --test cli run_trace_prints`. Only the
    // table is pinned: the `Flight recorder` lines name the temp dir.
    let dir = TempDir::new("kinds");
    let prefix = dir.path("j");
    let out = mp2p(&[
        "run",
        "--strategy",
        "rpcc:hy,push",
        "--peers",
        "12",
        "--cache",
        "4",
        "--terrain",
        "700",
        "--sim",
        "6",
        "--warmup",
        "2",
        "--seed",
        "42",
        "--faults",
        "bursty",
        "--hardened",
        "--recovery",
        "--consistency",
        "--provenance",
        "--trace",
        &prefix,
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let table = stdout
        .split_once("Trace events by kind:\n")
        .and_then(|(_, rest)| rest.split_once("\n\n"))
        .map(|(table, _)| table)
        .expect("a count table follows the report");
    assert!(table.contains("| frame_fate "), "{table}");
    let actual = format!(
        "fnv1a:{:016x} len:{}\n",
        fnv1a(table.as_bytes()),
        table.len()
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/experiments/tests/golden/run_trace_kinds.fnv");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("committed golden");
    assert_eq!(actual, golden, "the event-count table moved:\n{table}");
}

/// Asserts that `out` is a usage error (exit 2) whose one stderr line
/// contains `naming`.
fn refused_naming(out: &Output, naming: &str) {
    let stderr = stderr_of(out);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(naming), "{naming}: {stderr}");
}

#[test]
fn a_line_not_in_the_writers_spelling_is_refused_by_line() {
    // The journal body is the writer's spelling and no other: the same
    // record with its keys reordered, or a space after its brace, is
    // refused naming the line, however valid a JSON object it is.
    let dir = TempDir::new("respelled");
    let header = "{\"schema\":1,\"kinds\":27,\"warmup_ms\":0}";
    let node_up = "{\"t\":5,\"ev\":\"node_up\",\"node\":1}";
    for line in [
        "{\"ev\":\"node_up\",\"t\":6,\"node\":1}",
        "{\"t\":6,\"ev\":\"node_up\",\"node\":1} ",
    ] {
        let path = dir.path("j.jsonl");
        std::fs::write(&path, format!("{header}\n{node_up}\n{line}\n{node_up}\n")).unwrap();
        let refused = mp2p(&["analyze", "--trace", &path]);
        refused_naming(
            &refused,
            &format!("unparseable journal line 3: {}", line.trim_end()),
        );
        assert_eq!(stdout_of(&refused), "", "nothing analysed");
    }
}

#[test]
fn nested_brackets_are_refused_by_line_not_a_stack_overflow() {
    // Each of these used to recurse once per bracket until the stack
    // overflowed (exit 134).
    let dir = TempDir::new("nested");
    let deep = "[".repeat(2_000_000);
    let header = "{\"schema\":1,\"kinds\":27,\"warmup_ms\":0}";
    let node_up = "{\"t\":5,\"ev\":\"node_up\",\"node\":1}";
    let analyze = |journal: String, extra: &[&str]| {
        let path = dir.path("j.jsonl");
        std::fs::write(&path, journal).unwrap();
        let mut args = vec!["analyze", "--trace", &path];
        args.extend(extra);
        mp2p(&args)
    };
    let body = analyze(format!("{header}\n{node_up}\n{{\"t\":{deep}\n"), &[]);
    refused_naming(&body, "unparseable journal line 3: {\"t\":[[[");
    refused_naming(
        &analyze(format!("{deep}\n{node_up}\n"), &[]),
        "journal line 1 is not a",
    );
    let report = dir.path("report.json");
    std::fs::write(&report, &deep).unwrap();
    let deep_report = analyze(format!("{header}\n{node_up}\n"), &["--report", &report]);
    refused_naming(&deep_report, &format!("report {report} lacks"));

    let scenario = TINY.replace(
        "seeds = [42]",
        &format!("seeds = {}42{}", "[".repeat(200_000), "]".repeat(200_000)),
    );
    let line = 1 + TINY.lines().position(|l| l == "seeds = [42]").unwrap();
    refused_naming(
        &matrix_in(&dir, &scenario, &[]),
        &format!("tiny-gate.toml: scenario line {line}: arrays do not nest"),
    );
    let baseline = dir.path("baseline.json");
    std::fs::write(&baseline, &deep).unwrap();
    refused_naming(
        &matrix_in(&dir, TINY, &["--baseline", &baseline]),
        &format!("baseline {baseline}: matrix report is not valid JSON"),
    );
}

/// Splits a rendered table into `metric -> cells`.
fn table_rows(stdout: &str) -> Vec<(String, Vec<String>)> {
    stdout
        .lines()
        .filter(|l| l.starts_with("| "))
        .map(|l| {
            let mut cells = l.trim_matches('|').split('|').map(|c| c.trim().to_owned());
            (cells.next().expect("metric cell"), cells.collect())
        })
        .collect()
}

#[test]
fn a_strategy_set_is_the_single_runs_side_by_side() {
    let dir = TempDir::new("set");
    let scenario = "--peers 20 --terrain 900 --cache 5 --sim 3 --warmup 0.5 --seed 11 \
                    --faults bursty --consistency";
    let run = |strategy: &str, json: &str| {
        let mut args = vec!["run", "--strategy", strategy, "--json", json];
        args.extend(scenario.split_whitespace());
        let out = mp2p(&args);
        assert!(out.status.success(), "{strategy}: {}", stderr_of(&out));
        (
            table_rows(&stdout_of(&out)),
            std::fs::read_to_string(json).unwrap(),
        )
    };
    let (set_rows, set_json) = run("rpcc,push", &dir.path("set.json"));
    let (rpcc_rows, rpcc_json) = run("rpcc", &dir.path("rpcc.json"));
    let (push_rows, push_json) = run("push", &dir.path("push.json"));

    // A set writes the document, a single strategy the bare report.
    assert_eq!(
        set_json,
        format!("{{\"seed\":11,\"reports\":[{rpcc_json},{push_json}]}}\n")
    );
    assert!(rpcc_json.starts_with("{\"strategy\":"));

    // Column for column: every cell a single run prints appears, under
    // the same metric, in that strategy's column of the set.
    assert_eq!(
        set_rows[0],
        ("metric".into(), vec!["RPCC(SC)".into(), "Push".into()])
    );
    for (column, single) in [(0, &rpcc_rows), (1, &push_rows)] {
        assert_eq!(single[0].1, [set_rows[0].1[column].clone()]);
        for (metric, cells) in &single[1..] {
            let (_, set_cells) = set_rows
                .iter()
                .find(|(m, _)| m == metric)
                .unwrap_or_else(|| panic!("set table lacks the {metric:?} row"));
            assert_eq!(set_cells[column], cells[0], "{metric}");
        }
    }
    // And the set prints nothing the singles do not account for.
    for (metric, cells) in &set_rows[1..] {
        for (column, single) in [(0, &rpcc_rows), (1, &push_rows)] {
            match single.iter().find(|(m, _)| m == metric) {
                Some((_, single_cells)) => assert_eq!(cells[column], single_cells[0]),
                None => assert!(["0", "-"].contains(&cells[column].as_str()), "{metric}"),
            }
        }
    }
}

/// A fast single-cell scenario for the gate tests.
const TINY: &str = r#"
schema = 1
name = "tiny-gate"
summary = "single fast cell for the gate tests"

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

fn matrix_in(dir: &TempDir, scenario: &str, extra: &[&str]) -> Output {
    std::fs::create_dir_all(dir.0.join("scenarios")).expect("scenario dir creates");
    std::fs::write(dir.0.join("scenarios/tiny-gate.toml"), scenario).expect("scenario writes");
    let scenarios = dir.path("scenarios");
    let mut args = vec!["matrix", "--scenarios", &scenarios];
    args.extend(extra);
    mp2p(&args)
}

#[test]
fn matrix_writes_its_report_only_where_json_says() {
    let dir = TempDir::new("no-json");
    std::fs::create_dir_all(dir.0.join("scenarios")).expect("scenario dir creates");
    std::fs::write(dir.0.join("scenarios/tiny-gate.toml"), TINY).expect("scenario writes");
    let swept = Command::new(env!("CARGO_BIN_EXE_mp2p"))
        .args(["matrix", "--scenarios", "scenarios"])
        .current_dir(&dir.0)
        .output()
        .expect("mp2p binary spawns");
    assert!(swept.status.success(), "{}", stderr_of(&swept));
    assert!(
        stdout_of(&swept).contains("tiny-gate/rpcc/s42"),
        "the scorecard prints"
    );
    let mut left: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    left.sort();
    assert_eq!(left, ["scenarios"], "a sweep without --json writes no file");
}

#[test]
fn matrix_json_into_a_missing_directory_is_an_io_error_naming_it() {
    let dir = TempDir::new("json-dir");
    let report = dir.path("missing/report.json");
    let out = matrix_in(&dir, TINY, &["--json", &report]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let first = stderr_of(&out)
        .lines()
        .next()
        .unwrap_or_default()
        .to_owned();
    assert!(first.contains(&format!("cannot write {report}")), "{first}");
}

#[test]
fn injected_regressions_trip_the_matrix_gate_per_axis() {
    let dir = TempDir::new("axes");
    let baseline_path = dir.path("baseline.json");

    // Sweep once to produce the baseline.
    let seeded = matrix_in(&dir, TINY, &["--json", &baseline_path]);
    assert!(
        seeded.status.success(),
        "baseline sweep failed: {}\n{}",
        stdout_of(&seeded),
        stderr_of(&seeded)
    );
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap();
    let baseline = MatrixReport::from_json(&baseline_text).expect("baseline parses");
    assert_eq!(baseline.cells.len(), 1);
    let cell = &baseline.cells[0];
    assert!(
        cell.p95_latency_secs > 0.0,
        "the tiny cell must produce a non-zero p95 for the latency axis to be testable"
    );
    assert!(cell.events_per_sec > 0.0, "the sweep profiles its cells");

    // A clean re-run against its own baseline passes (deterministic axes
    // are exact; the wall-clock axis gets a generous band).
    let gate = ["--baseline", &baseline_path, "--wall-tolerance", "0.95"];
    let clean = matrix_in(&dir, TINY, &gate);
    assert!(
        clean.status.success(),
        "identical sweep flagged as regression:\n{}",
        stdout_of(&clean)
    );

    // Tamper one axis at a time; each must exit 1 and name the axis.
    type Tamper = fn(&mut MatrixCell);
    let axes: [(&str, Tamper); 3] = [
        ("fresh-fraction", |c| {
            c.fresh_fraction = c.fresh_fraction * 2.0 + 0.1;
        }),
        ("p95-latency", |c| c.p95_latency_secs *= 0.5),
        // Host-independent: at tolerance 0.95 a ×100 tamper trips only if
        // the re-run is under 5× the seeding sweep's speed, which a
        // millisecond-scale cell on a busy box does not guarantee.
        ("events/sec", |c| c.events_per_sec *= 1e9),
    ];
    for (axis, tamper) in &axes {
        let mut doctored = baseline.clone();
        tamper(&mut doctored.cells[0]);
        std::fs::write(&baseline_path, doctored.to_json()).unwrap();
        let tripped = matrix_in(&dir, TINY, &gate);
        assert_eq!(
            tripped.status.code(),
            Some(1),
            "{axis}: a regressed baseline must exit 1\n{}",
            stdout_of(&tripped)
        );
        assert!(
            stdout_of(&tripped).contains(axis),
            "{axis}: the diff table must name the offending axis\n{}",
            stdout_of(&tripped)
        );
    }

    // A baseline describing a *different* scenario is an error (exit 2),
    // never a verdict.
    let mut alien = baseline.clone();
    alien.cells[0].peers += 1;
    std::fs::write(&baseline_path, alien.to_json()).unwrap();
    let refused = matrix_in(&dir, TINY, &["--baseline", &baseline_path]);
    assert_eq!(
        refused.status.code(),
        Some(2),
        "identity mismatch must exit 2\n{}",
        stderr_of(&refused)
    );
}

#[test]
fn gate_floor_violations_trip_the_sweep_without_a_baseline() {
    let dir = TempDir::new("floors");
    // Demand an impossible latency ceiling (1 ns) and a perfect fresh
    // fraction; at least one floor must trip the sweep on its own.
    let gated =
        format!("{TINY}\n[gates]\nmin_fresh_fraction = 1.0\nmax_p95_latency_secs = 0.000000001\n");
    let tripped = matrix_in(&dir, &gated, &[]);
    assert_eq!(
        tripped.status.code(),
        Some(1),
        "an unmet [gates] floor must exit 1\n{}",
        stdout_of(&tripped)
    );
    assert!(stdout_of(&tripped).contains("GATE FLOOR VIOLATIONS"));
}

/// `mp2p paper` reads `scenarios/paper/<file>.toml` under the working
/// directory and writes `results/<id>.csv` there.
#[test]
fn paper_runs_its_scenario_files_and_fails_like_the_other_commands() {
    let dir = TempDir::new("paper");
    let paper_in = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mp2p"))
            .arg("paper")
            .args(args)
            .current_dir(&dir.0)
            .output()
            .expect("mp2p binary spawns")
    };
    let usage_error = |out: &Output, line: &str| {
        assert_eq!(out.status.code(), Some(2), "{}", stderr_of(out));
        assert_eq!(stderr_of(out).trim_end(), line, "one line, naming the file");
        assert!(stdout_of(out).is_empty(), "nothing runs after the error");
    };
    // Table 1 needs no file; a figure without its file names the path.
    assert!(stdout_of(&paper_in(&["table1"])).contains("| N_Peers "));
    let file = "scenarios/paper/invalidation-ttl.toml";
    let missing = paper_in(&["fig9"]);
    usage_error(
        &missing,
        &format!("{file}: No such file or directory (os error 2)"),
    );

    // A small stand-in for the committed file: same name, same axis.
    let tiny = TINY
        .replace("tiny-gate", "invalidation-ttl")
        .replace("[\"rpcc\"]", "[\"rpcc\", \"pull\"]")
        .replace(
            "seeds = [42]",
            "invalidation_ttl = [1, 3]\nseeds = [42, 43, 44]",
        );
    std::fs::create_dir_all(dir.0.join("scenarios/paper")).expect("scenario dir creates");
    std::fs::write(
        dir.0.join(file),
        tiny.replace("peers = 8", "peers = \"eight\""),
    )
    .unwrap();
    let line = 1 + tiny.lines().position(|l| l == "peers = 8").unwrap();
    usage_error(
        &paper_in(&["fig9"]),
        &format!("{file}: scenario line {line}: peers must be a number, got a string"),
    );

    std::fs::write(dir.0.join(file), &tiny).unwrap();
    let ran = paper_in(&["fig9"]);
    assert!(ran.status.success(), "{}", stderr_of(&ran));
    let stdout = stdout_of(&ran);
    assert!(
        stdout.contains("\nFig 9 — Impact of invalidation TTL"),
        "{stdout}"
    );
    assert!(
        stdout.contains("| TTL (hops) | RPCC(SC) | Pull "),
        "{stdout}"
    );
    assert!(stdout.ends_with("wrote results/fig9.csv\n"), "{stdout}");
    let csv = std::fs::read_to_string(dir.0.join("results/fig9.csv")).expect("csv written");
    assert_eq!(csv.lines().count(), 1 + 2 * 2, "{csv}");
    assert!(
        csv.contains("\nFig 9,RPCC(SC),3,") && csv.contains("\nFig 9,Pull,1,"),
        "{csv}"
    );
}

/// Every flag of every subcommand plus the values most likely to reach
/// an assertion further down: zeros, negatives, non-finite numbers,
/// overflowing integers, empty and malformed tokens.
fn vocabulary() -> Vec<&'static str> {
    let mut words: Vec<&'static str> = [&run::SPEC, &matrix::SPEC, &analyze::SPEC, &paper::SPEC]
        .iter()
        .flat_map(|spec| spec.flags.iter().map(|(flag, _)| *flag))
        .collect();
    words.extend(paper::SPEC.positional.split('|'));
    words.extend([
        "0",
        "1",
        "2",
        "-1",
        "0.5",
        "1e-320",
        "1e300",
        "nan",
        "inf",
        "-inf",
        "256",
        "18446744073709551616",
        "",
        "-",
        "--",
        "-h",
        "--help",
        "rpcc",
        "push-ap",
        "all",
        "paper",
        "rpcc:hy,push",
        "rpcc,rpcc",
        ",",
        ":",
        "hy",
        "none",
        "hostile",
        "crash-heavy",
        "waypoint",
        "waypoint:3:1",
        "walk:1:2:0",
        "manhattan:0:0",
        "stationary",
        "manhattan:1e308:1e308",
        "manhattan:1e-9:8",
        "walk:1:2:0.0001",
        "0.0001",
        "1e-9",
    ]);
    words
}

proptest! {
    /// Arbitrary token vectors to every subcommand parser come back as a
    /// value or an error — never a panic — and an accepted `run` plan
    /// describes a world that passes validation.
    #[test]
    fn arbitrary_argument_vectors_never_panic(
        picks in proptest::collection::vec(
            (0usize..1000, proptest::collection::vec(0u8..=255, 0..10)),
            0..10,
        ),
    ) {
        let vocabulary = vocabulary();
        let argv: Vec<String> = picks
            .iter()
            .map(|(pick, bytes)| match vocabulary.get(pick % (vocabulary.len() + 8)) {
                Some(word) => (*word).to_owned(),
                None => String::from_utf8_lossy(bytes).into_owned(),
            })
            .collect();
        if let Ok(plan) = run::RunPlan::parse(&argv) {
            prop_assert_eq!(plan.cfg.check(), Ok(()));
            prop_assert!(!plan.strategies.is_empty());
        }
        if let Err(msg) = matrix::Options::parse(&argv) {
            prop_assert!(msg.contains("usage: mp2p matrix"), "{msg}");
        }
        if let Err(msg) = analyze::Options::parse(&argv) {
            prop_assert!(msg.contains("usage: mp2p analyze"), "{msg}");
        }
        if let Err(msg) = paper::Options::parse(&argv) {
            prop_assert!(msg.contains("usage: mp2p paper"), "{msg}");
        }
    }
}
