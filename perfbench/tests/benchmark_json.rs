//! `BENCHMARK.json` says what the code does, within the driver's limits.

mod common;

use common::{array, benchmark_json, keys, names};
use mp2p_perfbench::spec::{END_TO_END, PER_LAYER};
use mp2p_perfbench::workloads::Workload;
use mp2p_trace::json::Value;

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key:?} is not a string in {value:?}"))
}

#[test]
fn top_level_has_exactly_the_contract_keys() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("whole seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn command_stays_inside_the_benchmarks_paths() {
    let doc = benchmark_json();
    let paths: Vec<&str> = array(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("a path"))
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command: Vec<&str> = array(&doc, "command")
        .iter()
        .map(|c| c.as_str().expect("a string"))
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert_eq!(command[0], "cargo");
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    let manifest = command
        .iter()
        .position(|c| *c == "--manifest-path")
        .map(|i| command[i + 1])
        .expect("the command names the package's own manifest");
    assert_eq!(manifest, "perfbench/Cargo.toml");
}

#[test]
fn workloads_are_the_four_the_binary_accepts() {
    let doc = benchmark_json();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), expected);
    for workload in array(&doc, "workloads") {
        assert_eq!(keys(workload), ["name", "why"]);
        let why = text(workload, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
}

#[test]
fn metric_tables_match_the_code() {
    let doc = benchmark_json();
    let end_to_end = array(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, spec) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better);
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(spec.bound));
    }
    let per_layer = array(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, spec) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better);
    }
    let mut all = names(&doc, "workloads");
    all.extend(names(&doc, "end_to_end"));
    all.extend(names(&doc, "per_layer"));
    assert!(all.iter().all(|n| well_formed_name(n)), "{all:?}");
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for entry in end_to_end.iter().chain(per_layer) {
        assert!(well_formed_unit(text(entry, "unit")), "{entry:?}");
        assert!(["lower", "higher"].contains(&text(entry, "better")));
    }
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
}
