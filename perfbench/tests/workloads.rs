//! Every workload, shrunk, through the library entry point, in both
//! modes: the result line is what the driver's contract says it is.

mod common;

use std::sync::Mutex;

use common::{benchmark_json, keys, names};
use mp2p_perfbench::run::{run, Options, Outcome};
use mp2p_perfbench::workloads::{Scale, Workload};
use mp2p_trace::json::{self, Value};

/// One run at a time: the tests share the process-wide allocator
/// counters, and parallel runs would only disturb each other's clocks.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn shrunk(workload: Workload, trace: bool) -> Outcome {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run(&Options {
        workload,
        seed: 42,
        seconds: 0.0,
        trace,
        scale: Scale::Shrunk,
    })
}

/// Parses the result line and checks its shape against `BENCHMARK.json`'s
/// metric list under `key`. Returns name → value.
fn checked(outcome: &Outcome, key: &str) -> Vec<(String, f64)> {
    let line = outcome.result_line();
    assert!(!line.contains('\n'));
    let doc = json::parse(&line).unwrap_or_else(|| panic!("not JSON: {line}"));
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(Value::as_bool),
        Some(true),
        "{}",
        outcome.report
    );
    assert!(doc
        .get("attempted")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));
    assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = doc.get("metrics").expect("checked above");
    let expected = names(&benchmark_json(), key);
    assert_eq!(
        keys(metrics),
        expected,
        "exactly the {key} metrics, in order"
    );
    expected
        .into_iter()
        .map(|name| {
            let entry = metrics.get(&name).expect("listed above");
            assert_eq!(keys(entry), ["value", "unit"]);
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .expect("a number");
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            (name, value)
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn timed_mode_prints_every_end_to_end_metric_and_none_is_zero() {
    for workload in Workload::ALL {
        let outcome = shrunk(workload, false);
        assert!(outcome.spans.is_none());
        assert!(
            outcome.report.contains("sim_fingerprint "),
            "{}",
            outcome.report
        );
        for (name, value) in checked(&outcome, "end_to_end") {
            assert!(value > 0.0, "{}: {name} is {value}", workload.name());
        }
    }
}

#[test]
fn traced_mode_prints_every_per_layer_metric_and_attributes_as_designed() {
    for workload in Workload::ALL {
        let outcome = shrunk(workload, true);
        let metrics = checked(&outcome, "per_layer");
        let spans = outcome
            .spans
            .as_deref()
            .expect("a traced run keeps its spans");
        let spans = json::parse(spans).expect("span JSON");
        assert_eq!(
            spans.get("workload").and_then(Value::as_str),
            Some(workload.name())
        );
        for always in [
            "host.allocs",
            "host.trace_overhead",
            "host.replay_coverage",
            "host.calib_ms",
        ] {
            assert!(
                value(&metrics, always) > 0.0,
                "{}: {always}",
                workload.name()
            );
        }
        let events = value(&metrics, "core.world.events");
        let records = value(&metrics, "trace.jsonl.records");
        let parsed = value(&metrics, "trace.reader.records");
        match workload {
            Workload::Table1 | Workload::Scale2000 => {
                assert!(events > 0.0 && records == 0.0 && parsed == 0.0);
                assert!(value(&metrics, "net.topology.rebuilds") > 0.0);
                assert!(value(&metrics, "sim.queue.op_ns") > 0.0);
            }
            Workload::JournalWrite => {
                assert!(events > 0.0 && records > 0.0 && parsed == 0.0);
                assert!(value(&metrics, "trace.jsonl.record_ns") > 0.0);
                assert!(value(&metrics, "trace.overhead.provenance") > 1.0);
            }
            Workload::JournalRead => {
                // No world event runs in the timed section.
                assert!(events == 0.0 && records == 0.0 && parsed > 0.0);
                assert!(value(&metrics, "experiments.analysis.mb_per_s") > 0.0);
            }
        }
        if workload == Workload::Table1 {
            for cell in ["rpcc-hy", "push", "pull", "push-ap"] {
                assert!(value(&metrics, &format!("core.world.run_s.{cell}")) > 0.0);
            }
        }
    }
}

#[test]
fn simulated_outputs_repeat_exactly_and_follow_the_seed() {
    let fingerprint = |seed: u64| {
        let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = run(&Options {
            workload: Workload::Scale2000,
            seed,
            seconds: 0.0,
            trace: false,
            scale: Scale::Shrunk,
        });
        outcome
            .report
            .lines()
            .find_map(|l| l.strip_prefix("sim_fingerprint ").map(str::to_owned))
            .expect("a fingerprint line")
    };
    assert_eq!(fingerprint(7), fingerprint(7));
    assert_ne!(fingerprint(7), fingerprint(8));
}
