//! The analyzer never aborts on a journal the reader accepts. A journal
//! is outside input, and the reader's ranges are wide: a `u64` field may
//! say 2^53, a timestamp fifteen digits. Every fold behind
//! `analyze_journal` and every renderer over its result must take those
//! values as data — refuse the journal naming the line, or produce a
//! report — and never panic, overflow or ask the allocator for memory in
//! proportion to a number it read.
//!
//! The journals are one real everything-on run's, each number replaced
//! by 0, by the largest value its field's type holds, or by 10^15.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::sync::OnceLock;

use mp2p_experiments::{
    analyze_journal, explain_stale_serves, render_analysis, render_consistency, render_explain,
    render_health,
};
use mp2p_net::FaultPlan;
use mp2p_rpcc::{
    ObservatoryConfig, ProvenanceConfig, RecoveryConfig, Strategy, World, WorldConfig,
};
use mp2p_sim::SimDuration;
use mp2p_trace::bridge::{RegistrySink, DEFAULT_WINDOW};
use mp2p_trace::reader::{JournalReader, ReadError};
use mp2p_trace::{JsonlSink, TraceSink};
use proptest::prelude::*;

/// A cloneable handle to one shared byte buffer, so the bytes survive
/// handing the writer to [`JsonlSink`].
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The lines of one small run with every journalled layer on (hostile
/// faults, hardening, recovery, observatory, provenance; schema 4).
fn real_journal() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let mut cfg = WorldConfig::small_test(42);
        cfg.strategy = Strategy::Rpcc;
        cfg.sim_time = SimDuration::from_mins(3);
        cfg.warmup = SimDuration::from_mins(1);
        cfg.proto = cfg.proto.hardened();
        cfg.proto.recovery = RecoveryConfig::on();
        cfg.faults = FaultPlan::preset("hostile", cfg.sim_time).expect("known preset");
        cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
        cfg.provenance = ProvenanceConfig::full();
        let journal = SharedBuf::default();
        let sink = JsonlSink::new_with_warmup(Box::new(journal.clone()), cfg.warmup);
        let mut world = World::new(cfg);
        world.set_tracer(Box::new(sink));
        drop(world.run_traced()); // a dropped sink has written everything out
        let text = String::from_utf8(journal.0.take()).expect("the writer emits ASCII");
        text.lines().map(str::to_owned).collect()
    })
}

/// The largest value the reader accepts under `key`: the field type's
/// maximum.
fn field_max(key: &str) -> u64 {
    match key {
        "hops" | "attempt" | "axis" => u64::from(u8::MAX),
        "node" | "origin" | "dest" | "next_hop" | "item" | "peer" | "from" | "to" | "bytes"
        | "dropped" | "items" | "stale" | "fresh" | "copies" | "max_replicas" | "partitions"
        | "relay_nodes" | "ages" => u64::from(u32::MAX),
        _ => u64::MAX,
    }
}

/// `line` with each number replaced, at the given odds, by one of the
/// extremes its key allows. `pick` draws below its argument.
fn with_extremes(line: &str, one_in: u64, pick: &mut impl FnMut(u64) -> u64) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len() + 16);
    let mut key = "";
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            // The writer escapes nothing: a string ends at the next quote,
            // and is a key when a colon follows.
            b'"' => {
                i += 1 + line[i + 1..].find('"').expect("closed string");
                if bytes.get(i + 1) == Some(&b':') {
                    key = &line[start + 1..i];
                }
                i += 1;
                out.push_str(&line[start..i]);
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if pick(one_in) > 0 {
                    out.push_str(&line[start..i]);
                    continue;
                }
                let max = field_max(key);
                let extreme = match pick(3) {
                    0 => 0,
                    // Ten to the fifteenth is in range for a u64 only.
                    1 if max > 1_000_000_000_000_000 => 1_000_000_000_000_000,
                    _ => max,
                };
                out.push_str(&extreme.to_string());
            }
            _ => {
                i += 1;
                out.push_str(&line[start..i]);
            }
        }
    }
    out
}

/// The one sum of a journal-stated `u64` the folds keep: it saturates.
#[test]
fn a_nodes_summed_staleness_saturates() {
    let mut journal = String::from("{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}\n");
    for query in 0..2_049 {
        journal.push_str(&format!(
            "{{\"t\":5,\"ev\":\"stale_serve\",\"node\":1,\"query\":{query},\"item\":3,\
             \"cause\":\"partitioned\",\"staleness_ms\":9007199254740992,\"lag\":1,\
             \"violation\":true}}\n"
        ));
    }
    let analysis = analyze_journal(journal.as_bytes()).expect("every field in range");
    let health = render_health(&analysis);
    assert!(health.contains("2049"), "{health}");
    assert!(
        health.contains(&format!("{:.1}", u64::MAX as f64 / 1_000.0)),
        "{health}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_range_extremes_are_refused_by_line_or_rendered(
        seed in any::<u64>(),
        one_in in prop_oneof![Just(1u64), Just(10), Just(100), Just(1_000)],
        spare_time in any::<bool>(),
    ) {
        // SplitMix64: the replacement sites are a function of the case.
        let mut state = seed;
        let mut pick = move |below: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        let lines = real_journal();
        let mut journal = String::with_capacity(lines.len() * 80);
        journal.push_str(&lines[0]);
        journal.push('\n');
        for line in &lines[1..] {
            // With `spare_time` the stamp survives, so the extremes
            // reach the folds instead of stopping at the horizon.
            let (stamp, rest) = line.split_at(line.find(',').expect("t, then ev"));
            if spare_time {
                journal.push_str(stamp);
            } else {
                journal.push_str(&with_extremes(stamp, one_in, &mut pick));
            }
            journal.push_str(&with_extremes(rest, one_in, &mut pick));
            journal.push('\n');
        }

        match analyze_journal(journal.as_bytes()) {
            Ok(analysis) => {
                let incidents = explain_stale_serves(&analysis);
                // The windowed registry records the same accepted
                // journal without a panic.
                let warmup = SimDuration::from_millis(analysis.header.warmup_ms);
                let mut sink = RegistrySink::new(DEFAULT_WINDOW, warmup);
                for entry in JournalReader::new(journal.as_bytes()).expect("accepted above") {
                    let (at, event) = entry.expect("accepted above");
                    sink.record(at, &event);
                }
                let rendered = [
                    render_analysis(&analysis, 5),
                    render_consistency(&analysis.consistency),
                    render_explain(&incidents, None),
                    render_health(&analysis),
                ];
                prop_assert!(rendered.iter().all(|text| !text.is_empty()));
            }
            Err(err @ (ReadError::BadLine { .. } | ReadError::BeyondHorizon { .. })) => {
                prop_assert!(err.to_string().contains("journal line "), "{}", err);
            }
            Err(other) => prop_assert!(false, "not a line-accurate refusal: {}", other),
        }
    }
}
