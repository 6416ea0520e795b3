//! End-to-end observability roundtrip: a traced 50-node run's journal,
//! re-analyzed offline, must reconstruct a span for 100% of answered
//! queries and reproduce the run's own counters *exactly*. This is the
//! contract that makes the flight recorder trustworthy: the trace is not
//! a lossy approximation of the run, it IS the run.

use mp2p_experiments::{analyze_file, crosscheck, ReportTotals};
use mp2p_rpcc::{Strategy, World, WorldConfig};
use mp2p_sim::SimDuration;
use mp2p_trace::span::SpanOutcome;
use mp2p_trace::JsonlSink;

#[test]
fn traced_run_spans_match_the_report_exactly() {
    // The paper's 50-node scenario, shortened for test wall-clock but
    // long enough past warm-up for hundreds of measured queries.
    let mut cfg = WorldConfig::paper_default(2024);
    cfg.strategy = Strategy::Rpcc;
    cfg.sim_time = SimDuration::from_mins(8);
    cfg.warmup = SimDuration::from_mins(2);
    assert_eq!(cfg.n_peers, 50, "the acceptance scenario is 50 nodes");
    let warmup = cfg.warmup;

    let path = std::env::temp_dir().join(format!(
        "mp2p-analyze-roundtrip-{}.jsonl",
        std::process::id()
    ));
    let mut world = World::new(cfg);
    let file = std::fs::File::create(&path).expect("temp journal");
    world.set_tracer(Box::new(JsonlSink::new_with_warmup(Box::new(file), warmup)));
    let (report, tracer) = world.run_traced();
    let jsonl = tracer
        .as_any()
        .downcast_ref::<JsonlSink>()
        .expect("jsonl sink installed above");
    assert!(jsonl.io_error().is_none(), "journal hit an I/O error");

    let analysis = analyze_file(&path).expect("journal parses");
    std::fs::remove_file(&path).ok();

    assert_eq!(analysis.header.warmup_ms, warmup.as_millis());
    assert_eq!(analysis.events, jsonl.records(), "no event line lost");
    assert_eq!(
        analysis.orphan_tagged, 0,
        "every span-tagged message belongs to a known query"
    );

    // 100% span reconstruction: every answered query has a span whose
    // terminal is Served.
    let answered = analysis.answered_spans().count() as u64;
    let totals = analysis.measured_totals();
    assert!(totals.served > 100, "run too short to be meaningful");
    assert!(
        answered >= totals.served,
        "answered spans ({answered}) must cover at least the measured set"
    );

    // Span-derived totals equal the report's counters exactly.
    let report_totals = ReportTotals {
        queries_issued: report.queries_issued,
        queries_served: report.queries_served(),
        queries_failed: report.queries_failed,
        served_by: report.served_by,
    };
    let mismatches = crosscheck(&totals, &report_totals);
    assert!(mismatches.is_empty(), "{mismatches:?}");

    // ... and the counters parsed back out of the report's JSON agree
    // with the in-memory report (the analyze binary's --report path).
    let parsed = ReportTotals::from_report_json(&report.to_json()).expect("report JSON parses");
    assert_eq!(parsed, report_totals);

    // The latency distribution itself — not just the count — matches
    // bucket for bucket.
    assert_eq!(totals.latency, report.latency);
    for (level, span_side) in totals.latency_by_level.iter().enumerate() {
        assert_eq!(
            span_side, &report.latency_by_level[level],
            "latency histogram diverges for level index {level}"
        );
    }

    // Issued partitions exactly into served + failed; still-open spans
    // are censored on both sides (the world drops them at end of run).
    assert_eq!(totals.issued, totals.served + totals.failed);

    // Relay answers exist in a default RPCC run, so the served-by split
    // is non-trivial and cache_hit_ratio is meaningful.
    assert!(totals.served_by.iter().sum::<u64>() == totals.served);
    let ratio = totals.cache_hit_ratio();
    assert!((0.0..=1.0).contains(&ratio));
    assert_eq!(ratio, report.cache_hit_ratio());

    // Spot-check span shape: any span that was served with phases has a
    // critical path whose segments tile issue → answer exactly.
    let mut checked = 0;
    for span in analysis.spans.iter().filter(|s| !s.phases.is_empty()) {
        if let SpanOutcome::Served { at, .. } = span.outcome {
            let path = span.critical_path();
            assert_eq!(
                path.first().unwrap().start,
                span.issued,
                "span {}",
                span.query
            );
            assert_eq!(path.last().unwrap().end, at, "span {}", span.query);
            for pair in path.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap in span {}", span.query);
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "no multi-phase served spans; test is vacuous");
}
