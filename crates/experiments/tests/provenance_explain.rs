//! End-to-end root-cause acceptance: on chaos runs with the provenance
//! engine and the observatory both on, `explain_stale_serves` must
//! produce a causal chain for **100%** of stale serves, and the multiset
//! of terminal causes must equal the report's blame partition *exactly*
//! (the `crosscheck_explain` CI gate). Also pins the orphan-span
//! surfacing the analyzer relies on for truncated journals.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use mp2p_experiments::{
    analyze_journal, crosscheck_explain, explain_stale_serves, render_explain, render_health,
    ConsistencyReportTotals,
};
use mp2p_net::FaultPlan;
use mp2p_rpcc::{ObservatoryConfig, ProvenanceConfig, RunReport, Strategy, World, WorldConfig};
use mp2p_sim::SimDuration;
use mp2p_trace::JsonlSink;

/// In-memory journal target: a cloneable handle to one shared byte
/// buffer, so the bytes survive handing the writer to [`JsonlSink`].
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

/// One chaos run with observatory + provenance on, journaled at schema 4
/// into memory: the tests of this binary run as threads of one process
/// and several ask for the same `(preset, seed)`, so a temporary file
/// named after those would be created, truncated, read and removed by
/// all of them at once. Returns the run's report and the journal bytes.
fn chaos_run(preset: &str, seed: u64) -> (RunReport, Vec<u8>) {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.strategy = Strategy::Rpcc;
    cfg.sim_time = SimDuration::from_mins(8);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.faults = FaultPlan::preset(preset, cfg.sim_time).expect("known preset");
    cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    cfg.provenance = ProvenanceConfig::full();
    let journal = SharedBuf::default();
    let sink = JsonlSink::new_v4_with_warmup(Box::new(journal.clone()), cfg.warmup);
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(sink));
    let (report, tracer) = world.run_traced();
    drop(tracer); // a dropped sink has written out everything it buffered
    let bytes = journal.0.take();
    (report, bytes)
}

/// The acceptance check both presets share.
fn assert_every_stale_serve_explained(preset: &str) {
    let (report, journal) = chaos_run(preset, 42);
    let analysis = analyze_journal(&journal[..]).expect("journal parses");

    assert!(
        analysis.provenance.has_frames(),
        "{preset}: provenance-on journal must carry frame records"
    );
    let incidents = explain_stale_serves(&analysis);
    assert!(
        report.audit.stale_served() > 0,
        "{preset}: chaos fixture produced no stale serves; the gate is vacuous"
    );
    assert_eq!(
        incidents.len() as u64,
        report.audit.stale_served(),
        "{preset}: one incident per stale serve"
    );
    for incident in &incidents {
        assert_eq!(
            incident.chain.len(),
            4,
            "{preset}: query {} chain must walk update -> lineage -> hazard -> repair",
            incident.query
        );
        assert!(
            incident.chain.iter().all(|step| !step.is_empty()),
            "{preset}: query {} has an empty chain step",
            incident.query
        );
    }

    // The CI gate: terminal causes partition exactly like the report's
    // blame counters, and the totals agree.
    let totals = ConsistencyReportTotals::from_report_json(&report.to_json())
        .expect("report carries a consistency section");
    let mismatches = crosscheck_explain(&incidents, &totals);
    assert!(mismatches.is_empty(), "{preset}: {mismatches:?}");

    // Rendering smoke: every incident block appears, the health board
    // names the stale-serving nodes.
    let rendered = render_explain(&incidents, None);
    for incident in &incidents {
        assert!(
            rendered.contains(&format!("#{} ", incident.query)),
            "{preset}: query {} missing from the rendering",
            incident.query
        );
    }
    let health = render_health(&analysis);
    assert!(health.contains("Per-node health scoreboard"));
    assert!(!health.contains("no frame provenance"));
    // Ties go to the highest node id, so the map's order cannot decide.
    let top_contributor = analysis
        .provenance
        .node_health()
        .iter()
        .max_by_key(|(node, h)| (h.staleness_ms, **node))
        .map(|(node, _)| node.to_string())
        .expect("health board is non-empty");
    assert!(health.contains(&top_contributor));
}

#[test]
fn every_stale_serve_gets_a_chain_under_bursty_loss() {
    assert_every_stale_serve_explained("bursty");
}

#[test]
fn every_stale_serve_gets_a_chain_under_partition() {
    assert_every_stale_serve_explained("partition");
}

#[test]
fn crosscheck_explain_catches_a_dropped_incident() {
    let (report, journal) = chaos_run("bursty", 42);
    let analysis = analyze_journal(&journal[..]).expect("journal parses");
    let mut incidents = explain_stale_serves(&analysis);
    let totals = ConsistencyReportTotals::from_report_json(&report.to_json())
        .expect("report carries a consistency section");
    incidents.pop();
    let mismatches = crosscheck_explain(&incidents, &totals);
    assert!(
        !mismatches.is_empty(),
        "dropping one incident must trip the gate"
    );
}

#[test]
fn truncated_journal_surfaces_orphan_spans() {
    // Strip every QueryIssued line from a real journal (a truncation a
    // rotating collector could produce): the assembler must keep parsing
    // and surface each span-tagged message as an orphan count the
    // `mp2p analyze` turns into exit 1.
    let (_report, journal) = chaos_run("bursty", 42);
    let text = String::from_utf8(journal).expect("journals are UTF-8");
    let truncated: String = text
        .lines()
        .filter(|line| !line.contains("\"ev\":\"query_issued\""))
        .map(|line| format!("{line}\n"))
        .collect();
    let analysis = analyze_journal(truncated.as_bytes()).expect("truncated journal still parses");
    assert_eq!(analysis.spans.len(), 0, "no issues means no spans");
    assert!(
        analysis.orphan_tagged > 0,
        "span-tagged messages without an issue must be counted as orphans"
    );
    // The orphan count is exactly the number of span-tagged message
    // lines left in the journal (the assembler tags only sends and
    // deliveries; phase/outcome records without a span are dropped).
    let tagged = truncated
        .lines()
        .filter(|l| {
            (l.contains("\"ev\":\"msg_send\"") || l.contains("\"ev\":\"msg_deliver\""))
                && l.contains("\"span\":")
        })
        .count() as u64;
    assert_eq!(analysis.orphan_tagged, tagged);
}
