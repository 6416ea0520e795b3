//! Flight-recorder integration tests: the trace stream produced by a real
//! seeded run must obey causal invariants, a reference fold of it must
//! agree *exactly* with the run's own metrics, and the JSONL journal must
//! be well-formed line-parseable JSON.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use mp2p::metrics::{LatencyStats, MessageClass, TrafficStats};
use mp2p::net::{FaultPlan, NetConfig};
use mp2p::rpcc::{
    LevelMix, ObservatoryConfig, ProvenanceConfig, RecoveryConfig, Strategy, World, WorldConfig,
    BROADCAST_TTL,
};
use mp2p::sim::{FastSet, SimDuration, SimTime};
use mp2p::trace::reader::{parse_event, JournalReader};
use mp2p::trace::{EventKind, JsonlSink, RingSink, TraceEvent};

fn traced_world(seed: u64) -> World {
    let mut cfg = WorldConfig::small_test(seed);
    cfg.strategy = Strategy::Rpcc;
    World::new(cfg)
}

/// One seeded small-world RPCC run, recorded into a ring large enough to
/// hold everything.
fn run_with_ring(seed: u64) -> (mp2p::rpcc::RunReport, Vec<(SimTime, TraceEvent)>) {
    let mut world = traced_world(seed);
    world.set_tracer(Box::new(RingSink::new(4_000_000)));
    let (report, tracer) = world.run_traced();
    let ring = tracer
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("ring sink installed above");
    assert!(
        (ring.total_recorded() as usize) <= ring.capacity(),
        "ring overflowed; invariant checks would see a truncated stream"
    );
    let events: Vec<(SimTime, TraceEvent)> = ring.iter().copied().collect();
    (report, events)
}

#[test]
fn deliveries_are_matched_by_prior_sends() {
    let (_, events) = run_with_ring(11);
    // Per message class: nothing is delivered before something of that
    // class was sent, and no class appears in deliveries only.
    let mut first_send: [Option<SimTime>; MessageClass::ALL.len()] =
        [None; MessageClass::ALL.len()];
    for (at, ev) in &events {
        match ev {
            TraceEvent::MsgSend { class, .. } => {
                let slot = &mut first_send[class.index()];
                if slot.is_none() {
                    *slot = Some(*at);
                }
            }
            TraceEvent::MsgDeliver { class, .. } => {
                let sent = first_send[class.index()];
                assert!(
                    sent.is_some_and(|s| s <= *at),
                    "{} delivered at {at} before any send",
                    class.label()
                );
            }
            _ => {}
        }
    }
}

#[test]
fn hop_counts_respect_ttl_budgets() {
    let cfg = WorldConfig::small_test(12);
    let net = NetConfig::default();
    let flood_budget = net
        .rreq_ttl
        .max(BROADCAST_TTL)
        .max(cfg.proto.invalidation_ttl);
    // A unicast traverses at most max_unicast_hops links; hops counts the
    // receiving link too, hence +1.
    let unicast_budget = net.max_unicast_hops + 1;
    let (_, events) = run_with_ring(12);
    let mut deliveries = 0u64;
    for (_, ev) in &events {
        if let TraceEvent::MsgDeliver {
            hops, via_flood, ..
        } = ev
        {
            deliveries += 1;
            let budget = if *via_flood {
                flood_budget
            } else {
                unicast_budget
            };
            assert!(
                *hops <= budget,
                "delivery with {hops} hops exceeds budget {budget} (flood={via_flood})"
            );
        }
    }
    assert!(deliveries > 0, "run delivered nothing; test is vacuous");
}

#[test]
fn queries_never_serve_after_failing() {
    let (report, events) = run_with_ring(13);
    let mut failed: FastSet<u64> = FastSet::default();
    let mut served: FastSet<u64> = FastSet::default();
    let mut issued: FastSet<u64> = FastSet::default();
    for (_, ev) in &events {
        match ev {
            TraceEvent::QueryIssued { query, .. } => {
                assert!(issued.insert(*query), "query {query} issued twice");
            }
            TraceEvent::QueryServed { query, .. } => {
                assert!(issued.contains(query), "query {query} served, never issued");
                assert!(
                    !failed.contains(query),
                    "query {query} served after failing"
                );
                assert!(served.insert(*query), "query {query} served twice");
            }
            TraceEvent::QueryFailed { query, .. } => {
                assert!(issued.contains(query), "query {query} failed, never issued");
                assert!(
                    !served.contains(query),
                    "query {query} failed after being served"
                );
                assert!(failed.insert(*query), "query {query} failed twice");
            }
            _ => {}
        }
    }
    assert!(report.queries_issued > 0);
    assert!(!served.is_empty(), "no queries served; test is vacuous");
}

#[test]
fn the_journal_rebuilds_traffic_and_latency_exactly() {
    let mut cfg = WorldConfig::small_test(21);
    cfg.strategy = Strategy::Rpcc;
    let warmup = cfg.warmup;
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(RingSink::new(4_000_000)));
    let (report, tracer) = world.run_traced();
    let ring = tracer
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("ring sink installed above");
    assert!((ring.total_recorded() as usize) <= ring.capacity());
    // The world's censoring rules: a send counts iff it happens after
    // warm-up, a latency iff its query was issued after warm-up.
    let past_warmup = |t: SimTime| t.saturating_since(SimTime::ZERO) >= warmup;
    let mut traffic = TrafficStats::default();
    let mut latency = LatencyStats::default();
    for &(at, event) in ring.iter() {
        match event {
            TraceEvent::MsgSend { class, bytes, .. } if past_warmup(at) => {
                traffic.record(class, bytes);
            }
            TraceEvent::QueryServed { issued, .. } if past_warmup(issued) => {
                latency.record(at.saturating_since(issued));
            }
            _ => {}
        }
    }
    // Byte-for-byte identical traffic accounting: same per-class counts,
    // same byte totals, derived purely from MsgSend events.
    assert_eq!(traffic, report.traffic);
    // Latency derived from QueryServed events matches the world's own
    // measured-at-issue bookkeeping.
    assert_eq!(latency, report.latency);
    assert!(report.traffic.transmissions() > 0);
}

#[test]
fn jsonl_journal_is_parseable_and_complete() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("mp2p-trace-test-{}.jsonl", std::process::id()));
    let mut cfg = WorldConfig::small_test(31);
    cfg.strategy = Strategy::Rpcc;
    let warmup = cfg.warmup;
    let mut world = World::new(cfg);
    let file = std::fs::File::create(&path).expect("temp file");
    world.set_tracer(Box::new(JsonlSink::new_with_warmup(Box::new(file), warmup)));
    let (_report, tracer) = world.run_traced();
    let jsonl = tracer
        .as_any()
        .downcast_ref::<JsonlSink>()
        .expect("the journal comes back");
    assert!(jsonl.io_error().is_none(), "journal hit an I/O error");

    // Streaming validation: the header line plus one typed event
    // per recorded line, never buffering the journal as a whole.
    let file = std::fs::File::open(&path).expect("journal readable");
    let mut reader =
        JournalReader::new(std::io::BufReader::new(file)).expect("valid journal header");
    assert_eq!(reader.header().schema, mp2p::trace::JOURNAL_SCHEMA);
    assert_eq!(reader.header().warmup_ms, warmup.as_millis());
    let mut parsed = 0u64;
    let mut last_t = SimTime::ZERO;
    for entry in reader.by_ref() {
        let (at, _event) = entry.expect("every journal line parses back to a typed event");
        assert!(at >= last_t, "journal timestamps must be monotone");
        last_t = at;
        parsed += 1;
    }
    assert_eq!(
        reader.lines_read() as u64,
        jsonl.records() + 1,
        "header line plus one JSONL line per recorded event"
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(parsed, jsonl.records(), "every event line parsed");
}

#[test]
fn null_sink_run_equals_untraced_run() {
    // The default NullSink path must not perturb the simulation: the same
    // seed gives bit-identical headline metrics with and without the
    // run_traced plumbing.
    let plain = World::new(WorldConfig::small_test(41)).run();
    let (traced, _) = World::new(WorldConfig::small_test(41)).run_traced();
    assert_eq!(plain.traffic, traced.traffic);
    assert_eq!(plain.latency, traced.latency);
    assert_eq!(plain.queries_issued, traced.queries_issued);
    assert_eq!(plain.queries_failed, traced.queries_failed);
}

/// A journal destination the test keeps a handle on: `JsonlSink` boxes
/// its writer away.
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

/// Decode∘encode is the identity on a *real* journal: one everything-on
/// run (RPCC(HY), bursty faults, hardening, recovery, observatory,
/// provenance, schema 4) journalled into memory, then every body line
/// parsed and re-serialised byte for byte, the reader's item count
/// checked against the sink's record count, and the per-kind histogram
/// against the counts the same sink kept while writing.
fn assert_codec_identity_on_an_everything_on_run(sim_time: SimDuration, warmup: SimDuration) {
    let mut cfg = WorldConfig::paper_default(42);
    cfg.strategy = Strategy::Rpcc;
    cfg.level_mix = LevelMix::hybrid();
    cfg.sim_time = sim_time;
    cfg.warmup = warmup;
    cfg.faults = FaultPlan::bursty(cfg.sim_time);
    cfg.proto = cfg.proto.hardened();
    cfg.proto.recovery = RecoveryConfig::on();
    cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    cfg.provenance = ProvenanceConfig::full();

    let journal = SharedBuf::default();
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(JsonlSink::new_with_warmup(
        Box::new(journal.clone()),
        warmup,
    )));
    let (_report, mut tracer) = world.run_traced();
    tracer.flush();
    let jsonl = tracer
        .as_any()
        .downcast_ref::<JsonlSink>()
        .expect("jsonl sink installed above");
    assert!(jsonl.io_error().is_none(), "journal hit an I/O error");
    let records = jsonl.records();
    let bytes = journal.0.borrow();
    assert_eq!(jsonl.journal_bytes(), bytes.len() as u64);

    // Line by line: parse, re-serialise, compare bytes.
    let text = std::str::from_utf8(&bytes).expect("journal is UTF-8");
    let mut reencoded = Vec::new();
    let mut body_lines = 0u64;
    for (i, line) in text.lines().enumerate().skip(1) {
        let (at, event) =
            parse_event(line).unwrap_or_else(|| panic!("line {} does not parse: {line}", i + 1));
        reencoded.clear();
        event.write_json(at, &mut reencoded);
        assert_eq!(
            reencoded,
            line.as_bytes(),
            "line {} does not re-serialise",
            i + 1
        );
        body_lines += 1;
    }
    assert_eq!(body_lines, records, "one body line per recorded event");

    // The streaming reader yields exactly `records` items, and their
    // per-kind histogram is the one the live sink counted.
    let mut reader = JournalReader::new(bytes.as_slice()).expect("valid journal header");
    let mut counts = [0u64; EventKind::ALL.len()];
    for entry in reader.by_ref() {
        let (_, event) = entry.expect("every journal line parses back to a typed event");
        counts[event.kind().index()] += 1;
    }
    assert_eq!(counts.iter().sum::<u64>(), records);
    assert_eq!(reader.lines_read() as u64, records + 1);
    for kind in EventKind::ALL {
        assert_eq!(
            counts[kind.index()],
            jsonl.count_of(kind),
            "{} records read back vs recorded",
            kind.label()
        );
    }
    for kind in [
        EventKind::FrameFate,
        EventKind::CopyLineage,
        EventKind::ConsistencySample,
        EventKind::MsgSend,
        EventKind::QueryServed,
    ] {
        assert!(
            counts[kind.index()] > 0,
            "run must exercise {} records",
            kind.label()
        );
    }
}

#[test]
fn real_journal_lines_survive_parse_then_write_byte_for_byte() {
    assert_codec_identity_on_an_everything_on_run(
        SimDuration::from_mins(3),
        SimDuration::from_mins(1),
    );
}

/// The full-length variant (about a million lines); `ci` runs it in
/// release.
#[test]
#[ignore = "20 simulated minutes, about 1 M journal lines: run in release (./ci does)"]
fn full_length_journal_lines_survive_parse_then_write_byte_for_byte() {
    assert_codec_identity_on_an_everything_on_run(
        SimDuration::from_mins(20),
        SimDuration::from_mins(5),
    );
}
