//! Proof that the journal codec is allocation-free in both directions at
//! steady state: `JournalReader` turning lines back into events (at any
//! buffer size, with `\n` or `\r\n` line ends), and `JsonlSink::record`
//! turning events into lines, must not touch the heap for any record
//! kind the writer emits — and neither must the windowed
//! `RegistrySink`. A counting global allocator makes the
//! claim a hard assertion rather than a code-review promise.
//!
//! The counter only tracks allocations made by the thread that called
//! [`arm`], between [`arm`] and [`disarm`], so the three tests (and the
//! harness printing their results) cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufRead, BufReader};

use mp2p_sim::{SimDuration, SimTime};
use mp2p_trace::bridge::{RegistrySink, DEFAULT_WINDOW};
use mp2p_trace::reader::{parse_event, JournalReader};
use mp2p_trace::{EventKind, JsonlSink, TraceEvent, TraceSink};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if ARMED.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn arm() {
    ALLOCATIONS.set(0);
    ARMED.set(true);
}

fn disarm() -> u64 {
    ARMED.set(false);
    ALLOCATIONS.get()
}

/// One journal line per record shape the writer emits: every kind, plus
/// both spellings of the optional fields (`dest` null or a node, `span`
/// and `item`/`version` present or absent).
const LINES: [&str; 42] = [
    r#"{"t":10,"ev":"msg_send","node":1,"class":"POLL","bytes":48,"dest":2,"span":7}"#,
    r#"{"t":20,"ev":"msg_send","node":1,"class":"INVALIDATION","bytes":40,"dest":null}"#,
    r#"{"t":30,"ev":"msg_deliver","node":2,"origin":1,"class":"UPDATE","hops":3,"flood":false}"#,
    r#"{"t":40,"ev":"msg_deliver","node":2,"origin":1,"class":"POLL_ACK_B","hops":2,"flood":true,"span":7}"#,
    r#"{"t":50,"ev":"mac_drop","node":1,"next_hop":2,"class":"APPLY"}"#,
    r#"{"t":60,"ev":"undeliverable","node":1,"dest":2,"class":"GET_NEW"}"#,
    r#"{"t":70,"ev":"flood_dup_drop","node":1,"origin":2}"#,
    r#"{"t":80,"ev":"flood_ttl_exhausted","node":1,"origin":2}"#,
    r#"{"t":90,"ev":"rreq_dup_drop","node":1,"origin":2}"#,
    r#"{"t":100,"ev":"hop_budget_drop","node":1,"origin":2,"dest":1}"#,
    r#"{"t":110,"ev":"no_route_drop","node":1,"origin":2,"dest":1}"#,
    r#"{"t":120,"ev":"discovery_start","node":1,"dest":2,"attempt":2}"#,
    r#"{"t":130,"ev":"discovery_failed","node":1,"dest":2,"dropped":5}"#,
    r#"{"t":140,"ev":"relay_transition","node":1,"item":3,"kind":"promoted"}"#,
    r#"{"t":150,"ev":"query_issued","node":1,"query":7,"item":3,"level":"SC"}"#,
    r#"{"t":160,"ev":"query_served","node":1,"query":7,"level":"SC","by":"relay","issued":120}"#,
    r#"{"t":170,"ev":"query_failed","node":1,"query":8,"level":"WC"}"#,
    r#"{"t":180,"ev":"node_up","node":1}"#,
    r#"{"t":190,"ev":"node_down","node":1}"#,
    r#"{"t":200,"ev":"source_update","node":1,"item":3,"version":4}"#,
    r#"{"t":210,"ev":"node_crash","node":1}"#,
    r#"{"t":220,"ev":"node_recover","node":1}"#,
    r#"{"t":230,"ev":"partition_start","axis":0}"#,
    r#"{"t":240,"ev":"partition_heal","axis":1}"#,
    r#"{"t":250,"ev":"frame_dup","node":1,"class":"UPDATE"}"#,
    r#"{"t":260,"ev":"burst_drop","node":2}"#,
    r#"{"t":270,"ev":"relay_lease_expired","node":1,"item":3}"#,
    r#"{"t":280,"ev":"fallback_flood","node":1,"query":9,"item":3}"#,
    r#"{"t":290,"ev":"query_phase","node":1,"query":7,"item":3,"phase":"poll_flood","attempt":2}"#,
    r#"{"t":300,"ev":"consistency","fresh":12,"copies":20,"items":7,"max_replicas":5,"partitions":2,"relay_nodes":4,"ages":[3,2,1,1,0,1]}"#,
    r#"{"t":310,"ev":"stale_serve","node":1,"query":7,"item":3,"cause":"invalidate_lost","staleness_ms":1500,"lag":2,"violation":false}"#,
    r#"{"t":320,"ev":"resync_start","node":1,"items":6}"#,
    r#"{"t":330,"ev":"resync_done","node":1,"stale":2}"#,
    r#"{"t":340,"ev":"retransmit","node":1,"dest":2,"item":3,"seq":17,"attempt":1}"#,
    r#"{"t":350,"ev":"recovery_ack","node":1,"peer":2,"item":3,"seq":17}"#,
    r#"{"t":360,"ev":"relay_handover","from":1,"to":2,"item":3}"#,
    r#"{"t":370,"ev":"frame_born","node":1,"frame":12,"class":"UPDATE","dest":2,"item":3,"version":4}"#,
    r#"{"t":380,"ev":"frame_born","node":1,"frame":13,"class":"INVALIDATION","dest":null}"#,
    r#"{"t":390,"ev":"frame_hop","node":2,"origin":1,"frame":12,"hops":2}"#,
    r#"{"t":400,"ev":"frame_fate","node":2,"origin":1,"frame":12,"fate":"delivered"}"#,
    r#"{"t":410,"ev":"frame_fate","node":2,"origin":1,"frame":13,"fate":"burst"}"#,
    r#"{"t":420,"ev":"copy_lineage","node":2,"item":3,"version":4,"origin":1,"frame":12,"hops":2}"#,
];

/// How many times each shape appears in the measured journal.
const ROUNDS: usize = 1_000;

/// The events behind [`LINES`], checked to cover the whole vocabulary
/// and to be exactly what the writer spells that way.
fn events() -> Vec<(SimTime, TraceEvent)> {
    let events: Vec<(SimTime, TraceEvent)> = LINES
        .iter()
        .map(|line| parse_event(line).unwrap_or_else(|| panic!("bad fixture line: {line}")))
        .collect();
    for kind in EventKind::ALL {
        assert!(
            events.iter().any(|(_, e)| e.kind() == kind),
            "no fixture line of kind {}",
            kind.label()
        );
    }
    for ((at, event), line) in events.iter().zip(LINES) {
        let mut written = String::new();
        event.write_json(*at, &mut written);
        assert_eq!(written, line, "fixture is not in the writer's spelling");
    }
    events
}

/// The measured journal: a schema-4 header, then every fixture line
/// [`ROUNDS`] times, each ended by `eol`.
fn journal(eol: &str) -> String {
    let mut journal = format!("{{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}}{eol}");
    for _ in 0..ROUNDS {
        for line in LINES {
            journal.push_str(line);
            journal.push_str(eol);
        }
    }
    journal
}

/// Allocations `reader` makes yielding every record after its first,
/// with every record checked to parse.
fn allocations_reading<R: BufRead>(mut reader: JournalReader<R>) -> u64 {
    // Warm-up: one record. The reader's 256-byte line buffer is already
    // wider than any line the writer emits.
    reader.next().expect("a first record").expect("that parses");

    arm();
    let mut records = 1usize;
    let mut errors = 0usize;
    for entry in reader.by_ref() {
        match entry {
            Ok(_) => records += 1,
            Err(_) => errors += 1,
        }
    }
    let count = disarm();

    assert_eq!(errors, 0);
    assert_eq!(records, ROUNDS * LINES.len());
    count
}

#[test]
fn warm_reader_does_not_allocate() {
    events();
    // Either line ending, read from the whole slice and through buffers
    // that cut a line at every offset: 7 cuts every line several times,
    // 64 most, 100 the longer ones.
    for eol in ["\n", "\r\n"] {
        let journal = journal(eol);
        for capacity in [None, Some(7), Some(64), Some(100)] {
            let count = match capacity {
                None => allocations_reading(JournalReader::new(journal.as_bytes()).unwrap()),
                Some(capacity) => allocations_reading(
                    JournalReader::new(BufReader::with_capacity(capacity, journal.as_bytes()))
                        .unwrap(),
                ),
            };
            assert_eq!(
                count,
                0,
                "JournalReader allocated {count} times over {} records ({eol:?} line ends, buffer {capacity:?})",
                ROUNDS * LINES.len()
            );
        }
    }
}

#[test]
fn warm_writer_does_not_allocate() {
    let events = events();
    let mut sink = JsonlSink::new_with_warmup(Box::new(io::sink()), SimDuration::ZERO);
    // Warm-up: one record, the widest, so the sink's line buffer has
    // reached its steady-state capacity.
    let widest = events
        .iter()
        .find(|(_, e)| e.kind() == EventKind::ConsistencySample)
        .expect("covered above");
    sink.record(widest.0, &widest.1);

    arm();
    for _ in 0..ROUNDS {
        for (at, event) in &events {
            sink.record(*at, event);
        }
    }
    let count = disarm();

    assert!(sink.io_error().is_none());
    assert_eq!(sink.records(), (ROUNDS * events.len() + 1) as u64);
    assert_eq!(
        count,
        0,
        "JsonlSink::record allocated {count} times over {} records",
        sink.records()
    );
}

#[test]
fn warm_bridge_does_not_allocate() {
    let events = events();
    let mut sink = RegistrySink::new(DEFAULT_WINDOW, SimDuration::ZERO);
    // Warm-up: every shape once, so each series it feeds exists and
    // spans the one window the fixture's stamps fall in.
    for (at, event) in &events {
        sink.record(*at, event);
    }

    arm();
    for _ in 0..ROUNDS {
        for (at, event) in &events {
            sink.record(*at, event);
        }
    }
    let count = disarm();

    let sends = sink.registry().counter("traffic_bytes_total");
    assert_eq!(sends.map(|c| c.total()), Some(88 * (ROUNDS as u64 + 1)));
    assert_eq!(
        count,
        0,
        "RegistrySink::record allocated {count} times over {} records",
        ROUNDS * events.len()
    );
}
