//! Trace sinks: where flight-recorder events go.
//!
//! Two real sinks plus a disabled default (the third real one,
//! [`RegistrySink`](crate::bridge::RegistrySink), lives in `bridge`):
//!
//! * [`NullSink`] — reports `enabled() == false`; the simulation keeps
//!   its hot path allocation-free by skipping emission entirely.
//! * [`RingSink`] — bounded in-memory ring, for tests and post-mortems.
//! * [`JsonlSink`] — streams one JSON object per line to any writer and
//!   counts the events handed to it by kind (`run --trace`'s table).

use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};

use mp2p_sim::{SimDuration, SimTime};

use crate::event::{kinds_at, EventKind, TraceEvent};
use crate::json;

/// A destination for flight-recorder events.
///
/// Implementations must be cheap per [`TraceSink::record`] call: the
/// simulation can emit an event per MAC transmission.
pub trait TraceSink {
    /// Whether the producer should bother emitting at all. The driver
    /// checks this once per emission site; [`NullSink`] returns `false`
    /// so a disabled recorder costs one boolean test.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event stamped with simulated time `at`.
    fn record(&mut self, at: SimTime, event: &TraceEvent);

    /// Flushes any buffered output (called once at end of run).
    fn flush(&mut self) {}

    /// Bytes this sink has durably serialised (journal output). In-memory
    /// sinks report 0. Used by the perf observatory's allocation counters.
    fn bytes_written(&self) -> u64 {
        0
    }

    /// Downcasting support, so callers of `World::run_traced` can get
    /// their concrete sink back.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The disabled sink: drops everything and reports `enabled() == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _at: SimTime, _event: &TraceEvent) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A bounded in-memory ring of the most recent events.
///
/// # Example
///
/// ```
/// use mp2p_sim::{NodeId, SimTime};
/// use mp2p_trace::{RingSink, TraceEvent, TraceSink};
///
/// let mut ring = RingSink::new(2);
/// for i in 0..5 {
///     let at = SimTime::from_millis(i);
///     ring.record(at, &TraceEvent::NodeUp { node: NodeId::new(0) });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.total_recorded(), 5);
/// assert_eq!(ring.iter().next().unwrap().0, SimTime::from_millis(3));
/// ```
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<(SimTime, TraceEvent)>,
    total: u64,
}

impl RingSink {
    /// Creates a ring holding at most `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be non-zero");
        RingSink {
            cap,
            buf: VecDeque::with_capacity(cap.min(1 << 16)),
            total: 0,
        }
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (> `len()` iff the ring wrapped).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((at, *event));
        self.total += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The newest journal schema version this build can write and read.
/// Schema 4 added the causal-provenance kinds
/// ([`EventKind::FrameBorn`], [`EventKind::FrameHop`],
/// [`EventKind::FrameFate`], [`EventKind::CopyLineage`]).
pub const JOURNAL_SCHEMA: u64 = 4;

/// The original journal schema: the 27-kind vocabulary of PR 3.
/// [`JsonlSink::new_with_warmup`] still writes it, so runs that never
/// enable the observatory produce byte-identical journals to older
/// builds and stay readable by older tools.
pub const JOURNAL_SCHEMA_V1: u64 = 1;

/// The consistency-observatory schema of PR 6, now frozen: the 29-kind
/// vocabulary ending at [`EventKind::StaleServe`].
/// [`JsonlSink::new_v2_with_warmup`] keeps writing it so observatory runs
/// without the recovery layer stay byte-identical to what pre-recovery
/// builds wrote.
pub const JOURNAL_SCHEMA_V2: u64 = 2;

/// The recovery-layer schema of PR 7, now frozen: the 34-kind
/// vocabulary ending at [`EventKind::RelayHandover`].
/// [`JsonlSink::new_v3_with_warmup`] keeps writing it so recovery runs
/// without provenance stay byte-identical to what pre-provenance builds
/// wrote.
pub const JOURNAL_SCHEMA_V3: u64 = 3;

/// The (frozen) number of event kinds in the schema-3 vocabulary.
pub const JOURNAL_KINDS_V3: usize = kinds_at(JOURNAL_SCHEMA_V3);

/// Streams events as JSON Lines to a writer: one versioned header object
/// (`{"schema":1,...}` through `{"schema":4,...}`) followed by one
/// object per event. [`JsonlSink::new_with_warmup`] writes schema 1 and
/// silently skips any newer-schema event (see [`EventKind::min_schema`]);
/// `new_v2_with_warmup` writes the frozen observatory schema (skipping
/// recovery and provenance kinds); `new_v3_with_warmup` writes the
/// frozen recovery schema (skipping provenance kinds);
/// `new_v4_with_warmup` writes the current schema and accepts
/// everything. To journal into a file, box a `File`.
///
/// Serialisation is hand-rolled via [`crate::json`] — the build
/// environment has no crates.io access, so there is no serde. On an I/O
/// error the sink stops writing and remembers the failure instead of
/// panicking mid-simulation; check [`JsonlSink::io_error`] after the run.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write>>,
    schema: u64,
    line: String,
    records: u64,
    skipped: u64,
    bytes: u64,
    counts: [u64; EventKind::ALL.len()],
    io_error: Option<io::Error>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("records", &self.records)
            .field("io_error", &self.io_error)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer and stamps `warmup` into a **schema 1**
    /// header so offline consumers can reproduce the run's censoring
    /// rules. Schema-2-only events are skipped; use
    /// [`JsonlSink::new_v2_with_warmup`] for observatory runs.
    pub fn new_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::with_schema(writer, warmup, JOURNAL_SCHEMA_V1)
    }

    /// Wraps an arbitrary writer with the frozen schema 2 header: the
    /// consistency observatory's vocabulary, but not the recovery
    /// layer's (those events are skipped). Use
    /// [`JsonlSink::new_v3_with_warmup`] for recovery runs.
    pub fn new_v2_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::with_schema(writer, warmup, JOURNAL_SCHEMA_V2)
    }

    /// Wraps an arbitrary writer with the frozen schema 3 header: the
    /// recovery layer's vocabulary, but not the provenance engine's
    /// (those events are skipped). Use
    /// [`JsonlSink::new_v4_with_warmup`] for provenance runs.
    pub fn new_v3_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::with_schema(writer, warmup, JOURNAL_SCHEMA_V3)
    }

    /// Wraps an arbitrary writer with the current (schema 4) header,
    /// accepting the full event vocabulary including the causal
    /// provenance kinds.
    pub fn new_v4_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::with_schema(writer, warmup, JOURNAL_SCHEMA)
    }

    fn with_schema(writer: Box<dyn Write>, warmup: SimDuration, schema: u64) -> Self {
        let mut sink = JsonlSink {
            out: BufWriter::new(writer),
            schema,
            line: String::with_capacity(160),
            records: 0,
            skipped: 0,
            bytes: 0,
            counts: [0; EventKind::ALL.len()],
            io_error: None,
        };
        sink.write_header(warmup);
        sink
    }

    /// Writes the versioned header line. The header is metadata, not an
    /// event: it does not count toward [`JsonlSink::records`]. Frozen
    /// schemas stamp their frozen kind counts so their headers stay
    /// byte-identical to what older builds wrote.
    fn write_header(&mut self, warmup: SimDuration) {
        self.line.clear();
        self.line.push_str("{\"schema\":");
        json::push_u64(&mut self.line, self.schema);
        self.line.push_str(",\"kinds\":");
        json::push_u64(&mut self.line, kinds_at(self.schema) as u64);
        self.line.push_str(",\"warmup_ms\":");
        json::push_u64(&mut self.line, warmup.as_millis());
        self.line.push_str("}\n");
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.bytes += self.line.len() as u64,
            Err(e) => self.io_error = Some(e),
        }
    }

    /// The schema version this sink's header declares.
    pub fn schema(&self) -> u64 {
        self.schema
    }

    /// Event lines successfully written so far (header excluded).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Events dropped because their kind post-dates this sink's schema.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// How many events of `kind` were handed to this sink: written,
    /// skipped for post-dating the schema, or dropped after an I/O error.
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// The first I/O error hit, if any (writing stops after it).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    /// Journal bytes successfully handed to the writer (header included).
    pub fn journal_bytes(&self) -> u64 {
        self.bytes
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        let kind = event.kind();
        self.counts[kind.index()] += 1;
        if self.io_error.is_some() {
            return;
        }
        if kind.min_schema() > self.schema {
            self.skipped += 1;
            return;
        }
        self.line.clear();
        event.write_json(at, &mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => {
                self.records += 1;
                self.bytes += self.line.len() as u64;
            }
            Err(e) => self.io_error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.io_error.is_none() {
            if let Err(e) = self.out.flush() {
                self.io_error = Some(e);
            }
        }
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LevelTag, ServedBy};
    use crate::json;
    use mp2p_metrics::MessageClass;
    use mp2p_sim::NodeId;

    fn send(node: u32, class: MessageClass, bytes: u32) -> TraceEvent {
        TraceEvent::MsgSend {
            node: NodeId::new(node),
            class,
            bytes,
            dest: None,
            span: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(
            SimTime::ZERO,
            &TraceEvent::NodeUp {
                node: NodeId::new(0),
            },
        );
        assert!(sink.as_any().downcast_ref::<NullSink>().is_some());
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut ring = RingSink::new(3);
        for i in 0..10u64 {
            ring.record(SimTime::from_millis(i), &send(0, MessageClass::Poll, 48));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.total_recorded(), 10);
        let times: Vec<u64> = ring.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn ring_rejects_zero_capacity() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn jsonl_writes_one_valid_line_per_event() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new_v4_with_warmup(Box::new(buf), SimDuration::ZERO);
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            sink.record(SimTime::from_millis(i as u64), &event);
        }
        let n = sink.records();
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(n, crate::event::tests::samples().len() as u64);
        assert_eq!(sink.skipped(), 0, "a v4 sink accepts the full vocabulary");
        // The writer is boxed away; serialisation itself is validated in
        // the event module, and the end-to-end file path is covered by
        // the world-level tests.
    }

    #[test]
    fn v2_sink_keeps_frozen_header_and_skips_recovery_kinds() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new_v2_with_warmup(Box::new(buf), SimDuration::ZERO);
        assert_eq!(sink.schema(), JOURNAL_SCHEMA_V2);
        let v3_only: u64 = crate::event::tests::samples()
            .iter()
            .filter(|e| e.kind().min_schema() > JOURNAL_SCHEMA_V2)
            .count() as u64;
        assert!(v3_only > 0, "samples must cover schema-3 kinds");
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            sink.record(SimTime::from_millis(i as u64), &event);
        }
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(sink.skipped(), v3_only);
        assert_eq!(
            sink.records(),
            crate::event::tests::samples().len() as u64 - v3_only
        );
    }

    #[test]
    fn v3_sink_keeps_frozen_header_and_skips_provenance_kinds() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new_v3_with_warmup(Box::new(buf), SimDuration::ZERO);
        assert_eq!(sink.schema(), JOURNAL_SCHEMA_V3);
        let v4_only: u64 = crate::event::tests::samples()
            .iter()
            .filter(|e| e.kind().min_schema() > JOURNAL_SCHEMA_V3)
            .count() as u64;
        assert!(v4_only > 0, "samples must cover schema-4 kinds");
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            sink.record(SimTime::from_millis(i as u64), &event);
        }
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(sink.skipped(), v4_only);
        assert_eq!(
            sink.records(),
            crate::event::tests::samples().len() as u64 - v4_only
        );
    }

    #[test]
    fn v1_sink_keeps_legacy_header_and_skips_observatory_kinds() {
        let path = std::env::temp_dir().join(format!(
            "mp2p-trace-sink-v1-test-{}.jsonl",
            std::process::id()
        ));
        let v2_only: u64 = crate::event::tests::samples()
            .iter()
            .filter(|e| e.kind().min_schema() > JOURNAL_SCHEMA_V1)
            .count() as u64;
        assert!(v2_only > 0, "samples must cover schema-2 kinds");
        {
            let file = std::fs::File::create(&path).expect("create temp jsonl");
            let mut sink = JsonlSink::new_with_warmup(Box::new(file), SimDuration::ZERO);
            assert_eq!(sink.schema(), JOURNAL_SCHEMA_V1);
            for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
                sink.record(SimTime::from_millis(i as u64), &event);
            }
            sink.flush();
            assert!(sink.io_error().is_none());
            assert_eq!(sink.skipped(), v2_only);
        }
        let contents = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = contents.lines().collect();
        // The header is byte-identical to what pre-observatory builds
        // wrote: schema 1 with the frozen 27-kind count.
        assert_eq!(lines[0], "{\"schema\":1,\"kinds\":27,\"warmup_ms\":0}");
        assert_eq!(
            lines.len() as u64,
            crate::event::tests::samples().len() as u64 - v2_only + 1
        );
        for line in &lines[1..] {
            assert!(
                !line.contains("\"ev\":\"consistency\"")
                    && !line.contains("\"ev\":\"stale_serve\""),
                "v1 journal must not carry schema-2 kinds: {line}"
            );
        }
    }

    #[test]
    fn jsonl_counts_kinds_past_its_schema_but_does_not_write_them() {
        let warmup = SimDuration::from_secs(10);
        let mut sink = JsonlSink::new_with_warmup(Box::new(Vec::new()), warmup);

        // One send during warm-up and one after.
        sink.record(SimTime::from_millis(500), &send(0, MessageClass::Poll, 48));
        sink.record(
            SimTime::from_millis(12_000),
            &send(0, MessageClass::Poll, 48),
        );

        // A query issued during warm-up and one after.
        let served = |issued_ms: u64| TraceEvent::QueryServed {
            node: NodeId::new(1),
            query: 1,
            level: LevelTag::Weak,
            served_by: ServedBy::Cache,
            issued: SimTime::from_millis(issued_ms),
        };
        sink.record(SimTime::from_millis(900), &served(500));
        sink.record(SimTime::from_millis(11_250), &served(11_000));

        // A schema-2 kind, which a schema-1 header cannot carry.
        let newer = crate::event::tests::samples()
            .into_iter()
            .find(|e| e.kind().min_schema() > JOURNAL_SCHEMA_V1)
            .expect("samples cover schema-2 kinds");
        sink.record(SimTime::from_millis(13_000), &newer);
        sink.flush();
        assert!(sink.io_error().is_none());

        // Counts see everything, warm-up and newer kinds included...
        assert_eq!(sink.count_of(EventKind::MsgSend), 2);
        assert_eq!(sink.count_of(EventKind::QueryServed), 2);
        assert_eq!(sink.count_of(newer.kind()), 1);
        let total: u64 = EventKind::ALL.iter().map(|&k| sink.count_of(k)).sum();
        assert_eq!(total, 5);
        // ...but the newer kind is not written.
        assert_eq!(sink.records(), 4);
        assert_eq!(sink.skipped(), 1);
    }

    #[test]
    fn jsonl_file_roundtrip_is_parseable() {
        let path =
            std::env::temp_dir().join(format!("mp2p-trace-sink-test-{}.jsonl", std::process::id()));
        {
            let file = std::fs::File::create(&path).expect("create jsonl");
            let mut sink = JsonlSink::new_v4_with_warmup(Box::new(file), SimDuration::ZERO);
            for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
                sink.record(SimTime::from_millis(i as u64 * 10), &event);
            }
            sink.flush();
            assert!(sink.io_error().is_none());
        }
        let contents = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = contents.lines().collect();
        // Header line + one line per event.
        assert_eq!(lines.len(), crate::event::tests::samples().len() + 1);
        assert!(
            lines[0].starts_with("{\"schema\":4,"),
            "bad header: {}",
            lines[0]
        );
        assert!(lines[0].contains("\"warmup_ms\":0"));
        for line in lines {
            assert!(json::parse(line).is_some(), "bad line: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_header_carries_warmup_and_is_not_a_record() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new_with_warmup(Box::new(buf), SimDuration::from_secs(60));
        assert_eq!(sink.records(), 0);
        sink.record(SimTime::from_millis(5), &send(0, MessageClass::Poll, 48));
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(sink.records(), 1);
    }

    #[test]
    fn ring_high_volume_wrap_keeps_newest_in_order() {
        const CAP: usize = 1_000;
        const TOTAL: u64 = 100_000;
        let mut ring = RingSink::new(CAP);
        for i in 0..TOTAL {
            ring.record(SimTime::from_millis(i), &send(0, MessageClass::Poll, 48));
        }
        assert_eq!(ring.len(), CAP);
        assert_eq!(ring.total_recorded(), TOTAL);
        // The retained window is exactly the newest CAP events, oldest
        // first, with no gaps or reordering.
        for (k, (t, _)) in ring.iter().enumerate() {
            assert_eq!(t.as_millis(), TOTAL - CAP as u64 + k as u64);
        }
    }
}
