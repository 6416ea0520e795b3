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

use crate::event::{EventKind, TraceEvent};
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

/// The journal schema this build writes and reads. Schema 4 added the
/// causal-provenance kinds ([`EventKind::FrameBorn`],
/// [`EventKind::FrameHop`], [`EventKind::FrameFate`],
/// [`EventKind::CopyLineage`]); a new record kind raises it.
pub const JOURNAL_SCHEMA: u64 = 4;

/// Streams events as JSON Lines to a writer: one header object,
/// `{"schema":4,"kinds":38,"warmup_ms":N}`, followed by one object per
/// event it is handed. To journal into a file, box a `File`.
///
/// Serialisation is hand-rolled via [`crate::json`] — the build
/// environment has no crates.io access, so there is no serde. On an I/O
/// error the sink stops writing and remembers the failure instead of
/// panicking mid-simulation; check [`JsonlSink::io_error`] after the run.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write>>,
    line: Vec<u8>,
    records: u64,
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
    /// Wraps an arbitrary writer and stamps `warmup` into the header so
    /// offline consumers can reproduce the run's censoring rules.
    pub fn new_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        let mut sink = JsonlSink {
            out: BufWriter::new(writer),
            line: Vec::with_capacity(160),
            records: 0,
            bytes: 0,
            counts: [0; EventKind::ALL.len()],
            io_error: None,
        };
        sink.write_header(warmup);
        sink
    }

    /// [`JsonlSink::new_with_warmup`] under an older name, which
    /// `perfbench/` still calls.
    pub fn new_v2_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::new_with_warmup(writer, warmup)
    }

    /// [`JsonlSink::new_with_warmup`] under an older name, which
    /// `perfbench/` still calls.
    pub fn new_v3_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::new_with_warmup(writer, warmup)
    }

    /// [`JsonlSink::new_with_warmup`] under an older name, which
    /// `perfbench/` still calls.
    pub fn new_v4_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        JsonlSink::new_with_warmup(writer, warmup)
    }

    /// Writes the header line. The header is metadata, not an event: it
    /// does not count toward [`JsonlSink::records`].
    fn write_header(&mut self, warmup: SimDuration) {
        self.line.clear();
        self.line.extend_from_slice(b"{\"schema\":");
        json::push_u64(&mut self.line, JOURNAL_SCHEMA);
        self.line.extend_from_slice(b",\"kinds\":");
        json::push_u64(&mut self.line, EventKind::ALL.len() as u64);
        self.line.extend_from_slice(b",\"warmup_ms\":");
        json::push_u64(&mut self.line, warmup.as_millis());
        self.line.extend_from_slice(b"}\n");
        match self.out.write_all(&self.line) {
            Ok(()) => self.bytes += self.line.len() as u64,
            Err(e) => self.io_error = Some(e),
        }
    }

    /// Event lines successfully written so far (header excluded).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// How many events of `kind` were handed to this sink, written or
    /// dropped after an I/O error.
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
        self.counts[event.kind().index()] += 1;
        if self.io_error.is_some() {
            return;
        }
        self.line.clear();
        event.write_json(at, &mut self.line);
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
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
        let mut sink = JsonlSink::new_with_warmup(Box::new(buf), SimDuration::ZERO);
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            sink.record(SimTime::from_millis(i as u64), &event);
        }
        let n = sink.records();
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(n, crate::event::tests::samples().len() as u64);
        // The writer is boxed away; serialisation itself is validated in
        // the event module, and the end-to-end file path is covered by
        // the world-level tests.
    }

    #[test]
    fn jsonl_counts_and_writes_every_kind_it_is_handed() {
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
        sink.flush();
        assert!(sink.io_error().is_none());

        // Counts see everything, warm-up included, and so does the file.
        assert_eq!(sink.count_of(EventKind::MsgSend), 2);
        assert_eq!(sink.count_of(EventKind::QueryServed), 2);
        let total: u64 = EventKind::ALL.iter().map(|&k| sink.count_of(k)).sum();
        assert_eq!(total, 4);
        assert_eq!(sink.records(), 4);
    }

    #[test]
    fn jsonl_file_roundtrip_is_parseable() {
        let path =
            std::env::temp_dir().join(format!("mp2p-trace-sink-test-{}.jsonl", std::process::id()));
        {
            let file = std::fs::File::create(&path).expect("create jsonl");
            let mut sink = JsonlSink::new_with_warmup(Box::new(file), SimDuration::ZERO);
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
        assert_eq!(lines[0], "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}");
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
