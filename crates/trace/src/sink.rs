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
use std::io::{self, Write};

use mp2p_sim::{SimDuration, SimTime};

use crate::event::{EventKind, TraceEvent};
use crate::json;

/// A destination for flight-recorder events.
///
/// Implementations must be cheap per [`TraceSink::record`] call: the
/// simulation can emit an event per MAC transmission.
pub trait TraceSink {
    /// Whether the producer should emit at all, asked once when the sink
    /// is installed, so it must not change; [`NullSink`] returns `false`,
    /// so a disabled recorder costs one boolean test per emission site.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event stamped with simulated time `at`.
    fn record(&mut self, at: SimTime, event: &TraceEvent);

    /// Flushes any buffered output (called once at end of run).
    fn flush(&mut self) {}

    /// Bytes this sink has serialised (journal output). In-memory sinks
    /// report 0. Used by the perf observatory's allocation counters.
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

/// Bytes the sink gathers before one `write_all` to its writer.
const BATCH: usize = 64 * 1024;

/// Room the batch keeps free: over the widest record (numbers at 20
/// digits, labels at their longest, a label block's tail), so it never grows.
const WIDEST_RECORD: usize = 1024;

/// Streams events as JSON Lines to a writer: one header object,
/// `{"schema":4,"kinds":38,"warmup_ms":N}`, followed by one object per
/// event it is handed.
///
/// The sink buffers for itself: it encodes each line straight into one
/// 64 KiB batch and hands that to the writer when it is nearly full, on
/// [`TraceSink::flush`] and on drop. Box a `File` as it is: a `BufWriter`
/// would copy every line once more.
///
/// Serialisation is hand-rolled via [`crate::json`] — the build
/// environment has no crates.io access, so there is no serde. On an I/O
/// error the sink stops writing and remembers the failure instead of
/// panicking mid-simulation; check [`JsonlSink::io_error`] after the run.
/// The writer then holds a prefix of the journal.
pub struct JsonlSink {
    out: Box<dyn Write>,
    batch: Vec<u8>,
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
            out: writer,
            batch: Vec::with_capacity(BATCH),
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
        let line = &mut self.batch;
        line.extend_from_slice(b"{\"schema\":");
        json::push_u64(line, JOURNAL_SCHEMA);
        line.extend_from_slice(b",\"kinds\":");
        json::push_u64(line, EventKind::ALL.len() as u64);
        line.extend_from_slice(b",\"warmup_ms\":");
        json::push_u64(line, warmup.as_millis());
        line.extend_from_slice(b"}\n");
        self.bytes = line.len() as u64;
    }

    /// Hands the batch to the writer and empties it. After an error the
    /// writer keeps what it took, and gets nothing more.
    fn drain(&mut self) {
        if self.io_error.is_none() {
            self.io_error = self.out.write_all(&self.batch).err();
        }
        self.batch.clear();
    }

    /// Event lines encoded into the sink so far (header excluded): up to
    /// the first I/O error, whether or not the writer took them.
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

    /// Journal bytes encoded into the sink so far (header included), as
    /// [`JsonlSink::records`] counts lines: not what the writer took.
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
        if self.batch.capacity() - self.batch.len() < WIDEST_RECORD {
            self.drain();
        }
        let start = self.batch.len();
        event.write_json(at, &mut self.batch);
        self.batch.push(b'\n');
        self.records += 1;
        self.bytes += (self.batch.len() - start) as u64;
    }

    fn flush(&mut self) {
        self.drain();
        if self.io_error.is_none() {
            self.io_error = self.out.flush().err();
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

/// Delivers what the batch holds, as a `BufWriter` would.
impl Drop for JsonlSink {
    fn drop(&mut self) {
        TraceSink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LevelTag, ServedBy};
    use crate::json;
    use mp2p_metrics::MessageClass;
    use mp2p_sim::NodeId;
    use std::cell::RefCell;
    use std::rc::Rc;

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

    /// A writer that keeps what it accepts where the test can see it,
    /// and fails once when `room` bytes have been taken. It takes bytes
    /// again after that, so a sink that wrote on past the error would
    /// leave a gap in the journal.
    struct Budget {
        accepted: Rc<RefCell<Vec<u8>>>,
        room: usize,
    }

    impl Write for Budget {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                self.room = usize::MAX;
                return Err(io::Error::other("writer full"));
            }
            let n = buf.len().min(self.room);
            self.accepted.borrow_mut().extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A sink over a [`Budget`] of `room` bytes, and what it accepted.
    fn budgeted(room: usize) -> (JsonlSink, Rc<RefCell<Vec<u8>>>) {
        let accepted = Rc::new(RefCell::new(Vec::new()));
        let writer = Budget {
            accepted: Rc::clone(&accepted),
            room,
        };
        let sink = JsonlSink::new_with_warmup(Box::new(writer), SimDuration::ZERO);
        (sink, accepted)
    }

    /// Every sample, `rounds` times over: about 90 bytes a line.
    fn record_samples(sink: &mut JsonlSink, rounds: u64) {
        let samples = crate::event::tests::samples();
        for round in 0..rounds {
            for (i, event) in samples.iter().enumerate() {
                sink.record(SimTime::from_millis(round * 1_000 + i as u64), event);
            }
        }
    }

    #[test]
    fn a_failing_writer_gets_a_prefix_and_every_record_is_counted() {
        const ROUNDS: u64 = 60;
        let (mut whole, journal) = budgeted(usize::MAX);
        record_samples(&mut whole, ROUNDS);
        whole.flush();
        assert!(whole.io_error().is_none());
        let journal = journal.borrow().clone();
        assert!(journal.len() > 150_000, "the journal spans several batches");

        for room in [0, 1, 37, 8_191, 8_192, 65_536, 100_000, journal.len() - 1] {
            let (mut sink, accepted) = budgeted(room);
            record_samples(&mut sink, ROUNDS);
            sink.flush();
            assert!(sink.io_error().is_some(), "room {room}");
            let accepted = accepted.borrow();
            assert_eq!(accepted.len(), room, "room {room}");
            assert_eq!(accepted[..], journal[..room], "room {room}");
            for kind in EventKind::ALL {
                assert_eq!(sink.count_of(kind), whole.count_of(kind), "room {room}");
            }
        }
    }

    #[test]
    fn the_batch_keeps_room_for_the_widest_record() {
        // Every shape, each number widened by 20 digits and each quoted
        // string by the longest label, over-counts the widest line.
        let golden = include_str!("../tests/golden/vocabulary.jsonl");
        for line in golden.lines() {
            let numbers = line
                .split(|c: char| !c.is_ascii_digit())
                .filter(|run| !run.is_empty())
                .count();
            let strings = line.matches('"').count() / 2;
            let bound = line.len() + 1 + 20 * numbers + 19 * strings + crate::codec::LABEL_BLOCK;
            assert!(bound < WIDEST_RECORD, "{bound}: {line}");
        }
    }

    #[test]
    fn a_sink_dropped_without_flush_delivers_every_line() {
        let (mut whole, journal) = budgeted(usize::MAX);
        record_samples(&mut whole, 60);
        whole.flush();
        let (mut dropped, accepted) = budgeted(usize::MAX);
        record_samples(&mut dropped, 60);
        drop(dropped);
        assert_eq!(*accepted.borrow(), *journal.borrow());
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
