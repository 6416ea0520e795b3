//! Offline journal reading: parse a JSONL trace back into typed events.
//!
//! A journal written by [`crate::JsonlSink`] starts with one header
//! object, `{"schema":4,"kinds":38,"warmup_ms":N}`, followed by one event
//! object per line. [`JournalReader`] streams it line-by-line — it never
//! buffers the whole file — checking the header up front and turning
//! each line back into a `(SimTime, TraceEvent)` pair. Give it a buffer
//! much wider than a line (`analyze_file` uses 1 MiB): the line that
//! straddles the buffer's end is copied out.
//!
//! **Every line is the writer's spelling.** The header is read as the
//! sink writes it and no other way. A body line is accepted iff it is
//! spelled exactly as [`TraceEvent::write_json`] spells it, ended by
//! `\n`, `\r\n` or the end of the input; so encoding what a line decodes
//! to gives the line back, and anything else — reordered, repeated or
//! unknown keys, whitespace, an escape, `1.0`, `007` — is a
//! [`ReadError::BadLine`]. One decoder, generated beside the encoder by
//! the record table of `crate::event`, walks the bytes in the encoder's
//! own order: `{"t":` digits, the kind's label, each field of the kind's
//! row under its literal key in its type's written form, `}`. The reader
//! runs it on the bytes `BufRead::fill_buf` shows and, when `\n` or
//! `\r\n` follows, `consume`s what it took: no copy of the line, no
//! UTF-8 pass (the walk matches ASCII only), no search for the newline.
//! Otherwise the line is copied out with `read_until` and the copy, its
//! line end stripped, must decode whole: that takes a line the buffer's
//! end cut in two, and the last line of a journal with no final newline.
//! This module names no record key and no kind.
//!
//! **What allocates.** Nothing, for any line the writer produces, at any
//! buffer size and with either line end: a cut line is copied into one
//! reused buffer and decoded there, and labels and numbers are read in
//! place.
//!
//! **What is rejected.** The reader speaks one schema,
//! [`JOURNAL_SCHEMA`]: a header naming any other number is a
//! [`ReadError::SchemaMismatch`] naming it, and a header spelled any
//! other way (a key missing or moved, whitespace, a `kinds` other than
//! the vocabulary's 38) is a [`ReadError::MissingHeader`]. A `u64` field
//! takes its whole range; fields
//! narrower than 64 bits are range-checked, never wrapped: node/item
//! ids, byte and item counts and `ages` entries must fit `u32`,
//! `hops`/`attempt`/`axis` must fit `u8`, so `"hops":300` is a bad line,
//! not 44 hops. A line of nothing but JSON's four whitespace bytes is
//! skipped wherever it stands; after a record's `}`, anything but the
//! line end makes a bad line.

use std::fmt;
use std::io::{self, BufRead};

use mp2p_sim::SimTime;

use crate::event::{self, EventKind, TraceEvent};
use crate::json::Cursor;
use crate::sink::JOURNAL_SCHEMA;

/// The journal's leading metadata record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Schema version: [`JOURNAL_SCHEMA`], the one this reader speaks.
    pub schema: u64,
    /// The run's warm-up period in milliseconds (censoring boundary).
    pub warmup_ms: u64,
}

/// Why reading a journal failed.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The journal is empty or its first line is not the header as the
    /// sink spells it.
    MissingHeader,
    /// The header's schema version is not the one this reader speaks.
    SchemaMismatch {
        /// The version found in the header.
        found: u64,
    },
    /// A line did not parse as a known event.
    BadLine {
        /// 1-based line number in the journal (the header is line 1).
        line_no: usize,
        /// The offending text (truncated for display).
        text: String,
    },
    /// A record parsed, but the consumer folding the journal refuses its
    /// timestamp: it holds state in proportion to the latest instant seen
    /// and bounds that instant (the reader itself has no such bound).
    BeyondHorizon {
        /// 1-based line number of the record.
        line_no: usize,
        /// The record's timestamp, in milliseconds.
        at_ms: u64,
        /// The latest timestamp the consumer accepts, in milliseconds.
        horizon_ms: u64,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "journal I/O error: {e}"),
            ReadError::MissingHeader => {
                write!(f, "journal line 1 is not a {{\"schema\":...}} header")
            }
            ReadError::SchemaMismatch { found } => write!(
                f,
                "journal schema {found} unsupported (reader speaks {JOURNAL_SCHEMA})"
            ),
            ReadError::BadLine { line_no, text } => {
                write!(f, "unparseable journal line {line_no}: {text}")
            }
            ReadError::BeyondHorizon {
                line_no,
                at_ms,
                horizon_ms,
            } => write!(
                f,
                "journal line {line_no}: t = {at_ms} ms is beyond the horizon of {horizon_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Streams `(SimTime, TraceEvent)` pairs out of a JSONL journal.
///
/// # Example
///
/// ```
/// use std::io::BufReader;
/// use mp2p_trace::reader::JournalReader;
///
/// let journal = "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}\n\
///                {\"t\":1500,\"ev\":\"node_down\",\"node\":3}\n";
/// let mut reader = JournalReader::new(BufReader::new(journal.as_bytes())).unwrap();
/// assert_eq!(reader.header().warmup_ms, 0);
/// let (at, event) = reader.next().unwrap().unwrap();
/// assert_eq!(at.as_millis(), 1500);
/// assert_eq!(event.kind().label(), "node_down");
/// ```
#[derive(Debug)]
pub struct JournalReader<R: BufRead> {
    input: R,
    header: JournalHeader,
    buf: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> JournalReader<R> {
    /// Opens a journal, consuming and validating its header line.
    ///
    /// Lines are read as raw bytes rather than through `read_line`, so a
    /// corrupt journal (truncated write, binary garbage) yields a
    /// line-accurate [`ReadError::BadLine`] instead of an anonymous I/O
    /// error.
    pub fn new(mut input: R) -> Result<Self, ReadError> {
        let mut buf = Vec::with_capacity(256);
        if input.read_until(b'\n', &mut buf)? == 0 {
            return Err(ReadError::MissingHeader);
        }
        let header = parse_header(without_line_end(&buf))?;
        Ok(JournalReader {
            input,
            header,
            buf,
            line_no: 1,
        })
    }

    /// The validated header.
    pub fn header(&self) -> JournalHeader {
        self.header
    }

    /// Lines consumed so far (header included).
    pub fn lines_read(&self) -> usize {
        self.line_no
    }
}

impl<R: BufRead> Iterator for JournalReader<R> {
    type Item = Result<(SimTime, TraceEvent), ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // A line the writer spelled is decoded where `fill_buf` shows
            // it. `read_until` below retries an interrupted read itself.
            match self.input.fill_buf() {
                Ok(bytes) => {
                    if let Some((at, event, rest)) = event::decode(bytes) {
                        let next_line = rest
                            .strip_prefix(b"\n")
                            .or_else(|| rest.strip_prefix(b"\r\n"));
                        if let Some(next_line) = next_line {
                            let len = bytes.len() - next_line.len();
                            self.input.consume(len);
                            self.line_no += 1;
                            return Some(Ok((at, event)));
                        }
                    }
                }
                Err(e) if e.kind() != io::ErrorKind::Interrupted => {
                    return Some(Err(ReadError::Io(e)));
                }
                Err(_) => {}
            }
            self.buf.clear();
            match self.input.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(ReadError::Io(e))),
            }
            self.line_no += 1;
            // A line the buffer's end cut in two, or a last line with no
            // line end.
            let line = without_line_end(&self.buf);
            if let Some((at, event, [])) = event::decode(line) {
                return Some(Ok((at, event)));
            }
            // Invalid UTF-8 is a corrupt line, not an I/O failure: report
            // it with its line number like any other unparseable line.
            let text = String::from_utf8_lossy(line);
            let text = trim_json_ws(&text);
            if text.is_empty() {
                continue; // a blank line, anywhere in the body, is skipped
            }
            return Some(Err(ReadError::BadLine {
                line_no: self.line_no,
                text: text.chars().take(160).collect(),
            }));
        }
    }
}

/// `line` without its `\n` or `\r\n`, as `read_until` returned it.
fn without_line_end(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r\n")
        .or_else(|| line.strip_suffix(b"\n"))
        .unwrap_or(line)
}

/// `line` without whatever of JSON's four whitespace bytes trails it.
/// Not `str::trim_end`: that strips Unicode `White_Space` (U+00A0,
/// U+000B, U+2028, …), which JSON does not count as whitespace.
fn trim_json_ws(line: &str) -> &str {
    line.trim_end_matches([' ', '\t', '\r', '\n'])
}

/// Reads the header line, without its line end, as the sink writes it:
/// `{"schema":4,"kinds":38,"warmup_ms":N}`. A schema number other than
/// [`JOURNAL_SCHEMA`] is a [`ReadError::SchemaMismatch`]; any other
/// spelling, a `kinds` other than the vocabulary's among them, is a
/// [`ReadError::MissingHeader`].
fn parse_header(line: &[u8]) -> Result<JournalHeader, ReadError> {
    let mut cur = Cursor { rest: line };
    let schema = cur
        .eat("{\"schema\":")
        .and_then(|()| cur.digits())
        .filter(|_| matches!(cur.rest.first(), Some(b',' | b'}')))
        .ok_or(ReadError::MissingHeader)?;
    if schema != JOURNAL_SCHEMA {
        return Err(ReadError::SchemaMismatch { found: schema });
    }
    let mut warmup_ms = || {
        cur.eat(",\"kinds\":")?;
        cur.digits().filter(|&n| n == EventKind::ALL.len() as u64)?;
        cur.eat(",\"warmup_ms\":")?;
        let warmup_ms = cur.digits()?;
        cur.eat("}")?;
        cur.rest.is_empty().then_some(warmup_ms)
    };
    let warmup_ms = warmup_ms().ok_or(ReadError::MissingHeader)?;
    Ok(JournalHeader { schema, warmup_ms })
}

/// Parses one event line, without its line end, back into the pair
/// `write_json` flattened, or `None` unless the line is spelled exactly
/// as `write_json` spells it.
pub fn parse_event(line: &str) -> Option<(SimTime, TraceEvent)> {
    match event::decode(line.as_bytes())? {
        (at, event, []) => Some((at, event)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::sink::{JsonlSink, TraceSink};
    use mp2p_sim::SimDuration;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::io::BufReader;

    /// The header the sink writes for a run with no warm-up.
    const HEADER: &str = "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}";

    #[test]
    fn serialise_then_parse_is_identity_on_every_variant() {
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            let at = SimTime::from_millis(17 * i as u64);
            let mut line = String::new();
            event.write_json(at, &mut line);
            let (back_at, back) = parse_event(&line).unwrap_or_else(|| {
                panic!("{:?} did not parse back: {line}", event.kind());
            });
            assert_eq!(back_at, at, "{line}");
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn reader_streams_a_sink_written_journal() {
        // The boxed writer swallows an in-memory buffer, so go through a
        // temp file and read the bytes back.
        let path = std::env::temp_dir().join(format!(
            "mp2p-trace-reader-test-{}.jsonl",
            std::process::id()
        ));
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut sink = JsonlSink::new_with_warmup(Box::new(file), SimDuration::from_secs(60));
            for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
                sink.record(SimTime::from_millis(i as u64 * 10), &event);
            }
            sink.flush();
            assert!(sink.io_error().is_none());
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut reader = JournalReader::new(BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(reader.header().schema, JOURNAL_SCHEMA);
        assert_eq!(reader.header().warmup_ms, 60_000);
        let events: Vec<_> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(events.len(), crate::event::tests::samples().len());
        for ((at, event), (i, expected)) in events
            .iter()
            .zip(crate::event::tests::samples().into_iter().enumerate())
        {
            assert_eq!(at.as_millis(), i as u64 * 10);
            assert_eq!(event, &expected);
        }
        assert_eq!(reader.lines_read(), events.len() + 1);
    }

    #[test]
    fn a_crlf_journal_reads_as_its_lf_original() {
        let mut lf = format!("{HEADER}\n");
        let samples = crate::event::tests::samples();
        for (i, event) in samples.iter().enumerate() {
            event.write_json(SimTime::from_millis(i as u64), &mut lf);
            lf.push('\n');
        }
        let crlf = lf.replace('\n', "\r\n");
        let read = |journal: &str| {
            let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
            let events: Vec<_> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
            (events, reader.lines_read())
        };
        let (events, lines) = read(&lf);
        assert_eq!(read(&crlf), (events.clone(), lines));
        let in_order: Vec<_> = events.into_iter().map(|(_, event)| event).collect();
        assert_eq!(in_order, samples);
    }

    #[test]
    fn missing_or_wrong_header_is_rejected() {
        let empty = JournalReader::new(BufReader::new(&b""[..]));
        assert!(matches!(empty, Err(ReadError::MissingHeader)));

        let no_header = "{\"t\":0,\"ev\":\"node_up\",\"node\":0}\n";
        let r = JournalReader::new(BufReader::new(no_header.as_bytes()));
        assert!(matches!(r, Err(ReadError::MissingHeader)));

        // Every schema but the one the sink writes is refused by number,
        // the headers earlier builds wrote among them.
        for (header, found) in [
            ("{\"schema\":1,\"kinds\":27,\"warmup_ms\":0}", 1),
            ("{\"schema\":2,\"kinds\":29,\"warmup_ms\":0}", 2),
            ("{\"schema\":3,\"kinds\":34,\"warmup_ms\":0}", 3),
            ("{\"schema\":99}", 99),
            ("{\"schema\":0}", 0),
        ] {
            let r = JournalReader::new(header.as_bytes());
            assert!(
                matches!(r, Err(ReadError::SchemaMismatch { found: f }) if f == found),
                "{header}"
            );
        }

        // Any other spelling is not a header. A mistyped warm-up is not
        // read as 0: a warm-up of 0 censors nothing.
        for other in [
            "{\"schema\":4,\"kinds\":38,\"warmup_ms\":\"60000\"}",
            "{\"schema\":4,\"kinds\":38,\"warmup_ms\":-1}",
            "{\"schema\":4,\"kinds\":38,\"warmup_ms\":1.5}",
            "{\"schema\":4,\"kinds\":null,\"warmup_ms\":0}",
            "{\"schema\":4,\"kinds\":27,\"warmup_ms\":0}",
            "{\"schema\":4,\"kinds\":38}",
            "{\"schema\":4}",
            "{\"schema\":4,\"warmup_ms\":0,\"kinds\":38}",
            "{\"kinds\":38,\"schema\":4,\"warmup_ms\":0}",
            "{\"schema\":4, \"kinds\":38,\"warmup_ms\":0}",
            "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0,\"x\":1}",
            "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}}",
            "{\"schema\":4.0,\"kinds\":38,\"warmup_ms\":0}",
            "{\"schema\":1e0,\"kinds\":38,\"warmup_ms\":0}",
            "{\"schema\":04,\"kinds\":38,\"warmup_ms\":0}",
            "{\"schema\":\"4\",\"kinds\":38,\"warmup_ms\":0}",
        ] {
            let line = format!("{other}\n");
            let r = JournalReader::new(line.as_bytes());
            assert!(matches!(r, Err(ReadError::MissingHeader)), "{other}");
        }

        // The writer's spelling, ended by \n, \r\n or the input's end.
        for ending in ["\n", "\r\n", ""] {
            let header = format!("{{\"schema\":4,\"kinds\":38,\"warmup_ms\":60000}}{ending}");
            let reader = JournalReader::new(header.as_bytes()).unwrap();
            assert_eq!(
                reader.header(),
                JournalHeader {
                    schema: 4,
                    warmup_ms: 60_000
                }
            );
        }
    }

    #[test]
    fn bad_lines_carry_their_line_number() {
        let journal = format!("{HEADER}\n{{\"t\":0,\"ev\":\"node_up\",\"node\":0}}\nnot json\n");
        let mut reader = JournalReader::new(BufReader::new(journal.as_bytes())).unwrap();
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(ReadError::BadLine { line_no, text }) => {
                assert_eq!(line_no, 3);
                assert_eq!(text, "not json");
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn only_json_whitespace_may_trail_a_line() {
        // A line of nothing but JSON's four whitespace bytes is blank and
        // skipped wherever it stands in the body.
        let record = "{\"t\":0,\"ev\":\"node_up\",\"node\":0}";
        let journal = format!("{HEADER}\r\n{record}\r\n \t\r\n\n{record}\n");
        let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
        let items: Vec<_> = reader.by_ref().collect();
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(Result::is_ok), "{items:?}");
        assert_eq!(reader.lines_read(), 5);

        // After a record's `}` comes the line end and nothing else, not
        // even JSON whitespace. What `str::trim_end` also strips is not
        // even blank: a line of it alone is bad as well.
        for tail in [
            " ", "\t", " \t", "}", "\u{a0}", "\u{b}", "\u{c}", "\u{2028}", "\u{3000}",
        ] {
            let line = format!("{record}{tail}");
            assert!(parse_event(&line).is_none(), "{tail:?}");
            let journal = format!("{HEADER}\n{record}\n{line}\n{line}\r\n{tail}\n");
            let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
            assert!(reader.next().unwrap().is_ok());
            let blank = tail.trim_matches([' ', '\t']).is_empty();
            let bad_lines: &[usize] = if blank { &[3, 4] } else { &[3, 4, 5] };
            for &bad in bad_lines {
                match reader.next().unwrap() {
                    Err(ReadError::BadLine { line_no, text }) => {
                        assert_eq!(line_no, bad, "{tail:?}");
                        assert!(text.ends_with(tail.trim_end_matches([' ', '\t'])));
                    }
                    other => panic!("{tail:?} after a record: {other:?}"),
                }
            }
            assert!(reader.next().is_none());
            assert_eq!(reader.lines_read(), 5);

            // Nor after the header's.
            let header = format!("{HEADER}{tail}\n{record}\n");
            let refused = JournalReader::new(header.as_bytes());
            assert!(matches!(refused, Err(ReadError::MissingHeader)), "{tail:?}");
        }
    }

    #[test]
    fn nested_brackets_are_a_bad_line_not_a_stack_overflow() {
        let deep = format!("{{\"t\":{}", "[".repeat(1_000_000));
        let journal = format!("{HEADER}\n{{\"t\":0,\"ev\":\"node_up\",\"node\":0}}\n{deep}\n");
        let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(ReadError::BadLine { line_no, .. }) => assert_eq!(line_no, 3),
            other => panic!("expected BadLine, got {other:?}"),
        }
        assert!(reader.next().is_none());

        let header = format!("{}\n", "[".repeat(1_000_000));
        let refused = JournalReader::new(header.as_bytes());
        assert!(matches!(refused, Err(ReadError::MissingHeader)));
    }

    #[test]
    fn unknown_event_labels_are_bad_lines() {
        assert!(parse_event("{\"t\":0,\"ev\":\"martian\",\"node\":0}").is_none());
        // A span tag that is present but non-numeric must not silently
        // become None.
        assert!(parse_event(
            "{\"t\":0,\"ev\":\"msg_send\",\"node\":0,\"class\":\"POLL\",\"bytes\":4,\"dest\":null,\"span\":\"x\"}"
        )
        .is_none());
    }

    /// The largest value each numeric key's field type holds; keys not
    /// listed are `u64`.
    fn field_limit(key: &str) -> u64 {
        match key {
            "hops" | "attempt" | "axis" => u64::from(u8::MAX),
            "node" | "origin" | "dest" | "next_hop" | "item" | "peer" | "from" | "to" | "bytes"
            | "dropped" | "items" | "stale" | "fresh" | "copies" | "max_replicas"
            | "partitions" | "relay_nodes" | "ages" => u64::from(u32::MAX),
            _ => u64::MAX,
        }
    }

    /// `line` with the number after `"key":` (or after `"ages":[`)
    /// replaced by `value`.
    fn with_number(line: &str, key: &str, value: &str) -> String {
        let tag = if key == "ages" {
            "\"ages\":[".to_string()
        } else {
            format!("\"{key}\":")
        };
        let start = line.find(&tag).expect("key present") + tag.len();
        let len = line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a delimiter follows every number");
        format!("{}{value}{}", &line[..start], &line[start + len..])
    }

    #[test]
    fn out_of_range_fields_are_bad_lines_not_wrapped_values() {
        // Every (kind, key) whose field is narrower than u64, through
        // each distinct narrowing site of the decoder.
        let mut checked = std::collections::BTreeSet::new();
        for event in crate::event::tests::samples() {
            let mut line = String::new();
            event.write_json(SimTime::from_millis(5), &mut line);
            let json::Value::Obj(pairs) = json::parse(&line).unwrap() else {
                panic!("not an object: {line}");
            };
            for (key, value) in &pairs {
                let limit = field_limit(key);
                let numeric = value.as_u64().is_some() || key == "ages";
                if !numeric || limit == u64::MAX {
                    continue;
                }
                let at_limit = with_number(&line, key, &limit.to_string());
                let (_, back) = parse_event(&at_limit)
                    .unwrap_or_else(|| panic!("{key} = {limit} must fit: {at_limit}"));
                let mut reencoded = String::new();
                back.write_json(SimTime::from_millis(5), &mut reencoded);
                assert_eq!(reencoded, at_limit, "{key} at its limit is kept exactly");

                let over = with_number(&line, key, &(limit + 1).to_string());
                assert!(
                    parse_event(&over).is_none(),
                    "{key} = {} must be rejected, not wrapped: {over}",
                    limit + 1
                );
                checked.insert((event.kind().label(), key.clone()));
            }
        }
        for site in [
            ("frame_hop", "hops"),
            ("copy_lineage", "hops"),
            ("msg_deliver", "hops"),
            ("discovery_start", "attempt"),
            ("query_phase", "attempt"),
            ("retransmit", "attempt"),
            ("partition_start", "axis"),
            ("partition_heal", "axis"),
            ("msg_send", "node"),
            ("msg_send", "bytes"),
            ("msg_send", "dest"),
            ("frame_born", "dest"),
            ("frame_born", "item"),
            ("discovery_failed", "dropped"),
            ("resync_start", "items"),
            ("resync_done", "stale"),
            ("consistency", "fresh"),
            ("consistency", "copies"),
            ("consistency", "items"),
            ("consistency", "max_replicas"),
            ("consistency", "partitions"),
            ("consistency", "relay_nodes"),
            ("consistency", "ages"),
            ("relay_handover", "from"),
            ("relay_handover", "to"),
            ("recovery_ack", "peer"),
            ("mac_drop", "next_hop"),
            ("frame_fate", "origin"),
        ] {
            assert!(
                checked.contains(&(site.0, site.1.to_string())),
                "{site:?} not exercised"
            );
        }

        // The reader reports the line, as for any other bad line.
        let journal = format!(
            "{HEADER}\n\
             {{\"t\":1,\"ev\":\"node_up\",\"node\":1}}\n\
             {{\"t\":2,\"ev\":\"frame_hop\",\"node\":1,\"origin\":2,\"frame\":3,\"hops\":300}}\n"
        );
        let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(ReadError::BadLine { line_no, .. }) => assert_eq!(line_no, 3),
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn every_u64_field_reads_back_exactly_past_53_bits() {
        // An `f64` holds 2^53 + 1 as 2^53; the journal's numbers are u64s.
        let u64_keys = [
            "t",
            "query",
            "seq",
            "frame",
            "version",
            "staleness_ms",
            "lag",
            "issued",
            "span",
        ];
        let read = |line: &str, capacity: usize| {
            let journal = format!("{HEADER}\n{line}\n");
            let input = BufReader::with_capacity(capacity, journal.as_bytes());
            JournalReader::new(input).unwrap().next().unwrap()
        };
        let mut checked = std::collections::BTreeSet::new();
        for event in crate::event::tests::samples() {
            let mut line = String::new();
            event.write_json(SimTime::from_millis(5), &mut line);
            for key in u64_keys {
                if !line.contains(&format!("\"{key}\":")) {
                    continue;
                }
                checked.insert(key);
                for value in [(1 << 53) + 1, u64::MAX] {
                    let wide = with_number(&line, key, &value.to_string());
                    let (at, back) = parse_event(&wide)
                        .unwrap_or_else(|| panic!("{key} = {value} refused: {wide}"));
                    let mut reencoded = String::new();
                    back.write_json(at, &mut reencoded);
                    assert_eq!(reencoded, wide, "{key} = {value} not read exactly");
                    for capacity in [7, 64] {
                        let (at, back) = read(&wide, capacity)
                            .unwrap_or_else(|e| panic!("{key} = {value}, buffer {capacity}: {e}"));
                        reencoded.clear();
                        back.write_json(at, &mut reencoded);
                        assert_eq!(reencoded, wide, "{key} = {value}, buffer {capacity}");
                    }
                }
                // Twenty-one digits are past any u64.
                let over = with_number(&line, key, &format!("{}0", u64::MAX));
                assert_eq!(parse_event(&over), None, "{over}");
                for capacity in [7, 64] {
                    match read(&over, capacity) {
                        Err(ReadError::BadLine { line_no: 2, .. }) => {}
                        other => panic!("{over}, buffer {capacity}: {other:?}"),
                    }
                }
            }
        }
        assert_eq!(checked.len(), u64_keys.len(), "{checked:?}");
    }

    /// One serialised sample event with its numbers respelled (long
    /// digit runs, fractions, exponents, signs) and, half the time, one
    /// byte overwritten.
    struct RespelledLine;

    impl Strategy for RespelledLine {
        type Value = String;

        fn pick(&self, rng: &mut TestRng) -> Self::Value {
            let samples = crate::event::tests::samples();
            let event = &samples[rng.below(samples.len() as u64) as usize];
            let mut line = String::new();
            event.write_json(SimTime::from_millis(rng.below(1 << 40)), &mut line);

            let mut respelled = String::new();
            let mut rest = line.as_str();
            while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
                let len = rest[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len() - start);
                respelled.push_str(&rest[..start]);
                let number = &rest[start..start + len];
                match rng.below(12) {
                    0 => (0..=rng.below(20))
                        .for_each(|_| respelled.push(char::from(b'0' + rng.below(10) as u8))),
                    1 => respelled.push_str(&format!("{number}.0")),
                    2 => respelled.push_str(&format!("{number}e0")),
                    3 => respelled.push_str(&format!("{number}.5")),
                    4 => respelled.push_str(&format!("-{number}")),
                    5 => respelled.push_str(&format!("00{number}")),
                    6 => respelled.push_str(&(1u64 << rng.below(64)).to_string()),
                    _ => respelled.push_str(number),
                }
                rest = &rest[start + len..];
            }
            respelled.push_str(rest);

            if rng.below(2) == 0 {
                return respelled;
            }
            let mut bytes = respelled.into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            let grammar = b"\"\\{}[],:.-+eE09tfnu _a\n";
            bytes[at] = grammar[rng.below(grammar.len() as u64) as usize];
            String::from_utf8(bytes).expect("ASCII in, ASCII out")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        /// The journal body is a canonical format: a line is read only if
        /// it is the writer's own spelling of what it is read as.
        #[test]
        fn prop_a_decoded_line_encodes_to_itself(line in RespelledLine) {
            if let Some((at, event)) = parse_event(&line) {
                let mut reencoded = String::new();
                event.write_json(at, &mut reencoded);
                prop_assert_eq!(reencoded, line);
            }
        }
    }

    /// `line`, given its newline, through the reader's in-place arm: the
    /// record, and the newline left after it.
    fn as_written(line: &str) -> Option<(SimTime, TraceEvent)> {
        let terminated = format!("{line}\n");
        let (at, event, rest) = event::decode(terminated.as_bytes())?;
        assert_eq!(rest, b"\n", "the record ends where the line does");
        Some((at, event))
    }

    #[test]
    fn every_written_shape_takes_the_as_written_arm() {
        // Through the arm itself, not the reader: the in-place arm and the
        // whole-line form must agree on where a record ends.
        let mut lines: Vec<String> = include_str!("../tests/golden/vocabulary.jsonl")
            .lines()
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 96, "every shape and label of the vocabulary");
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            // Stamps of every width, from the twenty digits of u64::MAX down.
            let at = SimTime::from_millis(u64::MAX / 10u64.pow(i as u32 % 20));
            let mut line = String::new();
            event.write_json(at, &mut line);
            lines.push(line);
        }
        for line in &lines {
            let general = parse_event(line);
            assert!(general.is_some(), "not a record: {line}");
            assert_eq!(as_written(line), general, "{line}");
        }
    }

    #[test]
    fn any_other_spelling_is_a_bad_line() {
        let written = "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}";
        assert!(parse_event(written).is_some() && as_written(written) == parse_event(written));
        let respellings = [
            // Reordered, repeated and unknown keys.
            "{\"ev\":\"msg_send\",\"t\":7,\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"dest\":null,\"bytes\":48,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7,\"span\":8}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7,\"x\":[]}",
            "{\"t\":7,\"ev\":\"msg_send\",\"x\":0,\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            // Whitespace, an escape, other number spellings.
            "{\"t\":7, \"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            " {\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7} ",
            "{\"t\":7,\"ev\":\"msg\\u005fsend\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"no\\u0064e\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            "{\"t\":7.0,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1e0,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":4.8e1,\"dest\":null,\"span\":7}",
            "{\"t\":7,\"ev\":\"msg_send\",\"node\":1,\"class\":\"POLL\",\"bytes\":48,\"dest\":null,\"span\":0000000000000007}",
        ];
        let mut journal = format!("{HEADER}\n{written}\n");
        for respelled in respellings {
            assert_eq!(parse_event(respelled), None, "{respelled}");
            journal.push_str(respelled);
            journal.push('\n');
        }
        let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_ok());
        for (respelled, line) in respellings.iter().zip(3..) {
            match reader.next().unwrap() {
                Err(ReadError::BadLine { line_no, text }) => {
                    assert_eq!(line_no, line, "{respelled}");
                    assert_eq!(text, trim_json_ws(respelled));
                }
                other => panic!("{respelled} read as {other:?}"),
            }
        }
        assert!(reader.next().is_none());

        // Sixteen digits are a number like any other, read exactly.
        let long = "{\"t\":1000000000000001,\"ev\":\"node_up\",\"node\":1}";
        let (at, event) = parse_event(long).expect("sixteen digits");
        assert_eq!(at.as_millis(), 1_000_000_000_000_001);
        let mut reencoded = String::new();
        event.write_json(at, &mut reencoded);
        assert_eq!(reencoded, long);
    }

    /// A `BufRead` that shows at most `chunk` bytes at a time and fails
    /// once, with a non-retryable error, when it reaches `fail_at`.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        fail_at: Option<usize>,
    }

    impl io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let shown = self.fill_buf()?;
            let n = shown.len().min(out.len());
            out[..n].copy_from_slice(&shown[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Chunked<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.fail_at.is_some_and(|at| self.pos >= at) {
                self.fail_at = None;
                return Err(io::Error::other("injected"));
            }
            // Chunk boundaries sit at multiples of `chunk`, so a line
            // straddles one wherever it happens to lie.
            let end = (self.pos / self.chunk + 1) * self.chunk;
            Ok(&self.data[self.pos..end.min(self.data.len())])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    /// What a reader yielded, in a form that compares: `ReadError` holds
    /// an `io::Error`.
    fn shown(item: Result<(SimTime, TraceEvent), ReadError>) -> String {
        format!("{item:?}")
    }

    /// The reader by its definition, with nothing decoded in place: every
    /// line copied out and its line end stripped; a blank line skipped,
    /// any other read by `parse_event` or refused by number.
    fn general_read(mut input: impl BufRead) -> (Vec<String>, usize) {
        let (mut items, mut buf, mut line_no) = (Vec::new(), Vec::new(), 1);
        loop {
            buf.clear();
            match input.read_until(b'\n', &mut buf) {
                Ok(0) => return (items, line_no),
                Ok(_) => {}
                Err(e) => {
                    items.push(shown(Err(ReadError::Io(e))));
                    continue;
                }
            }
            line_no += 1;
            let line = match buf.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => &buf,
            };
            let lossy = String::from_utf8_lossy(line);
            let text = trim_json_ws(&lossy);
            if text.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line).ok().and_then(parse_event);
            items.push(shown(parsed.ok_or_else(|| ReadError::BadLine {
                line_no,
                text: text.chars().take(160).collect(),
            })));
        }
    }

    /// Journal bodies as they reach a reader in the field: mostly the
    /// writer's own lines, some respelled or corrupted, some blank, with
    /// either line ending, stray bytes, and a cut anywhere.
    struct MessyJournal;

    impl Strategy for MessyJournal {
        /// The bytes, header included.
        type Value = Vec<u8>;

        fn pick(&self, rng: &mut TestRng) -> Self::Value {
            let mut bytes = format!("{HEADER}\n").into_bytes();
            let samples = crate::event::tests::samples();
            for _ in 0..rng.below(24) {
                match rng.below(10) {
                    0 => bytes.extend(RespelledLine.pick(rng).into_bytes()),
                    1 => {}
                    2 => bytes.extend((0..rng.below(6)).map(|_| rng.below(256) as u8)),
                    _ => {
                        let mut line = String::new();
                        let event = &samples[rng.below(samples.len() as u64) as usize];
                        event.write_json(SimTime::from_millis(rng.below(1 << 50)), &mut line);
                        bytes.extend(line.into_bytes());
                    }
                }
                let endings: [&[u8]; 6] = [b"\n", b"\n", b"\n", b"\r\n", b" \n", b"\xc2\xa0\n"];
                bytes.extend(endings[rng.below(6) as usize]);
            }
            let header = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
            match rng.below(4) {
                // No final newline, or a cut anywhere after the header.
                0 if bytes.len() > header => drop(bytes.pop()),
                1 => bytes.truncate(header + rng.below((bytes.len() - header + 1) as u64) as usize),
                _ => {}
            }
            bytes
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_500))]

        /// However the journal is cut into buffers, the reader yields
        /// `general_read`'s items, line numbers and texts: in place where a
        /// whole written line is in view, copied out where it is not.
        #[test]
        fn prop_reader_yields_the_general_paths_items_however_it_is_buffered(
            bytes in MessyJournal,
            fail in any::<u64>(),
        ) {
            let header = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
            let (want, want_lines) = general_read(&bytes[header..]);

            let mut whole = JournalReader::new(&bytes[..]).unwrap();
            let got: Vec<String> = whole.by_ref().map(shown).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(whole.lines_read(), want_lines);

            for chunk in [1, 7, 64, bytes.len()] {
                let mut buffered =
                    JournalReader::new(BufReader::with_capacity(chunk, &bytes[..])).unwrap();
                let got: Vec<String> = buffered.by_ref().map(shown).collect();
                prop_assert_eq!(&got, &want, "BufReader of {}", chunk);
                prop_assert_eq!(buffered.lines_read(), want_lines);

                // With one failed read somewhere in the body: the same
                // bytes are lost to it on both paths.
                let fail_at = Some(header + (fail % (bytes.len() - header + 1) as u64) as usize);
                let chunked = |pos| Chunked { data: &bytes, pos, chunk, fail_at };
                let (want, want_lines) = general_read(chunked(header));
                let mut failing = JournalReader::new(chunked(0)).unwrap();
                let got: Vec<String> = failing.by_ref().map(shown).collect();
                prop_assert_eq!(&got, &want, "chunks of {}, failing at {:?}", chunk, fail_at);
                prop_assert_eq!(failing.lines_read(), want_lines);
            }
        }
    }

    #[test]
    fn a_journal_read_in_place_never_touches_the_line_buffer() {
        let header = format!("{HEADER}\n");
        let mut journal = header.clone();
        let samples = crate::event::tests::samples();
        for (i, event) in samples.iter().enumerate() {
            event.write_json(SimTime::from_millis(i as u64), &mut journal);
            journal.push('\n');
        }
        let mut reader = JournalReader::new(journal.as_bytes()).unwrap();
        let capacity = reader.buf.capacity();
        for expected in &samples {
            assert_eq!(reader.next().unwrap().unwrap().1, *expected);
        }
        // The copying path clears the buffer before every line; it still
        // holds the header, at the capacity the header gave it.
        assert_eq!(reader.buf, header.as_bytes());
        assert_eq!(reader.buf.capacity(), capacity);
        assert!(reader.next().is_none());
    }
}
