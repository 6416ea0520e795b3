//! Fuzz-style hardening tests for [`mp2p_trace::reader::JournalReader`]:
//! truncated journals, byte-level corruption, invalid UTF-8 and wrong
//! schema headers must all surface as line-accurate `Err`s — the reader
//! must never panic, whatever bytes it is fed.
//!
//! The journal lines are hand-built from the writer's documented shapes
//! (the serialise-then-parse identity itself is covered by the reader's
//! unit tests against `TraceEvent::write_json`).

use std::io::BufReader;

use mp2p_trace::reader::{JournalReader, ReadError};
use proptest::prelude::*;

/// The header the sink writes, with a warm-up of one minute.
const HEADER: &str = "{\"schema\":4,\"kinds\":38,\"warmup_ms\":60000}";

/// One well-formed event line, drawn from a handful of real shapes.
fn valid_line() -> impl Strategy<Value = String> {
    let t = 0u64..500_000;
    let node = 0u64..64;
    prop_oneof![
        (t.clone(), node.clone())
            .prop_map(|(t, n)| format!("{{\"t\":{t},\"ev\":\"node_up\",\"node\":{n}}}")),
        (t.clone(), node.clone())
            .prop_map(|(t, n)| format!("{{\"t\":{t},\"ev\":\"node_down\",\"node\":{n}}}")),
        (t.clone(), node.clone(), 1u64..99).prop_map(|(t, n, v)| format!(
            "{{\"t\":{t},\"ev\":\"source_update\",\"node\":{n},\"item\":{n},\"version\":{v}}}"
        )),
        (t.clone(), node.clone(), 0u64..64).prop_map(|(t, n, o)| format!(
            "{{\"t\":{t},\"ev\":\"flood_dup_drop\",\"node\":{n},\"origin\":{o}}}"
        )),
        (t, node, 1u64..2048).prop_map(|(t, n, b)| format!(
            "{{\"t\":{t},\"ev\":\"msg_send\",\"node\":{n},\"class\":\"POLL\",\"bytes\":{b},\"dest\":null}}"
        )),
    ]
}

/// One well-formed recovery-layer event line.
fn recovery_line() -> impl Strategy<Value = String> {
    let t = 0u64..500_000;
    let node = 0u64..64;
    prop_oneof![
        (t.clone(), node.clone(), 0u32..200).prop_map(|(t, n, i)| format!(
            "{{\"t\":{t},\"ev\":\"resync_start\",\"node\":{n},\"items\":{i}}}"
        )),
        (t.clone(), node.clone(), 0u32..50).prop_map(|(t, n, s)| format!(
            "{{\"t\":{t},\"ev\":\"resync_done\",\"node\":{n},\"stale\":{s}}}"
        )),
        (t.clone(), node.clone(), 0u64..64, 1u64..999, 1u8..5).prop_map(|(t, n, d, s, a)| format!(
            "{{\"t\":{t},\"ev\":\"retransmit\",\"node\":{n},\"dest\":{d},\
                 \"item\":{n},\"seq\":{s},\"attempt\":{a}}}"
        )),
        (t.clone(), node.clone(), 0u64..64, 1u64..999).prop_map(|(t, n, p, s)| format!(
            "{{\"t\":{t},\"ev\":\"recovery_ack\",\"node\":{n},\"peer\":{p},\"item\":{n},\
             \"seq\":{s}}}"
        )),
        (t, node.clone(), node).prop_map(|(t, f, o)| format!(
            "{{\"t\":{t},\"ev\":\"relay_handover\",\"from\":{f},\"to\":{o},\"item\":{f}}}"
        )),
    ]
}

/// One well-formed provenance event line, fate labels drawn from the
/// real [`mp2p_trace::FrameFateKind`] set.
fn provenance_line() -> impl Strategy<Value = String> {
    let t = 0u64..500_000;
    let node = 0u64..64;
    let fate = (0usize..mp2p_trace::FrameFateKind::ALL.len())
        .prop_map(|i| mp2p_trace::FrameFateKind::ALL[i].label());
    prop_oneof![
        // A propagation frame (carries item + version)...
        (t.clone(), node.clone(), 0u64..9999, 1u64..99).prop_map(|(t, n, f, v)| format!(
            "{{\"t\":{t},\"ev\":\"frame_born\",\"node\":{n},\"frame\":{f},\
             \"class\":\"INVALIDATION\",\"dest\":null,\"item\":{n},\"version\":{v}}}"
        )),
        // ...and a plain one (no item fields, unicast dest).
        (t.clone(), node.clone(), 0u64..9999, 0u64..64).prop_map(|(t, n, f, d)| format!(
            "{{\"t\":{t},\"ev\":\"frame_born\",\"node\":{n},\"frame\":{f},\
             \"class\":\"POLL\",\"dest\":{d}}}"
        )),
        (t.clone(), node.clone(), 0u64..64, 0u64..9999, 1u8..10).prop_map(
            |(t, n, o, f, h)| format!(
                "{{\"t\":{t},\"ev\":\"frame_hop\",\"node\":{n},\"origin\":{o},\
                 \"frame\":{f},\"hops\":{h}}}"
            )
        ),
        (t.clone(), node.clone(), 0u64..64, 0u64..9999, fate).prop_map(
            |(t, n, o, f, fate)| format!(
                "{{\"t\":{t},\"ev\":\"frame_fate\",\"node\":{n},\"origin\":{o},\
                 \"frame\":{f},\"fate\":\"{fate}\"}}"
            )
        ),
        (t, node.clone(), 1u64..99, node, 0u64..9999, 0u8..10).prop_map(
            |(t, n, v, o, f, h)| format!(
                "{{\"t\":{t},\"ev\":\"copy_lineage\",\"node\":{n},\"item\":{n},\
                 \"version\":{v},\"origin\":{o},\"frame\":{f},\"hops\":{h}}}"
            )
        ),
    ]
}

/// Assembles header + event lines into journal bytes.
fn journal_under(header: &str, lines: &[String]) -> Vec<u8> {
    let mut bytes = header.as_bytes().to_vec();
    bytes.push(b'\n');
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// A journal of `lines` under the sink's header.
fn journal(lines: &[String]) -> Vec<u8> {
    journal_under(HEADER, lines)
}

/// Drains a reader, panicking only on a reader panic — errors are data.
fn drain(
    reader: &mut JournalReader<BufReader<&[u8]>>,
) -> Vec<Result<(mp2p_sim::SimTime, mp2p_trace::TraceEvent), ReadError>> {
    reader.collect()
}

proptest! {
    /// A fully valid journal streams back every line.
    #[test]
    fn valid_journals_parse_completely(
        lines in proptest::collection::vec(valid_line(), 0..40),
    ) {
        let bytes = journal(&lines);
        let mut reader = JournalReader::new(BufReader::new(bytes.as_slice())).unwrap();
        let items = drain(&mut reader);
        prop_assert_eq!(items.len(), lines.len());
        for item in &items {
            prop_assert!(item.is_ok(), "unexpected error: {:?}", item.as_ref().err());
        }
        prop_assert_eq!(reader.lines_read(), lines.len() + 1);
    }

    /// A schema-4 journal mixing every layer's kinds streams back every
    /// line.
    #[test]
    fn valid_v4_journals_parse_completely(
        lines in proptest::collection::vec(
            prop_oneof![valid_line(), recovery_line(), provenance_line()], 0..40,
        ),
    ) {
        let bytes = journal(&lines);
        let mut reader = JournalReader::new(BufReader::new(bytes.as_slice())).unwrap();
        let items = drain(&mut reader);
        prop_assert_eq!(items.len(), lines.len());
        for item in &items {
            prop_assert!(item.is_ok(), "unexpected error: {:?}", item.as_ref().err());
        }
    }

    /// Truncating a valid journal at any byte offset never panics, and a
    /// partial trailing line is reported under its own line number.
    #[test]
    fn truncation_is_line_accurate(
        lines in proptest::collection::vec(valid_line(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = journal(&lines);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut_bytes = &bytes[..cut];
        let header_len = HEADER.len() + 1;
        match JournalReader::new(BufReader::new(cut_bytes)) {
            Err(e) => {
                // Losing part of the header line is the only legal
                // construction failure for this input.
                prop_assert!(cut < header_len, "rejected with full header: {e}");
                prop_assert!(matches!(e, ReadError::MissingHeader));
            }
            Ok(mut reader) => {
                let items = drain(&mut reader);
                // Complete lines survive; only a partial trailing line may
                // error, and it must carry the journal's final line number.
                let whole_lines = cut_bytes.iter().filter(|&&b| b == b'\n').count();
                let has_partial_tail = cut > 0 && cut_bytes[cut - 1] != b'\n';
                for (i, item) in items.iter().enumerate() {
                    match item {
                        Ok(_) => {}
                        Err(ReadError::BadLine { line_no, .. }) => {
                            prop_assert!(has_partial_tail, "complete lines must parse");
                            prop_assert_eq!(i, items.len() - 1, "only the tail may fail");
                            prop_assert_eq!(*line_no, whole_lines + 1);
                        }
                        Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
                    }
                }
            }
        }
    }

    /// Every schema but [`mp2p_trace::JOURNAL_SCHEMA`] is refused up
    /// front, echoing the version it found.
    #[test]
    fn wrong_schema_is_refused(
        schema in prop_oneof![0u64..50, Just(u64::MAX)],
        lines in proptest::collection::vec(valid_line(), 0..5),
    ) {
        let header = HEADER.replace("\"schema\":4", &format!("\"schema\":{schema}"));
        let bytes = journal_under(&header, &lines);
        let result = JournalReader::new(BufReader::new(bytes.as_slice()));
        if schema == mp2p_trace::JOURNAL_SCHEMA {
            prop_assert!(result.is_ok());
        } else {
            match result {
                Err(ReadError::SchemaMismatch { found }) => prop_assert_eq!(found, schema),
                other => prop_assert!(false, "expected SchemaMismatch, got {:?}", other.err()),
            }
        }
    }

    /// A header count that is present but not a `u64` is refused up
    /// front: read as 0, a mistyped `warmup_ms` would open as a journal
    /// with no warm-up and censor nothing.
    #[test]
    fn a_mistyped_header_count_is_refused(
        key in prop_oneof![Just("kinds"), Just("warmup_ms")],
        value in prop_oneof![
            Just("\"60000\""), Just("-1"), Just("1.5"), Just("null"), Just("true"), Just("[1]"),
        ],
        lines in proptest::collection::vec(valid_line(), 0..5),
    ) {
        // No body line of `valid_line` carries either key.
        let number = if key == "kinds" { "38" } else { "60000" };
        let text = String::from_utf8(journal(&lines)).expect("ASCII journal");
        let bytes = text
            .replace(&format!("\"{key}\":{number}"), &format!("\"{key}\":{value}"))
            .into_bytes();
        prop_assert_ne!(bytes.as_slice(), text.as_bytes());
        let result = JournalReader::new(BufReader::new(bytes.as_slice()));
        prop_assert!(
            matches!(result, Err(ReadError::MissingHeader)),
            "{key} = {value} was accepted"
        );
    }

    /// The header is read in the sink's spelling and no other: a key
    /// missing or moved, a byte of JSON whitespace anywhere in it, or a
    /// `kinds` other than the vocabulary's is not a header.
    #[test]
    fn a_header_in_any_other_spelling_is_refused(
        respelling in 0usize..4,
        at in 1usize..HEADER.len(),
        kinds in any::<u64>().prop_filter("the vocabulary's count", |&k| k != 38),
        lines in proptest::collection::vec(valid_line(), 0..5),
    ) {
        let header = match respelling {
            0 => HEADER.replace(",\"kinds\":38", ""),
            1 => "{\"schema\":4,\"warmup_ms\":60000,\"kinds\":38}".to_string(),
            2 => format!("{} {}", &HEADER[..at], &HEADER[at..]),
            _ => HEADER.replace("\"kinds\":38", &format!("\"kinds\":{kinds}")),
        };
        let bytes = journal_under(&header, &lines);
        let result = JournalReader::new(BufReader::new(bytes.as_slice()));
        prop_assert!(
            matches!(result, Err(ReadError::MissingHeader)),
            "{} was accepted",
            header
        );
    }

    /// A line of invalid UTF-8 mid-journal yields a `BadLine` carrying
    /// exactly that line's number; the lines around it still parse.
    #[test]
    fn invalid_utf8_is_a_bad_line_not_a_panic(
        before in proptest::collection::vec(valid_line(), 0..10),
        after in proptest::collection::vec(valid_line(), 0..10),
        garbage in proptest::collection::vec(0x80u8..0xc0, 1..16),
    ) {
        // Continuation bytes with no lead byte are never valid UTF-8.
        let mut bytes = journal(&before);
        bytes.extend_from_slice(&garbage);
        bytes.push(b'\n');
        for line in &after {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let mut reader = JournalReader::new(BufReader::new(bytes.as_slice())).unwrap();
        let items = drain(&mut reader);
        prop_assert_eq!(items.len(), before.len() + 1 + after.len());
        for (i, item) in items.iter().enumerate() {
            if i == before.len() {
                match item {
                    Err(ReadError::BadLine { line_no, .. }) => {
                        // Header is line 1, so the garbage sits at +2.
                        prop_assert_eq!(*line_no, before.len() + 2);
                    }
                    other => prop_assert!(false, "expected BadLine, got {other:?}"),
                }
            } else {
                prop_assert!(item.is_ok(), "spillover at {}: {:?}", i, item.as_ref().err());
            }
        }
    }

    /// Flipping one byte of a valid journal body never panics, and any
    /// resulting error points at the mutated line.
    #[test]
    fn single_byte_corruption_never_panics(
        lines in proptest::collection::vec(valid_line(), 1..10),
        pos_frac in 0.0f64..1.0,
        replacement in 0u8..=255,
    ) {
        let mut bytes = journal(&lines);
        let body_start = HEADER.len() + 1;
        let pos = body_start
            + (((bytes.len() - body_start) as f64) * pos_frac) as usize;
        let pos = pos.min(bytes.len() - 1);
        let victim_line = 2 + bytes[body_start..pos].iter().filter(|&&b| b == b'\n').count();
        bytes[pos] = replacement;
        let mut reader = JournalReader::new(BufReader::new(bytes.as_slice())).unwrap();
        for item in drain(&mut reader) {
            match item {
                Ok(_) => {}
                Err(ReadError::BadLine { line_no, .. }) => {
                    // Mutating a byte to '\n' splits the line in two, so
                    // later fragments may fail too; never *earlier* ones.
                    prop_assert!(line_no >= victim_line, "error before the mutation");
                }
                Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            }
        }
    }

    /// How the journal reaches the reader does not change what is read.
    /// From a slice every written line is decoded in place; through a
    /// one-byte buffer every line is copied out first; 7 and 64 bytes mix
    /// the two. Same items, same line numbers, same texts.
    #[test]
    fn buffering_does_not_change_what_is_read(
        lines in proptest::collection::vec(
            prop_oneof![
                valid_line(),
                recovery_line(),
                provenance_line(),
                valid_line(),
                recovery_line(),
                provenance_line(),
                Just(String::new()),
                // Continuation bytes with no lead byte: never valid UTF-8.
                proptest::collection::vec(0x80u8..0xc0, 1..8).prop_map(|garbage| {
                    garbage.into_iter().map(char::from).collect()
                }),
            ],
            0..30,
        ),
        endings in proptest::collection::vec(
            prop_oneof![Just("\n"), Just("\r\n"), Just(" \t\n"), Just("\u{a0}\n")], 30,
        ),
        cut_frac in 0.0f64..2.0,
    ) {
        let mut bytes = journal(&[]);
        let header_len = bytes.len();
        for (line, ending) in lines.iter().zip(&endings) {
            // One byte per char: the garbage lines hold U+0080..U+00C0.
            bytes.extend(line.chars().map(|c| c as u8));
            bytes.extend_from_slice(ending.as_bytes());
        }
        // Half the time, cut anywhere in the body (so: no final newline).
        if cut_frac < 1.0 {
            bytes.truncate(header_len + ((bytes.len() - header_len) as f64 * cut_frac) as usize);
        }
        let read = |reader: &mut dyn Iterator<Item = Result<_, ReadError>>| -> Vec<String> {
            reader
                .map(|item: Result<(mp2p_sim::SimTime, mp2p_trace::TraceEvent), _>| {
                    format!("{item:?}")
                })
                .collect()
        };
        let mut in_place = JournalReader::new(bytes.as_slice()).unwrap();
        let want = read(&mut in_place);
        for capacity in [1, 7, 64] {
            let mut copied =
                JournalReader::new(BufReader::with_capacity(capacity, bytes.as_slice())).unwrap();
            prop_assert_eq!(&read(&mut copied), &want, "capacity {}", capacity);
            prop_assert_eq!(copied.lines_read(), in_place.lines_read());
        }
    }

    /// Completely arbitrary bytes: constructing and draining the reader
    /// must not panic, whatever comes back.
    #[test]
    fn arbitrary_bytes_never_panic(input in proptest::collection::vec(0u8..=255, 0..512)) {
        if let Ok(mut reader) = JournalReader::new(BufReader::new(input.as_slice())) {
            for _ in drain(&mut reader) {}
        }
    }
}
