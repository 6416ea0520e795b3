//! Pins the journal vocabulary, byte for byte and in both directions.
//!
//! `golden/vocabulary.jsonl` holds one line per record shape the writer
//! can produce: every kind, both spellings of every optional field
//! (`dest` null or a node, `span` present or absent, `frame_born` with
//! and without `item`/`version`), and every label of every label enum.
//! Each shape below must encode to exactly its line, and its line must
//! parse back to exactly the shape at the schema tier written beside it
//! and to nothing one tier below. The events are spelled out here, not
//! taken from the codec, so the file pins the format rather than a round
//! trip.
//!
//! Regenerate (only when the wire format is *meant* to change) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mp2p-trace --test vocabulary
//! ```

use std::path::PathBuf;

use mp2p_metrics::MessageClass;
use mp2p_sim::{ItemId, NodeId, SimTime};
use mp2p_trace::reader::parse_event_versioned;
use mp2p_trace::{
    BlameCause, EventKind, FrameFateKind, LevelTag, RelayTransitionKind, ServedBy, SpanPhase,
    TraceEvent,
};

/// Every record shape with the lowest schema tier that carries it, in
/// the order of the golden file's lines.
fn shapes() -> Vec<(u64, TraceEvent)> {
    let n = NodeId::new(1);
    let m = NodeId::new(2);
    let item = ItemId::new(3);
    let send = |dest, span| TraceEvent::MsgSend {
        node: n,
        class: MessageClass::Poll,
        bytes: 48,
        dest,
        span,
    };
    let deliver = |via_flood, span| TraceEvent::MsgDeliver {
        node: m,
        origin: n,
        class: MessageClass::PollAckB,
        hops: 3,
        via_flood,
        span,
    };
    let born = |dest, item, version| TraceEvent::FrameBorn {
        node: n,
        frame: 12,
        class: MessageClass::Update,
        dest,
        item,
        version,
    };
    let mut shapes = vec![
        (1, send(Some(m), Some(7))),
        (1, send(Some(m), None)),
        (1, send(None, Some(7))),
        (1, send(None, None)),
        (1, deliver(false, None)),
        (1, deliver(true, Some(7))),
        (
            1,
            TraceEvent::MacDrop {
                node: n,
                next_hop: m,
                class: MessageClass::Apply,
            },
        ),
        (
            1,
            TraceEvent::Undeliverable {
                node: n,
                dest: m,
                class: MessageClass::GetNew,
            },
        ),
        (1, TraceEvent::FloodDupDrop { node: n, origin: m }),
        (1, TraceEvent::FloodTtlExhausted { node: n, origin: m }),
        (1, TraceEvent::RreqDupDrop { node: n, origin: m }),
        (
            1,
            TraceEvent::HopBudgetDrop {
                node: n,
                origin: m,
                dest: n,
            },
        ),
        (
            1,
            TraceEvent::NoRouteDrop {
                node: n,
                origin: m,
                dest: n,
            },
        ),
        (
            1,
            TraceEvent::DiscoveryStart {
                node: n,
                dest: m,
                attempt: 2,
            },
        ),
        (
            1,
            TraceEvent::DiscoveryFailed {
                node: n,
                dest: m,
                dropped: 5,
            },
        ),
        (
            1,
            TraceEvent::RelayTransition {
                node: n,
                item,
                kind: RelayTransitionKind::Promoted,
            },
        ),
        (
            1,
            TraceEvent::QueryIssued {
                node: n,
                query: 7,
                item,
                level: LevelTag::Strong,
            },
        ),
        (
            1,
            TraceEvent::QueryServed {
                node: n,
                query: 7,
                level: LevelTag::Delta,
                served_by: ServedBy::Relay,
                issued: SimTime::from_millis(120),
            },
        ),
        (
            1,
            TraceEvent::QueryFailed {
                node: n,
                query: 8,
                level: LevelTag::Weak,
            },
        ),
        (1, TraceEvent::NodeUp { node: n }),
        (1, TraceEvent::NodeDown { node: n }),
        (
            1,
            TraceEvent::SourceUpdate {
                node: n,
                item,
                version: 4,
            },
        ),
        (1, TraceEvent::NodeCrash { node: n }),
        (1, TraceEvent::NodeRecover { node: n }),
        (1, TraceEvent::PartitionStart { axis: 0 }),
        (1, TraceEvent::PartitionHeal { axis: 1 }),
        (
            1,
            TraceEvent::FrameDup {
                node: n,
                class: MessageClass::Update,
            },
        ),
        (1, TraceEvent::BurstDrop { node: m }),
        (1, TraceEvent::RelayLeaseExpired { node: n, item }),
        (
            1,
            TraceEvent::FallbackFlood {
                node: n,
                query: 9,
                item,
            },
        ),
        (
            1,
            TraceEvent::QueryPhase {
                node: n,
                query: 7,
                item,
                phase: SpanPhase::PollFlood,
                attempt: 2,
            },
        ),
        (
            2,
            TraceEvent::ConsistencySample {
                fresh_copies: 12,
                total_copies: 20,
                items_replicated: 7,
                max_replicas: 5,
                partitions: 2,
                relay_nodes: 4,
                ages: [3, 2, 1, 1, 0, 1],
            },
        ),
        (
            2,
            TraceEvent::StaleServe {
                node: n,
                query: 7,
                item,
                cause: BlameCause::InvalidateLost,
                staleness_ms: 1_500,
                lag: 2,
                violation: false,
            },
        ),
        (
            2,
            TraceEvent::StaleServe {
                node: m,
                query: 11,
                item,
                cause: BlameCause::Partitioned,
                staleness_ms: 250_000,
                lag: 4,
                violation: true,
            },
        ),
        (3, TraceEvent::ResyncStart { node: n, items: 6 }),
        (3, TraceEvent::ResyncDone { node: n, stale: 2 }),
        (
            3,
            TraceEvent::RecoveryRetransmit {
                node: n,
                dest: m,
                item,
                seq: 17,
                attempt: 1,
            },
        ),
        (
            3,
            TraceEvent::RecoveryAck {
                node: n,
                peer: m,
                item,
                seq: 17,
            },
        ),
        (
            3,
            TraceEvent::RelayHandover {
                from: n,
                to: m,
                item,
            },
        ),
        (4, born(Some(m), Some(item), 4)),
        (4, born(Some(m), None, 0)),
        (4, born(None, Some(item), 4)),
        (4, born(None, None, 0)),
        (
            4,
            TraceEvent::FrameHop {
                node: m,
                origin: n,
                frame: 12,
                hops: 2,
            },
        ),
        (
            4,
            TraceEvent::FrameFate {
                node: m,
                origin: n,
                frame: 12,
                fate: FrameFateKind::Delivered,
            },
        ),
        (
            4,
            TraceEvent::CopyLineage {
                node: m,
                item,
                version: 4,
                origin: n,
                frame: 12,
                hops: 2,
            },
        ),
    ];

    // Every label of every label enum, in `ALL` order, inside the
    // smallest record that carries it.
    shapes.extend(MessageClass::ALL.map(|class| (1, TraceEvent::FrameDup { node: n, class })));
    shapes.extend(RelayTransitionKind::ALL.map(|kind| {
        (
            1,
            TraceEvent::RelayTransition {
                node: n,
                item,
                kind,
            },
        )
    }));
    shapes.extend(LevelTag::ALL.map(|level| {
        let query = 8;
        (
            1,
            TraceEvent::QueryFailed {
                node: n,
                query,
                level,
            },
        )
    }));
    shapes.extend(ServedBy::ALL.map(|served_by| {
        (
            1,
            TraceEvent::QueryServed {
                node: n,
                query: 7,
                level: LevelTag::Strong,
                served_by,
                issued: SimTime::ZERO,
            },
        )
    }));
    shapes.extend(SpanPhase::ALL.map(|phase| {
        (
            1,
            TraceEvent::QueryPhase {
                node: n,
                query: 7,
                item,
                phase,
                attempt: 0,
            },
        )
    }));
    shapes.extend(BlameCause::ALL.map(|cause| {
        (
            2,
            TraceEvent::StaleServe {
                node: n,
                query: 7,
                item,
                cause,
                staleness_ms: 0,
                lag: 1,
                violation: false,
            },
        )
    }));
    shapes.extend(FrameFateKind::ALL.map(|fate| {
        (
            4,
            TraceEvent::FrameFate {
                node: m,
                origin: n,
                frame: 13,
                fate,
            },
        )
    }));
    shapes
}

/// The timestamp of the `i`-th golden line.
fn stamp(i: usize) -> SimTime {
    SimTime::from_millis(10 * (i as u64 + 1))
}

#[test]
fn every_record_shape_encodes_to_and_decodes_from_its_golden_line() {
    let shapes = shapes();
    // Every kind, first met in `EventKind::ALL` order: the order is what
    // keeps per-kind indices and the printed tables stable.
    let mut kinds = Vec::new();
    for (_, event) in &shapes {
        if !kinds.contains(&event.kind()) {
            kinds.push(event.kind());
        }
    }
    assert_eq!(kinds, EventKind::ALL);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vocabulary.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut text = String::new();
        for (i, (_, event)) in shapes.iter().enumerate() {
            event.write_json(stamp(i), &mut text);
            text.push('\n');
        }
        std::fs::write(&path, text).expect("write golden");
        println!("updated {}", path.display());
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), shapes.len(), "one golden line per shape");

    for (i, ((tier, event), line)) in shapes.iter().zip(&lines).enumerate() {
        let mut written = String::new();
        event.write_json(stamp(i), &mut written);
        assert_eq!(&written, line, "line {}: encoder moved", i + 1);
        assert_eq!(
            parse_event_versioned(line, *tier),
            Some((stamp(i), *event)),
            "line {}: decoder moved at tier {tier}: {line}",
            i + 1
        );
        assert_eq!(
            parse_event_versioned(line, tier - 1),
            None,
            "line {}: read one tier below {tier}: {line}",
            i + 1
        );
    }
}
