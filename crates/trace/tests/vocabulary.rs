//! Pins the journal vocabulary, byte for byte and in both directions.
//!
//! `golden/vocabulary.jsonl` holds one line per record shape the writer
//! can produce: every kind, both spellings of every optional field
//! (`dest` null or a node, `span` present or absent, `frame_born` with
//! and without `item`/`version`), and every label of every label enum.
//! Each shape below must encode to exactly its line, and its line must
//! parse back to exactly the shape. The events are spelled out here, not
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
use mp2p_trace::reader::parse_event;
use mp2p_trace::{
    BlameCause, EventKind, FrameFateKind, LevelTag, RelayTransitionKind, ServedBy, SpanPhase,
    TraceEvent,
};

/// Every record shape, in the order of the golden file's lines.
fn shapes() -> Vec<TraceEvent> {
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
        send(Some(m), Some(7)),
        send(Some(m), None),
        send(None, Some(7)),
        send(None, None),
        deliver(false, None),
        deliver(true, Some(7)),
        TraceEvent::MacDrop {
            node: n,
            next_hop: m,
            class: MessageClass::Apply,
        },
        TraceEvent::Undeliverable {
            node: n,
            dest: m,
            class: MessageClass::GetNew,
        },
        TraceEvent::FloodDupDrop { node: n, origin: m },
        TraceEvent::FloodTtlExhausted { node: n, origin: m },
        TraceEvent::RreqDupDrop { node: n, origin: m },
        TraceEvent::HopBudgetDrop {
            node: n,
            origin: m,
            dest: n,
        },
        TraceEvent::NoRouteDrop {
            node: n,
            origin: m,
            dest: n,
        },
        TraceEvent::DiscoveryStart {
            node: n,
            dest: m,
            attempt: 2,
        },
        TraceEvent::DiscoveryFailed {
            node: n,
            dest: m,
            dropped: 5,
        },
        TraceEvent::RelayTransition {
            node: n,
            item,
            kind: RelayTransitionKind::Promoted,
        },
        TraceEvent::QueryIssued {
            node: n,
            query: 7,
            item,
            level: LevelTag::Strong,
        },
        TraceEvent::QueryServed {
            node: n,
            query: 7,
            level: LevelTag::Delta,
            served_by: ServedBy::Relay,
            issued: SimTime::from_millis(120),
        },
        TraceEvent::QueryFailed {
            node: n,
            query: 8,
            level: LevelTag::Weak,
        },
        TraceEvent::NodeUp { node: n },
        TraceEvent::NodeDown { node: n },
        TraceEvent::SourceUpdate {
            node: n,
            item,
            version: 4,
        },
        TraceEvent::NodeCrash { node: n },
        TraceEvent::NodeRecover { node: n },
        TraceEvent::PartitionStart { axis: 0 },
        TraceEvent::PartitionHeal { axis: 1 },
        TraceEvent::FrameDup {
            node: n,
            class: MessageClass::Update,
        },
        TraceEvent::BurstDrop { node: m },
        TraceEvent::RelayLeaseExpired { node: n, item },
        TraceEvent::FallbackFlood {
            node: n,
            query: 9,
            item,
        },
        TraceEvent::QueryPhase {
            node: n,
            query: 7,
            item,
            phase: SpanPhase::PollFlood,
            attempt: 2,
        },
        TraceEvent::ConsistencySample {
            fresh_copies: 12,
            total_copies: 20,
            items_replicated: 7,
            max_replicas: 5,
            partitions: 2,
            relay_nodes: 4,
            ages: [3, 2, 1, 1, 0, 1],
        },
        TraceEvent::StaleServe {
            node: n,
            query: 7,
            item,
            cause: BlameCause::InvalidateLost,
            staleness_ms: 1_500,
            lag: 2,
            violation: false,
        },
        TraceEvent::StaleServe {
            node: m,
            query: 11,
            item,
            cause: BlameCause::Partitioned,
            staleness_ms: 250_000,
            lag: 4,
            violation: true,
        },
        TraceEvent::ResyncStart { node: n, items: 6 },
        TraceEvent::ResyncDone { node: n, stale: 2 },
        TraceEvent::RecoveryRetransmit {
            node: n,
            dest: m,
            item,
            seq: 17,
            attempt: 1,
        },
        TraceEvent::RecoveryAck {
            node: n,
            peer: m,
            item,
            seq: 17,
        },
        TraceEvent::RelayHandover {
            from: n,
            to: m,
            item,
        },
        born(Some(m), Some(item), 4),
        born(Some(m), None, 0),
        born(None, Some(item), 4),
        born(None, None, 0),
        TraceEvent::FrameHop {
            node: m,
            origin: n,
            frame: 12,
            hops: 2,
        },
        TraceEvent::FrameFate {
            node: m,
            origin: n,
            frame: 12,
            fate: FrameFateKind::Delivered,
        },
        TraceEvent::CopyLineage {
            node: m,
            item,
            version: 4,
            origin: n,
            frame: 12,
            hops: 2,
        },
    ];

    // Every label of every label enum, in `ALL` order, inside the
    // smallest record that carries it.
    shapes.extend(MessageClass::ALL.map(|class| TraceEvent::FrameDup { node: n, class }));
    shapes.extend(
        RelayTransitionKind::ALL.map(|kind| TraceEvent::RelayTransition {
            node: n,
            item,
            kind,
        }),
    );
    shapes.extend(LevelTag::ALL.map(|level| {
        let query = 8;
        TraceEvent::QueryFailed {
            node: n,
            query,
            level,
        }
    }));
    shapes.extend(ServedBy::ALL.map(|served_by| TraceEvent::QueryServed {
        node: n,
        query: 7,
        level: LevelTag::Strong,
        served_by,
        issued: SimTime::ZERO,
    }));
    shapes.extend(SpanPhase::ALL.map(|phase| TraceEvent::QueryPhase {
        node: n,
        query: 7,
        item,
        phase,
        attempt: 0,
    }));
    shapes.extend(BlameCause::ALL.map(|cause| TraceEvent::StaleServe {
        node: n,
        query: 7,
        item,
        cause,
        staleness_ms: 0,
        lag: 1,
        violation: false,
    }));
    shapes.extend(FrameFateKind::ALL.map(|fate| TraceEvent::FrameFate {
        node: m,
        origin: n,
        frame: 13,
        fate,
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
    for event in &shapes {
        if !kinds.contains(&event.kind()) {
            kinds.push(event.kind());
        }
    }
    assert_eq!(kinds, EventKind::ALL);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vocabulary.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut text = Vec::new();
        for (i, event) in shapes.iter().enumerate() {
            event.write_json(stamp(i), &mut text);
            text.push(b'\n');
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

    for (i, (event, line)) in shapes.iter().zip(&lines).enumerate() {
        let mut written = Vec::new();
        event.write_json(stamp(i), &mut written);
        assert_eq!(written, line.as_bytes(), "line {}: encoder moved", i + 1);
        assert_eq!(
            parse_event(line),
            Some((stamp(i), *event)),
            "line {}: decoder moved: {line}",
            i + 1
        );
    }
}
