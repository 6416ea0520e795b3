//! Flight recorder: structured sim-time event tracing for the RPCC
//! simulation.
//!
//! The paper's evaluation reports aggregates (traffic by message class,
//! query latency), but debugging a consistency protocol needs the story
//! *between* the aggregates: which flood reached whom, when a relay peer
//! was promoted or resigned (Fig. 5), why a poll timed out. This crate
//! provides that story as a typed, sim-time-stamped event stream:
//!
//! * [`TraceEvent`] — the event vocabulary: message lifecycle
//!   (send / forward-drop / deliver / undeliverable, keyed by
//!   [`mp2p_metrics::MessageClass`] and hop count), relay state-machine
//!   transitions ([`RelayTransitionKind`]), query lifecycle
//!   ([`LevelTag`], [`ServedBy`]), and node churn. The vocabulary is
//!   stated once: one record table generates the enum, [`EventKind`] and
//!   both directions of the journal codec.
//! * [`TraceSink`] — where events go: a bounded [`RingSink`], a
//!   streaming [`JsonlSink`] that writes journal schema [`JOURNAL_SCHEMA`]
//!   whichever layers are on and counts what it is handed by kind
//!   (hand-rolled serialisation via [`json`]; the build environment has
//!   no serde), and a windowed [`bridge::RegistrySink`].
//! * [`NullSink`] — the default: `enabled()` is `false`, so an untraced
//!   simulation pays one boolean test per emission site and never
//!   allocates.
//!
//! The simulation driver (`mp2p-rpcc`'s `World`) owns a boxed sink and
//! emits at every layer boundary; see `World::set_tracer` and
//! `World::run_traced`.
//!
//! # Example
//!
//! ```
//! use mp2p_metrics::MessageClass;
//! use mp2p_sim::{NodeId, SimTime};
//! use mp2p_trace::{RingSink, TraceEvent, TraceSink};
//!
//! let mut sink = RingSink::new(1024);
//! sink.record(
//!     SimTime::from_millis(40),
//!     &TraceEvent::MsgSend {
//!         node: NodeId::new(2),
//!         class: MessageClass::Poll,
//!         bytes: 48,
//!         dest: Some(NodeId::new(5)),
//!         span: Some(7),
//!     },
//! );
//! assert_eq!(sink.len(), 1);
//! ```
//!
//! Offline, the [`reader`] module parses a JSONL journal back into
//! events and [`span`] reassembles per-query causal spans from them —
//! the toolkit behind `mp2p analyze`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod event;
pub mod json;
pub mod reader;
mod sink;
pub mod span;

pub mod bridge;

pub use event::{
    BlameCause, EventKind, FrameFateKind, LevelTag, RelayTransitionKind, ServedBy, SpanPhase,
    TraceEvent,
};
pub use sink::{JsonlSink, NullSink, RingSink, TraceSink, JOURNAL_SCHEMA};
