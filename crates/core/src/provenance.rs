//! The causal provenance engine's opt-in switches.
//!
//! PR 6's observatory can say *why class* a stale serve happened (a
//! [`mp2p_trace::BlameCause`]); it cannot reconstruct the concrete chain
//! of frames behind one incident. Provenance tracing adds the missing
//! layer: every transmitted frame already carries a deterministic
//! identity `(origin, seq)` — floods and unicasts draw from the same
//! per-node monotonic counter — and with provenance on the world journals
//! that identity's full life cycle as schema-4 records:
//!
//! * [`mp2p_trace::TraceEvent::FrameBorn`] — a frame's first transmission
//!   (hop count 0), with its message class, unicast destination and the
//!   propagated `(item, version)` when it carries an update,
//!   invalidation or send-new payload.
//! * [`mp2p_trace::TraceEvent::FrameHop`] — each relay retransmission.
//! * [`mp2p_trace::TraceEvent::FrameFate`] — where the frame's life
//!   ended at a node: delivered, suppressed as a duplicate, or dropped
//!   with the injecting fault's cause
//!   ([`mp2p_trace::FrameFateKind`]).
//! * [`mp2p_trace::TraceEvent::CopyLineage`] — a cached copy's lineage:
//!   which frame carried the installed version here and over how many
//!   hops.
//!
//! With provenance off (the default) the world emits none of these,
//! draws no randomness and queues no events: journal bytes are
//! byte-identical to a build without this module (pinned by
//! `tests/provenance_engine.rs`). Frame sequence numbers exist either
//! way — they are plain counters the flood-dedup machinery already
//! maintained — so switching provenance on changes *observations only*,
//! never protocol behaviour.

/// The opt-in switch for frame-level provenance tracing: frame life
/// cycles and copy lineage together (a lineage record names a carrying
/// frame that must itself be journalled, so there is no state with one
/// and not the other). The default is off, which is the
/// byte-identity-preserving configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvenanceConfig {
    on: bool,
}

impl ProvenanceConfig {
    /// Off (the default).
    pub fn off() -> Self {
        ProvenanceConfig::default()
    }

    /// Frame life cycles (`FrameBorn` / `FrameHop` / `FrameFate`) and
    /// copy lineage (`CopyLineage`) journalled, journal schema ≥ 4.
    pub fn full() -> Self {
        ProvenanceConfig { on: true }
    }

    /// Whether provenance tracing is on.
    pub fn enabled(&self) -> bool {
        self.on
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert!(!ProvenanceConfig::off().enabled());
        assert!(ProvenanceConfig::full().enabled());
    }
}
