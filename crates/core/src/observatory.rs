//! The consistency observatory: divergence sampling and stale-serve
//! blame attribution.
//!
//! The end-of-run [`mp2p_metrics::ConsistencyAudit`] says *how many*
//! answers were stale; it cannot say *why*, nor how global divergence
//! evolved between warm-up and the final report. This module adds both,
//! strictly opt-in:
//!
//! * A **divergence sampler** ([`ObservatoryConfig::sample_period`])
//!   snapshots the global replica state on a fixed sim-time ticker —
//!   fresh-copy fraction, per-item replication, a staleness-age histogram
//!   ([`mp2p_metrics::AGE_BUCKET_EDGES`]), reachable-partition count and
//!   relay coverage — emitted as `TraceEvent::ConsistencySample` timeline
//!   records (journal schema 2).
//! * **Blame attribution** (on with the sampler) tracks, per cached
//!   copy, which update-propagation obstructions it suffered, so
//!   every stale serve is tagged with its proximate [`BlameCause`] in a
//!   `TraceEvent::StaleServe` record. The fallback causes
//!   ([`BlameCause::RaceInFlight`] / [`BlameCause::UpdateNeverSent`])
//!   are total, so the per-cause counts sum *exactly* to the audit's
//!   `stale_served`.
//!
//! With the observatory off (the default) the world queues no extra
//! events, draws no randomness and emits no extra trace records: journal
//! bytes and `RunReport::to_json` output are byte-identical to a build
//! without this module (pinned by `tests/consistency_observatory.rs`).

use mp2p_sim::{require, ConfigError, ItemId, NodeId, SimDuration};
use mp2p_trace::BlameCause;

/// The switch of the consistency observatory. The default is off, which
/// is the byte-identity-preserving configuration; on, the divergence
/// sampler ticks every `sample_period` and blame attribution tags every
/// stale serve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservatoryConfig {
    /// Divergence-sampler period; `Some` switches the observatory on
    /// (sampler and blame tracker), `None` — the default — queues no
    /// `Event` for it and tracks nothing.
    pub sample_period: Option<SimDuration>,
}

impl ObservatoryConfig {
    /// Off (the default).
    pub fn off() -> Self {
        ObservatoryConfig::default()
    }

    /// Sampler and blame attribution both on.
    pub fn full(sample_period: SimDuration) -> Self {
        ObservatoryConfig {
            sample_period: Some(sample_period),
        }
    }

    /// Whether the observatory is on.
    pub fn enabled(&self) -> bool {
        self.sample_period.is_some()
    }

    /// Checks that the sampler, when on, has a period the event loop
    /// can advance by. The error names the field as the `observatory.*`
    /// member of a world configuration.
    pub fn check(&self) -> Result<(), ConfigError> {
        require(
            self.sample_period != Some(SimDuration::ZERO),
            "observatory.sample_period",
            "must be positive",
        )
    }
}

/// The causes that are obstructions a copy can be stamped with: the
/// first four of [`BlameCause::ALL`], in its priority order. The rest
/// are the fallbacks [`BlameTracker::classify`] derives.
const OBSTRUCTIONS: usize = 4;

/// Version-stamped obstruction flags for one `(node, item)` copy, indexed
/// by [`BlameCause::index`]. Each holds the highest master version whose
/// propagation towards this node is known to have met that obstruction;
/// the flag *applies* to a stale serve iff its stamp exceeds the served
/// version (the copy missed precisely the versions above what it served).
type CopyFlags = [u64; OBSTRUCTIONS];

/// Per-copy provenance tracking, on with the observatory.
///
/// Flags are max-merged (order-independent, so hash-order iteration at
/// the stamping sites cannot perturb determinism) and never cleared: a
/// newer stamp simply supersedes an older one, and a stamp at or below
/// the served version no longer applies.
#[derive(Debug)]
pub(crate) struct BlameTracker {
    n_items: usize,
    /// `flags[node * n_items + item]`.
    flags: Vec<CopyFlags>,
    /// Highest version of each item ever handed to the network for
    /// propagation (invalidation / update / send-new payloads).
    propagated: Vec<u64>,
    counts: [u64; BlameCause::ALL.len()],
    delta_violations: u64,
}

impl BlameTracker {
    pub(crate) fn new(n_peers: usize, n_items: usize) -> Self {
        BlameTracker {
            n_items,
            flags: vec![CopyFlags::default(); n_peers * n_items],
            propagated: vec![0; n_items],
            counts: [0; BlameCause::ALL.len()],
            delta_violations: 0,
        }
    }

    /// Propagation of `version` of `item` towards `node` met the
    /// obstruction `cause`: the source updated while the node was
    /// unreachable ([`BlameCause::Partitioned`]), a frame carrying it was
    /// lost ([`BlameCause::InvalidateLost`]), a crash wiped the copy
    /// while the master stood there ([`BlameCause::CrashWipe`]), or the
    /// node's relay lease expired without source contact
    /// ([`BlameCause::LeaseOrphan`]).
    pub(crate) fn stamp(&mut self, cause: BlameCause, node: NodeId, item: ItemId, version: u64) {
        let flag = &mut self.flags[node.index() * self.n_items + item.index()][cause.index()];
        *flag = (*flag).max(version);
    }

    /// A propagation of `version` was handed to the network.
    pub(crate) fn note_propagated(&mut self, item: ItemId, version: u64) {
        let p = &mut self.propagated[item.index()];
        *p = (*p).max(version);
    }

    /// Attributes one stale serve (`served < master` is the caller's
    /// responsibility) to its proximate cause and counts it. Specific
    /// obstruction flags win in [`BlameCause::ALL`] priority order; the
    /// fallback pair is total, so every stale serve gets exactly one
    /// cause.
    pub(crate) fn classify(&mut self, node: NodeId, item: ItemId, served: u64) -> BlameCause {
        let flags = self.flags[node.index() * self.n_items + item.index()];
        let obstruction = BlameCause::ALL[..OBSTRUCTIONS]
            .iter()
            .find(|cause| flags[cause.index()] > served);
        let cause = match obstruction {
            Some(&cause) => cause,
            None if self.propagated[item.index()] > served => BlameCause::RaceInFlight,
            None => BlameCause::UpdateNeverSent,
        };
        self.counts[cause.index()] += 1;
        cause
    }

    /// Counts one Δ-consistency violation (a stale serve whose staleness
    /// exceeded the protocol's Δ).
    pub(crate) fn note_violation(&mut self) {
        self.delta_violations += 1;
    }

    pub(crate) fn counts(&self) -> [u64; BlameCause::ALL.len()] {
        self.counts
    }

    pub(crate) fn delta_violations(&self) -> u64 {
        self.delta_violations
    }
}

/// End-of-run summary of the observatory, carried on `RunReport` only
/// when the observatory was enabled (so a default run's report JSON stays
/// byte-identical to a pre-observatory build's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Stale serves attributed per cause, indexed by
    /// [`BlameCause::index`].
    pub blame: [u64; BlameCause::ALL.len()],
    /// Stale serves whose staleness exceeded the protocol's Δ (`TTP`).
    pub delta_violations: u64,
    /// Divergence samples taken over the run.
    pub samples: u64,
}

impl ConsistencyReport {
    /// Total stale serves attributed across all causes. Equals the
    /// audit's `stale_served`.
    pub fn blamed_total(&self) -> u64 {
        self.blame.iter().sum()
    }

    /// Serialises as one JSON object (stable keys; scripts may parse).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"stale_attributed\":{},\"delta_violations\":{},\"samples\":{},\"blame\":{{",
            self.blamed_total(),
            self.delta_violations,
            self.samples,
        );
        for (i, cause) in BlameCause::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", cause.label(), self.blame[cause.index()]);
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_apply_only_above_the_served_version() {
        let mut t = BlameTracker::new(2, 2);
        let node = NodeId::new(1);
        let item = ItemId::new(0);
        t.stamp(BlameCause::Partitioned, node, item, 3);
        // Serving v3 means the copy *has* the partition-era version:
        // the flag no longer applies, and with nothing propagated the
        // fallback is update-never-sent.
        assert_eq!(t.classify(node, item, 3), BlameCause::UpdateNeverSent);
        // Serving v2 misses v3, whose propagation the partition blocked.
        assert_eq!(t.classify(node, item, 2), BlameCause::Partitioned);
    }

    #[test]
    fn causes_resolve_in_priority_order() {
        let mut t = BlameTracker::new(1, 1);
        let node = NodeId::new(0);
        let item = ItemId::new(0);
        t.note_propagated(item, 5);
        assert_eq!(t.classify(node, item, 2), BlameCause::RaceInFlight);
        t.stamp(BlameCause::LeaseOrphan, node, item, 5);
        assert_eq!(t.classify(node, item, 2), BlameCause::LeaseOrphan);
        t.stamp(BlameCause::CrashWipe, node, item, 5);
        assert_eq!(t.classify(node, item, 2), BlameCause::CrashWipe);
        t.stamp(BlameCause::InvalidateLost, node, item, 5);
        assert_eq!(t.classify(node, item, 2), BlameCause::InvalidateLost);
        t.stamp(BlameCause::Partitioned, node, item, 5);
        assert_eq!(t.classify(node, item, 2), BlameCause::Partitioned);
    }

    #[test]
    fn stamps_max_merge_and_counts_accumulate() {
        let mut t = BlameTracker::new(1, 1);
        let node = NodeId::new(0);
        let item = ItemId::new(0);
        t.stamp(BlameCause::InvalidateLost, node, item, 4);
        t.stamp(BlameCause::InvalidateLost, node, item, 2); // lower stamp must not regress
        assert_eq!(t.classify(node, item, 3), BlameCause::InvalidateLost);
        assert_eq!(t.classify(node, item, 4), BlameCause::UpdateNeverSent);
        let counts = t.counts();
        assert_eq!(counts[BlameCause::InvalidateLost.index()], 1);
        assert_eq!(counts[BlameCause::UpdateNeverSent.index()], 1);
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn report_json_lists_every_cause() {
        let report = ConsistencyReport {
            blame: [1, 2, 3, 4, 5, 6],
            delta_violations: 7,
            samples: 8,
        };
        assert_eq!(report.blamed_total(), 21);
        let json = report.to_json();
        assert!(
            mp2p_trace::json::parse(&json).is_some(),
            "invalid JSON: {json}"
        );
        for cause in BlameCause::ALL {
            assert!(json.contains(&format!("\"{}\":", cause.label())), "{json}");
        }
        assert!(json.contains("\"stale_attributed\":21"));
        assert!(json.contains("\"delta_violations\":7"));
        assert!(json.contains("\"samples\":8"));
    }

    #[test]
    fn config_gates_are_off_by_default() {
        let cfg = ObservatoryConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.check(), Ok(()));
        let full = ObservatoryConfig::full(SimDuration::from_secs(30));
        assert!(full.enabled());
        assert_eq!(full.check(), Ok(()));
        let zero = ObservatoryConfig::full(SimDuration::ZERO);
        assert_eq!(zero.check().unwrap_err().field, "observatory.sample_period");
    }
}
