//! Measurement instruments for the RPCC evaluation.
//!
//! The paper's figures report two primary metrics — **network traffic**
//! (number of messages, Fig. 7/9a) and **query latency** (Fig. 8/9b) —
//! plus motivating concerns it discusses but does not plot (energy,
//! staleness). This crate provides the corresponding instruments:
//!
//! * [`TrafficStats`] — MAC-level transmissions and bytes by
//!   [`MessageClass`] (each hop of each message counts once, matching the
//!   GloMoSim message counters the paper plots).
//! * [`LevelTag`], [`ServedBy`], [`RelayTransitionKind`], [`SpanPhase`] —
//!   the label vocabularies the protocols emit and the journal writes,
//!   each one [`label_enum!`] list beside [`MessageClass`].
//! * [`LatencyStats`] — a streaming log-bucket histogram of query
//!   latencies with mean/percentile/max readouts.
//! * [`ConsistencyAudit`] + [`VersionHistory`] — ground-truth staleness
//!   auditing: for every served query, how far behind the master copy the
//!   answer was (in versions and in seconds), per consistency level.
//! * [`tx_cost`] / [`rx_cost`] / [`idle_cost`] and [`PeerEnergy`] — the
//!   radio energy costs and the battery behind the paper's `CE`
//!   coefficient (Eq. 4.2.7).
//! * [`Gauge`] — a generic sampled time series (relay-peer population,
//!   route-table sizes, …).
//! * [`Registry`] — a recorder of named windowed counters/gauges/histograms
//!   (series *over time*, not just end-of-run aggregates); nothing
//!   renders it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
mod gauge;
mod latency;
mod registry;
mod staleness;
mod traffic;

pub use energy::{idle_cost, rx_cost, tx_cost, PeerEnergy};
pub use gauge::Gauge;
pub use latency::LatencyStats;
pub use registry::{metric_name, Registry, WindowedCounter, WindowedGauge, WindowedHistogram};
pub use staleness::{
    age_bucket, ConsistencyAudit, ServedQuery, VersionHistory, AGE_BUCKETS, AGE_BUCKET_EDGES,
};
pub use traffic::{LevelTag, MessageClass, RelayTransitionKind, ServedBy, SpanPhase, TrafficStats};
