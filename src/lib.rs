//! # mp2p — RPCC cooperative-cache consistency over MANET
//!
//! A full reproduction of *"Consistency of Cooperative Caching in Mobile
//! Peer-to-Peer Systems over MANET"* (Cao, Zhang, Xie & Cao, ICDCS 2005):
//! the RPCC relay-peer consistency protocol, its push/pull baselines, and
//! every substrate the paper's GloMoSim evaluation relied on — a
//! deterministic discrete-event kernel, mobility models, a unit-disc
//! wireless stack with TTL flooding and on-demand routing, a cooperative
//! cache, and the measurement instruments behind the paper's figures.
//!
//! This crate re-exports the workspace members under stable module names:
//!
//! * [`sim`] — event queue, simulated time, seeded RNG streams.
//! * [`mobility`] — random waypoint (the paper's model) and friends.
//! * [`net`] — topology snapshots, MAC/PHY link model, flooding, routing.
//! * [`cache`] — versioned items, the per-node LRU store.
//! * [`metrics`] — traffic/latency/staleness/energy instruments.
//! * [`trace`] — the flight recorder: typed sim-time event tracing.
//! * [`rpcc`] — the protocols ([`rpcc::Rpcc`], [`rpcc::SimplePush`],
//!   [`rpcc::SimplePull`]) and the simulation [`rpcc::World`].
//! * [`experiments`] — Table 1 and Figs. 7–9 as runnable sweeps.
//!
//! # Quick start
//!
//! ```
//! use mp2p::rpcc::{Strategy, World, WorldConfig};
//! use mp2p::sim::SimDuration;
//!
//! let mut config = WorldConfig::small_test(1);
//! config.strategy = Strategy::Rpcc;
//! config.sim_time = SimDuration::from_mins(8);
//! let report = World::new(config).run();
//! println!(
//!     "served {} queries at {:.0} transmissions/min",
//!     report.queries_served(),
//!     report.traffic_per_minute()
//! );
//! ```
//!
//! See `examples/` for scenario walk-throughs. The package's one binary,
//! `mp2p run | matrix | analyze | paper` (`src/main.rs`), drives single
//! scenarios, the scenario corpus, the offline analyzer and the figure
//! regenerators; `mp2p <subcommand> --help` lists each flag set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mp2p_cache as cache;
pub use mp2p_experiments as experiments;
pub use mp2p_metrics as metrics;
pub use mp2p_mobility as mobility;
pub use mp2p_net as net;
pub use mp2p_rpcc as rpcc;
pub use mp2p_sim as sim;
pub use mp2p_trace as trace;
