//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate every other crate in the workspace builds on.
//! It replaces the role GloMoSim \[Zen98\] played in the original RPCC paper
//! ("Consistency of Cooperative Caching in Mobile Peer-to-Peer Systems over
//! MANET", ICDCS 2005): a clock, an event queue with stable ordering, and
//! reproducible random-number streams.
//!
//! The kernel is intentionally minimal and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution simulated time.
//! * [`EventQueue`] — a stable priority queue: events scheduled for the same
//!   instant pop in insertion order, so runs are bit-for-bit reproducible.
//! * [`SimRng`] — seeded random streams with the samplers the paper's
//!   workloads need (exponential inter-arrival times, uniform draws,
//!   Bernoulli loss).
//! * [`NodeId`] / [`ItemId`] — the identifier newtypes shared by the whole
//!   system model (Section 3 of the paper: hosts `M_1..M_m`, items
//!   `D_1..D_n`).
//! * [`FastMap`] / [`FastSet`] — hash collections on one deterministic
//!   multiplicative hasher, for the id-keyed per-frame state.
//! * [`ConfigError`] — the one error every configuration validator
//!   reports through ([`require`] / [`relate`] build it).
//! * [`Profiler`] — strictly observational host-side wall-clock
//!   profiling of the event loop (reads `std::time::Instant`, never
//!   feeds back into sim state), plus [`QueueStats`] queue telemetry.
//!
//! # Example
//!
//! ```
//! use mp2p_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_secs(5), "later");
//! queue.push(SimTime::ZERO, "first");
//! queue.push(SimTime::ZERO, "second");
//!
//! let (t, e) = queue.pop().unwrap();
//! assert_eq!((t, e), (SimTime::ZERO, "first"));
//! assert_eq!(queue.pop().unwrap().1, "second");
//! assert_eq!(queue.pop().unwrap().1, "later");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod hash;
mod ids;
pub mod profile;
mod queue;
mod rng;
mod time;

pub use check::{relate, require, ConfigError};
pub use hash::{FastHasher, FastMap, FastSet};
pub use ids::{ItemId, NodeId};
pub use profile::{PerfBucket, PerfReport, Profiler, TopologyStats};
pub use queue::{EventQueue, QueueStats};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
