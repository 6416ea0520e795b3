//! Wireless MANET substrate.
//!
//! This crate replaces the GloMoSim network stack the paper's evaluation
//! ran on. It models, bottom-up:
//!
//! * [`Topology`] — a unit-disc radio snapshot (`C_Range` = 250 m in
//!   Table 1): CSR adjacency, BFS shortest paths, `k`-hop neighbourhoods
//!   and connected components over the current node positions. Snapshots
//!   are built through a spatial hash in O(n·k) by [`TopologyBuilder`],
//!   and queries run allocation-free against a [`TopologyScratch`].
//! * [`LinkModel`] — per-hop MAC/PHY cost: transmission serialisation at a
//!   configured bandwidth, propagation/processing latency, uniform
//!   contention jitter, and optional Bernoulli frame loss.
//! * [`Frame`]/[`NetStack`] — the per-node network layer: duplicate-
//!   suppressed TTL-scoped flooding (the transport of the paper's
//!   `INVALIDATION` and `POLL` broadcasts) and on-demand unicast routing in
//!   the style of AODV/DSR (`RREQ` flood / `RREP` unwind / `RERR` on link
//!   break), carrying the protocol's point-to-point messages
//!   (`UPDATE`, `APPLY`, `GET_NEW`, …).
//!
//! The stack is *sans-io*: [`NetStack`] is a pure state machine that turns
//! inputs (app sends, received frames, timers) into [`NetAction`]s. The
//! simulation driver owns time, delivers frames after [`LinkModel`] delays,
//! and feeds back MAC-level delivery failures — which is how the paper's
//! "this kind of disconnection can be discovered in the MAC layer"
//! (Section 4.5) is realised.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod frame;
mod link;
mod stack;
mod topology;

pub use faults::{Axis, CrashWindow, FaultPlan, PartitionWindow};
pub use frame::{FloodId, Frame, NetMeta, NetPayload, RouteControl};
pub use link::{GeParams, GilbertElliott, LinkModel};
pub use stack::{NetAction, NetConfig, NetEvent, NetStack, NetTimer, MAX_NODES};
pub use topology::{PartitionCut, Topology, TopologyBuilder, TopologyScratch, TopologySnapshot};
