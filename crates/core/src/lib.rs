//! RPCC — Relay Peer-based Cache Consistency — and its baselines.
//!
//! This crate is the reproduction of the paper's contribution
//! ("Consistency of Cooperative Caching in Mobile Peer-to-Peer Systems
//! over MANET", Cao, Zhang, Xie & Cao, ICDCS 2005):
//!
//! * [`Rpcc`] — the relay-peer protocol of Section 4: relay selection by
//!   the CAR/CS/CE coefficients (Eq. 4.2.1–4.2.8, [`Coefficients`]), the
//!   state machine of Fig. 5, the message set of Fig. 6(a)
//!   ([`ProtoMsg`]), and the source/relay/cache-peer algorithms of
//!   Fig. 6(b)–(d). Push between source and relays, pull between cache
//!   peers and relays, three consistency levels served adaptively
//!   (Section 4.4).
//! * [`SimplePush`] / [`SimplePull`] — the baselines of the evaluation
//!   (after Lan et al. \[Lan03\]): TTL-8 invalidation floods with
//!   wait-for-report queries, and flood-poll-per-query respectively.
//! * [`World`] — the simulation driver binding the substrates together:
//!   mobility → topology snapshots → per-node [`mp2p_net::NetStack`]s →
//!   protocol state machines → metrics.
//!
//! # Quick start
//!
//! ```
//! use mp2p_rpcc::{Strategy, World, WorldConfig};
//! use mp2p_sim::SimDuration;
//!
//! let mut config = WorldConfig::small_test(42);
//! config.strategy = Strategy::Rpcc;
//! config.sim_time = SimDuration::from_mins(10);
//! let report = World::new(config).run();
//! assert!(report.queries_served() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod coefficients;
mod config;
mod level;
mod msg;
mod observatory;
mod pending;
mod protocol;
mod provenance;
mod pull;
mod push;
mod push_adaptive;
mod recovery;
mod rpcc;
mod world;

pub use adaptive::AdaptiveTuner;
pub use coefficients::Coefficients;
pub use config::{
    ProtocolConfig, BROADCAST_TTL, MU_CAR, MU_CE, MU_CS, OMEGA, POLL_TTL_MAX, TTN, TTP, TTR,
};
pub use level::{ConsistencyLevel, LevelMix};
pub use mp2p_sim::ConfigError;
pub use msg::ProtoMsg;
pub use observatory::{ConsistencyReport, ObservatoryConfig};
pub use protocol::{Ctx, CtxOut, DegradationKind, Protocol, QueryId, Timer};
pub use provenance::ProvenanceConfig;
pub use pull::SimplePull;
pub use push::SimplePush;
pub use push_adaptive::PushAdaptivePull;
pub use recovery::{
    RecoveryAction, RecoveryConfig, RetransmitQueue, RetxEntry, SeqTracker, VersionDigest,
    DIGEST_CAP,
};
pub use rpcc::Rpcc;
pub use world::{
    FaultStats, MobilityKind, RoutingMode, RunReport, Strategy, WorkloadMode, World, WorldConfig,
};
