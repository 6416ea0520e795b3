//! Cooperative-caching substrate: versioned data items and the per-node
//! LRU cache store.
//!
//! Section 3 of the paper fixes the data model: each host `M_i` is the
//! *source host* of item `D_i` (master copy, the only mutable copy), other
//! hosts hold up to `C_Num` *cache copies*. Versions start at zero and
//! increment on every source update.
//!
//! The paper assumes "an independent mechanism for replica placement";
//! here that mechanism is pull-on-miss into an LRU [`CacheStore`], which
//! the experiments pre-warm to match the paper's steady-state scenarios.
//!
//! The Section 5 workload (exponential update and query arrivals per
//! host) is not generated here: the engine's one generator is
//! `World::schedule_next` / `pick_target` in `mp2p-rpcc`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod item;
mod store;

pub use item::{DataItem, Version};
pub use store::{CacheEntry, CacheStore};
