//! `mp2p-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `README.md` beside this package for the workload,
//! metric and interaction tables.
//!
//! The simulator is measured **from outside**, through the public API of
//! its crates only; nothing in the simulator knows this package exists.

pub mod check;
pub mod cli;
pub mod host;
pub mod kernels;
pub mod run;
pub mod spans;
pub mod spec;
pub mod workloads;

/// Installed for every binary and test of this package so the traced
/// pass can count allocations; idle (one relaxed load per call) until
/// [`host::arm_allocator`].
#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;
