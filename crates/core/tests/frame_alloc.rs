//! What a frame costs the allocator: `WorldConfig::small_test(42)` run to
//! its horizon under a counting global allocator (the `scratch_alloc.rs`
//! idiom of `mp2p-net`), allocations after warm-up divided by frames sent
//! after warm-up. The same world run only as far as the end of warm-up
//! gives the allocations to subtract — one seed, one prefix — so set-up
//! and table growth during warm-up are not charged to the steady state.
//!
//! Measured: 13 561 allocations for 7 628 frames (1.78 a frame) on the
//! engine that cloned the frame for every listener and took a fresh
//! `Vec` from every stack entry point and protocol context; 1 072 (0.14)
//! with receptions by reference and pooled buffers; 1 050 when the
//! dedup memories still grew towards 8 192 ids, 905 (0.12) once they
//! held only the ids heard within one flood's lifetime, and 803 (0.105)
//! before the route table took its keys inline. With that table and four
//! inline dedup slots: 824 (0.108). The whole run allocates less (1 356
//! times, not 1 384), but a memory now first touches the heap at its
//! first burst of more than four ids, and that more often falls after
//! warm-up (532 allocations before its end, not 581). What is left
//! keeps something: route tables and dedup memories at a new peak, a
//! discovery's packet queue, listener buffers when more broadcasts are
//! in flight than ever before, and the `Vec`s the protocols' pending
//! tables hand back. The bound is that count with 10 % headroom.
//!
//! The report fingerprint rides along: a change that moves the
//! allocation count must not move a simulated byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mp2p_rpcc::{RunReport, World, WorldConfig};
use mp2p_sim::SimDuration;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if ARMED.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds and runs `cfg`; the report and every allocation it took.
fn counted(cfg: WorldConfig) -> (RunReport, u64) {
    ALLOCATIONS.set(0);
    ARMED.set(true);
    let report = World::new(cfg).run();
    ARMED.set(false);
    (report, ALLOCATIONS.get())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a of `RunReport::to_json()` for `small_test(42)`, recorded on the
/// engine that cloned a frame per reception.
const REPORT_FNV: u64 = 0xaed6_4d6c_0242_1c08;

/// Allocations after warm-up the fixture may take: 824 measured.
const ALLOCATION_BOUND: u64 = 906;

#[test]
fn allocations_per_frame_sent_after_warm_up() {
    let cfg = WorldConfig::small_test(42);
    let mut prefix = cfg.clone();
    prefix.sim_time = cfg.warmup;
    prefix.warmup = SimDuration::from_millis(1);

    let (_, before) = counted(prefix);
    let (report, total) = counted(cfg);
    let frames = report.traffic.transmissions();
    let per_frame = (total - before) as f64 / frames as f64;
    println!(
        "{} allocations after warm-up / {frames} frames sent = {per_frame:.3} \
         ({before} before the end of warm-up)",
        total - before
    );
    assert!(frames > 5_000, "the fixture sends too little: {frames}");
    assert!(
        total - before <= ALLOCATION_BOUND,
        "{} allocations after warm-up, bound {ALLOCATION_BOUND}",
        total - before
    );
    assert_eq!(
        fnv1a(report.to_json().as_bytes()),
        REPORT_FNV,
        "the report moved: this test counts allocations of one fixed run"
    );
}
