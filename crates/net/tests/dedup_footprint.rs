//! What a full duplicate-suppression memory costs: a stack that heard
//! many times `dedup_cap` distinct floods holds at most 28 heap bytes per
//! id it still remembers (16-byte ids in a set beside a ring of twice
//! `dedup_cap` slots held 66). A counting global allocator tracks the
//! bytes the test thread holds between [`arm`] and [`disarm`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mp2p_net::{FloodId, Frame, NetConfig, NetPayload, NetStack};
use mp2p_sim::{NodeId, SimTime};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static HELD: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    if ARMED.get() {
        HELD.set(HELD.get() + delta);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn arm() {
    HELD.set(0);
    ARMED.set(true);
}

fn disarm() {
    ARMED.set(false);
}

/// Floods from 50 origins, each heard once at the end of its TTL: every
/// one is first seen, delivered and remembered, none is re-broadcast.
/// Checked once the memory has turned over three times, and again after
/// forty, past the point where evictions' tombstones used to double the
/// set (to 44 B an id, and 100 B with 16-byte ids).
#[test]
fn a_full_flood_memory_holds_at_most_28_bytes_per_id() {
    let cfg = NetConfig::default();
    let cap = cfg.dedup_cap as u64;
    let (me, neighbour) = (NodeId::new(0), NodeId::new(1));
    let mut out = Vec::with_capacity(4);

    arm();
    let mut stack: NetStack<u64> = NetStack::new(me, cfg);
    for i in 0..40 * cap {
        let id = FloodId {
            origin: NodeId::new(1 + (i % 50) as u32),
            seq: i / 50,
        };
        let flood = Frame::Flood {
            id,
            ttl: 1,
            hops: 0,
            payload: NetPayload::App(i),
            size: 48,
        };
        stack.on_frame_into(SimTime::ZERO, neighbour, &flood, &mut out);
        assert_eq!(out.len(), 1, "flood {i} is first seen and delivered");
        out.clear();
        if i + 1 == 3 * cap || i + 1 == 40 * cap {
            let per_id = HELD.get() as f64 / cap as f64;
            let turns = (i + 1) / cap;
            assert!(per_id <= 28.0, "after {turns} turns: {per_id:.1} B an id");
        }
    }
    disarm();
    drop(stack);
}
