//! What a duplicate-suppression memory costs once its stream is steady:
//! the heap bytes a stack holds depend on the floods heard within one
//! memory lifetime, not on how long the stream has run. A counting
//! global allocator tracks the bytes the test thread holds between
//! [`arm`] and [`disarm`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mp2p_net::{FloodId, Frame, NetConfig, NetPayload, NetStack};
use mp2p_sim::{NodeId, SimDuration, SimTime};

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

/// A steady stream: one flood a millisecond, round-robin over 50
/// origins, each sent with TTL 8 and heard at the end of it, so every
/// one is first seen, delivered and remembered and none re-broadcast.
/// On the default link a 48-byte flood of TTL 8 lives 96 ms, so each
/// memory holds the ids of the last 97 ms. The stack's heap bytes (both
/// memories and a route to each origin) are the same after 3 lifetimes
/// and after 40, and under 6 KiB.
#[test]
fn bytes_held_are_independent_of_stream_length() {
    const LIFETIME_MS: u64 = 96;
    let (me, neighbour) = (NodeId::new(0), NodeId::new(1));
    let mut out = Vec::with_capacity(4);
    let mut held = Vec::with_capacity(2);

    arm();
    let mut stack: NetStack<u64> = NetStack::new(me, NetConfig::default());
    for i in 0..40 * LIFETIME_MS {
        let id = FloodId {
            origin: NodeId::new(1 + (i % 50) as u32),
            seq: i / 50,
        };
        let flood = Frame::Flood {
            id,
            ttl: 1,
            hops: 7,
            payload: NetPayload::App(i),
            size: 48,
        };
        let now = SimTime::ZERO + SimDuration::from_millis(i);
        stack.on_frame_into(now, neighbour, &flood, &mut out);
        assert_eq!(out.len(), 1, "flood {i} is first seen and delivered");
        out.clear();
        if i + 1 == 3 * LIFETIME_MS || i + 1 == 40 * LIFETIME_MS {
            held.push(HELD.get());
        }
    }
    disarm();
    drop(stack);
    assert_eq!(
        held[0], held[1],
        "bytes held after 3 and after 40 lifetimes"
    );
    assert!(held[0] <= 6 * 1024, "{} B held", held[0]);
}
