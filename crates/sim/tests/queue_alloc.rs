//! Proof that a warm [`EventQueue`] never reaches the allocator: once it
//! has held its peak, `push` and `pop` below that depth are heap-free in
//! any order, draining to empty in between. A counting global allocator
//! (the `scratch_alloc.rs` idiom of `mp2p-net`) makes it an assertion;
//! the crate itself forbids `unsafe`, so the allocator lives out here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mp2p_sim::{EventQueue, SimTime};

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

/// An event the size of the engine's (136 bytes).
type Body = [u64; 17];

#[test]
fn warm_push_and_pop_do_not_allocate() {
    const PEAK: usize = 1_000;
    let churn = |q: &mut EventQueue<Body>| {
        let mut state = 1u64;
        let mut draw = move |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % below
        };
        for round in 0..20_000u64 {
            let fill = q.len() < PEAK && draw(2) == 0;
            if fill || q.is_empty() {
                q.push(SimTime::from_millis(round + draw(50)), [round; 17]);
            } else {
                q.pop();
            }
        }
        while q.pop().is_some() {}
        for i in 0..PEAK as u64 {
            q.push(SimTime::from_millis(draw(50)), [i; 17]);
        }
    };
    let mut q = EventQueue::with_capacity(16);
    for i in 0..PEAK as u64 {
        q.push(SimTime::from_millis(i % 7), [i; 17]);
    }
    while q.pop().is_some() {}

    ALLOCATIONS.set(0);
    ARMED.set(true);
    churn(&mut q);
    ARMED.set(false);
    assert_eq!(ALLOCATIONS.get(), 0, "a warm queue reached the allocator");
    assert_eq!(q.len(), PEAK);
    assert_eq!(q.stats().peak_len, PEAK);
}
