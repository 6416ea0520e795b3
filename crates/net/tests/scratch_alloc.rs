//! Proof that the scalable substrate is allocation-free where it claims
//! to be: topology queries against a warm [`TopologyScratch`],
//! steady-state snapshot rebuilds through [`TopologyBuilder`], a
//! warm [`TopologySnapshot`] refresh (a new Verlet epoch or not) with the
//! rows and the graph asked of it, and a warm [`NetStack`] reading a borrowed frame into a warm
//! action buffer must not touch the heap. A counting global allocator
//! makes the claim a hard assertion rather than a code-review promise.
//!
//! The counter only tracks allocations made by the thread that called
//! [`arm`], between [`arm`] and [`disarm`], so the tests (and the harness
//! printing their results) cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mp2p_mobility::{Point, Terrain};
use mp2p_net::{
    FloodId, Frame, NetAction, NetConfig, NetPayload, NetStack, PartitionCut, Topology,
    TopologyBuilder, TopologyScratch, TopologySnapshot,
};
use mp2p_sim::{NodeId, SimRng, SimTime};

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

fn arm() {
    ALLOCATIONS.set(0);
    ARMED.set(true);
}

fn disarm() -> u64 {
    ARMED.set(false);
    ALLOCATIONS.get()
}

fn random_field(n: usize, seed: u64) -> (Vec<Point>, Vec<bool>) {
    let terrain = Terrain::new(2_000.0, 2_000.0);
    let mut rng = SimRng::from_seed(seed, 0xA11C);
    let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
    (positions, vec![true; n])
}

/// hops/shortest_path/within_hops against warm scratch and output
/// buffers: zero heap traffic across hundreds of queries.
#[test]
fn warm_queries_do_not_allocate() {
    let n = 300;
    let (positions, up) = random_field(n, 7);
    let topo = Topology::new(&positions, &up, 250.0);
    let mut scratch = TopologyScratch::new();
    let mut buf = Vec::new();

    let run_queries = |scratch: &mut TopologyScratch, buf: &mut Vec<NodeId>| {
        let mut probe = SimRng::from_seed(8, 0xA11D);
        for _ in 0..200 {
            let a = NodeId::new(probe.uniform_u64(n as u64) as u32);
            let b = NodeId::new(probe.uniform_u64(n as u64) as u32);
            topo.hops_with(scratch, a, b);
            topo.shortest_path_with(scratch, a, b, buf);
            topo.within_hops_with(scratch, a, 4, buf);
            topo.are_neighbors(a, b);
        }
    };

    // Warm-up: the identical workload once, growing scratch and output
    // buffers to everything the armed pass will need.
    run_queries(&mut scratch, &mut buf);

    arm();
    run_queries(&mut scratch, &mut buf);
    let count = disarm();
    assert_eq!(
        count, 0,
        "topology queries allocated {count} times after warm-up"
    );
}

/// Rebuilding a snapshot through the builder with recycled CSR arrays is
/// allocation-free at steady state (same node population).
#[test]
fn warm_rebuild_does_not_allocate() {
    let n = 500;
    let (positions, up) = random_field(n, 9);
    let mut builder = TopologyBuilder::new();

    // Two warm-up rounds: the first sizes the builder's bins and the CSR
    // arrays, the second settles recycled capacities.
    let mut topo = builder.build(&positions, &up, 250.0, |_, _| true);
    topo = builder.rebuild(Some(topo), &positions, &up, 250.0, |_, _| true);

    arm();
    let rebuilt = builder.rebuild(Some(topo), &positions, &up, 250.0, |_, _| true);
    let count = disarm();
    assert_eq!(
        count, 0,
        "steady-state topology rebuild allocated {count} times"
    );
    assert_eq!(rebuilt.len(), n);
}

/// What the engine does between two refreshes — re-take the snapshot,
/// ask a fifth of the rows, and (under the observatory or oracle routing)
/// materialise the whole graph — allocates nothing once warm: rows go to
/// the recycled arena, the graph into the previous graph's CSR arrays.
#[test]
fn warm_refresh_rows_and_graph_do_not_allocate() {
    let n = 500;
    let (positions, up) = random_field(n, 10);
    let mut snapshot = TopologySnapshot::new(250.0);
    let round = |snapshot: &mut TopologySnapshot| {
        let nodes = positions.iter().copied().zip(up.iter().copied());
        snapshot.refresh(PartitionCut::default(), nodes);
        let mut links = 0;
        for id in NodeId::all(n).step_by(5) {
            links += snapshot.neighbors(id).len();
        }
        links + snapshot.graph().edge_count()
    };

    // Two warm-up rounds, as for the rebuild above.
    round(&mut snapshot);
    round(&mut snapshot);

    arm();
    let links = round(&mut snapshot);
    let count = disarm();
    assert_eq!(
        count, 0,
        "a warm refresh with a fifth of the rows and the graph allocated {count} times"
    );
    assert!(links > 0, "the field has links");
}

/// The same between two fields far apart, so that every refresh starts
/// a new Verlet epoch: re-binning every node and collecting the
/// candidate lists again reuse the previous epoch's buffers.
#[test]
fn warm_epoch_restarts_do_not_allocate() {
    let n = 500;
    let fields = [random_field(n, 10), random_field(n, 11)];
    let mut snapshot = TopologySnapshot::new(250.0);
    let round = |snapshot: &mut TopologySnapshot| {
        let mut links = 0;
        for (positions, up) in &fields {
            let nodes = positions.iter().copied().zip(up.iter().copied());
            snapshot.refresh(PartitionCut::default(), nodes);
            for id in NodeId::all(n).step_by(5) {
                links += snapshot.neighbors(id).len();
            }
            links += snapshot.graph().edge_count();
        }
        links
    };

    round(&mut snapshot);
    round(&mut snapshot);

    arm();
    let links = round(&mut snapshot);
    let count = disarm();
    assert_eq!(
        count, 0,
        "two warm epoch restarts with their rows and graphs allocated {count} times"
    );
    assert!(links > 0, "the fields have links");
}

/// What a reception costs a warm stack: nothing for a flood it has
/// heard, nothing for a first-seen flood at the end of its TTL (one
/// `Deliver` into the caller's buffer, one id into a dedup memory in a
/// steady state: a flood a millisecond, each held 36 ms), nothing for a
/// unicast it forwards along a known route — and the frame, only
/// borrowed, is bit-equal afterwards.
#[test]
fn warm_receptions_do_not_allocate() {
    let (me, neighbour, origin, dest) = (
        NodeId::new(0),
        NodeId::new(1),
        NodeId::new(2),
        NodeId::new(3),
    );
    // Frame `seq` is heard `seq` ms into the run.
    let at = SimTime::from_millis;
    let flood = |seq: u64| Frame::Flood {
        id: FloodId { origin, seq },
        ttl: 1,
        hops: 2,
        payload: NetPayload::App(seq),
        size: 48,
    };
    let unicast = |seq: u64| Frame::Unicast {
        origin,
        seq,
        dest,
        hops: 1,
        payload: NetPayload::App(seq),
        size: 64,
    };
    let mut stack: NetStack<u64> = NetStack::new(me, NetConfig::default());
    let mut out = Vec::new();
    // Pre-grow the tables: the dedup memory turns over many times (its
    // ring grows to the ids one lifetime holds and is then reused in
    // place), and hearing `dest` flood teaches the route the unicasts are
    // forwarded along.
    let taught = Frame::Flood {
        id: FloodId {
            origin: dest,
            seq: 0,
        },
        ttl: 1,
        hops: 0,
        payload: NetPayload::App(0),
        size: 48,
    };
    stack.on_frame_into(at(0), dest, &taught, &mut out);
    for seq in 0..2_000 {
        stack.on_frame_into(at(seq), neighbour, &flood(seq), &mut out);
        stack.on_frame_into(at(seq), neighbour, &unicast(seq), &mut out);
        out.clear();
    }

    let frames: Vec<_> = (2_000..2_200)
        .map(|seq| (flood(seq), unicast(seq)))
        .collect();
    let untouched = frames.clone();
    let (mut delivered, mut forwarded) = (0, 0);
    arm();
    for (seq, (flood, unicast)) in (2_000..).zip(&frames) {
        let now = at(seq);
        stack.on_frame_into(now, neighbour, flood, &mut out); // first seen, TTL spent
        stack.on_frame_into(now, neighbour, flood, &mut out); // duplicate
        stack.on_frame_into(now, neighbour, unicast, &mut out); // relayed
        for action in out.drain(..) {
            match action {
                NetAction::Deliver { .. } => delivered += 1,
                NetAction::Send { next_hop, .. } if next_hop == dest => forwarded += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let count = disarm();
    assert_eq!(count, 0, "warm receptions allocated {count} times");
    assert_eq!((delivered, forwarded), (200, 200));
    assert_eq!(frames, untouched, "a reception only reads the frame");
}
