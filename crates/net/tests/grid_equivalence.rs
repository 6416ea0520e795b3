//! Equivalence proptests: the spatial-hash topology build must be
//! indistinguishable — down to per-node neighbour list *order* — from the
//! reference O(n²) pairwise scan, across node counts, terrain densities,
//! down-node patterns and link filters. Byte-identical snapshots are what
//! let the engine swap builds without perturbing seeded paper runs.
//!
//! The engine's own [`TopologySnapshot`] builds a row only when asked:
//! each such row, whenever and in whatever order it is asked for, must be
//! the row of the full build, and its O(1) link test the reference's
//! neighbour relation — also while the nodes move between refreshes of
//! one snapshot, which is what lets it keep state across them.

use proptest::prelude::*;

use mp2p_mobility::{
    AnyMobility, ManhattanGrid, MobilityModel, Point, RandomWalk, RandomWaypoint, Terrain,
};
use mp2p_net::{PartitionCut, Topology, TopologyBuilder, TopologyScratch, TopologySnapshot};
use mp2p_sim::{NodeId, SimDuration, SimRng, SimTime, TopologyStats};

/// Scenario knobs the proptest explores. Positions and the up/down mask
/// are derived from `seed` so shrinking stays meaningful.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    n: usize,
    /// Terrain side in metres: from one-cell dense clusters (everything
    /// within a single grid cell) to sparse fields many cells wide.
    side: f64,
    /// Probability that a node is switched off.
    down_prob: f64,
    filter: Filter,
}

#[derive(Debug, Clone, Copy)]
enum Filter {
    None,
    /// Severs links crossing the vertical terrain midline (the fault
    /// injector's partition shape).
    Bisect,
    /// An arbitrary asymmetric pair predicate.
    PairParity,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        1usize..120,
        prop_oneof![Just(100.0), Just(400.0), Just(1_500.0), Just(4_000.0)],
        prop_oneof![Just(0.0), Just(0.2), Just(0.6)],
        prop_oneof![
            Just(Filter::None),
            Just(Filter::Bisect),
            Just(Filter::PairParity)
        ],
    )
        .prop_map(|(seed, n, side, down_prob, filter)| Scenario {
            seed,
            n,
            side,
            down_prob,
            filter,
        })
}

fn materialize(s: &Scenario) -> (Vec<Point>, Vec<bool>) {
    let terrain = Terrain::new(s.side, s.side);
    let mut rng = SimRng::from_seed(s.seed, 0xE0);
    let positions: Vec<Point> = (0..s.n).map(|_| terrain.random_point(&mut rng)).collect();
    let up: Vec<bool> = (0..s.n).map(|_| !rng.bernoulli(s.down_prob)).collect();
    (positions, up)
}

fn build_both(s: &Scenario) -> (Topology, Topology) {
    let (positions, up) = materialize(s);
    let mid = s.side / 2.0;
    let keep = |a: usize, b: usize| match s.filter {
        Filter::None => true,
        Filter::Bisect => (positions[a].x < mid) == (positions[b].x < mid),
        Filter::PairParity => !(a * 31 + b * 17).is_multiple_of(5),
    };
    let grid = Topology::with_link_filter(&positions, &up, 250.0, keep);
    let naive = Topology::with_link_filter_naive(&positions, &up, 250.0, keep);
    (grid, naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CSR snapshots agree node-by-node, in order.
    #[test]
    fn prop_neighbor_lists_identical(s in scenarios()) {
        let (grid, naive) = build_both(&s);
        prop_assert_eq!(grid.len(), naive.len());
        prop_assert_eq!(grid.edge_count(), naive.edge_count());
        for i in 0..s.n {
            let id = NodeId::new(i as u32);
            prop_assert_eq!(grid.is_up(id), naive.is_up(id));
            prop_assert_eq!(
                grid.neighbors(id),
                naive.neighbors(id),
                "node {} neighbour lists (order included) diverged",
                i
            );
        }
    }

    /// Graph queries agree: hop counts, TTL scopes (in discovery order)
    /// and the component decomposition.
    #[test]
    fn prop_queries_identical(s in scenarios()) {
        let (grid, naive) = build_both(&s);
        let mut probe = SimRng::from_seed(s.seed, 0xE1);
        let mut scratch = TopologyScratch::new();
        let (mut of_grid, mut of_naive) = (Vec::new(), Vec::new());
        for _ in 0..20 {
            let a = NodeId::new(probe.uniform_u64(s.n as u64) as u32);
            let b = NodeId::new(probe.uniform_u64(s.n as u64) as u32);
            prop_assert_eq!(
                grid.hops_with(&mut scratch, a, b),
                naive.hops_with(&mut scratch, a, b),
                "hops {:?}->{:?}",
                a,
                b
            );
            prop_assert_eq!(
                grid.shortest_path_with(&mut scratch, a, b, &mut of_grid),
                naive.shortest_path_with(&mut scratch, a, b, &mut of_naive),
                "path {:?}->{:?} exists in one build only",
                a,
                b
            );
            prop_assert_eq!(of_grid.len(), of_naive.len(), "path length {:?}->{:?}", a, b);
            let ttl = probe.uniform_u64(5) as u32;
            grid.within_hops_with(&mut scratch, a, ttl, &mut of_grid);
            naive.within_hops_with(&mut scratch, a, ttl, &mut of_naive);
            prop_assert_eq!(
                &of_grid,
                &of_naive,
                "ttl-{} scope of {:?} (discovery order included)",
                ttl,
                a
            );
        }
        prop_assert_eq!(
            grid.components_with(&mut scratch),
            naive.components_with(&mut scratch)
        );
    }

    /// Pairs placed at `range·(1 ± ε)` for ε from zero through and past
    /// the grid build's 1e-9 guard band: inside the band it must fall
    /// back to the reference's `hypot`, outside it the squared distance
    /// must already agree. Random geometry almost never lands here.
    #[test]
    fn prop_pairs_on_the_range_boundary_identical(
        seed in any::<u64>(),
        pairs in 1usize..24,
        range in prop_oneof![Just(250.0), Just(100.0), Just(93.7), Just(2_500.0)],
    ) {
        const EPSILONS: [f64; 12] = [
            0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6,
        ];
        let mut rng = SimRng::from_seed(seed, 0xE2);
        let mut positions = Vec::with_capacity(2 * pairs);
        for _ in 0..pairs {
            let base = Point::new(
                rng.uniform_f64_range(0.0, 2_000.0),
                rng.uniform_f64_range(0.0, 2_000.0),
            );
            let angle = rng.uniform_f64_range(0.0, std::f64::consts::TAU);
            let eps = *rng.choose(&EPSILONS).expect("non-empty");
            let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
            let reach = range * (1.0 + sign * eps);
            positions.push(base);
            positions.push(Point::new(
                base.x + reach * angle.cos(),
                base.y + reach * angle.sin(),
            ));
        }
        let up = vec![true; positions.len()];
        let grid = Topology::new(&positions, &up, range);
        let naive = Topology::with_link_filter_naive(&positions, &up, range, |_, _| true);
        for i in 0..positions.len() {
            let id = NodeId::new(i as u32);
            prop_assert_eq!(grid.neighbors(id), naive.neighbors(id), "node {}", i);
        }
    }

    /// are_neighbors (binary search on the grid build) matches the
    /// reference relation on every pair.
    #[test]
    fn prop_are_neighbors_identical(s in scenarios()) {
        let (grid, naive) = build_both(&s);
        for i in 0..s.n {
            for j in 0..s.n {
                let (a, b) = (NodeId::new(i as u32), NodeId::new(j as u32));
                prop_assert_eq!(grid.are_neighbors(a, b), naive.are_neighbors(a, b));
            }
        }
    }
}

/// The cut through the middle of a `side`-metre square, on the chosen
/// axes.
fn midlines(side: f64, cut_x: bool, cut_y: bool) -> PartitionCut {
    PartitionCut {
        mid_x: cut_x.then_some(side / 2.0),
        mid_y: cut_y.then_some(side / 2.0),
    }
}

/// `cut` as the `keep(i, j)` link filter of a build over `positions`.
fn cut_filter(cut: PartitionCut, positions: &[Point]) -> impl Fn(usize, usize) -> bool + '_ {
    move |i, j| cut.keeps(positions[i], positions[j])
}

fn refresh(snapshot: &mut TopologySnapshot, cut: PartitionCut, positions: &[Point], up: &[bool]) {
    snapshot.refresh(cut, positions.iter().copied().zip(up.iter().copied()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One snapshot and one builder recycled over six fields of varying
    /// size: a shuffled subset of rows asked on demand, twice over,
    /// equals the full rebuild's and the reference's rows and is built
    /// once; the materialised graph is the full rebuild, and rows asked
    /// after it are still the same rows.
    #[test]
    fn prop_rows_on_demand_identical(
        seed in any::<u64>(),
        side in prop_oneof![Just(100.0), Just(400.0), Just(1_500.0), Just(4_000.0)],
        down_prob in prop_oneof![Just(0.0), Just(0.2), Just(0.6)],
        cut_x in any::<bool>(),
        cut_y in any::<bool>(),
    ) {
        let terrain = Terrain::new(side, side);
        let cut = midlines(side, cut_x, cut_y);
        let mut rng = SimRng::from_seed(seed, 0xE3);
        let mut snapshot = TopologySnapshot::new(250.0);
        let mut builder = TopologyBuilder::new();
        let mut retired: Option<Topology> = None;
        for round in 0..6 {
            let n = 1 + rng.uniform_u64(119) as usize;
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let up: Vec<bool> = (0..n).map(|_| !rng.bernoulli(down_prob)).collect();
            let keep = cut_filter(cut, &positions);
            let full = builder.rebuild(retired.take(), &positions, &up, 250.0, &keep);
            let naive = Topology::with_link_filter_naive(&positions, &up, 250.0, &keep);
            refresh(&mut snapshot, cut, &positions, &up);

            let mut ids: Vec<NodeId> = NodeId::all(n).collect();
            rng.shuffle(&mut ids);
            let asked = &mut ids[..rng.uniform_u64(n as u64 + 1) as usize];
            let built_before = snapshot.stats().rows_built;
            for pass in 0..2 {
                rng.shuffle(asked);
                for &id in asked.iter() {
                    let row = snapshot.neighbors(id);
                    prop_assert_eq!(row, full.neighbors(id), "round {} pass {} {:?}", round, pass, id);
                    prop_assert_eq!(row, naive.neighbors(id), "round {} pass {} {:?}", round, pass, id);
                }
            }
            let built = snapshot.stats().rows_built - built_before;
            prop_assert_eq!(built, asked.len() as u64, "a row asked twice is built once");

            let graph = snapshot.graph();
            prop_assert_eq!(graph.edge_count(), full.edge_count());
            for id in NodeId::all(n) {
                prop_assert_eq!(graph.is_up(id), up[id.index()]);
                prop_assert_eq!(graph.neighbors(id), full.neighbors(id), "round {} graph {:?}", round, id);
            }
            for id in NodeId::all(n) {
                prop_assert_eq!(snapshot.neighbors(id), full.neighbors(id), "round {} after graph {:?}", round, id);
            }
            retired = Some(full);
        }
        prop_assert_eq!(snapshot.stats().snapshots, 6);
    }

    /// The O(1) link test is the reference neighbour relation on every
    /// ordered pair — of pairs planted at `range·(1 ± ε)` as in
    /// `prop_pairs_on_the_range_boundary_identical`, some switched off,
    /// under a cut or none — and the on-demand rows agree with it.
    #[test]
    fn prop_link_test_matches_the_reference_on_the_range_boundary(
        seed in any::<u64>(),
        pairs in 1usize..24,
        range in prop_oneof![Just(250.0), Just(100.0), Just(93.7), Just(2_500.0)],
        cut_x in any::<bool>(),
        cut_y in any::<bool>(),
    ) {
        const EPSILONS: [f64; 12] = [
            0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6,
        ];
        let mut rng = SimRng::from_seed(seed, 0xE4);
        let mut positions = Vec::with_capacity(2 * pairs);
        for _ in 0..pairs {
            let base = Point::new(
                rng.uniform_f64_range(0.0, 2_000.0),
                rng.uniform_f64_range(0.0, 2_000.0),
            );
            let angle = rng.uniform_f64_range(0.0, std::f64::consts::TAU);
            let eps = *rng.choose(&EPSILONS).expect("non-empty");
            let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
            let reach = range * (1.0 + sign * eps);
            positions.push(base);
            positions.push(Point::new(
                base.x + reach * angle.cos(),
                base.y + reach * angle.sin(),
            ));
        }
        let up: Vec<bool> = positions.iter().map(|_| !rng.bernoulli(0.1)).collect();
        let cut = midlines(2_000.0, cut_x, cut_y);
        let naive = Topology::with_link_filter_naive(&positions, &up, range, cut_filter(cut, &positions));
        let mut snapshot = TopologySnapshot::new(range);
        refresh(&mut snapshot, cut, &positions, &up);
        for a in NodeId::all(positions.len()) {
            for b in NodeId::all(positions.len()) {
                prop_assert_eq!(snapshot.linked(a, b), naive.are_neighbors(a, b), "{:?} -> {:?}", a, b);
            }
            prop_assert_eq!(snapshot.neighbors(a), naive.neighbors(a), "row of {:?}", a);
        }
        prop_assert_eq!(snapshot.stats().rows_built, positions.len() as u64, "the link test builds no row");
    }
}

/// Half of every extra reach, from 5 to 100 m, that a neighbour list
/// kept across refreshes might be collected with: a node displaced by one
/// of these, give or take a few ulp, stands on a restart threshold.
const HALF_SKINS: [f64; 6] = [2.5, 5.0, 10.0, 12.5, 25.0, 50.0];

/// How far off a threshold a planted displacement lands, relative: zero,
/// a few ulp, and through and past the 1e-9 guard band to a millimetre
/// in 25 m.
const NUDGES: [f64; 9] = [
    0.0, 2.2e-16, 4.4e-16, 6.7e-16, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5,
];

/// Per-refresh steps of the free nodes in a stretch: standing still,
/// drifting by less than any skin, and jumping past all of them.
const STEPS: [f64; 7] = [0.0, 1e-9, 0.05, 0.4, 2.5, 30.0, 300.0];

/// Refreshes per stretch of [`prop_rows_follow_nodes_that_move_between_refreshes`].
const STRETCH: u32 = 12;

/// Two nodes on a line through `a0` along `u`, `d0` apart at a stretch's
/// first refresh, that close (or open) the gap by `h` per mover by its
/// last: they cross the radio range in mid-stretch or at its end.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    a0: Point,
    u: (f64, f64),
    d0: f64,
    h: f64,
    /// Both ends move, or only the second.
    both: bool,
    closing: bool,
}

impl Crossing {
    fn draw(rng: &mut SimRng, range: f64, side: f64) -> Crossing {
        let half_skin = *rng.choose(&HALF_SKINS).expect("non-empty");
        let nudge = *rng.choose(&NUDGES).expect("non-empty");
        let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
        let h = half_skin * (1.0 + sign * nudge);
        let both = rng.bernoulli(0.75);
        let gap = if both { 2.0 * h } else { h };
        // Cross exactly at the stretch's end, or at its midpoint.
        let gap = if rng.bernoulli(0.75) { gap } else { gap / 2.0 };
        let closing = rng.bernoulli(0.75) || gap >= range;
        let angle = if rng.bernoulli(0.5) {
            rng.uniform_f64_range(0.0, std::f64::consts::TAU)
        } else {
            // Along an axis, the displacement is a single rounding.
            f64::from(rng.uniform_u64(4) as u32) * std::f64::consts::FRAC_PI_2
        };
        Crossing {
            a0: Point::new(
                rng.uniform_f64_range(0.0, side),
                rng.uniform_f64_range(0.0, side),
            ),
            u: (angle.cos(), angle.sin()),
            d0: if closing { range + gap } else { range - gap },
            h,
            both,
            closing,
        }
    }

    /// The two ends at refresh `k` of the stretch; at `k == STRETCH` each
    /// mover is displaced by exactly `h` along the line.
    fn at(&self, k: u32) -> [Point; 2] {
        let s = self.h * f64::from(k) / f64::from(STRETCH);
        let (toward_b, toward_a) = if self.closing { (s, -s) } else { (-s, s) };
        let along = |t: f64| Point::new(self.a0.x + self.u.0 * t, self.a0.y + self.u.1 * t);
        [
            along(if self.both { toward_b } else { 0.0 }),
            along(self.d0 + toward_a),
        ]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One snapshot refreshed 4 × 12 times while its nodes move. Each
    /// stretch has its own node count and its own step for the free
    /// nodes, from standing still to jumping past any plausible skin.
    /// Planted pairs cross the range in mid-stretch or at its end, inwards
    /// and outwards, each mover displaced by a half-skin give or take a few
    /// ulp; a node down at a stretch's start comes up in its middle; a
    /// cut opens and heals inside it; free nodes switch at random. After
    /// every refresh each asked row (and every planted end's), the link
    /// test on sampled pairs and, every third refresh, the whole graph
    /// equal the reference build of that instant.
    #[test]
    fn prop_rows_follow_nodes_that_move_between_refreshes(
        seed in any::<u64>(),
        range in prop_oneof![Just(250.0), Just(100.0), Just(93.7)],
        cut_x in any::<bool>(),
        cut_y in any::<bool>(),
    ) {
        let side = 1_200.0;
        let terrain = Terrain::new(side, side);
        let mut rng = SimRng::from_seed(seed, 0xE6);
        let mut snapshot = TopologySnapshot::new(range);
        let mut free: Vec<Point> = (0..48).map(|_| terrain.random_point(&mut rng)).collect();
        let mut free_up = vec![true; free.len()];
        let mut n_free = 0;
        for stretch in 0..4 {
            let mut next = 4 + rng.uniform_u64(44) as usize;
            if next == n_free {
                next += 1;
            }
            n_free = next;
            let step = *rng.choose(&STEPS).expect("non-empty");
            let crossings: Vec<Crossing> = (0..1 + rng.uniform_u64(8))
                .map(|_| Crossing::draw(&mut rng, range, side))
                .collect();
            let late_riser = crossings[0].at(0)[1];
            let late = Point::new(late_riser.x + range / 3.0, late_riser.y);
            let planted: Vec<NodeId> = NodeId::all(n_free + 2 * crossings.len() + 1)
                .skip(n_free)
                .collect();
            for k in 0..=STRETCH {
                if k > 0 {
                    for (p, up) in free.iter_mut().zip(free_up.iter_mut()).take(n_free) {
                        let angle = rng.uniform_f64_range(0.0, std::f64::consts::TAU);
                        p.x = (p.x + step * angle.cos()).clamp(0.0, side);
                        p.y = (p.y + step * angle.sin()).clamp(0.0, side);
                        *up ^= rng.bernoulli(0.05);
                    }
                }
                let mut positions = free[..n_free].to_vec();
                let mut up = free_up[..n_free].to_vec();
                for c in &crossings {
                    positions.extend(c.at(k));
                    up.extend([true, true]);
                }
                positions.push(late);
                up.push(k >= STRETCH / 2);
                let open = (STRETCH / 3..2 * STRETCH / 3).contains(&k);
                let cut = if open { midlines(side, cut_x, cut_y) } else { PartitionCut::default() };
                let naive = Topology::with_link_filter_naive(&positions, &up, range, cut_filter(cut, &positions));
                refresh(&mut snapshot, cut, &positions, &up);

                let n = positions.len();
                let mut asked: Vec<NodeId> = NodeId::all(n).filter(|_| rng.bernoulli(0.3)).collect();
                asked.extend(&planted);
                rng.shuffle(&mut asked);
                for &id in &asked {
                    prop_assert_eq!(snapshot.neighbors(id), naive.neighbors(id), "stretch {} refresh {} row of {:?}", stretch, k, id);
                }
                for _ in 0..4 {
                    let a = NodeId::new(rng.uniform_u64(n as u64) as u32);
                    for b in NodeId::all(n) {
                        prop_assert_eq!(snapshot.linked(a, b), naive.are_neighbors(a, b), "stretch {} refresh {} {:?} -> {:?}", stretch, k, a, b);
                    }
                }
                for pair in planted[..2 * crossings.len()].chunks(2) {
                    prop_assert_eq!(snapshot.linked(pair[0], pair[1]), naive.are_neighbors(pair[0], pair[1]));
                }
                if k % 3 == 0 {
                    let graph = snapshot.graph();
                    prop_assert_eq!(graph.edge_count(), naive.edge_count(), "stretch {} refresh {}", stretch, k);
                    for id in NodeId::all(n) {
                        prop_assert_eq!(graph.neighbors(id), naive.neighbors(id), "stretch {} refresh {} graph {:?}", stretch, k, id);
                    }
                }
            }
        }
    }
}

/// Table 1's speeds (0.5–2.5 m/s, 30 s pauses).
fn waypoint(terrain: Terrain, rng: SimRng) -> AnyMobility {
    RandomWaypoint::new(terrain, 0.5, 2.5, SimDuration::from_secs(30), rng).into()
}

/// The `walk` model's defaults: it reflects at the terrain's edge.
fn walk(terrain: Terrain, rng: SimRng) -> AnyMobility {
    RandomWalk::new(terrain, 0.5, 2.5, SimDuration::from_secs(60), rng).into()
}

/// The `manhattan` model's defaults: 8 m/s, turning at 150 m corners.
fn manhattan(terrain: Terrain, rng: SimRng) -> AnyMobility {
    ManhattanGrid::new(terrain, 150.0, 8.0, rng).into()
}

/// The engine's access pattern: `n` peers of `model` on
/// `perf::bench_terrain(n)`'s square, `steps` consecutive 200 ms
/// refreshes with one peer switched per step and a vertical cut open for
/// the middle third; a seeded fifth of the rows is asked each step and
/// each must be the row a full rebuild of the same step holds — and,
/// every 50th step, the reference's.
fn on_demand_rows_match_the_full_rebuild(
    n: usize,
    steps: u64,
    model: fn(Terrain, SimRng) -> AnyMobility,
) {
    let side = (n as f64 * 45_000.0).sqrt();
    let terrain = Terrain::new(side, side);
    let mut peers: Vec<AnyMobility> = (0..n as u64)
        .map(|i| model(terrain, SimRng::from_seed(21, 0x100 + i)))
        .collect();
    let mut up = vec![true; n];
    let mut rng = SimRng::from_seed(21, 0xE5);
    let mut ids: Vec<NodeId> = NodeId::all(n).collect();
    let mut snapshot = TopologySnapshot::new(250.0);
    let mut builder = TopologyBuilder::new();
    let mut retired: Option<Topology> = None;
    for step in 0..steps {
        let now = SimTime::ZERO + SimDuration::from_millis(200 * step);
        let positions: Vec<Point> = peers.iter_mut().map(|p| p.position_at(now)).collect();
        let flipped = rng.uniform_u64(n as u64) as usize;
        up[flipped] = !up[flipped];
        let cut = midlines(side, (steps / 3..2 * steps / 3).contains(&step), false);
        let keep = cut_filter(cut, &positions);
        refresh(&mut snapshot, cut, &positions, &up);
        let full = builder.rebuild(retired.take(), &positions, &up, 250.0, &keep);
        let naive = (step % 50 == 0)
            .then(|| Topology::with_link_filter_naive(&positions, &up, 250.0, &keep));
        rng.shuffle(&mut ids);
        for &id in &ids[..n / 5] {
            let row = snapshot.neighbors(id);
            assert_eq!(row, full.neighbors(id), "step {step}, row of {id:?}");
            if let Some(naive) = &naive {
                assert_eq!(row, naive.neighbors(id), "step {step}, row of {id:?}");
            }
        }
        retired = Some(full);
    }
    let expected = TopologyStats {
        snapshots: steps,
        rows_built: steps * (n as u64 / 5),
    };
    assert_eq!(snapshot.stats(), expected, "only the asked rows were built");
}

/// 200 waypoint peers over a simulated minute: at Table 1's speeds the
/// field moves tens of metres, in the time the engine takes 300
/// snapshots.
#[test]
fn on_demand_rows_match_the_full_rebuild_over_a_200_peer_run() {
    on_demand_rows_match_the_full_rebuild(200, 300, waypoint);
}

/// The differential `./ci` runs in release: 2 000 peers x 600 refreshes,
/// the benchmark's scale, for the waypoint, walk and Manhattan models.
#[test]
#[ignore = "2 000 peers x 600 steps x 3 models: run in release, as ./ci does"]
fn on_demand_rows_match_the_full_rebuild_over_a_2000_peer_run() {
    for model in [waypoint, walk, manhattan] {
        on_demand_rows_match_the_full_rebuild(2_000, 600, model);
    }
}
