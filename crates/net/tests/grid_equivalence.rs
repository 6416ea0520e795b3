//! Equivalence proptests: the spatial-hash topology build must be
//! indistinguishable — down to per-node neighbour list *order* — from the
//! reference O(n²) pairwise scan, across node counts, terrain densities,
//! down-node patterns and link filters. Byte-identical snapshots are what
//! let the engine swap builds without perturbing seeded paper runs.

use proptest::prelude::*;

use mp2p_mobility::{Point, Terrain};
use mp2p_net::Topology;
use mp2p_sim::{NodeId, SimRng};

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
        for _ in 0..20 {
            let a = NodeId::new(probe.uniform_u64(s.n as u64) as u32);
            let b = NodeId::new(probe.uniform_u64(s.n as u64) as u32);
            prop_assert_eq!(grid.hops(a, b), naive.hops(a, b), "hops {:?}->{:?}", a, b);
            prop_assert_eq!(
                grid.shortest_path(a, b).map(|p| p.len()),
                naive.shortest_path(a, b).map(|p| p.len()),
                "path length {:?}->{:?}",
                a,
                b
            );
            let ttl = probe.uniform_u64(5) as u32;
            prop_assert_eq!(
                grid.within_hops(a, ttl),
                naive.within_hops(a, ttl),
                "ttl-{} scope of {:?} (discovery order included)",
                ttl,
                a
            );
        }
        prop_assert_eq!(grid.components(), naive.components());
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
