//! Density-scaled scenarios for throughput work at any peer count.
//!
//! The repo's performance instrument is `perfbench/` (see its README);
//! it builds its worlds through [`bench_config`], so the scenario of a
//! benchmark point is stated once, here. The same scenario is reachable
//! from the command line as `mp2p run --peers N --terrain SIDE --profile`
//! with `SIDE = √(45 000 · N)` — 9 487 m for 2 000 peers, 15 000 m for
//! 5 000.

use mp2p_mobility::Terrain;
use mp2p_rpcc::{Strategy, WorldConfig};
use mp2p_sim::SimDuration;

/// Square metres of flatland per peer in the paper's Table 1 scenario:
/// 1500 m × 1500 m shared by 50 peers. Large-n bench scenarios keep this
/// density so hop counts and contention stay comparable as `n` grows.
pub const AREA_PER_PEER_M2: f64 = 45_000.0;

/// Terrain of a bench scenario. Up to the paper's 50 peers this is the
/// Table 1 flatland unchanged; beyond 50 peers the square is scaled to
/// hold [`AREA_PER_PEER_M2`] constant — 2 000 peers get a 9.5 km side,
/// 5 000 peers 15 km.
pub fn bench_terrain(peers: usize) -> Terrain {
    if peers <= 50 {
        Terrain::paper_default()
    } else {
        let side = (peers as f64 * AREA_PER_PEER_M2).sqrt();
        Terrain::new(side, side)
    }
}

/// The full scenario of one bench point: Table 1 defaults with the given
/// strategy, peer count, horizon and seed on [`bench_terrain`].
pub fn bench_config(
    strategy: Strategy,
    peers: usize,
    sim: SimDuration,
    warmup: SimDuration,
    seed: u64,
) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.strategy = strategy;
    cfg.n_peers = peers;
    cfg.terrain = bench_terrain(peers);
    cfg.sim_time = sim;
    cfg.warmup = warmup;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_terrain_keeps_density() {
        // Paper scale: Table 1 terrain verbatim.
        assert_eq!(bench_terrain(25), Terrain::paper_default());
        assert_eq!(bench_terrain(50), Terrain::paper_default());
        // Large n: the square grows to hold area/peer constant.
        for peers in [500usize, 2_000, 5_000] {
            let t = bench_terrain(peers);
            assert_eq!(t.width(), t.height(), "scaled terrain stays square");
            let per_peer = t.width() * t.height() / peers as f64;
            assert!(
                (per_peer - AREA_PER_PEER_M2).abs() < 1.0,
                "density drifted: {per_peer} m²/peer at n={peers}"
            );
        }
        // And the config builder wires the terrain through validation.
        let cfg = bench_config(
            Strategy::Rpcc,
            500,
            SimDuration::from_mins(1),
            SimDuration::from_secs(15),
            42,
        );
        cfg.validate();
        assert_eq!(cfg.terrain, bench_terrain(500));
    }
}
