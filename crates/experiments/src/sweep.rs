//! Parameter-sweep execution: run the world once per (strategy, x, seed),
//! average across seeds, in parallel across OS threads.

use std::sync::Mutex;

use mp2p_rpcc::{LevelMix, RunReport, Strategy, World, WorldConfig};
use mp2p_sim::SimDuration;

/// One strategy curve of a figure: a consistency strategy plus the query
/// level mix it is driven with.
#[derive(Debug, Clone, Copy)]
pub struct StrategySpec {
    /// Curve label ("Pull", "RPCC(SC)", …).
    pub name: &'static str,
    /// The protocol under test.
    pub strategy: Strategy,
    /// The consistency mix of the query load.
    pub mix: LevelMix,
}

impl StrategySpec {
    /// The curve of `strategy` under `mix`, labelled as the paper labels
    /// it: RPCC curves carry their level mix, the baselines (which ignore
    /// the requested level) do not.
    pub fn of(strategy: Strategy, mix: LevelMix) -> Self {
        let name = match (strategy, mix.label()) {
            (Strategy::Rpcc, "SC") => "RPCC(SC)",
            (Strategy::Rpcc, "DC") => "RPCC(DC)",
            (Strategy::Rpcc, "WC") => "RPCC(WC)",
            (Strategy::Rpcc, "HY") => "RPCC(HY)",
            _ => strategy.label(),
        };
        StrategySpec {
            name,
            strategy,
            mix,
        }
    }

    /// The Table 1 world of this curve at the given horizon and seed —
    /// the starting point of every sweep point and study row.
    pub fn config(&self, opts: RunOptions, seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::paper_default(seed);
        cfg.sim_time = opts.sim_time;
        cfg.warmup = opts.warmup;
        cfg.strategy = self.strategy;
        cfg.level_mix = self.mix;
        cfg
    }
}

/// The six curves of Fig. 7/8: Pull, Push and the four RPCC variants.
pub fn paper_strategies() -> Vec<StrategySpec> {
    vec![
        StrategySpec::of(Strategy::Pull, LevelMix::strong_only()),
        StrategySpec::of(Strategy::Push, LevelMix::strong_only()),
        StrategySpec::of(Strategy::Rpcc, LevelMix::strong_only()),
        StrategySpec::of(Strategy::Rpcc, LevelMix::delta_only()),
        StrategySpec::of(Strategy::Rpcc, LevelMix::weak_only()),
        StrategySpec::of(Strategy::Rpcc, LevelMix::hybrid()),
    ]
}

/// The paper's curves plus Lan et al.'s third strategy (push with
/// adaptive pull), which the paper cites but never plots.
pub fn extended_strategies() -> Vec<StrategySpec> {
    let mut specs = paper_strategies();
    specs.push(StrategySpec::of(
        Strategy::PushAdaptivePull,
        LevelMix::strong_only(),
    ));
    specs
}

/// Sweep execution options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Simulated duration per run.
    pub sim_time: SimDuration,
    /// Warm-up excluded from metrics.
    pub warmup: SimDuration,
    /// Independent seeds averaged per point.
    pub seeds: u64,
    /// First seed.
    pub base_seed: u64,
}

impl RunOptions {
    /// Shortened runs for interactive use: 45 simulated minutes, 2 seeds.
    pub fn quick() -> Self {
        RunOptions {
            sim_time: SimDuration::from_mins(45),
            warmup: SimDuration::from_mins(10),
            seeds: 2,
            base_seed: 42,
        }
    }

    /// The paper's full scale: 5 simulated hours, 3 seeds.
    pub fn full() -> Self {
        RunOptions {
            sim_time: SimDuration::from_hours(5),
            warmup: SimDuration::from_mins(10),
            seeds: 3,
            base_seed: 42,
        }
    }

    /// Minimal smoke-test runs (used by integration tests).
    pub fn smoke() -> Self {
        RunOptions {
            sim_time: SimDuration::from_mins(12),
            warmup: SimDuration::from_mins(3),
            seeds: 1,
            base_seed: 7,
        }
    }
}

/// Seed-averaged measurements at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// The sweep's x value (minutes, seconds, items or hops).
    pub x: f64,
    /// Transmissions per simulated minute (Fig. 7/9(a) y-axis).
    pub traffic_per_min: f64,
    /// Mean query latency in seconds (Fig. 8/9(b) y-axis).
    pub latency_s: f64,
    /// Approximate 95th-percentile latency in seconds.
    pub latency_p95_s: f64,
    /// Fraction of queries abandoned.
    pub fail_rate: f64,
    /// Fraction of served answers that were behind the master copy.
    pub stale_frac: f64,
    /// Mean relay-peer items held across the network (RPCC only).
    pub relay_mean: f64,
    /// Raw transmissions (summed over seeds, for reference).
    pub transmissions: u64,
}

/// One labelled curve of seed-averaged points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label.
    pub name: &'static str,
    /// Points in sweep order.
    pub points: Vec<MeasuredPoint>,
}

fn average(x: f64, reports: &[RunReport]) -> MeasuredPoint {
    let n = reports.len().max(1) as f64;
    MeasuredPoint {
        x,
        traffic_per_min: reports
            .iter()
            .map(RunReport::traffic_per_minute)
            .sum::<f64>()
            / n,
        latency_s: reports
            .iter()
            .map(RunReport::mean_latency_secs)
            .sum::<f64>()
            / n,
        latency_p95_s: reports
            .iter()
            .map(|r| r.latency.percentile(0.95).as_secs_f64())
            .sum::<f64>()
            / n,
        fail_rate: reports.iter().map(RunReport::failure_rate).sum::<f64>() / n,
        stale_frac: reports
            .iter()
            .map(|r| 1.0 - r.audit.fresh_fraction())
            .sum::<f64>()
            / n,
        relay_mean: reports.iter().map(|r| r.relay_gauge.mean()).sum::<f64>() / n,
        transmissions: reports.iter().map(|r| r.traffic.transmissions()).sum(),
    }
}

/// Runs every job on a pool of OS threads and returns the results in
/// job order.
///
/// This is the sweep executor shared by [`sweep`] and the `matrix`
/// runner: jobs are pulled off a shared atomic index, so threads stay
/// busy regardless of how unevenly the jobs are sized, and each result
/// is written back to its job's slot, so the output order is
/// deterministic no matter which thread ran what.
pub fn run_parallel<J, R, F>(jobs: &[J], run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    break;
                };
                let result = run(job);
                results.lock().expect("no panics hold the lock")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("threads joined")
        .into_iter()
        .map(|r| r.expect("every job slot filled"))
        .collect()
}

/// Runs a full sweep: for every strategy and every x value, `configure`
/// derives the scenario from a paper-default config, runs `opts.seeds`
/// seeds, and the results are seed-averaged into one [`Series`] per
/// strategy.
///
/// Runs execute in parallel across OS threads (each run is a fully
/// independent deterministic world).
pub fn sweep<F>(
    strategies: &[StrategySpec],
    xs: &[f64],
    opts: RunOptions,
    configure: F,
) -> Vec<Series>
where
    F: Fn(&mut WorldConfig, f64) + Sync,
{
    // Build the flat job list: (strategy index, x index, seed).
    let mut jobs = Vec::new();
    for (si, spec) in strategies.iter().enumerate() {
        for (xi, &x) in xs.iter().enumerate() {
            for s in 0..opts.seeds {
                jobs.push((si, xi, x, *spec, opts.base_seed + s));
            }
        }
    }
    let reports = run_parallel(&jobs, |&(_, _, x, spec, seed)| {
        let mut cfg = spec.config(opts, seed);
        configure(&mut cfg, x);
        World::new(cfg).run()
    });
    let mut results: Vec<Vec<Vec<RunReport>>> = vec![vec![Vec::new(); xs.len()]; strategies.len()];
    for (&(si, xi, ..), report) in jobs.iter().zip(reports) {
        results[si][xi].push(report);
    }
    strategies
        .iter()
        .enumerate()
        .map(|(si, spec)| Series {
            name: spec.name,
            points: xs
                .iter()
                .enumerate()
                .map(|(xi, &x)| average(x, &results[si][xi]))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_strategy_set_is_complete() {
        let specs = paper_strategies();
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["Pull", "Push", "RPCC(SC)", "RPCC(DC)", "RPCC(WC)", "RPCC(HY)"]
        );
    }

    #[test]
    fn sweep_runs_every_point_and_averages() {
        let strategies = [StrategySpec::of(Strategy::Pull, LevelMix::strong_only())];
        let mut opts = RunOptions::smoke();
        opts.sim_time = SimDuration::from_mins(6);
        opts.warmup = SimDuration::from_mins(1);
        let xs = [10.0, 20.0];
        let series = sweep(&strategies, &xs, opts, |cfg, x| {
            cfg.n_peers = 10;
            cfg.c_num = 3;
            cfg.terrain = mp2p_mobility::Terrain::new(600.0, 600.0);
            cfg.i_query = SimDuration::from_secs(x as u64);
        });
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), 2);
        for p in &series[0].points {
            assert!(p.transmissions > 0, "pull must generate traffic");
        }
        // Longer query interval ⇒ less pull traffic.
        assert!(series[0].points[0].traffic_per_min > series[0].points[1].traffic_per_min);
    }
}
