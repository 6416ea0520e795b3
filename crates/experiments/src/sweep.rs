//! What a sweep is made of: the strategy curves the paper plots, and the
//! thread pool every sweep's runs go through.

use std::sync::Mutex;

use mp2p_rpcc::{LevelMix, Strategy};

/// One strategy curve of a figure: a consistency strategy plus the query
/// level mix it is driven with.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Runs every job on a pool of OS threads and returns the results in
/// job order.
///
/// Jobs are pulled off a shared atomic index, so threads stay busy
/// regardless of how unevenly the jobs are sized, and each result is
/// written back to its job's slot, so the output order is deterministic
/// no matter which thread ran what.
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
}
