//! Hostile-environment runs: heavy churn, lossy links, sparse topologies
//! and partitions. The protocols must degrade gracefully — no panics, no
//! accounting leaks, and the recovery machinery (Section 4.5) must keep
//! the system serving.

use mp2p::experiments::check_report;
use mp2p::net::{FaultPlan, LinkModel};
use mp2p::rpcc::{LevelMix, MobilityKind, RunReport, Strategy, World, WorldConfig};
use mp2p::sim::SimDuration;

fn hostile(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.n_peers = 25;
    cfg.terrain = mp2p::mobility::Terrain::new(1_200.0, 1_200.0);
    cfg.c_num = 5;
    cfg.sim_time = SimDuration::from_mins(15);
    cfg.warmup = SimDuration::from_mins(3);
    // 10% frame loss, disconnections every ~2 min lasting ~45 s.
    cfg.link = LinkModel::new(
        2_000_000,
        SimDuration::from_millis(1),
        SimDuration::from_millis(4),
        0.10,
    );
    cfg.i_switch = Some(SimDuration::from_mins(2));
    cfg.switch_off_mean = SimDuration::from_secs(45);
    cfg
}

fn run(strategy: Strategy, mix: LevelMix, seed: u64) -> RunReport {
    let mut cfg = hostile(seed);
    cfg.strategy = strategy;
    cfg.level_mix = mix;
    World::new(cfg).run()
}

#[test]
fn hostile_runs_complete_for_every_strategy() {
    for strategy in [Strategy::Rpcc, Strategy::Push, Strategy::Pull] {
        let r = run(strategy, LevelMix::hybrid(), 1);
        assert_eq!(r.queries_issued, r.queries_served() + r.queries_failed);
        assert!(
            r.audit.served() > 0,
            "{strategy} must keep serving under churn and loss"
        );
    }
}

#[test]
fn hostile_runs_stay_deterministic() {
    let a = run(Strategy::Rpcc, LevelMix::hybrid(), 2);
    let b = run(Strategy::Rpcc, LevelMix::hybrid(), 2);
    assert_eq!(a.traffic.transmissions(), b.traffic.transmissions());
    assert_eq!(a.audit.served(), b.audit.served());
    assert_eq!(a.queries_failed, b.queries_failed);
}

#[test]
fn weak_reads_survive_anything() {
    let r = run(Strategy::Rpcc, LevelMix::weak_only(), 3);
    assert_eq!(r.queries_failed, 0, "weak reads are local and cannot fail");
}

#[test]
fn relay_overlay_survives_churn() {
    let r = run(Strategy::Rpcc, LevelMix::strong_only(), 4);
    assert!(
        r.relay_gauge.mean() > 0.0,
        "the coefficient machinery must keep electing relays despite churn"
    );
    // Churny nodes get demoted, so the overlay is smaller than in calm
    // runs — but it must exist and turn over (max above mean indicates
    // re-formation).
    assert!(r.relay_gauge.max() >= r.relay_gauge.mean());
}

#[test]
fn loss_costs_traffic_but_not_correctness() {
    let mut calm_cfg = hostile(5);
    calm_cfg.link = calm_cfg.link.lossless();
    calm_cfg.i_switch = None;
    calm_cfg.strategy = Strategy::Rpcc;
    calm_cfg.level_mix = LevelMix::strong_only();
    let calm = World::new(calm_cfg).run();
    let rough = run(Strategy::Rpcc, LevelMix::strong_only(), 5);
    assert!(
        rough.failure_rate() >= calm.failure_rate(),
        "loss and churn cannot make queries *more* reliable: calm {:.3} vs rough {:.3}",
        calm.failure_rate(),
        rough.failure_rate()
    );
    // Staleness bound still holds relative to the report cycle + the
    // off-period a relay may sleep through (disconnection handling,
    // Section 4.5): generous bound of three cycles.
    assert!(
        rough.audit.max_staleness() <= SimDuration::from_mins(6),
        "SC staleness under churn must stay within a few report cycles, got {}",
        rough.audit.max_staleness()
    );
}

#[test]
fn sparse_partitioned_network_fails_queries_but_never_lies() {
    // A genuinely partitioned deployment: islands of nodes.
    let mut cfg = WorldConfig::paper_default(6);
    cfg.n_peers = 16;
    cfg.terrain = mp2p::mobility::Terrain::new(3_000.0, 3_000.0); // very sparse
    cfg.sim_time = SimDuration::from_mins(12);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.c_num = 4;
    cfg.strategy = Strategy::Rpcc;
    cfg.level_mix = LevelMix::strong_only();
    cfg.mobility = MobilityKind::Stationary;
    cfg.i_switch = None;
    let r = World::new(cfg).run();
    assert!(
        r.failure_rate() > 0.2,
        "islands must make many SC queries unreachable"
    );
    // The audit panics if any served answer carries an invented version;
    // reaching this line proves partitioned answers were still honest.
    assert_eq!(r.queries_issued, r.queries_served() + r.queries_failed);
}

#[test]
fn pending_poll_accounting_survives_churn_and_crashes() {
    // Regression: a node can disappear (soft churn) or crash (fault plan,
    // volatile state wiped) while POLL retry timers for its queries are
    // still queued. Stale timers must fire as no-ops and every query must
    // end up exactly once in served or failed — under both kinds of
    // removal at once.
    let mut cfg = hostile(8);
    cfg.strategy = Strategy::Rpcc;
    cfg.level_mix = LevelMix::strong_only();
    cfg.proto = cfg.proto.hardened();
    cfg.faults = mp2p::net::FaultPlan::preset("crash", cfg.sim_time).expect("known preset");
    let r = World::new(cfg).run();
    assert_eq!(
        r.queries_issued,
        r.queries_served() + r.queries_failed,
        "pending-poll accounting leaked under churn + crashes"
    );
    assert!(r.faults.crashes >= 1, "the plan must actually crash nodes");
    assert_eq!(
        r.faults.crashes, r.faults.recoveries,
        "every crash window must close"
    );
    assert!(r.audit.served() > 0, "the system must keep serving");
}

#[test]
fn fault_presets_stay_deterministic_and_leak_free() {
    // Every preset x strategy, same seed twice: byte-identical reports
    // (fault injection draws only from its own stream) and a clean
    // `check_report` (exact accounting, every partition healed, every
    // crash recovered). Exercises the full injector — burst loss,
    // duplication, partition, crashes — on top of this suite's churn.
    for preset in FaultPlan::PRESETS {
        for strategy in [Strategy::Rpcc, Strategy::Push, Strategy::Pull] {
            let run_cell = || {
                let mut cfg = hostile(9);
                cfg.strategy = strategy;
                cfg.level_mix = LevelMix::hybrid();
                cfg.proto = cfg.proto.hardened();
                cfg.faults = FaultPlan::preset(preset, cfg.sim_time).expect("known preset");
                World::new(cfg).run()
            };
            let (a, b) = (run_cell(), run_cell());
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{strategy}/{preset}: fault injection broke determinism"
            );
            assert_eq!(
                check_report(&a),
                Vec::<String>::new(),
                "{strategy}/{preset}"
            );
            if preset == "hostile" {
                assert!(a.faults.burst_drops > 0, "GE chain never dropped a frame");
                assert!(a.faults.frames_duplicated > 0, "duplication never fired");
            }
        }
    }
}

#[test]
fn depleted_batteries_demote_relays() {
    let mut cfg = hostile(7);
    cfg.strategy = Strategy::Rpcc;
    cfg.level_mix = LevelMix::strong_only();
    // Tiny batteries: idle drain alone crosses the μ_CE = 0.6 threshold
    // mid-run.
    cfg.battery_mj = 1_500.0;
    let r = World::new(cfg).run();
    let b = r.battery_gauge.last();
    assert!(b < 0.6, "batteries must visibly drain, got {b}");
    // Late-run relay population collapses as CE disqualifies everyone.
    assert!(
        r.relay_gauge.last() <= r.relay_gauge.max(),
        "relay population must shrink as energy dies"
    );
}
