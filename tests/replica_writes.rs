//! The replica-write extension (paper future work §6 item 3): any peer
//! may modify an item it caches; writes serialise through the item's
//! source host and propagate via whatever consistency strategy runs.

use mp2p::rpcc::{LevelMix, RunReport, Strategy, World, WorldConfig};
use mp2p::sim::SimDuration;

fn writing_config(strategy: Strategy, seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.n_peers = 25;
    cfg.terrain = mp2p::mobility::Terrain::new(800.0, 800.0);
    cfg.c_num = 5;
    cfg.sim_time = SimDuration::from_mins(20);
    cfg.warmup = SimDuration::from_mins(4);
    cfg.strategy = strategy;
    cfg.level_mix = LevelMix::hybrid();
    cfg.i_write = Some(SimDuration::from_mins(2));
    // A calm network isolates the write machinery itself.
    cfg.i_switch = None;
    cfg.link = cfg.link.lossless();
    cfg
}

fn run(strategy: Strategy, seed: u64) -> RunReport {
    World::new(writing_config(strategy, seed)).run()
}

#[test]
fn writes_complete_under_every_strategy() {
    for strategy in [
        Strategy::Rpcc,
        Strategy::Push,
        Strategy::Pull,
        Strategy::PushAdaptivePull,
    ] {
        let r = run(strategy, 1);
        assert!(r.writes_issued > 50, "{strategy}: write workload must flow");
        assert!(
            r.writes_completed() + r.writes_failed >= r.writes_issued * 9 / 10,
            "{strategy}: most writes resolve ({} issued, {} done, {} failed)",
            r.writes_issued,
            r.writes_completed(),
            r.writes_failed
        );
        assert!(
            r.writes_failed * 20 < r.writes_issued,
            "{strategy}: a calm lossless network loses few writes, lost {}/{}",
            r.writes_failed,
            r.writes_issued
        );
    }
}

/// An oracle-routed WRITE_REQUEST / WRITE_ACK reaches the driver's write
/// handlers like a stack-routed one (it used to be handed to the
/// strategy, which ignores it, so every write timed out).
#[test]
fn writes_complete_under_oracle_routing() {
    let mut cfg = writing_config(Strategy::Rpcc, 1);
    cfg.routing = mp2p::rpcc::RoutingMode::Oracle;
    let r = World::new(cfg).run();
    assert!(r.writes_issued > 50, "write workload must flow");
    assert!(
        r.writes_failed * 20 < r.writes_issued,
        "a calm lossless network loses few writes, lost {}/{} ({} acked)",
        r.writes_failed,
        r.writes_issued,
        r.writes_completed()
    );
}

#[test]
fn write_latency_is_a_round_trip() {
    let r = run(Strategy::Rpcc, 2);
    assert!(r.writes_completed() > 0);
    let mean = r.write_latency.mean_secs();
    assert!(
        mean > 0.0 && mean < 2.0,
        "a serialised write is one unicast round trip (plus occasional discovery), got {mean:.3}s"
    );
}

#[test]
fn written_versions_propagate_to_readers() {
    // With writes flowing, masters advance much faster than the paper's
    // 2-minute source updates; readers must still observe versions the
    // audit accepts (the audit panics on invented versions) and strong
    // reads must stay within the report cycle.
    let r = run(Strategy::Rpcc, 3);
    assert!(r.audit.served() > 500);
    let strong = &r.audit_by_level[mp2p::rpcc::ConsistencyLevel::Strong.index()];
    assert!(
        strong.max_staleness() <= SimDuration::from_mins(3),
        "SC staleness must stay report-cycle bounded with writes flowing, got {}",
        strong.max_staleness()
    );
}

#[test]
fn writes_add_traffic_but_not_failures() {
    let without = {
        let mut cfg = writing_config(Strategy::Rpcc, 4);
        cfg.i_write = None;
        World::new(cfg).run()
    };
    let with = run(Strategy::Rpcc, 4);
    assert!(
        with.traffic.transmissions() > without.traffic.transmissions(),
        "the write workload must cost transmissions"
    );
    use mp2p::metrics::MessageClass;
    assert!(with.traffic.by_class(MessageClass::WriteRequest) > 0);
    assert!(with.traffic.by_class(MessageClass::WriteAck) > 0);
    assert_eq!(without.traffic.by_class(MessageClass::WriteRequest), 0);
}

#[test]
fn writes_are_deterministic() {
    let a = run(Strategy::Pull, 5);
    let b = run(Strategy::Pull, 5);
    assert_eq!(a.writes_completed(), b.writes_completed());
    assert_eq!(a.write_latency.mean(), b.write_latency.mean());
    assert_eq!(a.traffic.transmissions(), b.traffic.transmissions());
}

#[test]
fn single_item_mode_serialises_all_writers_through_one_source() {
    let mut cfg = writing_config(Strategy::Rpcc, 6);
    cfg.workload = mp2p::rpcc::WorkloadMode::SingleItem;
    let r = World::new(cfg).run();
    assert!(
        r.writes_completed() > 0,
        "everyone writes the one shared item"
    );
    assert!(r.audit.served() > 0);
}
