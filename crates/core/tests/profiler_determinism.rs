//! Profiling is strictly observational: a seeded run with the wall-clock
//! profiler enabled must produce bit-identical protocol results and an
//! identical trace journal compared to the same run without it. The only
//! permitted difference is the `perf` section itself.

use std::io::Write;
use std::sync::{Arc, Mutex};

use mp2p_rpcc::{RunReport, Strategy, World, WorldConfig};
use mp2p_sim::SimDuration;
use mp2p_trace::JsonlSink;

/// In-memory journal target: a cloneable handle to one shared byte
/// buffer, so the bytes survive handing the writer to [`JsonlSink`].
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn scenario(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small_test(seed);
    cfg.n_peers = 10;
    cfg.sim_time = SimDuration::from_mins(5);
    cfg.warmup = SimDuration::from_mins(1);
    cfg.strategy = Strategy::Rpcc;
    cfg
}

/// Runs the scenario, optionally profiled, returning the report and the
/// full journal bytes.
fn run(seed: u64, profiled: bool) -> (RunReport, Vec<u8>) {
    let cfg = scenario(seed);
    let warmup = cfg.warmup;
    let buf = SharedBuf::default();
    let mut world = World::new(cfg);
    if profiled {
        world.enable_profiling();
    }
    let sink = JsonlSink::new_with_warmup(Box::new(buf.clone()), warmup);
    world.set_tracer(Box::new(sink));
    let (report, sink) = world.run_traced();
    drop(sink);
    let bytes = buf.0.lock().unwrap().clone();
    (report, bytes)
}

#[test]
fn profiled_run_is_bit_identical_to_unprofiled() {
    for seed in [7u64, 42] {
        let (plain, plain_journal) = run(seed, false);
        let (mut profiled, profiled_journal) = run(seed, true);

        assert!(plain.perf.is_none(), "profiling off must leave perf unset");
        assert!(profiled.perf.is_some(), "profiling on must fill perf");
        assert_eq!(
            plain_journal, profiled_journal,
            "seed {seed}: journals diverged under profiling"
        );

        // With the perf section removed, the reports — every protocol
        // counter, histogram and audit — must serialise identically.
        profiled.perf = None;
        assert_eq!(
            plain.to_json(),
            profiled.to_json(),
            "seed {seed}: reports diverged under profiling"
        );
    }
}

#[test]
fn perf_report_is_well_formed() {
    let (report, journal) = run(42, true);
    let perf = report.perf.as_ref().expect("profiling was enabled");

    assert!(perf.events() > 0, "a five-minute run handles events");
    assert!(perf.wall_nanos >= 1);
    assert!(perf.events_per_sec() > 0.0);
    assert!(!perf.buckets.is_empty());
    assert!(perf.buckets.iter().any(|b| b.name.starts_with("event:")));
    assert!(perf.buckets.iter().any(|b| b.name.starts_with("msg:")));

    let queue = &perf.queue;
    assert!(
        queue.pushes >= queue.pops,
        "cannot pop more than was pushed"
    );
    assert!(queue.peak_len > 0);
    assert!(queue.peak_capacity >= queue.peak_len);

    assert!(perf.frames_sent > 0, "RPCC traffic sends frames");
    assert_eq!(
        perf.journal_bytes,
        journal.len() as u64,
        "journal byte counter must match what actually reached the sink"
    );

    let json = perf.to_json();
    assert!(
        mp2p_trace::json::parse(&json).is_some(),
        "perf JSON must parse: {json}"
    );
    // And the full report with the perf section embedded stays valid too.
    assert!(mp2p_trace::json::parse(&report.to_json()).is_some());
}

#[test]
fn unprofiled_report_json_has_no_perf_key() {
    let (report, _) = run(7, false);
    assert!(
        !report.to_json().contains("\"perf\""),
        "perf key must only appear when profiling is on"
    );
}
