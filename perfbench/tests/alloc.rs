//! The counting allocator: idle while disarmed, and a repeatable
//! yardstick while armed. One test function — the counters are
//! process-wide, so nothing else may run beside it.

use mp2p_perfbench::host::{allocator_counts, arm_allocator, disarm_allocator};
use mp2p_perfbench::run::{run, Options};
use mp2p_perfbench::workloads::{Scale, Workload};

fn traced_allocs() -> f64 {
    let outcome = run(&Options {
        workload: Workload::Table1,
        seed: 42,
        seconds: 0.0,
        trace: true,
        scale: Scale::Shrunk,
    });
    assert!(outcome.correct, "{}", outcome.report);
    outcome
        .metrics
        .iter()
        .find(|m| m.name == "host.allocs")
        .expect("a traced run reports host.allocs")
        .value
}

#[test]
fn counters_move_only_while_armed_and_repeat_across_traced_passes() {
    let before = allocator_counts();
    let disarmed: Vec<u64> = (0..10_000).collect();
    assert_eq!(allocator_counts(), before, "disarmed: nothing is counted");
    drop(disarmed);

    arm_allocator();
    let armed: Vec<u64> = Vec::with_capacity(1_000);
    let counts = disarm_allocator();
    assert_eq!(counts.allocs, 1);
    assert_eq!(counts.bytes, 8_000);
    assert_eq!(counts.peak_net_bytes, 8_000);
    drop(armed);
    assert_eq!(allocator_counts(), counts, "disarmed again: frozen");

    let first = traced_allocs();
    assert!(first > 0.0);
    assert_eq!(
        first,
        traced_allocs(),
        "host.allocs is a deterministic count"
    );
}
