//! The metric vocabulary: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` at the repository root lists
//! exactly these (a test holds the two together).

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `sim_s` is simulated seconds — a statistic of the model,
    /// not a host time.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, printed by every workload with `--trace 0`.
///
/// Bounds are at least three times the seed-to-seed spread measured on
/// the 2-core reference box (see README.md, "Bounds"), capped at the
/// contract's 0.25 — which is all the host-time metrics and the
/// heavy-tailed mean latency can be given.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("sim_traffic_per_min", "tx/min", "lower", 0.25),
    e2e("sim_latency_s", "sim_s", "lower", 0.25),
    e2e("sim_fresh_share", "ratio", "higher", 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// One per-layer metric. Layers are named after the crate or module
/// they measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Unit. Times name their clock: `cpu_*` is the benchmark thread's
    /// CPU clock around calls into the layer, `wall_*` the wall clock
    /// the simulator's own profiler (and the record-timing sink) reads.
    /// `count` and `sim_ratio` mark deterministic counts and ratios of
    /// them: two runs at one seed must agree on those exactly.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// The per-layer metrics, printed by every workload with `--trace 1`.
/// A metric that does not apply to a workload (the reader on a
/// `NullSink` workload, the event queue on `journal-read-50`) reads 0.
pub const PER_LAYER: [PerLayer; 70] = [
    lower("core.world.new_s", "cpu_s"),
    lower("core.world.run_s", "cpu_s"),
    lower("core.world.run_s.rpcc-hy", "cpu_s"),
    lower("core.world.run_s.push", "cpu_s"),
    lower("core.world.run_s.pull", "cpu_s"),
    lower("core.world.run_s.push-ap", "cpu_s"),
    lower("core.world.events", "count"),
    lower("core.world.ns_per_event", "cpu_ns"),
    lower("core.world.rx_s", "wall_s"),
    lower("core.world.proto_timer_s", "wall_s"),
    lower("core.world.query_s", "wall_s"),
    lower("core.world.update_s", "wall_s"),
    lower("core.world.switch_s", "wall_s"),
    lower("core.world.sample_s", "wall_s"),
    lower("core.msg.poll_s", "wall_s"),
    lower("core.msg.invalidation_s", "wall_s"),
    lower("core.world.profile_overhead", "ratio"),
    lower("sim.queue.pushes", "count"),
    lower("sim.queue.pops", "count"),
    lower("sim.queue.peak_len", "count"),
    lower("sim.queue.op_ns", "cpu_ns"),
    lower("sim.rng.draw_ns", "cpu_ns"),
    lower("mobility.position_at_ns", "cpu_ns"),
    lower("mobility.position_calls", "count"),
    lower("net.topology.rebuilds", "count"),
    lower("net.topology.rebuild_us", "cpu_us"),
    lower("net.topology.mean_degree", "links"),
    lower("net.topology.bfs_us", "cpu_us"),
    lower("net.stack.flood_fwd_ns", "cpu_ns"),
    lower("net.stack.flood_dup_ns", "cpu_ns"),
    lower("net.stack.unicast_fwd_ns", "cpu_ns"),
    lower("net.stack.actions_per_frame", "1/frame"),
    lower("net.frames_sent", "count"),
    lower("net.link.draw_ns", "cpu_ns"),
    lower("net.link.burst_draw_ns", "cpu_ns"),
    lower("cache.store.op_ns", "cpu_ns"),
    lower("core.rpcc.on_message_ns.poll", "cpu_ns"),
    lower("core.rpcc.on_message_ns.invalidation", "cpu_ns"),
    lower("core.rpcc.on_query_ns.sc", "cpu_ns"),
    lower("core.rpcc.on_query_ns.dc", "cpu_ns"),
    lower("core.rpcc.on_query_ns.wc", "cpu_ns"),
    lower("core.rpcc.coeff_tick_ns", "cpu_ns"),
    lower("core.push.on_message_ns", "cpu_ns"),
    lower("core.pull.on_message_ns", "cpu_ns"),
    lower("core.recovery.retx_op_ns", "cpu_ns"),
    lower("trace.jsonl.records", "count"),
    lower("trace.jsonl.bytes", "count"),
    lower("trace.jsonl.record_ns", "wall_ns"),
    higher("trace.jsonl.write_mb_per_s", "MB/s"),
    lower("trace.overhead.plain", "ratio"),
    lower("trace.overhead.observatory", "ratio"),
    lower("trace.overhead.recovery", "ratio"),
    lower("trace.overhead.provenance", "ratio"),
    higher("trace.reader.parse_mb_per_s", "MB/s"),
    lower("trace.reader.records", "count"),
    lower("experiments.analysis.fold_s", "cpu_s"),
    lower("experiments.analysis.explain_s", "cpu_s"),
    higher("experiments.analysis.mb_per_s", "MB/s"),
    lower("experiments.analysis.incidents", "count"),
    lower("metrics.registry.record_ns", "cpu_ns"),
    // Not `count`: std's `HashMap` seeds its hasher per instance, and
    // where its tombstones fall decides whether an insert rehashes in
    // place or reallocates — one allocation in a million moves.
    lower("host.allocs", "allocs"),
    lower("host.alloc_mb", "MB"),
    lower("host.heap_peak_mb", "MB"),
    lower("host.allocs_per_frame", "1/frame"),
    lower("host.trace_overhead", "ratio"),
    higher("host.replay_coverage", "ratio"),
    lower("host.calib_ms", "cpu_ms"),
    lower("host.reps_retried", "reps"),
    lower("sim.query_fail_share", "sim_ratio"),
    lower("sim.ref_error", "sim_ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
