//! The measurement driver: set-up, the timed repetitions with their
//! noise guard, the traced pass with its layer replays, and the result
//! object both modes print.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use mp2p_rpcc::{ConsistencyLevel, WorldConfig};
use mp2p_sim::SimDuration;

use crate::host::{self, calibrate, median, minimum, quartiles, Stamp};
use crate::kernels;
use crate::spans::SpanRecorder;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::{
    self, fnv1a, journal_config, setup, Cell, CellKind, CellRun, JournalTier, Probe, Scale, Setup,
    SimTotals, Tally, Workload, TABLE1_CELLS,
};

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Master seed every input is derived from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// `false`: timed repetitions, end-to-end metrics. `true`: one
    /// traced pass plus layer replays, per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit from [`crate::spec`].
    pub unit: &'static str,
}

/// Everything one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every operation passed its correctness checks.
    pub correct: bool,
    /// Operations (cell executions) attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The mode's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: repetition counts, quartiles, calibration
    /// readings, the simulated-output fingerprint, failed checks.
    pub report: String,
    /// The span tree as JSON (traced runs only).
    pub spans: Option<String>,
}

impl Outcome {
    /// The result object the driver reads: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, on one line.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            // Rust prints f64 with every digit needed to round-trip and
            // never in exponent form, so the text is valid JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// How many times set-up runs in a timed run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// A sample is *disturbed* when a calibration next to it ran this much
/// slower than the run's fastest.
const DISTURBED: f64 = 1.10;
/// Extra executions a cell gets when every one of its samples was
/// disturbed.
const MAX_RETRIES: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct Sample {
    cpu_s: f64,
    wall_s: f64,
    /// The slower of the two calibrations around the execution.
    calib_ms: f64,
}

/// The timed repetitions of one pass.
#[derive(Debug)]
struct Measurement {
    /// Per cell, one sample per execution.
    samples: Vec<Vec<Sample>>,
    /// Per cell, its first execution: the fingerprint every later
    /// repetition must reproduce, and the simulated statistics.
    first: Vec<Option<CellRun>>,
    calib_ms: Vec<f64>,
    retried: u64,
    cycles: u64,
    /// Wall seconds of each set-up repeated between cycles.
    resetup_s: Vec<f64>,
}

impl Measurement {
    fn sample(&mut self, i: usize, cell: &Cell, tally: &mut Tally) {
        let before = *self
            .calib_ms
            .last()
            .expect("calibrated before the first cell");
        let start = Stamp::now();
        let run = cell.run(Probe::default());
        let took = start.elapsed();
        let after = calibrate();
        self.calib_ms.push(after);
        let mut failures = run.failures.clone();
        match &self.first[i] {
            None => self.first[i] = Some(run),
            Some(first) if first.output != run.output => failures.push(format!(
                "output fingerprint {:016x} differs from the first repetition's {:016x}",
                run.fingerprint(),
                first.fingerprint()
            )),
            Some(_) => {}
        }
        tally.record(&cell.name, &failures);
        self.samples[i].push(Sample {
            cpu_s: took.cpu_s,
            wall_s: took.wall_s,
            calib_ms: before.max(after),
        });
    }

    fn disturbed(&self, sample: &Sample) -> bool {
        sample.calib_ms > minimum(&self.calib_ms) * DISTURBED
    }

    /// Σ over cells of the cell's fastest execution.
    ///
    /// Disturbance on a shared host is one-sided — a neighbour only ever
    /// makes an execution slower — so each cell's minimum estimates its
    /// undisturbed cost, and taking it per cell lets a burst that hits
    /// half a pass spoil only the cells it overlapped. The per-cell
    /// medians and quartiles are printed beside it.
    fn pass(&self, pick: impl Fn(&Sample) -> f64) -> f64 {
        self.samples
            .iter()
            .map(|cell| minimum(&cell.iter().map(&pick).collect::<Vec<_>>()))
            .sum()
    }
}

/// Builds the workload's inputs; returns them and the wall seconds it
/// took.
fn timed_setup(opts: &Options, tally: &mut Tally) -> (Setup, f64) {
    let start = Instant::now();
    let ready = setup(opts.workload, opts.seed, opts.scale, tally);
    (ready, start.elapsed().as_secs_f64())
}

/// Cycles through the cells of `ready` for about `seconds` of measuring,
/// then applies the noise guard: a cell whose every sample was disturbed
/// is run again, up to [`MAX_RETRIES`] times.
///
/// Set-up is repeated `resetups` times *between* cycles (after the run,
/// if it has fewer cycles), each time replacing the inputs with freshly
/// built identical ones. Spread over the run like this, a burst of
/// disturbance spoils one set-up reading, not the median of them all.
fn measure(
    opts: &Options,
    mut ready: Setup,
    seconds: f64,
    resetups: usize,
    tally: &mut Tally,
) -> (Setup, Measurement) {
    let mut m = Measurement {
        samples: vec![Vec::new(); ready.cells.len()],
        first: ready.cells.iter().map(|_| None).collect(),
        calib_ms: vec![calibrate()],
        retried: 0,
        cycles: 0,
        resetup_s: Vec::with_capacity(resetups),
    };
    let resetup = |m: &mut Measurement, old: Setup, tally: &mut Tally| {
        // Free the previous inputs first, so peak memory is one set's.
        drop(old);
        let (new, took) = timed_setup(opts, tally);
        m.resetup_s.push(took);
        new
    };
    let mut measuring = 0.0;
    loop {
        let cycle = Instant::now();
        for (i, cell) in ready.cells.iter().enumerate() {
            m.sample(i, cell, tally);
        }
        m.cycles += 1;
        measuring += cycle.elapsed().as_secs_f64();
        // Stop at the cycle boundary nearest to the budget, so every
        // cell has the same number of samples.
        if measuring + measuring / m.cycles as f64 / 2.0 >= seconds {
            break;
        }
        if m.resetup_s.len() < resetups {
            ready = resetup(&mut m, ready, tally);
        }
    }
    while m.resetup_s.len() < resetups {
        ready = resetup(&mut m, ready, tally);
    }
    for (i, cell) in ready.cells.iter().enumerate() {
        let mut tries = 0;
        while tries < MAX_RETRIES && m.samples[i].iter().all(|s| m.disturbed(s)) {
            m.sample(i, cell, tally);
            m.retried += 1;
            tries += 1;
        }
    }
    (ready, m)
}

/// Pools the simulated statistics of the reference cells.
fn reference_totals(
    cells: &[Cell],
    runs: &[Option<CellRun>],
    from_setup: Option<SimTotals>,
) -> SimTotals {
    from_setup.unwrap_or_else(|| {
        let mut totals = SimTotals::default();
        for (cell, run) in cells.iter().zip(runs) {
            if let (true, Some(run)) = (cell.reference, run) {
                totals.pool(&run.sim);
            }
        }
        totals
    })
}

/// FNV-1a over every cell's output fingerprint, in pass order: one
/// number that changes iff any simulated output changed.
fn sim_fingerprint(runs: &[Option<CellRun>]) -> u64 {
    let bytes: Vec<u8> = runs
        .iter()
        .flatten()
        .flat_map(|run| run.fingerprint().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn describe(report: &mut String, cells: &[Cell], m: &Measurement) {
    for (cell, samples) in cells.iter().zip(&m.samples) {
        let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
        let (q1, q3) = quartiles(&cpu);
        let _ = writeln!(
            report,
            "cell {:<12} n={} cpu_s min {:.4} q1 {:.4} median {:.4} q3 {:.4}",
            cell.name,
            cpu.len(),
            minimum(&cpu),
            q1,
            median(&cpu),
            q3,
        );
    }
    let disturbed = m
        .samples
        .iter()
        .flatten()
        .filter(|s| m.disturbed(s))
        .count();
    let total: usize = m.samples.iter().map(Vec::len).sum();
    let _ = writeln!(
        report,
        "host.calib_ms n={} min {:.3} median {:.3} max {:.3}; disturbed samples {disturbed}/{total}; host.reps_retried {}",
        m.calib_ms.len(),
        minimum(&m.calib_ms),
        median(&m.calib_ms),
        m.calib_ms.iter().copied().fold(0.0, f64::max),
        m.retried,
    );
    let _ = writeln!(report, "sim_fingerprint {:016x}", sim_fingerprint(&m.first));
}

fn finish(
    tally: Tally,
    values: HashMap<&'static str, f64>,
    trace: bool,
    mut report: String,
    spans: Option<String>,
) -> Outcome {
    for message in &tally.messages {
        let _ = writeln!(report, "FAILED {message}");
    }
    let _ = writeln!(
        report,
        "ops_attempted {} ops_failed {} failed_share {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let metric = |name: &'static str, unit: &'static str| Metric {
        name,
        // Per-layer metrics that do not apply to the workload read 0.
        value: values.get(name).copied().unwrap_or(0.0),
        unit,
    };
    let metrics = if trace {
        PER_LAYER.iter().map(|m| metric(m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect()
    };
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        spans,
    }
}

/// Runs one workload in one mode on the calling thread.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_timed(opts)
    }
}

fn run_timed(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let (ready, first_setup_s) = timed_setup(opts, &mut tally);
    let (ready, m) = measure(opts, ready, opts.seconds, SETUP_REPS - 1, &mut tally);
    let setup_s: Vec<f64> = std::iter::once(first_setup_s)
        .chain(m.resetup_s.iter().copied())
        .collect();
    let sim = reference_totals(&ready.cells, &m.first, ready.sim);

    let mut report = format!(
        "workload {} seed {} {:?}: {} cells, {} cycles, setup_s {:?}\n",
        opts.workload.name(),
        opts.seed,
        opts.scale,
        ready.cells.len(),
        m.cycles,
        setup_s,
    );
    describe(&mut report, &ready.cells, &m);
    let _ = writeln!(report, "sim_query_fail_share {}", sim.query_fail_share());

    let values = HashMap::from([
        ("setup_s", median(&setup_s)),
        ("cpu_s", m.pass(|s| s.cpu_s)),
        ("wall_s", m.pass(|s| s.wall_s)),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("sim_traffic_per_min", sim.traffic_per_min()),
        ("sim_latency_s", sim.latency_s()),
        ("sim_fresh_share", sim.fresh_share()),
    ]);
    finish(tally, values, false, report, None)
}

/// What the simulator's profiler reported over a pass, summed.
#[derive(Debug, Default)]
struct ProfileSum {
    events: u64,
    pushes: u64,
    pops: u64,
    peak_len: usize,
    frames_sent: u64,
    /// Bucket name → (scopes closed, wall seconds).
    buckets: HashMap<&'static str, (u64, f64)>,
}

impl ProfileSum {
    fn of(runs: &[CellRun]) -> Self {
        let mut sum = ProfileSum::default();
        for perf in runs.iter().filter_map(|r| r.perf.as_ref()) {
            sum.events += perf.events();
            sum.pushes += perf.queue.pushes;
            sum.pops += perf.queue.pops;
            sum.peak_len = sum.peak_len.max(perf.queue.peak_len);
            sum.frames_sent += perf.frames_sent;
            for bucket in &perf.buckets {
                let slot = sum.buckets.entry(bucket.name).or_default();
                slot.0 += bucket.count;
                slot.1 += bucket.secs();
            }
        }
        sum
    }

    fn count(&self, bucket: &str) -> u64 {
        self.buckets.get(bucket).map_or(0, |b| b.0)
    }

    fn secs(&self, bucket: &str) -> f64 {
        self.buckets.get(bucket).map_or(0.0, |b| b.1)
    }

    /// Protocol messages delivered: scopes closed under `msg:*`.
    fn messages(&self) -> u64 {
        self.buckets
            .iter()
            .filter(|(name, _)| name.starts_with("msg:"))
            .map(|(_, b)| b.0)
            .sum()
    }
}

fn cell_cpu(run: &CellRun) -> f64 {
    run.new_s + run.run_s
}

/// `tx/min` and `mean latency (s)` of the Pull / Push / RPCC(HY) columns
/// of the committed `results/compare_full.txt` (Table 1 defaults, 300
/// simulated minutes, seed 42), as printed there.
const COMMITTED_REFERENCE: [(&str, &str, &str); 3] = [
    ("pull", "7660.8", "0.137"),
    ("push", "2581.4", "91.335"),
    ("rpcc-hy", "3348.3", "0.188"),
];

/// Re-runs the committed seed-42 reference cells at their full 5 h
/// horizon and returns the largest relative error against the committed
/// table at its printed precision (0 when every digit reproduces).
fn reference_error(ready: &[Cell], tally: &mut Tally, report: &mut String) -> f64 {
    let mut worst: f64 = 0.0;
    for (name, tx_per_min, latency_s) in COMMITTED_REFERENCE {
        let cell = ready
            .iter()
            .find(|c| c.name == name)
            .expect("a Table 1 cell");
        let CellKind::Sim(cfg) = &cell.kind else {
            unreachable!("Table 1 cells are sim cells");
        };
        let mut cfg = cfg.clone();
        cfg.sim_time = SimDuration::from_hours(5);
        let run = Cell {
            name: format!("reference-{name}"),
            kind: CellKind::Sim(cfg),
            reference: false,
        }
        .run(Probe::default());
        let mut failures = run.failures.clone();
        let printed = [
            (format!("{:.1}", run.sim.traffic_per_min()), tx_per_min),
            (format!("{:.3}", run.sim.latency_s()), latency_s),
        ];
        for (ours, committed) in printed {
            if ours != committed {
                failures.push(format!(
                    "committed reference says {committed}, this run {ours}"
                ));
            }
            let (ours, committed): (f64, f64) = (
                ours.parse().expect("formatted a number"),
                committed.parse().expect("a committed number"),
            );
            worst = worst.max((ours - committed).abs() / committed);
        }
        tally.record(&format!("reference-{name}"), &failures);
    }
    let _ = writeln!(
        report,
        "sim.ref_error {worst} against results/compare_full.txt"
    );
    worst
}

/// Journal-on ÷ journal-off CPU of the workload's first scenario, per
/// capability tier (fastest of two executions each).
fn tier_overheads(cfg: &WorldConfig, tally: &mut Tally, values: &mut HashMap<&'static str, f64>) {
    const NAMES: [&str; 4] = [
        "trace.overhead.plain",
        "trace.overhead.observatory",
        "trace.overhead.recovery",
        "trace.overhead.provenance",
    ];
    for (tier, name) in JournalTier::ALL.into_iter().zip(NAMES) {
        let tier_cfg = journal_config(cfg.seed, (cfg.sim_time, cfg.warmup), tier);
        let mut fastest = |kind: CellKind| {
            let cell = Cell {
                name: format!("overhead-{}", tier.label()),
                kind,
                reference: false,
            };
            (0..2)
                .map(|_| {
                    let run = cell.run(Probe::default());
                    tally.record(&cell.name, &run.failures);
                    cell_cpu(&run)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let on = fastest(CellKind::Journal(tier_cfg.clone(), tier));
        let off = fastest(CellKind::Sim(tier_cfg));
        values.insert(name, on / off);
    }
}

/// Replays every layer a world exercises, sized from the traced pass's
/// counts, and returns the seconds of the pass the replays account for:
/// Σ(count × unit cost).
fn replay_world_layers(
    rec: &mut SpanRecorder,
    cfg: &WorldConfig,
    cells: &[Cell],
    profile: &ProfileSum,
    seed: u64,
    values: &mut HashMap<&'static str, f64>,
) -> f64 {
    let mut explained = 0.0;
    let rx = profile.count("event:rx");
    let queries = profile.count("event:query");
    let messages = profile.messages();

    let queue_ns = rec.scope("sim.queue", |_| {
        kernels::queue_churn(profile.peak_len, profile.pushes + profile.pops)
    });
    values.insert("sim.queue.op_ns", queue_ns);
    explained += (profile.pushes + profile.pops) as f64 * queue_ns / 1e9;

    values.insert(
        "sim.rng.draw_ns",
        rec.scope("sim.rng", |_| kernels::rng_draws(profile.events)),
    );

    // What the transmissions asked of the layers below: rebuild and
    // frame-kind counts, from one more (untimed) execution per world.
    let census = rec.scope("census", |_| workloads::census(cells));
    values.insert("net.topology.rebuilds", census.rebuilds as f64);

    // Mobility and topology are replayed for the first scenario (the
    // pass's worlds share its geometry) and counted per rebuild.
    let mobility = rec.scope("mobility", |_| kernels::mobility_replay(cfg));
    let position_calls = census.rebuilds * cfg.n_peers as u64;
    values.insert("mobility.position_at_ns", mobility.ns_per_call);
    values.insert("mobility.position_calls", position_calls as f64);
    explained += position_calls as f64 * mobility.ns_per_call / 1e9;

    let topo = rec.scope("net.topology", |_| {
        kernels::topology_replay(&mobility.snapshots, cfg.range)
    });
    values.insert("net.topology.rebuild_us", topo.rebuild_us);
    values.insert("net.topology.mean_degree", topo.mean_degree);
    values.insert("net.topology.bfs_us", topo.bfs_us);
    explained += census.rebuilds as f64 * topo.rebuild_us / 1e6;

    let stack = rec.scope("net.stack", |_| kernels::netstack_replay(rx));
    values.insert("net.stack.flood_fwd_ns", stack.flood_fwd_ns);
    values.insert("net.stack.flood_dup_ns", stack.flood_dup_ns);
    values.insert("net.stack.unicast_fwd_ns", stack.unicast_fwd_ns);
    values.insert("net.stack.actions_per_frame", stack.actions_per_frame);
    // Every reception that was neither a duplicate nor a unicast is
    // costed as a first-seen flood (lost frames included: they are
    // dropped before the stack, so this over-counts by the loss rate).
    let first_seen = rx.saturating_sub(census.flood_dups + census.unicasts);
    explained += (first_seen as f64 * stack.flood_fwd_ns
        + census.flood_dups as f64 * stack.flood_dup_ns
        + census.unicasts as f64 * stack.unicast_fwd_ns)
        / 1e9;

    let (link_ns, burst_ns) = rec.scope("net.link", |_| {
        (kernels::link_draws(&cfg.link, rx), kernels::burst_draws(rx))
    });
    values.insert("net.link.draw_ns", link_ns);
    values.insert("net.link.burst_draw_ns", burst_ns);
    let per_draw = if cfg.faults.ge.is_some() {
        burst_ns
    } else {
        link_ns
    };
    explained += rx as f64 * per_draw / 1e9;

    values.insert(
        "cache.store.op_ns",
        rec.scope("cache.store", |_| {
            kernels::cache_ops(cfg.c_num, cfg.n_peers - 1, queries + messages)
        }),
    );

    let proto = rec.scope("core.protocol", |_| {
        kernels::protocol_replay(&cfg.proto, messages)
    });
    values.insert("core.rpcc.on_message_ns.poll", proto.rpcc_poll_ns);
    values.insert(
        "core.rpcc.on_message_ns.invalidation",
        proto.rpcc_invalidation_ns,
    );
    for (level, ns) in ConsistencyLevel::ALL.into_iter().zip(proto.rpcc_query_ns) {
        let name = match level {
            ConsistencyLevel::Strong => "core.rpcc.on_query_ns.sc",
            ConsistencyLevel::Delta => "core.rpcc.on_query_ns.dc",
            ConsistencyLevel::Weak => "core.rpcc.on_query_ns.wc",
        };
        values.insert(name, ns);
    }
    values.insert("core.rpcc.coeff_tick_ns", proto.rpcc_coeff_tick_ns);
    values.insert("core.push.on_message_ns", proto.push_message_ns);
    values.insert("core.pull.on_message_ns", proto.pull_message_ns);
    explained += messages as f64 * proto.rpcc_poll_ns / 1e9;
    explained += queries as f64 * proto.rpcc_query_ns.iter().sum::<f64>() / 3.0 / 1e9;

    values.insert(
        "core.recovery.retx_op_ns",
        rec.scope("core.recovery", |_| {
            kernels::retx_ops(cfg.proto.recovery.retx_cap, messages)
        }),
    );
    values.insert(
        "metrics.registry.record_ns",
        rec.scope("metrics.registry", |_| {
            kernels::registry_records(&kernels::capture_event_mix(seed))
        }),
    );
    explained
}

/// `journal-read-50` only: the reader alone over the journals, and the
/// analysis metrics that are defined relative to it. Returns the
/// seconds of the pass the reader accounts for.
fn replay_reader(
    rec: &mut SpanRecorder,
    cells: &[Cell],
    traced: &[CellRun],
    tally: &mut Tally,
    values: &mut HashMap<&'static str, f64>,
) -> f64 {
    let mut reader = kernels::ReaderReplay::default();
    rec.open("trace.reader.parse");
    for cell in cells {
        if let CellKind::Analyze(input) = &cell.kind {
            let one = kernels::reader_replay(&input.bytes);
            let failures = match one.errors {
                0 => Vec::new(),
                n => vec![format!("{n} journal lines did not parse")],
            };
            tally.record(&format!("reader-{}", cell.name), &failures);
            reader.parse_s += one.parse_s;
            reader.records += one.records;
        }
    }
    rec.close();
    let mb = traced.iter().map(|r| r.analysis.bytes).sum::<u64>() as f64 / 1e6;
    let fold_s: f64 = traced.iter().map(|r| r.analysis.fold_s).sum();
    let explain_s: f64 = traced.iter().map(|r| r.analysis.explain_s).sum();
    let incidents: u64 = traced.iter().map(|r| r.analysis.incidents).sum();
    values.insert("trace.reader.parse_mb_per_s", mb / reader.parse_s);
    values.insert("trace.reader.records", reader.records as f64);
    // The fold's own share: analyze_journal minus what the reader alone
    // costs over the same bytes.
    values.insert(
        "experiments.analysis.fold_s",
        (fold_s - reader.parse_s).max(0.0),
    );
    values.insert("experiments.analysis.explain_s", explain_s);
    values.insert("experiments.analysis.mb_per_s", mb / (fold_s + explain_s));
    values.insert("experiments.analysis.incidents", incidents as f64);
    reader.parse_s
}

fn run_traced(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mut rec = SpanRecorder::new(opts.workload.name());
    rec.open(opts.workload.name());

    let (ready, _) = rec.scope("setup", |_| timed_setup(opts, &mut tally));
    // The untraced yardstick the overhead ratios divide by: the same
    // timed loop the end-to-end mode runs, for a third of the budget.
    let (ready, m) = rec.scope("reference", |_| {
        measure(opts, ready, opts.seconds / 3.0, 0, &mut tally)
    });
    let cells = &ready.cells;
    let reference_cpu = m.pass(|s| s.cpu_s);
    let sim = reference_totals(cells, &m.first, ready.sim);
    let has_world = cells
        .iter()
        .any(|c| !matches!(c.kind, CellKind::Analyze(_)));

    // Profiler only: what today's `perf` gate pays for its buckets.
    if has_world {
        let profiled: Vec<CellRun> = rec.scope("profiled", |_| {
            cells
                .iter()
                .map(|cell| {
                    cell.run(Probe {
                        profile: true,
                        ..Probe::default()
                    })
                })
                .collect()
        });
        values.insert(
            "core.world.profile_overhead",
            profiled.iter().map(cell_cpu).sum::<f64>() / reference_cpu,
        );
        for (cell, run) in cells.iter().zip(&profiled) {
            tally.record(&cell.name, &run.failures);
        }
    }

    // The traced pass: spans, profiler, record timing, allocator armed.
    rec.open("traced");
    host::arm_allocator();
    let traced: Vec<CellRun> = cells
        .iter()
        .map(|cell| cell.run(Probe::traced(&mut rec)))
        .collect();
    let allocs = host::disarm_allocator();
    rec.close();
    for ((cell, run), first) in cells.iter().zip(&traced).zip(&m.first) {
        let mut failures = run.failures.clone();
        if first.as_ref().is_some_and(|f| f.output != run.output) {
            failures.push("observing the run changed its simulated output".to_owned());
        }
        tally.record(&cell.name, &failures);
    }
    let traced_cpu: f64 = traced.iter().map(cell_cpu).sum();
    let run_s: f64 = traced.iter().map(|r| r.run_s).sum();
    let profile = ProfileSum::of(&traced);

    values.insert("core.world.new_s", traced.iter().map(|r| r.new_s).sum());
    if has_world {
        values.insert("core.world.run_s", run_s);
    }
    if opts.workload == Workload::Table1 {
        let names = [
            "core.world.run_s.rpcc-hy",
            "core.world.run_s.push",
            "core.world.run_s.pull",
            "core.world.run_s.push-ap",
        ];
        for ((name, cell), run) in names.into_iter().zip(TABLE1_CELLS).zip(&traced) {
            debug_assert!(name.ends_with(cell));
            values.insert(name, run.run_s);
        }
    }
    values.insert("core.world.events", profile.events as f64);
    if profile.events > 0 {
        // Unprofiled host time per event: the reference pass's CPU over
        // the (deterministic) event count the profiled pass reported.
        values.insert(
            "core.world.ns_per_event",
            reference_cpu * 1e9 / profile.events as f64,
        );
    }
    for (name, bucket) in [
        ("core.world.rx_s", "event:rx"),
        ("core.world.proto_timer_s", "event:proto_timer"),
        ("core.world.query_s", "event:query"),
        ("core.world.update_s", "event:update"),
        ("core.world.switch_s", "event:switch"),
        ("core.world.sample_s", "event:sample"),
        ("core.msg.poll_s", "msg:POLL"),
        ("core.msg.invalidation_s", "msg:INVALIDATION"),
    ] {
        values.insert(name, profile.secs(bucket));
    }
    values.insert("sim.queue.pushes", profile.pushes as f64);
    values.insert("sim.queue.pops", profile.pops as f64);
    values.insert("sim.queue.peak_len", profile.peak_len as f64);
    values.insert("net.frames_sent", profile.frames_sent as f64);

    let records: u64 = traced.iter().map(|r| r.journal.records).sum();
    let journal_bytes: u64 = traced.iter().map(|r| r.journal.bytes).sum();
    let record_ns: u64 = traced.iter().map(|r| r.journal.record_ns).sum();
    values.insert("trace.jsonl.records", records as f64);
    values.insert("trace.jsonl.bytes", journal_bytes as f64);
    if records > 0 {
        values.insert("trace.jsonl.record_ns", record_ns as f64 / records as f64);
        values.insert(
            "trace.jsonl.write_mb_per_s",
            journal_bytes as f64 / 1e6 / (record_ns as f64 / 1e9),
        );
    }

    values.insert("host.allocs", allocs.allocs as f64);
    values.insert("host.alloc_mb", allocs.bytes as f64 / 1e6);
    values.insert("host.heap_peak_mb", allocs.peak_net_bytes as f64 / 1e6);
    if profile.frames_sent > 0 {
        values.insert(
            "host.allocs_per_frame",
            allocs.allocs as f64 / profile.frames_sent as f64,
        );
    }
    values.insert("host.trace_overhead", traced_cpu / reference_cpu);
    values.insert("host.calib_ms", median(&m.calib_ms));
    values.insert("host.reps_retried", m.retried as f64);
    values.insert("sim.query_fail_share", sim.query_fail_share());

    // Layer replays, sized from what the traced pass counted. `explained`
    // accumulates Σ(count × unit cost) in seconds for replay coverage;
    // record time was measured in place, not replayed.
    rec.open("replay");
    let mut explained = record_ns as f64 / 1e9;
    let world_cfg = cells.iter().find_map(|c| match &c.kind {
        CellKind::Sim(cfg) | CellKind::Journal(cfg, _) => Some(cfg),
        CellKind::Analyze(_) => None,
    });
    if let Some(cfg) = world_cfg {
        explained += replay_world_layers(&mut rec, cfg, cells, &profile, opts.seed, &mut values);
    }

    let mut report = format!(
        "workload {} seed {} {:?} traced: {} cells\n",
        opts.workload.name(),
        opts.seed,
        opts.scale,
        cells.len()
    );
    if opts.workload == Workload::JournalWrite {
        let cfg = world_cfg.expect("journal cells carry a config");
        rec.scope("trace.overhead", |_| {
            tier_overheads(cfg, &mut tally, &mut values)
        });
    }
    if opts.workload == Workload::JournalRead {
        explained += replay_reader(&mut rec, cells, &traced, &mut tally, &mut values);
    }
    if opts.workload == Workload::Table1 && opts.scale == Scale::Full {
        if opts.seed == 42 {
            let error = rec.scope("sim.reference", |_| {
                reference_error(cells, &mut tally, &mut report)
            });
            values.insert("sim.ref_error", error);
        } else {
            let _ = writeln!(
                report,
                "sim.ref_error: no committed reference for seed {}",
                opts.seed
            );
        }
    }
    rec.close();
    rec.close();

    // Share of the untraced pass the replays account for.
    values.insert("host.replay_coverage", explained / reference_cpu);

    describe(&mut report, cells, &m);
    let _ = writeln!(
        report,
        "reference cpu_s {reference_cpu:.4} traced cpu_s {traced_cpu:.4} (run_s {run_s:.4}); replays explain {explained:.4} s"
    );
    finish(tally, values, true, report, Some(rec.to_json()))
}
