//! The four workloads: what each one runs, how one cell of it is
//! executed and checked, and what set-up it needs.
//!
//! A workload is a fixed list of *cells*; a *pass* runs every cell once.
//! A cell is one of three things, all reached through the simulator's
//! public API only:
//!
//! * a **sim** cell — `World::new(cfg).run()` with the default
//!   `NullSink`;
//! * a **journal** cell — the same with a schema-4 `JsonlSink` over a
//!   discarding writer, every opt-in layer (bursty faults, hardening,
//!   recovery, observatory, provenance) switched on;
//! * an **analyze** cell — `analyze_journal` + `explain_stale_serves` +
//!   the three cross-checks over an in-memory journal that set-up wrote.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use mp2p_experiments::{
    analyze_journal, crosscheck, crosscheck_consistency, crosscheck_explain, explain_stale_serves,
    perf::bench_config, ConsistencyReportTotals, ReportTotals,
};
use mp2p_net::FaultPlan;
use mp2p_rpcc::{
    LevelMix, ObservatoryConfig, ProvenanceConfig, RecoveryConfig, RunReport, Strategy, World,
    WorldConfig,
};
use mp2p_sim::{PerfReport, SimDuration, SimTime};
use mp2p_trace::{JsonlSink, TraceEvent, TraceSink};

use crate::host::Stamp;
use crate::spans::SpanRecorder;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 scenario, four strategies — per-frame work dominates.
    Table1,
    /// 2 000 peers on density-scaled terrain — topology, mobility and
    /// queue depth dominate.
    Scale2000,
    /// Everything-on journal written to a discarding writer — trace
    /// encode dominates.
    JournalWrite,
    /// The same journals read back and analysed — no `World` event runs
    /// in the timed section.
    JournalRead,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::Scale2000,
        Workload::JournalWrite,
        Workload::JournalRead,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1-50",
            Workload::Scale2000 => "scale-2000",
            Workload::JournalWrite => "journal-write-50",
            Workload::JournalRead => "journal-read-50",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the workloads are. `Full` is what `BENCHMARK.json`'s numbers
/// are measured at; `Shrunk` keeps every code path but cuts horizons and
/// peer counts so the package's own tests finish in seconds unoptimised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's real sizes.
    Full,
    /// Test sizes.
    Shrunk,
}

/// Sub-seeds of the journal fleets. Index 0 is `--seed` itself, so a
/// single-cell workload at seed 42 is the familiar seed-42 run; the rest
/// are SplitMix64 outputs, far apart for neighbouring `--seed`s.
fn sub_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Journals per journal workload. One 50-peer everything-on run differs
/// from the next seed's by ±12 % in bytes written; four of them pooled
/// halve that, which is what keeps `cpu_s` and `peak_rss_mb` inside
/// their bounds across seeds.
const JOURNAL_FLEET: u64 = 4;

/// Address space reserved for one in-memory journal (they come to
/// 55–90 MB at full scale); only the pages written are ever resident.
const JOURNAL_RESERVE: usize = 128 << 20;

/// The sizes of one scale.
struct Sizes {
    table1: (SimDuration, SimDuration),
    scale_peers: usize,
    scale: (SimDuration, SimDuration),
    journal: (SimDuration, SimDuration),
    /// Horizon of the untimed warm-up pass set-up runs over every cell.
    warm: (SimDuration, SimDuration),
    warm_scale: (SimDuration, SimDuration),
}

fn sizes(scale: Scale) -> Sizes {
    let mins = SimDuration::from_mins;
    let secs = SimDuration::from_secs;
    match scale {
        // Horizons are the longest that leave at least four passes in
        // the measuring window on the 2-core reference box; the paper's
        // 5 h Table 1 run (12 s a pass) does not fit the driver's cap.
        Scale::Full => Sizes {
            table1: (mins(120), mins(10)),
            scale_peers: 2_000,
            scale: (secs(120), secs(30)),
            journal: (mins(20), mins(5)),
            warm: (mins(10), mins(5)),
            warm_scale: (secs(10), secs(5)),
        },
        Scale::Shrunk => Sizes {
            table1: (secs(90), secs(30)),
            scale_peers: 100,
            scale: (secs(15), secs(5)),
            journal: (secs(120), secs(30)),
            warm: (secs(20), secs(10)),
            warm_scale: (secs(5), secs(2)),
        },
    }
}

/// The four Table 1 cells, in the order the workload runs them.
pub const TABLE1_CELLS: [&str; 4] = ["rpcc-hy", "push", "pull", "push-ap"];

fn table1_config(cell: &str, seed: u64, horizon: (SimDuration, SimDuration)) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    (cfg.strategy, cfg.level_mix) = match cell {
        "rpcc-hy" => (Strategy::Rpcc, LevelMix::hybrid()),
        "push" => (Strategy::Push, LevelMix::strong_only()),
        "pull" => (Strategy::Pull, LevelMix::strong_only()),
        "push-ap" => (Strategy::PushAdaptivePull, LevelMix::strong_only()),
        other => unreachable!("not a Table 1 cell: {other}"),
    };
    (cfg.sim_time, cfg.warmup) = horizon;
    cfg
}

/// Which opt-in layers a journal run switches on, cumulatively: each
/// tier is the one before plus one capability, journalled at the schema
/// that capability needs. `trace.overhead.*` walks all four; the journal
/// workloads run the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalTier {
    /// Schema 1: the base vocabulary.
    Plain,
    /// Schema 2: plus the consistency observatory.
    Observatory,
    /// Schema 3: plus the recovery layer.
    Recovery,
    /// Schema 4: plus causal provenance.
    Provenance,
}

impl JournalTier {
    /// All tiers, cheapest first.
    pub const ALL: [JournalTier; 4] = [
        JournalTier::Plain,
        JournalTier::Observatory,
        JournalTier::Recovery,
        JournalTier::Provenance,
    ];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            JournalTier::Plain => "plain",
            JournalTier::Observatory => "observatory",
            JournalTier::Recovery => "recovery",
            JournalTier::Provenance => "provenance",
        }
    }

    fn sink(self, writer: Box<dyn Write>, warmup: SimDuration) -> JsonlSink {
        match self {
            JournalTier::Plain => JsonlSink::new_with_warmup(writer, warmup),
            JournalTier::Observatory => JsonlSink::new_v2_with_warmup(writer, warmup),
            JournalTier::Recovery => JsonlSink::new_v3_with_warmup(writer, warmup),
            JournalTier::Provenance => JsonlSink::new_v4_with_warmup(writer, warmup),
        }
    }
}

/// The journal workloads' scenario: Table 1 with RPCC(HY) under the
/// `bursty` fault preset and hardening, plus the tier's capabilities —
/// `run --faults bursty --hardened [--consistency] [--recovery]
/// [--provenance]`.
pub fn journal_config(
    seed: u64,
    horizon: (SimDuration, SimDuration),
    tier: JournalTier,
) -> WorldConfig {
    let mut cfg = table1_config("rpcc-hy", seed, horizon);
    cfg.proto = cfg.proto.hardened();
    cfg.faults = FaultPlan::bursty(cfg.sim_time);
    if tier >= JournalTier::Observatory {
        cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    }
    if tier >= JournalTier::Recovery {
        cfg.proto.recovery = RecoveryConfig::on();
    }
    if tier >= JournalTier::Provenance {
        cfg.provenance = ProvenanceConfig::full();
    }
    cfg
}

/// A journal held in memory together with the report of the run that
/// wrote it — the analyze cell's input.
#[derive(Debug)]
pub struct JournalInput {
    /// The JSONL bytes, header line included.
    pub bytes: Vec<u8>,
    /// `RunReport::to_json()` of the writing run.
    pub report_json: String,
}

/// What a cell executes.
#[derive(Debug)]
pub enum CellKind {
    /// `World::new(cfg).run()`, `NullSink`.
    Sim(WorldConfig),
    /// The same with a `JsonlSink` of the tier's schema over
    /// `io::sink()`.
    Journal(WorldConfig, JournalTier),
    /// Analysis of a journal set-up wrote.
    Analyze(JournalInput),
}

/// One unit of a pass.
#[derive(Debug)]
pub struct Cell {
    /// Short name, unique within the workload (`rpcc-hy`, `journal-2`…).
    pub name: String,
    /// What it runs.
    pub kind: CellKind,
    /// Whether the `sim_*` end-to-end statistics pool this cell.
    pub reference: bool,
}

/// The simulated statistics of the reference cells, pooled: counts are
/// summed before any ratio is taken.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTotals {
    transmissions: u64,
    measured_secs: f64,
    latency_ms: u64,
    latency_samples: u64,
    served: u64,
    stale: u64,
    issued: u64,
    failed: u64,
}

impl SimTotals {
    fn of(report: &RunReport) -> Self {
        SimTotals {
            transmissions: report.traffic.transmissions(),
            measured_secs: report.measured.as_secs_f64(),
            latency_ms: report.latency.sum_millis(),
            latency_samples: report.latency.count(),
            served: report.audit.served(),
            stale: report.audit.stale_served(),
            issued: report.queries_issued,
            failed: report.queries_failed,
        }
    }

    /// Adds another cell's counts.
    pub fn pool(&mut self, other: &SimTotals) {
        self.transmissions += other.transmissions;
        self.measured_secs += other.measured_secs;
        self.latency_ms += other.latency_ms;
        self.latency_samples += other.latency_samples;
        self.served += other.served;
        self.stale += other.stale;
        self.issued += other.issued;
        self.failed += other.failed;
    }

    fn ratio(num: f64, den: f64) -> f64 {
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Transmissions per simulated minute (paper Fig. 7 axis).
    pub fn traffic_per_min(&self) -> f64 {
        Self::ratio(self.transmissions as f64, self.measured_secs / 60.0)
    }

    /// Mean query latency in simulated seconds (paper Fig. 8 axis).
    pub fn latency_s(&self) -> f64 {
        Self::ratio(self.latency_ms as f64 / 1e3, self.latency_samples as f64)
    }

    /// Share of served queries that were answered fresh.
    pub fn fresh_share(&self) -> f64 {
        1.0 - Self::ratio(self.stale as f64, self.served as f64)
    }

    /// Share of issued queries that failed in the simulation.
    pub fn query_fail_share(&self) -> f64 {
        Self::ratio(self.failed as f64, self.issued as f64)
    }
}

/// Journal-side counts of one journal cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalStats {
    /// Records written (header excluded).
    pub records: u64,
    /// Bytes handed to the writer.
    pub bytes: u64,
    /// Host nanoseconds inside `JsonlSink::record`; 0 unless the probe
    /// timed records.
    pub record_ns: u64,
}

/// Analysis-side counts of one analyze cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalysisStats {
    /// Journal bytes read.
    pub bytes: u64,
    /// Stale serves explained.
    pub incidents: u64,
    /// CPU seconds in `analyze_journal` (reader included).
    pub fold_s: f64,
    /// CPU seconds in `explain_stale_serves` plus the cross-checks.
    pub explain_s: f64,
}

/// Everything one execution of one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's deterministic output: `RunReport::to_json()` without
    /// its host-time `perf` section, or the analysis digest. Every
    /// repetition must reproduce it byte for byte.
    pub output: String,
    /// Simulated statistics (sim and journal cells; analyze cells read
    /// them back from the report set-up kept).
    pub sim: SimTotals,
    /// Failed correctness checks; empty means the operation succeeded.
    pub failures: Vec<String>,
    /// `World::new` CPU seconds (0 for analyze cells).
    pub new_s: f64,
    /// `World::run` / analysis CPU seconds.
    pub run_s: f64,
    /// The simulator's own profile, when the probe asked for it.
    pub perf: Option<PerfReport>,
    /// Journal counts (journal cells).
    pub journal: JournalStats,
    /// Analysis counts (analyze cells).
    pub analysis: AnalysisStats,
}

impl CellRun {
    /// FNV-1a over [`CellRun::output`].
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.output.as_bytes())
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one execution of a cell is observed with. The timed
/// repetitions run with everything off (the default); the traced pass switches
/// everything on; the profile-only pass isolates what the simulator's
/// own profiler costs.
#[derive(Debug, Default)]
pub struct Probe<'a> {
    /// Record layer-boundary spans (under a span named after the cell).
    pub spans: Option<&'a mut SpanRecorder>,
    /// Switch `World::enable_profiling` on.
    pub profile: bool,
    /// Time every `JsonlSink::record` call.
    pub time_records: bool,
}

impl<'a> Probe<'a> {
    /// The traced pass: spans, profiler and record timing.
    pub fn traced(spans: &'a mut SpanRecorder) -> Self {
        Probe {
            spans: Some(spans),
            profile: true,
            time_records: true,
        }
    }

    fn open(&mut self, name: &str) {
        if let Some(rec) = self.spans.as_deref_mut() {
            rec.open(name);
        }
    }

    fn close(&mut self) {
        if let Some(rec) = self.spans.as_deref_mut() {
            rec.close();
        }
    }
}

/// A `TraceSink` that times every `record` call of the sink it wraps —
/// the benchmark-side probe of the `trace` layer.
struct TimedSink {
    inner: JsonlSink,
    record_ns: u64,
}

impl TraceSink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        let start = Instant::now();
        self.inner.record(at, event);
        self.record_ns += start.elapsed().as_nanos() as u64;
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What a run's transmissions imply for the layers below the protocol,
/// counted from outside by watching the trace stream of one extra,
/// untimed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelCensus {
    /// Topology snapshot rebuilds: every transmission asks for the
    /// snapshot, and one older than the refresh period is rebuilt.
    pub rebuilds: u64,
    /// Receptions the net stack suppressed as duplicate floods.
    pub flood_dups: u64,
    /// Unicast frames that reached their next hop.
    pub unicasts: u64,
}

/// The `TraceSink` behind [`ChannelCensus`]: replays the world's
/// snapshot-staleness rule over the `MsgSend` timestamps.
struct CensusSink {
    refresh: SimDuration,
    built: Option<SimTime>,
    census: ChannelCensus,
}

impl TraceSink for CensusSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        match event {
            TraceEvent::MsgSend { dest, .. } => {
                if self
                    .built
                    .is_none_or(|built| at.saturating_since(built) > self.refresh)
                {
                    self.census.rebuilds += 1;
                    self.built = Some(at);
                }
                self.census.unicasts += u64::from(dest.is_some());
            }
            // A unicast the MAC could not deliver was never received.
            TraceEvent::MacDrop { .. } => {
                self.census.unicasts = self.census.unicasts.saturating_sub(1)
            }
            TraceEvent::FloodDupDrop { .. } => self.census.flood_dups += 1,
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A writer several owners can hand to a `Box<dyn Write>` consumer and
/// read back afterwards.
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs a world to completion, timing construction and the event loop
/// apart (the `core.world.new` / `core.world.run` spans of a probed
/// execution).
fn run_world(
    cfg: &WorldConfig,
    sink: Option<Box<dyn TraceSink>>,
    probe: &mut Probe<'_>,
) -> (RunReport, Box<dyn TraceSink>, f64, f64) {
    probe.open("core.world.new");
    let start = Stamp::now();
    let mut world = World::new(cfg.clone());
    if let Some(sink) = sink {
        world.set_tracer(sink);
    }
    if probe.profile {
        world.enable_profiling();
    }
    let new_s = start.elapsed().cpu_s;
    probe.close();
    probe.open("core.world.run");
    let start = Stamp::now();
    let (report, sink) = world.run_traced();
    let run_s = start.elapsed().cpu_s;
    probe.close();
    (report, sink, new_s, run_s)
}

/// The analysis pass of one journal: fold, explain, cross-check.
fn run_analysis(input: &JournalInput, probe: &mut Probe<'_>) -> CellRun {
    let mut failures = Vec::new();
    probe.open("experiments.analysis.fold");
    let start = Stamp::now();
    let analysis = analyze_journal(&input.bytes[..]);
    let fold_s = start.elapsed().cpu_s;
    probe.close();
    probe.open("experiments.analysis.explain");
    let start = Stamp::now();
    let mut stats = AnalysisStats {
        bytes: input.bytes.len() as u64,
        fold_s,
        ..AnalysisStats::default()
    };
    let mut digest = String::new();
    match analysis {
        Err(err) => failures.push(format!("journal did not parse: {err}")),
        Ok(analysis) => {
            let incidents = explain_stale_serves(&analysis);
            stats.incidents = incidents.len() as u64;
            let totals = ReportTotals::from_report_json(&input.report_json);
            let consistency = ConsistencyReportTotals::from_report_json(&input.report_json);
            match (totals, consistency) {
                (Some(totals), Some(consistency)) => {
                    failures.extend(crosscheck(&analysis.measured_totals(), &totals));
                    failures.extend(crosscheck_consistency(&analysis.consistency, &consistency));
                    failures.extend(crosscheck_explain(&incidents, &consistency));
                    if stats.incidents != consistency.stale_served {
                        failures.push(format!(
                            "{} stale serves but {} incidents",
                            consistency.stale_served, stats.incidents
                        ));
                    }
                }
                _ => failures.push("report JSON lacks the cross-check counters".to_owned()),
            }
            digest = format!(
                "{} {} {} {:?}",
                analysis.events,
                analysis.spans.len(),
                incidents.len(),
                analysis.measured_totals(),
            );
        }
    }
    stats.explain_s = start.elapsed().cpu_s;
    probe.close();
    CellRun {
        output: digest,
        sim: SimTotals::default(),
        failures,
        new_s: 0.0,
        run_s: stats.fold_s + stats.explain_s,
        perf: None,
        journal: JournalStats::default(),
        analysis: stats,
    }
}

/// Runs a journalled world: `tier`'s sink over `writer`, the journal's
/// own checks on top of the accounting ones.
fn run_journal(
    cfg: &WorldConfig,
    tier: JournalTier,
    writer: Box<dyn Write>,
    probe: &mut Probe<'_>,
) -> CellRun {
    let jsonl = tier.sink(writer, cfg.warmup);
    let sink: Box<dyn TraceSink> = if probe.time_records {
        Box::new(TimedSink {
            inner: jsonl,
            record_ns: 0,
        })
    } else {
        Box::new(jsonl)
    };
    let (report, sink, new_s, run_s) = run_world(cfg, Some(sink), probe);
    let (jsonl, record_ns) = match sink.as_any().downcast_ref::<TimedSink>() {
        Some(timed) => (Some(&timed.inner), timed.record_ns),
        None => (sink.as_any().downcast_ref::<JsonlSink>(), 0),
    };
    let jsonl = jsonl.expect("run_traced hands back the sink it was given");
    let mut run = sim_cell_run(report, new_s, run_s);
    run.journal = JournalStats {
        records: jsonl.records(),
        bytes: jsonl.journal_bytes(),
        record_ns,
    };
    if let Some(err) = jsonl.io_error() {
        run.failures.push(format!("journal I/O error: {err}"));
    }
    if jsonl.records() == 0 {
        run.failures.push("journal holds no records".to_owned());
    }
    run
}

fn sim_cell_run(mut report: RunReport, new_s: f64, run_s: f64) -> CellRun {
    // The perf section is host time; everything else in the report is
    // simulated and must repeat exactly.
    let perf = report.perf.take();
    let mut failures = Vec::new();
    if report.queries_served() + report.queries_failed != report.queries_issued {
        failures.push(format!(
            "query accounting: served {} + failed {} != issued {}",
            report.queries_served(),
            report.queries_failed,
            report.queries_issued
        ));
    }
    CellRun {
        output: report.to_json(),
        sim: SimTotals::of(&report),
        failures,
        new_s,
        run_s,
        perf,
        journal: JournalStats::default(),
        analysis: AnalysisStats::default(),
    }
}

impl Cell {
    /// Executes the cell once under `probe`.
    pub fn run(&self, mut probe: Probe<'_>) -> CellRun {
        probe.open(&self.name);
        let out = match &self.kind {
            CellKind::Analyze(input) => run_analysis(input, &mut probe),
            CellKind::Sim(cfg) => {
                let (report, _, new_s, run_s) = run_world(cfg, None, &mut probe);
                sim_cell_run(report, new_s, run_s)
            }
            CellKind::Journal(cfg, tier) => {
                run_journal(cfg, *tier, Box::new(std::io::sink()), &mut probe)
            }
        };
        probe.close();
        out
    }
}

/// Runs every world of the pass once more with a counting sink and
/// returns the summed census.
pub fn census(cells: &[Cell]) -> ChannelCensus {
    let mut census = ChannelCensus::default();
    for cell in cells {
        let (CellKind::Sim(cfg) | CellKind::Journal(cfg, _)) = &cell.kind else {
            continue;
        };
        let sink = CensusSink {
            refresh: cfg.topology_refresh,
            built: None,
            census,
        };
        let (_, sink, _, _) = run_world(cfg, Some(Box::new(sink)), &mut Probe::default());
        census = sink
            .as_any()
            .downcast_ref::<CensusSink>()
            .expect("run_traced hands back the sink it was given")
            .census;
    }
    census
}

/// Benchmark operations attempted and failed. An operation is one cell
/// execution; it fails when any of its correctness checks does.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations run.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// The failed checks, prefixed with the cell's name.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation of `cell` with the given failed checks.
    pub fn record(&mut self, cell: &str, failures: &[String]) {
        self.attempted += 1;
        self.failed += u64::from(!failures.is_empty());
        self.messages
            .extend(failures.iter().map(|f| format!("{cell}: {f}")));
    }
}

/// A workload's pass, ready to time.
#[derive(Debug)]
pub struct Setup {
    /// The cells, in execution order.
    pub cells: Vec<Cell>,
    /// Simulated statistics of the reference runs when set-up already
    /// made them (`journal-read-50`: the runs whose journals are
    /// analysed); otherwise pooled from the timed reference cells.
    pub sim: Option<SimTotals>,
}

/// Seed of the warm-up pass. Warming is not an input: it exists to
/// page-fault the allocator arenas and fill caches, so it runs the same
/// short scenario whatever `--seed` is. (At a 10-minute horizon the
/// start-up transient makes one seed's run a third costlier than the
/// next's, which would make `setup_s` a function of the seed.)
const WARM_SEED: u64 = 0;

/// Builds a workload's inputs from `seed` and runs its untimed warm-up:
/// every cell once at a short horizon, or — for `journal-read-50` — the
/// journal runs whose output the timed section analyses.
pub fn setup(workload: Workload, seed: u64, scale: Scale, tally: &mut Tally) -> Setup {
    let sz = sizes(scale);
    let mut out = Setup {
        cells: Vec::new(),
        sim: None,
    };
    let mut warm: Vec<Cell> = Vec::new();
    match workload {
        Workload::Table1 => {
            for name in TABLE1_CELLS {
                let cell = |seed, horizon| Cell {
                    name: name.to_owned(),
                    kind: CellKind::Sim(table1_config(name, seed, horizon)),
                    reference: name == "rpcc-hy",
                };
                out.cells.push(cell(seed, sz.table1));
                warm.push(cell(WARM_SEED, sz.warm));
            }
        }
        Workload::Scale2000 => {
            let cell = |seed, (sim, warmup)| Cell {
                name: "rpcc-scale".to_owned(),
                kind: CellKind::Sim(bench_config(
                    Strategy::Rpcc,
                    sz.scale_peers,
                    sim,
                    warmup,
                    seed,
                )),
                reference: true,
            };
            out.cells.push(cell(seed, sz.scale));
            warm.push(cell(WARM_SEED, sz.warm_scale));
        }
        Workload::JournalWrite => {
            for i in 0..JOURNAL_FLEET {
                let tier = JournalTier::Provenance;
                let cell = |seed, horizon| Cell {
                    name: format!("journal-{i}"),
                    kind: CellKind::Journal(journal_config(sub_seed(seed, i), horizon, tier), tier),
                    reference: true,
                };
                out.cells.push(cell(seed, sz.journal));
                warm.push(cell(WARM_SEED, sz.warm));
            }
        }
        Workload::JournalRead => {
            let mut sim = SimTotals::default();
            for i in 0..JOURNAL_FLEET {
                let tier = JournalTier::Provenance;
                let cfg = journal_config(sub_seed(seed, i), sz.journal, tier);
                // Reserved, not touched: growing by doubling would copy
                // the journal once over and fault twice the memory, and
                // memory traffic is what a busy neighbour slows most.
                let buf = Rc::new(RefCell::new(Vec::with_capacity(JOURNAL_RESERVE)));
                let writer = Box::new(SharedBuf(buf.clone()));
                let run = run_journal(&cfg, tier, writer, &mut Probe::default());
                tally.record(&format!("journal-{i}"), &run.failures);
                sim.pool(&run.sim);
                let bytes = Rc::try_unwrap(buf)
                    .expect("the run dropped its sink, the only other owner")
                    .into_inner();
                out.cells.push(Cell {
                    name: format!("analyze-{i}"),
                    kind: CellKind::Analyze(JournalInput {
                        bytes,
                        report_json: run.output,
                    }),
                    reference: false,
                });
            }
            out.sim = Some(sim);
        }
    }
    for cell in warm {
        let run = cell.run(Probe::default());
        tally.record(&cell.name, &run.failures);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("table1"), None);
    }

    #[test]
    fn sub_seeds_are_distinct_and_start_at_the_seed() {
        let seeds: Vec<u64> = (0..JOURNAL_FLEET).map(|i| sub_seed(42, i)).collect();
        assert_eq!(seeds[0], 42);
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(sub_seed(42, 1), sub_seed(43, 1));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn journal_tiers_accumulate_capabilities() {
        let horizon = (SimDuration::from_mins(3), SimDuration::from_mins(1));
        let plain = journal_config(1, horizon, JournalTier::Plain);
        assert!(!plain.observatory.enabled() && !plain.provenance.enabled());
        assert!(plain.faults.enabled());
        let full = journal_config(1, horizon, JournalTier::Provenance);
        assert!(full.observatory.enabled());
        assert!(full.proto.recovery.enabled());
        assert!(full.provenance.enabled());
    }
}
