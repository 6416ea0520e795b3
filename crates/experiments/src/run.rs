//! `mp2p run` — one scenario, every knob on the command line, one or
//! several strategies side by side.
//!
//! ```text
//! mp2p run --strategy rpcc --mix hy --loss 0.05 --write-secs 180 --sim 60
//! mp2p run --strategy all --full                  # the Table 1 comparison
//! mp2p run --strategy rpcc,push,pull --faults hostile --hardened
//! ```
//!
//! `--strategy` takes a comma list of `rpcc|push|pull|push-ap`, each
//! optionally with its own level mix (`rpcc:sc,rpcc:hy`), or the aliases
//! `paper` (the six Fig. 7/8 curves) and `all` (plus Push+AP). Entries
//! without a mix take `--mix` (default `sc`). The report table has one
//! column per strategy. The default horizon is 45 simulated minutes with
//! a 10-minute warm-up; `--full` is the paper's 5 hours.
//!
//! Outputs: `--json` writes the machine-readable report — the bare
//! `RunReport::to_json` object for one strategy, `{"seed":N,"reports":[…]}`
//! for a set. `--trace` switches the flight recorder on — one strategy
//! journals to the given file, a set to `PREFIX-<name>.jsonl` per
//! strategy (`RPCC(SC)` → `PREFIX-RPCC-SC.jsonl`) — and prints the
//! event-count table; feed journal and report to `mp2p analyze`.
//! `--profile` prints the wall-clock profile and adds a `perf` section
//! to the report; profiling is strictly observational.
//!
//! Opt-in layers: `--faults PRESET` installs a chaos preset scaled to
//! the run; `--hardened` adds retry backoff, relay orphan lease and
//! fallback flood; `--recovery` adds rejoin resync, acknowledged updates
//! and lease handover; `--consistency` samples divergence every
//! `--sample-secs` (default 30) and blames every stale serve;
//! `--provenance` journals every frame's birth, hops and fate. With a
//! layer off, report and journal bytes are those of a build without it;
//! the journal's schema tier follows from the layers that are on.
//!
//! World-shaping flags are rows of the run-key table ([`keys::TABLE`],
//! shared with scenario files): this module applies the rows whose flag
//! was given and leaves every range to [`WorldConfig::check`]. Only what
//! is a convenience of this front end lives here — `--full`, the
//! `--cache` clamp for small peer counts, `--sample-secs` needing
//! `--consistency`, and feeding the compound `--mobility MODEL[:P...]`
//! token to the mobility rows.
//!
//! Every report is checked against [`check_report`]; a violation exits 1.

use std::fs::File;
use std::path::{Path, PathBuf};

use mp2p_metrics::MessageClass;
use mp2p_rpcc::{ConfigError, LevelMix, MobilityKind, RunReport, World, WorldConfig};
use mp2p_trace::{BlameCause, EventKind, JsonlSink, TraceSink};

use crate::check::check_report;
use crate::cli::{self, Args, Spec};
use crate::keys::{self, Reject, Value};
use crate::report::render_table;
use crate::scenario::QUICK;
use crate::sweep::StrategySpec;

/// The flag list of `mp2p run`.
pub static SPEC: Spec = Spec {
    command: "run",
    positional: "",
    flags: &[
        ("--strategy", "LIST|paper|all"),
        ("--mix", "sc|dc|wc|hy"),
        ("--peers", "N"),
        ("--cache", "N"),
        ("--terrain", "METRES"),
        ("--range", "METRES"),
        ("--mobility", "MODEL[:P...]"),
        ("--sim", "MINUTES"),
        ("--warmup", "MINUTES"),
        ("--full", ""),
        ("--update-secs", "S"),
        ("--query-secs", "S"),
        ("--write-secs", "S"),
        ("--ttl", "HOPS"),
        ("--loss", "P"),
        ("--no-churn", ""),
        ("--oracle-routing", ""),
        ("--adaptive", ""),
        ("--relay-cap", "N"),
        ("--single-item", ""),
        ("--seed", "N"),
        ("--faults", "PRESET"),
        ("--hardened", ""),
        ("--recovery", ""),
        ("--consistency", ""),
        ("--sample-secs", "S"),
        ("--provenance", ""),
        ("--trace", "FILE|PREFIX"),
        ("--json", "FILE"),
        ("--profile", ""),
    ],
};

/// A parsed `mp2p run` command line.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The world every strategy runs in (strategy and mix still unset).
    pub cfg: WorldConfig,
    /// The strategies to run, in column order.
    pub strategies: Vec<StrategySpec>,
    /// Journal file (one strategy) or file prefix (a set).
    pub trace: Option<PathBuf>,
    /// Report JSON destination.
    pub json: Option<PathBuf>,
    /// Whether to switch the wall-clock profiler on.
    pub profile: bool,
}

/// The flags → [`WorldConfig`] mapping: Table 1 at the quick (or
/// `--full`) horizon, then every row of [`keys::TABLE`] whose flag was
/// given, then [`WorldConfig::check`] — so the configuration a plan
/// carries cannot fail [`WorldConfig::validate`].
pub fn world_config(args: &Args) -> Result<WorldConfig, String> {
    let mut cfg = WorldConfig::paper_default(42);
    if !args.flag("--full") {
        cfg.sim_time = QUICK.sim_time;
        cfg.warmup = QUICK.warmup;
    }

    if args.flag("--sample-secs") && !args.flag("--consistency") {
        return Err("--sample-secs only makes sense together with --consistency".into());
    }
    for row in &keys::TABLE {
        let Some(flag) = row.flag.filter(|flag| args.flag(flag)) else {
            continue;
        };
        let value = match args.value_of(flag) {
            Some(text) => Value::Arg(text.to_owned()),
            None => Value::Bool(true),
        };
        (row.set)(&mut cfg, &value).map_err(|why| match why {
            Reject::Unknown(msg) => msg,
            _ => expects(flag, row, args),
        })?;
    }
    if args.flag("--mobility") {
        apply_mobility(&mut cfg, args)?;
    }
    // A small peer count with the default C_Num would fail the check;
    // clamp to the foreign-catalogue size and say so.
    if cfg.c_num >= cfg.n_peers && cfg.n_peers >= 2 {
        let clamped = cfg.n_peers - 1;
        eprintln!("note: clamping cache size to {clamped} (only {clamped} foreign items exist)");
        cfg.c_num = clamped;
    }
    cfg.check().map_err(|e| usage_error(&e, &cfg, args))?;
    Ok(cfg)
}

fn expects(flag: &str, row: &keys::Row, args: &Args) -> String {
    let text = args.value_of(flag).unwrap_or_default();
    format!("{flag} expects {}, got {text:?}", row.expects)
}

/// Applies a `--mobility MODEL[:P...]` token through the `[mobility]`
/// rows: the model's, then the parameters, in order, to the rows that
/// model has.
fn apply_mobility(cfg: &mut WorldConfig, args: &Args) -> Result<(), String> {
    let token = args.value_of("--mobility").unwrap_or_default();
    let (model, params) = cli::split_mobility(token);
    let in_section = |row: &&keys::Row| row.file.is_some_and(|f| f.section == "mobility");
    let mut rows = keys::TABLE.iter().filter(in_section);
    let model_row = rows.next().expect("the model row leads its section");
    (model_row.set)(cfg, &Value::Arg(model.to_owned())).map_err(|why| match why {
        Reject::Unknown(msg) => msg,
        _ => format!("--mobility expects a model, got {token:?}"),
    })?;
    let slots: Vec<_> = rows.filter(|row| (row.get)(cfg).is_some()).collect();
    if params.len() > slots.len() {
        let (most, got) = (slots.len(), params.len());
        return Err(format!(
            "mobility model {model:?} takes at most {most} parameters, got {got}"
        ));
    }
    for (row, text) in slots.iter().zip(params) {
        let value = Value::Arg(text.to_owned());
        (row.set)(cfg, &value).map_err(|_| expects("--mobility", row, args))?;
    }
    Ok(())
}

/// Words a rule of [`WorldConfig::check`] as a usage error naming the
/// flag that set the offending field.
fn usage_error(e: &ConfigError, cfg: &WorldConfig, args: &Args) -> String {
    let token = args.value_of("--mobility").unwrap_or_default();
    match (e.field, e.related, cfg.mobility) {
        ("warmup", Some(_), _) => {
            let (warmup, sim) = (cfg.warmup, cfg.sim_time);
            return format!("--warmup ({warmup}) must end before --sim ({sim}) does");
        }
        (
            "mobility.speed_min",
            Some(_),
            MobilityKind::Waypoint {
                speed_min: min,
                speed_max: max,
                ..
            }
            | MobilityKind::Walk {
                speed_min: min,
                speed_max: max,
                ..
            },
        ) => {
            let model = cli::split_mobility(token).0;
            return format!("mobility model {model:?} needs MIN <= MAX speed, got {min} > {max}");
        }
        // Past the network layer's limit, not the flag's documented range.
        ("n_peers", None, _) if cfg.n_peers >= 2 => {
            return format!("--peers ({}): {e}", cfg.n_peers)
        }
        _ => {}
    }
    let rows = keys::TABLE.iter().filter(|row| row.field == e.field);
    let given = |row: &keys::Row| match (row.flag, row.file) {
        (Some(flag), _) => args.flag(flag).then(|| expects(flag, row, args)),
        (None, Some(f)) if f.section == "mobility" => args
            .flag("--mobility")
            .then(|| expects("--mobility", row, args)),
        _ => None,
    };
    rows.filter_map(given)
        .next()
        .unwrap_or_else(|| e.to_string())
}

/// Opens the flight-recorder journal of a run of `cfg` at the schema
/// tier its enabled layers need: provenance records are schema-4 kinds,
/// recovery records schema-3 and observatory records schema-2, and an
/// older sink would silently skip them.
pub fn journal_sink(path: &Path, cfg: &WorldConfig) -> Result<JsonlSink, String> {
    let at_tier = if cfg.provenance.enabled() {
        JsonlSink::new_v4_with_warmup
    } else if cfg.proto.recovery.enabled() {
        JsonlSink::new_v3_with_warmup
    } else if cfg.observatory.enabled() {
        JsonlSink::new_v2_with_warmup
    } else {
        JsonlSink::new_with_warmup
    };
    let file = File::create(path)
        .map_err(|err| format!("cannot create trace file {}: {err}", path.display()))?;
    Ok(at_tier(Box::new(file), cfg.warmup))
}

impl RunPlan {
    /// Parses the arguments following `mp2p run`. Every rejection is a
    /// one-line error followed by the flag list.
    pub fn parse(argv: &[String]) -> Result<RunPlan, String> {
        let args = Args::parse(&SPEC, argv)?;
        Self::from_args(&args).map_err(|msg| SPEC.error(msg))
    }

    fn from_args(args: &Args) -> Result<RunPlan, String> {
        let cfg = world_config(args)?;
        let mix = match args.value_of("--mix") {
            Some(token) => cli::parse_mix(token)?,
            None => LevelMix::strong_only(),
        };
        let strategies =
            cli::parse_strategy_set(args.value_of("--strategy").unwrap_or("rpcc"), mix)?;
        Ok(RunPlan {
            cfg,
            strategies,
            trace: args.value_of("--trace").map(PathBuf::from),
            json: args.value_of("--json").map(PathBuf::from),
            profile: args.flag("--profile"),
        })
    }

    /// Where the journal of `spec` goes: the `--trace` path itself for
    /// a single strategy, `PREFIX-<name>.jsonl` within a set.
    fn trace_path(&self, spec: &StrategySpec) -> Option<PathBuf> {
        let path = self.trace.as_ref()?;
        if self.strategies.len() == 1 {
            return Some(path.clone());
        }
        Some(PathBuf::from(format!(
            "{}-{}.jsonl",
            path.display(),
            sanitize(spec.name)
        )))
    }
}

/// `RPCC(SC)` → `RPCC-SC`: keep trace filenames shell-friendly.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            c if c.is_ascii_alphanumeric() || c == '-' || c == '_' => out.push(c),
            '+' => out.push_str("plus"),
            _ => {
                if !out.ends_with('-') {
                    out.push('-');
                }
            }
        }
    }
    out.trim_end_matches('-').to_string()
}

/// One finished run: its report and the sink it was recorded through —
/// under `--trace`, a journal that also counts events by kind.
type Recorded = (RunReport, Box<dyn TraceSink>);

/// Runs every strategy of the plan, in column order.
fn execute(plan: &RunPlan) -> Result<Vec<Recorded>, String> {
    let mut runs = Vec::with_capacity(plan.strategies.len());
    for spec in &plan.strategies {
        let mut cfg = plan.cfg.clone();
        cfg.strategy = spec.strategy;
        cfg.level_mix = spec.mix;
        let journal = plan.trace_path(spec).map(|path| journal_sink(&path, &cfg));
        let journal = journal.transpose()?;
        let mut world = World::new(cfg);
        if plan.profile {
            world.enable_profiling();
        }
        if let Some(journal) = journal {
            world.set_tracer(Box::new(journal));
        }
        runs.push(world.run_traced());
    }
    Ok(runs)
}

/// The report table's rows: one metric per row, one column per report.
/// Rows of an opt-in layer appear only when some report carries it.
pub fn report_rows(reports: &[&RunReport]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, cell: &dyn Fn(&RunReport) -> String| {
        let mut r = vec![name.to_string()];
        r.extend(reports.iter().map(|rep| cell(rep)));
        rows.push(r);
    };
    let fixed = |v: f64, decimals: usize| format!("{v:.decimals$}");
    let minutes = |r: &RunReport| r.measured.as_secs_f64() / 60.0;
    row("tx/min", &|r| fixed(r.traffic_per_minute(), 1));
    row("KB/min", &|r| {
        fixed(r.traffic.bytes() as f64 / 1024.0 / minutes(r), 1)
    });
    row("queries served", &|r| r.queries_served().to_string());
    row("served by src/relay/cache", &|r| {
        format!("{}/{}/{}", r.served_by[0], r.served_by[1], r.served_by[2])
    });
    row("cache-hit ratio", &|r| fixed(r.cache_hit_ratio(), 4));
    row("failure rate", &|r| fixed(r.failure_rate(), 4));
    row("mean latency (s)", &|r| fixed(r.mean_latency_secs(), 3));
    row("p95 latency (s)", &|r| {
        fixed(r.latency.percentile(0.95).as_secs_f64(), 3)
    });
    row("fresh fraction", &|r| fixed(r.audit.fresh_fraction(), 4));
    row("stale served (fraction)", &|r| {
        let stale = 1.0 - r.audit.fresh_fraction();
        format!("{} ({})", r.audit.stale_served(), fixed(stale, 4))
    });
    row("max staleness (s)", &|r| {
        fixed(r.audit.max_staleness().as_secs_f64(), 1)
    });
    if reports.iter().any(|r| r.consistency.is_some()) {
        let of = |r: &RunReport, cell: &dyn Fn(&mp2p_rpcc::ConsistencyReport) -> u64| {
            r.consistency
                .as_ref()
                .map_or_else(|| "-".into(), |c| cell(c).to_string())
        };
        row("divergence samples", &|r| of(r, &|c| c.samples));
        row("stale attributed", &|r| of(r, &|c| c.blamed_total()));
        row("Δ violations", &|r| of(r, &|c| c.delta_violations));
        for cause in BlameCause::ALL {
            let blamed = |r: &&RunReport| r.consistency.is_some_and(|c| c.blame[cause.index()] > 0);
            if reports.iter().any(blamed) {
                row(&format!("blame {}", cause.label()), &|r| {
                    of(r, &|c| c.blame[cause.index()])
                });
            }
        }
    }
    row("relay items (mean)", &|r| fixed(r.relay_gauge.mean(), 1));
    row("candidates (mean)", &|r| fixed(r.candidate_gauge.mean(), 1));
    row("energy used (J)", &|r| fixed(r.energy_used_mj / 1_000.0, 1));
    if reports.iter().any(|r| r.writes_issued > 0) {
        row("writes acked/issued", &|r| {
            format!("{}/{}", r.writes_completed(), r.writes_issued)
        });
        row("write latency (s)", &|r| {
            fixed(r.write_latency.mean_secs(), 3)
        });
    }
    if reports.iter().any(|r| r.fault_plan.is_some()) {
        row("fault plan", &|r| r.fault_plan.unwrap_or("-").to_string());
        row("crashes/recoveries", &|r| {
            format!("{}/{}", r.faults.crashes, r.faults.recoveries)
        });
        row("partitions opened/healed", &|r| {
            let faults = &r.faults;
            format!("{}/{}", faults.partitions_started, faults.partitions_healed)
        });
        row("burst drops", &|r| r.faults.burst_drops.to_string());
        row("frames duplicated", &|r| {
            r.faults.frames_duplicated.to_string()
        });
        row("relay leases expired", &|r| {
            r.faults.lease_expiries.to_string()
        });
        row("fallback floods", &|r| r.faults.fallback_floods.to_string());
    }
    if reports.iter().any(|r| r.recovery_enabled) {
        row("rejoin resyncs", &|r| r.faults.resyncs.to_string());
        row("retransmits", &|r| r.faults.retransmits.to_string());
        row("delivery acks", &|r| r.faults.delivery_acks.to_string());
        row("lease handovers", &|r| r.faults.handovers.to_string());
        row("retx queue peak", &|r| r.faults.retx_queue_peak.to_string());
    }
    for class in MessageClass::ALL {
        if reports.iter().any(|r| r.traffic.by_class(class) > 0) {
            row(&format!("tx {}", class.label()), &|r| {
                r.traffic.by_class(class).to_string()
            });
        }
    }
    rows
}

fn print_profile(name: &str, report: &RunReport) {
    let Some(perf) = &report.perf else { return };
    println!(
        "\nWall-clock profile of {name}: {} events in {:.2}s ({:.0} events/s, {:.0}x real time)",
        perf.events(),
        perf.wall_secs(),
        perf.events_per_sec(),
        perf.sim_time_ratio(),
    );
    println!(
        "Queue: {} pushes / {} pops, peak {} pending (capacity {}); {} frames sent",
        perf.queue.pushes,
        perf.queue.pops,
        perf.queue.peak_len,
        perf.queue.peak_capacity,
        perf.frames_sent,
    );
    println!(
        "Topology: {} snapshots, {} adjacency rows built",
        perf.topology.snapshots, perf.topology.rows_built,
    );
    let rows: Vec<Vec<String>> = perf
        .top(10)
        .iter()
        .map(|bucket| {
            vec![
                bucket.name.to_string(),
                bucket.count.to_string(),
                format!("{:.4}", bucket.secs()),
                format!("{:.1}%", perf.share(bucket) * 100.0),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["bucket", "count", "wall s", "share"], &rows)
    );
}

/// `mp2p run`: parses `argv`, runs the plan and prints the report.
/// `Ok(false)` means an invariant of [`check_report`] was violated.
pub fn command(argv: &[String]) -> Result<bool, String> {
    let plan = RunPlan::parse(argv)?;
    let cfg = &plan.cfg;
    let names: Vec<&str> = plan.strategies.iter().map(|s| s.name).collect();
    println!(
        "Running {} — {} peers, {:.0} m terrain side, {} simulated, warmup {} (seed {})",
        names.join(", "),
        cfg.n_peers,
        cfg.terrain.width(),
        cfg.sim_time,
        cfg.warmup,
        cfg.seed
    );
    let runs = execute(&plan)?;
    let reports: Vec<&RunReport> = runs.iter().map(|(report, _)| report).collect();

    if let Some(path) = &plan.json {
        let doc = match reports[..] {
            [single] => single.to_json(),
            _ => {
                let body: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
                format!(
                    "{{\"seed\":{},\"reports\":[{}]}}\n",
                    cfg.seed,
                    body.join(",")
                )
            }
        };
        std::fs::write(path, doc)
            .map_err(|err| format!("cannot write report {}: {err}", path.display()))?;
        println!("Report JSON -> {}", path.display());
    }

    let mut headers = vec!["metric"];
    headers.extend(&names);
    print!("{}", render_table(&headers, &report_rows(&reports)));
    for (name, report) in names.iter().zip(&reports) {
        print_profile(name, report);
    }

    if plan.trace.is_some() {
        let journals: Vec<&JsonlSink> = runs
            .iter()
            .map(|(_, tracer)| tracer.as_any().downcast_ref().expect("a traced run"))
            .collect();
        println!("\nTrace events by kind:");
        let mut headers = vec!["event"];
        headers.extend(&names);
        let rows: Vec<Vec<String>> = EventKind::ALL
            .into_iter()
            .filter(|&kind| journals.iter().any(|j| j.count_of(kind) > 0))
            .map(|kind| {
                let mut row = vec![kind.label().to_string()];
                row.extend(journals.iter().map(|j| j.count_of(kind).to_string()));
                row
            })
            .collect();
        print!("{}", render_table(&headers, &rows));
        println!();
        for (spec, journal) in plan.strategies.iter().zip(&journals) {
            let path = plan.trace_path(spec).expect("trace requested");
            if let Some(err) = journal.io_error() {
                eprintln!("warning: trace file truncated by I/O error: {err}");
            }
            println!(
                "Flight recorder: {} events -> {}",
                journal.records(),
                path.display()
            );
        }
    }

    let mut clean = true;
    for (name, report) in names.iter().zip(&reports) {
        for violation in check_report(report) {
            eprintln!("INVARIANT VIOLATED: {name}: {violation}");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp2p_sim::SimDuration;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn mobility_tokens_with_and_without_parameters() {
        let mobility = |token: &str| {
            RunPlan::parse(&argv(&["--mobility", token])).map(|plan| plan.cfg.mobility)
        };
        assert_eq!(
            mobility("manhattan").unwrap(),
            MobilityKind::Manhattan {
                block: 150.0,
                speed: 8.0
            }
        );
        assert_eq!(
            mobility("manhattan:100:12.5").unwrap(),
            MobilityKind::Manhattan {
                block: 100.0,
                speed: 12.5
            }
        );
        assert_eq!(
            mobility("waypoint:1:3:0").unwrap(),
            MobilityKind::Waypoint {
                speed_min: 1.0,
                speed_max: 3.0,
                max_pause: SimDuration::ZERO,
            }
        );
        assert_eq!(mobility("stationary").unwrap(), MobilityKind::Stationary);
        for bad in [
            "stationary:1",
            "manhattan:1:2:3",
            "manhattan:fast",
            "manhattan:0",
            "manhattan:1e-9:8",
            "manhattan:2000",
            "manhattan:1e308:1e308",
            "walk:1:2:0",
            "walk:1:2:0.0001",
            "waypoint:3:1",
            "waypoint:5",
            "walk:-1",
            "walk:inf",
            "walk:1e-300:1",
            "teleport",
        ] {
            let err = mobility(bad).unwrap_err();
            let first = err.lines().next().unwrap_or_default();
            assert!(
                first.contains("mobility") && first.contains(bad.split(':').next().unwrap()),
                "{bad:?} must be rejected naming the flag and the token: {err}"
            );
        }
    }

    /// Flags that shape the plan rather than the world, or (`--mobility`)
    /// feed several rows at once: the only ones without a row of their own.
    const RUN_ONLY: [&str; 7] = [
        "--strategy",
        "--mix",
        "--mobility",
        "--full",
        "--trace",
        "--json",
        "--profile",
    ];

    #[test]
    fn every_world_flag_is_a_table_row_and_every_row_flag_is_declared() {
        for (flag, _) in SPEC.flags {
            let rows: Vec<_> = keys::TABLE
                .iter()
                .filter(|r| r.flag == Some(flag))
                .collect();
            assert_eq!(rows.len(), usize::from(!RUN_ONLY.contains(flag)), "{flag}");
        }
        for flag in keys::TABLE.iter().filter_map(|r| r.flag) {
            assert!(SPEC.flags.iter().any(|(f, _)| *f == flag), "{flag}");
        }
    }

    /// For every row a flag can set: a value inside its range builds a
    /// plan, and a value one step outside — or not of its type at all —
    /// is refused in the row's own `expects` words.
    #[test]
    fn one_step_outside_a_rows_range_is_refused_in_its_own_words() {
        let cases: [(&str, &str, &[&str]); 14] = [
            ("--peers", "12", &["1", "-3", "2.5", "many"]),
            ("--cache", "1", &["0", "1e3"]),
            ("--range", "0.5", &["0", "-1", "inf"]),
            ("--terrain", "400", &["0", "nan"]),
            ("--sim", "11", &["-1", "1e300", "x"]),
            ("--warmup", "0", &["-0.5", "1e300"]),
            ("--query-secs", "0.001", &["0.0001", "0", "1e300"]),
            ("--update-secs", "0.001", &["1e-9", "-1"]),
            ("--write-secs", "0.001", &["0.0001", "0"]),
            ("--ttl", "255", &["0", "256", "-1"]),
            ("--loss", "1", &["1.0001", "-0.1", "nan"]),
            ("--relay-cap", "1", &["0", "-1"]),
            (
                "--seed",
                "18446744073709551615",
                &["-1", "18446744073709551616", "1.5"],
            ),
            ("--faults", "hostile", &[]),
        ];
        for row in &keys::TABLE {
            let Some(flag) = row.flag else { continue };
            let takes_a_value = |(f, metavar): &(&str, &str)| *f == flag && !metavar.is_empty();
            if flag == "--sample-secs" || !SPEC.flags.iter().any(takes_a_value) {
                continue; // needs --consistency: below
            }
            let (_, good, bad) = cases
                .iter()
                .find(|(f, ..)| *f == flag)
                .unwrap_or_else(|| panic!("no range case for {flag}"));
            RunPlan::parse(&argv(&[flag, good])).unwrap_or_else(|e| panic!("{flag} {good}: {e}"));
            for text in *bad {
                let err = RunPlan::parse(&argv(&[flag, text])).unwrap_err();
                let want = format!("mp2p run: {flag} expects {}, got {text:?}\n", row.expects);
                assert!(err.starts_with(&want), "{flag} {text}: {err}");
            }
        }
        RunPlan::parse(&argv(&["--consistency", "--sample-secs", "0.001"])).unwrap();
        let err = RunPlan::parse(&argv(&["--consistency", "--sample-secs", "0.0001"])).unwrap_err();
        let want = "mp2p run: --sample-secs expects a positive number of seconds, got \"0.0001\"\n";
        assert!(err.starts_with(want), "{err}");
        // The seed keeps all 64 bits on its way through the table.
        let plan = RunPlan::parse(&argv(&["--seed", "18446744073709551615"])).unwrap();
        assert_eq!(plan.cfg.seed, u64::MAX);
    }

    #[test]
    fn sanitized_names_are_path_safe() {
        assert_eq!(sanitize("RPCC(SC)"), "RPCC-SC");
        assert_eq!(sanitize("Push+AP"), "PushplusAP");
        assert_eq!(sanitize("Pull"), "Pull");
    }

    #[test]
    fn a_set_journals_per_strategy_and_a_single_run_to_the_named_file() {
        let set = RunPlan::parse(&argv(&["--strategy", "rpcc,push", "--trace", "/tmp/x"])).unwrap();
        assert_eq!(
            set.trace_path(&set.strategies[1]),
            Some(PathBuf::from("/tmp/x-Push.jsonl"))
        );
        let single = RunPlan::parse(&argv(&["--trace", "/tmp/x.jsonl"])).unwrap();
        assert_eq!(
            single.trace_path(&single.strategies[0]),
            Some(PathBuf::from("/tmp/x.jsonl"))
        );
    }
}
