//! The paper's table and figures as concrete sweeps, plus the two
//! studies the paper implies but does not plot (design-choice ablations
//! and the per-level staleness audit). Every function here returns data
//! — rows or series — and `mp2p paper` renders them all the same way.

use mp2p_rpcc::{
    ConsistencyLevel, LevelMix, RoutingMode, RunReport, Strategy, WorkloadMode, World, WorldConfig,
};
use mp2p_sim::SimDuration;

use crate::report::{render_series_table, render_table};
use crate::sweep::{
    paper_strategies, run_parallel, sweep, MeasuredPoint, RunOptions, Series, StrategySpec,
};

/// One y-axis reading of a sweep: which metric a figure panel plots.
#[derive(Debug, Clone, Copy)]
pub struct View {
    /// Panel heading, printed when a figure shows more than one view.
    pub heading: &'static str,
    /// Selects the plotted metric of a point.
    pub value: fn(&MeasuredPoint) -> f64,
    /// Unit suffix of a table cell.
    pub unit: &'static str,
    /// What the numbers are, printed under the table.
    pub note: &'static str,
}

/// The Fig. 7 / Fig. 9(a) y-axis.
pub const TRAFFIC: View = View {
    heading: "Network traffic",
    value: |p| p.traffic_per_min,
    unit: "",
    note: "(transmissions per simulated minute; every MAC-level hop counted)",
};

/// The Fig. 8 / Fig. 9(b) y-axis (log scale in the paper).
pub const LATENCY: View = View {
    heading: "Query latency",
    value: |p| p.latency_s,
    unit: "s",
    note: "(mean query latency over served queries)",
};

/// A regenerated figure: labelled series over a labelled x axis.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Figure id as in the paper ("Fig 7(a)" …).
    pub id: &'static str,
    /// What the paper's caption says it shows.
    pub caption: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// The measured curves.
    pub series: Vec<Series>,
    /// The panels to print, one table each.
    pub views: &'static [View],
}

/// One printed table of an artefact.
#[derive(Debug, Clone)]
pub struct Table {
    /// Line printed above the table; empty for none.
    pub heading: String,
    /// The rendered table.
    pub text: String,
    /// Line(s) printed under the table; empty for none.
    pub note: &'static str,
}

/// One regenerated artefact of the evaluation, ready to print.
#[derive(Debug, Clone)]
pub struct Artefact {
    /// Title line.
    pub title: String,
    /// The artefact's tables, in print order.
    pub tables: Vec<Table>,
    /// The figure id and curves behind `results/<id>.csv`; `None` for
    /// table-only artefacts.
    pub csv: Option<(&'static str, Vec<Series>)>,
}

impl From<FigureData> for Artefact {
    fn from(fig: FigureData) -> Artefact {
        let tables = fig
            .views
            .iter()
            .map(|view| Table {
                heading: match fig.views.len() {
                    1 => String::new(),
                    _ => view.heading.to_owned(),
                },
                text: render_series_table(fig.x_label, &fig.series, view.value, view.unit),
                note: view.note,
            })
            .collect();
        Artefact {
            title: format!("{} — {}", fig.id, fig.caption),
            tables,
            csv: Some((fig.id, fig.series)),
        }
    }
}

/// Table 1 as an artefact.
pub fn table1() -> Artefact {
    Artefact {
        title: "Table 1. Simulation Parameters (paper defaults, live from WorldConfig)".to_owned(),
        tables: vec![Table {
            heading: String::new(),
            text: render_table(
                &["Parameter", "Description", "Default Value"],
                &table1_rows(),
            ),
            note: "",
        }],
        csv: None,
    }
}

/// Table 1 of the paper, as (parameter, description, default) rows taken
/// from the live configuration (so the table can never drift from the
/// code).
pub fn table1_rows() -> Vec<Vec<String>> {
    let cfg = WorldConfig::paper_default(0);
    let p = &cfg.proto;
    let row = |name: &str, desc: &str, value: String| vec![name.into(), desc.into(), value];
    vec![
        row(
            "N_Peers",
            "Number of peers in the network",
            cfg.n_peers.to_string(),
        ),
        row(
            "T_Area",
            "Physical terrain dimension of the network",
            format!(
                "{:.1}km*{:.1}km",
                cfg.terrain.width() / 1_000.0,
                cfg.terrain.height() / 1_000.0
            ),
        ),
        row(
            "C_Num",
            "Cache number of each mobile host",
            cfg.c_num.to_string(),
        ),
        row(
            "C_Range",
            "Communication range of mobile hosts",
            format!("{:.0}m", cfg.range),
        ),
        row("T_Sim", "Simulation time", format!("{}", cfg.sim_time)),
        row(
            "I_Update",
            "Average interval of data item update",
            format!("{}", cfg.i_update),
        ),
        row(
            "I_Query",
            "Average interval of query requests",
            format!("{}", cfg.i_query),
        ),
        row(
            "TTL_BR",
            "TTL of broadcast message in simple push/pull",
            format!("{} hops", p.broadcast_ttl),
        ),
        row(
            "",
            "TTL of invalidation message in RPCC",
            format!("{} hops", p.invalidation_ttl),
        ),
        row(
            "TTN_OP",
            "TTN of data item at owner peer",
            format!("{}", p.ttn),
        ),
        row(
            "TTR_RP",
            "TTR of data item at relay peer",
            format!("{}", p.ttr),
        ),
        row(
            "TTP_CP",
            "TTP of data item at cache peer",
            format!("{}", p.ttp),
        ),
        row(
            "I_Switch",
            "Switching interval of each peer",
            cfg.i_switch
                .map(|d| format!("{d}"))
                .unwrap_or_else(|| "off".into()),
        ),
        row(
            "mu_CAR",
            "Threshold of CAR (Eq. 4.2.3)",
            format!("{}", p.mu_car),
        ),
        row(
            "mu_CS",
            "Threshold of CS (Eq. 4.2.6)",
            format!("{}", p.mu_cs),
        ),
        row(
            "mu_CE",
            "Threshold of CE (Eq. 4.2.7)",
            format!("{}", p.mu_ce),
        ),
        row(
            "omega",
            "Weighting parameter of recent/history values",
            format!("{}", p.omega),
        ),
    ]
}

/// The update-interval sweep shared by Fig. 7(a) and Fig. 8(a):
/// `I_Update` ∈ {0.5, 1, 2, 4, 8} minutes.
fn update_interval_sweep(opts: RunOptions) -> Vec<Series> {
    let xs = [0.5, 1.0, 2.0, 4.0, 8.0];
    sweep(&paper_strategies(), &xs, opts, |cfg, x| {
        cfg.i_update = SimDuration::from_secs_f64(x * 60.0);
    })
}

/// The query-interval sweep shared by Fig. 7(b) and Fig. 8(b):
/// `I_Query` ∈ {5, 10, 20, 40, 80} seconds.
fn query_interval_sweep(opts: RunOptions) -> Vec<Series> {
    let xs = [5.0, 10.0, 20.0, 40.0, 80.0];
    sweep(&paper_strategies(), &xs, opts, |cfg, x| {
        cfg.i_query = SimDuration::from_secs_f64(x);
    })
}

/// The cache-number sweep shared by Fig. 7(c) and Fig. 8(c):
/// `C_Num` ∈ {2, 5, 10, 15, 20}.
fn cache_number_sweep(opts: RunOptions) -> Vec<Series> {
    let xs = [2.0, 5.0, 10.0, 15.0, 20.0];
    sweep(&paper_strategies(), &xs, opts, |cfg, x| {
        cfg.c_num = x as usize;
    })
}

/// Fig. 7(a): network traffic vs. data-update interval.
pub fn fig7a(opts: RunOptions) -> FigureData {
    FigureData {
        id: "Fig 7(a)",
        caption: "Network traffic under different update intervals",
        x_label: "update interval (min)",
        series: update_interval_sweep(opts),
        views: &[TRAFFIC],
    }
}

/// Fig. 7(b): network traffic vs. query-request interval.
pub fn fig7b(opts: RunOptions) -> FigureData {
    FigureData {
        id: "Fig 7(b)",
        caption: "Network traffic under different query intervals",
        x_label: "query interval (s)",
        series: query_interval_sweep(opts),
        views: &[TRAFFIC],
    }
}

/// Fig. 7(c): network traffic vs. cache number.
pub fn fig7c(opts: RunOptions) -> FigureData {
    FigureData {
        id: "Fig 7(c)",
        caption: "Network traffic under different cache numbers",
        x_label: "cache number",
        series: cache_number_sweep(opts),
        views: &[TRAFFIC],
    }
}

/// Fig. 8(a): query latency vs. data-update interval.
pub fn fig8a(opts: RunOptions) -> FigureData {
    FigureData {
        id: "Fig 8(a)",
        caption: "Query latency under different update intervals (log scale in the paper)",
        views: &[LATENCY],
        ..fig7a(opts)
    }
}

/// Fig. 8(b): query latency vs. query-request interval.
pub fn fig8b(opts: RunOptions) -> FigureData {
    FigureData {
        id: "Fig 8(b)",
        caption: "Query latency under different query intervals (log scale in the paper)",
        views: &[LATENCY],
        ..fig7b(opts)
    }
}

/// Fig. 8(c): query latency vs. cache number.
pub fn fig8c(opts: RunOptions) -> FigureData {
    FigureData {
        id: "Fig 8(c)",
        caption: "Query latency under different cache numbers (log scale in the paper)",
        views: &[LATENCY],
        ..fig7c(opts)
    }
}

/// Fig. 9: impact of the invalidation-message TTL (1–7 hops) on RPCC(SC),
/// with simple push and pull as flat references. Uses the paper's
/// single-item scenario: "one peer is randomly selected as the source
/// host and its data item is cached by all other peers."
///
/// One [`FigureData`] carries both panels: the traffic view is Fig. 9(a),
/// the latency view Fig. 9(b).
pub fn fig9(opts: RunOptions) -> FigureData {
    let xs: Vec<f64> = (1..=7).map(|t| t as f64).collect();
    let rpcc = [StrategySpec::of(Strategy::Rpcc, LevelMix::strong_only())];
    let mut series = sweep(&rpcc, &xs, opts, |cfg, x| {
        cfg.workload = WorkloadMode::SingleItem;
        cfg.proto.invalidation_ttl = x as u8;
    });
    // Push and pull ignore the invalidation TTL; run each once and
    // replicate the point across the axis as the paper's reference lines.
    for strategy in [Strategy::Push, Strategy::Pull] {
        let spec = StrategySpec::of(strategy, LevelMix::strong_only());
        let one = sweep(&[spec], &[0.0], opts, |cfg, _| {
            cfg.workload = WorkloadMode::SingleItem;
        });
        let point = one[0].points[0];
        series.push(Series {
            name: spec.name,
            points: xs.iter().map(|&x| MeasuredPoint { x, ..point }).collect(),
        });
    }
    FigureData {
        id: "Fig 9",
        caption: "Impact of invalidation TTL: (a) network traffic, (b) query latency",
        x_label: "TTL (hops)",
        series,
        views: &[TRAFFIC, LATENCY],
    }
}

/// Runs one study's labelled variants in parallel and renders them as a
/// one-row-per-variant table.
fn variant_table(heading: &str, variants: Vec<(String, WorldConfig)>, note: &'static str) -> Table {
    let reports = run_parallel(&variants, |(_, cfg)| World::new(cfg.clone()).run());
    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&reports)
        .map(|((label, _), r)| {
            vec![
                label.clone(),
                format!("{:.0}", r.traffic_per_minute()),
                format!("{:.3}", r.mean_latency_secs()),
                format!("{:.3}", r.failure_rate()),
                format!("{:.1}", r.relay_gauge.mean()),
                format!("{:.3}", 1.0 - r.audit.fresh_fraction()),
            ]
        })
        .collect();
    Table {
        heading: heading.to_owned(),
        text: render_table(
            &["variant", "tx/min", "latency(s)", "fail", "relays", "stale"],
            &rows,
        ),
        note,
    }
}

/// Ablation studies of the reproduction's design choices (DESIGN.md
/// §5/§6) and the paper's future-work extensions, each a one-knob sweep
/// of RPCC(SC) at the Table 1 default point, seed 42:
///
/// 1. **Demotion hysteresis** — the paper's literal one-failing-tick
///    demotion vs the grace used here.
/// 2. **POLL ring start TTL** — how wide the first poll should cast.
/// 3. **Adaptive frequencies** (future work §6.1) — off vs on, at slow
///    and fast update rates.
/// 4. **Relay admission cap** (future work §6.2) — uncapped vs 1/2/4
///    relays per item.
/// 5. **Routing substrate** — on-demand discovery vs the omniscient
///    oracle, per strategy.
pub fn ablation(opts: RunOptions) -> Artefact {
    let base = |strategy: Strategy, mix: LevelMix| StrategySpec::of(strategy, mix).config(opts, 42);
    let rpcc = || base(Strategy::Rpcc, LevelMix::strong_only());
    let vary = |label: String, knob: &dyn Fn(&mut WorldConfig)| {
        let mut cfg = rpcc();
        knob(&mut cfg);
        (label, cfg)
    };
    let hysteresis = [1u8, 2, 4]
        .map(|ticks| {
            vary(format!("{ticks} failing tick(s)"), &|cfg| {
                cfg.proto.demote_grace_ticks = ticks
            })
        })
        .to_vec();
    let poll_ttl = [1u8, 2, 4, 8]
        .map(|ttl| vary(format!("first TTL {ttl}"), &|cfg| cfg.proto.poll_ttl = ttl))
        .to_vec();
    let adaptive = [
        ("fixed, updates 2min", 120u64, false),
        ("adaptive, updates 2min", 120, true),
        ("fixed, updates 15min", 900, false),
        ("adaptive, updates 15min", 900, true),
    ]
    .map(|(label, update, adaptive)| {
        let mut cfg = base(Strategy::Rpcc, LevelMix::delta_only());
        cfg.i_update = SimDuration::from_secs(update);
        cfg.proto.adaptive = adaptive;
        (label.to_owned(), cfg)
    })
    .to_vec();
    let relay_cap = [None, Some(1usize), Some(2), Some(4)]
        .map(|cap| {
            let label = match cap {
                None => "uncapped (paper)".to_string(),
                Some(n) => format!("cap {n}/item"),
            };
            vary(label, &|cfg| cfg.proto.max_relays_per_item = cap)
        })
        .to_vec();
    let mut routing = Vec::new();
    for strategy in [
        Strategy::Rpcc,
        Strategy::Push,
        Strategy::Pull,
        Strategy::PushAdaptivePull,
    ] {
        for (mode, name) in [
            (RoutingMode::OnDemand, "on-demand"),
            (RoutingMode::Oracle, "oracle"),
        ] {
            let mut cfg = base(strategy, LevelMix::strong_only());
            cfg.routing = mode;
            routing.push((format!("{} / {name}", strategy.label()), cfg));
        }
    }
    Artefact {
        title: format!(
            "Ablations of RPCC(SC) at Table 1 defaults, {} simulated",
            opts.sim_time
        ),
        tables: vec![
            variant_table(
                "Ablation 1: relay demotion hysteresis (paper literal = 1 tick)",
                hysteresis,
                "",
            ),
            variant_table(
                "Ablation 2: POLL ring starting TTL (paper: 'broadcast POLL', scope open)",
                poll_ttl,
                "",
            ),
            variant_table(
                "Ablation 3: adaptive push/pull frequency (future work 6.1)",
                adaptive,
                "",
            ),
            variant_table(
                "Ablation 4: relay admission cap (future work 6.2)",
                relay_cap,
                "",
            ),
            variant_table(
                "Ablation 5: routing substrate (on-demand vs omniscient oracle)",
                routing,
                "(the gap between rows is the price of real route discovery)",
            ),
        ],
        csv: None,
    }
}

/// Consistency-quality audit (an artefact the paper does not plot but
/// its Section 3 definitions imply): for each strategy and each
/// consistency level of the hybrid workload, how stale were the answers
/// actually served?
pub fn staleness(opts: RunOptions) -> Artefact {
    let strategies = [Strategy::Pull, Strategy::Push, Strategy::Rpcc];
    let reports: Vec<RunReport> = run_parallel(&strategies, |&strategy| {
        World::new(StrategySpec::of(strategy, LevelMix::hybrid()).config(opts, 42)).run()
    });
    let mut rows = Vec::new();
    for (strategy, report) in strategies.iter().zip(&reports) {
        for level in ConsistencyLevel::ALL {
            let audit = &report.audit_by_level[level.index()];
            let latency = &report.latency_by_level[level.index()];
            rows.push(vec![
                format!("{} / {}", strategy.label(), level.label()),
                audit.served().to_string(),
                format!("{:.2}", (1.0 - audit.fresh_fraction()) * 100.0),
                format!("{:.1}", audit.mean_staleness_of_stale().as_secs_f64()),
                format!("{:.1}", audit.max_staleness().as_secs_f64()),
                audit.max_version_lag().to_string(),
                format!("{:.3}", latency.mean_secs()),
            ]);
        }
    }
    Artefact {
        title: format!(
            "Consistency quality under the hybrid (1/3 weak, 1/3 Δ, 1/3 strong) workload,\n\
             Table 1 defaults, {} simulated.",
            opts.sim_time
        ),
        tables: vec![Table {
            heading: String::new(),
            text: render_table(
                &[
                    "strategy / level",
                    "served",
                    "stale %",
                    "mean stale (s)",
                    "max stale (s)",
                    "max version lag",
                    "mean latency (s)",
                ],
                &rows,
            ),
            note:
                "\nReading guide: the baselines ignore the requested level (pull validates every\n\
                   query, push holds every query for the next report), so their three rows differ\n\
                   only by sampling. RPCC differentiates: weak rows never wait and go stalest,\n\
                   Δ rows ride the TTP lease (staleness ≤ TTP + report cycle), strong rows ride\n\
                   relay freshness (staleness ≤ one report cycle).",
        }],
        csv: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_defaults() {
        let rows = table1_rows();
        let find = |name: &str| {
            rows.iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name} missing"))[2]
                .clone()
        };
        assert_eq!(find("N_Peers"), "50");
        assert_eq!(find("T_Area"), "1.5km*1.5km");
        assert_eq!(find("C_Num"), "10");
        assert_eq!(find("C_Range"), "250m");
        assert_eq!(find("I_Update"), "2min");
        assert_eq!(find("I_Query"), "20.000s");
        assert_eq!(find("TTL_BR"), "8 hops");
        assert_eq!(find("TTN_OP"), "2min");
        assert_eq!(find("TTP_CP"), "4min");
        assert_eq!(find("I_Switch"), "5min");
        assert_eq!(find("mu_CAR"), "0.15");
        assert_eq!(find("omega"), "0.2");
    }
}
