//! Causal-provenance-engine guarantees.
//!
//! Three invariants are pinned here:
//!
//! 1. **Off means invisible.** With the provenance engine disabled (the
//!    default), a traced run through a schema-4-capable sink must produce
//!    a journal byte-identical to the pre-provenance build — the sink may
//!    speak schema 4, but no frame record may appear and nothing else may
//!    shift. The fingerprint below was generated by a tree with the
//!    engine compiled in but switched off; regenerate (only when a change
//!    is *meant* to alter the journal) with:
//!
//!    ```text
//!    UPDATE_GOLDEN=1 cargo test -p mp2p-rpcc --test provenance_engine
//!    ```
//!
//! 2. **Frames are born before anything else happens to them.** Every
//!    `FrameHop`, `FrameFate` and `CopyLineage` record names a
//!    `(origin, frame)` identity whose `FrameBorn` appears earlier in the
//!    journal — the lineage graph has no dangling references.
//!
//! 3. **Observation does not perturb.** Enabling the engine leaves the
//!    simulated results bit-identical, and the same seed gives the same
//!    journal bytes twice.
//!
//! 4. **Record order with every layer on.** The two layer-off goldens
//!    cannot see a reordering among `FrameFate`, `FrameDup`,
//!    `CopyLineage` or retransmit records, so a third fingerprint pins
//!    RPCC(HY) under bursty faults with hardening, recovery, the
//!    observatory and provenance all enabled. It was generated by the
//!    engine that queued one event per listener and must survive any
//!    change to how receptions are delivered.
//!
//! 5. **Every path the engine has, byte for byte.** The goldens above
//!    journal RPCC only, always routed on demand, without replica writes
//!    or crashes. [`ENGINE_PINS`] is a table of small worlds that between
//!    them reach every strategy, both routing modes, the write extension,
//!    the single-item workload, the adaptive tuner, crash recovery and
//!    the hostile fault preset; each row pins the journal *and*
//!    `RunReport::to_json()`, so a change to the engine that claims to
//!    move nothing can be held to it.

use std::path::PathBuf;

use mp2p_net::FaultPlan;
use mp2p_rpcc::{
    LevelMix, ObservatoryConfig, ProvenanceConfig, RecoveryConfig, RoutingMode, RunReport,
    Strategy, WorkloadMode, World, WorldConfig,
};
use mp2p_sim::{FastSet, SimDuration};
use mp2p_trace::{FrameFateKind, JsonlSink, RingSink, TraceEvent};

/// The chaos scenario the invariants run: the paper's 50-peer terrain,
/// shortened, under the bursty-loss preset so drop paths are exercised.
fn chaos(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.strategy = Strategy::Rpcc;
    cfg.sim_time = SimDuration::from_mins(8);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.faults = FaultPlan::bursty(cfg.sim_time);
    cfg
}

/// FNV-1a over the journal bytes: the fixture stays a one-line file
/// instead of a multi-megabyte journal.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `cfg` through a schema-4 sink, returning the report and the
/// journal bytes. `tag` keys the temporary file and must differ between
/// callers: the tests of this binary run as threads of one process.
fn run_journalled(cfg: WorldConfig, tag: &str) -> (RunReport, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "mp2p-provenance-{tag}-{}.jsonl",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("create temp journal");
    let sink = JsonlSink::new_with_warmup(Box::new(file), cfg.warmup);
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(sink));
    let (report, _tracer) = world.run_traced();
    let bytes = std::fs::read(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();
    (report, bytes)
}

/// Runs `cfg` through a schema-4 sink, returning the journal bytes.
fn journal_bytes(cfg: WorldConfig, tag: &str) -> Vec<u8> {
    run_journalled(cfg, tag).1
}

/// One fingerprint line: FNV-1a and length of `bytes`.
fn fingerprint(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x} len:{}\n", fnv1a(bytes), bytes.len())
}

/// Compares the journal's fingerprint with the committed fixture, or
/// rewrites the fixture under `UPDATE_GOLDEN=1`.
fn assert_matches_golden(bytes: &[u8], fixture: &str, what: &str) {
    assert_fingerprint_matches_golden(&fingerprint(bytes), fixture, what);
}

/// Compares fingerprint text with the committed fixture, or rewrites the
/// fixture under `UPDATE_GOLDEN=1`.
fn assert_fingerprint_matches_golden(fingerprint: &str, fixture: &str, what: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, fingerprint).expect("write golden fingerprint");
        println!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fingerprint {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(fingerprint, golden, "{what}");
}

fn contains(bytes: &[u8], needle: &[u8]) -> bool {
    bytes.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn provenance_off_journal_matches_pre_provenance_fingerprint() {
    let bytes = journal_bytes(chaos(42), "golden-off");
    assert!(
        !contains(&bytes, b"\"frame_born\""),
        "provenance-off journal must carry no frame records"
    );
    assert_matches_golden(
        &bytes,
        "journal_v4_off_bursty_50.fnv",
        "provenance-off journal diverged from the pre-provenance bytes",
    );
}

#[test]
fn everything_on_journal_keeps_its_record_order() {
    let mut cfg = chaos(42);
    cfg.level_mix = LevelMix::hybrid();
    cfg.proto = cfg.proto.hardened();
    cfg.proto.recovery = RecoveryConfig::on();
    cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    cfg.provenance = ProvenanceConfig::full();
    let bytes = journal_bytes(cfg, "golden-on");
    for kind in [
        "frame_fate",
        "frame_dup",
        "copy_lineage",
        "retransmit",
        "consistency",
    ] {
        assert!(
            contains(&bytes, format!("\"ev\":\"{kind}\"").as_bytes()),
            "fixture must exercise {kind} records"
        );
    }
    assert_matches_golden(
        &bytes,
        "journal_v4_on_bursty_50.fnv",
        "everything-on journal diverged: a delivery change reordered or altered records",
    );
}

/// The layers of invariant 4 on top of whatever `cfg` already runs.
fn everything_on(cfg: &mut WorldConfig) {
    cfg.faults = FaultPlan::bursty(cfg.sim_time);
    cfg.proto = cfg.proto.hardened();
    cfg.proto.recovery = RecoveryConfig::on();
    cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    cfg.provenance = ProvenanceConfig::full();
}

type Tweak = fn(&mut WorldConfig);

/// Invariant 5's table: fixture stem, how the row differs from RPCC(SC)
/// on `WorldConfig::small_test(42)`, and journal record kinds the row
/// must contain to be worth its fixture.
const ENGINE_PINS: &[(&str, Tweak, &[&str])] = &[
    ("rpcc_hy_plain", |c| c.level_mix = LevelMix::hybrid(), &[]),
    (
        "rpcc_hy_on",
        |c| {
            c.level_mix = LevelMix::hybrid();
            everything_on(c);
        },
        &["frame_fate", "copy_lineage", "stale_serve", "retransmit"],
    ),
    ("push_plain", |c| c.strategy = Strategy::Push, &[]),
    (
        "push_on",
        |c| {
            c.strategy = Strategy::Push;
            everything_on(c);
        },
        &["frame_fate", "copy_lineage", "resync_start"],
    ),
    ("pull_plain", |c| c.strategy = Strategy::Pull, &[]),
    (
        "pull_on",
        |c| {
            c.strategy = Strategy::Pull;
            everything_on(c);
        },
        &["frame_fate", "copy_lineage"],
    ),
    (
        "push_ap_plain",
        |c| c.strategy = Strategy::PushAdaptivePull,
        &[],
    ),
    (
        "push_ap_on",
        |c| {
            c.strategy = Strategy::PushAdaptivePull;
            everything_on(c);
        },
        &["frame_fate", "copy_lineage"],
    ),
    ("rpcc_sc_oracle", |c| c.routing = RoutingMode::Oracle, &[]),
    (
        "rpcc_sc_oracle_on",
        |c| {
            c.routing = RoutingMode::Oracle;
            everything_on(c);
        },
        &["frame_fate", "recovery_ack"],
    ),
    (
        "rpcc_sc_writes",
        |c| {
            c.i_write = Some(SimDuration::from_secs(20));
            c.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
            c.provenance = ProvenanceConfig::full();
        },
        &["source_update", "frame_born"],
    ),
    // As found: an oracle-routed WRITE_REQUEST is handed to the strategy,
    // which ignores it, so under oracle routing every write times out.
    (
        "rpcc_sc_writes_oracle",
        |c| {
            c.i_write = Some(SimDuration::from_secs(20));
            c.routing = RoutingMode::Oracle;
            c.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
            c.provenance = ProvenanceConfig::full();
        },
        &["source_update"],
    ),
    (
        "rpcc_sc_single_item",
        |c| c.workload = WorkloadMode::SingleItem,
        &[],
    ),
    ("rpcc_sc_adaptive", |c| c.proto.adaptive = true, &[]),
    (
        "rpcc_sc_crash_heavy",
        |c| {
            everything_on(c);
            c.faults = FaultPlan::crash_heavy(c.sim_time);
        },
        &[
            "node_crash",
            "node_recover",
            "resync_start",
            "relay_handover",
            "frame_born",
        ],
    ),
    // The heaviest duplication preset: 8 % of frames heard twice, under
    // burst loss, a bisection and two crashes.
    (
        "rpcc_sc_hostile",
        |c| {
            c.proto = c.proto.hardened();
            c.faults = FaultPlan::hostile(c.sim_time);
        },
        &[
            "frame_dup",
            "flood_dup_drop",
            "burst_drop",
            "partition_start",
            "node_crash",
        ],
    ),
];

#[test]
fn engine_paths_keep_their_journal_and_report_bytes() {
    for &(stem, tweak, kinds) in ENGINE_PINS {
        let mut cfg = WorldConfig::small_test(42);
        tweak(&mut cfg);
        let writes = cfg.i_write.is_some();
        let (report, journal) = run_journalled(cfg, &format!("pin-{stem}"));
        for kind in kinds {
            assert!(
                contains(&journal, format!("\"ev\":\"{kind}\"").as_bytes()),
                "{stem} must exercise {kind} records"
            );
        }
        assert!(report.queries_served() > 0, "{stem} served nothing");
        assert_eq!(writes, report.writes_issued > 0, "{stem} writes");
        let pins = format!(
            "journal {}report {}",
            fingerprint(&journal),
            fingerprint(report.to_json().as_bytes())
        );
        assert_fingerprint_matches_golden(
            &pins,
            &format!("pin_{stem}.fnv"),
            &format!("{stem}: the engine moved something observable"),
        );
    }
}

#[test]
fn every_frame_record_references_a_born_frame() {
    let mut cfg = chaos(42);
    cfg.provenance = ProvenanceConfig::full();
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(RingSink::new(1 << 21)));
    let (_report, tracer) = world.run_traced();
    let ring = tracer
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("installed a RingSink");
    assert!(
        (ring.total_recorded() as usize) <= ring.capacity(),
        "ring overflowed; the born-set check would see a truncated stream"
    );

    let mut born: FastSet<(u64, u64)> = FastSet::default();
    let mut hops = 0u64;
    let mut fates = 0u64;
    let mut lineages = 0u64;
    let mut delivered = 0u64;
    let mut losses = 0u64;
    for (_, event) in ring.iter() {
        match *event {
            TraceEvent::FrameBorn { node, frame, .. } => {
                assert!(
                    born.insert((node.index() as u64, frame)),
                    "frame {node}#{frame} born twice"
                );
            }
            TraceEvent::FrameHop { origin, frame, .. } => {
                hops += 1;
                assert!(
                    born.contains(&(origin.index() as u64, frame)),
                    "hop references unborn frame {origin}#{frame}"
                );
            }
            TraceEvent::FrameFate {
                origin,
                frame,
                fate,
                ..
            } => {
                fates += 1;
                delivered += u64::from(fate == FrameFateKind::Delivered);
                losses += u64::from(fate.is_loss());
                assert!(
                    born.contains(&(origin.index() as u64, frame)),
                    "fate references unborn frame {origin}#{frame}"
                );
            }
            TraceEvent::CopyLineage { origin, frame, .. } => {
                lineages += 1;
                assert!(
                    born.contains(&(origin.index() as u64, frame)),
                    "lineage references unborn frame {origin}#{frame}"
                );
            }
            _ => {}
        }
    }
    assert!(!born.is_empty(), "chaos run produced no frame births");
    assert!(hops > 0, "no hop records; the invariant is vacuous");
    assert!(fates > born.len() as u64, "floods must meet several fates");
    assert!(lineages > 0, "no cached copy recorded its lineage");
    assert!(delivered > 0 && losses > 0, "fixture must exercise both");
}

/// A crash wipes a node's volatile state but not its frame sequence
/// numbers: were they to restart at 0, the rejoined node would re-issue
/// `(origin, frame)` identities its neighbours still remember — fresh
/// floods suppressed as duplicates — and two different frames would
/// share one key in the lineage graph.
#[test]
fn no_frame_is_born_twice_across_crashes() {
    let mut cfg = WorldConfig::small_test(7);
    everything_on(&mut cfg);
    cfg.faults = FaultPlan::crash_heavy(cfg.sim_time);
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(RingSink::new(1 << 21)));
    let (report, tracer) = world.run_traced();
    let ring = tracer
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("installed a RingSink");
    assert!((ring.total_recorded() as usize) <= ring.capacity());
    assert!(report.faults.recoveries > 0, "nobody crashed and came back");

    let mut crashed: FastSet<u64> = FastSet::default();
    let mut born: FastSet<(u64, u64)> = FastSet::default();
    let mut born_after_a_crash = 0u64;
    for (_, event) in ring.iter() {
        match *event {
            TraceEvent::NodeCrash { node } => {
                crashed.insert(node.index() as u64);
            }
            TraceEvent::FrameBorn { node, frame, .. } => {
                let origin = node.index() as u64;
                assert!(
                    born.insert((origin, frame)),
                    "frame {node}#{frame} born twice"
                );
                born_after_a_crash += u64::from(crashed.contains(&origin));
            }
            _ => {}
        }
    }
    assert!(
        born_after_a_crash > 0,
        "no victim transmitted after its crash; the invariant is vacuous"
    );
}

#[test]
fn enabling_provenance_does_not_perturb_the_simulation() {
    let plain = World::new(chaos(42)).run();
    let mut cfg = chaos(42);
    cfg.provenance = ProvenanceConfig::full();
    let traced = World::new(cfg).run();
    assert_eq!(
        plain.to_json(),
        traced.to_json(),
        "frame observation must be strictly passive"
    );
}

#[test]
fn provenance_journals_are_deterministic() {
    let journal = |seed| {
        let mut cfg = chaos(seed);
        cfg.sim_time = SimDuration::from_mins(4);
        cfg.warmup = SimDuration::from_mins(1);
        cfg.faults = FaultPlan::bursty(cfg.sim_time);
        cfg.provenance = ProvenanceConfig::full();
        journal_bytes(cfg, &format!("det-{seed}"))
    };
    assert_eq!(journal(7), journal(7), "same seed, same journal bytes");
}
