//! Consistency-observatory guarantees.
//!
//! Two invariants are pinned here:
//!
//! 1. **Off means invisible.** With the divergence sampler and blame
//!    tracker disabled (the default), a traced run must produce a journal
//!    body byte-identical to the pre-observatory build, and
//!    `RunReport::to_json` must carry no `consistency` section. The
//!    header line and the body are pinned as two fingerprints, so a
//!    change of the header alone shows as one moved line of the fixture;
//!    regenerate (only when a change is *meant* to alter the journal)
//!    with:
//!
//!    ```text
//!    UPDATE_GOLDEN=1 cargo test -p mp2p-rpcc --test consistency_observatory
//!    ```
//!
//! 2. **Blame is exhaustive.** With the observatory enabled on a chaos
//!    run, every stale serve is attributed to exactly one proximate cause,
//!    so the per-cause counts sum *exactly* to `stale_served`.

use std::path::PathBuf;

use mp2p_net::FaultPlan;
use mp2p_rpcc::{ObservatoryConfig, Strategy, World, WorldConfig};
use mp2p_sim::SimDuration;
use mp2p_trace::{BlameCause, JsonlSink, RingSink, TraceEvent};

/// The chaos scenario both invariants run: the paper's 50-peer terrain,
/// shortened, under the bursty-loss preset so drop paths are exercised.
fn chaos(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.strategy = Strategy::Rpcc;
    cfg.sim_time = SimDuration::from_mins(8);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.faults = FaultPlan::bursty(cfg.sim_time);
    cfg
}

/// FNV-1a over journal bytes: the fixture stays a two-line file instead
/// of a multi-megabyte journal.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/journal_rpcc_bursty_50.fnv")
}

/// Runs the chaos scenario with a default (observatory-off) config and a
/// JSONL sink, returning the journal bytes.
fn journal_bytes_with_defaults() -> Vec<u8> {
    let cfg = chaos(42);
    let path = std::env::temp_dir().join(format!(
        "mp2p-observatory-golden-{}.jsonl",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("create temp journal");
    let sink = JsonlSink::new_with_warmup(Box::new(file), cfg.warmup);
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(sink));
    let (_report, _tracer) = world.run_traced();
    let bytes = std::fs::read(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn sampler_off_journal_matches_pre_observatory_fingerprint() {
    let bytes = journal_bytes_with_defaults();
    let header_len = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let (header, body) = bytes.split_at(header_len);
    let fingerprint = format!(
        "header fnv1a:{:016x} len:{}\nbody fnv1a:{:016x} len:{}\n",
        fnv1a(header),
        header.len(),
        fnv1a(body),
        body.len()
    );
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, &fingerprint).expect("write golden fingerprint");
        println!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fingerprint {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        fingerprint, golden,
        "observatory-off journal diverged from its pinned header or body"
    );
}

#[test]
fn observatory_off_report_has_no_consistency_section() {
    let report = World::new(chaos(42)).run();
    assert!(report.consistency.is_none());
    assert!(!report.to_json().contains("\"consistency\""));
}

#[test]
fn blame_counts_sum_exactly_to_stale_served_on_a_traced_chaos_run() {
    let mut cfg = chaos(42);
    cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    let expected_samples = cfg.sim_time.as_millis() / 30_000; // ticks that fit in the run
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(RingSink::new(1 << 20)));
    let (report, tracer) = world.run_traced();

    let consistency = report.consistency.expect("observatory was on");
    assert_eq!(
        consistency.blamed_total(),
        report.audit.stale_served(),
        "every stale serve must get exactly one blame cause"
    );
    assert!(
        report.audit.stale_served() > 0,
        "chaos fixture produced no stale serves; the sum check is vacuous"
    );
    assert_eq!(consistency.samples, expected_samples);

    // The journal agrees with the report: StaleServe records partition by
    // cause into the same counts, and every sample record is present.
    let ring = tracer
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("installed a RingSink");
    let mut journal_blame = [0u64; BlameCause::ALL.len()];
    let mut journal_violations = 0u64;
    let mut journal_samples = 0u64;
    for (_, event) in ring.iter() {
        match *event {
            TraceEvent::StaleServe {
                cause, violation, ..
            } => {
                journal_blame[cause.index()] += 1;
                journal_violations += u64::from(violation);
            }
            TraceEvent::ConsistencySample {
                fresh_copies,
                total_copies,
                ages,
                ..
            } => {
                journal_samples += 1;
                assert!(fresh_copies <= total_copies);
                let stale: u32 = ages.iter().sum();
                assert_eq!(
                    fresh_copies + stale,
                    total_copies,
                    "age histogram must cover exactly the stale copies"
                );
            }
            _ => {}
        }
    }
    // The ring is sized to hold the whole run (asserted by the sample
    // count matching); under that condition the journal partition must
    // reproduce the report's exactly.
    assert_eq!(journal_samples, expected_samples);
    assert_eq!(journal_blame, consistency.blame);
    assert_eq!(journal_violations, consistency.delta_violations);
    assert!(
        consistency.delta_violations <= report.audit.stale_served(),
        "a violation is a kind of stale serve"
    );
}

#[test]
fn enabling_the_observatory_keeps_runs_deterministic() {
    let make = || {
        let mut cfg = chaos(7);
        cfg.sim_time = SimDuration::from_mins(4);
        cfg.warmup = SimDuration::from_mins(1);
        cfg.faults = FaultPlan::bursty(cfg.sim_time);
        cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
        cfg
    };
    let a = World::new(make()).run();
    let b = World::new(make()).run();
    assert_eq!(a.to_json(), b.to_json(), "same seed, same bytes");
    assert!(a.to_json().contains("\"consistency\""));
}
