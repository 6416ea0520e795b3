//! Pins what `mp2p analyze` prints over two everything-on journals, byte
//! for byte: `render_analysis` (top 5, so the traffic timeline and the
//! `tx/rx` column are in it), `render_consistency`, `render_explain` of
//! every incident and `render_health`, concatenated in that order and
//! kept as an FNV-1a fingerprint. The 6-minute journal has no chain that
//! names a frame; the 15-minute one has `invalidate_lost` chains naming
//! the frame that died, so the choice among superseding frames is pinned
//! too.
//!
//! Regenerate (only when a change is *meant* to move the analyzer's
//! output) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mp2p-experiments --test analyze_identity
//! ```

use std::cell::RefCell;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;

use mp2p_experiments::{
    analyze_journal, explain_stale_serves, render_analysis, render_consistency, render_explain,
    render_health,
};
use mp2p_net::FaultPlan;
use mp2p_rpcc::{
    LevelMix, ObservatoryConfig, ProvenanceConfig, RecoveryConfig, Strategy, World, WorldConfig,
};
use mp2p_sim::SimDuration;
use mp2p_trace::JsonlSink;

/// A cloneable handle to one shared byte buffer, so the bytes survive
/// handing the writer to [`JsonlSink`].
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One small RPCC(HY) run of `mins` simulated minutes with every
/// journalled layer on (bursty faults, hardening, recovery, observatory,
/// provenance; schema 4), journalled into memory.
fn everything_on_journal(mins: u64) -> Vec<u8> {
    let mut cfg = WorldConfig::small_test(7);
    cfg.strategy = Strategy::Rpcc;
    cfg.level_mix = LevelMix::hybrid();
    cfg.sim_time = SimDuration::from_mins(mins);
    cfg.warmup = SimDuration::from_mins(1);
    cfg.proto = cfg.proto.hardened();
    cfg.proto.recovery = RecoveryConfig::on();
    cfg.faults = FaultPlan::bursty(cfg.sim_time);
    cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
    cfg.provenance = ProvenanceConfig::full();
    let journal = SharedBuf::default();
    let sink = JsonlSink::new_with_warmup(Box::new(journal.clone()), cfg.warmup);
    let mut world = World::new(cfg);
    world.set_tracer(Box::new(sink));
    drop(world.run_traced()); // a dropped sink has written everything out
    journal.0.take()
}

/// Every section `analyze` prints for `journal`, in `analyze`'s order.
fn analyze_text(journal: &[u8]) -> String {
    let analysis = analyze_journal(journal).expect("the journal parses");
    let incidents = explain_stale_serves(&analysis);
    assert!(!incidents.is_empty(), "no stale serve to explain");
    let text = [
        render_analysis(&analysis, 5),
        render_consistency(&analysis.consistency),
        render_explain(&incidents, None),
        render_health(&analysis),
    ]
    .concat();
    assert!(text.contains("Traffic timeline"), "{text}");
    assert!(text.contains("tx/rx"), "{text}");
    text
}

#[test]
fn every_analyze_section_prints_the_pinned_text() {
    let text = analyze_text(&everything_on_journal(6));
    assert_matches_golden(&fingerprint(text.as_bytes()), "analyze_render.fnv");
}

#[test]
fn a_chain_naming_a_dead_frame_prints_the_pinned_text() {
    let text = analyze_text(&everything_on_journal(15));
    assert!(
        text.contains(" died at "),
        "no chain names the frame that died: {text}"
    );
    assert_matches_golden(
        &fingerprint(text.as_bytes()),
        "analyze_render_dead_frame.fnv",
    );
}

/// FNV-1a: the fixture stays one line instead of the whole report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One fingerprint line: FNV-1a and length of `bytes`.
fn fingerprint(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x} len:{}\n", fnv1a(bytes), bytes.len())
}

/// Compares `actual` with the committed fixture, or rewrites the fixture
/// under `UPDATE_GOLDEN=1`.
fn assert_matches_golden(actual: &str, fixture: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        println!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(actual, golden, "{fixture} moved");
}
