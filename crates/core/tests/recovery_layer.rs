//! Self-healing recovery layer guarantees.
//!
//! Three families of invariants are pinned here:
//!
//! 1. **Bounded, idempotent bookkeeping.** The sender-side retransmit
//!    queue never exceeds its configured bound under any operation
//!    sequence, duplicated ACK frames settle nothing twice, and the
//!    receiver-side sequence tracker accepts each stamped frame at most
//!    once however often the fault layer duplicates it.
//! 2. **Stream isolation.** Retransmission backoff draws only from the
//!    recovery RNG stream: however many delays are drawn, the protocol
//!    stream's next draw is unchanged. This is what keeps recovery-off
//!    runs byte-identical (the golden fixtures in
//!    `substrate_determinism.rs` and `consistency_observatory.rs` pin
//!    the off case; this file pins *why* it holds).
//! 3. **Determinism on.** With every recovery mechanism enabled under
//!    crash churn, two same-seed runs produce byte-identical reports,
//!    and the recovery counters only appear in the JSON when the layer
//!    is switched on.

use proptest::prelude::*;
// `mp2p_rpcc::Strategy` (the protocol selector) shadows the prelude's
// `Strategy` trait; re-import the trait anonymously for `prop_map`.
use proptest::strategy::Strategy as _;

use mp2p_cache::{CacheStore, DataItem, Version};
use mp2p_net::FaultPlan;
use mp2p_rpcc::{
    Ctx, ProtocolConfig, RecoveryConfig, RetransmitQueue, SeqTracker, Strategy, World, WorldConfig,
};
use mp2p_sim::{FastMap, ItemId, NodeId, SimDuration, SimRng, SimTime};

/// One operation against the retransmit queue.
#[derive(Debug, Clone)]
enum QueueOp {
    Enqueue { dest: u32, item: u32 },
    Ack { dest: u32, nth: usize },
    Bump { nth: usize },
    DropSeq { nth: usize },
    DropDest { dest: u32 },
}

fn queue_op() -> impl proptest::strategy::Strategy<Value = QueueOp> {
    prop_oneof![
        (0u32..4, 0u32..6).prop_map(|(dest, item)| QueueOp::Enqueue { dest, item }),
        (0u32..4, 0usize..64).prop_map(|(dest, nth)| QueueOp::Ack { dest, nth }),
        (0usize..64).prop_map(|nth| QueueOp::Bump { nth }),
        (0usize..64).prop_map(|nth| QueueOp::DropSeq { nth }),
        (0u32..4).prop_map(|dest| QueueOp::DropDest { dest }),
    ]
}

/// A short hardened config: backoff and jitter on, so delay draws
/// actually consume randomness.
fn jittered_config() -> ProtocolConfig {
    let mut cfg = ProtocolConfig::default().hardened();
    cfg.recovery = RecoveryConfig::on();
    cfg
}

proptest! {
    /// Invariant 1a: whatever the operation sequence, the queue never
    /// holds more than `cap` entries — and neither does its high-water
    /// mark. An ACK settles a sequence number at most once; afterwards
    /// the same `(dest, seq)` ACK is a no-op forever.
    #[test]
    fn retx_queue_never_exceeds_its_bound(
        cap in 1usize..6,
        ops in proptest::collection::vec(queue_op(), 0..80),
    ) {
        let mut q = RetransmitQueue::new(cap);
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let mut issued: Vec<(NodeId, u64)> = Vec::new();
        let mut settled: Vec<(NodeId, u64)> = Vec::new();
        for op in &ops {
            match *op {
                QueueOp::Enqueue { dest, item } => {
                    let dest = NodeId::new(dest);
                    let seq = q.enqueue(dest, ItemId::new(item), Version::new(1), t);
                    prop_assert!(
                        issued.iter().all(|&(_, s)| s < seq),
                        "sequence numbers are strictly monotone"
                    );
                    issued.push((dest, seq));
                }
                QueueOp::Ack { dest, nth } => {
                    let dest = NodeId::new(dest);
                    if let Some(&(d, seq)) = issued.get(nth) {
                        let got = q.ack(dest, seq);
                        if got.is_some() {
                            prop_assert_eq!(d, dest, "an ACK only settles its own dest");
                            prop_assert!(
                                !settled.contains(&(dest, seq)),
                                "a sequence number settles at most once"
                            );
                            settled.push((dest, seq));
                        }
                    }
                }
                QueueOp::Bump { nth } => {
                    if let Some(&(_, seq)) = issued.get(nth) {
                        q.bump(seq, t + SimDuration::from_secs(2));
                    }
                }
                QueueOp::DropSeq { nth } => {
                    if let Some(&(_, seq)) = issued.get(nth) {
                        q.drop_seq(seq);
                    }
                }
                QueueOp::DropDest { dest } => {
                    q.drop_dest(NodeId::new(dest));
                }
            }
            prop_assert!(q.len() <= cap, "queue exceeded its bound");
            prop_assert!(q.high_water() <= cap, "high-water exceeded the bound");
        }
    }

    /// Invariant 1b: under arbitrary duplication and reordering, the
    /// receiver-side tracker accepts each `(peer, item)` stream in
    /// strictly increasing sequence order and each frame at most once.
    #[test]
    fn seq_tracker_accepts_each_frame_at_most_once(
        frames in proptest::collection::vec((0u32..4, 0u32..4, 1u64..32), 0..120),
    ) {
        let mut tracker = SeqTracker::new();
        let mut accepted: FastMap<(u32, u32), u64> = FastMap::default();
        for &(peer, item, seq) in &frames {
            let fresh = tracker.is_new(NodeId::new(peer), ItemId::new(item), seq);
            let highest = accepted.entry((peer, item)).or_insert(0);
            if fresh {
                prop_assert!(
                    seq > *highest,
                    "accepted a frame at or below the highest seen"
                );
                *highest = seq;
            } else {
                prop_assert!(seq <= *highest, "rejected a genuinely new frame");
            }
        }
    }

    /// Invariant 2: however many backoff delays the recovery layer
    /// draws, the protocol stream is untouched — its next draw equals
    /// that of a run that never retransmitted anything.
    #[test]
    fn backoff_draws_only_from_the_recovery_stream(
        attempts in proptest::collection::vec(1u8..6, 0..12),
    ) {
        let cfg = jittered_config();
        let base = SimDuration::from_secs(2); // the retransmit timeout
        let mut cache = CacheStore::new(4);
        let mut own = DataItem::new(ItemId::new(0), 64);
        let mut rng = SimRng::from_seed(7, 0);
        let mut recovery_rng = SimRng::from_seed(7, 0xA00);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId::new(0),
            &mut cache,
            &mut own,
            &mut rng,
            &cfg,
            1.0,
            true,
        );
        ctx.recovery_rng = Some(&mut recovery_rng);
        for &attempt in &attempts {
            let delay = ctx.recovery_delay(base, attempt);
            prop_assert!(delay >= base, "backoff never shortens the base delay");
        }
        // The protocol stream never advanced: its next draw matches a
        // pristine stream's first.
        prop_assert_eq!(
            ctx.rng.uniform_f64(),
            SimRng::from_seed(7, 0).uniform_f64(),
            "recovery delays consumed protocol-stream randomness"
        );
    }
}

/// The crash-churn scenario the determinism and efficacy checks run:
/// the paper's 50-peer terrain, shortened, under `crash-heavy` with the
/// hardened knobs and every recovery mechanism on.
fn recovery_chaos(seed: u64, preset: &str) -> WorldConfig {
    let mut cfg = WorldConfig::paper_default(seed);
    cfg.strategy = Strategy::Rpcc;
    cfg.sim_time = SimDuration::from_mins(8);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.proto = cfg.proto.hardened();
    cfg.proto.recovery = RecoveryConfig::on();
    cfg.faults = FaultPlan::preset(preset, cfg.sim_time).expect("known preset");
    cfg
}

#[test]
fn recovery_on_runs_stay_deterministic() {
    let a = World::new(recovery_chaos(42, "crash-heavy")).run();
    let b = World::new(recovery_chaos(42, "crash-heavy")).run();
    assert_eq!(a.to_json(), b.to_json(), "same seed, same bytes");
    assert!(a.recovery_enabled);
}

#[test]
fn recovery_counters_appear_only_when_enabled() {
    let on = World::new(recovery_chaos(42, "crash-heavy")).run();
    assert!(on.recovery_enabled);
    let json = on.to_json();
    for key in [
        "\"resyncs\"",
        "\"retransmits\"",
        "\"delivery_acks\"",
        "\"handovers\"",
        "\"retx_queue_peak\"",
    ] {
        assert!(json.contains(key), "recovery-on report must carry {key}");
    }

    let mut cfg = recovery_chaos(42, "crash-heavy");
    cfg.proto.recovery = RecoveryConfig::off();
    let off = World::new(cfg).run();
    assert!(!off.recovery_enabled);
    let json = off.to_json();
    for key in ["\"resyncs\"", "\"retransmits\"", "\"retx_queue_peak\""] {
        assert!(
            !json.contains(key),
            "recovery-off report must not carry {key}"
        );
    }
}

#[test]
fn crash_churn_exercises_resync_and_acked_delivery() {
    let report = World::new(recovery_chaos(42, "crash-heavy")).run();
    assert_eq!(
        report.faults.crashes, report.faults.recoveries,
        "every crash-heavy victim recovers in-run"
    );
    assert!(report.faults.crashes >= 6, "preset schedules six crashes");
    assert!(
        report.faults.resyncs > 0,
        "rejoining nodes must flood resync digests"
    );
    assert!(
        report.faults.delivery_acks > 0,
        "acked delivery must settle updates"
    );
    assert!(
        report.faults.retx_queue_peak > 0,
        "sources must have tracked pending updates"
    );
}

#[test]
fn lossy_links_force_retransmissions() {
    // Under burst loss, some DELIVERY_ACKs die on the air, so pending
    // entries come due and are retransmitted from the bounded queue.
    let report = World::new(recovery_chaos(42, "bursty")).run();
    assert!(
        report.faults.retransmits > 0,
        "burst loss must trigger retransmissions"
    );
    assert!(report.faults.delivery_acks > 0);
}
