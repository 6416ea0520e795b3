//! Protocol-handler fuzzing: arbitrary message/timer/query sequences,
//! delivered in arbitrary order from arbitrary senders, must never panic
//! any protocol and must only ever produce well-formed outputs (answers
//! only for queries that were actually issued and not yet resolved,
//! strictly positive timer delays, self-sends never emitted).
//!
//! This covers the state-machine paths the scenario tests cannot reach:
//! acks for polls never sent, UPDATEs from non-sources, CANCELs from
//! strangers, replies after demotion, duplicated and reordered traffic.

use proptest::prelude::*;

use mp2p_cache::{CacheStore, DataItem, Version};
use mp2p_rpcc::{
    ConsistencyLevel, Ctx, CtxOut, ProtoMsg, Protocol, ProtocolConfig, PushAdaptivePull, QueryId,
    Rpcc, SimplePull, SimplePush, Timer,
};
use mp2p_sim::{FastSet, ItemId, NodeId, SimDuration, SimRng, SimTime};

const NODES: u32 = 6;
const ITEMS: u32 = 6;

/// One fuzz step.
#[derive(Debug, Clone)]
enum Step {
    Query { item: u32, level: u8 },
    SourceUpdate,
    Message { from: u32, msg: Msg },
    Timer(Tmr),
    Undeliverable { dest: u32, msg: Msg },
    StatusChange(bool),
    CoeffTick { moved: bool },
    AdvanceTime(u64),
}

#[derive(Debug, Clone)]
enum Msg {
    Invalidation { item: u32, version: u64 },
    Update { item: u32, version: u64 },
    GetNew { item: u32 },
    SendNew { item: u32, version: u64 },
    Apply { item: u32 },
    ApplyAck { item: u32, version: u64 },
    Cancel { item: u32 },
    Poll { item: u32, version: u64 },
    PollAckA { item: u32, version: u64 },
    PollAckB { item: u32, version: u64 },
    Fetch { item: u32 },
    FetchReply { item: u32, version: u64 },
}

#[derive(Debug, Clone)]
enum Tmr {
    Ttn,
    PollRetry { query: u64, attempt: u8 },
    PushWait { query: u64 },
    PollGrace { query: u64 },
    RelayHoldSweep,
}

fn msg_strategy() -> impl proptest::strategy::Strategy<Value = Msg> {
    let item = 0u32..ITEMS;
    let ver = 0u64..6;
    prop_oneof![
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::Invalidation { item, version }),
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::Update { item, version }),
        item.clone().prop_map(|item| Msg::GetNew { item }),
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::SendNew { item, version }),
        item.clone().prop_map(|item| Msg::Apply { item }),
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::ApplyAck { item, version }),
        item.clone().prop_map(|item| Msg::Cancel { item }),
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::Poll { item, version }),
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::PollAckA { item, version }),
        (item.clone(), ver.clone()).prop_map(|(item, version)| Msg::PollAckB { item, version }),
        item.clone().prop_map(|item| Msg::Fetch { item }),
        (item, ver).prop_map(|(item, version)| Msg::FetchReply { item, version }),
    ]
}

fn step_strategy() -> impl proptest::strategy::Strategy<Value = Step> {
    prop_oneof![
        (0u32..ITEMS, 0u8..3).prop_map(|(item, level)| Step::Query { item, level }),
        Just(Step::SourceUpdate),
        (1u32..NODES, msg_strategy()).prop_map(|(from, msg)| Step::Message { from, msg }),
        prop_oneof![
            Just(Tmr::Ttn),
            (0u64..64, 1u8..5).prop_map(|(query, attempt)| Tmr::PollRetry { query, attempt }),
            (0u64..64).prop_map(|query| Tmr::PushWait { query }),
            (0u64..64).prop_map(|query| Tmr::PollGrace { query }),
            Just(Tmr::RelayHoldSweep),
        ]
        .prop_map(Step::Timer),
        (1u32..NODES, msg_strategy()).prop_map(|(dest, msg)| Step::Undeliverable { dest, msg }),
        any::<bool>().prop_map(Step::StatusChange),
        any::<bool>().prop_map(|moved| Step::CoeffTick { moved }),
        (1u64..120_000).prop_map(Step::AdvanceTime),
    ]
}

fn to_proto_msg(msg: &Msg) -> ProtoMsg {
    let item = |i: &u32| ItemId::new(*i);
    let ver = Version::new;
    match msg {
        Msg::Invalidation { item: i, version } => ProtoMsg::Invalidation {
            item: item(i),
            version: ver(*version),
            seq: None,
        },
        Msg::Update { item: i, version } => ProtoMsg::Update {
            item: item(i),
            version: ver(*version),
            content_bytes: 64,
            seq: None,
        },
        Msg::GetNew { item: i } => ProtoMsg::GetNew { item: item(i) },
        Msg::SendNew { item: i, version } => ProtoMsg::SendNew {
            item: item(i),
            version: ver(*version),
            content_bytes: 64,
        },
        Msg::Apply { item: i } => ProtoMsg::Apply { item: item(i) },
        Msg::ApplyAck { item: i, version } => ProtoMsg::ApplyAck {
            item: item(i),
            version: ver(*version),
        },
        Msg::Cancel { item: i } => ProtoMsg::Cancel { item: item(i) },
        Msg::Poll { item: i, version } => ProtoMsg::Poll {
            item: item(i),
            version: ver(*version),
            span: None,
        },
        Msg::PollAckA { item: i, version } => ProtoMsg::PollAckA {
            item: item(i),
            version: ver(*version),
            span: None,
        },
        Msg::PollAckB { item: i, version } => ProtoMsg::PollAckB {
            item: item(i),
            version: ver(*version),
            content_bytes: 64,
            span: None,
        },
        Msg::Fetch { item: i } => ProtoMsg::Fetch {
            item: item(i),
            span: None,
        },
        Msg::FetchReply { item: i, version } => ProtoMsg::FetchReply {
            item: item(i),
            version: ver(*version),
            content_bytes: 64,
            span: None,
        },
    }
}

/// Drives one protocol through the step sequence, checking output
/// well-formedness at every step.
fn drive<P: Protocol>(mut proto: P, steps: &[Step], adaptive: bool) {
    let cfg = ProtocolConfig {
        adaptive,
        ..ProtocolConfig::default()
    };
    let me = NodeId::new(0);
    let mut cache = CacheStore::new(4);
    cache.insert(ItemId::new(1), Version::INITIAL, 64, SimTime::ZERO);
    cache.insert(ItemId::new(2), Version::INITIAL, 64, SimTime::ZERO);
    let mut own = DataItem::new(ItemId::new(0), 64);
    let mut rng = SimRng::from_seed(77, 0);
    let mut now = SimTime::ZERO;
    let mut connected = true;
    let mut next_query = 0u64;
    let mut open: FastSet<QueryId> = FastSet::default();

    // init
    {
        let mut ctx = Ctx::new(
            now, me, &mut cache, &mut own, &mut rng, &cfg, 1.0, connected,
        );
        proto.on_init(&mut ctx);
        let _ = ctx.take_outputs();
    }

    for step in steps {
        if let Step::AdvanceTime(ms) = step {
            now += SimDuration::from_millis(*ms);
            continue;
        }
        let mut ctx = Ctx::new(
            now, me, &mut cache, &mut own, &mut rng, &cfg, 0.9, connected,
        );
        match step {
            Step::Query { item, level } => {
                let q = QueryId(next_query);
                next_query += 1;
                open.insert(q);
                let level = match level {
                    0 => ConsistencyLevel::Weak,
                    1 => ConsistencyLevel::Delta,
                    _ => ConsistencyLevel::Strong,
                };
                proto.on_query(&mut ctx, q, ItemId::new(*item), level);
            }
            Step::SourceUpdate => {
                ctx.own_item.update();
                proto.on_source_update(&mut ctx);
            }
            Step::Message { from, msg } => {
                proto.on_message(&mut ctx, NodeId::new(*from), to_proto_msg(msg));
            }
            Step::Timer(t) => {
                let timer = match t {
                    Tmr::Ttn => Timer::Ttn,
                    Tmr::PollRetry { query, attempt } => Timer::PollRetry {
                        query: QueryId(*query),
                        attempt: *attempt,
                    },
                    Tmr::PushWait { query } => Timer::PushWait {
                        query: QueryId(*query),
                    },
                    Tmr::PollGrace { query } => Timer::PollGrace {
                        query: QueryId(*query),
                    },
                    Tmr::RelayHoldSweep => Timer::RelayHoldSweep,
                };
                proto.on_timer(&mut ctx, timer);
            }
            Step::Undeliverable { dest, msg } => {
                proto.on_undeliverable(&mut ctx, NodeId::new(*dest), to_proto_msg(msg));
            }
            Step::StatusChange(up) => {
                connected = *up;
                proto.on_status_change(&mut ctx, *up);
            }
            Step::CoeffTick { moved } => proto.on_coefficient_tick(&mut ctx, *moved),
            Step::AdvanceTime(_) => unreachable!("handled above"),
        }
        for out in ctx.take_outputs() {
            match out {
                CtxOut::Answer { query, .. } | CtxOut::Fail { query } => {
                    assert!(
                        open.remove(&query),
                        "protocol resolved a query it was never given (or resolved twice): {query}"
                    );
                }
                CtxOut::Send { to, .. } => {
                    assert_ne!(to, me, "protocols must not unicast to themselves");
                }
                CtxOut::Flood { ttl, .. } => {
                    assert!(ttl >= 1, "zero-TTL floods go nowhere");
                }
                CtxOut::SetTimer { .. } => {}
                // Pure flight-recorder metadata, no simulation effect.
                CtxOut::Transition { .. }
                | CtxOut::Degraded { .. }
                | CtxOut::QueryPhase { .. }
                | CtxOut::CopyInstalled { .. }
                | CtxOut::Recovery { .. } => {}
            }
        }
    }
}

fn fuzz_config() -> ProptestConfig {
    // The struct-update spread is redundant against the vendored stub's
    // single-field config but keeps this source compatible with real
    // proptest, whose ProptestConfig has many more fields.
    #[allow(clippy::needless_update)]
    ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(fuzz_config())]

    #[test]
    fn rpcc_survives_arbitrary_sequences(steps in proptest::collection::vec(step_strategy(), 0..120)) {
        let cfg = ProtocolConfig::default();
        drive(Rpcc::new(&cfg, true), &steps, false);
    }

    #[test]
    fn rpcc_adaptive_survives_arbitrary_sequences(steps in proptest::collection::vec(step_strategy(), 0..120)) {
        let cfg = ProtocolConfig { adaptive: true, ..ProtocolConfig::default() };
        drive(Rpcc::new(&cfg, true), &steps, true);
    }

    #[test]
    fn rpcc_capped_survives_arbitrary_sequences(steps in proptest::collection::vec(step_strategy(), 0..120)) {
        let cfg = ProtocolConfig { max_relays_per_item: Some(1), ..ProtocolConfig::default() };
        drive(Rpcc::new(&cfg, true), &steps, false);
    }

    #[test]
    fn push_survives_arbitrary_sequences(steps in proptest::collection::vec(step_strategy(), 0..120)) {
        let cfg = ProtocolConfig::default();
        drive(SimplePush::new(&cfg, true), &steps, false);
    }

    #[test]
    fn pull_survives_arbitrary_sequences(steps in proptest::collection::vec(step_strategy(), 0..120)) {
        let cfg = ProtocolConfig::default();
        drive(SimplePull::new(&cfg, true), &steps, false);
    }

    #[test]
    fn push_adaptive_survives_arbitrary_sequences(steps in proptest::collection::vec(step_strategy(), 0..120)) {
        let cfg = ProtocolConfig::default();
        drive(PushAdaptivePull::new(&cfg, true), &steps, false);
    }
}
