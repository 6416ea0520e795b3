//! The fault injector: the live half of a [`mp2p_net::FaultPlan`].
//!
//! Invariant owned here: **a fault plan never perturbs another random
//! stream**. Every draw an active plan makes — crash victims, the
//! Gilbert–Elliott chain, duplication dice, the duplicate's extra delay —
//! comes from the dedicated [`FAULT_STREAM`], so the *pattern* of faults
//! stays fixed across plans and strategies for one seed, and
//! [`FaultPlan::none`](mp2p_net::FaultPlan::none) leaves the world with
//! no injector at all: one `Option` check per hook, and output
//! byte-identical to a build without this module (pinned by
//! `tests/failure_injection.rs` and the fault-free goldens).

use mp2p_cache::CacheStore;
use mp2p_net::{Axis, GilbertElliott, PartitionCut};
use mp2p_sim::{FastMap, NodeId, SimDuration, SimRng};
use mp2p_trace::{BlameCause, FrameFateKind, TraceEvent};

use super::config::WorldConfig;
use super::{AnyProtocol, Event, World};
use crate::protocol::{Protocol, QueryId};

/// Stream id of the fault injector's RNG. Distinct from every per-node
/// stream family (0x100..0x8ff) and from the world stream, so enabling a
/// plan cannot shift any pre-existing random sequence.
const FAULT_STREAM: u64 = 0x900;

/// One scheduled action of the active plan, with indices into the plan's
/// window lists.
#[derive(Debug, Clone, Copy)]
pub(super) enum FaultAction {
    PartitionStart(usize),
    PartitionHeal(usize),
    Crash(usize),
    Recover(usize),
}

/// Live state of the fault injector. Present only when the configured
/// plan is non-empty.
#[derive(Debug)]
pub(super) struct FaultRuntime {
    rng: SimRng,
    /// The burst-loss chain, replacing the memoryless link model.
    ge: Option<GilbertElliott>,
    /// Per-transmission duplication probability.
    duplicate_prob: f64,
    /// Which partition windows are currently open (plan order).
    partition_active: Vec<bool>,
    /// Crash victims, one per [`mp2p_net::CrashWindow`], resolved from
    /// the fault stream at construction when the plan leaves them open.
    crash_victims: Vec<NodeId>,
    /// Which crash windows are currently open (plan order).
    crash_open: Vec<bool>,
}

impl FaultRuntime {
    pub(super) fn new(cfg: &WorldConfig) -> Option<Self> {
        if !cfg.faults.enabled() {
            return None;
        }
        let mut rng = SimRng::from_seed(cfg.seed, FAULT_STREAM);
        let crash_victims = cfg
            .faults
            .crashes
            .iter()
            .map(|w| match w.node {
                Some(node) => NodeId::new(node),
                None => NodeId::new(rng.uniform_u64(cfg.n_peers as u64) as u32),
            })
            .collect();
        Some(FaultRuntime {
            ge: cfg.faults.ge.map(GilbertElliott::new),
            duplicate_prob: cfg.faults.duplicate_prob,
            partition_active: vec![false; cfg.faults.partitions.len()],
            crash_open: vec![false; cfg.faults.crashes.len()],
            crash_victims,
            rng,
        })
    }
}

/// Keys of `map` whose entry `belongs`, ascending: hash order must not
/// pick the order a fault closes them in.
fn sorted_keys<V>(map: &FastMap<QueryId, V>, belongs: impl Fn(&V) -> bool) -> Vec<QueryId> {
    let mut keys: Vec<QueryId> = map
        .iter()
        .filter(|(_, v)| belongs(v))
        .map(|(&k, _)| k)
        .collect();
    keys.sort_unstable();
    keys
}

impl World {
    /// Queues the plan's schedule: every window becomes a pair of
    /// actions, fixed at bootstrap.
    pub(super) fn schedule_faults(&mut self) {
        if self.faults.is_none() {
            return;
        }
        for (i, w) in self.cfg.faults.partitions.iter().enumerate() {
            self.queue
                .push(w.start, Event::Fault(FaultAction::PartitionStart(i)));
            self.queue
                .push(w.heal, Event::Fault(FaultAction::PartitionHeal(i)));
        }
        for (i, w) in self.cfg.faults.crashes.iter().enumerate() {
            self.queue.push(w.at, Event::Fault(FaultAction::Crash(i)));
            self.queue
                .push(w.recover, Event::Fault(FaultAction::Recover(i)));
        }
    }

    /// Applies one scheduled action of the active plan.
    pub(super) fn handle_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::PartitionStart(idx) | FaultAction::PartitionHeal(idx) => {
                let open = matches!(action, FaultAction::PartitionStart(_));
                let axis = self.cfg.faults.partitions[idx].axis.tag();
                if let Some(fr) = self.faults.as_mut() {
                    fr.partition_active[idx] = open;
                }
                self.topo = None; // connectivity changed
                let record = if open {
                    self.report.faults.partitions_started += 1;
                    TraceEvent::PartitionStart { axis }
                } else {
                    self.report.faults.partitions_healed += 1;
                    TraceEvent::PartitionHeal { axis }
                };
                self.obs.record(self.now, record);
            }
            FaultAction::Crash(idx) => self.crash_node(idx),
            FaultAction::Recover(idx) => self.recover_node(idx),
        }
    }

    /// A hard crash: volatile state — cache contents, relay duties,
    /// pending polls, route tables — is wiped and rebuilt empty, and
    /// queries pending at the node die with it. Only the durable master
    /// copy of the node's own item survives. Contrast with
    /// [`Event::Switch`], which merely silences a node while all its
    /// state persists.
    pub(super) fn crash_node(&mut self, idx: usize) {
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        fr.crash_open[idx] = true;
        let id = fr.crash_victims[idx];
        for query in sorted_keys(&self.open, |q| q.node == id) {
            self.close_failed(id, query);
        }
        for write in sorted_keys(&self.open_writes, |w| w.writer == id) {
            self.close_write_failed(write);
        }
        // The crash is about to destroy every cached copy; whatever
        // stale answer the node later gives for these items traces back
        // to this wipe (unless a sharper cause supersedes it).
        let histories = &self.histories;
        let wiped = self.nodes[id.index()]
            .cache
            .iter()
            .map(|(item, _)| (id, item, histories[item.index()].current().get()));
        let record = TraceEvent::NodeCrash { node: id };
        self.obs
            .fault(self.now, record, BlameCause::CrashWipe, wiped);
        // The wipe discards the retransmit queue with the rest of the
        // volatile state, so fold its high-water mark into the run peak
        // before it is lost.
        let node = &mut self.nodes[id.index()];
        let retx_peak = node.proto.retx_high_water() as u64;
        self.report.faults.retx_queue_peak = self.report.faults.retx_queue_peak.max(retx_peak);
        node.up = false;
        node.cache = CacheStore::new(self.cfg.c_num);
        node.stack = node.stack.rebooted();
        node.proto = AnyProtocol::fresh(self.cfg.strategy, &self.cfg.proto, node.publishes);
        self.topo = None;
        self.report.faults.crashes += 1;
    }

    /// Recovery from a crash: the node rejoins with its volatile state
    /// still empty. `on_init` is deliberately NOT re-run — the perpetual
    /// timer chains scheduled before the crash (TTN, relay-hold sweeps)
    /// are still queued and resume against the fresh instance, exactly
    /// as a rebooted host rejoining mid-protocol would.
    pub(super) fn recover_node(&mut self, idx: usize) {
        let Some(fr) = self.faults.as_mut() else {
            return;
        };
        fr.crash_open[idx] = false;
        let id = fr.crash_victims[idx];
        self.nodes[id.index()].up = true;
        self.topo = None;
        self.report.faults.recoveries += 1;
        self.obs
            .record(self.now, TraceEvent::NodeRecover { node: id });
        self.with_proto(id, |p, ctx| p.on_status_change(ctx, true));
    }

    /// Whether `id` is inside one of its crash windows: down until
    /// [`World::recover_node`], whatever its switch stream says.
    pub(super) fn crashed(&self, id: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|fr| {
            let mut windows = fr.crash_victims.iter().zip(&fr.crash_open);
            windows.any(|(&victim, &open)| open && victim == id)
        })
    }

    /// The cut the open partition windows make: a bisection severs every
    /// link crossing the terrain midline of its axis, while nodes keep
    /// moving and hearing their own side. However many windows are open,
    /// each axis is cut once.
    pub(super) fn partition_cut(&self) -> PartitionCut {
        let mut cut = PartitionCut::default();
        let Some(fr) = self.faults.as_ref() else {
            return cut;
        };
        let windows = self.cfg.faults.partitions.iter().zip(&fr.partition_active);
        for (window, _) in windows.filter(|(_, &active)| active) {
            match window.axis {
                Axis::Vertical => cut.mid_x = Some(self.cfg.terrain.width() / 2.0),
                Axis::Horizontal => cut.mid_y = Some(self.cfg.terrain.height() / 2.0),
            }
        }
        cut
    }

    /// Rolls the plan's duplication dice for one transmission and
    /// returns the duplicate copy's extra delay beyond the original's.
    pub(super) fn duplicate_delay(&mut self, frame_bytes: u32) -> Option<SimDuration> {
        let fr = self.faults.as_mut()?;
        if fr.duplicate_prob <= 0.0 || !fr.rng.bernoulli(fr.duplicate_prob) {
            return None;
        }
        Some(self.cfg.link.hop_delay(frame_bytes, &mut fr.rng))
    }

    /// Decides whether the channel loses one reception, and to what. A
    /// Gilbert–Elliott chain (when the plan installs one) replaces the
    /// memoryless link model entirely; a drop rolled in its bad state is
    /// a burst loss.
    #[inline]
    pub(super) fn channel_verdict(&mut self) -> Option<FrameFateKind> {
        let chain = self
            .faults
            .as_mut()
            .and_then(|fr| fr.ge.as_mut().map(|ge| (ge, &mut fr.rng)));
        let (delivered, burst) = match chain {
            Some((ge, rng)) => {
                let was_bad = ge.is_bad();
                (ge.delivered(rng), was_bad)
            }
            None => (self.cfg.link.delivered(&mut self.link_rng), false),
        };
        match (delivered, burst) {
            (true, _) => None,
            (false, true) => Some(FrameFateKind::BurstDrop),
            (false, false) => Some(FrameFateKind::ChannelDrop),
        }
    }
}
