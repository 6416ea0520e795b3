//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is pure configuration: which hostile regimes a run
//! injects and when. The simulation driver owns the runtime state (the
//! Gilbert–Elliott chain, active partitions, crash schedules) and seeds
//! it from its own RNG streams, so a faulted run is exactly as
//! reproducible as a clean one.
//!
//! The default [`FaultPlan::none`] mirrors the `NullSink` design of the
//! flight recorder: one `enabled()` check on the hot path, no
//! allocations, and a bit-identical event schedule to a build without
//! the fault layer at all.
//!
//! Five named presets cover the regimes the related work stresses:
//!
//! | preset        | injects                                              |
//! |---------------|------------------------------------------------------|
//! | `bursty`      | Gilbert–Elliott burst loss + frame duplication        |
//! | `partition`   | one long spatial bisection of the terrain             |
//! | `crash`       | node crashes (volatile state wiped) with recovery     |
//! | `crash-heavy` | short-MTBF staggered crash churn + frame duplication  |
//! | `hostile`     | all of the above at once                              |
//!
//! Fault windows are stored as absolute sim times; the preset
//! constructors place them at fixed fractions of the run so the same
//! preset scales from a 2-minute smoke to a 5-hour soak.

use mp2p_sim::{relate, require, ConfigError, SimDuration, SimTime};

use crate::link::GeParams;

/// Which way a spatial bisection cuts the terrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The cut runs vertically: edges crossing the mid-`x` line drop.
    Vertical,
    /// The cut runs horizontally: edges crossing the mid-`y` line drop.
    Horizontal,
}

impl Axis {
    /// Stable numeric tag for trace events (0 = vertical, 1 = horizontal).
    pub fn tag(self) -> u8 {
        match self {
            Axis::Vertical => 0,
            Axis::Horizontal => 1,
        }
    }
}

/// One scheduled bisection partition: between `start` and `heal` no
/// radio edge crosses the terrain's mid-line on `axis`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// When the partition starts.
    pub start: SimTime,
    /// When it heals.
    pub heal: SimTime,
    /// Cut orientation.
    pub axis: Axis,
}

/// One scheduled node crash: at `at` the node's volatile state (cache
/// store, relay/pending protocol state, routing tables) is wiped and the
/// node goes dark; at `recover` it boots cold.
///
/// This is strictly harsher than the soft `I_Switch` churn, which
/// preserves all of that state across the off period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Crash instant.
    pub at: SimTime,
    /// Cold-boot instant.
    pub recover: SimTime,
    /// Crashed node index; `None` lets the driver pick one
    /// deterministically from its fault RNG stream.
    pub node: Option<u32>,
}

/// A full fault schedule for one run. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Preset name (or `"none"`/`"custom"`) — surfaced in reports.
    pub label: &'static str,
    /// Replaces the Bernoulli `LinkModel::loss_prob` with a
    /// Gilbert–Elliott burst channel when set.
    pub ge: Option<GeParams>,
    /// Per-transmission probability that the frame is duplicated (the
    /// copy arrives after an independent extra hop delay).
    pub duplicate_prob: f64,
    /// Scheduled bisection partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled crashes.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// The names [`FaultPlan::preset`] accepts.
    pub const PRESETS: [&'static str; 5] =
        ["bursty", "partition", "crash", "crash-heavy", "hostile"];

    /// No faults: the hot path stays bit-identical to a build without
    /// the fault layer.
    pub fn none() -> Self {
        FaultPlan {
            label: "none",
            ..FaultPlan::default()
        }
    }

    /// True if this plan injects anything at all. The driver checks this
    /// once at construction; a disabled plan costs nothing per event.
    pub fn enabled(&self) -> bool {
        self.ge.is_some()
            || self.duplicate_prob > 0.0
            || !self.partitions.is_empty()
            || !self.crashes.is_empty()
    }

    /// The burst-loss parameters shared by `bursty` and `hostile`:
    /// near-clean good state, 60% loss in bad, mean burst 4 frames,
    /// stationary bad-state probability ≈ 7%.
    pub fn burst_params() -> GeParams {
        GeParams {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            loss_good: 0.01,
            loss_bad: 0.6,
        }
    }

    /// Burst loss plus light frame duplication, no structural faults.
    pub fn bursty(_sim_time: SimDuration) -> Self {
        FaultPlan {
            label: "bursty",
            ge: Some(Self::burst_params()),
            duplicate_prob: 0.05,
            ..FaultPlan::default()
        }
    }

    /// One vertical bisection across the middle 20% of the run
    /// (starts at 30%, heals at 50%).
    pub fn partition(sim_time: SimDuration) -> Self {
        FaultPlan {
            label: "partition",
            partitions: vec![PartitionWindow {
                start: at_fraction(sim_time, 0.30),
                heal: at_fraction(sim_time, 0.50),
                axis: Axis::Vertical,
            }],
            ..FaultPlan::default()
        }
    }

    /// Three staggered crashes (driver-picked victims), each down for
    /// 10% of the run.
    pub fn crash(sim_time: SimDuration) -> Self {
        let window = |f: f64| CrashWindow {
            at: at_fraction(sim_time, f),
            recover: at_fraction(sim_time, f + 0.10),
            node: None,
        };
        FaultPlan {
            label: "crash",
            crashes: vec![window(0.30), window(0.50), window(0.70)],
            ..FaultPlan::default()
        }
    }

    /// Crash churn: six staggered crashes marching across the middle of
    /// the run, each down for only 5% of it — a short mean time between
    /// failures that keeps rejoin resync and retransmit queues under
    /// constant pressure — plus light frame duplication to stress
    /// delivery dedup. Every victim recovers in-run.
    pub fn crash_heavy(sim_time: SimDuration) -> Self {
        let window = |f: f64| CrashWindow {
            at: at_fraction(sim_time, f),
            recover: at_fraction(sim_time, f + 0.05),
            node: None,
        };
        FaultPlan {
            label: "crash-heavy",
            duplicate_prob: 0.05,
            crashes: vec![
                window(0.15),
                window(0.25),
                window(0.35),
                window(0.45),
                window(0.55),
                window(0.65),
            ],
            ..FaultPlan::default()
        }
    }

    /// Everything at once: burst loss, duplication, a bisection and two
    /// crashes — the soak regime of the chaos harness.
    pub fn hostile(sim_time: SimDuration) -> Self {
        FaultPlan {
            label: "hostile",
            ge: Some(Self::burst_params()),
            duplicate_prob: 0.08,
            partitions: vec![PartitionWindow {
                start: at_fraction(sim_time, 0.35),
                heal: at_fraction(sim_time, 0.55),
                axis: Axis::Horizontal,
            }],
            crashes: vec![
                CrashWindow {
                    at: at_fraction(sim_time, 0.25),
                    recover: at_fraction(sim_time, 0.40),
                    node: None,
                },
                CrashWindow {
                    at: at_fraction(sim_time, 0.60),
                    recover: at_fraction(sim_time, 0.75),
                    node: None,
                },
            ],
        }
    }

    /// Looks a preset up by name, scaled to `sim_time`.
    pub fn preset(name: &str, sim_time: SimDuration) -> Option<Self> {
        match name {
            "none" => Some(FaultPlan::none()),
            "bursty" => Some(FaultPlan::bursty(sim_time)),
            "partition" => Some(FaultPlan::partition(sim_time)),
            "crash" => Some(FaultPlan::crash(sim_time)),
            "crash-heavy" => Some(FaultPlan::crash_heavy(sim_time)),
            "hostile" => Some(FaultPlan::hostile(sim_time)),
            _ => None,
        }
    }

    /// Checks the schedule against a run's shape: probabilities in
    /// range, windows the right way round, crash targets inside
    /// `0..n_peers`. Errors name the field as the `faults.*` member of a
    /// world configuration.
    pub fn check(&self, n_peers: usize) -> Result<(), ConfigError> {
        if let Some(ge) = &self.ge {
            ge.check()?;
        }
        require(
            (0.0..=1.0).contains(&self.duplicate_prob),
            "faults.duplicate_prob",
            "must be in [0,1]",
        )?;
        for w in &self.partitions {
            require(
                w.start < w.heal,
                "faults.partitions",
                "must each start before it heals",
            )?;
        }
        for c in &self.crashes {
            require(
                c.at < c.recover,
                "faults.crashes",
                "must each precede its recovery",
            )?;
            let inside = c.node.is_none_or(|node| (node as usize) < n_peers);
            relate(
                inside,
                "faults.crashes",
                "n_peers",
                format!("must target nodes inside 0..{n_peers}"),
            )?;
        }
        Ok(())
    }
}

/// The sim time at `fraction` of the run, at millisecond granularity.
fn at_fraction(sim_time: SimDuration, fraction: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(sim_time.as_secs_f64() * fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled_and_free() {
        let plan = FaultPlan::none();
        assert!(!plan.enabled());
        assert_eq!(plan.label, "none");
        assert_eq!(plan.check(50), Ok(()));
    }

    #[test]
    fn every_preset_is_enabled_and_valid() {
        let sim = SimDuration::from_mins(30);
        for name in FaultPlan::PRESETS {
            let plan = FaultPlan::preset(name, sim).expect("known preset");
            assert!(plan.enabled(), "{name} must inject something");
            assert_eq!(plan.label, name);
            assert_eq!(plan.check(50), Ok(()));
        }
        assert!(FaultPlan::preset("no-such", sim).is_none());
    }

    #[test]
    fn presets_scale_with_sim_time() {
        let short = FaultPlan::partition(SimDuration::from_mins(2));
        let long = FaultPlan::partition(SimDuration::from_hours(5));
        assert!(short.partitions[0].heal < long.partitions[0].start);
        for plan in [short, long] {
            let w = plan.partitions[0];
            assert!(w.start < w.heal);
        }
    }

    #[test]
    fn check_rejects_inverted_partition() {
        let mut plan = FaultPlan::partition(SimDuration::from_mins(10));
        let w = &mut plan.partitions[0];
        std::mem::swap(&mut w.start, &mut w.heal);
        assert_eq!(plan.check(10).unwrap_err().field, "faults.partitions");
    }

    #[test]
    fn check_rejects_out_of_range_crash_target() {
        let mut plan = FaultPlan::crash(SimDuration::from_mins(10));
        plan.crashes[0].node = Some(99);
        let e = plan.check(10).unwrap_err();
        assert_eq!((e.field, e.related), ("faults.crashes", Some("n_peers")));
    }
}
