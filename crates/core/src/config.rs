//! Protocol timing and threshold parameters (Table 1 and Section 4).
//!
//! No experiment of the paper varies Table 1's `TTN`, `TTR`, `TTP`,
//! `TTL_BR`, ω or μ thresholds, nor needs a value the paper leaves open
//! (DESIGN.md §5): each is a constant here. [`ProtocolConfig`] holds what
//! a run may set: the knobs the evaluation and its ablations vary, and
//! one switch per opt-in layer.

use mp2p_sim::{require, ConfigError, SimDuration, SimRng};

use crate::recovery::RecoveryConfig;

/// `TTN_OP`: the source's invalidation/notification period (2 min).
pub const TTN: SimDuration = SimDuration::from_mins(2);
/// `TTR_RP`: how long a relay copy counts as fresh after a confirmation
/// (1.5 min).
pub const TTR: SimDuration = SimDuration::from_millis(90_000);
/// `TTP_CP`: how long a cache copy satisfies Δ-consistency after a
/// validation; TTP *is* the Δ value (Section 4.4) (4 min).
pub const TTP: SimDuration = SimDuration::from_mins(4);
/// `TTL_BR`: TTL of the baselines' broadcasts (8 hops).
pub const BROADCAST_TTL: u8 = 8;
/// ω: recency weight of the coefficient EWMAs (0.2).
pub const OMEGA: f64 = 0.2;
/// μ_CAR threshold (0.15): relay candidates need `CAR < μ_CAR`.
pub const MU_CAR: f64 = 0.15;
/// μ_CS threshold (0.6): relay candidates need `CS > μ_CS`.
pub const MU_CS: f64 = 0.6;
/// μ_CE threshold (0.6): relay candidates need `CE > μ_CE`.
pub const MU_CE: f64 = 0.6;

/// The widest a POLL ring may grow, in hops: the baselines' broadcast
/// TTL (`TTL_BR`), so a poll that has doubled past every ring reaches as
/// far as a flood of the baselines does.
pub const POLL_TTL_MAX: u8 = 8;
/// How long a poller waits for a POLL_ACK before retrying wider.
pub(crate) const POLL_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Attempts (initial + retries) of a POLL, fetch or write before the
/// request fails.
pub(crate) const POLL_ATTEMPTS: u8 = 3;
/// After the last POLL attempt, how long the query lingers for a late
/// answer from a relay that was holding the poll for the next
/// INVALIDATION (Fig. 6(c) line 16) before it finally fails.
pub(crate) const POLL_GRACE: SimDuration = SimDuration::from_secs(5);
/// Retry timeout for unicast content fetches (cache misses, push
/// refreshes, replica writes). Longer than [`POLL_TIMEOUT`] because a
/// routed unicast may first need a route discovery round.
pub(crate) const FETCH_TIMEOUT: SimDuration = SimDuration::from_secs(4);
/// φ: the coefficient recomputation period (paper: "every period of
/// time φ", value unspecified; set to TTN).
pub(crate) const PHI: SimDuration = SimDuration::from_mins(2);
/// Data-item content size in bytes (drives transfer costs).
pub(crate) const CONTENT_BYTES: u32 = 1_024;
/// How long a push-baseline query waits for the next invalidation report
/// before falling back to a direct fetch.
pub(crate) const PUSH_WAIT_TIMEOUT: SimDuration = SimDuration::from_mins(3);
/// How long a relay keeps an unanswerable POLL queued while waiting for
/// the next INVALIDATION (Fig. 6(c) line 16); also the period of the
/// relay's sweep of held polls and orphaned leases.
pub(crate) const RELAY_POLL_HOLD: SimDuration = SimDuration::from_mins(2);
/// Bound of the adaptive extension: an adapted TTN or TTP stays within
/// `[base / ADAPTIVE_SPAN, base * ADAPTIVE_SPAN]`.
pub(crate) const ADAPTIVE_SPAN: f64 = 4.0;

/// Hardening: each retry waits this factor longer than the one before
/// (exponent capped at 6).
const RETRY_BACKOFF: f64 = 2.0;
/// Hardening: a retry delay is stretched by up to this fraction of
/// itself, drawn from the caller's random stream.
const RETRY_JITTER: f64 = 0.3;
/// Hardening: how long past its TTR expiry a relay copy may sit without
/// any source contact before the peer concludes the source is
/// unreachable and resigns with a best-effort CANCEL (a *relay lease*).
const RELAY_ORPHAN_GRACE: SimDuration = SimDuration::from_secs(30);

/// What a run may set of the protocol: the knobs the paper's evaluation
/// and this reproduction's ablations vary, and one switch per opt-in
/// layer. The default is Table 1 with every extension and layer off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// TTL of RPCC's invalidation floods (`TTL_BR` RPS row: 3 hops;
    /// Fig. 9 varies it).
    pub invalidation_ttl: u8,
    /// Initial TTL of a cache peer's POLL flood (paper: "broadcast POLL",
    /// scope unspecified; DESIGN.md §5.1 — expanding ring from 2, up to
    /// [`POLL_TTL_MAX`]).
    pub poll_ttl: u8,
    /// Consecutive failing coefficient ticks before a relay/candidate is
    /// demoted. The paper demotes on the first failing tick, but with
    /// Table 1's thresholds the qualification test sits exactly at its
    /// expectation, so single-tick demotion makes the relay population
    /// flap on Poisson noise (DESIGN.md §5). 1 reproduces the paper's
    /// literal rule.
    pub demote_grace_ticks: u8,
    /// **Extension (paper's future work §6, item 1):** adapt the
    /// push/pull frequencies to runtime conditions. Sources track their
    /// own inter-update gaps and stretch/shrink the invalidation period;
    /// cache peers grow a per-item TTP on every confirmation
    /// (`POLL_ACK_A`) and shrink it on every change (`POLL_ACK_B`) —
    /// the classic adaptive-TTL rule, within a factor of 4. Off by
    /// default (paper behaviour).
    pub adaptive: bool,
    /// **Extension (paper's future work §6, item 2):** cap the number of
    /// relay peers a source approves for its item ("the number of relay
    /// peers cannot be controlled" in the base protocol). `None`
    /// reproduces the paper: every qualified applicant is approved.
    pub max_relays_per_item: Option<usize>,
    /// **Hardening layer:** retries back off and jitter
    /// ([`Self::retry_delay`]), a relay whose source falls silent resigns
    /// after a lease ([`Self::relay_orphan_grace`]), and a POLL whose
    /// retries are exhausted falls back to one max-TTL flood. `false`
    /// reproduces the paper and draws nothing more from any stream;
    /// [`ProtocolConfig::hardened()`] turns it on.
    pub hardened: bool,
    /// **Recovery layer (self-healing):** rejoin resync, acknowledged
    /// invalidation/update delivery with bounded retransmit, and
    /// relay-lease handover. Fully off by default — recovery-off runs
    /// stay byte-identical to pre-recovery output.
    pub recovery: RecoveryConfig,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            invalidation_ttl: 3,
            poll_ttl: 2,
            demote_grace_ticks: 2,
            adaptive: false,
            max_relays_per_item: None,
            hardened: false,
            recovery: RecoveryConfig::off(),
        }
    }
}

impl ProtocolConfig {
    /// The TTL of the `attempt`-th POLL (1-based): an expanding ring that
    /// doubles from [`Self::poll_ttl`] up to [`POLL_TTL_MAX`].
    pub fn poll_ttl_for_attempt(&self, attempt: u8) -> u8 {
        let doublings = attempt.saturating_sub(1).min(6);
        let ttl = u32::from(self.poll_ttl) << doublings;
        ttl.min(u32::from(POLL_TTL_MAX)).max(1) as u8
    }

    /// The delay before the `attempt`-th retry (1-based) of a timer
    /// whose base period is `base`. Hardened, it doubles per prior
    /// attempt (exponent capped at 6) and is then stretched by up to
    /// 30 % of itself, drawn from `rng`.
    ///
    /// Not hardened, it returns `base` unchanged and draws **nothing**
    /// from `rng`, so un-hardened runs replay bit-identically.
    pub fn retry_delay(&self, base: SimDuration, attempt: u8, rng: &mut SimRng) -> SimDuration {
        if !self.hardened {
            return base;
        }
        let exponent = i32::from(attempt.saturating_sub(1).min(6));
        let backed_off = base.mul_f64(RETRY_BACKOFF.powi(exponent));
        backed_off.mul_f64(1.0 + RETRY_JITTER * rng.uniform_f64())
    }

    /// How long past its TTR expiry a relay copy may go without source
    /// contact before the peer resigns it: 30 s when hardened, never
    /// otherwise (the paper: relays only demote on coefficient failure).
    pub fn relay_orphan_grace(&self) -> Option<SimDuration> {
        self.hardened.then_some(RELAY_ORPHAN_GRACE)
    }

    /// Switches the hardening layer on: doubling retry backoff, 30 %
    /// retry jitter, a 30-second relay orphan lease past TTR expiry, and
    /// fallback flooding. Used by the chaos harness and the `--hardened`
    /// flag of `mp2p run`.
    #[must_use]
    pub fn hardened(mut self) -> Self {
        self.hardened = true;
        self
    }

    /// Checks internal consistency: no zero TTL or tick count, a POLL
    /// ring within its cap, no relay cap of zero. Errors name the field
    /// as the `proto.*` member of a world configuration.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (field, count) in [
            ("proto.invalidation_ttl", self.invalidation_ttl),
            ("proto.demote_grace_ticks", self.demote_grace_ticks),
        ] {
            require(count >= 1, field, "must be at least 1")?;
        }
        let ring = format!("must be a hop count of 1 to {POLL_TTL_MAX}");
        require(
            (1..=POLL_TTL_MAX).contains(&self.poll_ttl),
            "proto.poll_ttl",
            ring,
        )?;
        require(
            self.max_relays_per_item != Some(0),
            "proto.max_relays_per_item",
            "must be at least 1 (a cap of zero disables the protocol)",
        )?;
        self.recovery.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = ProtocolConfig::default();
        assert_eq!(TTN, SimDuration::from_mins(2));
        assert_eq!(TTR.as_millis(), 90_000);
        assert_eq!(TTP, SimDuration::from_mins(4));
        assert_eq!(c.invalidation_ttl, 3);
        assert_eq!(BROADCAST_TTL, 8);
        assert_eq!(OMEGA, 0.2);
        assert_eq!(MU_CAR, 0.15);
        assert_eq!(MU_CS, 0.6);
        assert_eq!(MU_CE, 0.6);
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn poll_ring_expands_and_caps() {
        let c = ProtocolConfig::default();
        assert_eq!(c.poll_ttl_for_attempt(1), 2);
        assert_eq!(c.poll_ttl_for_attempt(2), 4);
        assert_eq!(c.poll_ttl_for_attempt(3), 8);
        assert_eq!(c.poll_ttl_for_attempt(4), 8, "capped at POLL_TTL_MAX");
        assert_eq!(c.poll_ttl_for_attempt(200), 8, "doubling saturates safely");
    }

    #[test]
    fn default_retry_delay_is_exact_and_draws_nothing() {
        let c = ProtocolConfig::default();
        let mut rng = SimRng::from_seed(1, 2);
        let before = rng.uniform_f64();
        let mut rng = SimRng::from_seed(1, 2);
        for attempt in 1..=5 {
            assert_eq!(
                c.retry_delay(POLL_TIMEOUT, attempt, &mut rng),
                POLL_TIMEOUT,
                "an un-hardened retry must not change the period"
            );
        }
        assert_eq!(
            rng.uniform_f64(),
            before,
            "default hardening must not consume RNG draws"
        );
    }

    #[test]
    fn hardened_backoff_grows_and_jitters_within_bound() {
        let c = ProtocolConfig::default().hardened();
        assert_eq!(c.check(), Ok(()));
        let mut rng = SimRng::from_seed(1, 2);
        let base = POLL_TIMEOUT;
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=4u8 {
            let d = c.retry_delay(base, attempt, &mut rng);
            let nominal = base.mul_f64(2.0f64.powi(i32::from(attempt - 1)));
            assert!(d >= nominal, "jitter only stretches, never shrinks");
            assert!(d <= nominal.mul_f64(1.0 + RETRY_JITTER), "jitter bounded");
            assert!(d > prev, "delays grow across attempts");
            prev = d;
        }
    }

    /// The hardened retry schedule, millisecond for millisecond, for
    /// every base period it stretches: doubling backoff per prior
    /// attempt, then up to 30 % jitter drawn from the caller's stream
    /// (a fresh `(1, 2)` stream per base).
    #[test]
    fn hardened_retry_delays_are_pinned() {
        let c = ProtocolConfig::default().hardened();
        let cases: [(SimDuration, [u64; 4]); 4] = [
            (POLL_TIMEOUT, [548, 1_194, 2_114, 4_832]),
            (FETCH_TIMEOUT, [4_381, 9_550, 16_910, 38_657]),
            (TTN, [131_436, 286_506, 507_295, 1_159_714]),
            (crate::recovery::RETX_TIMEOUT, [2_191, 4_775, 8_455, 19_329]),
        ];
        for (base, pinned) in cases {
            let mut rng = SimRng::from_seed(1, 2);
            let delays = [1, 2, 3, 4].map(|attempt| c.retry_delay(base, attempt, &mut rng));
            assert_eq!(delays.map(SimDuration::as_millis), pinned, "base {base}");
        }
    }

    #[test]
    fn check_rejects_zero_invalidation_ttl() {
        let c = ProtocolConfig {
            invalidation_ttl: 0,
            ..ProtocolConfig::default()
        };
        let e = c.check().unwrap_err();
        assert_eq!(e.to_string(), "proto.invalidation_ttl must be at least 1");
    }
}
