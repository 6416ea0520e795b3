//! Protocol timing and threshold parameters (Table 1 and Section 4).

use mp2p_sim::{relate, require, ConfigError, SimDuration, SimRng};

use crate::recovery::RecoveryConfig;

/// All protocol-level tunables, defaulting to Table 1 of the paper.
///
/// Parameters the paper leaves open are documented as such and set to the
/// values DESIGN.md Section 5 justifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// `TTN_OP`: the source's invalidation/notification period (2 min).
    pub ttn: SimDuration,
    /// `TTR_RP`: how long a relay copy counts as fresh after a
    /// confirmation (1.5 min).
    pub ttr: SimDuration,
    /// `TTP_CP`: how long a cache copy satisfies Δ-consistency after a
    /// validation; TTP *is* the Δ value (Section 4.4) (4 min).
    pub ttp: SimDuration,
    /// TTL of RPCC's invalidation floods (`TTL_BR` RPS row: 3 hops).
    pub invalidation_ttl: u8,
    /// TTL of the baselines' broadcasts (`TTL_BR`: 8 hops).
    pub broadcast_ttl: u8,
    /// Initial TTL of a cache peer's POLL flood (paper: "broadcast POLL",
    /// scope unspecified; DESIGN.md §5.1 — expanding ring from 2).
    pub poll_ttl: u8,
    /// Upper TTL bound the POLL ring may expand to.
    pub poll_ttl_max: u8,
    /// How long a poller waits for a POLL_ACK before retrying wider.
    pub poll_timeout: SimDuration,
    /// POLL attempts (initial + retries) before the query fails.
    pub poll_attempts: u8,
    /// After the last POLL attempt, how long the query lingers for a late
    /// answer from a relay that was holding the poll for the next
    /// INVALIDATION (Fig. 6(c) line 16) before it finally fails.
    pub poll_grace: SimDuration,
    /// Retry timeout for unicast content fetches (cache misses, push
    /// refreshes). Longer than [`Self::poll_timeout`] because a routed
    /// unicast may first need a route discovery round.
    pub fetch_timeout: SimDuration,
    /// φ: the coefficient recomputation period (paper: "every period of
    /// time φ", value unspecified; set to TTN).
    pub phi: SimDuration,
    /// ω: recency weight of the coefficient EWMAs (0.2).
    pub omega: f64,
    /// μ_CAR threshold (0.15): relay candidates need `CAR < μ_CAR`.
    pub mu_car: f64,
    /// μ_CS threshold (0.6): relay candidates need `CS > μ_CS`.
    pub mu_cs: f64,
    /// μ_CE threshold (0.6): relay candidates need `CE > μ_CE`.
    pub mu_ce: f64,
    /// Data-item content size in bytes (drives transfer costs).
    pub content_bytes: u32,
    /// How long a push-baseline query waits for the next invalidation
    /// report before falling back to a direct fetch.
    pub push_wait_timeout: SimDuration,
    /// How long a relay keeps an unanswerable POLL queued while waiting
    /// for the next INVALIDATION (Fig. 6(c) line 16).
    pub relay_poll_hold: SimDuration,
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
    /// the classic adaptive-TTL rule. Off by default (paper behaviour).
    pub adaptive: bool,
    /// Bounds for the adaptive machinery: effective TTN/TTP stay within
    /// `[base / adaptive_span, base * adaptive_span]`.
    pub adaptive_span: f64,
    /// **Extension (paper's future work §6, item 2):** cap the number of
    /// relay peers a source approves for its item ("the number of relay
    /// peers cannot be controlled" in the base protocol). `None`
    /// reproduces the paper: every qualified applicant is approved.
    pub max_relays_per_item: Option<usize>,
    /// **Hardening:** multiplicative backoff applied to retry delays
    /// (POLL retries, and — when `> 1` — re-APPLY attempts). `1.0`
    /// reproduces the paper's fixed retry period exactly.
    pub retry_backoff: f64,
    /// **Hardening:** fraction of deterministic jitter added to each
    /// retry delay (the delay is stretched by up to this fraction, drawn
    /// from the caller's protocol RNG stream). `0.0` draws nothing from
    /// the RNG, keeping un-hardened runs bit-identical.
    pub retry_jitter: f64,
    /// **Hardening:** how long past its TTR expiry a relay copy may sit
    /// without any source contact before the peer concludes the source
    /// is unreachable and demotes itself with a best-effort CANCEL
    /// (a *relay lease*). `None` reproduces the paper: relays only
    /// demote on coefficient failure or explicit sweep.
    pub relay_orphan_grace: Option<SimDuration>,
    /// **Hardening:** when routed POLL retries are exhausted, fall back
    /// to one max-TTL flood aimed at reaching the source before the
    /// query fails (graceful degradation instead of hard failure).
    /// `false` reproduces the paper.
    pub fallback_flood: bool,
    /// **Recovery layer (self-healing):** rejoin resync, acknowledged
    /// invalidation/update delivery with bounded retransmit, and
    /// relay-lease handover. Fully off by default — recovery-off runs
    /// stay byte-identical to pre-recovery output.
    pub recovery: RecoveryConfig,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            ttn: SimDuration::from_mins(2),
            ttr: SimDuration::from_millis(90_000), // 1.5 min
            ttp: SimDuration::from_mins(4),
            invalidation_ttl: 3,
            broadcast_ttl: 8,
            poll_ttl: 2,
            poll_ttl_max: 8,
            poll_timeout: SimDuration::from_millis(500),
            poll_attempts: 3,
            poll_grace: SimDuration::from_secs(5),
            fetch_timeout: SimDuration::from_secs(4),
            phi: SimDuration::from_mins(2),
            omega: 0.2,
            mu_car: 0.15,
            mu_cs: 0.6,
            mu_ce: 0.6,
            content_bytes: 1_024,
            push_wait_timeout: SimDuration::from_mins(3),
            relay_poll_hold: SimDuration::from_mins(2),
            demote_grace_ticks: 2,
            adaptive: false,
            adaptive_span: 4.0,
            max_relays_per_item: None,
            retry_backoff: 1.0,
            retry_jitter: 0.0,
            relay_orphan_grace: None,
            fallback_flood: false,
            recovery: RecoveryConfig::off(),
        }
    }
}

impl ProtocolConfig {
    /// The TTL of the `attempt`-th POLL (1-based): an expanding ring that
    /// doubles from [`Self::poll_ttl`] up to [`Self::poll_ttl_max`].
    pub fn poll_ttl_for_attempt(&self, attempt: u8) -> u8 {
        let doublings = attempt.saturating_sub(1).min(6);
        let ttl = u32::from(self.poll_ttl) << doublings;
        ttl.min(u32::from(self.poll_ttl_max)).max(1) as u8
    }

    /// The delay before the `attempt`-th retry (1-based) of a timer
    /// whose base period is `base`: exponential backoff by
    /// [`Self::retry_backoff`] per prior attempt (exponent capped at 6),
    /// stretched by up to [`Self::retry_jitter`] of itself.
    ///
    /// With the default `retry_backoff = 1.0` / `retry_jitter = 0.0`
    /// this returns `base` unchanged and draws **nothing** from `rng`,
    /// so un-hardened runs replay bit-identically.
    pub fn retry_delay(&self, base: SimDuration, attempt: u8, rng: &mut SimRng) -> SimDuration {
        let mut delay = base;
        if self.retry_backoff > 1.0 {
            let exponent = i32::from(attempt.saturating_sub(1).min(6));
            delay = delay.mul_f64(self.retry_backoff.powi(exponent));
        }
        if self.retry_jitter > 0.0 {
            delay = delay.mul_f64(1.0 + self.retry_jitter * rng.uniform_f64());
        }
        delay
    }

    /// Switches on every hardening extension with its recommended
    /// setting: doubling backoff, 30% retry jitter, a 30-second relay
    /// orphan lease past TTR expiry, and fallback flooding. Used by the
    /// chaos harness and the `--hardened` flag of `mp2p run`.
    #[must_use]
    pub fn hardened(mut self) -> Self {
        self.retry_backoff = 2.0;
        self.retry_jitter = 0.3;
        self.relay_orphan_grace = Some(SimDuration::from_secs(30));
        self.fallback_flood = true;
        self
    }

    /// Checks internal consistency: no zero period, TTL or attempt
    /// count, thresholds in `(0, 1]`, multipliers at least 1. Errors name
    /// the field as the `proto.*` member of a world configuration.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (field, period) in [
            ("proto.ttn", self.ttn),
            ("proto.ttr", self.ttr),
            ("proto.ttp", self.ttp),
            ("proto.phi", self.phi),
        ] {
            require(!period.is_zero(), field, "must be positive")?;
        }
        for (field, count) in [
            ("proto.invalidation_ttl", self.invalidation_ttl),
            ("proto.broadcast_ttl", self.broadcast_ttl),
            ("proto.poll_ttl", self.poll_ttl),
            ("proto.poll_attempts", self.poll_attempts),
            ("proto.demote_grace_ticks", self.demote_grace_ticks),
        ] {
            require(count >= 1, field, "must be at least 1")?;
        }
        relate(
            self.poll_ttl <= self.poll_ttl_max,
            "proto.poll_ttl",
            "proto.poll_ttl_max",
            "must not exceed proto.poll_ttl_max",
        )?;
        for (field, fraction) in [
            ("proto.omega", self.omega),
            ("proto.retry_jitter", self.retry_jitter),
        ] {
            require((0.0..=1.0).contains(&fraction), field, "must be in [0,1]")?;
        }
        for (field, mu) in [
            ("proto.mu_car", self.mu_car),
            ("proto.mu_cs", self.mu_cs),
            ("proto.mu_ce", self.mu_ce),
        ] {
            let reason = format!("must be in (0,1], got {mu}");
            require(mu > 0.0 && mu <= 1.0, field, reason)?;
        }
        require(
            self.content_bytes > 0,
            "proto.content_bytes",
            "must be positive",
        )?;
        for (field, factor) in [
            ("proto.adaptive_span", self.adaptive_span),
            ("proto.retry_backoff", self.retry_backoff),
        ] {
            require(factor >= 1.0 && factor.is_finite(), field, "must be >= 1")?;
        }
        require(
            self.max_relays_per_item != Some(0),
            "proto.max_relays_per_item",
            "must be at least 1 (a cap of zero disables the protocol)",
        )?;
        require(
            self.relay_orphan_grace != Some(SimDuration::ZERO),
            "proto.relay_orphan_grace",
            "must be positive (zero would demote relays on every sweep)",
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
        assert_eq!(c.ttn, SimDuration::from_mins(2));
        assert_eq!(c.ttr.as_millis(), 90_000);
        assert_eq!(c.ttp, SimDuration::from_mins(4));
        assert_eq!(c.invalidation_ttl, 3);
        assert_eq!(c.broadcast_ttl, 8);
        assert_eq!(c.omega, 0.2);
        assert_eq!(c.mu_car, 0.15);
        assert_eq!(c.mu_cs, 0.6);
        assert_eq!(c.mu_ce, 0.6);
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn poll_ring_expands_and_caps() {
        let c = ProtocolConfig::default();
        assert_eq!(c.poll_ttl_for_attempt(1), 2);
        assert_eq!(c.poll_ttl_for_attempt(2), 4);
        assert_eq!(c.poll_ttl_for_attempt(3), 8);
        assert_eq!(c.poll_ttl_for_attempt(4), 8, "capped at poll_ttl_max");
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
                c.retry_delay(c.poll_timeout, attempt, &mut rng),
                c.poll_timeout,
                "backoff 1.0 must not change the period"
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
        let base = c.poll_timeout;
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=4u8 {
            let d = c.retry_delay(base, attempt, &mut rng);
            let nominal = base.mul_f64(2.0f64.powi(i32::from(attempt - 1)));
            assert!(d >= nominal, "jitter only stretches, never shrinks");
            assert!(d <= nominal.mul_f64(1.0 + c.retry_jitter), "jitter bounded");
            assert!(d > prev, "delays grow across attempts");
            prev = d;
        }
    }

    #[test]
    fn check_rejects_zero_ttn() {
        let c = ProtocolConfig {
            ttn: SimDuration::ZERO,
            ..ProtocolConfig::default()
        };
        let e = c.check().unwrap_err();
        assert_eq!(e.to_string(), "proto.ttn must be positive");
    }
}
