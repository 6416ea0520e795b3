//! Per-hop MAC/PHY cost model.

use mp2p_sim::{require, ConfigError, SimDuration, SimRng};

/// The cost of one radio transmission hop.
///
/// GloMoSim's 802.11 stack charged each hop serialisation at the channel
/// bandwidth plus MAC contention; we model the same shape:
///
/// `delay = size / bandwidth + base_latency + U(0, jitter)`
///
/// and drop the frame with probability `loss_prob` (per receiving link).
///
/// # Example
///
/// ```
/// use mp2p_net::LinkModel;
/// use mp2p_sim::SimRng;
///
/// let link = LinkModel::default(); // 2 Mb/s, 1 ms base, 4 ms jitter, lossless
/// let mut rng = SimRng::from_seed(0, 0);
/// let d = link.hop_delay(1_000, &mut rng);
/// assert!(d.as_millis() >= 5); // 4 ms serialisation + 1 ms base
/// assert!(link.delivered(&mut rng));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Channel bandwidth in bits per second (2 Mb/s by default, the
    /// GloMoSim-era 802.11 rate).
    pub bandwidth_bps: u64,
    /// Fixed per-hop latency: propagation + MAC/processing overhead.
    pub base_latency: SimDuration,
    /// Upper bound of the uniform contention jitter added per hop.
    pub jitter: SimDuration,
    /// Probability that a given receiver misses the frame.
    pub loss_prob: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero or `loss_prob` is outside `[0, 1]`.
    pub fn new(
        bandwidth_bps: u64,
        base_latency: SimDuration,
        jitter: SimDuration,
        loss_prob: f64,
    ) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss probability must be in [0,1]"
        );
        LinkModel {
            bandwidth_bps,
            base_latency,
            jitter,
            loss_prob,
        }
    }

    /// A lossless variant of this model (used by consistency-guarantee
    /// property tests, which assert protocol invariants that only hold
    /// when the channel delivers).
    #[must_use]
    pub fn lossless(mut self) -> Self {
        self.loss_prob = 0.0;
        self
    }

    /// The delay for one hop carrying `size_bytes`.
    pub fn hop_delay(&self, size_bytes: u32, rng: &mut SimRng) -> SimDuration {
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis(rng.uniform_u64(self.jitter.as_millis() + 1))
        };
        self.fixed_delay(size_bytes) + jitter
    }

    /// The longest delay [`Self::hop_delay`] can draw for `size_bytes`:
    /// the whole jitter on top of the fixed part.
    pub fn max_hop_delay(&self, size_bytes: u32) -> SimDuration {
        self.fixed_delay(size_bytes) + self.jitter
    }

    /// Serialisation plus base latency, the part of a hop's delay that
    /// draws nothing.
    fn fixed_delay(&self, size_bytes: u32) -> SimDuration {
        let serialisation_ms = (size_bytes as u64 * 8).saturating_mul(1_000) / self.bandwidth_bps;
        // Every hop costs at least 1 ms so events strictly advance time.
        SimDuration::from_millis(serialisation_ms.max(1)) + self.base_latency
    }

    /// One Bernoulli delivery trial for a receiving link.
    pub fn delivered(&self, rng: &mut SimRng) -> bool {
        self.loss_prob == 0.0 || !rng.bernoulli(self.loss_prob)
    }
}

impl Default for LinkModel {
    /// 2 Mb/s, 1 ms base latency, 4 ms contention jitter, lossless.
    fn default() -> Self {
        LinkModel::new(
            2_000_000,
            SimDuration::from_millis(1),
            SimDuration::from_millis(4),
            0.0,
        )
    }
}

/// Parameters of the Gilbert–Elliott two-state burst-loss channel.
///
/// The channel is a two-state Markov chain stepped once per delivery
/// trial: in the *good* state frames drop with `loss_good`, in the *bad*
/// state with `loss_bad`. After each trial the chain transitions
/// good→bad with `p_good_to_bad` and bad→good with `p_bad_to_good`, so
/// the mean dwell in the bad state — the mean loss-burst length when
/// `loss_bad = 1` — is the geometric `1 / p_bad_to_good` trials, and the
/// stationary bad-state probability is
/// `p_good_to_bad / (p_good_to_bad + p_bad_to_good)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeParams {
    /// Transition probability good → bad after each trial.
    pub p_good_to_bad: f64,
    /// Transition probability bad → good after each trial.
    pub p_bad_to_good: f64,
    /// Per-frame loss probability while in the good state.
    pub loss_good: f64,
    /// Per-frame loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeParams {
    /// Checks every probability; errors name the field as the
    /// `faults.ge.*` member of a world configuration.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (field, p) in [
            ("faults.ge.p_good_to_bad", self.p_good_to_bad),
            ("faults.ge.p_bad_to_good", self.p_bad_to_good),
            ("faults.ge.loss_good", self.loss_good),
            ("faults.ge.loss_bad", self.loss_bad),
        ] {
            require(
                (0.0..=1.0).contains(&p),
                field,
                format!("must be in [0,1], got {p}"),
            )?;
        }
        require(
            self.p_bad_to_good > 0.0,
            "faults.ge.p_bad_to_good",
            "must be positive or the bad state is absorbing",
        )
    }

    /// [`Self::check`] for callers that treat a bad channel as a bug.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or
    /// `p_bad_to_good` is zero (the bad state would be absorbing).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// The running Gilbert–Elliott channel: [`GeParams`] plus the current
/// Markov state. One instance models the shared channel of a run (the
/// same granularity as the Bernoulli `loss_prob` it replaces); the chain
/// starts in the good state.
#[derive(Debug, Clone, Copy)]
pub struct GilbertElliott {
    params: GeParams,
    bad: bool,
}

impl GilbertElliott {
    /// Creates the channel in the good state.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`GeParams::validate`].
    pub fn new(params: GeParams) -> Self {
        params.validate();
        GilbertElliott { params, bad: false }
    }

    /// Whether the chain currently sits in the bad state.
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// One delivery trial: samples loss under the current state, then
    /// steps the Markov chain. Draws exactly two values from `rng` per
    /// call, whatever the outcome, so event schedules stay reproducible.
    pub fn delivered(&mut self, rng: &mut SimRng) -> bool {
        let loss = if self.bad {
            self.params.loss_bad
        } else {
            self.params.loss_good
        };
        let delivered = rng.uniform_f64() >= loss;
        let flip = if self.bad {
            self.params.p_bad_to_good
        } else {
            self.params.p_good_to_bad
        };
        if rng.uniform_f64() < flip {
            self.bad = !self.bad;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serialisation_scales_with_size() {
        let link = LinkModel::new(1_000_000, SimDuration::ZERO, SimDuration::ZERO, 0.0);
        let mut rng = SimRng::from_seed(0, 0);
        // 1 Mb/s: 125 bytes/ms.
        assert_eq!(link.hop_delay(125, &mut rng).as_millis(), 1);
        assert_eq!(link.hop_delay(1_250, &mut rng).as_millis(), 10);
    }

    #[test]
    fn minimum_one_millisecond() {
        let link = LinkModel::new(u64::MAX, SimDuration::ZERO, SimDuration::ZERO, 0.0);
        let mut rng = SimRng::from_seed(0, 0);
        assert_eq!(link.hop_delay(1, &mut rng).as_millis(), 1);
    }

    #[test]
    fn lossless_always_delivers() {
        let link = LinkModel::new(1_000, SimDuration::ZERO, SimDuration::ZERO, 0.9).lossless();
        let mut rng = SimRng::from_seed(1, 0);
        assert!((0..100).all(|_| link.delivered(&mut rng)));
    }

    #[test]
    fn lossy_link_drops_roughly_p() {
        let link = LinkModel::new(1_000, SimDuration::ZERO, SimDuration::ZERO, 0.3);
        let mut rng = SimRng::from_seed(2, 0);
        let delivered = (0..10_000).filter(|_| link.delivered(&mut rng)).count();
        assert!(
            (6_500..7_500).contains(&delivered),
            "delivered {delivered}/10000"
        );
    }

    #[test]
    fn ge_starts_good_and_visits_bad() {
        let mut ge = GilbertElliott::new(GeParams {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
        assert!(!ge.is_bad());
        let mut rng = SimRng::from_seed(3, 0);
        let mut visited_bad = false;
        for _ in 0..100 {
            ge.delivered(&mut rng);
            visited_bad |= ge.is_bad();
        }
        assert!(visited_bad, "chain never left the good state");
    }

    #[test]
    fn ge_good_state_with_zero_loss_always_delivers() {
        let mut ge = GilbertElliott::new(GeParams {
            p_good_to_bad: 0.0, // never leaves good
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
        let mut rng = SimRng::from_seed(4, 0);
        assert!((0..1_000).all(|_| ge.delivered(&mut rng)));
    }

    #[test]
    #[should_panic(expected = "absorbing")]
    fn ge_rejects_absorbing_bad_state() {
        let _ = GilbertElliott::new(GeParams {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
    }

    proptest! {
        #[test]
        fn prop_delay_bounded(size in 0u32..65_536, seed in any::<u64>()) {
            let link = LinkModel::default();
            let mut rng = SimRng::from_seed(seed, 0);
            let d = link.hop_delay(size, &mut rng);
            let serialisation = (size as u64 * 8 * 1_000 / 2_000_000).max(1);
            prop_assert!(d.as_millis() > serialisation);
            prop_assert!(d.as_millis() <= serialisation + 1 + 4);
        }

        /// No hop delay a link draws exceeds its `max_hop_delay`, whatever
        /// the bandwidth, latency, jitter and frame size.
        #[test]
        fn prop_no_hop_delay_exceeds_the_max(
            bandwidth_bps in 1u64..=u64::MAX,
            base_ms in 0u64..10_000,
            jitter_ms in prop_oneof![Just(0u64), 0u64..10_000],
            size in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let link = LinkModel::new(
                bandwidth_bps,
                SimDuration::from_millis(base_ms),
                SimDuration::from_millis(jitter_ms),
                0.0,
            );
            let mut rng = SimRng::from_seed(seed, 0);
            let max = link.max_hop_delay(size);
            for _ in 0..64 {
                let d = link.hop_delay(size, &mut rng);
                prop_assert!(d <= max, "{} > {}", d, max);
            }
        }

        /// The empirical mean loss-burst length of the Gilbert–Elliott
        /// chain (loss_bad = 1, loss_good = 0, so a loss burst is exactly
        /// one bad-state dwell) matches the closed form 1/p_bad_to_good.
        #[test]
        fn prop_ge_burst_length_matches_closed_form(
            // Keep expected bursts in [1.25, 10] trials and entries
            // frequent, so ~50k trials see hundreds of bursts and the
            // sample mean concentrates.
            p_bg in (0.1f64..=0.8).prop_filter(
                "burst mean must be finite", |p| *p > 0.0),
            p_gb in 0.05f64..0.5,
            seed in any::<u64>(),
        ) {
            let params = GeParams {
                p_good_to_bad: p_gb,
                p_bad_to_good: p_bg,
                loss_good: 0.0,
                loss_bad: 1.0,
            };
            let mut ge = GilbertElliott::new(params);
            let mut rng = SimRng::from_seed(seed, 0x6E);
            let mut bursts = 0u64;
            let mut lost = 0u64;
            let mut in_burst = false;
            for _ in 0..50_000 {
                if ge.delivered(&mut rng) {
                    in_burst = false;
                } else {
                    if !in_burst {
                        bursts += 1;
                        in_burst = true;
                    }
                    lost += 1;
                }
            }
            prop_assert!(bursts > 100, "too few bursts observed: {bursts}");
            let empirical = lost as f64 / bursts as f64;
            // Mean dwell in the bad state, in trials.
            let expected = 1.0 / params.p_bad_to_good;
            prop_assert!(
                (empirical - expected).abs() / expected < 0.25,
                "burst mean {empirical:.3} vs closed form {expected:.3} \
                 (p_bg={p_bg:.3}, p_gb={p_gb:.3})"
            );
        }
    }
}
