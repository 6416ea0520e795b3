//! Relay-peer selection coefficients (Section 4.2, Eq. 4.2.1–4.2.8).

use crate::config::{MU_CAR, MU_CE, MU_CS};

/// The per-node CAR/CS/CE machinery.
///
/// Every period φ the node recomputes (counts are per φ period —
/// DESIGN.md §5 discusses the unit choice):
///
/// * `PAR_t = PAR_{t-2}·ω/4 + PAR_{t-1}·ω/2 + N_a·(1 − ω/4 − ω/2)`
///   (Eq. 4.2.2), `CAR = 1/(1 + PAR_t)` (Eq. 4.2.3) — *low* CAR means a
///   frequently-accessed, well-placed cache node.
/// * `PSR_t = PSR_{t−1}·ω + N_s·(1 − ω)` (Eq. 4.2.4),
///   `PMR_t = PMR_{t−1}·ω + N_m·(1 − ω)` (Eq. 4.2.5),
///   `CS = 1/(1 + PSR_t + PMR_t)` (Eq. 4.2.6) — *high* CS means stable.
/// * `CE = PER_t / E_MAX` (Eq. 4.2.7) — remaining battery fraction.
///
/// A node qualifies as relay-peer candidate when
/// `CAR < μ_CAR ∧ CS > μ_CS ∧ CE > μ_CE` (Eq. 4.2.8).
///
/// # Example
///
/// ```
/// use mp2p_rpcc::{Coefficients, OMEGA};
///
/// let mut c = Coefficients::new(OMEGA);
/// // A busy, stable, fully-charged node qualifies after a few periods:
/// for _ in 0..4 {
///     for _ in 0..8 { c.note_access(); }
///     c.tick(false, 1.0);
/// }
/// assert!(c.qualifies());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficients {
    omega: f64,
    /// PAR at t−2 and t−1.
    par_hist: [f64; 2],
    psr: f64,
    pmr: f64,
    /// Accesses observed in the current period (`N_a`).
    accesses: u32,
    /// Connect/disconnect switches in the current period (`N_s`).
    switches: u32,
    /// CAR (coefficient of access rate), in `(0, 1]`.
    car: f64,
    /// CS (coefficient of stability), in `(0, 1]`.
    cs: f64,
    /// CE (coefficient of energy), in `[0, 1]`.
    ce: f64,
}

impl Coefficients {
    /// Fresh coefficients for a node that has seen no activity:
    /// `CAR = 1` (no accesses), `CS = 1` (no churn), `CE = 1` (full
    /// battery).
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `[0, 1]`.
    pub fn new(omega: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&omega),
            "omega must be in [0,1], got {omega}"
        );
        Coefficients {
            omega,
            par_hist: [0.0; 2],
            psr: 0.0,
            pmr: 0.0,
            accesses: 0,
            switches: 0,
            car: 1.0,
            cs: 1.0,
            ce: 1.0,
        }
    }

    /// Records one cache access at this node (a local query served, a
    /// POLL handled, or a content request served).
    pub fn note_access(&mut self) {
        self.accesses = self.accesses.saturating_add(1);
    }

    /// Records one connect/disconnect status switch.
    pub fn note_switch(&mut self) {
        self.switches = self.switches.saturating_add(1);
    }

    /// Closes the current period φ: folds the period counters into the
    /// EWMAs. `moved` is whether the node changed subnet cell since the
    /// last tick (`N_m ∈ {0, 1}` at tick granularity); `energy_fraction`
    /// is `PER_t / E_MAX`.
    pub fn tick(&mut self, moved: bool, energy_fraction: f64) {
        let w = self.omega;
        let n_a = f64::from(self.accesses);
        let par_t = self.par_hist[0] * (w / 4.0)
            + self.par_hist[1] * (w / 2.0)
            + n_a * (1.0 - w / 4.0 - w / 2.0);
        self.par_hist = [self.par_hist[1], par_t];
        self.car = 1.0 / (1.0 + par_t);

        let n_s = f64::from(self.switches);
        let n_m = if moved { 1.0 } else { 0.0 };
        self.psr = self.psr * w + n_s * (1.0 - w);
        self.pmr = self.pmr * w + n_m * (1.0 - w);
        self.cs = 1.0 / (1.0 + self.psr + self.pmr);

        self.ce = energy_fraction.clamp(0.0, 1.0);

        self.accesses = 0;
        self.switches = 0;
    }

    /// Eq. 4.2.8: true if this node may serve as a relay-peer candidate.
    pub fn qualifies(&self) -> bool {
        self.car < MU_CAR && self.cs > MU_CS && self.ce > MU_CE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_node_does_not_qualify() {
        let c = Coefficients::new(0.2);
        assert_eq!(c.car, 1.0);
        assert_eq!(c.cs, 1.0);
        assert_eq!(c.ce, 1.0);
        assert!(!c.qualifies(), "CAR=1 fails the access-rate test");
    }

    #[test]
    fn steady_accesses_converge_to_paper_formula() {
        // With constant N_a = 6 per φ the fixpoint is PAR = 6 (the weights
        // sum to 1), so CAR → 1/7 ≈ 0.143 < 0.15.
        let mut c = Coefficients::new(0.2);
        for _ in 0..10 {
            for _ in 0..6 {
                c.note_access();
            }
            c.tick(false, 1.0);
        }
        assert!((c.car - 1.0 / 7.0).abs() < 0.01, "CAR = {}", c.car);
        assert!(c.qualifies());
    }

    #[test]
    fn churny_node_fails_stability() {
        let mut c = Coefficients::new(0.2);
        for _ in 0..5 {
            for _ in 0..10 {
                c.note_access();
            }
            c.note_switch();
            c.tick(true, 1.0);
        }
        // PSR → 1, PMR → 1 ⇒ CS → 1/3 < 0.6.
        assert!(c.cs < 0.4, "CS = {}", c.cs);
        assert!(!c.qualifies());
    }

    #[test]
    fn stability_recovers_after_quiet_periods() {
        let mut c = Coefficients::new(0.2);
        c.note_switch();
        c.tick(true, 1.0);
        assert!(c.cs < 0.4);
        for _ in 0..3 {
            c.tick(false, 1.0);
        }
        // Quiet periods decay PSR/PMR by ω = 0.2 each: CS > 0.6 again.
        assert!(c.cs > 0.6, "CS = {}", c.cs);
    }

    #[test]
    fn low_battery_disqualifies() {
        let mut c = Coefficients::new(0.2);
        for _ in 0..6 {
            for _ in 0..10 {
                c.note_access();
            }
            c.tick(false, 0.5);
        }
        assert!(c.car < 0.15 && c.cs > 0.6, "otherwise qualified");
        assert!(!c.qualifies(), "CE = 0.5 < 0.6 must disqualify");
    }

    #[test]
    fn recency_weight_dominates() {
        // ω = 0.2 puts 85% of the weight on the newest period: a burst of
        // accesses must swing CAR within one tick.
        let mut c = Coefficients::new(0.2);
        c.tick(false, 1.0); // quiet period: PAR = 0
        for _ in 0..20 {
            c.note_access();
        }
        c.tick(false, 1.0);
        assert!(c.car < 0.06, "CAR = {} should reflect the burst", c.car);
    }

    proptest! {
        /// All coefficients stay in (0, 1] whatever the activity pattern.
        #[test]
        fn prop_coefficients_bounded(
            pattern in proptest::collection::vec((0u32..100, 0u32..5, any::<bool>(), 0.0f64..1.0), 1..50)
        ) {
            let mut c = Coefficients::new(0.2);
            for (accesses, switches, moved, energy) in pattern {
                for _ in 0..accesses {
                    c.note_access();
                }
                for _ in 0..switches {
                    c.note_switch();
                }
                c.tick(moved, energy);
                prop_assert!(c.car > 0.0 && c.car <= 1.0);
                prop_assert!(c.cs > 0.0 && c.cs <= 1.0);
                prop_assert!((0.0..=1.0).contains(&c.ce));
            }
        }

        /// More accesses never increase CAR (monotone in the period count).
        #[test]
        fn prop_car_monotone_in_accesses(base in 0u32..50, extra in 1u32..50) {
            let mut low = Coefficients::new(0.2);
            let mut high = Coefficients::new(0.2);
            for _ in 0..base {
                low.note_access();
                high.note_access();
            }
            for _ in 0..extra {
                high.note_access();
            }
            low.tick(false, 1.0);
            high.tick(false, 1.0);
            prop_assert!(high.car < low.car);
        }
    }
}
