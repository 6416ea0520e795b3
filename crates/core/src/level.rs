//! The three consistency levels of Section 3 and the query-level mix.

use std::fmt;

use mp2p_sim::SimRng;

/// The consistency guarantee a query requests (Section 3,
/// Eq. 3.2.1–3.2.3): the journal's level vocabulary under the paper's
/// name, so a level is stated once and crosses into a record unmapped.
pub use mp2p_metrics::LevelTag as ConsistencyLevel;

/// The probability mix of consistency levels across query requests.
///
/// The paper's figures use the pure mixes (`SC`, `DC`, `WC`) and the
/// hybrid `HY` where "requests with three different consistency
/// requirements come with the same probability" (Section 5.1).
///
/// # Example
///
/// ```
/// use mp2p_rpcc::{ConsistencyLevel, LevelMix};
/// use mp2p_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1, 0);
/// assert_eq!(LevelMix::strong_only().sample(&mut rng), ConsistencyLevel::Strong);
/// let hy = LevelMix::hybrid();
/// let _level = hy.sample(&mut rng); // any of the three
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelMix {
    weak: f64,
    delta: f64,
    // strong = 1 - weak - delta
}

impl LevelMix {
    /// A mix with the given weights (normalised internally).
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or all are zero.
    pub fn new(weak: f64, delta: f64, strong: f64) -> Self {
        assert!(
            weak >= 0.0 && delta >= 0.0 && strong >= 0.0,
            "level weights must be non-negative"
        );
        let total = weak + delta + strong;
        assert!(total > 0.0, "at least one level weight must be positive");
        LevelMix {
            weak: weak / total,
            delta: delta / total,
        }
    }

    /// Every query requests strong consistency (the paper's `RPCC(SC)`).
    pub fn strong_only() -> Self {
        LevelMix::new(0.0, 0.0, 1.0)
    }

    /// Every query requests Δ-consistency (`RPCC(DC)`).
    pub fn delta_only() -> Self {
        LevelMix::new(0.0, 1.0, 0.0)
    }

    /// Every query requests weak consistency (`RPCC(WC)`).
    pub fn weak_only() -> Self {
        LevelMix::new(1.0, 0.0, 0.0)
    }

    /// The paper's hybrid scenario `HY`: the three levels equiprobable.
    pub fn hybrid() -> Self {
        LevelMix::new(1.0, 1.0, 1.0)
    }

    /// Probability of [`ConsistencyLevel::Weak`].
    pub fn weak_prob(&self) -> f64 {
        self.weak
    }

    /// Probability of [`ConsistencyLevel::Delta`].
    pub fn delta_prob(&self) -> f64 {
        self.delta
    }

    /// Probability of [`ConsistencyLevel::Strong`].
    pub fn strong_prob(&self) -> f64 {
        1.0 - self.weak - self.delta
    }

    /// Draws the level of one query.
    pub fn sample(&self, rng: &mut SimRng) -> ConsistencyLevel {
        let u = rng.uniform_f64();
        if u < self.weak {
            ConsistencyLevel::Weak
        } else if u < self.weak + self.delta {
            ConsistencyLevel::Delta
        } else {
            ConsistencyLevel::Strong
        }
    }

    /// Short label for tables: "SC", "DC", "WC", "HY", or "mix".
    pub fn label(&self) -> &'static str {
        let (w, d, s) = (self.weak_prob(), self.delta_prob(), self.strong_prob());
        if s == 1.0 {
            "SC"
        } else if d == 1.0 {
            "DC"
        } else if w == 1.0 {
            "WC"
        } else if (w - d).abs() < 1e-9 && (d - s).abs() < 1e-9 {
            "HY"
        } else {
            "mix"
        }
    }
}

impl fmt::Display for LevelMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_mixes_sample_their_level() {
        let mut rng = SimRng::from_seed(0, 0);
        for _ in 0..50 {
            assert_eq!(
                LevelMix::strong_only().sample(&mut rng),
                ConsistencyLevel::Strong
            );
            assert_eq!(
                LevelMix::delta_only().sample(&mut rng),
                ConsistencyLevel::Delta
            );
            assert_eq!(
                LevelMix::weak_only().sample(&mut rng),
                ConsistencyLevel::Weak
            );
        }
    }

    #[test]
    fn hybrid_covers_all_levels_evenly() {
        let hy = LevelMix::hybrid();
        let mut rng = SimRng::from_seed(1, 0);
        let mut counts = [0u32; 3];
        for _ in 0..9_000 {
            counts[hy.sample(&mut rng).index()] += 1;
        }
        for c in counts {
            assert!((2_600..3_400).contains(&c), "uneven hybrid mix: {counts:?}");
        }
    }

    #[test]
    fn weights_are_normalised() {
        let m = LevelMix::new(2.0, 2.0, 4.0);
        assert!((m.weak_prob() - 0.25).abs() < 1e-12);
        assert!((m.delta_prob() - 0.25).abs() < 1e-12);
        assert!((m.strong_prob() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(LevelMix::strong_only().label(), "SC");
        assert_eq!(LevelMix::hybrid().label(), "HY");
        assert_eq!(LevelMix::new(0.5, 0.5, 0.0).label(), "mix");
        assert_eq!(ConsistencyLevel::Strong.to_string(), "SC");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = LevelMix::new(-0.1, 0.5, 0.6);
    }
}
