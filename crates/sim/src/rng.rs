//! Seeded random streams and the samplers the paper's workloads use.
//!
//! Every stochastic component of the simulation (each node's query stream,
//! update stream, mobility, MAC jitter, …) draws from its own [`SimRng`]
//! stream derived from a master seed, so adding a new consumer never
//! perturbs existing streams and every run is exactly reproducible.
//!
//! The generator is a self-contained xoshiro256++ implementation rather
//! than a `rand` adapter: simulation results must be bit-for-bit portable
//! across platforms and across `rand` major versions, and `rand`'s `StdRng`
//! explicitly disclaims that portability.

/// A deterministic random stream (xoshiro256++).
///
/// Streams are derived from a `(master_seed, stream_id)` pair via a
/// SplitMix64 mix, so distinct ids produce statistically independent
/// streams.
///
/// # Example
///
/// ```
/// use mp2p_sim::SimRng;
///
/// let mut a = SimRng::from_seed(42, 1);
/// let mut b = SimRng::from_seed(42, 1);
/// assert_eq!(a.uniform_u64(100), b.uniform_u64(100)); // same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step: advances `seed` and returns a well-mixed word.
fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates the stream identified by `stream_id` under `master_seed`.
    pub fn from_seed(master_seed: u64, stream_id: u64) -> Self {
        let mut seed = master_seed ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407);
        let state = [
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
        ];
        SimRng { state }
    }

    /// Derives an independent child stream without consuming entropy from
    /// the parent; equal `(parent, child_id)` pairs derive equal streams.
    pub fn derive(&self, child_id: u64) -> SimRng {
        let fingerprint = self.state[0] ^ self.state[1].rotate_left(17) ^ self.state[2];
        SimRng::from_seed(fingerprint, child_id)
    }

    /// The next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// A uniform value in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // Use the high 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` (Lemire-style unbiased rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "uniform_u64 bound must be positive");
        // Rejection sampling over the largest multiple of `bound`.
        let zone = u64::MAX - (u64::MAX % bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + self.uniform_f64() * (hi - lo)
    }

    /// An exponentially distributed value with the given mean (inverse-CDF
    /// sampling). This is how the paper's "exponentially distributed update
    /// interval and query interval" (Section 5) are generated.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        let u = self.uniform_f64();
        // 1 - u is in (0, 1], so ln is finite and non-positive.
        -mean * (1.0 - u).ln()
    }

    /// A Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        self.uniform_f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `slice`.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.uniform_u64(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(1, 2);
        let mut b = SimRng::from_seed(1, 2);
        for _ in 0..32 {
            assert_eq!(a.uniform_u64(1_000), b.uniform_u64(1_000));
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::from_seed(1, 2);
        let mut b = SimRng::from_seed(1, 3);
        let same = (0..32)
            .filter(|_| a.uniform_u64(1_000) == b.uniform_u64(1_000))
            .count();
        assert!(
            same < 8,
            "streams should be nearly independent, {same}/32 collisions"
        );
    }

    #[test]
    fn derive_is_stable_and_entropy_free() {
        let parent = SimRng::from_seed(3, 4);
        let mut c1 = parent.derive(9);
        let mut c2 = parent.derive(9);
        let mut c3 = parent.derive(10);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::from_seed(9, 0);
        let n = 20_000;
        let mean = 120.0;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn uniform_f64_covers_unit_interval() {
        let mut rng = SimRng::from_seed(2, 0);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = rng.uniform_f64();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn choose_and_shuffle_are_deterministic() {
        let mut rng = SimRng::from_seed(11, 0);
        let mut v: Vec<u32> = (0..8).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert!(rng.choose::<u32>(&[]).is_none());
        assert!(rng.choose(&[42]).copied() == Some(42));
    }

    proptest! {
        #[test]
        fn prop_exponential_non_negative(seed in any::<u64>(), mean in 0.001f64..1e6) {
            let mut rng = SimRng::from_seed(seed, 0);
            let x = rng.exponential(mean);
            prop_assert!(x >= 0.0 && x.is_finite());
        }

        #[test]
        fn prop_uniform_u64_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = SimRng::from_seed(seed, 3);
            prop_assert!(rng.uniform_u64(bound) < bound);
        }
    }
}
