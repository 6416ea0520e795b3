//! The battery model behind the paper's `CE` coefficient.

use mp2p_sim::SimDuration;

// Radio energy costs, in millijoules. Classic WaveLAN measurements (the
// era's standard numbers) put transmission around 1.9 µJ/bit and
// reception around 1.0 µJ/bit plus a per-frame MAC overhead; these
// approximate that at packet granularity. Idle drain ages every battery
// slowly so `CE` (Eq. 4.2.7) decays even on silent nodes.

/// Cost to transmit one byte.
const TX_PER_BYTE_MJ: f64 = 0.015;
/// Fixed cost per transmitted frame.
const TX_BASE_MJ: f64 = 0.5;
/// Cost to receive one byte.
const RX_PER_BYTE_MJ: f64 = 0.008;
/// Fixed cost per received frame.
const RX_BASE_MJ: f64 = 0.25;
/// Idle drain per second.
const IDLE_MJ_PER_S: f64 = 1.0;

/// Energy to transmit a frame of `bytes` bytes, in millijoules.
pub fn tx_cost(bytes: u32) -> f64 {
    TX_BASE_MJ + TX_PER_BYTE_MJ * f64::from(bytes)
}

/// Energy to receive a frame of `bytes` bytes, in millijoules.
pub fn rx_cost(bytes: u32) -> f64 {
    RX_BASE_MJ + RX_PER_BYTE_MJ * f64::from(bytes)
}

/// Idle drain over `span`, in millijoules.
pub fn idle_cost(span: SimDuration) -> f64 {
    IDLE_MJ_PER_S * span.as_secs_f64()
}

/// One node's battery: `PER_t / E_MAX` is the paper's `CE` (Eq. 4.2.7).
///
/// # Example
///
/// ```
/// use mp2p_metrics::PeerEnergy;
///
/// let mut battery = PeerEnergy::new(1_000.0);
/// battery.drain(250.0);
/// assert_eq!(battery.fraction_remaining(), 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerEnergy {
    capacity_mj: f64,
    used_mj: f64,
}

impl PeerEnergy {
    /// A full battery of `capacity_mj` millijoules (`E_MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mj` is not finite and positive.
    pub fn new(capacity_mj: f64) -> Self {
        assert!(
            capacity_mj.is_finite() && capacity_mj > 0.0,
            "battery capacity must be positive"
        );
        PeerEnergy {
            capacity_mj,
            used_mj: 0.0,
        }
    }

    /// Consumes `mj` millijoules (clamped at empty).
    pub fn drain(&mut self, mj: f64) {
        self.used_mj = (self.used_mj + mj.max(0.0)).min(self.capacity_mj);
    }

    /// Remaining energy (`PER_t`).
    pub fn remaining_mj(&self) -> f64 {
        self.capacity_mj - self.used_mj
    }

    /// Total consumed energy.
    pub fn used_mj(&self) -> f64 {
        self.used_mj
    }

    /// The paper's `CE = PER_t / E_MAX`, in `[0, 1]`.
    pub fn fraction_remaining(&self) -> f64 {
        self.remaining_mj() / self.capacity_mj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn costs_scale_with_size() {
        assert!(tx_cost(1_000) > tx_cost(100));
        assert!(tx_cost(100) > rx_cost(100), "tx costs more than rx");
        assert_eq!(idle_cost(SimDuration::from_secs(10)), 10.0);
    }

    #[test]
    fn battery_drains_and_clamps() {
        let mut b = PeerEnergy::new(100.0);
        b.drain(30.0);
        assert_eq!(b.remaining_mj(), 70.0);
        b.drain(1_000.0);
        assert_eq!(b.remaining_mj(), 0.0);
        assert_eq!(b.fraction_remaining(), 0.0);
        b.drain(-5.0); // negative drain ignored
        assert_eq!(b.used_mj(), 100.0);
    }

    proptest! {
        #[test]
        fn prop_fraction_in_unit_interval(cap in 1.0f64..1e6, drains in proptest::collection::vec(0.0f64..1e5, 0..50)) {
            let mut b = PeerEnergy::new(cap);
            for d in drains {
                b.drain(d);
                let f = b.fraction_remaining();
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }
}
