//! **Extension — the paper's future work, Section 6 item 1:**
//! "investigate how to change the push/pull frequency adaptively
//! according to the runtime system conditions".
//!
//! Two independent rules, both bounded to
//! `[base / span, base × span]`:
//!
//! * **Push side (TTN):** a source tracks an EWMA of its own inter-update
//!   gaps and floods invalidations on that timescale — a rarely-updated
//!   item stops paying for 2-minute reports; a hot item reports faster,
//!   shrinking relay staleness.
//! * **Pull side (TTP):** a cache peer grows an item's Δ-lease
//!   multiplicatively on every *confirmed* validation (`POLL_ACK_A`) and
//!   collapses it on every *changed* answer (`POLL_ACK_B`) — the
//!   adaptive-TTL rule of classic web caching (Gwertzman & Seltzer
//!   [Gwe96], cited by the paper).

use mp2p_sim::{FastMap, ItemId, SimDuration, SimTime};

/// Per-node adaptive frequency state. See the module docs.
#[derive(Debug, Clone)]
pub struct AdaptiveTuner {
    span: f64,
    /// EWMA weight for new inter-update gaps.
    alpha: f64,
    last_update_at: Option<SimTime>,
    /// EWMA of the source's inter-update gap, in milliseconds.
    mean_gap_ms: Option<f64>,
    /// Per-item TTP multiplier, in `[1/span, span]`.
    ttp_scale: FastMap<ItemId, f64>,
}

impl AdaptiveTuner {
    /// Creates a tuner bounding every adapted period to
    /// `[base / span, base × span]`.
    ///
    /// # Panics
    ///
    /// Panics if `span < 1` or is not finite.
    pub fn new(span: f64) -> Self {
        assert!(
            span >= 1.0 && span.is_finite(),
            "adaptive span must be >= 1, got {span}"
        );
        AdaptiveTuner {
            span,
            alpha: 0.3,
            last_update_at: None,
            mean_gap_ms: None,
            ttp_scale: FastMap::default(),
        }
    }

    /// Source side: records an update to the own item.
    pub fn note_source_update(&mut self, now: SimTime) {
        if let Some(prev) = self.last_update_at {
            let gap = now.saturating_since(prev).as_millis() as f64;
            self.mean_gap_ms = Some(match self.mean_gap_ms {
                Some(mean) => mean * (1.0 - self.alpha) + gap * self.alpha,
                None => gap,
            });
        }
        self.last_update_at = Some(now);
    }

    /// Source side: the invalidation period to use now.
    pub fn effective_ttn(&self, base: SimDuration) -> SimDuration {
        match self.mean_gap_ms {
            Some(gap_ms) => {
                let lo = base.as_millis() as f64 / self.span;
                let hi = base.as_millis() as f64 * self.span;
                SimDuration::from_millis(gap_ms.clamp(lo, hi).round() as u64)
            }
            None => base, // no update observed yet: paper behaviour
        }
    }

    /// Cache side: a validation confirmed the copy (`POLL_ACK_A`).
    pub fn note_confirmed(&mut self, item: ItemId) {
        let scale = self.ttp_scale.entry(item).or_insert(1.0);
        *scale = (*scale * 1.25).min(self.span);
    }

    /// Cache side: a validation replaced the copy (`POLL_ACK_B` /
    /// `SEND_NEW` content).
    pub fn note_changed(&mut self, item: ItemId) {
        let scale = self.ttp_scale.entry(item).or_insert(1.0);
        *scale = (*scale * 0.5).max(1.0 / self.span);
    }

    /// Cache side: the Δ-lease to grant `item` now.
    pub fn effective_ttp(&self, item: ItemId, base: SimDuration) -> SimDuration {
        let scale = self.ttp_scale.get(&item).copied().unwrap_or(1.0);
        base.mul_f64(scale).max(SimDuration::from_millis(1))
    }

    /// The current TTP multiplier of an item (for gauges/tests).
    pub fn ttp_scale_of(&self, item: ItemId) -> f64 {
        self.ttp_scale.get(&item).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_millis(secs * 1_000)
    }

    #[test]
    fn ttn_tracks_update_rate_within_bounds() {
        let base = SimDuration::from_mins(2);
        let mut tuner = AdaptiveTuner::new(4.0);
        assert_eq!(tuner.effective_ttn(base), base, "no data: base period");
        // Updates every 10 s — far below base/span = 30 s: clamp at 30 s.
        for i in 0..50 {
            tuner.note_source_update(t(i * 10));
        }
        assert_eq!(tuner.effective_ttn(base), SimDuration::from_secs(30));
        // Updates every 20 min — far above base×span = 8 min: clamp at 8 min.
        let mut slow = AdaptiveTuner::new(4.0);
        for i in 0..20 {
            slow.note_source_update(t(i * 1_200));
        }
        assert_eq!(slow.effective_ttn(base), SimDuration::from_mins(8));
    }

    #[test]
    fn ttn_converges_to_observed_gap() {
        let base = SimDuration::from_mins(2);
        let mut tuner = AdaptiveTuner::new(4.0);
        for i in 0..100 {
            tuner.note_source_update(t(i * 180)); // every 3 min, inside bounds
        }
        let eff = tuner.effective_ttn(base);
        let err = (eff.as_millis() as f64 - 180_000.0).abs();
        assert!(err < 5_000.0, "effective TTN {eff} should approach 3 min");
    }

    #[test]
    fn ttp_grows_on_confirmation_and_collapses_on_change() {
        let base = SimDuration::from_mins(4);
        let item = ItemId::new(3);
        let mut tuner = AdaptiveTuner::new(4.0);
        assert_eq!(tuner.effective_ttp(item, base), base);
        for _ in 0..20 {
            tuner.note_confirmed(item);
        }
        assert_eq!(
            tuner.effective_ttp(item, base),
            SimDuration::from_mins(16),
            "capped at span"
        );
        tuner.note_changed(item);
        assert!(
            tuner.ttp_scale_of(item) < 4.0,
            "one change must halve the lease"
        );
        for _ in 0..20 {
            tuner.note_changed(item);
        }
        assert_eq!(
            tuner.effective_ttp(item, base),
            SimDuration::from_mins(1),
            "floored at 1/span"
        );
    }

    #[test]
    fn items_adapt_independently() {
        let mut tuner = AdaptiveTuner::new(4.0);
        let hot = ItemId::new(1);
        let cold = ItemId::new(2);
        tuner.note_changed(hot);
        tuner.note_confirmed(cold);
        assert!(tuner.ttp_scale_of(hot) < 1.0);
        assert!(tuner.ttp_scale_of(cold) > 1.0);
    }

    #[test]
    #[should_panic(expected = "span must be >= 1")]
    fn rejects_sub_unit_span() {
        let _ = AdaptiveTuner::new(0.5);
    }
}
