//! Ground-truth consistency auditing.
//!
//! The simulator knows the master version of every item at every instant,
//! so it can audit each served query against the definitions of
//! Section 3: strong consistency (Eq. 3.2.1) demands the served version
//! equals the master version at serve time; Δ-consistency (Eq. 3.2.2)
//! allows the served value to be at most Δ behind; weak consistency
//! (Eq. 3.2.3) only demands *some* previous correct value.

use mp2p_cache::Version;
use mp2p_sim::{SimDuration, SimTime};

/// The times at which each version of one item became current.
///
/// Version `v` became current at `installed(v)`; it stopped being current
/// at `installed(v + 1)` (if that update happened yet).
///
/// # Example
///
/// ```
/// use mp2p_cache::Version;
/// use mp2p_metrics::VersionHistory;
/// use mp2p_sim::{SimDuration, SimTime};
///
/// let mut h = VersionHistory::new();
/// h.record_update(SimTime::from_millis(1_000)); // v1
/// assert_eq!(h.current(), Version::new(1));
/// // v0 was superseded at t=1s, so at t=3s it is 2s stale:
/// let staleness = h.staleness(Version::new(0), SimTime::from_millis(3_000));
/// assert_eq!(staleness, SimDuration::from_secs(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionHistory {
    /// `installed[v]` = when version `v` became current; `installed[0]` is
    /// creation (time zero).
    installed: Vec<SimTime>,
}

impl VersionHistory {
    /// History of an item created at time zero with version 0.
    pub fn new() -> Self {
        VersionHistory {
            installed: vec![SimTime::ZERO],
        }
    }

    /// Records a master update at `now`; the item's version increments.
    pub fn record_update(&mut self, now: SimTime) {
        self.installed.push(now);
    }

    /// The current master version.
    pub fn current(&self) -> Version {
        Version::new(self.installed.len() as u64 - 1)
    }

    /// When `version` became current, if it ever existed.
    pub fn installed_at(&self, version: Version) -> Option<SimTime> {
        self.installed.get(version.get() as usize).copied()
    }

    /// How long `version` had been superseded by `now`
    /// ([`SimDuration::ZERO`] if it is still current).
    pub fn staleness(&self, version: Version, now: SimTime) -> SimDuration {
        match self.installed.get(version.get() as usize + 1) {
            Some(&superseded) => now.saturating_since(superseded),
            None => SimDuration::ZERO,
        }
    }
}

/// Upper edges (exclusive) of the staleness-age histogram buckets used by
/// the consistency observatory's divergence sampler. An age falls in
/// bucket `i` iff it is `< AGE_BUCKET_EDGES[i]` and not below any earlier
/// edge; ages at or past the last edge land in the overflow bucket. An
/// age *exactly on* an edge therefore belongs to the bucket above it.
pub const AGE_BUCKET_EDGES: [SimDuration; 5] = [
    SimDuration::from_secs(1),
    SimDuration::from_secs(5),
    SimDuration::from_secs(15),
    SimDuration::from_secs(60),
    SimDuration::from_secs(300),
];

/// Number of staleness-age histogram buckets (the edges plus overflow).
pub const AGE_BUCKETS: usize = AGE_BUCKET_EDGES.len() + 1;

/// The histogram bucket a staleness age falls into (see
/// [`AGE_BUCKET_EDGES`] for the edge convention).
///
/// # Example
///
/// ```
/// use mp2p_metrics::{age_bucket, AGE_BUCKETS};
/// use mp2p_sim::SimDuration;
///
/// assert_eq!(age_bucket(SimDuration::ZERO), 0);
/// assert_eq!(age_bucket(SimDuration::from_secs(1)), 1); // exact edge: above
/// assert_eq!(age_bucket(SimDuration::from_secs(999)), AGE_BUCKETS - 1);
/// ```
pub fn age_bucket(age: SimDuration) -> usize {
    AGE_BUCKET_EDGES
        .iter()
        .position(|&edge| age < edge)
        .unwrap_or(AGE_BUCKET_EDGES.len())
}

/// One served query, as reported to the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedQuery {
    /// Version the cache answered with.
    pub served: Version,
    /// Master version at the moment of the answer.
    pub master: Version,
    /// How long the served version had been superseded (zero if current).
    pub staleness: SimDuration,
}

/// Aggregate consistency audit over all served queries of a run.
///
/// # Example
///
/// ```
/// use mp2p_cache::Version;
/// use mp2p_metrics::{ConsistencyAudit, ServedQuery};
/// use mp2p_sim::SimDuration;
///
/// let mut audit = ConsistencyAudit::default();
/// audit.record(ServedQuery {
///     served: Version::new(2),
///     master: Version::new(2),
///     staleness: SimDuration::ZERO,
/// });
/// assert_eq!(audit.fresh_fraction(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyAudit {
    served: u64,
    stale_served: u64,
    total_staleness_ms: u64,
    max_staleness_ms: u64,
    max_version_lag: u64,
}

impl ConsistencyAudit {
    /// Records one served query.
    ///
    /// # Panics
    ///
    /// Panics if `served` exceeds `master` — a cache can never hold a
    /// version the source has not produced; such a report is a simulator
    /// bug, not a protocol property.
    pub fn record(&mut self, q: ServedQuery) {
        assert!(
            q.served <= q.master,
            "cache served {} but master is {}: version invented from nowhere",
            q.served,
            q.master
        );
        self.served += 1;
        if q.served < q.master {
            self.stale_served += 1;
            self.total_staleness_ms += q.staleness.as_millis();
            self.max_staleness_ms = self.max_staleness_ms.max(q.staleness.as_millis());
            self.max_version_lag = self.max_version_lag.max(q.master.get() - q.served.get());
        }
    }

    /// Queries served in total.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Queries answered with a superseded version.
    pub fn stale_served(&self) -> u64 {
        self.stale_served
    }

    /// Fraction of answers that were the current master version
    /// (1.0 when nothing was served).
    pub fn fresh_fraction(&self) -> f64 {
        if self.served == 0 {
            1.0
        } else {
            1.0 - self.stale_served as f64 / self.served as f64
        }
    }

    /// Largest observed time-staleness of an answer.
    pub fn max_staleness(&self) -> SimDuration {
        SimDuration::from_millis(self.max_staleness_ms)
    }

    /// Mean time-staleness over *stale* answers only.
    pub fn mean_staleness_of_stale(&self) -> SimDuration {
        match self.total_staleness_ms.checked_div(self.stale_served) {
            Some(ms) => SimDuration::from_millis(ms),
            None => SimDuration::ZERO,
        }
    }

    /// Largest observed version lag of an answer.
    pub fn max_version_lag(&self) -> u64 {
        self.max_version_lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_tracks_current_version() {
        let mut h = VersionHistory::new();
        assert_eq!(h.current(), Version::new(0));
        h.record_update(SimTime::from_millis(100));
        h.record_update(SimTime::from_millis(300));
        assert_eq!(h.current(), Version::new(2));
        assert_eq!(
            h.installed_at(Version::new(1)),
            Some(SimTime::from_millis(100))
        );
        assert_eq!(h.installed_at(Version::new(9)), None);
    }

    #[test]
    fn staleness_of_current_version_is_zero() {
        let mut h = VersionHistory::new();
        h.record_update(SimTime::from_millis(100));
        assert_eq!(
            h.staleness(Version::new(1), SimTime::from_millis(5_000)),
            SimDuration::ZERO
        );
        assert_eq!(
            h.staleness(Version::new(0), SimTime::from_millis(5_000)),
            SimDuration::from_millis(4_900)
        );
    }

    #[test]
    fn audit_accumulates() {
        let mut a = ConsistencyAudit::default();
        a.record(ServedQuery {
            served: Version::new(1),
            master: Version::new(1),
            staleness: SimDuration::ZERO,
        });
        a.record(ServedQuery {
            served: Version::new(1),
            master: Version::new(3),
            staleness: SimDuration::from_secs(7),
        });
        assert_eq!(a.served(), 2);
        assert_eq!(a.stale_served(), 1);
        assert_eq!(a.fresh_fraction(), 0.5);
        assert_eq!(a.max_staleness(), SimDuration::from_secs(7));
        assert_eq!(a.max_version_lag(), 2);
        assert_eq!(a.mean_staleness_of_stale(), SimDuration::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "version invented")]
    fn audit_rejects_future_versions() {
        let mut a = ConsistencyAudit::default();
        a.record(ServedQuery {
            served: Version::new(2),
            master: Version::new(1),
            staleness: SimDuration::ZERO,
        });
    }
}
