//! The error type every configuration validator in the workspace
//! reports through.

use std::fmt;

/// Why a configuration cannot be simulated: one field, one rule.
///
/// `field` is the path of the offending field from the top-level
/// configuration (`"i_query"`, `"proto.poll_ttl"`, `"mobility.epoch"`), so a
/// front end can map it back to the flag or file line that set it;
/// `reason` is the rule as a predicate of that field (`"must be
/// positive"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Path of the offending field.
    pub field: &'static str,
    /// The rule the field breaks, worded as a predicate of it.
    pub reason: String,
    /// The other field of a rule that relates two (`warmup` to
    /// `sim_time`); `None` when `field` is out of range by itself.
    pub related: Option<&'static str>,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when `ok` holds, else a [`ConfigError`] saying `field` by itself
/// breaks `reason`.
pub fn require(
    ok: bool,
    field: &'static str,
    reason: impl Into<String>,
) -> Result<(), ConfigError> {
    if ok {
        return Ok(());
    }
    Err(ConfigError {
        field,
        reason: reason.into(),
        related: None,
    })
}

/// [`require`] for a rule that relates `field` to `related`.
pub fn relate(
    ok: bool,
    field: &'static str,
    related: &'static str,
    reason: impl Into<String>,
) -> Result<(), ConfigError> {
    let related = Some(related);
    require(ok, field, reason).map_err(|e| ConfigError { related, ..e })
}
