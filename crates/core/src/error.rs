//! Typed errors for configuration and cache construction.
//!
//! Everything user-supplied — controller parameters, partition counts —
//! is validated through `try_*` constructors returning these types; a
//! caller with trusted inputs writes `.expect()` at the call site. Target
//! vectors are checked by [`Llc::set_targets`] itself, which returns
//! [`TargetsError`].
//!
//! [`Llc::set_targets`]: vantage_partitioning::Llc::set_targets
//! [`TargetsError`]: vantage_partitioning::TargetsError

use std::error::Error;
use std::fmt;

/// An out-of-domain [`VantageConfig`](crate::VantageConfig) or
/// [`ThresholdTable`](crate::ThresholdTable) parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `u` outside `(0, 1)`.
    UnmanagedFraction(f64),
    /// `A_max` outside `(0, 1]`.
    AMax(f64),
    /// Non-positive feedback slack.
    Slack(f64),
    /// Thresholds table entry count outside `1..=64`.
    TableEntries(usize),
    /// Candidate metering period too small (`c < 8`).
    CandsPeriod(u32),
    /// RRPV width outside `1..=7`.
    RrpvBits(u8),
    /// Zero replacement candidates (`R == 0`) in the sizing rule.
    CandidateCount(u32),
    /// Managed-eviction probability outside `(0, 1]` in the sizing rule.
    EvictionProbability(f64),
    /// The §4.3 sizing rule asks for the whole cache (or more) to be
    /// unmanaged: the isolation requirements cannot be met on this array.
    NoManagedSpace {
        /// The unmanaged fraction the sizing rule produced (`>= 1`).
        unmanaged_fraction: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnmanagedFraction(u) => {
                write!(f, "unmanaged fraction must be in (0, 1), got {u}")
            }
            Self::AMax(a) => write!(f, "A_max must be in (0, 1], got {a}"),
            Self::Slack(s) => write!(f, "slack must be positive, got {s}"),
            Self::TableEntries(n) => write!(f, "1..=64 table entries, got {n}"),
            Self::CandsPeriod(c) => {
                write!(
                    f,
                    "candidate period too small to meter (c = {c}, need >= 8)"
                )
            }
            Self::RrpvBits(b) => write!(f, "RRPV width must be 1..=7, got {b}"),
            Self::CandidateCount(r) => write!(f, "candidate count must be non-zero, got {r}"),
            Self::EvictionProbability(p) => write!(f, "P_ev must be in (0, 1], got {p}"),
            Self::NoManagedSpace { unmanaged_fraction } => {
                write!(
                    f,
                    "requirements leave no managed space (u = {unmanaged_fraction})"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// A [`VantageLlc`](crate::VantageLlc) construction or accounting failure.
#[derive(Clone, Debug, PartialEq)]
pub enum VantageError {
    /// An invalid controller configuration.
    Config(ConfigError),
    /// Partition count outside `1..u16::MAX` (one ID is reserved for the
    /// unmanaged region).
    PartitionCount(usize),
    /// The idealized perfect-aperture controller combined with RRIP
    /// ranking (it is defined for LRU priorities only).
    PerfectApertureNeedsLru,
    /// An internal accounting invariant does not hold (see
    /// [`VantageLlc::invariants`](crate::VantageLlc::invariants)).
    Invariant(String),
}

impl fmt::Display for VantageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => e.fmt(f),
            Self::PartitionCount(n) => {
                write!(
                    f,
                    "bad partition count: {n} (need 1..65535, one ID is reserved)"
                )
            }
            Self::PerfectApertureNeedsLru => {
                f.write_str("perfect-aperture mode requires LRU ranking")
            }
            Self::Invariant(what) => write!(f, "invariant violated: {what}"),
        }
    }
}

impl Error for VantageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for VantageError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_assert_phrases() {
        // Messages name the offending parameter the way the paper writes
        // it; log matching relies on these substrings.
        assert!(ConfigError::UnmanagedFraction(1.5)
            .to_string()
            .contains("unmanaged fraction"));
        assert!(ConfigError::AMax(0.0).to_string().contains("A_max"));
        assert!(ConfigError::NoManagedSpace {
            unmanaged_fraction: 1.2
        }
        .to_string()
        .contains("no managed space"));
        assert!(VantageError::PartitionCount(0)
            .to_string()
            .contains("bad partition count"));
    }

    #[test]
    fn config_errors_nest_as_source() {
        let e = VantageError::from(ConfigError::Slack(-1.0));
        assert!(e.source().is_some());
        assert_eq!(e.to_string(), ConfigError::Slack(-1.0).to_string());
    }
}
