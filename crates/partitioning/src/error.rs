//! Configuration, construction and retargeting errors of the partitioning
//! schemes.
//!
//! Everything user-supplied — controller parameters, partition counts,
//! geometries — is validated through `try_*` constructors returning these
//! types; a caller with trusted inputs writes `.expect()` at the call site.
//! Target vectors are checked by [`Llc::set_targets`](crate::Llc::set_targets)
//! itself, which returns [`TargetsError`].

use std::error::Error;
use std::fmt;

/// A structurally invalid scheme configuration, reported by the `try_new`
/// constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemeConfigError {
    /// The partition count is outside `1..=u16::MAX`.
    BadPartitionCount {
        /// The rejected count.
        partitions: usize,
    },
    /// More partitions than ways in a way-granularity scheme.
    PartitionsExceedWays {
        /// The rejected count.
        partitions: usize,
        /// Ways available.
        ways: usize,
    },
    /// A way index would not fit the scheme's per-way metadata.
    TooManyWays {
        /// The rejected way count.
        ways: usize,
    },
    /// A banked LLC was given no banks.
    NoBanks,
    /// The banks of a banked LLC disagree on partition count.
    BankPartitionMismatch,
}

impl fmt::Display for SchemeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadPartitionCount { partitions } => {
                write!(f, "bad partition count: {partitions} (need 1..=65535)")
            }
            Self::PartitionsExceedWays { partitions, ways } => {
                write!(
                    f,
                    "need 1..=ways partitions, got {partitions} for {ways} ways"
                )
            }
            Self::TooManyWays { ways } => {
                write!(f, "way index must fit in u8, got {ways} ways")
            }
            Self::NoBanks => write!(f, "need at least one bank"),
            Self::BankPartitionMismatch => {
                write!(f, "banks must agree on partition count")
            }
        }
    }
}

impl Error for SchemeConfigError {}

/// A target vector [`Llc::set_targets`](crate::Llc::set_targets) refused;
/// the cache is left exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetsError {
    /// Not one target per partition.
    Length {
        /// Partitions in the cache.
        expected: usize,
        /// Targets supplied.
        got: usize,
    },
    /// Targets summing to more lines than the cache holds.
    ExceedCapacity {
        /// Sum of the requested targets (saturating at `u64::MAX`).
        total: u64,
        /// Capacity in lines.
        capacity: u64,
    },
}

impl TargetsError {
    /// Checks `targets` against a cache of `partitions` partitions and
    /// `capacity` lines: the one validation every scheme runs before
    /// touching its state.
    ///
    /// # Errors
    ///
    /// [`TargetsError::Length`] unless there is one target per partition,
    /// [`TargetsError::ExceedCapacity`] when they sum past `capacity`.
    pub fn check(targets: &[u64], partitions: usize, capacity: u64) -> Result<(), Self> {
        if targets.len() != partitions {
            return Err(Self::Length {
                expected: partitions,
                got: targets.len(),
            });
        }
        // Saturating, so a hostile vector cannot wrap back under capacity.
        let total = targets.iter().fold(0u64, |s, &t| s.saturating_add(t));
        if total > capacity {
            return Err(Self::ExceedCapacity { total, capacity });
        }
        Ok(())
    }
}

impl fmt::Display for TargetsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Length { expected, got } => write!(
                f,
                "one target per partition: have {expected} partitions, got {got} targets"
            ),
            Self::ExceedCapacity { total, capacity } => {
                write!(f, "targets ({total}) exceed capacity ({capacity})")
            }
        }
    }
}

impl Error for TargetsError {}

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
    fn messages_preserve_legacy_assert_phrases() {
        let cases = [
            (
                SchemeConfigError::BadPartitionCount { partitions: 0 },
                "bad partition count",
            ),
            (
                SchemeConfigError::PartitionsExceedWays {
                    partitions: 17,
                    ways: 16,
                },
                "need 1..=ways partitions",
            ),
            (
                SchemeConfigError::TooManyWays { ways: 512 },
                "way index must fit in u8",
            ),
            (SchemeConfigError::NoBanks, "at least one bank"),
            (
                SchemeConfigError::BankPartitionMismatch,
                "banks must agree on partition count",
            ),
        ];
        for (err, phrase) in cases {
            assert!(
                err.to_string().contains(phrase),
                "{err} should contain {phrase:?}"
            );
        }
    }

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
