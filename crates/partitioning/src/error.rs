//! Configuration and retargeting errors shared by the partitioning schemes.

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

impl std::error::Error for SchemeConfigError {}

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

impl std::error::Error for TargetsError {}

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
}
