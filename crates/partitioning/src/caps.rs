//! Capability traits: what a scheme *can do* beyond the base
//! [`Llc`](crate::Llc) contract, advertised instead of downcast.
//!
//! The simulation layer used to reach into concrete scheme types (e.g.
//! `as_vantage()` downcasts) to flip per-partition replacement policies or
//! run integrity checks. These traits invert that: a scheme that supports
//! a capability implements the trait, and callers ask for
//! `&dyn HasInvariants` / `&mut dyn HasPartitionPolicy` without knowing
//! which scheme they hold.

use vantage_cache::replacement::rrip::BasePolicy;

/// A scheme whose per-partition insertion policy can be switched at run
/// time (e.g. Vantage-DRRIP dueling SRRIP vs BRRIP per partition, §6.2).
pub trait HasPartitionPolicy {
    /// Sets partition `part`'s base replacement/insertion policy.
    fn set_partition_policy(&mut self, part: usize, policy: BasePolicy);
}

/// An internal-consistency violation reported by [`HasInvariants`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

/// A scheme that can audit and repair its own bookkeeping (sizes, meters,
/// setpoints) — the integrity half of a fault-tolerance loop.
pub trait HasInvariants {
    /// Checks internal consistency without mutating state.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, described for logs/telemetry.
    fn check_invariants(&self) -> Result<(), InvariantViolation>;

    /// Audits and repairs bookkeeping in place, returning the number of
    /// corrections applied (0 when everything was already consistent).
    fn repair(&mut self) -> u64;

    /// Cumulative number of repair passes run.
    fn scrubs(&self) -> u64;

    /// Cumulative accesses that hit corrupted metadata and fell back to a
    /// safe path.
    fn corruption_fallbacks(&self) -> u64;
}
