//! Capability traits: what a scheme *can do* beyond the base
//! [`Llc`](crate::Llc) contract. [`HasInvariants`] audits and repairs a
//! scheme's own bookkeeping.

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
