//! The [`Sharded`] trait: caches composed of independent address-hashed
//! banks.
//!
//! Multi-banked LLCs ([`BankedLlc`](crate::BankedLlc) and the pipelined
//! engine over it) split capacity into `B` independent banks and steer every
//! access to one bank by hashing its line address. Experiments and telemetry
//! code need to see through that composition — which bank an address maps
//! to, how many banks there are, per-bank statistics — without downcasting
//! to a concrete type. `Sharded` is that common surface.

use vantage_cache::LineAddr;

use crate::llc::Llc;

/// A cache whose capacity is split into independent address-hashed banks.
///
/// Implementors guarantee a *stable* bank mapping: `bank_of(addr)` depends
/// only on the address and the cache's construction-time configuration, never
/// on access history. That stability is what makes bank-sharded parallel
/// simulation deterministic — the same trace always decomposes into the same
/// per-bank subtraces.
pub trait Sharded {
    /// Number of banks.
    fn num_banks(&self) -> usize;

    /// The bank serving `addr` (always `< num_banks()`).
    fn bank_of(&self, addr: LineAddr) -> usize;

    /// Shared view of bank `i`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `i >= num_banks()`.
    fn bank(&self, i: usize) -> &dyn Llc;

    /// Mutable view of bank `i` (e.g. to reset its statistics).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `i >= num_banks()`.
    fn bank_mut(&mut self, i: usize) -> &mut dyn Llc;
}
