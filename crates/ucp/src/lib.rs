//! Utility-based cache partitioning (Qureshi & Patt, MICRO 2006) — the
//! allocation policy used throughout the Vantage paper's evaluation (§5).
//!
//! UCP answers *how much* capacity each partition should get; the
//! partitioning schemes (`vantage`, `vantage-partitioning`) answer how to
//! enforce it. The pieces:
//!
//! * [`Umon`] — a utility monitor using dynamic set sampling (UMON-DSS):
//!   a small auxiliary tag directory that observes one core's LLC accesses
//!   on a sample of sets and derives the core's miss curve — misses as a
//!   function of hypothetically allocated ways — from LRU stack-distance
//!   hit counters.
//! * [`RripUmon`] — the RRIP-ordered UMON variant of §6.2, which
//!   additionally duels SRRIP vs BRRIP per partition (half of the sampled
//!   sets run each) for Vantage-DRRIP.
//! * [`lookahead`](fn@lookahead) — the Lookahead allocation algorithm, greedily granting
//!   blocks to the partition with the highest marginal utility per block.
//! * [`UcpPolicy`] — the periodic controller: observes accesses, and every
//!   repartitioning interval turns miss curves into line-granularity
//!   targets. For way-granularity schemes it allocates whole ways; for
//!   Vantage it linearly interpolates the UMON curves to 256 points (§5,
//!   "Allocation policy") to exploit fine-grain sizing.

pub mod alloc_policy;
pub mod cluster;
pub mod lookahead;
pub mod policy;
pub mod rrip_umon;
pub mod umon;

pub use alloc_policy::{
    apportion, AllocationPolicy, EqualShares, MissRatioEqualizer, PolicyInput, QosError,
    QosGuarantee,
};
pub use cluster::{ClusterError, ClusteredPolicy};
pub use lookahead::{equalize_miss_ratios, interpolate_curve, lookahead};
pub use policy::{UcpGranularity, UcpPolicy};
pub use rrip_umon::RripUmon;
pub use umon::Umon;
