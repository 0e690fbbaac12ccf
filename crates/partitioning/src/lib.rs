//! Last-level cache partitioning schemes.
//!
//! This crate defines the [`Llc`] abstraction — a shared last-level cache
//! that serves accesses on behalf of partitions and enforces per-partition
//! capacity targets — and implements the schemes the Vantage paper compares
//! against. They differ only in how they rank lines and pick victims, so
//! each is a [`Mechanism`] laid over one shared [`SchemeFrame`], which owns
//! the array, tag lanes, ownership resolution, statistics, telemetry and
//! the snapshot layout:
//!
//! * [`BaselineLlc`] — an unpartitioned cache (LRU or RRIP) over any
//!   [`CacheArray`](vantage_cache::CacheArray); the normalization baseline.
//! * [`WayPartLlc`] — way-partitioning / column caching (Chiou et al.,
//!   DAC 2000): each partition owns a subset of the ways; strict isolation
//!   but associativity proportional to the way count.
//! * [`PippLlc`] — promotion/insertion pseudo-partitioning (Xie & Loh,
//!   ISCA 2009): insertion position equals the partition's way allocation,
//!   single-step probabilistic promotion on hits, plus stream detection.
//!
//! Vantage itself implements this same [`Llc`] trait (in the `vantage`
//! crate), so simulators and experiments treat all schemes uniformly.
//!
//! Any of them can be sharded across address-interleaved banks by
//! [`BankedLlc`]: per-access service inline, windows as one run per bank
//! drained bank-major on the calling thread.

pub mod banked;
pub mod baseline;
pub mod caps;
pub mod error;
pub mod frame;
pub mod hist;
pub mod llc;
pub mod pipp;
pub mod way_part;

pub use banked::{BankedLlc, RingStats};
pub use baseline::{BaselineLlc, RankPolicy};
pub use caps::{HasInvariants, HasPartitionPolicy, InvariantViolation};
pub use error::{SchemeConfigError, TargetsError};
pub use frame::{Mechanism, SchemeFrame};
pub use hist::TsHistogram;
pub use llc::{
    AccessKind, AccessOutcome, AccessRequest, LifecycleError, Llc, LlcStats, PartitionObservations,
    PartitionSpec, PrioritySample,
};
pub use pipp::{PippConfig, PippLlc};
pub use vantage_cache::PartitionId;
pub use way_part::WayPartLlc;
