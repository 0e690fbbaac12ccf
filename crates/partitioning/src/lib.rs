//! Last-level cache partitioning schemes: Vantage and the schemes the
//! paper compares it against.
//!
//! This crate defines the [`Llc`] abstraction — a shared last-level cache
//! that serves accesses on behalf of partitions and enforces per-partition
//! capacity targets — and implements four schemes. The paper lays each of
//! them over a cache array the same way (§3, §5): they differ only in how
//! they rank lines, pick victims and hold capacity, so each is a
//! [`Mechanism`] laid over one shared [`SchemeFrame`], which owns the
//! array, tag lanes, per-partition line counts, ownership resolution,
//! statistics, telemetry, the batch pipeline and the snapshot layout:
//!
//! * [`VantageLlc`] — Vantage (Sanchez & Kozyrakis, ISCA 2011): the
//!   practical controller of §4 ([`controller`], [`config`]) with its
//!   managed/unmanaged region division, setpoint demotions, churn
//!   throttling, runtime partition lifecycle and fault injection
//!   ([`fault`]), over any [`CacheArray`](vantage_cache::CacheArray).
//! * [`BaselineLlc`] — an unpartitioned cache (LRU or RRIP) over any
//!   array; the normalization baseline.
//! * [`WayPartLlc`] — way-partitioning / column caching (Chiou et al.,
//!   DAC 2000): each partition owns a subset of the ways; strict isolation
//!   but associativity proportional to the way count.
//! * [`PippLlc`] — promotion/insertion pseudo-partitioning (Xie & Loh,
//!   ISCA 2009): insertion position equals the partition's way allocation,
//!   single-step probabilistic promotion on hits, plus stream detection.
//!
//! Simulators and experiments treat all schemes uniformly through [`Llc`];
//! the `vantage` crate re-exports the Vantage scheme beside the paper's
//! analytical models.
//!
//! Any of them can be sharded across address-interleaved banks by
//! [`BankedLlc`]: per-access service inline, windows as one run per bank
//! drained bank-major on the calling thread.

pub mod banked;
pub mod baseline;
pub mod caps;
pub mod config;
pub mod controller;
pub mod error;
pub mod fault;
pub mod frame;
pub mod llc;
pub mod pipp;
pub mod vantage;
pub mod way_part;

pub use banked::{BankedLlc, RingStats};
pub use baseline::{BaselineLlc, RankPolicy};
pub use caps::{HasInvariants, InvariantViolation};
pub use config::{DemotionMode, RankMode, VantageConfig};
pub use controller::{PartitionState, ThresholdTable};
pub use error::{ConfigError, SchemeConfigError, TargetsError, VantageError};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use frame::{Ctx, Mechanism, SchemeFrame};
pub use llc::{
    AccessKind, AccessOutcome, AccessRequest, LifecycleError, Llc, LlcStats, PartitionObservations,
    PartitionSpec, PrioritySample,
};
pub use pipp::{PippConfig, PippLlc};
pub use vantage::{ScrubReport, SlotState, VantageLlc, VantageStats, UNMANAGED};
pub use vantage_cache::PartitionId;
pub use way_part::WayPartLlc;
