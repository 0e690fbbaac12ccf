//! Vantage: scalable and efficient fine-grain cache partitioning.
//!
//! A faithful reimplementation of the partitioning scheme from
//! *Sanchez & Kozyrakis, "Vantage: Scalable and Efficient Fine-Grain Cache
//! Partitioning", ISCA 2011*:
//!
//! * [`model`] — the paper's analytical models (associativity CDFs,
//!   managed-region distributions, aperture/stability math and the
//!   unmanaged-region sizing rule; Eqs. 1-9, Figs. 1, 2 and 5).
//! * [`overhead`] — the controller's state overhead (Fig. 4's bit counts).
//!
//! The scheme itself lives in `vantage-partitioning`, laid over a cache
//! array by the same frame as the schemes it is compared against, and is
//! re-exported here under its historical paths:
//!
//! * [`controller`] — the per-partition controller state of Fig. 4:
//!   feedback-based aperture control and setpoint-based demotions, driven by
//!   the demotion thresholds lookup table (Fig. 3).
//! * [`llc`] — [`VantageLlc`], the full cache: managed/unmanaged region
//!   division, churn-based management, promotion/demotion flows and victim
//!   selection over any `vantage-cache` array (zcache, skew-associative,
//!   hashed set-associative, or the idealized random-candidates array).
//! * [`config`], [`error`] and [`fault`] — its configuration, typed errors
//!   and deterministic fault injection.
//!
//! # How Vantage works, in five sentences
//!
//! Highly-associative arrays with good hashing yield replacement candidates
//! that look like a uniform random sample of the cache, so the probability
//! of evicting a line the replacement policy ranks in the bottom `x` of its
//! partition is `x^R` — negligible for real `R`. Vantage therefore does not
//! restrict placement at all: it tags each line with a partition ID and
//! keeps each partition's size constant by matching its demotion rate to its
//! insertion rate (churn). Demotions move lines into a small *unmanaged
//! region* that absorbs (nearly) all evictions, so partitions borrow from it
//! rather than from each other, eliminating inter-partition interference.
//! The demotion rate is set by a per-partition *aperture* that a negative
//! feedback loop steers from the partition's size overshoot, and is applied
//! without tracking eviction priorities by comparing each candidate's coarse
//! timestamp against a *setpoint*. All of it costs ~6 extra tag bits and
//! ~256 bits of state per partition.
//!
//! # Example
//!
//! ```
//! use vantage::{VantageConfig, VantageLlc};
//! use vantage_cache::ZArray;
//! use vantage_partitioning::{AccessRequest, Llc, PartitionId};
//!
//! // A Z4/52 zcache with 32 fine-grain partitions — the paper's
//! // large-scale configuration (needs only 4 ways).
//! let array = ZArray::new(32 * 1024, 4, 52, 0xBEEF);
//! let mut llc = VantageLlc::try_new(Box::new(array), 32, VantageConfig::default(), 1).expect("valid Vantage config");
//!
//! // Line-granularity targets.
//! let mut targets: Vec<u64> = (0..32).map(|i| 512 + i * 32).collect();
//! let spare = 32 * 1024 - targets.iter().sum::<u64>();
//! targets[0] += spare;
//! llc.set_targets(&targets);
//!
//! llc.access(AccessRequest::read(PartitionId::from_index(5), 0xABC.into()));
//! assert_eq!(llc.stats().misses[5], 1);
//! ```

pub mod engine;
pub mod model;
pub mod overhead;

pub use vantage_partitioning::vantage as llc;
pub use vantage_partitioning::{config, controller, error, fault};

pub use config::{DemotionMode, RankMode, VantageConfig};
pub use controller::{PartitionState, ThresholdTable};
pub use engine::{Engine, EngineKind};
pub use error::{ConfigError, VantageError};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use llc::{PrioritySample, ScrubReport, VantageLlc, VantageStats, UNMANAGED};
pub use overhead::{state_overhead, StateOverhead};
pub use vantage_telemetry as telemetry;
