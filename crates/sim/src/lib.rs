//! CMP simulator: in-order cores with private L1s sharing a partitioned L2.
//!
//! Reproduces the paper's modeled systems (§5, Table 2): in-order x86-like
//! cores with IPC = 1 except on memory accesses, split private L1s, a
//! shared non-inclusive L2 where the partitioning schemes live, and a
//! fixed-latency, bandwidth-limited memory system. Cores are driven by the
//! synthetic application models from `vantage-workloads`; UCP monitors
//! every L2 access and repartitions periodically.
//!
//! * [`SystemConfig`] — machine parameters, with [`SystemConfig::small_scale`]
//!   (4 cores, 2 MB L2, 16-way baseline) and
//!   [`SystemConfig::large_scale`] (32 cores, 8 MB L2, 64-way baseline)
//!   mirroring the paper's two machines.
//! * [`Scheme`] — the LLC under test: unpartitioned baseline (LRU or RRIP
//!   variants), way-partitioning, PIPP, or Vantage over a configurable
//!   array — optionally sharded across address-interleaved banks
//!   ([`SystemConfig::banks`]).
//! * [`LlcBuilder`] (via [`Scheme::builder`]) — the fluent front door:
//!   telemetry, fault plans, scrub periods and banking in one chain.
//! * [`CmpSim`] — the event-interleaved multicore simulation; returns
//!   per-core IPCs, miss statistics, optional partition-size traces
//!   (Fig. 8) and demotion/eviction priority samples.

pub mod builder;
pub mod cmp;
pub mod config;
pub mod epoch;
pub mod l1;
pub mod metrics;
pub mod scheme;

pub use builder::LlcBuilder;
pub use cmp::{run_solo, CmpSim, SimResult, TraceSample};
pub use config::{ArrayKind, BaselineRank, PolicyKind, SchemeKind, SysConfigError, SystemConfig};
pub use epoch::{ActivePolicy, EpochController, Reconfig, ReconfigError, SimError};
pub use l1::L1;
pub use scheme::{BuildError, Scheme};
