//! Synthetic SPEC-CPU2006-like applications and multiprogrammed mixes.
//!
//! The paper evaluates on SPEC CPU2006 under a Pin-based simulator; we do
//! not have those binaries or traces, so this crate provides synthetic
//! application models that reproduce what the evaluation actually depends
//! on: each application's *miss-curve shape* (misses as a function of cache
//! capacity), its access intensity, and its churn. The paper's own
//! methodology (§5, Table 3) classifies applications into four behavioural
//! categories by exactly these properties:
//!
//! * **Insensitive (n)** — fewer than 5 L2 misses per kilo-instruction at
//!   any size: small working sets that nearly always hit.
//! * **Cache-friendly (f)** — misses decrease gradually with capacity:
//!   skewed (hot/cold) reuse over a large footprint.
//! * **Cache-fitting (t)** — misses drop abruptly once the working set
//!   (over 1 MB) fits: cyclic loops over a fixed region.
//! * **Thrashing/streaming (s)** — no reuse at realistic sizes: sequential
//!   streams.
//!
//! [`catalog`](fn@catalog) provides 29 named models mirroring Table 3's split
//! (14 n / 6 f / 5 t / 4 s); [`mixes`] builds the 35-class × k-mix
//! multiprogrammed workloads for any core count, following §5's
//! construction. Everything is seeded and deterministic.

pub mod app;
pub mod catalog;
pub mod mix;
pub mod service;
pub mod sharing;

pub use app::{AppGen, AppSpec, Category, MemRef, RefStream, RegionKind};
pub use catalog::{catalog, spec_by_name};
pub use mix::{class_names, mixes, Mix};
pub use service::{ChurnConfigError, ChurnEvent, TenantChurn, TenantChurnConfig};
pub use sharing::{binary_channel_bits, count_misses, PrimeProbe, SharedHotSet};
