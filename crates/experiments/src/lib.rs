//! Reproduction harness library for the Vantage paper.
//!
//! Each module regenerates one or more of the paper's tables/figures; the
//! `vantage-experiments` binary dispatches to them (see its `--help`).
//! The modules are exposed as a library so benchmarks and integration tests
//! can drive individual experiment kernels at reduced scale.

pub mod common;
pub mod fig_dynamics;
pub mod fig_model;
pub mod fig_sensitivity;
pub mod fig_throughput;
pub mod montecarlo;
pub mod perf;
pub mod perf_parallel;
pub mod record;
pub mod run;
pub mod security;
pub mod service;
pub mod signal;
pub mod tables;
