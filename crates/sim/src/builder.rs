//! Fluent scheme construction.
//!
//! [`LlcBuilder`] is the one front door to a live LLC: it collapses the
//! `try_new` constructors scattered across the scheme types and
//! the post-construction setters (telemetry installation, fault plans,
//! scrub periods, banking) into a single validated chain:
//!
//! ```
//! use vantage_sim::{Scheme, SchemeKind, SystemConfig};
//!
//! let scheme = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
//!     .banks(4)
//!     .try_build().expect("valid scheme config");
//! assert_eq!(scheme.as_sharded().unwrap().num_banks(), 4);
//! ```

use vantage::FaultPlan;
use vantage_telemetry::Telemetry;

use crate::config::{SchemeKind, SystemConfig};
use crate::scheme::{BuildError, Scheme};

/// A fluent builder for [`Scheme`]s; see the [module docs](self).
///
/// Created by [`Scheme::builder`]. Defaults come from the given
/// [`SystemConfig`] (`banks`, `scrub_period`); each chained
/// call overrides one knob, and [`LlcBuilder::try_build`] validates the
/// result as a whole.
pub struct LlcBuilder {
    kind: SchemeKind,
    sys: SystemConfig,
    telemetry: Option<Telemetry>,
    fault_plan: Option<FaultPlan>,
}

impl Scheme {
    /// Starts a fluent build of `kind` on machine `sys` — the preferred
    /// construction path; [`Scheme::try_build`] covers the
    /// no-frills case.
    pub fn builder(kind: SchemeKind, sys: SystemConfig) -> LlcBuilder {
        LlcBuilder {
            kind,
            sys,
            telemetry: None,
            fault_plan: None,
        }
    }
}

impl LlcBuilder {
    /// Shards the LLC across `banks` address-interleaved banks.
    pub fn banks(mut self, banks: usize) -> Self {
        self.sys.banks = banks;
        self
    }

    /// Ignores `jobs`: every banked window is served on the calling thread.
    /// Kept only because the frozen `benchmark/` package calls it; it goes
    /// away with the benchmark-side follow-up.
    pub fn bank_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Ignores `engine`: a banked machine is one
    /// [`BankedLlc`](vantage_partitioning::BankedLlc) however it is driven.
    /// Kept only because the frozen `benchmark/` package calls it; it goes
    /// away with the benchmark-side follow-up.
    pub fn engine(self, _engine: vantage::EngineKind) -> Self {
        self
    }

    /// Installs a telemetry producer on the built LLC (fanned out per bank
    /// on banked machines).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a fault-injection schedule, polled on every access.
    /// Supported by unbanked Vantage schemes only; see
    /// [`BuildError::FaultPlanUnsupported`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs a Vantage recovery scrub every `period` accesses (the recovery
    /// half of a fault-tolerance loop; zero disables).
    pub fn scrub_period(mut self, period: u64) -> Self {
        self.sys.scrub_period = Some(period);
        self
    }

    /// Builds the scheme.
    ///
    /// # Errors
    ///
    /// Everything [`Scheme::try_build`] reports (including
    /// [`BuildError::System`] for an inconsistent machine), plus
    /// [`BuildError::FaultPlanUnsupported`] when a fault plan was requested
    /// for a scheme that cannot host one, and
    /// [`BuildError::TelemetryRejected`] when the scheme refuses the
    /// telemetry handle.
    pub fn try_build(mut self) -> Result<Scheme, BuildError> {
        let mut scheme = Scheme::try_build(&self.kind, &self.sys)?;
        if let Some(v) = scheme.vantage_mut() {
            v.set_scrub_period(self.sys.scrub_period);
            v.set_fault_plan(self.fault_plan.take());
        }
        if self.fault_plan.is_some() {
            return Err(BuildError::FaultPlanUnsupported);
        }
        if let Some(t) = self.telemetry.take() {
            // Unbanked schemes store a disabled handle inertly; reject it
            // here so every scheme treats it the same way.
            if !t.enabled() || !scheme.llc_mut().set_telemetry(t) {
                return Err(BuildError::TelemetryRejected);
            }
        }
        Ok(scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayKind, BaselineRank};
    use vantage::{FaultKind, FaultPlan};
    use vantage_partitioning::{AccessRequest, PartitionId};
    use vantage_telemetry::{RingSink, Telemetry};

    #[test]
    fn builder_stacks_banks_telemetry_and_jobs() {
        let (sink, reader) = RingSink::with_capacity(1 << 16);
        // `bank_jobs` is accepted and ignored.
        let mut s = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .banks(4)
            .bank_jobs(2)
            .telemetry(Telemetry::new(Box::new(sink), 128))
            .try_build()
            .expect("valid scheme config");
        assert_eq!(s.as_sharded().unwrap().num_banks(), 4);
        assert!(s.uses_ucp());
        for i in 0..4096u64 {
            s.llc_mut().access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                vantage_cache::LineAddr(i % 900),
            ));
        }
        assert!(!reader.is_empty(), "telemetry fan-out reached the sink");
        assert!(s.llc_mut().take_telemetry().is_some());
    }

    #[test]
    fn builder_wires_the_fault_loop_into_vantage() {
        let mut s = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .fault_plan(FaultPlan::new(3, 200, &FaultKind::INJECTABLE))
            .scrub_period(1_000)
            .try_build()
            .expect("valid scheme config");
        for i in 0..8192u64 {
            s.llc_mut().access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                vantage_cache::LineAddr(i % 700),
            ));
        }
        assert!(!s.fault_plan().expect("plan attached").log().is_empty());
        let inv = s.has_invariants().expect("vantage scheme");
        assert!(inv.scrubs() > 0, "scrub period not applied");
    }

    #[test]
    fn fault_plan_rejected_off_vantage() {
        let kind = SchemeKind::Baseline {
            array: ArrayKind::Z4_52,
            rank: BaselineRank::Lru,
        };
        let err = Scheme::builder(kind, SystemConfig::small_scale())
            .fault_plan(FaultPlan::new(1, 100, &FaultKind::INJECTABLE))
            .try_build()
            .err();
        assert_eq!(err, Some(BuildError::FaultPlanUnsupported));
    }

    #[test]
    fn builder_selects_the_pipelined_engine() {
        // Every banked machine is the one windowed type; `engine` is ignored.
        let mut s = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .banks(4)
            .engine(vantage::EngineKind::Serial)
            .try_build()
            .expect("valid scheme config");
        assert!(matches!(s, Scheme::Pipelined { .. }));
        assert_eq!(s.as_sharded().unwrap().num_banks(), 4);
        let mut out = Vec::new();
        let reqs: Vec<AccessRequest> = (0..2000u64)
            .map(|i| {
                AccessRequest::read(
                    PartitionId::from_index((i % 4) as usize),
                    vantage_cache::LineAddr(i % 900),
                )
            })
            .collect();
        s.llc_mut().access_batch(&reqs, &mut out);
        s.epoch_barrier();
        assert_eq!(out.len(), 2000);
        assert!(s.llc_mut().stats_mut().total_hits() > 0);
    }

    #[test]
    fn builder_validates_the_machine() {
        use crate::config::SysConfigError;
        let err = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .banks(3) // 32K lines do not divide into 3 banks
            .try_build()
            .err();
        assert_eq!(err, Some(BuildError::System(SysConfigError::BankGeometry)));
    }

    #[test]
    fn disabled_telemetry_is_a_typed_error() {
        let err = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .telemetry(Telemetry::disabled())
            .try_build()
            .err();
        assert_eq!(err, Some(BuildError::TelemetryRejected));
    }
}
