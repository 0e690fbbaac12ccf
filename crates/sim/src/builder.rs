//! Fluent scheme construction: [`LlcBuilder`] overrides one
//! [`SystemConfig`] knob per call, then builds through
//! [`Scheme::try_build`], the one construction path.
//!
//! ```
//! use vantage_sim::{Scheme, SchemeKind, SystemConfig};
//!
//! let scheme = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
//!     .banks(4)
//!     .try_build().expect("valid scheme config");
//! assert_eq!(scheme.as_sharded().unwrap().num_banks(), 4);
//! ```

use crate::config::{SchemeKind, SystemConfig};
use crate::scheme::{BuildError, Scheme};

/// A fluent builder for [`Scheme`]s, created by [`Scheme::builder`]; see
/// the [module docs](self).
pub struct LlcBuilder {
    kind: SchemeKind,
    sys: SystemConfig,
}

impl Scheme {
    /// Starts a fluent build of `kind` on machine `sys`.
    pub fn builder(kind: SchemeKind, sys: SystemConfig) -> LlcBuilder {
        LlcBuilder { kind, sys }
    }
}

impl LlcBuilder {
    /// Shards the LLC across `banks` address-interleaved banks.
    pub fn banks(mut self, banks: usize) -> Self {
        self.sys.banks = banks;
        self
    }

    /// Ignores `jobs`: every banked window is served on the calling thread.
    /// Kept only for the frozen `benchmark/` package, which calls it.
    pub fn bank_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Ignores `engine`: a banked machine is one
    /// [`BankedLlc`](vantage_partitioning::BankedLlc) however it is driven.
    /// Kept only for the frozen `benchmark/` package, which calls it.
    pub fn engine(self, _engine: vantage::EngineKind) -> Self {
        self
    }

    /// Builds the scheme.
    ///
    /// # Errors
    ///
    /// Everything [`Scheme::try_build`] reports.
    pub fn try_build(self) -> Result<Scheme, BuildError> {
        Scheme::try_build(&self.kind, &self.sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_partitioning::{AccessRequest, PartitionId};

    #[test]
    fn builder_stacks_banks_and_jobs() {
        // `bank_jobs` is accepted and ignored.
        let mut s = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .banks(4)
            .bank_jobs(2)
            .try_build()
            .expect("valid scheme config");
        assert_eq!(s.as_sharded().unwrap().num_banks(), 4);
        for i in 0..4096u64 {
            s.llc_mut().access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                vantage_cache::LineAddr(i % 900),
            ));
        }
        assert!(s.llc_mut().stats_mut().total_hits() > 0);
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
}
