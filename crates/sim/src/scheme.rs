//! Scheme instantiation: turning a [`SchemeKind`] into a live LLC.

use std::error::Error;
use std::fmt;

use vantage::{RankMode, VantageError, VantageLlc};
use vantage_cache::hash::mix64;
use vantage_cache::{
    CacheArray, RandomArray, RripConfig, RripMode, SetAssocArray, SkewArray, ZArray,
};
use vantage_partitioning::{
    BankedLlc, BaselineLlc, HasInvariants, HasPartitionPolicy, Llc, PippConfig, PippLlc,
    RankPolicy, SchemeConfigError, WayPartLlc,
};

use crate::config::{ArrayKind, BaselineRank, SchemeKind, SysConfigError, SystemConfig};

/// A scheme that cannot be instantiated on the requested machine.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The Vantage controller rejected its configuration.
    Vantage(VantageError),
    /// A baseline/way-partitioning/PIPP geometry error.
    Scheme(SchemeConfigError),
    /// `Vantage-DRRIP` was requested over a non-RRIP `VantageConfig`.
    DrripNeedsRrip,
    /// `Vantage-DRRIP` was requested on a banked machine; per-partition
    /// policy updates need direct controller access, which banking hides.
    BankedDrrip,
    /// The machine description itself is inconsistent.
    System(SysConfigError),
    /// A fault plan was requested for a scheme that cannot host one (only
    /// unbanked Vantage carries an attached [`FaultPlan`](vantage::FaultPlan)).
    FaultPlanUnsupported,
    /// A telemetry handle was provided but the scheme rejected it (disabled
    /// handle, or a bank refused the fan-out).
    TelemetryRejected,
    /// A non-default [`ShareMode`](vantage_cache::ShareMode) was requested
    /// but the scheme does not implement the ownership layer.
    ShareModeUnsupported,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Vantage(e) => e.fmt(f),
            Self::Scheme(e) => e.fmt(f),
            Self::DrripNeedsRrip => {
                f.write_str("Vantage-DRRIP needs RRIP ranking in its VantageConfig")
            }
            Self::BankedDrrip => f.write_str("Vantage-DRRIP cannot run on a banked machine"),
            Self::System(e) => e.fmt(f),
            Self::FaultPlanUnsupported => {
                f.write_str("fault plans attach to unbanked Vantage schemes only")
            }
            Self::TelemetryRejected => f.write_str("the scheme rejected the telemetry handle"),
            Self::ShareModeUnsupported => {
                f.write_str("the scheme does not support the requested share mode")
            }
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Vantage(e) => Some(e),
            Self::Scheme(e) => Some(e),
            Self::System(e) => Some(e),
            Self::DrripNeedsRrip
            | Self::BankedDrrip
            | Self::FaultPlanUnsupported
            | Self::TelemetryRejected
            | Self::ShareModeUnsupported => None,
        }
    }
}

impl From<SysConfigError> for BuildError {
    fn from(e: SysConfigError) -> Self {
        Self::System(e)
    }
}

impl From<VantageError> for BuildError {
    fn from(e: VantageError) -> Self {
        Self::Vantage(e)
    }
}

impl From<SchemeConfigError> for BuildError {
    fn from(e: SchemeConfigError) -> Self {
        Self::Scheme(e)
    }
}

/// A live LLC of any scheme, with scheme-specific instrumentation surfaced
/// without downcasting.
///
/// `Vantage` dwarfs the other variants (controller registers, scan
/// scratch), but exactly one `Scheme` exists per simulated system, so the
/// wasted bytes never multiply and boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum Scheme {
    /// Unpartitioned baseline.
    Baseline(BaselineLlc),
    /// Way-partitioning.
    WayPart(WayPartLlc),
    /// PIPP.
    Pipp(PippLlc),
    /// Vantage.
    Vantage(VantageLlc),
    /// Any of the above sharded across address-interleaved banks
    /// (`SystemConfig::banks > 1`). Queued work flushes at epoch barriers
    /// ([`Scheme::epoch_barrier`]). The name is historical — the frozen
    /// `benchmark/` package matches on it — and covers every banked machine.
    Pipelined {
        /// The sharded cache and its per-bank runs.
        llc: BankedLlc,
        /// Whether UCP drives the wrapped scheme (false for baselines).
        ucp: bool,
    },
}

fn build_array(kind: ArrayKind, lines: usize, seed: u64) -> Box<dyn CacheArray> {
    match kind {
        ArrayKind::SetAssoc { ways } => Box::new(SetAssocArray::hashed(lines, ways, seed)),
        ArrayKind::Z { ways, candidates } => Box::new(ZArray::new(lines, ways, candidates, seed)),
        ArrayKind::Skew { ways } => Box::new(SkewArray::new(lines, ways, seed)),
        ArrayKind::Random { candidates } => Box::new(RandomArray::new(lines, candidates, seed)),
    }
}

impl Scheme {
    /// Builds the LLC described by `kind` for machine `sys`. Prefer
    /// [`Scheme::builder`] when telemetry, fault plans or banking overrides
    /// are also in play — it validates and applies everything in one chain.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when the scheme cannot be instantiated:
    /// [`BuildError::System`] for a machine
    /// [`SystemConfig::try_validate`] rejects, controller configuration
    /// errors for Vantage, geometry errors for the way-granularity schemes,
    /// a Vantage-DRRIP request over a non-RRIP ranking mode, or a
    /// Vantage-DRRIP request on a banked machine.
    pub fn try_build(kind: &SchemeKind, sys: &SystemConfig) -> Result<Self, BuildError> {
        sys.try_validate()?;
        let mut scheme = Self::try_build_unmoded(kind, sys)?;
        // The ownership layer's mode is orthogonal to construction: every
        // scheme starts in the bit-identical Adopt default and is switched
        // while still cold. A banked machine fans the call out to every shard.
        if sys.share_mode != vantage_cache::ShareMode::Adopt
            && !scheme.llc_mut().set_share_mode(sys.share_mode)
        {
            return Err(BuildError::ShareModeUnsupported);
        }
        Ok(scheme)
    }

    fn try_build_unmoded(kind: &SchemeKind, sys: &SystemConfig) -> Result<Self, BuildError> {
        if sys.banks > 1 {
            if matches!(kind, SchemeKind::Vantage { drrip: true, .. }) {
                return Err(BuildError::BankedDrrip);
            }
            let mut shard = sys.clone();
            shard.banks = 1;
            shard.l2_lines = sys.l2_lines / sys.banks;
            let banks = (0..sys.banks)
                .map(|b| {
                    shard.seed = sys.seed ^ mix64(b as u64 + 0xBA);
                    Self::try_build(kind, &shard).map(Scheme::into_llc)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let llc = BankedLlc::try_new(banks, sys.seed ^ 0xBA2C)?;
            let ucp = !matches!(kind, SchemeKind::Baseline { .. });
            return Ok(Scheme::Pipelined { llc, ucp });
        }
        let seed = sys.seed ^ 0xCAC4E;
        Ok(match kind {
            SchemeKind::Baseline { array, rank } => {
                let arr = build_array(*array, sys.l2_lines, seed);
                let policy = match rank {
                    BaselineRank::Lru => RankPolicy::Lru,
                    BaselineRank::Srrip => {
                        RankPolicy::Rrip(RripConfig::paper(RripMode::Srrip, sys.cores, seed))
                    }
                    BaselineRank::Drrip => {
                        RankPolicy::Rrip(RripConfig::paper(RripMode::Drrip, sys.cores, seed))
                    }
                    BaselineRank::TaDrrip => {
                        RankPolicy::Rrip(RripConfig::paper(RripMode::TaDrrip, sys.cores, seed))
                    }
                };
                Scheme::Baseline(BaselineLlc::try_new(arr, sys.cores, policy)?)
            }
            SchemeKind::WayPart => Scheme::WayPart(WayPartLlc::try_new(
                sys.l2_lines,
                sys.l2_ways,
                sys.cores,
                seed,
            )?),
            SchemeKind::Pipp => Scheme::Pipp(PippLlc::try_new(
                sys.l2_lines,
                sys.l2_ways,
                sys.cores,
                PippConfig::default(),
                seed,
            )?),
            SchemeKind::Vantage { array, cfg, drrip } => {
                if *drrip && !matches!(cfg.rank, RankMode::Rrip { .. }) {
                    return Err(BuildError::DrripNeedsRrip);
                }
                let arr = build_array(*array, sys.l2_lines, seed);
                Scheme::Vantage(VantageLlc::try_new(arr, sys.cores, cfg.clone(), seed)?)
            }
        })
    }

    /// Consumes the scheme into a boxed trait object (used to stack
    /// single-bank schemes into a [`BankedLlc`]).
    fn into_llc(self) -> Box<dyn Llc> {
        match self {
            Scheme::Baseline(l) => Box::new(l),
            Scheme::WayPart(l) => Box::new(l),
            Scheme::Pipp(l) => Box::new(l),
            Scheme::Vantage(l) => Box::new(l),
            Scheme::Pipelined { llc, .. } => Box::new(llc),
        }
    }

    /// The scheme as a trait object.
    pub fn llc(&self) -> &dyn Llc {
        match self {
            Scheme::Baseline(l) => l,
            Scheme::WayPart(l) => l,
            Scheme::Pipp(l) => l,
            Scheme::Vantage(l) => l,
            Scheme::Pipelined { llc, .. } => llc,
        }
    }

    /// The scheme as a mutable trait object.
    pub fn llc_mut(&mut self) -> &mut dyn Llc {
        match self {
            Scheme::Baseline(l) => l,
            Scheme::WayPart(l) => l,
            Scheme::Pipp(l) => l,
            Scheme::Vantage(l) => l,
            Scheme::Pipelined { llc, .. } => llc,
        }
    }

    /// Quiesces a banked machine's runs (drained bank-major) so every
    /// access issued so far is reflected in stats, sizes and snapshots. A
    /// no-op on unbanked schemes. Drive loops call this before epoch
    /// repartitioning and before checkpoints — the two points whose results
    /// must not depend on the service schedule.
    pub fn epoch_barrier(&mut self) {
        if let Scheme::Pipelined { llc, .. } = self {
            llc.barrier();
        }
    }

    /// Whether UCP should drive this scheme (baselines are unmanaged).
    pub fn uses_ucp(&self) -> bool {
        match self {
            Scheme::Baseline(_) => false,
            Scheme::Pipelined { ucp, .. } => *ucp,
            _ => true,
        }
    }

    /// The bank-level view of a sharded scheme (`None` when unbanked).
    pub fn as_sharded(&self) -> Option<&BankedLlc> {
        match self {
            Scheme::Pipelined { llc, .. } => Some(llc),
            _ => None,
        }
    }

    /// The invariant-audit capability, when the scheme advertises one
    /// (see [`HasInvariants`]). Schemes without self-auditing bookkeeping
    /// return `None`.
    pub fn has_invariants(&self) -> Option<&dyn HasInvariants> {
        match self {
            Scheme::Vantage(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable [`HasInvariants`] access (to run a repair pass).
    pub fn has_invariants_mut(&mut self) -> Option<&mut dyn HasInvariants> {
        match self {
            Scheme::Vantage(l) => Some(l),
            _ => None,
        }
    }

    /// The per-partition replacement-policy capability, when the scheme
    /// advertises one (see [`HasPartitionPolicy`]; Vantage-DRRIP uses it
    /// to install the dueling winner each epoch).
    pub fn has_partition_policy(&mut self) -> Option<&mut dyn HasPartitionPolicy> {
        match self {
            Scheme::Vantage(l) => Some(l),
            _ => None,
        }
    }

    /// Fraction of evictions forced from the managed region — Vantage's
    /// empirical isolation metric (`None` for schemes without a managed
    /// region).
    pub fn managed_eviction_fraction(&self) -> Option<f64> {
        match self {
            Scheme::Vantage(l) => Some(l.vantage_stats().managed_eviction_fraction()),
            _ => None,
        }
    }

    /// The attached fault-injection plan, if the scheme carries one.
    pub fn fault_plan(&self) -> Option<&vantage::FaultPlan> {
        match self {
            Scheme::Vantage(l) => l.fault_plan(),
            _ => None,
        }
    }

    /// Concrete Vantage access for build-time wiring (scrub periods, fault
    /// plans) — crate-private so external callers go through the
    /// capability traits instead of downcasting.
    pub(crate) fn vantage_mut(&mut self) -> Option<&mut VantageLlc> {
        match self {
            Scheme::Vantage(l) => Some(l),
            _ => None,
        }
    }

    /// Enables eviction/demotion priority probes where supported
    /// (way-partitioning and Vantage-LRU, banked or not; others ignore the
    /// request).
    pub fn enable_priority_probe(&mut self) {
        self.llc_mut().enable_priority_probe();
    }

    /// Drains accumulated priority samples (empty when unsupported).
    pub fn drain_priority_samples(&mut self) -> Vec<(u64, u16, f32)> {
        self.llc_mut().drain_priority_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage::VantageConfig;
    use vantage_partitioning::AccessRequest;
    use vantage_partitioning::PartitionId;

    #[test]
    fn all_schemes_build_and_serve() {
        let sys = SystemConfig::small_scale();
        let kinds = [
            SchemeKind::Baseline {
                array: ArrayKind::SetAssoc { ways: 16 },
                rank: BaselineRank::Lru,
            },
            SchemeKind::Baseline {
                array: ArrayKind::Z4_52,
                rank: BaselineRank::TaDrrip,
            },
            SchemeKind::WayPart,
            SchemeKind::Pipp,
            SchemeKind::vantage_paper(),
            SchemeKind::Vantage {
                array: ArrayKind::Random { candidates: 52 },
                cfg: VantageConfig::default(),
                drrip: false,
            },
        ];
        for kind in &kinds {
            let mut s = Scheme::try_build(kind, &sys).expect("valid scheme config");
            for i in 0..1000u64 {
                s.llc_mut().access(AccessRequest::read(
                    PartitionId::from_index((i % 4) as usize),
                    vantage_cache::LineAddr(i % 300),
                ));
            }
            assert!(s.llc().stats().total_hits() > 0, "{}", kind.label());
            assert_eq!(s.llc().num_partitions(), 4);
        }
    }

    #[test]
    fn banked_machines_build_every_bankable_scheme() {
        let mut sys = SystemConfig::small_scale();
        sys.banks = 4;
        let kinds = [
            SchemeKind::Baseline {
                array: ArrayKind::Z4_52,
                rank: BaselineRank::Lru,
            },
            SchemeKind::WayPart,
            SchemeKind::Pipp,
            SchemeKind::vantage_paper(),
        ];
        for kind in &kinds {
            let mut s = Scheme::try_build(kind, &sys).expect("valid scheme config");
            let sharded = s.as_sharded().expect("banked scheme is sharded");
            assert_eq!(sharded.num_banks(), 4, "{}", kind.label());
            assert_eq!(s.llc().capacity(), sys.l2_lines);
            assert_eq!(s.llc().num_partitions(), 4);
            assert_eq!(
                s.uses_ucp(),
                !matches!(kind, SchemeKind::Baseline { .. }),
                "{}",
                kind.label()
            );
            for i in 0..2000u64 {
                s.llc_mut().access(AccessRequest::read(
                    PartitionId::from_index((i % 4) as usize),
                    vantage_cache::LineAddr(i % 600),
                ));
            }
            assert!(s.llc_mut().stats_mut().total_hits() > 0, "{}", kind.label());
        }
    }

    #[test]
    fn banked_priority_probe_samples_every_bank_demotion() {
        use vantage_telemetry::{RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
        let mut sys = SystemConfig::small_scale();
        sys.banks = 4;
        let mut s = Scheme::try_build(&SchemeKind::vantage_paper(), &sys).expect("valid config");
        s.enable_priority_probe();
        // Demotion events count what the banks demote; the sample period
        // is long enough that no periodic sample is taken.
        let (sink, reader) = RingSink::with_capacity(1 << 18);
        assert!(s
            .llc_mut()
            .set_telemetry(Telemetry::new(Box::new(sink), 1 << 40)));
        // Partition p streams over a private set of 8K << p lines: the two
        // larger sets overrun their quarter of the cache.
        let reqs: Vec<AccessRequest> = (0..200_000u64)
            .map(|i| {
                let p = i % 4;
                let line = vantage_cache::hash::mix64(i) % (8192 << p);
                AccessRequest::read(
                    PartitionId::from_index(p as usize),
                    vantage_cache::LineAddr(((p + 1) << 40) + line),
                )
            })
            .collect();
        let mut out = Vec::new();
        for window in reqs.chunks(4096) {
            s.llc_mut().access_batch(window, &mut out);
        }
        let samples = s.drain_priority_samples();
        s.llc_mut().take_telemetry();
        assert_eq!(reader.overwritten(), 0);
        let demotions = reader
            .records()
            .iter()
            .filter(|r| matches!(r, TelemetryRecord::Event(TelemetryEvent::Demotion { .. })))
            .count();
        assert!(demotions > 1000, "the trace must demote: {demotions}");
        assert_eq!(samples.len(), demotions);
        assert!(samples
            .iter()
            .all(|&(_, part, pr)| part < 4 && (0.0..=1.0).contains(&pr)));
        assert!(
            s.drain_priority_samples().is_empty(),
            "drain empties every bank"
        );
    }

    #[test]
    fn pipelined_engine_builds_and_matches_banked() {
        // Windows served as per-bank runs replay the same machine served
        // one access at a time.
        let mut sys = SystemConfig::small_scale();
        sys.banks = 4;
        let kind = SchemeKind::vantage_paper();
        let mut serial = Scheme::try_build(&kind, &sys).expect("valid scheme config");
        let mut pipe = Scheme::try_build(&kind, &sys).expect("valid scheme config");
        assert!(matches!(pipe, Scheme::Pipelined { .. }));
        assert!(pipe.uses_ucp());
        assert_eq!(pipe.as_sharded().expect("sharded").num_banks(), 4);
        let reqs: Vec<AccessRequest> = (0..30_000u64)
            .map(|i| {
                AccessRequest::read(
                    PartitionId::from_index((i % 4) as usize),
                    vantage_cache::LineAddr((i * 131) % 9000),
                )
            })
            .collect();
        let out_s: Vec<_> = reqs.iter().map(|&r| serial.llc_mut().access(r)).collect();
        let mut out_p = Vec::new();
        for chunk in reqs.chunks(4096) {
            pipe.llc_mut().access_batch(chunk, &mut out_p);
        }
        pipe.epoch_barrier();
        assert_eq!(out_s, out_p);
        for p in 0..4 {
            assert_eq!(
                serial.llc().partition_size(PartitionId::from_index(p)),
                pipe.llc().partition_size(PartitionId::from_index(p))
            );
        }
    }

    #[test]
    fn banked_drrip_is_rejected() {
        let mut sys = SystemConfig::small_scale();
        sys.banks = 4;
        let kind = SchemeKind::Vantage {
            array: ArrayKind::Z4_52,
            cfg: VantageConfig {
                rank: vantage::RankMode::Rrip { bits: 2 },
                ..VantageConfig::default()
            },
            drrip: true,
        };
        assert_eq!(
            Scheme::try_build(&kind, &sys).err(),
            Some(BuildError::BankedDrrip)
        );
    }

    #[test]
    fn ucp_flag_matches_scheme() {
        let sys = SystemConfig::small_scale();
        let base = Scheme::try_build(
            &SchemeKind::Baseline {
                array: ArrayKind::Z4_52,
                rank: BaselineRank::Lru,
            },
            &sys,
        )
        .expect("valid scheme config");
        assert!(!base.uses_ucp());
        let v = Scheme::try_build(&SchemeKind::vantage_paper(), &sys).expect("valid scheme config");
        assert!(v.uses_ucp());
        assert!(v.has_invariants().is_some());
        assert!(v.managed_eviction_fraction().is_some());
    }

    #[test]
    fn try_build_surfaces_config_errors() {
        let sys = SystemConfig::small_scale();
        let kind = SchemeKind::Vantage {
            array: ArrayKind::Z4_52,
            cfg: VantageConfig::default(),
            drrip: true,
        };
        assert_eq!(
            Scheme::try_build(&kind, &sys).err(),
            Some(BuildError::DrripNeedsRrip)
        );

        // Way-granularity schemes cannot host more partitions than ways.
        let mut crowded = SystemConfig::small_scale();
        crowded.cores = 32; // 32 partitions over a 16-way L2
        assert!(matches!(
            Scheme::try_build(&SchemeKind::WayPart, &crowded),
            Err(BuildError::Scheme(
                SchemeConfigError::PartitionsExceedWays { .. }
            ))
        ));

        // A bad Vantage controller config surfaces as a typed error too.
        let kind = SchemeKind::Vantage {
            array: ArrayKind::Z4_52,
            cfg: VantageConfig {
                unmanaged_fraction: 1.5,
                ..VantageConfig::default()
            },
            drrip: false,
        };
        assert!(matches!(
            Scheme::try_build(&kind, &sys),
            Err(BuildError::Vantage(_))
        ));

        // Geometry the machine check rejects must never reach an array
        // constructor (each of these used to panic in `ZArray::new`).
        type Break = fn(&mut SystemConfig);
        let broken: [Break; 3] = [
            |s| s.banks = 3,
            |s| {
                s.banks = 2;
                s.l2_lines = 32_770;
            },
            |s| s.l2_lines = 0,
        ];
        for break_it in broken {
            let mut bad = SystemConfig::small_scale();
            break_it(&mut bad);
            let got = std::panic::catch_unwind(|| {
                Scheme::try_build(&SchemeKind::vantage_paper(), &bad).err()
            });
            assert!(
                matches!(got, Ok(Some(BuildError::System(_)))),
                "banks={} l2_lines={}: {got:?}",
                bad.banks,
                bad.l2_lines
            );
        }
    }

    #[test]
    fn telemetry_forwards_to_the_underlying_llc() {
        use vantage_telemetry::{RingSink, Telemetry};
        let sys = SystemConfig::small_scale();
        let mut s =
            Scheme::try_build(&SchemeKind::vantage_paper(), &sys).expect("valid scheme config");
        let (sink, reader) = RingSink::with_capacity(1 << 16);
        assert!(s
            .llc_mut()
            .set_telemetry(Telemetry::new(Box::new(sink), 256)));
        for i in 0..4096u64 {
            s.llc_mut().access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                vantage_cache::LineAddr(i % 900),
            ));
        }
        assert!(s.llc_mut().take_telemetry().is_some());
        assert!(!reader.is_empty(), "no telemetry records forwarded");
    }
}
