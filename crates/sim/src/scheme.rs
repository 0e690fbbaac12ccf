//! Scheme instantiation: turning a [`SchemeKind`] into a live LLC.

use std::error::Error;
use std::fmt;

use vantage::{RankMode, VantageError, VantageLlc};
use vantage_cache::hash::mix64;
use vantage_cache::{
    CacheArray, RandomArray, RripConfig, RripMode, SetAssocArray, SkewArray, ZArray,
};
use vantage_partitioning::{
    BankedLlc, BaselineLlc, Llc, PippConfig, PippLlc, RankPolicy, SchemeConfigError, WayPartLlc,
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
    /// The named [`SystemConfig`] field (`check_invariants` or
    /// `scrub_period`) was set on a machine other than unbanked Vantage,
    /// the only scheme that audits and scrubs its own bookkeeping.
    VantageOnly(&'static str),
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
            Self::VantageOnly(field) => {
                write!(f, "`{field}` applies to unbanked Vantage schemes only")
            }
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
            _ => None,
        }
    }
}

impl From<SchemeConfigError> for BuildError {
    fn from(e: SchemeConfigError) -> Self {
        Self::Scheme(e)
    }
}

/// A live LLC of any scheme, served through [`Scheme::llc`]. Unbanked
/// Vantage stays concrete so its audit, scrub and fault-injection surface
/// is reachable through [`Scheme::vantage`] without downcasting.
///
/// `Vantage` dwarfs the other variants, but exactly one `Scheme` exists per
/// simulated system, so boxing it would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum Scheme {
    /// Unbanked Vantage.
    Vantage(VantageLlc),
    /// Any scheme sharded across `SystemConfig::banks > 1` address-interleaved
    /// banks; queued work flushes at [`Scheme::epoch_barrier`]. The name is
    /// historical: the frozen `benchmark/` package matches on it.
    Pipelined {
        /// The sharded cache and its per-bank runs.
        llc: BankedLlc,
    },
    /// Unbanked baseline, way-partitioning or PIPP.
    Other(Box<dyn Llc>),
}

/// Unwraps a built scheme to stack it as one bank of a [`BankedLlc`].
fn into_llc(scheme: Scheme) -> Box<dyn Llc> {
    match scheme {
        Scheme::Vantage(l) => Box::new(l),
        Scheme::Pipelined { llc } => Box::new(llc),
        Scheme::Other(l) => l,
    }
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
    /// Builds the LLC described by `kind` for machine `sys` — the one
    /// construction path. Each bank of a banked machine is built through
    /// it too, and every per-cache [`SystemConfig`] setting is applied here.
    ///
    /// # Errors
    ///
    /// A [`BuildError`] for a machine [`SystemConfig::try_validate`]
    /// rejects, a Vantage-only setting on another machine, a controller or
    /// geometry error, a Vantage-DRRIP request over non-RRIP ranking or on a
    /// banked machine, or a share mode the scheme cannot serve.
    pub fn try_build(kind: &SchemeKind, sys: &SystemConfig) -> Result<Self, BuildError> {
        sys.try_validate().map_err(BuildError::System)?;
        let unbanked_vantage = sys.banks == 1 && matches!(kind, SchemeKind::Vantage { .. });
        if !unbanked_vantage && sys.check_invariants {
            return Err(BuildError::VantageOnly("check_invariants"));
        }
        if !unbanked_vantage && sys.scrub_period.is_some() {
            return Err(BuildError::VantageOnly("scrub_period"));
        }
        let seed = sys.seed ^ 0xCAC4E;
        let mut scheme = match kind {
            _ if sys.banks > 1 => {
                if matches!(kind, SchemeKind::Vantage { drrip: true, .. }) {
                    return Err(BuildError::BankedDrrip);
                }
                let mut shard = sys.clone();
                shard.banks = 1;
                shard.l2_lines = sys.l2_lines / sys.banks;
                let banks = (0..sys.banks)
                    .map(|b| {
                        shard.seed = sys.seed ^ mix64(b as u64 + 0xBA);
                        Self::try_build(kind, &shard).map(into_llc)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Scheme::Pipelined {
                    llc: BankedLlc::try_new(banks, sys.seed ^ 0xBA2C)?,
                }
            }
            SchemeKind::Baseline { array, rank } => {
                let arr = build_array(*array, sys.l2_lines, seed);
                let rrip = |mode| RankPolicy::Rrip(RripConfig::paper(mode, sys.cores, seed));
                let policy = match rank {
                    BaselineRank::Lru => RankPolicy::Lru,
                    BaselineRank::Srrip => rrip(RripMode::Srrip),
                    BaselineRank::Drrip => rrip(RripMode::Drrip),
                    BaselineRank::TaDrrip => rrip(RripMode::TaDrrip),
                };
                Scheme::Other(Box::new(BaselineLlc::try_new(arr, sys.cores, policy)?))
            }
            SchemeKind::WayPart => {
                let llc = WayPartLlc::try_new(sys.l2_lines, sys.l2_ways, sys.cores, seed)?;
                Scheme::Other(Box::new(llc))
            }
            SchemeKind::Pipp => {
                let cfg = PippConfig::default();
                let llc = PippLlc::try_new(sys.l2_lines, sys.l2_ways, sys.cores, cfg, seed)?;
                Scheme::Other(Box::new(llc))
            }
            SchemeKind::Vantage { array, cfg, drrip } => {
                if *drrip && !matches!(cfg.rank, RankMode::Rrip { .. }) {
                    return Err(BuildError::DrripNeedsRrip);
                }
                let arr = build_array(*array, sys.l2_lines, seed);
                let mut llc = VantageLlc::try_new(arr, sys.cores, cfg.clone(), seed)
                    .map_err(BuildError::Vantage)?;
                llc.set_scrub_period(sys.scrub_period);
                Scheme::Vantage(llc)
            }
        };
        // Every scheme starts in the bit-identical Adopt default and is
        // switched while still cold; a banked machine fans out to every bank.
        if sys.share_mode != vantage_cache::ShareMode::Adopt
            && !scheme.llc_mut().set_share_mode(sys.share_mode)
        {
            return Err(BuildError::ShareModeUnsupported);
        }
        Ok(scheme)
    }

    /// The scheme as a trait object.
    pub fn llc(&self) -> &dyn Llc {
        match self {
            Scheme::Vantage(l) => l,
            Scheme::Pipelined { llc } => llc,
            Scheme::Other(l) => &**l,
        }
    }

    /// The scheme as a mutable trait object.
    pub fn llc_mut(&mut self) -> &mut dyn Llc {
        match self {
            Scheme::Vantage(l) => l,
            Scheme::Pipelined { llc } => llc,
            Scheme::Other(l) => &mut **l,
        }
    }

    /// Quiesces a banked machine (drained bank-major) so every access issued
    /// so far shows in stats, sizes and snapshots; a no-op when unbanked.
    /// Called before repartitioning and checkpoints, whose results must not
    /// depend on the service schedule.
    pub fn epoch_barrier(&mut self) {
        if let Scheme::Pipelined { llc } = self {
            llc.barrier();
        }
    }

    /// The bank-level view of a sharded scheme (`None` when unbanked).
    pub fn as_sharded(&self) -> Option<&BankedLlc> {
        if let Scheme::Pipelined { llc } = self {
            Some(llc)
        } else {
            None
        }
    }

    /// The concrete cache of an unbanked Vantage scheme, for its invariant
    /// audit, statistics and fault plan (`None` for any other scheme).
    pub fn vantage(&self) -> Option<&VantageLlc> {
        if let Scheme::Vantage(l) = self {
            Some(l)
        } else {
            None
        }
    }

    /// Mutable [`Scheme::vantage`].
    pub fn vantage_mut(&mut self) -> Option<&mut VantageLlc> {
        if let Scheme::Vantage(l) = self {
            Some(l)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage::VantageConfig;
    use vantage_partitioning::{AccessRequest, HasInvariants, PartitionId};

    /// Every kind the table-driven tests build, with whether UCP drives it.
    fn kinds() -> Vec<(SchemeKind, bool)> {
        vec![
            (
                SchemeKind::Baseline {
                    array: ArrayKind::SetAssoc { ways: 16 },
                    rank: BaselineRank::Lru,
                },
                false,
            ),
            (
                SchemeKind::Baseline {
                    array: ArrayKind::Z4_52,
                    rank: BaselineRank::Lru,
                },
                false,
            ),
            (
                SchemeKind::Baseline {
                    array: ArrayKind::Z4_52,
                    rank: BaselineRank::TaDrrip,
                },
                false,
            ),
            (SchemeKind::WayPart, true),
            (SchemeKind::Pipp, true),
            (SchemeKind::vantage_paper(), true),
            (
                SchemeKind::Vantage {
                    array: ArrayKind::Random { candidates: 52 },
                    cfg: VantageConfig::default(),
                    drrip: false,
                },
                true,
            ),
        ]
    }

    #[test]
    fn all_schemes_build_and_serve() {
        for banks in [1, 4] {
            let mut sys = SystemConfig::small_scale();
            sys.banks = banks;
            for (kind, ucp) in &kinds() {
                let label = format!("{} on {banks} banks", kind.label());
                let mut s = Scheme::try_build(kind, &sys).expect("valid scheme config");
                let unbanked_vantage = banks == 1 && matches!(kind, SchemeKind::Vantage { .. });
                assert_eq!(s.vantage().is_some(), unbanked_vantage, "{label}");
                assert_eq!(s.as_sharded().is_some(), banks > 1, "{label}");
                assert_eq!(kind.uses_ucp(), *ucp, "{label}");
                for i in 0..1000u64 {
                    s.llc_mut().access(AccessRequest::read(
                        PartitionId::from_index((i % 4) as usize),
                        vantage_cache::LineAddr(i % 300),
                    ));
                }
                assert!(s.llc_mut().stats_mut().total_hits() > 0, "{label}");
                assert_eq!(s.llc().num_partitions(), 4);
            }
        }
    }

    #[test]
    fn ucp_flag_matches_scheme() {
        let sys = SystemConfig::small_scale();
        let base_kind = SchemeKind::Baseline {
            array: ArrayKind::Z4_52,
            rank: BaselineRank::Lru,
        };
        let base = Scheme::try_build(&base_kind, &sys).expect("valid scheme config");
        assert!(!base_kind.uses_ucp());
        assert!(base.vantage().is_none());
        let v_kind = SchemeKind::vantage_paper();
        let v = Scheme::try_build(&v_kind, &sys).expect("valid scheme config");
        assert!(v_kind.uses_ucp());
        let vantage = v.vantage().expect("unbanked Vantage exposes its queries");
        vantage
            .check_invariants()
            .expect("fresh Vantage holds its invariants");
        let frac = vantage.vantage_stats().managed_eviction_fraction();
        assert!((0.0..=1.0).contains(&frac), "{frac}");
    }

    #[test]
    fn banked_machines_build_every_bankable_scheme() {
        let mut sys = SystemConfig::small_scale();
        sys.banks = 4;
        for (kind, _) in &kinds() {
            let mut s = Scheme::try_build(kind, &sys).expect("valid scheme config");
            let sharded = s.as_sharded().expect("banked scheme is sharded");
            assert_eq!(sharded.num_banks(), 4, "{}", kind.label());
            assert_eq!(s.llc().capacity(), sys.l2_lines);
            assert_eq!(s.llc().num_partitions(), 4);
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
    fn try_build_applies_the_scrub_period() {
        let mut sys = SystemConfig::small_scale();
        sys.scrub_period = Some(1_000);
        let mut s =
            Scheme::try_build(&SchemeKind::vantage_paper(), &sys).expect("valid scheme config");
        for i in 0..5_000u64 {
            s.llc_mut().access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                vantage_cache::LineAddr(i % 700),
            ));
        }
        let scrubs = s.vantage().expect("unbanked Vantage").scrubs();
        assert!(scrubs >= 5, "scrub period not applied: {scrubs} scrubs");
    }

    #[test]
    fn vantage_only_settings_are_rejected_elsewhere() {
        type Set = fn(&mut SystemConfig);
        let settings: [(&str, Set); 2] = [
            ("check_invariants", |s| s.check_invariants = true),
            ("scrub_period", |s| s.scrub_period = Some(1_000)),
        ];
        for banks in [1, 4] {
            for (kind, _) in &kinds() {
                let unbanked_vantage = banks == 1 && matches!(kind, SchemeKind::Vantage { .. });
                for (field, set) in settings {
                    let mut sys = SystemConfig::small_scale();
                    sys.banks = banks;
                    set(&mut sys);
                    let got = Scheme::try_build(kind, &sys).err();
                    let want = (!unbanked_vantage).then_some(BuildError::VantageOnly(field));
                    assert_eq!(got, want, "{field} on {} x{banks}", kind.label());
                }
            }
        }
    }

    #[test]
    fn banked_priority_probe_samples_every_bank_demotion() {
        use vantage_telemetry::{RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
        let mut sys = SystemConfig::small_scale();
        sys.banks = 4;
        let mut s = Scheme::try_build(&SchemeKind::vantage_paper(), &sys).expect("valid config");
        s.llc_mut().enable_priority_probe();
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
        let samples = s.llc_mut().drain_priority_samples();
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
            s.llc_mut().drain_priority_samples().is_empty(),
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
