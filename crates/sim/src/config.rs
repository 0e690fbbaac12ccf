//! System and scheme configuration.

use vantage::VantageConfig;
use vantage_cache::ShareMode;

/// Cache array families available to schemes that are array-agnostic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrayKind {
    /// Hashed set-associative with `ways` ways.
    SetAssoc {
        /// Associativity.
        ways: usize,
    },
    /// A zcache with `ways` ways and `candidates` replacement candidates
    /// (Z4/52 is `ways: 4, candidates: 52`).
    Z {
        /// Physical ways.
        ways: usize,
        /// Replacement candidates per walk.
        candidates: usize,
    },
    /// Skew-associative with `ways` ways.
    Skew {
        /// Physical ways (one hash function each).
        ways: usize,
    },
    /// The idealized uniform-random-candidates array (§6.2 model check).
    Random {
        /// Candidates per replacement.
        candidates: usize,
    },
}

impl ArrayKind {
    /// The paper's Z4/52 configuration.
    pub const Z4_52: ArrayKind = ArrayKind::Z {
        ways: 4,
        candidates: 52,
    };
    /// The cheaper Z4/16 configuration (Fig. 10).
    pub const Z4_16: ArrayKind = ArrayKind::Z {
        ways: 4,
        candidates: 16,
    };
}

/// Replacement policy for the unpartitioned baseline (Fig. 6/7 baselines
/// and the RRIP comparison of Fig. 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineRank {
    /// Least-recently-used.
    Lru,
    /// Static RRIP.
    Srrip,
    /// Dynamic RRIP (bucket dueling).
    Drrip,
    /// Thread-aware dynamic RRIP.
    TaDrrip,
}

/// Which LLC scheme a simulation runs.
#[derive(Clone, Debug)]
pub enum SchemeKind {
    /// Unpartitioned shared cache; UCP is not engaged.
    Baseline {
        /// Array family.
        array: ArrayKind,
        /// Replacement policy.
        rank: BaselineRank,
    },
    /// Way-partitioning on the machine's set-associative geometry.
    WayPart,
    /// PIPP on the machine's set-associative geometry.
    Pipp,
    /// Vantage over `array` with `cfg`. With `drrip = true`, partitions run
    /// SRRIP/BRRIP chosen per interval by RRIP UMONs (Vantage-DRRIP, §6.2);
    /// `cfg.rank` must then be [`RankMode::Rrip`](vantage::RankMode::Rrip).
    Vantage {
        /// Array family.
        array: ArrayKind,
        /// Vantage controller configuration.
        cfg: VantageConfig,
        /// Enable per-partition SRRIP/BRRIP selection via RRIP UMONs.
        drrip: bool,
    },
}

impl SchemeKind {
    /// The paper's standard Vantage configuration: Z4/52, `u = 5%`,
    /// `A_max = 0.5`, `slack = 10%`, LRU.
    pub fn vantage_paper() -> Self {
        SchemeKind::Vantage {
            array: ArrayKind::Z4_52,
            cfg: VantageConfig::default(),
            drrip: false,
        }
    }

    /// Short display name for result tables.
    pub fn label(&self) -> String {
        match self {
            SchemeKind::Baseline { array, rank } => {
                format!("{}-{}", rank_label(*rank), array_label(*array))
            }
            SchemeKind::WayPart => "WayPart".into(),
            SchemeKind::Pipp => "PIPP".into(),
            SchemeKind::Vantage { array, drrip, .. } => {
                if *drrip {
                    format!("Vantage-DRRIP-{}", array_label(*array))
                } else {
                    format!("Vantage-{}", array_label(*array))
                }
            }
        }
    }
}

/// Which [`AllocationPolicy`](vantage_ucp::AllocationPolicy) drives
/// repartitioning on policy-managed schemes (everything but the
/// unpartitioned baselines). Selected via `--policy` in the experiments
/// CLI; [`EpochController`](crate::EpochController) instantiates it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// UCP/Lookahead (Qureshi & Patt) — the paper's evaluation policy.
    #[default]
    Ucp,
    /// Static equal shares (no monitoring).
    Equal,
    /// Miss-ratio equalization over UMON curves ("communist"; Hsu et al.).
    MissRatio,
    /// Per-partition minimum capacity plus weighted shares of the spare
    /// (LFOC/Memshare-style QoS allocation).
    Qos,
    /// LFOC-style clustering: tenants are bucketed by miss pressure into
    /// a bounded number of clusters, and targets are sized per cluster —
    /// the allocator for large churning populations.
    Clustered,
}

impl PolicyKind {
    /// Every selectable policy, in CLI order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Ucp,
        PolicyKind::Equal,
        PolicyKind::MissRatio,
        PolicyKind::Qos,
        PolicyKind::Clustered,
    ];

    /// Parses a `--policy` argument (`ucp`, `equal`, `missratio`, `qos`,
    /// `clustered`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ucp" => Some(Self::Ucp),
            "equal" => Some(Self::Equal),
            "missratio" => Some(Self::MissRatio),
            "qos" => Some(Self::Qos),
            "clustered" => Some(Self::Clustered),
            _ => None,
        }
    }

    /// The CLI/label spelling.
    pub fn label(self) -> &'static str {
        match self {
            Self::Ucp => "ucp",
            Self::Equal => "equal",
            Self::MissRatio => "missratio",
            Self::Qos => "qos",
            Self::Clustered => "clustered",
        }
    }
}

fn rank_label(r: BaselineRank) -> &'static str {
    match r {
        BaselineRank::Lru => "LRU",
        BaselineRank::Srrip => "SRRIP",
        BaselineRank::Drrip => "DRRIP",
        BaselineRank::TaDrrip => "TA-DRRIP",
    }
}

fn array_label(a: ArrayKind) -> String {
    match a {
        ArrayKind::SetAssoc { ways } => format!("SA{ways}"),
        ArrayKind::Z { ways, candidates } => format!("Z{ways}/{candidates}"),
        ArrayKind::Skew { ways } => format!("Skew{ways}"),
        ArrayKind::Random { candidates } => format!("Rand{candidates}"),
    }
}

/// An inconsistent [`SystemConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysConfigError {
    /// Zero cores.
    NoCores,
    /// L1 lines zero or not divisible by the way count.
    L1Geometry,
    /// L2 lines zero or not divisible by the way count.
    L2Geometry,
    /// Bank count zero, L2 lines not divisible by the bank count, or a
    /// per-bank shard not divisible by the way count.
    BankGeometry,
    /// Zero memory channels.
    NoMemChannels,
    /// Zero per-core instruction quota.
    NoInstructions,
    /// Zero repartitioning interval.
    NoRepartitionInterval,
}

impl std::fmt::Display for SysConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::NoCores => "need at least one core",
            Self::L1Geometry => "bad L1 geometry",
            Self::L2Geometry => "bad L2 geometry",
            Self::BankGeometry => "bad bank geometry",
            Self::NoMemChannels => "need at least one memory channel",
            Self::NoInstructions => "need a nonzero instruction quota",
            Self::NoRepartitionInterval => "need a nonzero repartition interval",
        })
    }
}

impl std::error::Error for SysConfigError {}

/// Machine parameters (Table 2, scaled run lengths).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of cores (= partitions; one per core).
    pub cores: usize,
    /// Private L1 size in lines (32 KB = 512 lines).
    pub l1_lines: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Shared L2 size in lines.
    pub l2_lines: usize,
    /// Baseline/way-scheme associativity; also the UMON way count.
    pub l2_ways: usize,
    /// Address-interleaved L2 banks. `1` (the default machines) keeps the
    /// monolithic LLC; larger values shard the cache into `banks` equal
    /// slices behind a steering hash (Table 2's "8 MB NUCA, 4 banks"),
    /// each running its own controller.
    pub banks: usize,
    /// L2 hit latency in cycles (L1-to-bank + bank).
    pub l2_latency: u64,
    /// Memory zero-load latency in cycles.
    pub mem_latency: u64,
    /// Independent memory channels.
    pub mem_channels: usize,
    /// Channel occupancy per line transfer, in cycles (bandwidth model).
    pub mem_cycles_per_line: u64,
    /// UCP repartitioning interval in cycles.
    pub repartition_interval: u64,
    /// Per-core instruction quota (IPC is measured over exactly this many).
    pub instructions: u64,
    /// Sampled UMON sets.
    pub umon_sets: usize,
    /// Master seed (hashes, workload draws, PIPP coins).
    pub seed: u64,
    /// The allocation policy driving repartitioning (see [`PolicyKind`]).
    pub policy: PolicyKind,
    /// Debug flag: verify the scheme's accounting invariants (an O(frames)
    /// tag scan) at every repartitioning boundary. A violation is repaired
    /// in place (scrub + warning + telemetry event) unless
    /// [`fail_fast_invariants`](Self::fail_fast_invariants) is set. Off by
    /// default — it is a correctness harness, not a model feature.
    pub check_invariants: bool,
    /// With [`check_invariants`](Self::check_invariants): treat a
    /// violation as a fatal simulation error instead of repairing it.
    pub fail_fast_invariants: bool,
    /// Run a Vantage recovery scrub every this many LLC accesses (see
    /// [`VantageLlc::scrub`](vantage::VantageLlc::scrub)). `None` disables
    /// scrubbing; only meaningful under fault injection.
    pub scrub_period: Option<u64>,
    /// How the LLC resolves cross-partition sharing (see [`ShareMode`]).
    /// [`ShareMode::Adopt`] reproduces the historical behavior
    /// bit-for-bit; applied to the scheme right after construction.
    pub share_mode: ShareMode,
}

impl SystemConfig {
    /// The 4-core machine (§5): 2 MB 16-way L2, 4 GB/s memory.
    ///
    /// Run length and repartitioning interval are scaled down ~20× from the
    /// paper's 200M instructions / 5M cycles so the full 350-mix sweep runs
    /// in minutes; pass larger values to approach paper scale.
    pub fn small_scale() -> Self {
        Self {
            cores: 4,
            l1_lines: 512,
            l1_ways: 4,
            l2_lines: 32 * 1024,
            l2_ways: 16,
            banks: 1,
            l2_latency: 12,
            mem_latency: 200,
            mem_channels: 1,
            mem_cycles_per_line: 32, // 64 B / (2 B/cycle) — 4 GB/s at 2 GHz
            repartition_interval: 250_000,
            instructions: 10_000_000,
            umon_sets: 64,
            seed: 0xFEED_F00D,
            policy: PolicyKind::Ucp,
            check_invariants: false,
            fail_fast_invariants: false,
            scrub_period: None,
            share_mode: ShareMode::Adopt,
        }
    }

    /// The 32-core machine (Table 2): 8 MB 64-way L2, 32 GB/s memory.
    pub fn large_scale() -> Self {
        Self {
            cores: 32,
            l1_lines: 512,
            l1_ways: 4,
            l2_lines: 128 * 1024,
            l2_ways: 64,
            banks: 1,
            l2_latency: 12,
            mem_latency: 200,
            mem_channels: 4,
            mem_cycles_per_line: 16, // 64 B / (4 B/cycle/channel) — 32 GB/s
            repartition_interval: 250_000,
            instructions: 2_000_000,
            umon_sets: 64,
            seed: 0xFEED_F00D,
            policy: PolicyKind::Ucp,
            check_invariants: false,
            fail_fast_invariants: false,
            scrub_period: None,
            share_mode: ShareMode::Adopt,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SysConfigError`] identifying the first inconsistency.
    pub fn try_validate(&self) -> Result<(), SysConfigError> {
        if self.cores == 0 {
            return Err(SysConfigError::NoCores);
        }
        if self.l1_lines == 0 || self.l1_ways == 0 || !self.l1_lines.is_multiple_of(self.l1_ways) {
            return Err(SysConfigError::L1Geometry);
        }
        if self.l2_lines == 0 || self.l2_ways == 0 || !self.l2_lines.is_multiple_of(self.l2_ways) {
            return Err(SysConfigError::L2Geometry);
        }
        if self.banks == 0
            || !self.l2_lines.is_multiple_of(self.banks)
            || !(self.l2_lines / self.banks).is_multiple_of(self.l2_ways)
        {
            return Err(SysConfigError::BankGeometry);
        }
        if self.mem_channels == 0 {
            return Err(SysConfigError::NoMemChannels);
        }
        if self.instructions == 0 {
            return Err(SysConfigError::NoInstructions);
        }
        if self.repartition_interval == 0 {
            return Err(SysConfigError::NoRepartitionInterval);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machines_are_consistent() {
        assert_eq!(SystemConfig::small_scale().try_validate(), Ok(()));
        assert_eq!(SystemConfig::large_scale().try_validate(), Ok(()));
        let small = SystemConfig::small_scale();
        assert_eq!(small.l2_lines * 64, 2 * 1024 * 1024, "2 MB L2");
        let large = SystemConfig::large_scale();
        assert_eq!(large.l2_lines * 64, 8 * 1024 * 1024, "8 MB L2");
        assert_eq!(large.cores, 32);
    }

    #[test]
    fn try_validate_identifies_the_broken_field() {
        let base = SystemConfig::small_scale();
        assert_eq!(base.try_validate(), Ok(()));
        type Case = (fn(&mut SystemConfig), SysConfigError);
        let cases: [Case; 8] = [
            (|s| s.cores = 0, SysConfigError::NoCores),
            (|s| s.l1_lines = 7, SysConfigError::L1Geometry),
            (|s| s.l2_ways = 0, SysConfigError::L2Geometry),
            (|s| s.banks = 0, SysConfigError::BankGeometry),
            // 32K lines over 3 banks does not divide evenly.
            (|s| s.banks = 3, SysConfigError::BankGeometry),
            (|s| s.mem_channels = 0, SysConfigError::NoMemChannels),
            (|s| s.instructions = 0, SysConfigError::NoInstructions),
            (
                |s| s.repartition_interval = 0,
                SysConfigError::NoRepartitionInterval,
            ),
        ];
        for (break_it, want) in cases {
            let mut sys = base.clone();
            break_it(&mut sys);
            assert_eq!(sys.try_validate(), Err(want));
        }
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(SchemeKind::vantage_paper().label(), "Vantage-Z4/52");
        assert_eq!(
            SchemeKind::Baseline {
                array: ArrayKind::SetAssoc { ways: 16 },
                rank: BaselineRank::Lru
            }
            .label(),
            "LRU-SA16"
        );
        assert_eq!(SchemeKind::WayPart.label(), "WayPart");
        assert_eq!(SchemeKind::Pipp.label(), "PIPP");
    }
}
