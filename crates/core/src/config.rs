//! Vantage configuration.

use crate::error::ConfigError;
use crate::model::sizing;

/// How demotion decisions are made on each replacement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemotionMode {
    /// The practical controller (§4.2): a per-partition setpoint timestamp,
    /// adjusted every `cands_period` candidates against the demotion
    /// thresholds lookup table. This is real-hardware Vantage.
    Setpoint,
    /// The idealized controller the paper uses to validate its models
    /// (§6.2): feedback-based apertures (Eq. 7) applied with perfect
    /// knowledge of every candidate's eviction priority.
    PerfectAperture,
    /// The strawman of Fig. 2b: demote *exactly one* line per eviction —
    /// the oldest candidate among over-target partitions — instead of
    /// demoting on average. Sizes still hold, but demotions hit much
    /// younger lines (worse associativity); implemented as an ablation.
    ExactlyOne,
}

/// The base replacement policy ranking lines within partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankMode {
    /// Coarse-timestamp LRU with 8-bit per-partition timestamps (§4.2).
    Lru,
    /// RRIP re-reference prediction values; the per-partition setpoint
    /// becomes a setpoint RRPV (§6.2, "Vantage-DRRIP"). `bits` is the RRPV
    /// width (the paper uses 3).
    Rrip {
        /// RRPV width in bits.
        bits: u8,
    },
}

/// Configuration of a [`VantageLlc`](crate::VantageLlc).
///
/// The defaults are the configuration used for all of the paper's
/// throughput results (§6.1): `u = 5%`, `A_max = 0.5`, `slack = 10%`,
/// LRU ranking, setpoint-based demotions with `c = 256` candidates, and an
/// 8-entry demotion thresholds table.
#[derive(Clone, Debug)]
pub struct VantageConfig {
    /// Fraction of the cache kept unmanaged (`u`).
    pub unmanaged_fraction: f64,
    /// Maximum aperture (`A_max`).
    pub a_max: f64,
    /// Feedback slack: apertures ramp from 0 to `A_max` as a partition grows
    /// from its target to `(1 + slack)` times it (Eq. 7).
    pub slack: f64,
    /// Demotion decision mechanism.
    pub demotion_mode: DemotionMode,
    /// Base replacement policy.
    pub rank: RankMode,
    /// Entries in the demotion thresholds lookup table.
    pub table_entries: usize,
    /// Candidates seen from a partition between setpoint adjustments (`c`).
    pub cands_period: u32,
    /// Churn throttling (§3.4, stability option 2): when a partition's
    /// aperture is saturated at `A_max`, insert its incoming lines directly
    /// into the unmanaged region instead of letting it outgrow its target.
    /// The paper's chosen design leaves this off (partitions borrow from
    /// the unmanaged region up to their minimum stable sizes); enabling it
    /// trades some hit rate in high-churn partitions for tighter sizing.
    pub churn_throttling: bool,
}

impl Default for VantageConfig {
    fn default() -> Self {
        Self {
            unmanaged_fraction: 0.05,
            a_max: 0.5,
            slack: 0.1,
            demotion_mode: DemotionMode::Setpoint,
            rank: RankMode::Lru,
            table_entries: 8,
            cands_period: 256,
            churn_throttling: false,
        }
    }
}

impl VantageConfig {
    /// Derives a configuration from isolation requirements using the §4.3
    /// sizing rule: given the array's candidate count `r` and a worst-case
    /// managed-eviction probability `p_ev`, computes the unmanaged fraction
    /// analytically.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first out-of-domain
    /// parameter, or [`ConfigError::NoManagedSpace`] when the requirements
    /// are infeasible (the rule asking for `u >= 1`).
    ///
    /// # Example
    ///
    /// ```
    /// use vantage::VantageConfig;
    ///
    /// // Strong isolation on a Z4/52: ~21% unmanaged (paper §4.3).
    /// let cfg = VantageConfig::try_for_guarantees(52, 1e-4, 0.4, 0.1).expect("feasible");
    /// assert!(cfg.unmanaged_fraction > 0.19 && cfg.unmanaged_fraction < 0.23);
    /// ```
    pub fn try_for_guarantees(
        r: u32,
        p_ev: f64,
        a_max: f64,
        slack: f64,
    ) -> Result<Self, ConfigError> {
        if r == 0 {
            return Err(ConfigError::CandidateCount(r));
        }
        if !(p_ev > 0.0 && p_ev <= 1.0) {
            return Err(ConfigError::EvictionProbability(p_ev));
        }
        if !(a_max > 0.0 && a_max <= 1.0) {
            return Err(ConfigError::AMax(a_max));
        }
        if slack <= 0.0 {
            return Err(ConfigError::Slack(slack));
        }
        let u = sizing::unmanaged_fraction(r, p_ev, a_max, slack);
        if u >= 1.0 {
            return Err(ConfigError::NoManagedSpace {
                unmanaged_fraction: u,
            });
        }
        Ok(Self {
            unmanaged_fraction: u,
            a_max,
            slack,
            ..Self::default()
        })
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] identifying the first out-of-range field.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if !(self.unmanaged_fraction > 0.0 && self.unmanaged_fraction < 1.0) {
            return Err(ConfigError::UnmanagedFraction(self.unmanaged_fraction));
        }
        if !(self.a_max > 0.0 && self.a_max <= 1.0) {
            return Err(ConfigError::AMax(self.a_max));
        }
        if self.slack.is_nan() || self.slack <= 0.0 {
            return Err(ConfigError::Slack(self.slack));
        }
        if !(1..=64).contains(&self.table_entries) {
            return Err(ConfigError::TableEntries(self.table_entries));
        }
        if self.cands_period < 8 {
            return Err(ConfigError::CandsPeriod(self.cands_period));
        }
        if let RankMode::Rrip { bits } = self.rank {
            if !(1..=7).contains(&bits) {
                return Err(ConfigError::RrpvBits(bits));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_evaluation() {
        let c = VantageConfig::default();
        assert_eq!(c.unmanaged_fraction, 0.05);
        assert_eq!(c.a_max, 0.5);
        assert_eq!(c.slack, 0.1);
        assert_eq!(c.demotion_mode, DemotionMode::Setpoint);
        assert_eq!(c.rank, RankMode::Lru);
        assert_eq!(c.table_entries, 8);
        assert_eq!(c.cands_period, 256);
        assert!(
            !c.churn_throttling,
            "the paper's design lets partitions borrow"
        );
        assert_eq!(c.try_validate(), Ok(()));
    }

    #[test]
    fn guarantees_constructor_moderate_isolation() {
        // Moderate isolation (P_ev = 1e-2) on Z4/52: ~13%.
        let cfg = VantageConfig::try_for_guarantees(52, 1e-2, 0.4, 0.1).expect("feasible");
        assert!(cfg.unmanaged_fraction > 0.11 && cfg.unmanaged_fraction < 0.15);
        assert_eq!(cfg.try_validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "NoManagedSpace")]
    fn too_few_candidates_cannot_meet_guarantees() {
        // The flip side of "associativity depends on candidates": a plain
        // 4-way skew-associative cache (R = 4) cannot host Vantage with
        // meaningful isolation — the sizing rule demands more than the
        // whole cache be unmanaged. This is why the paper pairs Vantage
        // with zcaches (R = 16/52) rather than raw skew caches.
        VantageConfig::try_for_guarantees(4, 1e-2, 0.5, 0.1).unwrap();
    }

    #[test]
    #[should_panic(expected = "AMax")]
    fn invalid_a_max_rejected() {
        let cfg = VantageConfig {
            a_max: 0.0,
            ..VantageConfig::default()
        };
        cfg.try_validate().unwrap();
    }

    #[test]
    fn nan_slack_rejected() {
        // Partition controllers build their thresholds tables from a
        // validated config without re-checking it.
        let cfg = VantageConfig {
            slack: f64::NAN,
            ..VantageConfig::default()
        };
        assert!(matches!(cfg.try_validate(), Err(ConfigError::Slack(_))));
    }

    #[test]
    #[should_panic(expected = "UnmanagedFraction")]
    fn invalid_u_rejected() {
        let cfg = VantageConfig {
            unmanaged_fraction: 1.0,
            ..VantageConfig::default()
        };
        cfg.try_validate().unwrap();
    }
}
