//! The per-partition controller state of Fig. 4: target/actual sizes,
//! coarse timestamps, setpoints, candidate meters and the demotion
//! thresholds lookup table.

use vantage_cache::TsLru;

use crate::config::VantageConfig;
use crate::error::ConfigError;

/// The demotion thresholds lookup table (Fig. 3c).
///
/// Built once per resize, it discretizes the linear aperture transfer
/// function (Eq. 7) into `n` size ranges between the target `T` and
/// `(1 + slack)·T`; range `i` maps to a demotion count threshold
/// `c · A_max · (i+1)/n` per `c` candidates. Sizes at or below the target
/// map to no entry (aperture 0); sizes beyond the last range saturate at
/// `A_max`.
///
/// # Example
///
/// The paper's worked example — `T = 1000` lines, 10% slack,
/// `A_max = 0.5`, `c = 256`, 4 entries — produces thresholds
/// 32/64/96/128 over ranges 1000-1033 / 1034-1066 / 1067-1100 / 1101+:
///
/// ```
/// use vantage_partitioning::controller::ThresholdTable;
///
/// let t = ThresholdTable::try_new(1000, 0.1, 0.5, 256, 4).expect("valid controller parameters");
/// assert_eq!(t.threshold(1000), None);      // at target: aperture 0
/// assert_eq!(t.threshold(1020), Some(32));
/// assert_eq!(t.threshold(1050), Some(64));
/// assert_eq!(t.threshold(1090), Some(96));
/// assert_eq!(t.threshold(1500), Some(128)); // saturates at c·A_max
/// ```
#[derive(Clone, Debug)]
pub struct ThresholdTable {
    target: u64,
    /// Width of each size range in lines (at least 1).
    width: u64,
    a_max: f64,
    slack: f64,
    /// Candidates per feedback period (`c`).
    c: u32,
    /// Number of ranges; each entry's threshold depends only on `c`,
    /// `A_max` and this, so it is computed when read rather than stored.
    entries: usize,
}

impl ThresholdTable {
    /// Builds the table for a partition with `target` lines.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] identifying the first out-of-domain
    /// parameter.
    pub fn try_new(
        target: u64,
        slack: f64,
        a_max: f64,
        c: u32,
        entries: usize,
    ) -> Result<Self, ConfigError> {
        if slack.is_nan() || slack <= 0.0 {
            return Err(ConfigError::Slack(slack));
        }
        if a_max.is_nan() || a_max <= 0.0 || a_max > 1.0 {
            return Err(ConfigError::AMax(a_max));
        }
        if c == 0 {
            return Err(ConfigError::CandsPeriod(c));
        }
        if entries == 0 {
            return Err(ConfigError::TableEntries(entries));
        }
        Ok(Self::build(target, slack, a_max, c, entries))
    }

    /// Builds the table from parameters already checked — by
    /// [`Self::try_new`] or [`VantageConfig::try_validate`], whose domain
    /// is a subset of `try_new`'s.
    fn build(target: u64, slack: f64, a_max: f64, c: u32, entries: usize) -> Self {
        // Fig. 3c geometry: the slack span is split into `entries - 1`
        // ranges, with the last entry covering everything beyond
        // `(1 + slack)·T` at the saturated `A_max` threshold.
        let span = (slack * target as f64).round() as u64;
        let width = (span / (entries as u64 - 1).max(1)).max(1);
        Self {
            target,
            width,
            a_max,
            slack,
            c,
            entries,
        }
    }

    /// The demotion count threshold (per `c` candidates) for a partition of
    /// `actual` lines, or `None` when at or below target (aperture 0).
    pub fn threshold(&self, actual: u64) -> Option<u32> {
        if actual <= self.target {
            return None;
        }
        let idx = (((actual - self.target - 1) / self.width) as usize).min(self.entries - 1);
        Some(
            (f64::from(self.c) * self.a_max * (idx + 1) as f64 / self.entries as f64).round()
                as u32,
        )
    }

    /// The continuous aperture of Eq. 7 at `actual` lines — what the
    /// idealized (perfect-knowledge) controller uses directly.
    pub fn aperture(&self, actual: u64) -> f64 {
        if actual <= self.target {
            return 0.0;
        }
        if self.target == 0 {
            // Draining partition: demote everything allowed.
            return self.a_max;
        }
        let overshoot = (actual - self.target) as f64 / (self.slack * self.target as f64);
        (self.a_max * overshoot).min(self.a_max)
    }

    /// The target this table was built for.
    pub fn target(&self) -> u64 {
        self.target
    }
}

/// What the candidate meter says about the last `c` candidates. As an
/// `i8` it is the direction telemetry reports the keep window moved in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(i8)]
pub enum Feedback {
    /// More demotions than the table threshold: open the keep window.
    TooMany = 1,
    /// Fewer demotions than the threshold: tighten the keep window.
    TooFew = -1,
    /// Exactly on the threshold, or the partition is at/below target.
    OnTarget = 0,
}

/// Per-partition controller registers (Fig. 4).
///
/// Mirrors the hardware state: `TargetSize`, `CurrentTS` +
/// `AccessCounter` (inside [`TsLru`]), `SetpointTS`, `CandsSeen` and
/// `CandsDemoted`. The RRIP variant reuses the setpoint register as a
/// setpoint RRPV. `ActualSize` is the cache's size lane; the methods that
/// read it take it as an argument. The thresholds table depends only on
/// the target and the cache-wide [`VantageConfig`], so it is derived where
/// it is read ([`Self::table`]) rather than stored: 32 B per partition.
#[derive(Clone, Debug)]
pub struct PartitionState {
    /// Target size in lines (`TargetSize`).
    pub target: u64,
    /// `CurrentTS` and `AccessCounter`.
    pub lru: TsLru,
    /// `SetpointTS` — lines stamped outside `(setpoint, current]` are
    /// demotion candidates (Fig. 3b).
    pub setpoint: u8,
    /// Setpoint RRPV for [`RankMode::Rrip`](crate::RankMode::Rrip): lines
    /// with RRPV at or above it are demotion candidates.
    pub setpoint_rrpv: u8,
    /// Candidates seen since the last adjustment (`CandsSeen`).
    pub cands_seen: u32,
    /// Of those, how many were demoted (`CandsDemoted`).
    pub cands_demoted: u32,
}

impl PartitionState {
    /// Creates the state for a partition with the given `target`, whose
    /// RRIP setpoint starts at `max_rrpv`.
    pub fn new(target: u64, max_rrpv: u8) -> Self {
        Self {
            target,
            lru: TsLru::for_size(target.max(16)),
            // Start mid-window: keep the newest half of timestamps.
            setpoint: 0u8.wrapping_sub(128),
            setpoint_rrpv: max_rrpv, // initially demote only "distant" lines
            cands_seen: 0,
            cands_demoted: 0,
        }
    }

    /// The demotion thresholds lookup table for the current target under
    /// `cfg` (a configuration [`VantageConfig::try_validate`] accepted).
    #[inline]
    pub fn table(&self, cfg: &VantageConfig) -> ThresholdTable {
        ThresholdTable::build(
            self.target,
            cfg.slack,
            cfg.a_max,
            cfg.cands_period,
            cfg.table_entries,
        )
    }

    /// The keep window in timestamp units: `CurrentTS - SetpointTS`
    /// (modulo 256). Lines older than this are demotion candidates.
    #[inline]
    pub fn keep_window(&self) -> u8 {
        self.lru.current().wrapping_sub(self.setpoint)
    }

    /// Whether a line of this partition stamped `ts` falls outside the
    /// keep window that `setpoint` opens (Fig. 3b) — the setpoint-demotion
    /// test under LRU ranking. The candidate scan passes the setpoint as
    /// it stood when the walk started, not always the live one. A stale
    /// line is demoted only while the partition is over its target; the
    /// scan checks that live, per candidate.
    #[inline]
    pub(crate) fn is_stale(&self, ts: u8, setpoint: u8) -> bool {
        self.lru.age(ts) > self.lru.current().wrapping_sub(setpoint)
    }

    /// Records one access (hit or insertion) to a partition of `actual`
    /// lines: advances the setpoint in lockstep when the current timestamp
    /// advances, keeping the window constant, and re-derives the timestamp
    /// period from the actual size.
    /// Returns the timestamp to stamp the line with and whether the coarse
    /// clock ticked on this access.
    ///
    /// The tick is the moment resident lines stamped a full 256 ticks ago
    /// start aliasing into age 0; callers must pin those stamps (see
    /// `TagMeta::clamp_stale`) before any line is stamped with the new
    /// current value, or stale lines re-enter the keep window and dodge
    /// demotion indefinitely.
    ///
    /// The period is only re-derived at timestamp advances (once per
    /// `period` accesses) rather than on every access: the `size/16` rule
    /// then lags a size change by at most one tick, which is within the
    /// coarse-timestamp scheme's own resolution, and the access hot path
    /// sheds a division.
    pub fn on_access_advanced(&mut self, actual: u64) -> (u8, bool) {
        let advanced = self.lru.on_access();
        if advanced {
            self.setpoint = self.setpoint.wrapping_add(1);
            self.lru.set_period_for_size(actual.max(16));
        }
        (self.lru.current(), advanced)
    }

    /// Meters one candidate seen (`demoted` says whether it was demoted)
    /// and returns whether the `c`-candidate period is complete, i.e.
    /// whether [`Self::adjust_setpoint`] is due.
    ///
    /// Split from the adjustment so the counting half (two increments and
    /// a compare) inlines into the candidate loop — the single hottest
    /// call site in the controller — while the feedback runs out of line
    /// once per `c = 256` candidates.
    #[inline]
    pub(crate) fn meter(&mut self, demoted: bool, c: u32) -> bool {
        self.cands_seen += 1;
        self.cands_demoted += u32::from(demoted);
        self.cands_seen >= c
    }

    /// The every-`c`-candidates feedback step (see [`Self::meter`]) for a
    /// partition of `actual` lines: compares the metered demotion count
    /// against the thresholds table `cfg` gives the target, nudges the
    /// setpoint, resets the meters and returns the feedback applied.
    #[cold]
    pub(crate) fn adjust_setpoint(
        &mut self,
        cfg: &VantageConfig,
        max_rrpv: u8,
        actual: u64,
    ) -> Feedback {
        // At or below target the aperture is 0, so the threshold is 0: any
        // demotions counted while transiently over target are "too many".
        // Keeping the comparison symmetric here is what stops the keep
        // window from ratcheting tight on partitions whose equilibrium
        // demotion rate is below the smallest table step.
        let thr = self.table(cfg).threshold(actual).unwrap_or(0);
        let fb = if self.cands_demoted > thr {
            Feedback::TooMany
        } else if self.cands_demoted < thr {
            Feedback::TooFew
        } else {
            Feedback::OnTarget
        };
        match fb {
            Feedback::TooMany => {
                // Widen the keep window (move the setpoint back), demoting
                // less; the RRIP setpoint instead moves up.
                if self.keep_window() < u8::MAX {
                    self.setpoint = self.setpoint.wrapping_sub(1);
                }
                if self.setpoint_rrpv <= max_rrpv {
                    self.setpoint_rrpv += 1; // max+1 demotes nothing
                }
            }
            Feedback::TooFew => {
                if self.keep_window() > 0 {
                    self.setpoint = self.setpoint.wrapping_add(1);
                }
                self.setpoint_rrpv = self.setpoint_rrpv.saturating_sub(1);
            }
            Feedback::OnTarget => {}
        }
        self.cands_seen = 0;
        self.cands_demoted = 0;
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(target: u64) -> PartitionState {
        PartitionState::new(target, 7)
    }

    /// Meters one candidate of a partition holding `actual` lines,
    /// adjusting at the end of a 256-candidate period as the candidate
    /// scan does.
    fn note(s: &mut PartitionState, actual: u64, demoted: bool) -> Option<Feedback> {
        s.meter(demoted, 256)
            .then(|| s.adjust_setpoint(&VantageConfig::default(), 7, actual))
    }

    #[test]
    fn partition_state_stores_no_table() {
        // Registers only: the thresholds table is derived from the target.
        assert_eq!(std::mem::size_of::<PartitionState>(), 32);
        let cfg = VantageConfig::default();
        let mut s = state(1000);
        assert_eq!(s.table(&cfg).target(), 1000);
        s.target = 2000;
        assert_eq!(s.table(&cfg).threshold(2500), Some(128));
    }

    #[test]
    fn paper_fig3c_table() {
        let t =
            ThresholdTable::try_new(1000, 0.1, 0.5, 256, 4).expect("valid controller parameters");
        // Range boundaries from Fig. 3c (1-line shifts from rounding the
        // 33.3-line width are acceptable; check interior points).
        assert_eq!(t.threshold(999), None);
        assert_eq!(t.threshold(1010), Some(32));
        assert_eq!(t.threshold(1040), Some(64));
        assert_eq!(t.threshold(1070), Some(96));
        assert_eq!(t.threshold(1101), Some(128));
        assert_eq!(t.threshold(9999), Some(128));
    }

    #[test]
    fn aperture_transfer_function() {
        let t =
            ThresholdTable::try_new(1000, 0.1, 0.5, 256, 8).expect("valid controller parameters");
        assert_eq!(t.aperture(900), 0.0);
        assert_eq!(t.aperture(1000), 0.0);
        let mid = t.aperture(1050);
        assert!((mid - 0.25).abs() < 1e-9, "midpoint aperture {mid}");
        assert_eq!(t.aperture(1100), 0.5);
        assert_eq!(t.aperture(5000), 0.5, "saturates at A_max");
    }

    #[test]
    fn zero_target_drains_at_max_aperture() {
        let t = ThresholdTable::try_new(0, 0.1, 0.5, 256, 8).expect("valid controller parameters");
        assert_eq!(t.aperture(1), 0.5);
        // With a zero target the ranges are 1 line wide: any size beyond the
        // table saturates at the c·A_max threshold.
        assert_eq!(t.threshold(9), t.threshold(u64::MAX));
        assert_eq!(t.threshold(u64::MAX), Some(128));
    }

    #[test]
    fn stale_means_outside_the_keep_window() {
        // The over-target half of the demotion test is the scan's (see
        // `llc::tests::demote_only_when_over_target`).
        let mut s = state(100);
        // Lines older than the keep window (128) are stale.
        assert_eq!(s.keep_window(), 128);
        let cur = s.lru.current();
        assert!(s.is_stale(cur.wrapping_sub(200), s.setpoint));
        assert!(s.is_stale(cur.wrapping_sub(129), s.setpoint));
        assert!(!s.is_stale(cur.wrapping_sub(128), s.setpoint));
        assert!(!s.is_stale(cur, s.setpoint));
        // The window moves with the clock: a tick ages every stamp by one.
        while !s.on_access_advanced(0).1 {}
        assert!(s.is_stale(cur.wrapping_sub(128), s.setpoint));
    }

    #[test]
    fn setpoint_tracks_timestamp_advances() {
        let mut s = state(64);
        let actual = 64;
        let w0 = s.keep_window();
        // 16-line period for a 64-line partition is 4 accesses... drive
        // enough accesses to advance the timestamp several times.
        for _ in 0..64 {
            s.on_access_advanced(actual);
        }
        assert_eq!(
            s.keep_window(),
            w0,
            "window must stay constant across TS advances"
        );
    }

    #[test]
    fn feedback_widens_on_too_many() {
        let mut s = state(100);
        let actual = 150; // far over target: threshold = 128 of 256
        let w0 = s.keep_window();
        // Demote every candidate: way over any threshold.
        let mut fb = None;
        for _ in 0..256 {
            fb = note(&mut s, actual, true);
        }
        assert_eq!(fb, Some(Feedback::TooMany));
        assert_eq!(s.keep_window(), w0 + 1, "keep window must widen");
        assert_eq!((s.cands_seen, s.cands_demoted), (0, 0), "meters reset");
    }

    #[test]
    fn feedback_tightens_on_too_few() {
        let mut s = state(100);
        let actual = 150;
        let w0 = s.keep_window();
        let mut fb = None;
        for _ in 0..256 {
            fb = note(&mut s, actual, false);
        }
        assert_eq!(fb, Some(Feedback::TooFew));
        assert_eq!(s.keep_window(), w0 - 1);
    }

    #[test]
    fn feedback_idle_below_target() {
        let mut s = state(100);
        let actual = 50;
        let w0 = s.keep_window();
        let mut fb = None;
        for _ in 0..256 {
            fb = note(&mut s, actual, false);
        }
        assert_eq!(fb, Some(Feedback::OnTarget));
        assert_eq!(s.keep_window(), w0);
    }

    #[test]
    fn rrpv_setpoint_moves_oppositely() {
        let mut s = state(100);
        let actual = 150;
        let r0 = s.setpoint_rrpv;
        for _ in 0..256 {
            note(&mut s, actual, true);
        }
        assert_eq!(
            s.setpoint_rrpv,
            r0 + 1,
            "too many demotions raise the RRPV bar"
        );
        for _ in 0..512 {
            note(&mut s, actual, false);
        }
        assert!(s.setpoint_rrpv < r0 + 1);
    }

    #[test]
    fn window_saturates() {
        let mut s = state(100);
        let actual = 200;
        // Tighten for a long time: window must stop at 0, not wrap.
        for _ in 0..(300 * 256) {
            note(&mut s, actual, false);
        }
        assert_eq!(s.keep_window(), 0);
        // Widen for a long time: window stops at 255.
        for _ in 0..(300 * 256) {
            note(&mut s, actual, true);
        }
        assert_eq!(s.keep_window(), 255);
    }
}
