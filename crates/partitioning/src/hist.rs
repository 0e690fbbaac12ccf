//! The timestamp histograms behind way-partitioning's eviction-priority
//! probe.
//!
//! The paper's associativity heat maps (Fig. 8) plot, over time, the
//! *eviction priority* of each evicted or demoted line: its rank among the
//! lines of its partition under the replacement policy, normalized to
//! `[0, 1]` (1.0 = the line the policy most wants gone). With 8-bit coarse
//! timestamps a 256-bucket histogram gives the rank to within a timestamp
//! quantum ([`vantage_cache::stamp_rank`]).
//!
//! Way-partitioning's probe keeps its own coarse clocks, allocated when the
//! probe is enabled, so it needs these histograms. Vantage needs none: its
//! tags already carry the stamps, and it reads ranks from the tag store's
//! (partition, stamp) count rows ([`vantage_cache::TagMeta::stamp_counts`]).

use vantage_cache::stamp_rank;

/// A histogram of 8-bit timestamps for one partition: way-partitioning's
/// priority probe.
///
/// # Example
///
/// ```
/// use vantage_partitioning::TsHistogram;
///
/// let mut h = TsHistogram::new();
/// h.add(10);
/// h.add(11);
/// h.add(12);
/// // With current time 12, the line stamped 10 is the oldest of the 3:
/// // both other lines are strictly younger (2 of 3), and the line itself
/// // counts as half a tie, so its rank is (2 + 1/2) / 3 = 5/6.
/// assert_eq!(h.rank(10, 12), 5.0 / 6.0);
/// ```
#[derive(Clone)]
pub struct TsHistogram {
    counts: [u32; 256],
    total: u64,
}

impl Default for TsHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl TsHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; 256],
            total: 0,
        }
    }

    /// Records a line stamped `ts`.
    #[inline]
    pub fn add(&mut self, ts: u8) {
        self.counts[ts as usize] += 1;
        self.total += 1;
    }

    /// Removes a line stamped `ts`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no line with `ts` is recorded.
    #[inline]
    pub fn remove(&mut self, ts: u8) {
        debug_assert!(
            self.counts[ts as usize] > 0,
            "histogram underflow at ts {ts}"
        );
        self.counts[ts as usize] = self.counts[ts as usize].saturating_sub(1);
        self.total = self.total.saturating_sub(1);
    }

    /// Number of lines recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of lines recorded with timestamp `ts`.
    pub fn count(&self, ts: u8) -> u32 {
        self.counts[ts as usize]
    }

    /// The eviction-priority rank of a line stamped `ts` when the domain's
    /// current timestamp is `current` ([`stamp_rank`] over this histogram).
    /// Returns 0.5 for an empty histogram.
    pub fn rank(&self, ts: u8, current: u8) -> f64 {
        stamp_rank(&self.counts, self.total, ts, current)
    }

    /// The count-weighted p-quantile age (0.0 = youngest, 1.0 = oldest),
    /// in timestamp units relative to `current`. Useful for tests.
    pub fn age_quantile(&self, p: f64, current: u8) -> u8 {
        let target = (p.clamp(0.0, 1.0) * self.total as f64) as u64;
        let mut seen = 0u64;
        for a in 0..=255u8 {
            seen += u64::from(self.counts[current.wrapping_sub(a) as usize]);
            if seen > target {
                return a;
            }
        }
        255
    }
}

impl std::fmt::Debug for TsHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsHistogram")
            .field("total", &self.total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_orders_by_age() {
        let mut h = TsHistogram::new();
        // Stamps 0 (oldest) .. 9 (youngest), current = 9.
        for ts in 0..10u8 {
            h.add(ts);
        }
        let oldest = h.rank(0, 9);
        let mid = h.rank(5, 9);
        let youngest = h.rank(9, 9);
        assert!(oldest > mid && mid > youngest);
        assert!((oldest - 0.95).abs() < 1e-9, "oldest rank {oldest}");
        assert!((youngest - 0.05).abs() < 1e-9, "youngest rank {youngest}");
    }

    #[test]
    fn rank_is_exact_with_ties_counted_as_half() {
        let mut h = TsHistogram::new();
        h.add(10);
        h.add(11);
        h.add(12);
        // Unique stamps, current = 12: rank(ts) = (#younger + 1/2) / 3.
        assert_eq!(h.rank(10, 12), (2.0 + 0.5) / 3.0);
        assert_eq!(h.rank(11, 12), (1.0 + 0.5) / 3.0);
        assert_eq!(h.rank(12, 12), 0.5 / 3.0);
        // A tie splits: two lines at the oldest stamp share rank
        // (#younger + #ties/2) / total.
        h.add(10);
        assert_eq!(h.rank(10, 12), (2.0 + 1.0) / 4.0);
        // Ranks of populated stamps always lie strictly inside (0, 1): even
        // the youngest line carries half its own tie weight, and the oldest
        // still donates half of its own.
        for ts in [10u8, 11, 12] {
            let r = h.rank(ts, 12);
            assert!(r > 0.0 && r < 1.0, "rank({ts}) = {r} out of bounds");
        }
    }

    #[test]
    fn rank_handles_wraparound() {
        let mut h = TsHistogram::new();
        // Current = 2; stamps 250..=255 are older than stamps 0..=2.
        for ts in [250u8, 255, 0, 1, 2] {
            h.add(ts);
        }
        assert!(h.rank(250, 2) > h.rank(255, 2));
        assert!(h.rank(255, 2) > h.rank(1, 2));
    }

    #[test]
    fn empty_histogram_rank_is_half() {
        let h = TsHistogram::new();
        assert_eq!(h.rank(3, 7), 0.5);
    }

    #[test]
    fn age_quantile_finds_median() {
        let mut h = TsHistogram::new();
        for ts in 0..100u8 {
            h.add(ts);
        }
        let median_age = h.age_quantile(0.5, 99);
        assert!((45..=55).contains(&median_age), "median age {median_age}");
    }
}
