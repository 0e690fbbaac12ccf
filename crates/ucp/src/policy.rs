//! The periodic UCP controller: monitors per-partition utility and emits
//! line-granularity capacity targets at each repartitioning interval.

use vantage_cache::apportion::largest_remainder;
use vantage_cache::LineAddr;

use crate::lookahead::{interpolate_curve, lookahead};
use crate::umon::Umon;

/// Allocation granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UcpGranularity {
    /// Whole ways — what way-partitioning and PIPP can enforce.
    Ways(u32),
    /// Fine-grain blocks (the paper interpolates UMON curves to 256 points
    /// for Vantage, §5).
    Fine {
        /// Number of allocation blocks the cache is divided into.
        blocks: u32,
    },
}

impl UcpGranularity {
    /// The number of units the allocator divides the cache into.
    fn blocks(self) -> u32 {
        match self {
            Self::Ways(w) => w,
            Self::Fine { blocks } => blocks,
        }
    }
}

/// Utility-based cache partitioning: one [`Umon`] per partition plus the
/// Lookahead allocator.
///
/// # Example
///
/// ```
/// use vantage_cache::LineAddr;
/// use vantage_ucp::{UcpGranularity, UcpPolicy};
///
/// let mut ucp = UcpPolicy::new(2, 16, 64, 2048, 32_768, UcpGranularity::Fine { blocks: 256 }, 1);
/// // Partition 0 re-uses a working set; partition 1 streams.
/// for i in 0..200_000u64 {
///     ucp.observe(0, LineAddr(i % 10_000));
///     ucp.observe(1, LineAddr(1 << 32 | i));
/// }
/// let targets = ucp.reallocate();
/// assert_eq!(targets.iter().sum::<u64>(), 32_768);
/// assert!(targets[0] > targets[1]); // utility goes where it helps
/// ```
#[derive(Clone, Debug)]
pub struct UcpPolicy {
    umons: Vec<Umon>,
    granularity: UcpGranularity,
    cache_lines: u64,
}

impl UcpPolicy {
    /// Creates the policy for `partitions` partitions over a cache of
    /// `cache_lines` lines.
    ///
    /// Each partition gets a UMON with `umon_ways` ways and `sampled_sets`
    /// sampled sets modeling `model_sets` total sets (the paper samples 64
    /// sets and matches `umon_ways` to the comparison schemes' way count).
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0` or the granularity cannot cover every
    /// partition with one block.
    pub fn new(
        partitions: usize,
        umon_ways: usize,
        sampled_sets: usize,
        model_sets: u32,
        cache_lines: u64,
        granularity: UcpGranularity,
        seed: u64,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        assert!(
            granularity.blocks() as usize >= partitions,
            "fewer blocks than partitions"
        );
        let umons = (0..partitions)
            .map(|p| {
                Umon::new(
                    umon_ways,
                    sampled_sets,
                    model_sets,
                    seed.wrapping_add(p as u64),
                )
            })
            .collect();
        Self {
            umons,
            granularity,
            cache_lines,
        }
    }

    /// Observes one LLC access by `part` (both hits and misses — the
    /// monitor models the partition owning the whole cache).
    #[inline]
    pub fn observe(&mut self, part: usize, addr: LineAddr) {
        self.umons[part].access(addr);
    }

    /// Direct access to a partition's monitor (e.g. for inspection).
    pub fn umon(&self, part: usize) -> &Umon {
        &self.umons[part]
    }

    /// Runs Lookahead on the current miss curves and returns per-partition
    /// targets in lines, summing to exactly the cache capacity. Counters
    /// are decayed afterwards so the next interval adapts to phase changes.
    pub fn reallocate(&mut self) -> Vec<u64> {
        self.reallocate_with(|curves, _, blocks| lookahead(curves, blocks, 1))
    }

    /// The curves → blocks → lines path every UMON-driven policy shares:
    /// `allocate` turns the miss curves (at the allocation granularity),
    /// the monitors and the block count into per-partition block counts;
    /// the blocks are then rounded to lines summing to the capacity, and
    /// the monitors decayed.
    pub(crate) fn reallocate_with(
        &mut self,
        allocate: impl FnOnce(&[Vec<u64>], &[Umon], u32) -> Vec<u32>,
    ) -> Vec<u64> {
        let blocks = self.granularity.blocks();
        let curves: Vec<Vec<u64>> = self
            .umons
            .iter()
            .map(|u| {
                let base = u.miss_curve();
                match self.granularity {
                    UcpGranularity::Ways(_) => base,
                    UcpGranularity::Fine { blocks } => interpolate_curve(&base, blocks),
                }
            })
            .collect();
        let alloc = allocate(&curves, &self.umons, blocks);
        for u in &mut self.umons {
            u.decay();
        }
        let lines = self.cache_lines;
        largest_remainder(
            lines,
            alloc
                .iter()
                .map(|&b| f64::from(b) * lines as f64 / f64::from(blocks)),
        )
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.umons.len()
    }
}

impl vantage_snapshot::Snapshot for UcpPolicy {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64(self.umons.len() as u64);
        for u in &self.umons {
            u.save_state(enc);
        }
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        if dec.take_u64()? != self.umons.len() as u64 {
            return Err(dec.mismatch("partition count differs"));
        }
        for u in &mut self.umons {
            u.load_state(dec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_policy::{AllocationPolicy, MissRatioEqualizer, PolicyInput};

    fn stream(ucp: &mut UcpPolicy, part: usize, ws: u64, n: u64) {
        let base = (part as u64 + 1) << 40;
        for i in 0..n {
            ucp.observe(part, LineAddr(base + (i % ws)));
        }
    }

    #[test]
    fn targets_sum_to_capacity_exactly() {
        for granularity in [
            UcpGranularity::Ways(16),
            UcpGranularity::Fine { blocks: 256 },
        ] {
            let mut ucp = UcpPolicy::new(4, 16, 64, 2048, 32_768, granularity, 2);
            for p in 0..4 {
                stream(&mut ucp, p, 5_000 * (p as u64 + 1), 100_000);
            }
            let t = ucp.reallocate();
            assert_eq!(t.iter().sum::<u64>(), 32_768, "granularity {granularity:?}");
        }
    }

    #[test]
    fn cache_friendly_beats_streaming() {
        let mut ucp = UcpPolicy::new(
            2,
            16,
            64,
            2048,
            32_768,
            UcpGranularity::Fine { blocks: 256 },
            3,
        );
        stream(&mut ucp, 0, 20_000, 300_000); // heavy reuse
        for i in 0..300_000u64 {
            ucp.observe(1, LineAddr((2u64 << 40) + i)); // pure stream
        }
        let t = ucp.reallocate();
        assert!(t[0] > 4 * t[1], "friendly {} vs streaming {}", t[0], t[1]);
    }

    #[test]
    fn fairness_goal_narrows_the_allocation_gap() {
        let build = || {
            UcpPolicy::new(
                2,
                16,
                64,
                2048,
                32_768,
                UcpGranularity::Fine { blocks: 256 },
                6,
            )
        };
        let observe = |ucp: &mut UcpPolicy| {
            stream(ucp, 0, 4_000, 300_000); // modest working set, big gains
            stream(ucp, 1, 60_000, 300_000); // larger set, shallower gains
        };
        let mut tput = build();
        observe(&mut tput);
        let t = tput.reallocate();

        // The equalizer wraps the same monitors; drive it through the
        // policy trait on an identical stream.
        let mut fair = MissRatioEqualizer::new(
            2,
            16,
            64,
            2048,
            32_768,
            UcpGranularity::Fine { blocks: 256 },
            6,
        );
        for (part, ws) in [(0usize, 4_000u64), (1, 60_000)] {
            let base = (part as u64 + 1) << 40;
            for i in 0..300_000u64 {
                fair.observe(part, LineAddr(base + (i % ws)));
            }
        }
        let zeros = [0u64; 2];
        let f = fair.reallocate(&PolicyInput {
            capacity: 32_768,
            actual: &zeros,
            hits: &zeros,
            misses: &zeros,
            churn: &zeros,
            insertions: &zeros,
            shared_hits: &[],
            ownership_transfers: &[],
            live: &[],
            arrived: &[],
            departed: &[],
        });

        assert_eq!(f.iter().sum::<u64>(), 32_768);
        let gap = |v: &[u64]| v[0].abs_diff(v[1]);
        assert!(
            gap(&f) <= gap(&t),
            "fairness should not widen the gap: fair {f:?} vs tput {t:?}"
        );
    }

    #[test]
    fn way_targets_are_way_multiples_fine_targets_are_not_constrained() {
        let observe_all = |ucp: &mut UcpPolicy| {
            stream(ucp, 0, 2_000, 150_000);
            stream(ucp, 1, 40_000, 300_000);
        };
        let mut ways = UcpPolicy::new(2, 16, 64, 2048, 32_768, UcpGranularity::Ways(16), 4);
        observe_all(&mut ways);
        let tw = ways.reallocate();
        assert_eq!(tw.iter().sum::<u64>(), 32_768);
        for &t in &tw {
            assert_eq!(
                t % 2048,
                0,
                "way-granularity target not a way multiple: {tw:?}"
            );
            assert!(t >= 2048, "way granularity cannot allocate below one way");
        }

        let mut fine = UcpPolicy::new(
            2,
            16,
            64,
            2048,
            32_768,
            UcpGranularity::Fine { blocks: 256 },
            4,
        );
        observe_all(&mut fine);
        let tf = fine.reallocate();
        assert_eq!(tf.iter().sum::<u64>(), 32_768);
        // The fine allocator works on a 128-line quantum; both allocators
        // must agree on who the capacity-hungry partition is.
        assert!(tf[1] > tf[0] && tw[1] > tw[0]);
    }

    #[test]
    fn repartitioning_adapts_after_phase_change() {
        let mut ucp = UcpPolicy::new(
            2,
            16,
            64,
            2048,
            32_768,
            UcpGranularity::Fine { blocks: 256 },
            5,
        );
        // Phase 1: partition 0 is the reuser.
        stream(&mut ucp, 0, 20_000, 200_000);
        for i in 0..200_000u64 {
            ucp.observe(1, LineAddr((2u64 << 40) + i));
        }
        let t1 = ucp.reallocate();
        assert!(t1[0] > t1[1]);
        // Phase 2: roles swap; decay lets the new phase win within a couple
        // of intervals.
        for _ in 0..3 {
            stream(&mut ucp, 1, 20_000, 200_000);
            for i in 0..200_000u64 {
                ucp.observe(0, LineAddr((3u64 << 40) + i));
            }
            ucp.reallocate();
        }
        stream(&mut ucp, 1, 20_000, 200_000);
        for i in 0..200_000u64 {
            ucp.observe(0, LineAddr((4u64 << 40) + i));
        }
        let t2 = ucp.reallocate();
        assert!(t2[1] > t2[0], "policy failed to adapt: {t2:?}");
    }
}
