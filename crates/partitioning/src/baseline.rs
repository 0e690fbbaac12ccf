//! The unpartitioned baseline LLC: a plain shared cache with LRU or RRIP
//! replacement over any cache array.
//!
//! This is the cache all the paper's throughput figures normalize against
//! ("an unpartitioned 16-way set-associative L2 with LRU" in Fig. 6, 64-way
//! in Fig. 7) and, over a zcache array, the "LRU-Z4/52" configuration of
//! Fig. 6b. Partition IDs are still tracked so experiments can observe how
//! free-for-all sharing divides capacity, but targets are ignored.

use vantage_cache::{CacheArray, Frame, LineAddr, RripConfig, RripPolicy, TagMeta, Walk};
use vantage_snapshot::{Decoder, Encoder, Snapshot};

use crate::error::SchemeConfigError;
use crate::frame::{Mechanism, SchemeFrame};

/// Replacement ranking used by [`BaselineLlc`].
#[derive(Clone, Debug)]
pub enum RankPolicy {
    /// Exact least-recently-used (per-line access clocks).
    Lru,
    /// An RRIP variant (see [`RripConfig`]).
    Rrip(RripConfig),
}

/// The unpartitioned [`Mechanism`]: one cache-wide ranking, no targets.
pub enum Unpartitioned {
    /// Exact LRU needs full-width clocks; the shared stamp lane is unused.
    Lru {
        /// Per-frame access clocks.
        last: Vec<u64>,
        /// The cache-wide access clock.
        clock: u64,
    },
    /// RRPVs live in the shared [`TagMeta`] stamp lane.
    Rrip {
        /// Insertion/promotion policy and its set-dueling state.
        policy: RripPolicy,
    },
}

/// An unpartitioned shared cache.
///
/// # Example
///
/// ```
/// use vantage_cache::SetAssocArray;
/// use vantage_partitioning::{AccessRequest, BaselineLlc, Llc, PartitionId, RankPolicy};
///
/// let array = SetAssocArray::hashed(4096, 16, 1);
/// let mut llc = BaselineLlc::try_new(Box::new(array), 4, RankPolicy::Lru).expect("valid baseline geometry");
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x10.into()));
/// assert_eq!(llc.stats().misses[0], 1);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x10.into()));
/// assert_eq!(llc.stats().hits[0], 1);
/// ```
pub type BaselineLlc = SchemeFrame<Unpartitioned>;

impl BaselineLlc {
    /// Creates an unpartitioned cache over `array` serving `partitions`
    /// requestors with the given replacement `rank` policy. Rejects
    /// partition counts outside `1..=u16::MAX`.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeConfigError::BadPartitionCount`] for an invalid
    /// `partitions`.
    pub fn try_new(
        array: Box<dyn CacheArray>,
        partitions: usize,
        rank: RankPolicy,
    ) -> Result<Self, SchemeConfigError> {
        if partitions == 0 || partitions > u16::MAX as usize {
            return Err(SchemeConfigError::BadPartitionCount { partitions });
        }
        let mech = match rank {
            RankPolicy::Lru => Unpartitioned::Lru {
                last: vec![0; array.num_frames()],
                clock: 0,
            },
            RankPolicy::Rrip(cfg) => Unpartitioned::Rrip {
                policy: RripPolicy::new(cfg),
            },
        };
        Ok(SchemeFrame::new(array, partitions, mech))
    }
}

impl Unpartitioned {
    /// LRU: stamps `frame` with the next tick of the access clock.
    fn touch(last: &mut [u64], clock: &mut u64, frame: Frame) {
        *clock += 1;
        last[frame as usize] = *clock;
    }
}

impl Mechanism for Unpartitioned {
    type Array = dyn CacheArray;

    fn name(&self) -> &'static str {
        match self {
            Self::Lru { .. } => "Baseline-LRU",
            Self::Rrip { .. } => "Baseline-RRIP",
        }
    }

    fn on_hit(&mut self, meta: &mut TagMeta, f: Frame, _: usize, _: usize, _: bool) {
        match self {
            Self::Lru { last, clock } => Self::touch(last, clock, f),
            Self::Rrip { policy } => meta.set_ts(f as usize, policy.hit_rrpv()),
        }
    }

    fn note_miss(&mut self, part: usize, addr: LineAddr) {
        if let Self::Rrip { policy } = self {
            policy.note_miss(part, addr);
        }
    }

    fn select_victim(&mut self, meta: &mut TagMeta, walk: &Walk, _part: usize) -> usize {
        if let Some(i) = walk.first_empty() {
            return i;
        }
        match self {
            Self::Lru { last, .. } => walk
                .nodes
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| last[n.frame as usize])
                .map(|(i, _)| i)
                .expect("walk non-empty"),
            Self::Rrip { policy } => {
                let rrpvs = walk.nodes.iter().map(|n| meta.ts(n.frame as usize));
                let (victim, aging) = policy.select_victim(rrpvs);
                if aging > 0 {
                    let max = policy.max_rrpv();
                    for n in &walk.nodes {
                        let f = n.frame as usize;
                        let v = meta.ts(f);
                        meta.set_ts(f, v.saturating_add(aging).min(max));
                    }
                }
                victim
            }
        }
    }

    fn relocate(&mut self, from: Frame, to: Frame) {
        if let Self::Lru { last, .. } = self {
            last[to as usize] = last[from as usize];
        }
    }

    fn on_fill(&mut self, meta: &mut TagMeta, landing: Frame, part: usize, addr: LineAddr) {
        match self {
            Self::Lru { last, clock } => Self::touch(last, clock, landing),
            Self::Rrip { policy } => {
                meta.set_ts(landing as usize, policy.insertion_rrpv(part, addr));
            }
        }
    }

    fn save(&self, meta: &TagMeta, enc: &mut Encoder) {
        match self {
            Self::Lru { last, clock } => {
                enc.put_u8(0);
                enc.put_u64_slice(last);
                enc.put_u64(*clock);
            }
            Self::Rrip { policy } => {
                enc.put_u8(1);
                policy.save_state(enc);
                enc.put_u8_slice(meta.ts_lane());
            }
        }
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<Vec<u8>> {
        match (dec.take_u8()?, self) {
            (0, Self::Lru { last, clock }) => {
                let saved = dec.take_u64_vec()?;
                if saved.len() != last.len() {
                    return Err(dec.mismatch("LRU clock count differs from frame count"));
                }
                *last = saved;
                *clock = dec.take_u64()?;
                Ok(vec![0; last.len()])
            }
            (1, Self::Rrip { policy }) => {
                policy.load_state(dec)?;
                let rrpv = dec.take_u8_vec()?;
                let max = policy.max_rrpv();
                if rrpv.iter().any(|&v| v > max) {
                    return Err(dec.invalid("RRPV above configured maximum"));
                }
                Ok(rrpv)
            }
            (0 | 1, _) => Err(dec.mismatch("replacement policy kind differs from snapshot")),
            _ => Err(dec.invalid("unknown replacement-policy tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::{AccessOutcome, AccessRequest, Llc};
    use vantage_cache::{PartitionId, RripMode, SetAssocArray, ZArray};
    use vantage_telemetry::TelemetryEvent;

    fn lru_llc(frames: usize, ways: usize) -> BaselineLlc {
        BaselineLlc::try_new(
            Box::new(SetAssocArray::hashed(frames, ways, 3)),
            2,
            RankPolicy::Lru,
        )
        .expect("valid baseline geometry")
    }

    #[test]
    fn hit_after_miss() {
        let mut c = lru_llc(256, 4);
        assert_eq!(
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(1))),
            AccessOutcome::Miss
        );
        assert_eq!(
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(1))),
            AccessOutcome::Hit
        );
        assert_eq!(c.stats().hits[0], 1);
        assert_eq!(c.stats().misses[0], 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Modulo-indexed 1-set cache so we control the conflict pattern.
        let array = SetAssocArray::modulo(4, 4);
        let mut c = BaselineLlc::try_new(Box::new(array), 1, RankPolicy::Lru)
            .expect("valid baseline geometry");
        for i in 0..4u64 {
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        // Touch 0 to make 1 the LRU line.
        c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(0)));
        c.access(AccessRequest::read(
            PartitionId::from_index(0),
            LineAddr(100),
        )); // evicts 1
        assert_eq!(
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(0))),
            AccessOutcome::Hit
        );
        assert_eq!(
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(1))),
            AccessOutcome::Miss
        );
    }

    #[test]
    fn partition_sizes_track_ownership() {
        let mut c = lru_llc(256, 4);
        for i in 0..10u64 {
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        for i in 100..105u64 {
            c.access(AccessRequest::read(PartitionId::from_index(1), LineAddr(i)));
        }
        assert_eq!(c.partition_size(PartitionId::from_index(0)), 10);
        assert_eq!(c.partition_size(PartitionId::from_index(1)), 5);
        assert_eq!(c.capacity(), 256);
    }

    #[test]
    fn works_over_zcache_with_relocations() {
        let array = ZArray::new(512, 4, 16, 5);
        let mut c = BaselineLlc::try_new(Box::new(array), 1, RankPolicy::Lru)
            .expect("valid baseline geometry");
        // Drive enough traffic to force evictions with relocations.
        for i in 0..4096u64 {
            c.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(i % 700),
            ));
        }
        assert!(c.stats().evictions > 0);
        assert_eq!(
            c.partition_size(PartitionId::from_index(0)),
            c.array().occupancy() as u64
        );
        // Re-access a recently used window: mostly hits.
        let before = c.stats().hits[0];
        for i in 0..50u64 {
            c.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(i % 700),
            ));
        }
        assert!(c.stats().hits[0] > before);
    }

    #[test]
    fn rrip_baseline_runs() {
        let array = SetAssocArray::hashed(512, 16, 9);
        let cfg = RripConfig::paper(RripMode::Drrip, 2, 11);
        let mut c = BaselineLlc::try_new(Box::new(array), 2, RankPolicy::Rrip(cfg))
            .expect("valid baseline geometry");
        for i in 0..10_000u64 {
            c.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i % 1500),
            ));
        }
        let s = c.stats();
        assert!(s.total_hits() > 0);
        assert!(s.total_misses() > 0);
        assert_eq!(c.name(), "Baseline-RRIP");
    }

    #[test]
    fn try_new_rejects_bad_partition_counts() {
        let arr = || Box::new(SetAssocArray::hashed(64, 4, 1));
        assert!(matches!(
            BaselineLlc::try_new(arr(), 0, RankPolicy::Lru),
            Err(crate::SchemeConfigError::BadPartitionCount { partitions: 0 })
        ));
        assert!(BaselineLlc::try_new(arr(), 2, RankPolicy::Lru).is_ok());
    }

    #[test]
    fn zero_partitions_is_a_typed_error() {
        use crate::SchemeConfigError;
        let err = BaselineLlc::try_new(
            Box::new(SetAssocArray::hashed(64, 4, 1)),
            0,
            RankPolicy::Lru,
        )
        .err();
        assert_eq!(
            err,
            Some(SchemeConfigError::BadPartitionCount { partitions: 0 })
        );
    }

    #[test]
    fn telemetry_emits_samples_and_evictions() {
        use vantage_telemetry::{RingSink, Telemetry, TelemetryRecord};
        let mut c = lru_llc(64, 4);
        let (sink, reader) = RingSink::with_capacity(4096);
        assert!(c.set_telemetry(Telemetry::new(Box::new(sink), 100)));
        for i in 0..1000u64 {
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        let recs = reader.records();
        let samples = recs
            .iter()
            .filter(|r| matches!(r, TelemetryRecord::Sample(_)))
            .count();
        let evictions = recs
            .iter()
            .filter(|r| matches!(r, TelemetryRecord::Event(TelemetryEvent::Eviction { .. })))
            .count();
        assert!(samples > 0, "periodic samples recorded");
        assert!(evictions > 0, "eviction events recorded");
        assert!(c.take_telemetry().is_some());
        assert!(c.take_telemetry().is_none(), "handle removed");
    }

    #[test]
    fn take_stats_resets_counters() {
        let mut c = lru_llc(64, 4);
        c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(1)));
        c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(1)));
        let taken = c.take_stats();
        assert_eq!(taken.hits[0], 1);
        assert_eq!(taken.misses[0], 1);
        assert_eq!(c.stats().total_hits() + c.stats().total_misses(), 0);
    }

    #[test]
    fn eviction_counter_counts_only_replacements() {
        let mut c = lru_llc(64, 4);
        for i in 0..64u64 {
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        // At most capacity lines could have been installed without eviction.
        assert_eq!(c.stats().evictions, 0);
        for i in 64..256u64 {
            c.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        assert!(c.stats().evictions > 0);
    }
}
