//! The unpartitioned baseline LLC: a plain shared cache with LRU or RRIP
//! replacement over any cache array.
//!
//! This is the cache all the paper's throughput figures normalize against
//! ("an unpartitioned 16-way set-associative L2 with LRU" in Fig. 6, 64-way
//! in Fig. 7) and, over a zcache array, the "LRU-Z4/52" configuration of
//! Fig. 6b. Partition IDs are still tracked so experiments can observe how
//! free-for-all sharing divides capacity, but targets are ignored.

use vantage_cache::{
    CacheArray, Frame, Ownership, PartitionId, RripConfig, RripPolicy, ShareMode, TagMeta, Walk,
    TAG_UNMANAGED,
};
use vantage_telemetry::{PartitionSample, Telemetry, TelemetryEvent};

use crate::error::SchemeConfigError;
use crate::llc::{AccessOutcome, AccessRequest, Llc, LlcStats, PartitionObservations};

/// Replacement ranking used by [`BaselineLlc`].
#[derive(Clone, Debug)]
pub enum RankPolicy {
    /// Exact least-recently-used (per-line access clocks).
    Lru,
    /// An RRIP variant (see [`RripConfig`]).
    Rrip(RripConfig),
}

enum RankState {
    /// Exact LRU needs full-width clocks; the shared stamp lane is unused.
    Lru { last: Vec<u64>, clock: u64 },
    /// RRPVs live in the shared [`TagMeta`] stamp lane.
    Rrip { policy: RripPolicy },
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
pub struct BaselineLlc {
    array: Box<dyn CacheArray>,
    rank: RankState,
    /// Per-frame tag lanes shared with the Vantage core: the partition lane
    /// records which partition inserted each line (stats only,
    /// [`TAG_UNMANAGED`] for never-filled frames); the stamp lane carries
    /// RRPVs under [`RankState::Rrip`] and is unused under LRU.
    meta: TagMeta,
    part_lines: Vec<u64>,
    /// Cross-partition sharing resolution and its per-partition counters.
    own: Ownership,
    stats: LlcStats,
    walk: Walk,
    moves: Vec<(Frame, Frame)>,
    tele: Telemetry,
    accesses: u64,
    name: &'static str,
}

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
        let frames = array.num_frames();
        let (rank, name) = match rank {
            RankPolicy::Lru => (
                RankState::Lru {
                    last: vec![0; frames],
                    clock: 0,
                },
                "Baseline-LRU",
            ),
            RankPolicy::Rrip(cfg) => (
                RankState::Rrip {
                    policy: RripPolicy::new(cfg),
                },
                "Baseline-RRIP",
            ),
        };
        Ok(Self {
            array,
            rank,
            meta: TagMeta::new(frames),
            part_lines: vec![0; partitions],
            own: Ownership::new(ShareMode::Adopt, partitions),
            stats: LlcStats::new(partitions),
            walk: Walk::with_capacity(64),
            moves: Vec::with_capacity(8),
            tele: Telemetry::disabled(),
            accesses: 0,
            name,
        })
    }

    /// Emits one size sample per partition (baselines have no targets or
    /// apertures; those fields report 0).
    #[cold]
    fn emit_samples(&mut self) {
        for part in 0..self.part_lines.len() {
            self.tele.sample(PartitionSample {
                access: self.accesses,
                part: PartitionId::from_index(part),
                actual: self.part_lines[part],
                target: 0,
                aperture: 0.0,
                window: 0,
                churn: 0,
                shared: self.own.shared_hits()[part],
                transfers: self.own.transfers()[part],
            });
        }
    }

    /// Read-only access to the underlying array.
    pub fn array(&self) -> &dyn CacheArray {
        self.array.as_ref()
    }

    fn on_hit(&mut self, frame: Frame) {
        match &mut self.rank {
            RankState::Lru { last, clock } => {
                *clock += 1;
                last[frame as usize] = *clock;
            }
            RankState::Rrip { policy } => {
                self.meta.set_ts(frame as usize, policy.hit_rrpv());
            }
        }
    }

    fn select_victim(&mut self) -> usize {
        if let Some(i) = self.walk.first_empty() {
            return i;
        }
        match &mut self.rank {
            RankState::Lru { last, .. } => self
                .walk
                .nodes
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| last[n.frame as usize])
                .map(|(i, _)| i)
                .expect("walk non-empty"),
            RankState::Rrip { policy } => {
                let cands: Vec<u8> = self
                    .walk
                    .nodes
                    .iter()
                    .map(|n| self.meta.ts(n.frame as usize))
                    .collect();
                let (victim, aging) = policy.select_victim(&cands);
                if aging > 0 {
                    let max = policy.max_rrpv();
                    for n in &self.walk.nodes {
                        let f = n.frame as usize;
                        let v = self.meta.ts(f);
                        self.meta.set_ts(f, v.saturating_add(aging).min(max));
                    }
                }
                victim
            }
        }
    }
}

impl Llc for BaselineLlc {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let AccessRequest { part, addr, .. } = req;
        let part = part.index();
        self.accesses += 1;
        if self.tele.sample_due(self.accesses) {
            self.emit_samples();
        }
        let addr = self.own.effective_addr(part as u16, addr);
        if let Some(frame) = self.array.lookup(addr) {
            let owner = self.meta.part(frame as usize);
            if owner != part as u16 {
                self.tele.event(TelemetryEvent::SharedHit {
                    access: self.accesses,
                    part: PartitionId::from_index(part),
                    owner: PartitionId::from_raw(owner),
                });
                if self.own.on_shared_hit(part as u16) {
                    // Adopt: the accessor takes the line over.
                    self.meta.set_part(frame as usize, part as u16);
                    self.part_lines[owner as usize] -= 1;
                    self.part_lines[part] += 1;
                    self.tele.event(TelemetryEvent::OwnershipTransfer {
                        access: self.accesses,
                        part: PartitionId::from_index(part),
                        from: PartitionId::from_raw(owner),
                    });
                }
            }
            self.on_hit(frame);
            self.stats.hits[part] += 1;
            return AccessOutcome::Hit;
        }
        self.stats.misses[part] += 1;
        if let RankState::Rrip { policy, .. } = &mut self.rank {
            policy.note_miss(part, addr);
        }
        self.array.walk(addr, &mut self.walk);
        let victim = self.select_victim();
        let evicted = self.walk.nodes[victim].is_occupied();
        if evicted {
            self.stats.evictions += 1;
            let vf = self.walk.nodes[victim].frame as usize;
            let vowner = self.meta.part(vf);
            self.part_lines[vowner as usize] -= 1;
            self.tele.event(TelemetryEvent::Eviction {
                access: self.accesses,
                part: PartitionId::from_raw(vowner),
                forced: false,
            });
        }
        self.moves.clear();
        let landing = {
            // Split borrow: install needs &mut array only.
            let walk = &self.walk;
            self.array.install(addr, walk, victim, &mut self.moves)
        };
        // Relocate per-frame metadata along with the moved lines (both tag
        // lanes move together; LRU clocks ride in their own lane).
        for &(from, to) in &self.moves {
            self.meta.copy(from, to);
            if let RankState::Lru { last, .. } = &mut self.rank {
                last[to as usize] = last[from as usize];
            }
        }
        self.meta.set_part(landing as usize, part as u16);
        self.part_lines[part] += 1;
        if self.own.mode() == ShareMode::Replicate {
            self.own.on_replica_fill(part as u16);
            self.tele.event(TelemetryEvent::Replica {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
        }
        match &mut self.rank {
            RankState::Lru { last, clock } => {
                *clock += 1;
                last[landing as usize] = *clock;
            }
            RankState::Rrip { policy } => {
                let v = policy.insertion_rrpv(part, addr);
                self.meta.set_ts(landing as usize, v);
            }
        }
        AccessOutcome::Miss
    }

    fn num_partitions(&self) -> usize {
        self.part_lines.len()
    }

    fn capacity(&self) -> usize {
        self.array.num_frames()
    }

    fn set_targets(&mut self, targets: &[u64]) {
        // Unpartitioned: targets are advisory no-ops, but validate shape so
        // misuse is caught uniformly across schemes.
        assert_eq!(
            targets.len(),
            self.part_lines.len(),
            "one target per partition"
        );
    }

    fn partition_size(&self, part: PartitionId) -> u64 {
        self.part_lines[part.index()]
    }

    fn stats(&self) -> &LlcStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut LlcStats {
        &mut self.stats
    }

    fn set_share_mode(&mut self, mode: ShareMode) -> bool {
        self.own.set_mode(mode);
        true
    }

    fn share_mode(&self) -> ShareMode {
        self.own.mode()
    }

    fn observations(&mut self) -> PartitionObservations {
        let n = self.part_lines.len();
        let mut obs = PartitionObservations::new(n);
        obs.actual.copy_from_slice(&self.part_lines);
        obs.hits.copy_from_slice(&self.stats.hits);
        obs.misses.copy_from_slice(&self.stats.misses);
        obs.shared_hits.copy_from_slice(self.own.shared_hits());
        obs.ownership_transfers
            .copy_from_slice(self.own.transfers());
        self.own.reset_counters();
        obs
    }

    fn set_telemetry(&mut self, mut telemetry: Telemetry) -> bool {
        telemetry.bind(self.part_lines.len());
        self.tele = telemetry;
        true
    }

    fn take_telemetry(&mut self) -> Option<Telemetry> {
        if self.tele.enabled() {
            Some(std::mem::take(&mut self.tele))
        } else {
            None
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

impl vantage_snapshot::Snapshot for BaselineLlc {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        match &self.rank {
            RankState::Lru { last, clock } => {
                enc.put_u8(0);
                enc.put_u64_slice(last);
                enc.put_u64(*clock);
            }
            RankState::Rrip { policy } => {
                enc.put_u8(1);
                policy.save_state(enc);
                enc.put_u8_slice(self.meta.ts_lane());
            }
        }
        enc.put_u16_slice(self.meta.parts());
        enc.put_u64_slice(&self.part_lines);
        self.stats.save_state(enc);
        enc.put_u64(self.accesses);
        self.tele.save_state(enc);
        self.array.save_state(enc);
        // Ownership tail: share mode + sharing counters.
        self.own.save_state(enc);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let frames = self.meta.len();
        let partitions = self.part_lines.len();
        let tag = dec.take_u8()?;
        enum RankLoad {
            Lru(Vec<u64>, u64),
            Rrip(Vec<u8>),
        }
        let rank = match (tag, &mut self.rank) {
            (0, RankState::Lru { .. }) => {
                let last = dec.take_u64_vec()?;
                if last.len() != frames {
                    return Err(dec.mismatch("LRU clock count differs from frame count"));
                }
                RankLoad::Lru(last, dec.take_u64()?)
            }
            (1, RankState::Rrip { policy, .. }) => {
                policy.load_state(dec)?;
                let rrpv = dec.take_u8_vec()?;
                if rrpv.len() != frames {
                    return Err(dec.mismatch("RRPV count differs from frame count"));
                }
                let max = policy.max_rrpv();
                if rrpv.iter().any(|&v| v > max) {
                    return Err(dec.invalid("RRPV above configured maximum"));
                }
                RankLoad::Rrip(rrpv)
            }
            (0 | 1, _) => return Err(dec.mismatch("replacement policy kind differs from snapshot")),
            _ => return Err(dec.invalid("unknown replacement-policy tag")),
        };
        let owner = dec.take_u16_vec()?;
        if owner.len() != frames {
            return Err(dec.mismatch("owner map length differs from frame count"));
        }
        // Never-filled frames carry the [`TAG_UNMANAGED`] sentinel; every
        // other owner must name a partition.
        if owner
            .iter()
            .any(|&o| o != TAG_UNMANAGED && o as usize >= partitions)
        {
            return Err(dec.invalid("frame owner beyond partition count"));
        }
        let part_lines = dec.take_u64_vec()?;
        if part_lines.len() != partitions {
            return Err(dec.mismatch("partition-size count differs"));
        }
        self.stats.load_state(dec)?;
        let accesses = dec.take_u64()?;
        self.tele.load_state(dec)?;
        self.array.load_state(dec)?;
        match (rank, &mut self.rank) {
            (RankLoad::Lru(last, clock), RankState::Lru { last: l, clock: c }) => {
                *l = last;
                *c = clock;
                self.meta.load_lanes(owner, vec![0u8; frames]);
            }
            (RankLoad::Rrip(rrpv), RankState::Rrip { .. }) => {
                self.meta.load_lanes(owner, rrpv);
            }
            _ => unreachable!("tag validated against variant above"),
        }
        // Input validation: an unoccupied frame carries the sentinel
        // whatever the payload claims (a forged owner would corrupt the
        // `TagMeta` count index), and an occupied frame must carry a real
        // partition ID.
        for f in 0..frames {
            if self.array.occupant(f as u32).is_none() {
                self.meta.set(f, TAG_UNMANAGED, 0);
            } else if self.meta.part(f) == TAG_UNMANAGED {
                return Err(dec.invalid("occupied frame without an owner"));
            }
        }
        self.part_lines = part_lines;
        self.accesses = accesses;
        self.own.load_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_cache::LineAddr;
    use vantage_cache::{RripMode, SetAssocArray, ZArray};

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
