//! Way-partitioning (column caching): strict partitioning by restricting
//! line placement to a per-partition subset of the ways.
//!
//! On a miss from partition `p`, the victim is the least-recently-used line
//! among the ways assigned to `p` in the indexed set; lookups remain global,
//! so lines of other partitions still hit while they age out. This gives
//! strict sizing and isolation but couples each partition's associativity to
//! its way count — the scalability problem Vantage fixes (paper §2, Table 1,
//! Figs. 6-8).
//!
//! Repartitioning reassigns ways lazily: resident lines of the previous
//! owner are evicted only as the new owner misses into each set, which
//! reproduces the slow target-tracking the paper observes in Fig. 8a.

use vantage_cache::{
    Ownership, PartitionId, SetAssocArray, ShareMode, TagMeta, TsLru, TAG_UNMANAGED,
};
use vantage_telemetry::{PartitionSample, Telemetry, TelemetryEvent};

use crate::error::SchemeConfigError;
use crate::hist::TsHistogram;
use crate::llc::{
    ways_from_targets, AccessOutcome, AccessRequest, Llc, LlcStats, PartitionObservations,
};

/// A sample of one eviction's empirical priority, for Fig. 8-style heat
/// maps: (access sequence number, partition, priority in `[0, 1]`).
pub type PrioritySample = (u64, u16, f32);

/// Optional eviction-priority instrumentation shared by scheme
/// implementations: per-partition coarse timestamps plus histograms that
/// turn an evicted line's timestamp into a rank among its partition's lines.
pub(crate) struct PriorityProbe {
    lru: Vec<TsLru>,
    hist: Vec<TsHistogram>,
    samples: Vec<PrioritySample>,
}

impl PriorityProbe {
    pub(crate) fn new(partitions: usize) -> Self {
        Self {
            lru: (0..partitions).map(|_| TsLru::new(64)).collect(),
            hist: (0..partitions).map(|_| TsHistogram::new()).collect(),
            samples: Vec::new(),
        }
    }

    pub(crate) fn on_access(&mut self, part: usize, part_lines: u64) -> u8 {
        self.lru[part].set_period_for_size(part_lines.max(16));
        self.lru[part].on_access();
        self.lru[part].current()
    }

    pub(crate) fn stamp_insert(&mut self, part: usize, ts: u8) {
        self.hist[part].add(ts);
    }

    pub(crate) fn stamp_hit(&mut self, part: usize, old: u8, new: u8) {
        self.hist[part].restamp(old, new);
    }

    pub(crate) fn record_evict(&mut self, access_no: u64, part: usize, ts: u8) {
        let rank = self.hist[part].rank(ts, self.lru[part].current());
        self.hist[part].remove(ts);
        self.samples.push((access_no, part as u16, rank as f32));
    }

    pub(crate) fn drain(&mut self) -> Vec<PrioritySample> {
        std::mem::take(&mut self.samples)
    }
}

/// A way-partitioned set-associative LLC with per-partition LRU.
///
/// # Example
///
/// ```
/// use vantage_partitioning::{AccessRequest, Llc, PartitionId, WayPartLlc};
///
/// // 4096 lines, 16 ways, 2 partitions.
/// let mut llc = WayPartLlc::try_new(4096, 16, 2, 1).expect("valid way-partition geometry");
/// llc.set_targets(&[3072, 1024]); // 12 + 4 ways
/// assert_eq!(llc.way_allocation(), &[12, 4]);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x99.into()));
/// ```
pub struct WayPartLlc {
    array: SetAssocArray,
    ways: u32,
    /// Owning partition of each way.
    way_owner: Vec<u16>,
    /// Current way counts per partition.
    alloc: Vec<u32>,
    /// Exact-LRU clocks per frame.
    last: Vec<u64>,
    clock: u64,
    /// Per-frame tag lanes shared with the Vantage core: the partition
    /// lane holds the inserting partition ([`TAG_UNMANAGED`] for
    /// never-filled frames), the stamp lane the probe's coarse timestamps.
    meta: TagMeta,
    part_lines: Vec<u64>,
    /// Cross-partition sharing resolution and its per-partition counters.
    own: Ownership,
    stats: LlcStats,
    probe: Option<PriorityProbe>,
    tele: Telemetry,
    accesses: u64,
}

impl WayPartLlc {
    /// Creates a way-partitioned cache of `frames` lines and `ways` ways
    /// (H3-hashed set indexing, seeded by `seed`), initially divided evenly
    /// among `partitions`.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeConfigError::PartitionsExceedWays`] unless
    /// `1 <= partitions <= ways`.
    pub fn try_new(
        frames: usize,
        ways: usize,
        partitions: usize,
        seed: u64,
    ) -> Result<Self, SchemeConfigError> {
        if partitions == 0 || partitions > ways {
            return Err(SchemeConfigError::PartitionsExceedWays { partitions, ways });
        }
        let array = SetAssocArray::hashed(frames, ways, seed);
        let mut llc = Self {
            array,
            ways: ways as u32,
            way_owner: vec![0; ways],
            alloc: vec![0; partitions],
            last: vec![0; frames],
            clock: 0,
            meta: TagMeta::new(frames),
            part_lines: vec![0; partitions],
            own: Ownership::new(ShareMode::Adopt, partitions),
            stats: LlcStats::new(partitions),
            probe: None,
            tele: Telemetry::disabled(),
            accesses: 0,
        };
        let even = vec![1u64; partitions];
        llc.set_targets(&even);
        Ok(llc)
    }

    /// Emits one sample per partition; `target` is the way allocation in
    /// lines (ways have no apertures or setpoints, so those report 0).
    #[cold]
    fn emit_samples(&mut self) {
        let lines_per_way = (self.last.len() / self.ways as usize) as u64;
        for part in 0..self.part_lines.len() {
            self.tele.sample(PartitionSample {
                access: self.accesses,
                part: PartitionId::from_index(part),
                actual: self.part_lines[part],
                target: u64::from(self.alloc[part]) * lines_per_way,
                aperture: 0.0,
                window: 0,
                churn: 0,
                shared: self.own.shared_hits()[part],
                transfers: self.own.transfers()[part],
            });
        }
    }

    /// Enables Fig. 8-style eviction-priority sampling.
    pub fn enable_priority_probe(&mut self) {
        if self.probe.is_none() {
            self.probe = Some(PriorityProbe::new(self.part_lines.len()));
        }
    }

    /// Drains accumulated priority samples (empty if the probe is off).
    pub fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        self.probe
            .as_mut()
            .map(PriorityProbe::drain)
            .unwrap_or_default()
    }

    /// The current whole-way allocation.
    pub fn way_allocation(&self) -> &[u32] {
        &self.alloc
    }

    /// Reassigns ways directly (bypassing the line-target conversion).
    ///
    /// Way ownership changes are *stable*: partitions losing ways release
    /// their highest-numbered ways, which gainers pick up, minimizing churn.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` does not sum to the way count or gives any
    /// partition zero ways.
    pub fn set_ways(&mut self, alloc: &[u32]) {
        assert_eq!(alloc.len(), self.alloc.len(), "one entry per partition");
        assert_eq!(
            alloc.iter().sum::<u32>(),
            self.ways,
            "allocation must cover all ways"
        );
        assert!(alloc.iter().all(|&w| w >= 1), "every partition needs a way");
        // Release ways from shrinking partitions.
        let mut have: Vec<Vec<usize>> = vec![Vec::new(); alloc.len()];
        for (w, &p) in self.way_owner.iter().enumerate() {
            have[p as usize].push(w);
        }
        let mut free: Vec<usize> = Vec::new();
        for (p, ways) in have.iter_mut().enumerate() {
            while ways.len() > alloc[p] as usize {
                free.push(ways.pop().expect("non-empty"));
            }
        }
        // Hand them to growing partitions.
        for (p, ways) in have.iter_mut().enumerate() {
            while ways.len() < alloc[p] as usize {
                let w = free.pop().expect("conservation of ways");
                self.way_owner[w] = p as u16;
                ways.push(w);
            }
        }
        self.alloc.copy_from_slice(alloc);
    }
}

impl Llc for WayPartLlc {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let AccessRequest { part, addr, .. } = req;
        let part = part.index();
        use vantage_cache::CacheArray;
        let addr = self.own.effective_addr(part as u16, addr);
        self.accesses += 1;
        if self.tele.sample_due(self.accesses) {
            self.emit_samples();
        }
        let probe_ts = self
            .probe
            .as_mut()
            .map(|pr| pr.on_access(part, self.part_lines[part]));

        if let Some(frame) = self.array.lookup(addr) {
            let f = frame as usize;
            let owner = self.meta.part(f) as usize;
            let adopted = owner != part && {
                self.tele.event(TelemetryEvent::SharedHit {
                    access: self.accesses,
                    part: PartitionId::from_index(part),
                    owner: PartitionId::from_index(owner),
                });
                let adopt = self.own.on_shared_hit(part as u16);
                if adopt {
                    // Adopt: the accessor takes the leftover line over.
                    self.meta.set_part(f, part as u16);
                    self.part_lines[owner] -= 1;
                    self.part_lines[part] += 1;
                    self.tele.event(TelemetryEvent::OwnershipTransfer {
                        access: self.accesses,
                        part: PartitionId::from_index(part),
                        from: PartitionId::from_index(owner),
                    });
                }
                adopt
            };
            self.clock += 1;
            self.last[f] = self.clock;
            if let (Some(pr), Some(ts)) = (self.probe.as_mut(), probe_ts) {
                // The line is re-stamped under its *owner's* clock domain;
                // owner and accessor coincide except right after releasing a
                // way, when hitting another partition's leftover line (or
                // always, for pinned lines under `ShareMode::Pin`).
                let owner_now = if adopted { part } else { owner };
                let ts = if owner_now == part {
                    ts
                } else {
                    pr.lru[owner_now].current()
                };
                if adopted {
                    // The histogram entry moves between partitions with
                    // the ownership.
                    pr.hist[owner].remove(self.meta.ts(f));
                    pr.hist[part].add(ts);
                } else {
                    pr.stamp_hit(owner_now, self.meta.ts(f), ts);
                }
                self.meta.set_ts(f, ts);
            }
            self.stats.hits[part] += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses[part] += 1;
        // Victim: LRU among this partition's ways in the indexed set. The
        // walk yields the whole set in way order; filter to owned ways.
        let mut walk = vantage_cache::Walk::with_capacity(self.ways as usize);
        self.array.walk(addr, &mut walk);
        let mut victim: Option<usize> = None;
        let mut best = u64::MAX;
        for (i, node) in walk.nodes.iter().enumerate() {
            if self.way_owner[i] as usize != part {
                continue;
            }
            if !node.is_occupied() {
                victim = Some(i);
                break;
            }
            let l = self.last[node.frame as usize];
            if l < best {
                best = l;
                victim = Some(i);
            }
        }
        let victim = victim.expect("every partition owns at least one way");
        let vnode = walk.nodes[victim];
        if vnode.is_occupied() {
            self.stats.evictions += 1;
            let vowner = self.meta.part(vnode.frame as usize) as usize;
            self.part_lines[vowner] -= 1;
            self.tele.event(TelemetryEvent::Eviction {
                access: self.accesses,
                part: PartitionId::from_index(vowner),
                forced: false,
            });
            if let Some(pr) = self.probe.as_mut() {
                pr.record_evict(self.accesses, vowner, self.meta.ts(vnode.frame as usize));
            }
        }
        let mut moves = Vec::new();
        let landing = self.array.install(addr, &walk, victim, &mut moves);
        debug_assert!(moves.is_empty(), "set-associative arrays never relocate");
        self.meta.set_part(landing as usize, part as u16);
        self.part_lines[part] += 1;
        if self.own.mode() == ShareMode::Replicate {
            self.own.on_replica_fill(part as u16);
            self.tele.event(TelemetryEvent::Replica {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
        }
        self.clock += 1;
        self.last[landing as usize] = self.clock;
        if let (Some(pr), Some(ts)) = (self.probe.as_mut(), probe_ts) {
            pr.stamp_insert(part, ts);
            self.meta.set_ts(landing as usize, ts);
        }
        AccessOutcome::Miss
    }

    fn num_partitions(&self) -> usize {
        self.part_lines.len()
    }

    fn capacity(&self) -> usize {
        self.last.len()
    }

    fn set_targets(&mut self, targets: &[u64]) {
        let alloc = ways_from_targets(targets, self.ways);
        self.set_ways(&alloc);
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
        "WayPart"
    }
}

impl vantage_snapshot::Snapshot for WayPartLlc {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u16_slice(&self.way_owner);
        enc.put_u32_slice(&self.alloc);
        enc.put_u64_slice(&self.last);
        enc.put_u64(self.clock);
        enc.put_u16_slice(self.meta.parts());
        enc.put_u64_slice(&self.part_lines);
        self.stats.save_state(enc);
        enc.put_u64(self.accesses);
        enc.put_u8_slice(self.meta.ts_lane());
        match &self.probe {
            None => enc.put_bool(false),
            Some(pr) => {
                enc.put_bool(true);
                for lru in &pr.lru {
                    lru.save_state(enc);
                }
                // Histograms are rebuilt from resident lines on restore;
                // only undrained samples need to travel.
                enc.put_usize(pr.samples.len());
                for &(access, part, rank) in &pr.samples {
                    enc.put_u64(access);
                    enc.put_u16(part);
                    enc.put_u32(rank.to_bits());
                }
            }
        }
        self.tele.save_state(enc);
        self.array.save_state(enc);
        // Ownership tail: share mode + sharing counters.
        self.own.save_state(enc);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        use vantage_cache::CacheArray;
        let frames = self.meta.len();
        let partitions = self.part_lines.len();
        let way_owner = dec.take_u16_vec()?;
        if way_owner.len() != self.way_owner.len() {
            return Err(dec.mismatch("way count differs"));
        }
        if way_owner.iter().any(|&o| o as usize >= partitions) {
            return Err(dec.invalid("way owner beyond partition count"));
        }
        let alloc = dec.take_u32_vec()?;
        if alloc.len() != partitions {
            return Err(dec.mismatch("way-allocation length differs"));
        }
        if alloc.iter().sum::<u32>() != self.ways || alloc.contains(&0) {
            return Err(dec.invalid("way allocation does not cover all ways"));
        }
        let last = dec.take_u64_vec()?;
        let clock = dec.take_u64()?;
        let owner = dec.take_u16_vec()?;
        let part_lines = dec.take_u64_vec()?;
        if last.len() != frames || owner.len() != frames || part_lines.len() != partitions {
            return Err(dec.mismatch("frame metadata lengths differ"));
        }
        // Never-filled frames carry the [`TAG_UNMANAGED`] sentinel; every
        // other owner must name a partition.
        if owner
            .iter()
            .any(|&o| o != TAG_UNMANAGED && o as usize >= partitions)
        {
            return Err(dec.invalid("frame owner beyond partition count"));
        }
        self.stats.load_state(dec)?;
        let accesses = dec.take_u64()?;
        let probe_ts = dec.take_u8_vec()?;
        if probe_ts.len() != frames {
            return Err(dec.mismatch("probe timestamp length differs"));
        }
        let probe = if dec.take_bool()? {
            let mut pr = PriorityProbe::new(partitions);
            for lru in &mut pr.lru {
                lru.load_state(dec)?;
            }
            let n = dec.take_usize()?;
            // Each pending sample occupies 14 bytes; a count the remaining
            // payload cannot hold is a hostile length prefix.
            if n > dec.remaining() / 14 {
                return Err(dec.invalid("pending-sample count exceeds payload"));
            }
            pr.samples.reserve(n);
            for _ in 0..n {
                let access = dec.take_u64()?;
                let part = dec.take_u16()?;
                let rank = f32::from_bits(dec.take_u32()?);
                pr.samples.push((access, part, rank));
            }
            Some(pr)
        } else {
            None
        };
        self.tele.load_state(dec)?;
        self.array.load_state(dec)?;
        self.way_owner = way_owner;
        self.alloc = alloc;
        self.last = last;
        self.clock = clock;
        self.meta.load_lanes(owner, probe_ts);
        self.part_lines = part_lines;
        self.accesses = accesses;
        self.probe = probe;
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
        if let Some(pr) = self.probe.as_mut() {
            // Rebuild the per-partition histograms from the restored lines:
            // a histogram is exactly "the multiset of resident stamps".
            for f in 0..frames {
                if self.array.occupant(f as u32).is_some() {
                    pr.hist[self.meta.part(f) as usize].add(self.meta.ts(f));
                }
            }
        }
        self.own.load_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_cache::LineAddr;

    #[test]
    fn strict_isolation_between_partitions() {
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 1).expect("valid way-partition geometry");
        llc.set_targets(&[512, 512]);
        // Partition 0 touches a small working set; partition 1 streams.
        for i in 0..64u64 {
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        for i in 0..100_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(1),
                LineAddr(1_000_000 + i),
            ));
        }
        // Partition 0's lines are untouched by partition 1's thrashing.
        let misses_before = llc.stats().misses[0];
        for i in 0..64u64 {
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        assert_eq!(llc.stats().misses[0], misses_before, "isolation violated");
    }

    #[test]
    fn partition_cannot_exceed_way_share() {
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 2).expect("valid way-partition geometry");
        llc.set_targets(&[256, 768]); // 4 vs 12 ways
        for i in 0..100_000u64 {
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        // Partition 0 owns 4/16 of the ways = 256 lines at most.
        assert!(llc.partition_size(PartitionId::from_index(0)) <= 256);
    }

    #[test]
    fn repartitioning_is_lazy() {
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 3).expect("valid way-partition geometry");
        llc.set_targets(&[512, 512]);
        for i in 0..100_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(i % 2000),
            ));
            llc.access(AccessRequest::read(
                PartitionId::from_index(1),
                LineAddr(10_000 + i % 2000),
            ));
        }
        let before = llc.partition_size(PartitionId::from_index(0));
        assert!(
            before > 400,
            "partition 0 should be near its 512-line share"
        );
        // Shrink partition 0 to 1 way; its lines drain only as partition 1
        // misses into sets.
        llc.set_targets(&[64, 960]);
        assert!(
            llc.partition_size(PartitionId::from_index(0)) > 300,
            "resize must not flush instantly"
        );
        for i in 0..200_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(1),
                LineAddr(50_000 + i),
            ));
        }
        assert!(
            llc.partition_size(PartitionId::from_index(0)) <= 100,
            "old lines eventually drain"
        );
    }

    #[test]
    fn one_way_partition_has_poor_associativity() {
        // A 1-way partition degenerates to direct-mapped (64 slots here). A
        // scattered 48-line working set then suffers birthday conflicts,
        // while the same working set in a 64-line *associative* partition
        // would fit without a single steady-state miss.
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 4).expect("valid way-partition geometry");
        llc.set_targets(&[64, 960]); // 1 way vs 15 ways
        assert_eq!(llc.way_allocation()[0], 1);
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        // Sparse random addresses (dense ranges are conflict-free under the
        // GF(2)-linear H3 hash, by design).
        let ws: Vec<LineAddr> = (0..48).map(|_| LineAddr(rng.gen())).collect();
        for _rep in 0..50 {
            for &a in &ws {
                llc.access(AccessRequest::read(PartitionId::from_index(0), a));
            }
        }
        let s = llc.stats();
        let ratio = s.misses[0] as f64 / (s.hits[0] + s.misses[0]) as f64;
        assert!(ratio > 0.05, "direct-mapped partition missed only {ratio}");
    }

    #[test]
    fn probe_records_eviction_priorities() {
        let mut llc = WayPartLlc::try_new(256, 4, 2, 5).expect("valid way-partition geometry");
        llc.enable_priority_probe();
        llc.set_targets(&[128, 128]);
        for i in 0..20_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i % 700),
            ));
        }
        let samples = llc.drain_priority_samples();
        assert!(!samples.is_empty());
        for (_, part, pr) in &samples {
            assert!(*part < 2);
            assert!((0.0..=1.0).contains(pr));
        }
        assert!(
            llc.drain_priority_samples().is_empty(),
            "drain empties the buffer"
        );
    }

    #[test]
    fn try_new_rejects_more_partitions_than_ways() {
        assert!(matches!(
            WayPartLlc::try_new(1024, 16, 17, 1),
            Err(crate::SchemeConfigError::PartitionsExceedWays {
                partitions: 17,
                ways: 16
            })
        ));
        assert!(WayPartLlc::try_new(1024, 16, 16, 1).is_ok());
    }

    #[test]
    fn telemetry_samples_report_way_targets() {
        use vantage_telemetry::{RingSink, Telemetry, TelemetryRecord};
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 1).expect("valid way-partition geometry");
        llc.set_targets(&[768, 256]); // 12 + 4 ways, 64 lines/way
        let (sink, reader) = RingSink::with_capacity(4096);
        llc.set_telemetry(Telemetry::new(Box::new(sink), 256));
        for i in 0..2000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i),
            ));
        }
        let targets: Vec<(PartitionId, u64)> = reader
            .records()
            .iter()
            .filter_map(|r| match r {
                TelemetryRecord::Sample(s) => Some((s.part, s.target)),
                _ => None,
            })
            .collect();
        assert!(!targets.is_empty());
        assert!(targets.contains(&(PartitionId::from_index(0), 12 * 64)));
        assert!(targets.contains(&(PartitionId::from_index(1), 4 * 64)));
    }

    #[test]
    fn sizes_and_stats_stay_consistent() {
        let mut llc = WayPartLlc::try_new(512, 8, 4, 6).expect("valid way-partition geometry");
        llc.set_targets(&[128, 128, 128, 128]);
        for i in 0..50_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                LineAddr(i % 3000),
            ));
        }
        let total: u64 = (0..4)
            .map(|p| llc.partition_size(PartitionId::from_index(p)))
            .sum();
        assert!(total <= 512);
        assert_eq!(llc.num_partitions(), 4);
        assert_eq!(llc.name(), "WayPart");
    }
}
