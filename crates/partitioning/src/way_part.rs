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

use vantage_cache::{Frame, LineAddr, SetAssocArray, TagMeta, TsLru, Walk};
use vantage_snapshot::{Decoder, Encoder, Snapshot};
use vantage_telemetry::PartitionSample;

use crate::error::SchemeConfigError;
use crate::frame::{Ctx, Mechanism, SchemeFrame};
use crate::llc::{ways_from_targets, PrioritySample};

/// Optional eviction-priority instrumentation: per-partition coarse
/// timestamps, stamped into the shared [`TagMeta`] stamp lane, whose
/// (partition, stamp) count rows rank an evicted line among its
/// partition's lines.
struct PriorityProbe {
    lru: Vec<TsLru>,
    samples: Vec<PrioritySample>,
}

impl PriorityProbe {
    fn new(partitions: usize) -> Self {
        Self {
            lru: (0..partitions).map(|_| TsLru::new(64)).collect(),
            samples: Vec::new(),
        }
    }
}

/// The way-partitioning [`Mechanism`]: way ownership, exact per-frame LRU
/// clocks and the optional `PriorityProbe`, whose coarse timestamps live
/// in the shared [`TagMeta`] stamp lane.
pub struct WayPartition {
    ways: u32,
    /// Owning partition of each way.
    way_owner: Vec<u16>,
    /// Current way counts per partition.
    alloc: Vec<u32>,
    /// Exact-LRU clocks per frame.
    last: Vec<u64>,
    clock: u64,
    probe: Option<PriorityProbe>,
    /// The accessor's probe timestamp for the access in flight.
    now: u8,
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
/// llc.set_targets(&[3072, 1024]).expect("targets fit"); // 12 + 4 ways
/// assert_eq!(llc.way_allocation(), &[12, 4]);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x99.into()));
/// ```
pub type WayPartLlc = SchemeFrame<WayPartition>;

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
        let mut mech = WayPartition {
            ways: ways as u32,
            way_owner: vec![0; ways],
            alloc: vec![0; partitions],
            last: vec![0; frames],
            clock: 0,
            probe: None,
            now: 0,
        };
        mech.set_ways(&ways_from_targets(&vec![1; partitions], ways as u32));
        let array = Box::new(SetAssocArray::hashed(frames, ways, seed));
        Ok(SchemeFrame::new(array, partitions, mech))
    }

    /// The current whole-way allocation.
    pub fn way_allocation(&self) -> &[u32] {
        &self.mech.alloc
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
        self.mech.set_ways(alloc);
    }
}

impl WayPartition {
    fn set_ways(&mut self, alloc: &[u32]) {
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

    fn touch(&mut self, frame: Frame) {
        self.clock += 1;
        self.last[frame as usize] = self.clock;
    }
}

impl Mechanism for WayPartition {
    type Array = SetAssocArray;

    fn name(&self) -> &'static str {
        "WayPart"
    }

    /// Ticks the accessor's probe clock.
    fn before_lookup(frame: &mut SchemeFrame<Self>, part: usize) {
        let mech = &mut frame.mech;
        if let Some(pr) = mech.probe.as_mut() {
            let lru = &mut pr.lru[part];
            lru.set_period_for_size(frame.sizes[part].max(16));
            lru.on_access();
            mech.now = lru.current();
        }
    }

    fn on_hit(&mut self, cx: &mut Ctx<'_>, f: Frame, part: usize, owner: usize) {
        self.touch(f);
        if let Some(pr) = self.probe.as_ref() {
            // The line is re-stamped under its *owner's* clock domain.
            // Owner and accessor coincide except right after releasing a
            // way, when hitting another partition's leftover line (or
            // always, for lines pinned to their first owner).
            let ts = if owner == part {
                self.now
            } else {
                pr.lru[owner].current()
            };
            cx.meta.set_ts(f as usize, ts);
        }
    }

    /// LRU among this partition's ways in the indexed set, preferring an
    /// empty frame (key 0: every resident line's clock is at least 1). The
    /// walk yields the whole set in way order, so a node's index is its way.
    fn select_victim(&mut self, _cx: &mut Ctx<'_>, walk: &Walk, part: usize) -> (usize, bool) {
        let owned = walk.nodes.iter().enumerate();
        let way = owned
            .filter(|&(way, _)| self.way_owner[way] as usize == part)
            .min_by_key(|(_, n)| u64::from(n.is_occupied()) * self.last[n.frame as usize])
            .map(|(way, _)| way)
            .expect("every partition owns at least one way");
        (way, false)
    }

    fn note_eviction(&mut self, meta: &TagMeta, access: u64, tag: u16, stamp: u8) {
        if let Some(pr) = self.probe.as_mut() {
            let rank = meta.rank(tag, stamp, pr.lru[usize::from(tag)].current());
            pr.samples.push((access, tag, rank as f32));
        }
    }

    fn enable_priority_probe(&mut self) {
        let partitions = self.alloc.len();
        self.probe
            .get_or_insert_with(|| PriorityProbe::new(partitions));
    }

    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        let probe = self.probe.as_mut();
        probe.map_or_else(Vec::new, |pr| std::mem::take(&mut pr.samples))
    }

    fn on_fill(&mut self, cx: &mut Ctx<'_>, landing: Frame, _part: usize, _addr: LineAddr) {
        self.touch(landing);
        if self.probe.is_some() {
            cx.meta.set_ts(landing as usize, self.now);
        }
    }

    fn set_targets(&mut self, _cx: &mut Ctx<'_>, targets: &[u64]) {
        let alloc = ways_from_targets(targets, self.ways);
        self.set_ways(&alloc);
    }

    /// Reports the way allocation in lines as the target.
    fn sample(&mut self, s: &mut PartitionSample) -> bool {
        let Some(&ways) = self.alloc.get(s.part.index()) else {
            return false;
        };
        s.target = u64::from(ways) * (self.last.len() / self.ways as usize) as u64;
        true
    }

    fn save(&self, meta: &TagMeta, enc: &mut Encoder) {
        enc.put_u16_slice(&self.way_owner);
        enc.put_u32_slice(&self.alloc);
        enc.put_u64_slice(&self.last);
        enc.put_u64(self.clock);
        enc.put_u8_slice(meta.ts_lane());
        match &self.probe {
            None => enc.put_bool(false),
            Some(pr) => {
                enc.put_bool(true);
                for lru in &pr.lru {
                    lru.save_state(enc);
                }
                // Ranks come from the tag store's count rows, rebuilt on
                // restore; only undrained samples need to travel.
                enc.put_usize(pr.samples.len());
                for &(access, part, rank) in &pr.samples {
                    enc.put_u64(access);
                    enc.put_u16(part);
                    enc.put_u32(rank.to_bits());
                }
            }
        }
    }

    fn load(
        &mut self,
        _meta: &TagMeta,
        dec: &mut Decoder<'_>,
    ) -> vantage_snapshot::Result<Vec<u8>> {
        let partitions = self.alloc.len();
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
        if last.len() != self.last.len() {
            return Err(dec.mismatch("LRU clock count differs from frame count"));
        }
        let clock = dec.take_u64()?;
        let probe_ts = dec.take_u8_vec()?;
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
        self.way_owner = way_owner;
        self.alloc = alloc;
        self.last = last;
        self.clock = clock;
        self.probe = probe;
        Ok(probe_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::{AccessRequest, Llc};
    use vantage_cache::PartitionId;

    #[test]
    fn strict_isolation_between_partitions() {
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 1).expect("valid way-partition geometry");
        llc.set_targets(&[512, 512]).expect("targets fit");
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
        llc.set_targets(&[256, 768]).expect("targets fit"); // 4 vs 12 ways
        for i in 0..100_000u64 {
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
        }
        // Partition 0 owns 4/16 of the ways = 256 lines at most.
        assert!(llc.partition_size(PartitionId::from_index(0)) <= 256);
    }

    #[test]
    fn repartitioning_is_lazy() {
        let mut llc = WayPartLlc::try_new(1024, 16, 2, 3).expect("valid way-partition geometry");
        llc.set_targets(&[512, 512]).expect("targets fit");
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
        llc.set_targets(&[64, 960]).expect("targets fit");
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
        llc.set_targets(&[64, 960]).expect("targets fit"); // 1 way vs 15 ways
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
        llc.set_targets(&[128, 128]).expect("targets fit");
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

    /// The probe ranks evictions from the tag store's count rows, which
    /// hold every resident line whenever the probe starts: lines filled
    /// before it carry stamp 0. Enabled mid-run, it neither underflows nor
    /// ranks differently after a checkpoint taken there.
    #[test]
    fn probe_enabled_mid_run_survives_a_checkpoint() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use vantage_snapshot::{Decoder, Encoder, Snapshot};
        let build = || WayPartLlc::try_new(4096, 16, 2, 3).expect("valid way-partition geometry");
        let mut rng = SmallRng::seed_from_u64(11);
        let mut stream = |n: usize| -> Vec<AccessRequest> {
            (0..n)
                .map(|_| {
                    let p = rng.gen_range(0..2usize);
                    let addr = ((p as u64 + 1) << 40) + rng.gen_range(0..6000u64);
                    AccessRequest::read(PartitionId::from_index(p), LineAddr(addr))
                })
                .collect()
        };
        let mut live = build();
        for req in stream(20_000) {
            live.access(req);
        }
        live.enable_priority_probe();
        let mut enc = Encoder::new();
        live.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = build();
        restored
            .load_state(&mut Decoder::new(&bytes, "mid-run probe"))
            .expect("round trip");
        for req in stream(20_000) {
            assert_eq!(live.access(req), restored.access(req));
        }
        let samples = live.drain_priority_samples();
        assert!(samples.len() > 1000, "{} samples", samples.len());
        assert_eq!(samples, restored.drain_priority_samples());
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
        llc.set_targets(&[768, 256]).expect("targets fit"); // 12 + 4 ways, 64 lines/way
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
        llc.set_targets(&[128, 128, 128, 128]).expect("targets fit");
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
