//! PIPP: promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009).
//!
//! PIPP approximates partitioning by managing each set's priority chain:
//!
//! * **Insertion**: a partition allocated `w` ways inserts new lines at
//!   chain position `w - 1` (0 = LRU end), so larger allocations insert
//!   closer to MRU and naturally retain more lines.
//! * **Promotion**: on a hit, a line moves up a single position with
//!   probability `p_prom = 3/4` (instead of jumping to MRU as in LRU).
//! * **Stream detection**: partitions missing on at least
//!   `θ_m = 12.5%` of their accesses in the last interval are classified as
//!   streaming; they are treated as owning a single way, insert at the
//!   bottom of the stack (position `s - 1`, where `s` counts total
//!   streaming ways) and promote with `p_stream = 1/128`, limiting cache
//!   pollution.
//!
//! These are the parameter values the Vantage paper uses for its PIPP
//! baseline (§5). As the paper observes (§6.1), insertion positions equal to
//! the way allocation stop scaling with many partitions: with 32 partitions
//! on a 64-way cache most partitions insert near the LRU end, causing
//! contention at the bottom of the chain and dead lines at the top (Fig. 7).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_cache::{
    CacheArray, Ownership, PartitionId, SetAssocArray, ShareMode, TagMeta, Walk, TAG_UNMANAGED,
};
use vantage_telemetry::{PartitionSample, Telemetry, TelemetryEvent};

use crate::error::SchemeConfigError;
use crate::llc::{
    ways_from_targets, AccessOutcome, AccessRequest, Llc, LlcStats, PartitionObservations,
};

/// Tuning knobs for [`PippLlc`] (defaults are the paper's values).
#[derive(Clone, Debug)]
pub struct PippConfig {
    /// Probability a hit promotes the line one position.
    pub p_prom: f64,
    /// Promotion probability for streaming partitions.
    pub p_stream: f64,
    /// Miss-ratio threshold for classifying a partition as streaming.
    pub theta_miss: f64,
    /// Minimum interval accesses before (re)classifying a partition.
    pub min_classify_accesses: u64,
}

impl Default for PippConfig {
    fn default() -> Self {
        Self {
            p_prom: 0.75,
            p_stream: 1.0 / 128.0,
            theta_miss: 0.125,
            min_classify_accesses: 1000,
        }
    }
}

/// A PIPP-managed set-associative LLC.
///
/// # Example
///
/// ```
/// use vantage_partitioning::{AccessRequest, Llc, PartitionId, PippConfig, PippLlc};
///
/// let mut llc = PippLlc::try_new(4096, 16, 4, PippConfig::default(), 7).expect("valid PIPP geometry");
/// llc.set_targets(&[1024, 1024, 1024, 1024]);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x3.into()));
/// ```
pub struct PippLlc {
    array: SetAssocArray,
    ways: u32,
    /// Per-set priority chains: `chain[set*ways + pos]` is the way at
    /// position `pos` (0 = LRU end).
    chain: Vec<u8>,
    /// Per-frame tag lanes shared with the Vantage core: the partition lane
    /// holds each line's inserting partition ([`TAG_UNMANAGED`] for
    /// never-filled frames), the stamp lane the inverse chain map
    /// (`meta.ts(frame)` is the frame's chain position).
    meta: TagMeta,
    alloc: Vec<u32>,
    streaming: Vec<bool>,
    part_lines: Vec<u64>,
    /// Cross-partition sharing resolution and its per-partition counters.
    own: Ownership,
    /// Interval counters for stream classification.
    interval_hits: Vec<u64>,
    interval_misses: Vec<u64>,
    cfg: PippConfig,
    rng: SmallRng,
    stats: LlcStats,
    walk: Walk,
    tele: Telemetry,
    accesses: u64,
}

impl PippLlc {
    /// Creates a PIPP cache of `frames` lines and `ways` ways (H3-hashed
    /// indexing) shared by `partitions` partitions.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeConfigError::PartitionsExceedWays`] unless
    /// `1 <= partitions <= ways`, and [`SchemeConfigError::TooManyWays`]
    /// when a way index would not fit the per-way chain metadata.
    pub fn try_new(
        frames: usize,
        ways: usize,
        partitions: usize,
        cfg: PippConfig,
        seed: u64,
    ) -> Result<Self, SchemeConfigError> {
        if partitions == 0 || partitions > ways {
            return Err(SchemeConfigError::PartitionsExceedWays { partitions, ways });
        }
        if ways > u8::MAX as usize + 1 {
            return Err(SchemeConfigError::TooManyWays { ways });
        }
        let array = SetAssocArray::hashed(frames, ways, seed);
        let sets = frames / ways;
        let mut chain = Vec::with_capacity(frames);
        for _ in 0..sets {
            chain.extend(0..ways as u8);
        }
        let mut meta = TagMeta::new(frames);
        for f in 0..frames {
            meta.set_ts(f, (f % ways) as u8);
        }
        let mut llc = Self {
            array,
            ways: ways as u32,
            chain,
            meta,
            alloc: vec![0; partitions],
            streaming: vec![false; partitions],
            part_lines: vec![0; partitions],
            own: Ownership::new(ShareMode::Adopt, partitions),
            interval_hits: vec![0; partitions],
            interval_misses: vec![0; partitions],
            cfg,
            rng: SmallRng::seed_from_u64(seed ^ 0x9157),
            stats: LlcStats::new(partitions),
            walk: Walk::with_capacity(ways),
            tele: Telemetry::disabled(),
            accesses: 0,
        };
        let even = vec![1u64; partitions];
        Llc::set_targets(&mut llc, &even);
        Ok(llc)
    }

    /// Emits one sample per partition; `target` is the (pseudo-)allocation
    /// in lines. PIPP has no apertures or setpoints, so those report 0.
    #[cold]
    fn emit_samples(&mut self) {
        let lines_per_way = (self.meta.len() / self.ways as usize) as u64;
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

    /// Current way allocation (streaming partitions are reported as
    /// allocated, even though they effectively use one way).
    pub fn way_allocation(&self) -> &[u32] {
        &self.alloc
    }

    /// Which partitions are currently classified as streaming.
    pub fn streaming_flags(&self) -> &[bool] {
        &self.streaming
    }

    #[inline]
    fn chain_slice(&mut self, set: u32) -> &mut [u8] {
        let w = self.ways as usize;
        let base = set as usize * w;
        &mut self.chain[base..base + w]
    }

    /// Moves way `way` in `set`'s chain from its current position to `to`,
    /// shifting the ways in between.
    fn reposition(&mut self, set: u32, way: u8, to: usize) {
        let ways = self.ways;
        let chain = self.chain_slice(set);
        let from = chain
            .iter()
            .position(|&w| w == way)
            .expect("way present in chain");
        if from == to {
            return;
        }
        if from < to {
            chain[from..=to].rotate_left(1);
        } else {
            chain[to..=from].rotate_right(1);
        }
        // Rebuild the inverse map for the touched span.
        let (lo, hi) = (from.min(to), from.max(to));
        let span: Vec<u8> = chain[lo..=hi].to_vec();
        for (off, &w) in span.iter().enumerate() {
            let frame = set * ways + u32::from(w);
            self.meta.set_ts(frame as usize, (lo + off) as u8);
        }
    }

    /// The insertion position for partition `part` (0-indexed from the LRU
    /// end), per the paper's parameters.
    fn insert_position(&self, part: usize) -> usize {
        if self.streaming[part] {
            // Streaming apps share the bottom of the stack: one way each.
            let s: u32 = self
                .streaming
                .iter()
                .zip(&self.alloc)
                .map(|(&st, _)| u32::from(st))
                .sum();
            (s.max(1) - 1) as usize
        } else {
            (self.alloc[part].max(1) - 1) as usize
        }
        .min(self.ways as usize - 1)
    }

    /// Re-runs stream classification from the interval counters and resets
    /// them. Called on every repartitioning ([`set_targets`](Llc::set_targets)).
    fn classify_streams(&mut self) {
        for p in 0..self.streaming.len() {
            let acc = self.interval_hits[p] + self.interval_misses[p];
            if acc >= self.cfg.min_classify_accesses {
                let ratio = self.interval_misses[p] as f64 / acc as f64;
                self.streaming[p] = ratio >= self.cfg.theta_miss;
            }
            self.interval_hits[p] = 0;
            self.interval_misses[p] = 0;
        }
    }
}

impl Llc for PippLlc {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let AccessRequest { part, addr, .. } = req;
        let part = part.index();
        let addr = self.own.effective_addr(part as u16, addr);
        self.accesses += 1;
        if self.tele.sample_due(self.accesses) {
            self.emit_samples();
        }
        if let Some(frame) = self.array.lookup(addr) {
            let owner = self.meta.part(frame as usize);
            if owner != part as u16 {
                self.tele.event(TelemetryEvent::SharedHit {
                    access: self.accesses,
                    part: PartitionId::from_index(part),
                    owner: PartitionId::from_raw(owner),
                });
                if self.own.on_shared_hit(part as u16) {
                    // Adopt: the accessor takes the line over (the chain
                    // position is placement state and stays put).
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
            self.stats.hits[part] += 1;
            self.interval_hits[part] += 1;
            // Single-step probabilistic promotion.
            let p = if self.streaming[self.meta.part(frame as usize) as usize] {
                self.cfg.p_stream
            } else {
                self.cfg.p_prom
            };
            if self.rng.gen_bool(p) {
                let pos = self.meta.ts(frame as usize) as usize;
                if pos + 1 < self.ways as usize {
                    let set = frame / self.ways;
                    let way = (frame % self.ways) as u8;
                    self.reposition(set, way, pos + 1);
                }
            }
            return AccessOutcome::Hit;
        }

        self.stats.misses[part] += 1;
        self.interval_misses[part] += 1;
        // Victim: the lowest-priority frame, preferring empty frames.
        let walk = &mut self.walk;
        self.array.walk(addr, walk);
        let set = walk.nodes[0].frame / self.ways;
        let victim_way = {
            let ways = self.ways as usize;
            let base = set as usize * ways;
            let chain = &self.chain[base..base + ways];
            *chain
                .iter()
                .find(|&&w| !walk.nodes[w as usize].is_occupied())
                .unwrap_or(&chain[0])
        };
        let vnode = walk.nodes[victim_way as usize];
        if vnode.is_occupied() {
            self.stats.evictions += 1;
            let vowner = self.meta.part(vnode.frame as usize);
            self.part_lines[vowner as usize] -= 1;
            self.tele.event(TelemetryEvent::Eviction {
                access: self.accesses,
                part: PartitionId::from_raw(vowner),
                forced: false,
            });
        }
        let mut moves = Vec::new();
        let landing = {
            let walk = &self.walk;
            self.array
                .install(addr, walk, victim_way as usize, &mut moves)
        };
        debug_assert!(moves.is_empty());
        self.meta.set_part(landing as usize, part as u16);
        self.part_lines[part] += 1;
        if self.own.mode() == ShareMode::Replicate {
            self.own.on_replica_fill(part as u16);
            self.tele.event(TelemetryEvent::Replica {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
        }
        let pos = self.insert_position(part);
        self.reposition(set, victim_way, pos);
        AccessOutcome::Miss
    }

    fn num_partitions(&self) -> usize {
        self.part_lines.len()
    }

    fn capacity(&self) -> usize {
        self.meta.len()
    }

    fn set_targets(&mut self, targets: &[u64]) {
        let mut alloc = ways_from_targets(targets, self.ways);
        self.classify_streams();
        // Streaming partitions are capped at one way; their surplus goes to
        // the largest non-streaming partition.
        let mut surplus = 0u32;
        for (p, a) in alloc.iter_mut().enumerate() {
            if self.streaming[p] && *a > 1 {
                surplus += *a - 1;
                *a = 1;
            }
        }
        if surplus > 0 {
            if let Some((best, _)) = alloc
                .iter()
                .enumerate()
                .filter(|(p, _)| !self.streaming[*p])
                .max_by_key(|(_, &a)| a)
            {
                alloc[best] += surplus;
            } else {
                alloc[0] += surplus; // everyone streams; shape is moot
            }
        }
        self.alloc = alloc;
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
        "PIPP"
    }
}

impl vantage_snapshot::Snapshot for PippLlc {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u8_slice(&self.chain);
        enc.put_u32_slice(&self.alloc);
        enc.put_u64(self.streaming.len() as u64);
        for &s in &self.streaming {
            enc.put_bool(s);
        }
        enc.put_u16_slice(self.meta.parts());
        enc.put_u64_slice(&self.part_lines);
        enc.put_u64_slice(&self.interval_hits);
        enc.put_u64_slice(&self.interval_misses);
        for s in self.rng.state() {
            enc.put_u64(s);
        }
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
        let ways = self.ways as usize;
        let chain = dec.take_u8_vec()?;
        if chain.len() != frames {
            return Err(dec.mismatch("chain length differs from frame count"));
        }
        // Each set's chain must be a permutation of its ways; the inverse
        // map is derived from it rather than trusted from the file.
        let mut pos_of = vec![0u8; frames];
        for (set, sc) in chain.chunks_exact(ways).enumerate() {
            let mut seen = [false; 256];
            for (pos, &w) in sc.iter().enumerate() {
                if w as usize >= ways || seen[w as usize] {
                    return Err(dec.invalid("set chain is not a permutation of the ways"));
                }
                seen[w as usize] = true;
                pos_of[set * ways + w as usize] = pos as u8;
            }
        }
        let alloc = dec.take_u32_vec()?;
        if alloc.len() != partitions {
            return Err(dec.mismatch("way-allocation length differs"));
        }
        let n = dec.take_u64()? as usize;
        if n != partitions {
            return Err(dec.mismatch("streaming-flag count differs"));
        }
        let mut streaming = Vec::with_capacity(n);
        for _ in 0..n {
            streaming.push(dec.take_bool()?);
        }
        let owner = dec.take_u16_vec()?;
        let part_lines = dec.take_u64_vec()?;
        let interval_hits = dec.take_u64_vec()?;
        let interval_misses = dec.take_u64_vec()?;
        if owner.len() != frames
            || part_lines.len() != partitions
            || interval_hits.len() != partitions
            || interval_misses.len() != partitions
        {
            return Err(dec.mismatch("per-partition metadata lengths differ"));
        }
        // Never-filled frames carry the [`TAG_UNMANAGED`] sentinel; every
        // other owner must name a partition.
        if owner
            .iter()
            .any(|&o| o != TAG_UNMANAGED && o as usize >= partitions)
        {
            return Err(dec.invalid("frame owner beyond partition count"));
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = dec.take_u64()?;
        }
        self.stats.load_state(dec)?;
        let accesses = dec.take_u64()?;
        self.tele.load_state(dec)?;
        self.array.load_state(dec)?;
        self.chain = chain;
        self.meta.load_lanes(owner, pos_of);
        // Input validation: an unoccupied frame carries the sentinel
        // whatever the payload claims (a forged owner would corrupt the
        // `TagMeta` count index; the chain position in the stamp lane stays
        // meaningful for empty frames and is left untouched), and an
        // occupied frame must carry a real partition ID.
        for f in 0..frames {
            if self.array.occupant(f as u32).is_none() {
                self.meta.set_part(f, TAG_UNMANAGED);
            } else if self.meta.part(f) == TAG_UNMANAGED {
                return Err(dec.invalid("occupied frame without an owner"));
            }
        }
        self.alloc = alloc;
        self.streaming = streaming;
        self.part_lines = part_lines;
        self.interval_hits = interval_hits;
        self.interval_misses = interval_misses;
        self.rng = SmallRng::from_state(rng_state);
        self.accesses = accesses;
        self.own.load_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_cache::LineAddr;

    fn pipp(parts: usize) -> PippLlc {
        PippLlc::try_new(1024, 16, parts, PippConfig::default(), 42).expect("valid PIPP geometry")
    }

    #[test]
    fn chain_invariants_hold_under_traffic() {
        let mut llc = pipp(4);
        llc.set_targets(&[256, 256, 256, 256]);
        for i in 0..50_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 4) as usize),
                LineAddr(i % 2000),
            ));
        }
        // Every set's chain must remain a permutation of the ways.
        let ways = 16usize;
        for set in 0..(1024 / ways) {
            let mut seen = [false; 16];
            for pos in 0..ways {
                let w = llc.chain[set * ways + pos] as usize;
                assert!(!seen[w], "way {w} duplicated in set {set}");
                seen[w] = true;
                let frame = set * ways + w;
                assert_eq!(llc.meta.ts(frame) as usize, pos, "pos_of out of sync");
            }
        }
    }

    #[test]
    fn larger_allocations_retain_more() {
        let mut llc = pipp(2);
        llc.set_targets(&[960, 64]); // 15 vs 1 way
                                     // Equal access pressure from both partitions.
        for i in 0..400_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(i % 600),
            ));
            llc.access(AccessRequest::read(
                PartitionId::from_index(1),
                LineAddr(10_000 + i % 600),
            ));
        }
        assert!(
            llc.partition_size(PartitionId::from_index(0))
                > llc.partition_size(PartitionId::from_index(1)),
            "sizes {} vs {}",
            llc.partition_size(PartitionId::from_index(0)),
            llc.partition_size(PartitionId::from_index(1))
        );
    }

    #[test]
    fn approximate_sizing_not_strict() {
        // PIPP only approximates targets: a high-churn small partition can
        // exceed its share, unlike way-partitioning.
        let mut llc = pipp(2);
        llc.set_targets(&[512, 512]);
        for i in 0..100_000u64 {
            // Partition 1 misses constantly (streams), partition 0 is idle.
            llc.access(AccessRequest::read(PartitionId::from_index(1), LineAddr(i)));
        }
        assert!(
            llc.partition_size(PartitionId::from_index(1)) > 512,
            "idle partner cedes space in PIPP"
        );
    }

    #[test]
    fn stream_detection_classifies_thrashers() {
        let mut llc = pipp(2);
        llc.set_targets(&[512, 512]);
        // Partition 0: cache-resident loop. Partition 1: pure stream.
        for i in 0..50_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(i % 128),
            ));
            llc.access(AccessRequest::read(
                PartitionId::from_index(1),
                LineAddr(1_000_000 + i),
            ));
        }
        llc.set_targets(&[512, 512]); // triggers classification
        assert!(!llc.streaming_flags()[0]);
        assert!(llc.streaming_flags()[1]);
        // The streamer is throttled to one effective way at insertion.
        assert_eq!(llc.insert_position(1), 0);
    }

    #[test]
    fn insert_positions_collapse_with_many_partitions() {
        // The scalability failure the paper highlights: 16 partitions on 16
        // ways all insert at the LRU end.
        let llc =
            PippLlc::try_new(1024, 16, 16, PippConfig::default(), 1).expect("valid PIPP geometry");
        for p in 0..16 {
            assert_eq!(llc.insert_position(p), 0);
        }
    }

    #[test]
    fn try_new_rejects_bad_geometry() {
        assert!(matches!(
            PippLlc::try_new(1024, 16, 0, PippConfig::default(), 1),
            Err(crate::SchemeConfigError::PartitionsExceedWays { .. })
        ));
        assert!(PippLlc::try_new(1024, 16, 4, PippConfig::default(), 1).is_ok());
    }

    #[test]
    fn telemetry_counts_eviction_churn() {
        use vantage_telemetry::{RingSink, Telemetry, TelemetryRecord};
        let mut llc = pipp(2);
        let (sink, reader) = RingSink::with_capacity(8192);
        llc.set_telemetry(Telemetry::new(Box::new(sink), 512));
        for i in 0..5000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index((i % 2) as usize),
                LineAddr(i),
            ));
        }
        let total_churn: u64 = reader
            .records()
            .iter()
            .filter_map(|r| match r {
                TelemetryRecord::Sample(s) => Some(s.churn),
                _ => None,
            })
            .sum();
        assert!(total_churn > 0, "streaming traffic must churn lines");
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut llc = pipp(2);
        assert_eq!(
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(7))),
            AccessOutcome::Miss
        );
        assert_eq!(
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(7))),
            AccessOutcome::Hit
        );
        assert_eq!(llc.stats().hits[0], 1);
        assert_eq!(llc.stats().misses[0], 1);
        assert_eq!(llc.name(), "PIPP");
    }
}
