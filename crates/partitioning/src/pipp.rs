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
use vantage_cache::{Frame, LineAddr, SetAssocArray, TagMeta, Walk};
use vantage_snapshot::{Decoder, Encoder};

use crate::error::SchemeConfigError;
use crate::frame::{Mechanism, SchemeFrame};
use crate::llc::ways_from_targets;

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

/// The PIPP [`Mechanism`]: per-set priority chains, way allocations and
/// stream classification. The shared [`TagMeta`] stamp lane holds the
/// inverse chain map (`meta.ts(frame)` is the frame's chain position), so
/// it stays meaningful on never-filled frames.
pub struct Pipp {
    ways: u32,
    /// Per-set priority chains: `chain[set*ways + pos]` is the way at
    /// position `pos` (0 = LRU end).
    chain: Vec<u8>,
    alloc: Vec<u32>,
    streaming: Vec<bool>,
    /// Interval counters for stream classification.
    interval_hits: Vec<u64>,
    interval_misses: Vec<u64>,
    cfg: PippConfig,
    rng: SmallRng,
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
pub type PippLlc = SchemeFrame<Pipp>;

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
        let array = Box::new(SetAssocArray::hashed(frames, ways, seed));
        let mut mech = Pipp {
            ways: ways as u32,
            chain: (0..frames).map(|f| (f % ways) as u8).collect(),
            alloc: vec![0; partitions],
            streaming: vec![false; partitions],
            interval_hits: vec![0; partitions],
            interval_misses: vec![0; partitions],
            cfg,
            rng: SmallRng::seed_from_u64(seed ^ 0x9157),
        };
        mech.set_targets(&vec![1; partitions]);
        let mut llc = SchemeFrame::new(array, partitions, mech);
        for f in 0..frames {
            llc.meta.set_ts(f, llc.mech.chain[f]);
        }
        Ok(llc)
    }

    /// Current way allocation (streaming partitions are reported as
    /// allocated, even though they effectively use one way).
    pub fn way_allocation(&self) -> &[u32] {
        &self.mech.alloc
    }

    /// Which partitions are currently classified as streaming.
    pub fn streaming_flags(&self) -> &[bool] {
        &self.mech.streaming
    }
}

impl Pipp {
    /// Moves `frame`'s way from its current chain position to `to`,
    /// shifting the ways in between.
    fn reposition(&mut self, meta: &mut TagMeta, frame: Frame, to: usize) {
        let ways = self.ways as usize;
        let base = frame as usize / ways * ways;
        let chain = &mut self.chain[base..base + ways];
        let from = meta.ts(frame as usize) as usize;
        debug_assert_eq!(usize::from(chain[from]), frame as usize - base);
        if from == to {
            return;
        }
        let lo = from.min(to);
        let span = &mut chain[lo..=from.max(to)];
        if from < to {
            span.rotate_left(1);
        } else {
            span.rotate_right(1);
        }
        // Rebuild the inverse map for the touched span.
        for (off, &way) in span.iter().enumerate() {
            meta.set_ts(base + usize::from(way), (lo + off) as u8);
        }
    }

    /// The insertion position for partition `part` (0-indexed from the LRU
    /// end), per the paper's parameters.
    fn insert_position(&self, part: usize) -> usize {
        if self.streaming[part] {
            // Streaming apps share the bottom of the stack: one way each.
            let s = self.streaming.iter().filter(|&&st| st).count();
            s - 1
        } else {
            (self.alloc[part].max(1) - 1) as usize
        }
        .min(self.ways as usize - 1)
    }

    /// Re-runs stream classification from the interval counters and resets
    /// them. Called on every repartitioning.
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

impl Mechanism for Pipp {
    type Array = SetAssocArray;
    const STAMPS_EMPTY_FRAMES: bool = true;

    fn name(&self) -> &'static str {
        "PIPP"
    }

    /// Single-step probabilistic promotion (an adopted line's chain
    /// position is placement state and stays put until promoted).
    fn on_hit(&mut self, meta: &mut TagMeta, f: Frame, part: usize, owner: usize, adopted: bool) {
        self.interval_hits[part] += 1;
        let p = if self.streaming[if adopted { part } else { owner }] {
            self.cfg.p_stream
        } else {
            self.cfg.p_prom
        };
        if self.rng.gen_bool(p) {
            let pos = meta.ts(f as usize) as usize;
            if pos + 1 < self.ways as usize {
                self.reposition(meta, f, pos + 1);
            }
        }
    }

    fn note_miss(&mut self, part: usize, _addr: LineAddr) {
        self.interval_misses[part] += 1;
    }

    /// The lowest-priority frame, preferring empty frames. The walk yields
    /// the whole set in way order, so a way indexes its node.
    fn select_victim(&mut self, _meta: &mut TagMeta, walk: &Walk, _part: usize) -> usize {
        let ways = self.ways as usize;
        let base = walk.nodes[0].frame as usize / ways * ways;
        let chain = &self.chain[base..base + ways];
        let way = chain
            .iter()
            .find(|&&w| !walk.nodes[w as usize].is_occupied())
            .unwrap_or(&chain[0]);
        usize::from(*way)
    }

    fn on_fill(&mut self, meta: &mut TagMeta, landing: Frame, part: usize, _addr: LineAddr) {
        let pos = self.insert_position(part);
        self.reposition(meta, landing, pos);
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

    /// The (pseudo-)allocation in lines.
    fn target(&self, part: usize) -> u64 {
        let lines_per_way = (self.chain.len() / self.ways as usize) as u64;
        u64::from(self.alloc[part]) * lines_per_way
    }

    fn save(&self, _meta: &TagMeta, enc: &mut Encoder) {
        enc.put_u8_slice(&self.chain);
        enc.put_u32_slice(&self.alloc);
        enc.put_u64(self.streaming.len() as u64);
        for &s in &self.streaming {
            enc.put_bool(s);
        }
        enc.put_u64_slice(&self.interval_hits);
        enc.put_u64_slice(&self.interval_misses);
        for s in self.rng.state() {
            enc.put_u64(s);
        }
    }

    fn load(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<Vec<u8>> {
        let partitions = self.alloc.len();
        let ways = self.ways as usize;
        let chain = dec.take_u8_vec()?;
        if chain.len() != self.chain.len() {
            return Err(dec.mismatch("chain length differs from frame count"));
        }
        // Each set's chain must be a permutation of its ways; the inverse
        // map is derived from it rather than trusted from the file.
        let mut pos_of = vec![0u8; chain.len()];
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
        let interval_hits = dec.take_u64_vec()?;
        let interval_misses = dec.take_u64_vec()?;
        if interval_hits.len() != partitions || interval_misses.len() != partitions {
            return Err(dec.mismatch("per-partition metadata lengths differ"));
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = dec.take_u64()?;
        }
        self.chain = chain;
        self.alloc = alloc;
        self.streaming = streaming;
        self.interval_hits = interval_hits;
        self.interval_misses = interval_misses;
        self.rng = SmallRng::from_state(rng_state);
        Ok(pos_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::{AccessOutcome, AccessRequest, Llc};
    use vantage_cache::PartitionId;

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
                let w = llc.mech.chain[set * ways + pos] as usize;
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
        assert_eq!(llc.mech.insert_position(1), 0);
    }

    #[test]
    fn insert_positions_collapse_with_many_partitions() {
        // The scalability failure the paper highlights: 16 partitions on 16
        // ways all insert at the LRU end.
        let llc =
            PippLlc::try_new(1024, 16, 16, PippConfig::default(), 1).expect("valid PIPP geometry");
        for p in 0..16 {
            assert_eq!(llc.mech.insert_position(p), 0);
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
