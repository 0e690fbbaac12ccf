//! The six benchmark workloads (README, "Workloads", says why each exists)
//! and what they share.

pub mod bank8;
pub mod churn;
pub mod cmp4;
pub mod llc;

use vantage::{VantageConfig, VantageLlc, VantageStats};
use vantage_cache::ZArray;
use vantage_partitioning::{AccessOutcome, AccessRequest};

use crate::gen::{SplitMix64, StreamSpec};
use crate::harness::Fnv;

/// Hash and controller seed of the system under test: part of its
/// configuration, not an input, so `--seed` does not reach it.
pub const SYSTEM_SEED: u64 = 0x5EED;
/// Partitions smaller than this are left out of the overshoot metric: a
/// few lines of slack are a large share of a tiny target.
const MIN_TRACKED_TARGET: u64 = 64;

/// Folds outcomes into `digest` 64 hit bits at a time and returns the hits.
pub fn fold_outcomes(digest: &mut Fnv, out: &[AccessOutcome]) -> u64 {
    let mut hits = 0;
    for chunk in out.chunks(64) {
        let mut word = 0u64;
        for (i, o) in chunk.iter().enumerate() {
            word |= u64::from(o.is_hit()) << i;
        }
        hits += u64::from(word.count_ones());
        digest.fold(word);
    }
    hits
}

/// Largest (actual - target) / target in percent over partitions whose
/// target is at least [`MIN_TRACKED_TARGET`]; 0 when none is over target.
pub fn overshoot_pct(actual: &[u64], targets: &[u64], live: &[bool]) -> f64 {
    let mut worst = 0.0f64;
    for ((&a, &t), _) in actual.iter().zip(targets).zip(live).filter(|(_, &l)| l) {
        if t >= MIN_TRACKED_TARGET && a > t {
            worst = worst.max((a - t) as f64 * 100.0 / t as f64);
        }
    }
    worst
}

/// Warms a cache through `serve`: one sweep over every line the stream can
/// name (so the cache is as full as the working sets can make it), then
/// `random` requests drawn like the timed ones (so partition sizes settle).
/// The requests are drawn a batch at a time into one buffer; none is kept.
pub fn warm_up(
    spec: &StreamSpec,
    rng: &mut SplitMix64,
    random: usize,
    batch: usize,
    serve: &mut dyn FnMut(&[AccessRequest]),
) {
    let mut buf = Vec::with_capacity(batch);
    let random = std::iter::repeat_with(|| spec.draw(rng)).take(random);
    for r in spec.sweep().chain(random) {
        buf.push(r);
        if buf.len() == batch {
            serve(&buf);
            buf.clear();
        }
    }
    serve(&buf);
}

/// A Vantage cache on a 4-way zcache with the benchmark's fixed seeds.
pub fn vantage_llc(frames: usize, cands: usize, parts: usize) -> VantageLlc {
    let array = Box::new(ZArray::new(frames, 4, cands, SYSTEM_SEED));
    VantageLlc::try_new(array, parts, VantageConfig::default(), SYSTEM_SEED)
        .expect("valid Vantage config")
}

/// Folds the Vantage counters the digests cover.
pub fn fold_vantage(digest: &mut Fnv, v: &VantageStats) {
    digest.fold_all([
        v.demotions,
        v.promotions,
        v.unmanaged_evictions,
        v.forced_managed_evictions,
        v.setpoint_adjustments,
        v.throttled_insertions,
    ]);
}

/// A pre-generated request buffer the timed region loops over in fixed
/// batches, with one reused outcome buffer and the accounting every
/// replaying workload keeps.
pub struct Replay {
    pub reqs: Vec<AccessRequest>,
    cursor: usize,
    batch: usize,
    pub out: Vec<AccessOutcome>,
    /// Digest of every outcome served so far.
    pub outcomes: Fnv,
    /// Requests issued per partition.
    pub issued: Vec<u64>,
    pub hits: u64,
}

impl Replay {
    /// `reqs.len()` must be a multiple of `batch`.
    pub fn new(reqs: Vec<AccessRequest>, batch: usize, parts: usize) -> Self {
        Self {
            reqs,
            cursor: 0,
            batch,
            out: Vec::with_capacity(batch),
            outcomes: Fnv::default(),
            issued: vec![0; parts],
            hits: 0,
        }
    }

    /// The next batch's range in `reqs`, wrapping at the end.
    pub fn next_batch(&mut self) -> std::ops::Range<usize> {
        let start = self.cursor;
        self.cursor = (self.cursor + self.batch) % self.reqs.len();
        start..start + self.batch
    }

    /// Accounts for the batch `range` whose outcomes are in `out`; returns
    /// the check it broke, if any.
    pub fn account(&mut self, range: std::ops::Range<usize>) -> Option<String> {
        let n = range.len();
        for r in &self.reqs[range] {
            self.issued[r.part.index()] += 1;
        }
        if self.out.len() != n {
            return Some(format!("{} outcomes for {n} requests", self.out.len()));
        }
        self.hits += fold_outcomes(&mut self.outcomes, &self.out);
        None
    }

    /// The prefix of the buffer the layer probes replay.
    pub fn probe_reqs(&self) -> Vec<AccessRequest> {
        let n = self.reqs.len().min(crate::probes::ProbeInput::MAX_REQS);
        self.reqs[..n].to_vec()
    }
}
