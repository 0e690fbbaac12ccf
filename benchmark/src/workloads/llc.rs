//! The three single-cache workloads: one `VantageLlc` on a Z4/52 zcache,
//! four partitions with unequal targets, uniform random private working
//! sets, driven through `access_batch`.
//!
//! * `llc_miss_z52` — working sets of frames/2 lines each (2× pressure,
//!   about half the requests miss): the walk, the 52-candidate demotion scan
//!   and the controller feedback do nearly all the work.
//! * `llc_hit_z52` — working sets of frames/16 (every request hits after
//!   warm-up): bypasses walk and demotion entirely; hash, lookup, timestamp
//!   update, ownership compare and statistics dominate.
//! * `llc_shared_pin` — as `llc_hit_z52` under `ShareMode::Pin`, with 30% of
//!   each partition's requests going to one hot set partition 0 touched
//!   first: the same hit path, resolving cross-partition hits in place.

use std::marker::PhantomData;

use vantage::VantageLlc;
use vantage_cache::ShareMode;
use vantage_partitioning::{HasInvariants, Llc, PartitionId};

use super::{fold_vantage, overshoot_pct, vantage_llc, warm_up, Replay};
use crate::gen::{SplitMix64, StreamSpec};
use crate::harness::{Fnv, Simulated, SliceOut, Workload};
use crate::probes::ProbeInput;
use crate::trace::Tracer;

pub const FRAMES: usize = 32 * 1024;
pub const CANDS: usize = 52;
pub const PARTS: usize = 4;
/// Requests per `access_batch` call.
const BATCH: usize = 4096;
const SLICES: usize = 100;
/// Longest pre-generated request buffer; the timed region loops over it.
const MAX_BUFFER: usize = 2 * 1024 * 1024;
/// What distinguishes the three workloads.
pub trait Shape {
    const NAME: &'static str;
    const NOMINAL_RATE: f64;
    /// Private working set = FRAMES / WS_DIV lines per partition.
    const WS_DIV: u64;
    /// Pin mode plus a shared hot set taking 30% of the requests.
    const SHARED: bool;
}

pub struct Miss;
impl Shape for Miss {
    const NAME: &'static str = "llc_miss_z52";
    const NOMINAL_RATE: f64 = 1.6e6;
    const WS_DIV: u64 = 2;
    const SHARED: bool = false;
}

pub struct Hit;
impl Shape for Hit {
    const NAME: &'static str = "llc_hit_z52";
    const NOMINAL_RATE: f64 = 16.0e6;
    const WS_DIV: u64 = 16;
    const SHARED: bool = false;
}

pub struct SharedPin;
impl Shape for SharedPin {
    const NAME: &'static str = "llc_shared_pin";
    const NOMINAL_RATE: f64 = 14.0e6;
    const WS_DIV: u64 = 16;
    const SHARED: bool = true;
}

/// Capacity targets ½, ¼, ⅛, ⅛.
pub fn targets() -> [u64; PARTS] {
    let f = FRAMES as u64;
    [f / 2, f / 4, f / 8, f / 8]
}

fn spec<S: Shape>() -> StreamSpec {
    StreamSpec {
        parts: PARTS,
        ws_lines: FRAMES as u64 / S::WS_DIV,
        shared_lines: if S::SHARED { FRAMES as u64 / 16 } else { 0 },
        shared_pct: 30,
    }
}

pub struct LlcWorkload<S: Shape> {
    llc: VantageLlc,
    replay: Replay,
    batches_per_slice: usize,
    overshoot: f64,
    slice0_digest: u64,
    shape: PhantomData<S>,
}

impl<S: Shape> LlcWorkload<S> {
    /// Outcome stream, statistics and partition sizes folded together.
    fn state_digest(&self) -> u64 {
        let mut d = self.replay.outcomes;
        let stats = self.llc.stats();
        d.fold_all(stats.hits.iter().chain(&stats.misses).copied());
        d.fold(stats.evictions);
        d.fold_all((0..PARTS).map(|p| self.llc.partition_size(PartitionId::from_index(p))));
        d.fold(self.llc.unmanaged_size());
        d.0
    }

    /// Slice-boundary checks: per-partition hits + misses == requests
    /// issued, and partition sizes fit the cache.
    fn boundary_checks(&mut self) -> Option<String> {
        let stats = self.llc.stats();
        for p in 0..PARTS {
            let served = stats.hits[p] + stats.misses[p];
            if served != self.replay.issued[p] {
                return Some(format!(
                    "partition {p}: {served} hits+misses for {} requests",
                    self.replay.issued[p]
                ));
            }
        }
        let ids = (0..PARTS).map(PartitionId::from_index);
        let actual: Vec<u64> = ids.clone().map(|p| self.llc.partition_size(p)).collect();
        let held = actual.iter().sum::<u64>() + self.llc.unmanaged_size();
        if held > FRAMES as u64 {
            return Some(format!("{held} lines held in a {FRAMES}-line cache"));
        }
        let targets: Vec<u64> = ids.map(|p| self.llc.partition_target(p)).collect();
        self.overshoot = self
            .overshoot
            .max(overshoot_pct(&actual, &targets, &[true; PARTS]));
        None
    }
}

impl<S: Shape> Workload for LlcWorkload<S> {
    const NAME: &'static str = S::NAME;
    const NOMINAL_RATE: f64 = S::NOMINAL_RATE;

    fn setup(seed: u64, units: u64, after_inputs: &mut dyn FnMut()) -> Self {
        let batches_per_slice = (units as usize).div_ceil(SLICES * BATCH).max(1);
        let total = batches_per_slice * SLICES * BATCH;
        let spec = spec::<S>();
        let mut rng = SplitMix64::new(seed ^ 0x11C0_FFEE);
        let reqs = spec.generate(&mut rng, total.min(MAX_BUFFER));
        after_inputs();

        let mut llc = vantage_llc(FRAMES, CANDS, PARTS);
        if S::SHARED {
            assert!(llc.set_share_mode(ShareMode::Pin), "Vantage supports Pin");
        }
        llc.set_targets(&targets());
        let mut replay = Replay::new(reqs, BATCH, PARTS);
        warm_up(&spec, &mut rng, 8 * FRAMES, BATCH, &mut |reqs| {
            replay.out.clear();
            llc.access_batch(reqs, &mut replay.out);
        });
        llc.take_stats();
        llc.take_vantage_stats();

        Self {
            llc,
            replay,
            batches_per_slice,
            overshoot: 0.0,
            slice0_digest: 0,
            shape: PhantomData,
        }
    }

    fn expected_slices(&self) -> usize {
        SLICES
    }

    fn slice(&mut self, i: usize, tr: &mut Tracer) -> Option<SliceOut> {
        if i >= SLICES {
            return None;
        }
        let mut s = SliceOut::default();
        let parent = tr.open("harness", "slice");
        for _ in 0..self.batches_per_slice {
            let range = self.replay.next_batch();
            self.replay.out.clear();
            let (llc, out) = (&mut self.llc, &mut self.replay.out);
            let reqs = &self.replay.reqs[range.clone()];
            let ((), secs) = tr.call("core", "access_batch", parent, || {
                llc.access_batch(reqs, out)
            });
            s.busy_s += secs;
            s.calls.push(secs);
            s.ops += BATCH as u64;
            let broke = self.replay.account(range);
            s.broke = s.broke.or(broke);
        }
        tr.close(parent);
        s.units = s.ops;
        let broke = self.boundary_checks();
        s.broke = s.broke.or(broke);
        if i == 0 {
            self.slice0_digest = self.state_digest();
        }
        Some(s)
    }

    fn alt_slice0(&mut self, variant: usize) -> Option<u64> {
        if variant != 0 {
            return None;
        }
        for _ in 0..self.batches_per_slice {
            let range = self.replay.next_batch();
            self.replay.out.clear();
            for &r in &self.replay.reqs[range.clone()] {
                self.replay.out.push(self.llc.access(r));
            }
            self.replay.account(range);
        }
        Some(self.state_digest())
    }

    fn finish(&mut self) -> Simulated {
        let mut broke = Vec::new();
        if let Err(e) = self.llc.check_invariants() {
            broke.push(format!("check_invariants: {e}"));
        }
        let vantage = self.llc.vantage_stats().clone();
        let mut d = Fnv(self.state_digest());
        fold_vantage(&mut d, &vantage);
        Simulated {
            requests: self.replay.issued.iter().sum(),
            hits: self.replay.hits,
            vantage,
            size_overshoot_pct: self.overshoot,
            unit_scale: 1.0,
            slice0_digest: self.slice0_digest,
            digest: d.0,
            broke,
            ..Simulated::default()
        }
    }

    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            frames: FRAMES,
            cands: CANDS,
            parts: PARTS,
            population: PARTS,
            occupancy: self.llc.array().occupancy(),
            reqs: self.replay.probe_reqs(),
        }
    }
}
