//! Layer probes of a traced run: microbenchmarks that call one layer's
//! public functions from outside, replaying the workload's own request
//! slice against same-geometry structures, so that every cost the access
//! path pays has a name and a number next to the end-to-end metric it
//! should move (README, "Per-layer metrics").
//!
//! Times are medians over a few repetitions, each normalised by the
//! calibration kernel run around it — the same correction `speed_cal` gets.

pub mod cache;
pub mod core;
pub mod partitioning;
pub mod stack;

use std::time::Instant;

use vantage_partitioning::{AccessOutcome, AccessRequest, Llc};

use crate::cal::{Cal, CAL_REF_OPS_PER_S};
use crate::gen::{SplitMix64, StreamSpec};
use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::{warm_up, SYSTEM_SEED};

/// What the probes replay: the workload's cache geometry and a prefix of
/// its own request slice.
pub struct ProbeInput {
    pub frames: usize,
    pub cands: usize,
    pub parts: usize,
    /// Live partitions the lifecycle and policy probes run at.
    pub population: usize,
    /// Lines resident in the workload's cache when it finished; probe arrays
    /// are filled that far.
    pub occupancy: usize,
    /// The first half warms a probe's structures, the second is measured.
    pub reqs: Vec<AccessRequest>,
}

impl ProbeInput {
    pub const MAX_REQS: usize = 128 * 1024;

    pub fn warm(&self) -> &[AccessRequest] {
        &self.reqs[..self.reqs.len() / 2]
    }

    pub fn measured(&self) -> &[AccessRequest] {
        &self.reqs[self.reqs.len() / 2..]
    }
}

/// Repetitions per probe.
pub const REPS: usize = 4;

/// Part `k` of `parts` equal parts of `v`. A probe whose body changes the
/// cache's contents runs each repetition on its own part: replaying one
/// short stream would turn its misses into hits after the first pass.
pub fn part<T>(v: &[T], k: usize, parts: usize) -> &[T] {
    let n = v.len() / parts;
    &v[k * n..(k + 1) * n]
}
/// Kernel steps per calibration run around a repetition (~2 ms).
const CAL_OPS: u64 = 150_000;
/// Requests per `access_batch` call in the probes.
pub const BATCH: usize = 4096;

/// Times probe bodies against the calibration kernel.
pub struct Meter<'a> {
    pub cal: &'a mut Cal,
    /// Kernel rate measured after the previous body, reused as the rate
    /// before the next one.
    last: Option<f64>,
}

impl<'a> Meter<'a> {
    pub fn new(cal: &'a mut Cal) -> Self {
        Self { cal, last: None }
    }

    /// Runs `f` once and returns its raw seconds and the factor that
    /// calibrates them (and any time measured inside `f`): kernel rate
    /// around the run ÷ reference rate.
    pub fn timed(&mut self, f: impl FnOnce()) -> (f64, f64) {
        let before = self.last.take().unwrap_or_else(|| self.cal.rate(CAL_OPS));
        let t0 = Instant::now();
        f();
        let raw = t0.elapsed().as_secs_f64();
        let after = self.cal.rate(CAL_OPS);
        self.last = Some(after);
        (raw, (before + after) / 2.0 / CAL_REF_OPS_PER_S)
    }

    /// Calibrated seconds of one run of `f`.
    pub fn once(&mut self, f: impl FnOnce()) -> f64 {
        let (raw, k) = self.timed(f);
        raw * k
    }

    /// Median calibrated seconds of `f(rep)` over [`REPS`] repetitions.
    pub fn secs(&mut self, mut f: impl FnMut(usize)) -> f64 {
        let samples: Vec<f64> = (0..REPS).map(|rep| self.once(|| f(rep))).collect();
        median(&samples)
    }

    /// [`secs`](Self::secs) as nanoseconds per each of `ops` operations.
    pub fn ns_per_op(&mut self, ops: usize, f: impl FnMut(usize)) -> f64 {
        self.secs(f) * 1e9 / ops.max(1) as f64
    }
}

/// `n` requests of a uniform stream over `parts` private working sets of
/// `ws_lines` lines each, drawn from the probes' own fixed seed, with its
/// warm-up served through `llc` first.
pub fn warmed_stream(
    llc: &mut dyn Llc,
    parts: usize,
    ws_lines: u64,
    n: usize,
) -> Vec<AccessRequest> {
    let spec = StreamSpec {
        parts,
        ws_lines,
        shared_lines: 0,
        shared_pct: 0,
    };
    let mut rng = SplitMix64::new(SYSTEM_SEED);
    let mut out = Vec::with_capacity(BATCH);
    let random = llc.capacity();
    warm_up(&spec, &mut rng, random, BATCH, &mut |reqs| {
        out.clear();
        llc.access_batch(reqs, &mut out);
    });
    spec.generate(&mut rng, n)
}

/// Serves `reqs` through `access_batch` in [`BATCH`]-sized calls and
/// returns the number of hits.
pub fn drive(llc: &mut dyn Llc, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) -> u64 {
    let mut hits = 0;
    for chunk in reqs.chunks(BATCH) {
        out.clear();
        llc.access_batch(chunk, out);
        hits += out.iter().filter(|o| o.is_hit()).count() as u64;
    }
    hits
}

/// Runs every probe and fills the probe-backed per-layer metrics.
pub fn run_all(cal: &mut Cal, input: &ProbeInput, seed: u64, mx: &mut Metrics) {
    let mut m = Meter::new(cal);
    cache::run(&mut m, input, mx);
    core::run(&mut m, input, mx);
    partitioning::run(&mut m, input, mx);
    stack::run(&mut m, input, seed, mx);
}
