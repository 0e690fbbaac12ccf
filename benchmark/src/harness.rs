//! The measurement protocol shared by every workload: repeated set-up, a
//! fixed amount of work cut into slices with the calibration kernel run
//! between them, output checks, and the reduction of all of it to metrics.

use std::time::Instant;

use crate::cal::{Cal, CAL_REF_OPS_PER_S};
use crate::stats::{cv_pct, median, percentile, tail_percentile};
use crate::trace::Tracer;

/// Each run sets its system up at least `MIN_SETUPS` times (the twins need
/// two), and again until `SETUP_BUDGET_S` calibrated seconds or `MAX_SETUPS`
/// set-ups are spent; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;
/// Kernel steps per calibration run around a set-up (~10 ms).
const SETUP_CAL_OPS: u64 = 700_000;

/// Share of `--seconds` given to the workload; the rest goes to the
/// calibration kernel between slices.
const WORK_SHARE: f64 = 0.7;

/// FNV-1a over 64-bit words: the digest simulated results are compared by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn fold(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn fold_all(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.fold(x);
        }
    }
}

/// What one slice did.
#[derive(Debug, Default)]
pub struct SliceOut {
    /// Work units completed (the unit `speed_cal` counts).
    pub units: u64,
    /// Operations attempted: access requests, sim steps, lifecycle calls.
    pub ops: u64,
    /// Seconds spent inside calls into the system under test.
    pub busy_s: f64,
    /// Duration of each such call, in seconds.
    pub calls: Vec<f64>,
    /// The first check this slice broke, if any; its ops then count as failed.
    pub broke: Option<String>,
}

/// Simulated (modelled-cache) results of a run. Exact for a fixed seed.
#[derive(Debug, Default)]
pub struct Simulated {
    pub requests: u64,
    pub hits: u64,
    /// Vantage's own counters over the timed region.
    pub vantage: vantage::VantageStats,
    /// Max over samples and partitions of (actual - target) / target, %.
    pub size_overshoot_pct: f64,
    /// Repartitioning epochs run inside the timed region.
    pub epochs: u64,
    /// Cores' IPC sum, sim steps and measured-window instructions and L2
    /// accesses; all 0 for workloads that simulate no cores.
    pub ipc_sum: f64,
    pub sim_steps: u64,
    pub sim_instructions: u64,
    pub sim_l2_accesses: u64,
    /// `speed_cal` units per unit [`SliceOut::units`] counts (the sim counts
    /// steps per slice and learns instructions per step at the end).
    pub unit_scale: f64,
    /// Digest of the state after slice 0 (compared with the twins').
    pub slice0_digest: u64,
    /// Digest over outcomes, final statistics and partition sizes.
    pub digest: u64,
    /// End-of-run checks that failed.
    pub broke: Vec<String>,
}

/// One benchmark workload: how to set its system up, run a slice of its
/// fixed work, and read the simulated results back.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Work units per second this workload sustained at the commit that
    /// defined the benchmark, at calibration-reference speed (rounded). It
    /// only sizes the fixed work so a run lasts about `--seconds` on the
    /// host the benchmark was tuned on; it is never compared against.
    const NOMINAL_RATE: f64;

    /// Generates the inputs from `seed`, builds the system and warms it
    /// until the modelled cache is full. `after_inputs` is called once the
    /// pre-generated inputs exist and before the system is built (memory
    /// baseline); nothing allocated before the call may be freed after it.
    fn setup(seed: u64, units: u64, after_inputs: &mut dyn FnMut()) -> Self;

    /// Slices the fixed work is cut into (an estimate where the workload
    /// only learns the count by running; it sizes the calibration runs).
    fn expected_slices(&self) -> usize;

    /// Runs slice `i`; `None` once the fixed work is done.
    fn slice(&mut self, i: usize, tr: &mut Tracer) -> Option<SliceOut>;

    /// Runs slice 0 on a twin set-up another way the public API offers —
    /// variant 0: one `access()` per request (or split `run_for` calls);
    /// variant 1: another engine, where the workload has one — and returns
    /// the state digest [`Simulated::slice0_digest`] must equal. The twin is
    /// dropped afterwards.
    fn alt_slice0(&mut self, variant: usize) -> Option<u64>;

    fn finish(&mut self) -> Simulated;

    /// What the layer probes of a traced run replay.
    fn probe_input(&self) -> crate::probes::ProbeInput;
}

/// Everything a run measured, before it is turned into named metrics.
pub struct RunLog {
    pub setup_s: Vec<f64>,
    /// Peak live heap bytes between the main set-up's `after_inputs` and
    /// the end of the timed region, over the bytes live at `after_inputs`.
    pub heap_bytes: usize,
    pub slices: Vec<SliceOut>,
    /// Calibration rate before slice 0, then after every slice.
    pub cal_rates: Vec<f64>,
    pub wall_s: f64,
    pub sim: Simulated,
    /// State digests of the twins after slice 0.
    pub alt_slice0: Vec<u64>,
    pub tracer: Tracer,
    /// Present in a traced run.
    pub probe_input: Option<crate::probes::ProbeInput>,
}

/// Runs workload `W` under the protocol and returns the raw log.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool, cal: &mut Cal) -> RunLog {
    let units = (seconds * WORK_SHARE * W::NOMINAL_RATE) as u64;

    // Identical set-ups, each timed between two kernel runs: the last one
    // is measured, the ones before it are the twins slice 0 is cross-checked
    // on. Short set-ups are repeated more often so their median settles.
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut heap_base = 0;
    let mut alt_slice0 = Vec::new();
    let mut w = loop {
        let before = cal.rate(SETUP_CAL_OPS);
        let t0 = Instant::now();
        let mut w = W::setup(seed, units, &mut || {
            heap_base = crate::mem::live();
            crate::mem::reset_peak();
        });
        let raw = t0.elapsed().as_secs_f64();
        let k = (before + cal.rate(SETUP_CAL_OPS)) / 2.0 / CAL_REF_OPS_PER_S;
        setup_s.push(raw * k);
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= MIN_SETUPS && (spent >= SETUP_BUDGET_S || setup_s.len() >= MAX_SETUPS) {
            break w;
        }
        alt_slice0.extend(w.alt_slice0(setup_s.len() - 1));
    };

    let n = w.expected_slices();
    let cal_ops = (seconds * (1.0 - WORK_SHARE) * CAL_REF_OPS_PER_S / (n + 1) as f64) as u64;
    let mut tracer = Tracer::new();
    let mut slices = Vec::with_capacity(n);
    let mut cal_rates = Vec::with_capacity(n + 1);
    let t0 = Instant::now();
    cal_rates.push(cal.rate(cal_ops));
    for i in 0.. {
        tracer.on = trace && i % 2 == 1;
        tracer.slice = i as u32;
        let Some(s) = w.slice(i, &mut tracer) else {
            break;
        };
        slices.push(s);
        cal_rates.push(cal.rate(cal_ops));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let heap_bytes = crate::mem::peak() - heap_base;

    let sim = w.finish();
    let probe_input = trace.then(|| w.probe_input());
    drop(w);
    RunLog {
        setup_s,
        heap_bytes,
        slices,
        cal_rates,
        wall_s,
        sim,
        alt_slice0,
        tracer,
        probe_input,
    }
}

impl RunLog {
    /// Calibration rate around slice `i`: the mean of the kernel runs
    /// before and after it.
    pub fn cal_around(&self, i: usize) -> f64 {
        (self.cal_rates[i] + self.cal_rates[i + 1]) / 2.0
    }

    /// Calibrated units per second of each slice in `pick`.
    fn slice_rates(&self, pick: impl Fn(usize) -> bool) -> Vec<f64> {
        self.slices
            .iter()
            .enumerate()
            .filter(|(i, s)| pick(*i) && s.busy_s > 0.0 && s.units > 0)
            .map(|(i, s)| {
                s.units as f64 * self.sim.unit_scale / s.busy_s * CAL_REF_OPS_PER_S
                    / self.cal_around(i)
            })
            .collect()
    }

    /// `speed_cal`: the median over slices of slice rate × reference
    /// calibration rate ÷ calibration rate around that slice.
    pub fn speed_cal(&self) -> f64 {
        median(&self.slice_rates(|_| true))
    }

    /// Slow-down of the traced (odd) slices against the untraced (even)
    /// ones, in percent. Meaningful in a traced run only.
    pub fn trace_overhead_pct(&self) -> f64 {
        let traced = median(&self.slice_rates(|i| i % 2 == 1));
        let plain = median(&self.slice_rates(|i| i % 2 == 0));
        if traced > 0.0 {
            (plain / traced - 1.0) * 100.0
        } else {
            0.0
        }
    }

    pub fn units(&self) -> f64 {
        self.slices.iter().map(|s| s.units).sum::<u64>() as f64 * self.sim.unit_scale
    }

    pub fn busy_s(&self) -> f64 {
        self.slices.iter().map(|s| s.busy_s).sum()
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    fn twins_agree(&self) -> bool {
        self.alt_slice0.iter().all(|&d| d == self.sim.slice0_digest)
    }

    /// Ops of slices that broke a check; every op when an end-of-run check
    /// or the twin comparison failed (nothing the run produced is trusted).
    pub fn failed_ops(&self) -> u64 {
        if !self.sim.broke.is_empty() || !self.twins_agree() {
            return self.ops();
        }
        self.slices
            .iter()
            .filter(|s| s.broke.is_some())
            .map(|s| s.ops)
            .sum()
    }

    /// Human-readable reasons behind [`failed_ops`](Self::failed_ops).
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self.sim.broke.clone();
        if !self.twins_agree() {
            out.push(format!(
                "slice 0 digest {:016x} differs from the twins' {:016x?}",
                self.sim.slice0_digest, self.alt_slice0
            ));
        }
        for (i, s) in self.slices.iter().enumerate() {
            if let Some(why) = &s.broke {
                out.push(format!("slice {i}: {why}"));
            }
        }
        out
    }

    pub fn heap_mib(&self) -> f64 {
        self.heap_bytes as f64 / (1024.0 * 1024.0)
    }

    pub fn cal_median(&self) -> f64 {
        median(&self.cal_rates)
    }

    pub fn cal_cv_pct(&self) -> f64 {
        cv_pct(&self.cal_rates)
    }

    /// Median and tail (see [`tail_percentile`]) of the raw per-call
    /// durations in microseconds, and the percentile the tail is.
    pub fn call_us(&self) -> (f64, f64, u32) {
        let us: Vec<f64> = self
            .slices
            .iter()
            .flat_map(|s| s.calls.iter().map(|c| c * 1e6))
            .collect();
        let tail = tail_percentile(us.len()).unwrap_or(50);
        (median(&us), percentile(&us, tail), tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.fold_all([1, 2]);
        let mut b = Fnv::default();
        b.fold_all([2, 1]);
        assert_ne!(a, b);
        assert_ne!(a, Fnv::default());
    }
}
