//! `cmp4_ucp`: the figure suite's inner loop. A 4-core `CmpSim` on the
//! small-scale machine, Vantage on Z4/52 driven by UCP, one fixed
//! multiprogrammed mix — the only workload where `sim`, `ucp`,
//! `workloads::AppGen`, the L1s and the LLC all do work.
//!
//! The mix and the machine (hash seeds included) are fixed; `--seed` seeds
//! the four application reference streams, which are the inputs.

use vantage_cache::hash::mix64;
use vantage_partitioning::{HasInvariants, Llc, LlcStats, PartitionId};
use vantage_sim::{CmpSim, Scheme, SchemeKind, SimResult, SystemConfig, L1};
use vantage_workloads::{mixes, AppGen, AppSpec, RefStream};

use super::{fold_vantage, overshoot_pct, SYSTEM_SEED};
use crate::harness::{Fnv, Simulated, SliceOut, Workload};
use crate::probes::ProbeInput;
use crate::trace::Tracer;

const CORES: usize = 4;
/// `mixes(4, 1, MIX_SEED)[MIX_INDEX]`: class 7 of the 35, as drawn at the
/// repo's default seed.
const MIX_SEED: u64 = 42;
const MIX_INDEX: usize = 7;
/// Sim steps (memory references) per simulated instruction on this mix,
/// used only to cut the run into about a hundred slices.
const STEPS_PER_INSTR: f64 = 0.102;
const TARGET_SLICES: u64 = 100;
/// Warm-up runs in chunks of this many steps until the LLC is full.
const WARM_CHUNK: u64 = 20_000;
const WARM_MAX_STEPS: u64 = 4_000_000;

pub fn mix_apps() -> Vec<AppSpec> {
    mixes(CORES, 1, MIX_SEED).swap_remove(MIX_INDEX).apps
}

/// The reference stream of core `c` for `seed`, as `CmpSim::new` would base
/// and salt it.
pub fn app_stream(apps: &[AppSpec], c: usize, seed: u64) -> AppGen {
    AppGen::new(
        apps[c].clone(),
        (c as u64 + 1) << 44,
        seed ^ mix64(c as u64 + 0xABC),
    )
}

pub fn system(instructions: u64) -> SystemConfig {
    let mut sys = SystemConfig::small_scale();
    sys.seed = SYSTEM_SEED;
    sys.instructions = instructions;
    sys
}

pub fn build_sim(seed: u64, instructions: u64, kind: &SchemeKind) -> CmpSim {
    let apps = mix_apps();
    let sources = (0..CORES)
        .map(|c| Box::new(app_stream(&apps, c, seed)) as Box<dyn RefStream + Send>)
        .collect();
    CmpSim::with_sources(system(instructions), kind, sources, "")
}

fn vantage(sim: &CmpSim) -> &vantage::VantageLlc {
    match sim.scheme() {
        Scheme::Vantage(l) => l,
        _ => unreachable!("cmp4_ucp builds an unbanked Vantage scheme"),
    }
}

/// Counters read at the start of the timed region and subtracted at the end
/// (the sim hands out no `&mut` to reset them).
struct Baseline {
    stats: LlcStats,
    vstats: vantage::VantageStats,
    epochs: u64,
}

pub struct Cmp4 {
    sim: CmpSim,
    seed: u64,
    /// Instructions each core must execute.
    quota: u64,
    steps_per_slice: u64,
    expected_slices: usize,
    base: Baseline,
    result: Option<SimResult>,
    failed: Option<String>,
    overshoot: f64,
    slice0_digest: u64,
}

impl Cmp4 {
    fn epochs(sim: &CmpSim) -> u64 {
        sim.epoch().next_at() / system(1).repartition_interval - 1
    }

    /// LLC statistics, partition sizes and the step clock folded together.
    fn state_digest(&self) -> u64 {
        let llc = self.sim.scheme().llc();
        let stats = llc.stats();
        let mut d = Fnv::default();
        d.fold_all(stats.hits.iter().chain(&stats.misses).copied());
        d.fold(stats.evictions);
        d.fold_all((0..CORES).map(|p| llc.partition_size(PartitionId::from_index(p))));
        d.fold(self.sim.steps());
        d.0
    }

    fn boundary_checks(&mut self) -> Option<String> {
        let v = vantage(&self.sim);
        let ids = (0..CORES).map(PartitionId::from_index);
        let actual: Vec<u64> = ids.clone().map(|p| v.partition_size(p)).collect();
        let held = actual.iter().sum::<u64>() + v.unmanaged_size();
        if held > v.capacity() as u64 {
            return Some(format!(
                "{held} lines held in a {}-line cache",
                v.capacity()
            ));
        }
        let targets: Vec<u64> = ids.map(|p| v.partition_target(p)).collect();
        self.overshoot = self
            .overshoot
            .max(overshoot_pct(&actual, &targets, &[true; CORES]));
        None
    }
}

impl Workload for Cmp4 {
    const NAME: &'static str = "cmp4_ucp";
    const NOMINAL_RATE: f64 = 14.0e6;

    fn setup(seed: u64, units: u64, after_inputs: &mut dyn FnMut()) -> Self {
        // The inputs are the four reference streams, generated on the fly
        // inside the sim (workloads.appgen_ns_per_ref prices them); nothing
        // is pre-generated, so the memory baseline is taken before the build.
        after_inputs();
        let quota = (units / CORES as u64).max(1);
        let mut sim = build_sim(seed, quota, &SchemeKind::vantage_paper());
        let capacity = vantage(&sim).capacity();
        while vantage(&sim).array().occupancy() < capacity && sim.steps() < WARM_MAX_STEPS {
            if sim.run_for(WARM_CHUNK).is_some() {
                break;
            }
        }
        let v = vantage(&sim);
        let base = Baseline {
            stats: v.stats().clone(),
            vstats: v.vantage_stats().clone(),
            epochs: Self::epochs(&sim),
        };
        let est_steps = (units as f64 * STEPS_PER_INSTR) as u64;
        let steps_per_slice = (est_steps / TARGET_SLICES).max(1_000);
        Self {
            sim,
            seed,
            quota,
            steps_per_slice,
            expected_slices: (est_steps / steps_per_slice) as usize + 1,
            base,
            result: None,
            failed: None,
            overshoot: 0.0,
            slice0_digest: 0,
        }
    }

    fn expected_slices(&self) -> usize {
        self.expected_slices
    }

    fn slice(&mut self, i: usize, tr: &mut Tracer) -> Option<SliceOut> {
        if self.result.is_some() || self.failed.is_some() {
            return None;
        }
        let mut s = SliceOut::default();
        let before = self.sim.steps();
        let parent = tr.open("harness", "slice");
        let (sim, steps) = (&mut self.sim, self.steps_per_slice);
        let (r, secs) = tr.call("sim", "run_for", parent, || sim.try_run_for(steps));
        tr.close(parent);
        s.busy_s = secs;
        s.calls.push(secs);
        s.ops = self.sim.steps() - before;
        s.units = s.ops;
        match r {
            Ok(done) => self.result = done,
            Err(e) => {
                self.failed = Some(e.to_string());
                s.broke = Some(format!("run_for: {e}"));
            }
        }
        let broke = self.boundary_checks();
        s.broke = s.broke.or(broke);
        if i == 0 {
            self.slice0_digest = self.state_digest();
        }
        Some(s)
    }

    /// The pause/resume seam: slice 0 as four shorter `run_for` calls.
    fn alt_slice0(&mut self, variant: usize) -> Option<u64> {
        if variant != 0 {
            return None;
        }
        let quarter = self.steps_per_slice / 4;
        for part in [
            quarter,
            quarter,
            quarter,
            self.steps_per_slice - 3 * quarter,
        ] {
            self.sim.run_for(part);
        }
        Some(self.state_digest())
    }

    fn finish(&mut self) -> Simulated {
        let mut broke = Vec::new();
        let quota = self.quota;
        let v = vantage(&self.sim);
        if let Err(e) = v.check_invariants() {
            broke.push(format!("check_invariants: {e}"));
        }
        let (stats, vs) = (v.stats(), v.vantage_stats());
        let hits = stats.total_hits() - self.base.stats.total_hits();
        let misses = stats.total_misses() - self.base.stats.total_misses();
        let steps = self.sim.steps();
        let mut d = Fnv(self.state_digest());
        let mut sim = Simulated {
            requests: hits + misses,
            hits,
            vantage: {
                let b = &self.base.vstats;
                vantage::VantageStats {
                    unmanaged_evictions: vs.unmanaged_evictions - b.unmanaged_evictions,
                    forced_managed_evictions: vs.forced_managed_evictions
                        - b.forced_managed_evictions,
                    demotions: vs.demotions - b.demotions,
                    promotions: vs.promotions - b.promotions,
                    setpoint_adjustments: vs.setpoint_adjustments - b.setpoint_adjustments,
                    throttled_insertions: vs.throttled_insertions - b.throttled_insertions,
                    ..vantage::VantageStats::default()
                }
            },
            size_overshoot_pct: self.overshoot,
            epochs: Self::epochs(&self.sim) - self.base.epochs,
            // Whole-sim counts, warm-up included, like the quota they pair with.
            sim_steps: steps,
            sim_instructions: quota * CORES as u64,
            // Instructions per step over the whole sim, warm-up included:
            // the sim reports instructions only as the quota it was given.
            unit_scale: (quota * CORES as u64) as f64 / steps as f64,
            slice0_digest: self.slice0_digest,
            ..Simulated::default()
        };
        match &self.result {
            Some(r) => {
                if r.invariant_recoveries != 0 {
                    broke.push(format!("{} invariant recoveries", r.invariant_recoveries));
                }
                if r.ipc.len() != CORES || r.ipc.iter().any(|&i| !(i > 0.0 && i <= 1.0)) {
                    broke.push(format!("per-core IPC out of (0, 1]: {:?}", r.ipc));
                }
                if r.l2_misses.iter().zip(&r.l2_accesses).any(|(m, a)| m > a) {
                    broke.push("a core reports more L2 misses than accesses".into());
                }
                if r.l2_accesses.iter().sum::<u64>() > stats.total_hits() + stats.total_misses() {
                    broke.push("cores report more L2 accesses than the LLC served".into());
                }
                sim.ipc_sum = r.throughput;
                sim.sim_l2_accesses = r.l2_accesses.iter().sum();
                d.fold_all(r.ipc.iter().map(|i| i.to_bits()));
                d.fold_all(r.l2_accesses.iter().chain(&r.l2_misses).copied());
            }
            None => broke.push(match &self.failed {
                Some(e) => format!("the sim stopped before every core met its quota: {e}"),
                None => "the sim stopped before every core met its quota".into(),
            }),
        }
        fold_vantage(&mut d, &sim.vantage);
        sim.digest = d.0;
        sim.broke = broke;
        sim
    }

    /// The L2-level request stream of this mix and seed: the four reference
    /// streams filtered through private L1s, interleaved round-robin.
    fn probe_input(&self) -> ProbeInput {
        let apps = mix_apps();
        let sys = system(1);
        let mut cores: Vec<(AppGen, L1)> = (0..CORES)
            .map(|c| {
                (
                    app_stream(&apps, c, self.seed),
                    L1::new(sys.l1_lines, sys.l1_ways),
                )
            })
            .collect();
        let mut reqs = Vec::with_capacity(ProbeInput::MAX_REQS);
        while reqs.len() < ProbeInput::MAX_REQS {
            for (c, (gen, l1)) in cores.iter_mut().enumerate() {
                let r = gen.next_ref();
                if !l1.access(r.addr) {
                    reqs.push(vantage_partitioning::AccessRequest::read(
                        PartitionId::from_index(c),
                        r.addr,
                    ));
                }
            }
        }
        reqs.truncate(ProbeInput::MAX_REQS);
        ProbeInput {
            frames: sys.l2_lines,
            cands: 52,
            parts: CORES,
            population: CORES,
            occupancy: vantage(&self.sim).array().occupancy(),
            reqs,
        }
    }
}
