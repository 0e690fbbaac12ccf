//! The multicore simulation loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;

use vantage_cache::hash::mix64;
use vantage_partitioning::{AccessRequest, PartitionId};
use vantage_snapshot::{Encoder, Snapshot, SnapshotReader, SnapshotWriter};
use vantage_workloads::{AppGen, Mix, RefStream};

use crate::config::{PolicyKind, SchemeKind, SystemConfig};
use crate::epoch::{EpochController, Reconfig, ReconfigError, SimError};
use crate::l1::L1;
use crate::scheme::Scheme;

/// One sample of the partition-size time series (Fig. 8).
#[derive(Clone, Debug)]
pub struct TraceSample {
    /// Global cycle of the sample.
    pub cycle: u64,
    /// UCP targets in effect (lines of total cache).
    pub targets: Vec<u64>,
    /// Actual partition sizes (lines).
    pub actuals: Vec<u64>,
}

/// Results of one simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Scheme label (e.g. `Vantage-Z4/52`).
    pub label: String,
    /// Per-core IPC over each core's measured instruction quota.
    pub ipc: Vec<f64>,
    /// Aggregate throughput `Σ IPC` — the paper's headline metric.
    pub throughput: f64,
    /// L2 accesses per core within the measured window.
    pub l2_accesses: Vec<u64>,
    /// L2 misses per core within the measured window.
    pub l2_misses: Vec<u64>,
    /// L2 misses per kilo-instruction per core.
    pub mpki: Vec<f64>,
    /// Fraction of evictions forced from the managed region (Vantage only).
    pub managed_eviction_fraction: Option<f64>,
    /// Invariant violations found at epoch boundaries and absorbed by an
    /// in-place repair (always 0 unless `check_invariants` is set).
    pub invariant_recoveries: u64,
    /// Live reconfigurations that failed post-swap invariants and were
    /// rolled back (see [`CmpSim::reconfigure`]).
    pub reconfig_rollbacks: u64,
    /// Partition-size samples (when tracing was enabled).
    pub trace: Vec<TraceSample>,
    /// Demotion/eviction priority samples (when the probe was enabled).
    pub priority_samples: Vec<(u64, u16, f32)>,
}

struct CoreState {
    gen: Box<dyn RefStream + Send>,
    l1: L1,
    time: u64,
    instrs: u64,
    done_at: Option<u64>,
    l2_accesses: u64,
    l2_misses: u64,
    measured_l2_accesses: u64,
    measured_l2_misses: u64,
}

impl Snapshot for CoreState {
    fn save_state(&self, enc: &mut Encoder) {
        self.gen.save_state(enc);
        self.l1.save_state(enc);
        enc.put_u64(self.time);
        enc.put_u64(self.instrs);
        enc.put_opt_u64(self.done_at);
        enc.put_u64(self.l2_accesses);
        enc.put_u64(self.l2_misses);
        enc.put_u64(self.measured_l2_accesses);
        enc.put_u64(self.measured_l2_misses);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        self.gen.load_state(dec)?;
        self.l1.load_state(dec)?;
        let time = dec.take_u64()?;
        let instrs = dec.take_u64()?;
        let done_at = dec.take_opt_u64()?;
        let l2_accesses = dec.take_u64()?;
        let l2_misses = dec.take_u64()?;
        let measured_l2_accesses = dec.take_u64()?;
        let measured_l2_misses = dec.take_u64()?;
        if l2_misses > l2_accesses || measured_l2_misses > measured_l2_accesses {
            return Err(dec.invalid("more misses than accesses"));
        }
        if measured_l2_accesses > l2_accesses {
            return Err(dec.invalid("measured window exceeds the total access count"));
        }
        if let Some(at) = done_at {
            if at > time {
                return Err(dec.invalid("core finished in its own future"));
            }
        }
        self.time = time;
        self.instrs = instrs;
        self.done_at = done_at;
        self.l2_accesses = l2_accesses;
        self.l2_misses = l2_misses;
        self.measured_l2_accesses = measured_l2_accesses;
        self.measured_l2_misses = measured_l2_misses;
        Ok(())
    }
}

/// An event-interleaved CMP simulation of one mix under one scheme.
///
/// # Example
///
/// ```
/// use vantage_sim::{CmpSim, SchemeKind, SystemConfig};
/// use vantage_workloads::mixes;
///
/// let mut sys = SystemConfig::small_scale();
/// sys.instructions = 200_000; // keep the doctest quick
/// let mix = &mixes(4, 1, 7)[0];
/// let mut sim = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix);
/// let result = sim.run();
/// assert!(result.throughput > 0.0);
/// assert_eq!(result.ipc.len(), 4);
/// ```
pub struct CmpSim {
    sys: SystemConfig,
    scheme: Scheme,
    label: String,
    cores: Vec<CoreState>,
    epoch: EpochController,
    mem_free: Vec<u64>,
    trace_interval: Option<u64>,
    next_trace: u64,
    trace: Vec<TraceSample>,
    /// References processed so far — the checkpoint clock.
    steps: u64,
    finished: bool,
}

impl CmpSim {
    /// Builds a simulation of `mix` on machine `sys` under scheme `kind`.
    ///
    /// # Panics
    ///
    /// Panics if the mix's application count does not match `sys.cores` or
    /// the configuration is invalid.
    pub fn new(sys: SystemConfig, kind: &SchemeKind, mix: &Mix) -> Self {
        assert_eq!(mix.apps.len(), sys.cores, "mix size must match core count");
        let scheme = Scheme::try_build(kind, &sys).expect("valid scheme config");
        // Policy selection, epoch scheduling and invariant auditing all
        // live in the controller; the loop below only feeds it.
        let epoch = EpochController::new(&sys, kind);
        let cores = mix
            .apps
            .iter()
            .enumerate()
            .map(|(c, app)| CoreState {
                gen: Box::new(AppGen::new(
                    app.clone(),
                    (c as u64 + 1) << 44,
                    sys.seed ^ mix64(c as u64 + 0xABC),
                )) as Box<dyn RefStream + Send>,
                l1: L1::new(sys.l1_lines, sys.l1_ways),
                time: 0,
                instrs: 0,
                done_at: None,
                l2_accesses: 0,
                l2_misses: 0,
                measured_l2_accesses: 0,
                measured_l2_misses: 0,
            })
            .collect();
        let channels = sys.mem_channels;
        let mut label = if sys.banks > 1 {
            format!("{}-{}B", kind.label(), sys.banks)
        } else {
            kind.label()
        };
        if sys.policy != PolicyKind::Ucp && kind.uses_ucp() {
            label = format!("{label}+{}", sys.policy.label());
        }
        Self {
            sys,
            scheme,
            label,
            cores,
            epoch,
            mem_free: vec![0; channels],
            trace_interval: None,
            next_trace: u64::MAX,
            trace: Vec::new(),
            steps: 0,
            finished: false,
        }
    }

    /// Builds a simulation driven by arbitrary reference sources instead of
    /// the mix's application models — one source per core.
    ///
    /// # Panics
    ///
    /// Panics if the source count does not match `sys.cores`.
    pub fn with_sources(
        sys: SystemConfig,
        kind: &SchemeKind,
        sources: Vec<Box<dyn RefStream + Send>>,
        label_suffix: &str,
    ) -> Self {
        use vantage_workloads::mixes;
        assert_eq!(sources.len(), sys.cores, "one source per core");
        // Build the machinery with a placeholder mix, then swap the cores'
        // generators for the provided sources.
        let mix = &mixes(sys.cores.div_ceil(4) * 4, 1, sys.seed)[0];
        let mut placeholder_mix = mix.clone();
        placeholder_mix.apps.truncate(sys.cores);
        while placeholder_mix.apps.len() < sys.cores {
            placeholder_mix.apps.push(mix.apps[0].clone());
        }
        let mut sim = Self::new(sys, kind, &placeholder_mix);
        for (core, src) in sim.cores.iter_mut().zip(sources) {
            core.gen = src;
        }
        sim.label = format!("{}{label_suffix}", sim.label);
        sim
    }

    /// Enables partition-size tracing every `interval` cycles (Fig. 8).
    pub fn enable_trace(&mut self, interval: u64) {
        assert!(interval > 0, "trace interval must be non-zero");
        self.trace_interval = Some(interval);
        self.next_trace = interval;
    }

    /// Enables demotion/eviction priority probing where the scheme
    /// supports it (Vantage-LRU, way-partitioning).
    pub fn enable_priority_probe(&mut self) {
        self.scheme.llc_mut().enable_priority_probe();
    }

    /// Direct access to the scheme under test.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The epoch controller (policy identity, recovery counters).
    pub fn epoch(&self) -> &EpochController {
        &self.epoch
    }

    /// Attaches a fault-injection schedule to the LLC, polled on every
    /// access. Returns `false` when the scheme cannot host one (only
    /// unbanked Vantage can).
    pub fn set_fault_plan(&mut self, plan: vantage::FaultPlan) -> bool {
        match self.scheme.vantage_mut() {
            Some(v) => {
                v.set_fault_plan(Some(plan));
                true
            }
            None => false,
        }
    }

    /// The label stamped on results and artifacts: the scheme's label,
    /// plus a `+policy` tag when a non-default allocation policy drives it.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Installs a telemetry producer on the LLC under test.
    ///
    /// Returns `false` when the scheme does not support telemetry.
    pub fn set_telemetry(&mut self, telemetry: vantage_telemetry::Telemetry) -> bool {
        self.scheme.llc_mut().set_telemetry(telemetry)
    }

    /// Detaches the LLC's telemetry producer, flushing its sink.
    pub fn take_telemetry(&mut self) -> Option<vantage_telemetry::Telemetry> {
        self.scheme.llc_mut().take_telemetry()
    }

    fn take_trace_sample(&mut self, cycle: u64) {
        let n = self.cores.len();
        let targets = if self.epoch.targets().is_empty() {
            vec![(self.sys.l2_lines / n) as u64; n]
        } else {
            self.epoch.targets().to_vec()
        };
        let actuals = (0..n)
            .map(|p| self.scheme.llc().partition_size(PartitionId::from_index(p)))
            .collect();
        self.trace.push(TraceSample {
            cycle,
            targets,
            actuals,
        });
    }

    /// Runs the simulation to completion: every core executes at least its
    /// instruction quota (finished cores keep running to preserve
    /// contention, as in the paper's methodology).
    ///
    /// # Panics
    ///
    /// Panics on a [`SimError`] (fail-fast invariant violation); use
    /// [`CmpSim::try_run`] to handle it as data instead.
    pub fn run(&mut self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CmpSim::run`] with typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] when an epoch-boundary invariant check
    /// fails under `fail_fast_invariants`; without fail-fast, violations
    /// are repaired in place and counted in
    /// [`SimResult::invariant_recoveries`]. [`SimError::Targets`] when the
    /// LLC refuses an epoch's targets.
    pub fn try_run(&mut self) -> Result<SimResult, SimError> {
        let r = self.try_run_for(u64::MAX)?;
        Ok(r.expect("an unbounded run always completes"))
    }

    /// [`CmpSim::try_run_for`] with panics instead of typed errors.
    pub fn run_for(&mut self, budget: u64) -> Option<SimResult> {
        match self.try_run_for(budget) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs at most `budget` more references, pausing at a
    /// checkpoint-consistent boundary.
    ///
    /// Returns `Ok(None)` when paused before completion — the simulation
    /// can then be checkpointed ([`save_checkpoint`](Self::save_checkpoint))
    /// or simply continued with another call. Returns `Ok(Some(result))`
    /// once every core has met its quota. The pause/resume seams are
    /// exact: any interleaving of `try_run_for` calls produces the same
    /// final result as one uninterrupted [`try_run`](Self::try_run).
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    pub fn try_run_for(&mut self, budget: u64) -> Result<Option<SimResult>, SimError> {
        let quota = self.sys.instructions;
        if !self.finished {
            // The event heap is rebuilt from core times on entry: between
            // references its contents are exactly {(core.time, c)}, and the
            // (time, core) tuples are distinct, so pop order — hence the
            // whole run — is identical however the heap was materialized.
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = self
                .cores
                .iter()
                .enumerate()
                .map(|(c, core)| Reverse((core.time, c)))
                .collect();
            let mut remaining = self.cores.iter().filter(|c| c.done_at.is_none()).count();
            let mut left = budget;

            while remaining > 0 {
                if left == 0 {
                    return Ok(None);
                }
                left -= 1;
                self.steps += 1;
                let Reverse((now, c)) = heap.pop().expect("cores remain");

                // Global-time-ordered bookkeeping (the popped time is the
                // minimum over all cores).
                while now >= self.epoch.next_at() {
                    self.epoch.run_epoch(&mut self.scheme)?;
                }
                if now >= self.next_trace {
                    self.take_trace_sample(now);
                    self.next_trace += self.trace_interval.expect("tracing enabled");
                }

                let core = &mut self.cores[c];
                let r = core.gen.next_ref();
                core.time = now + u64::from(r.gap);
                core.instrs += u64::from(r.gap);

                if !core.l1.access(r.addr) {
                    core.l2_accesses += 1;
                    self.epoch.observe(c, r.addr);
                    let outcome = self
                        .scheme
                        .llc_mut()
                        .access(AccessRequest::read(PartitionId::from_index(c), r.addr));
                    if outcome.is_hit() {
                        core.time += self.sys.l2_latency;
                    } else {
                        core.l2_misses += 1;
                        // Bandwidth model: the line occupies one memory channel
                        // for a fixed service time; contention queues behind it.
                        let ch = (mix64(r.addr.0) % self.mem_free.len() as u64) as usize;
                        let start = self.mem_free[ch].max(core.time);
                        self.mem_free[ch] = start + self.sys.mem_cycles_per_line;
                        core.time = start + self.sys.mem_latency;
                    }
                }

                if core.done_at.is_none() && core.instrs >= quota {
                    core.done_at = Some(core.time);
                    core.measured_l2_accesses = core.l2_accesses;
                    core.measured_l2_misses = core.l2_misses;
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
                heap.push(Reverse((core.time, c)));
            }
            self.finished = true;
        }

        let ipc: Vec<f64> = self
            .cores
            .iter()
            .map(|c| quota as f64 / c.done_at.expect("all cores finished") as f64)
            .collect();
        let mpki: Vec<f64> = self
            .cores
            .iter()
            .map(|c| c.measured_l2_misses as f64 * 1000.0 / quota as f64)
            .collect();
        Ok(Some(SimResult {
            label: self.label.clone(),
            throughput: ipc.iter().sum(),
            ipc,
            l2_accesses: self.cores.iter().map(|c| c.measured_l2_accesses).collect(),
            l2_misses: self.cores.iter().map(|c| c.measured_l2_misses).collect(),
            mpki,
            managed_eviction_fraction: self
                .scheme
                .vantage()
                .map(|v| v.vantage_stats().managed_eviction_fraction()),
            invariant_recoveries: self.epoch.recoveries(),
            reconfig_rollbacks: self.epoch.reconfig_rollbacks(),
            trace: std::mem::take(&mut self.trace),
            priority_samples: self.scheme.llc_mut().drain_priority_samples(),
        }))
    }

    /// References processed so far — the clock periodic checkpointing
    /// counts in.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether every core has met its instruction quota.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Applies a guarded live reconfiguration — an allocation-policy
    /// hot-swap or QoS-contract change — transactionally; see
    /// [`EpochController::reconfigure`]. A failed swap rolls the
    /// controller back and is counted in
    /// [`SimResult::reconfig_rollbacks`].
    ///
    /// # Errors
    ///
    /// As [`EpochController::reconfigure`].
    pub fn reconfigure(&mut self, req: &Reconfig) -> Result<(), ReconfigError> {
        self.epoch.reconfigure(req, &mut self.scheme)
    }

    /// Serializes the complete simulation state — reference generators,
    /// L1s, core scheduling state, the epoch controller (policy monitors
    /// included), memory channels, accumulated trace samples, and the
    /// whole LLC — into a sectioned snapshot.
    pub fn write_checkpoint(&self) -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.add_with("sim/meta", |e| {
            e.put_u64(self.sys.cores as u64);
            e.put_u64(self.sys.l2_lines as u64);
            e.put_u64(self.sys.seed);
            e.put_u64(self.sys.instructions);
            e.put_u64(self.steps);
            e.put_bool(self.finished);
            e.put_bool(self.trace_interval.is_some());
            e.put_u64(self.next_trace);
            e.put_u64_slice(&self.mem_free);
            e.put_u64(self.trace.len() as u64);
            for s in &self.trace {
                e.put_u64(s.cycle);
                e.put_u64_slice(&s.targets);
                e.put_u64_slice(&s.actuals);
            }
        });
        w.add_with("sim/cores", |e| {
            e.put_u64(self.cores.len() as u64);
            for core in &self.cores {
                core.save_state(e);
            }
        });
        let mut e = Encoder::new();
        self.epoch.save_state(&mut e);
        w.add("sim/epoch", e);
        let mut e = Encoder::new();
        self.scheme.llc().save_state(&mut e);
        w.add("sim/llc", e);
        w
    }

    /// Writes a checkpoint to `path` atomically (temp file + fsync +
    /// rename): a crash mid-write leaves the previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// [`vantage_snapshot::SnapshotError::Io`] on filesystem failure.
    pub fn save_checkpoint(&self, path: &Path) -> vantage_snapshot::Result<()> {
        self.write_checkpoint().write_atomic(path)
    }

    /// Restores a checkpoint into this simulation, which must have been
    /// built from the same [`SystemConfig`], scheme and mix that produced
    /// the save. Continuing afterwards is bit-identical to the run that
    /// was checkpointed.
    ///
    /// # Errors
    ///
    /// Any [`vantage_snapshot::SnapshotError`]: corrupt or truncated
    /// files are reported, never panicked on, and shape disagreements
    /// with this simulation surface as
    /// [`Mismatch`](vantage_snapshot::SnapshotError::Mismatch).
    pub fn restore_checkpoint(&mut self, r: &SnapshotReader) -> vantage_snapshot::Result<()> {
        let mut dec = r.section("sim/meta")?;
        if dec.take_u64()? != self.sys.cores as u64 {
            return Err(dec.mismatch("core count differs"));
        }
        if dec.take_u64()? != self.sys.l2_lines as u64 {
            return Err(dec.mismatch("L2 capacity differs"));
        }
        if dec.take_u64()? != self.sys.seed {
            return Err(dec.mismatch("seed differs"));
        }
        if dec.take_u64()? != self.sys.instructions {
            return Err(dec.mismatch("instruction quota differs"));
        }
        let steps = dec.take_u64()?;
        let finished = dec.take_bool()?;
        if dec.take_bool()? != self.trace_interval.is_some() {
            return Err(dec.mismatch("partition-size tracing differs"));
        }
        let next_trace = dec.take_u64()?;
        if self.trace_interval.is_none() && next_trace != u64::MAX {
            return Err(dec.invalid("trace clock armed without tracing"));
        }
        let mem_free = dec.take_u64_vec()?;
        if mem_free.len() != self.mem_free.len() {
            return Err(dec.mismatch("memory channel count differs"));
        }
        let ntrace = dec.take_u64()? as usize;
        // Each sample is at least cycle + two length prefixes: 24 bytes.
        if ntrace > dec.remaining() / 24 {
            return Err(dec.invalid("trace sample count exceeds payload"));
        }
        let mut trace = Vec::with_capacity(ntrace);
        for _ in 0..ntrace {
            let cycle = dec.take_u64()?;
            let targets = dec.take_u64_vec()?;
            let actuals = dec.take_u64_vec()?;
            if targets.len() != self.cores.len() || actuals.len() != self.cores.len() {
                return Err(dec.invalid("trace sample shape differs from core count"));
            }
            trace.push(TraceSample {
                cycle,
                targets,
                actuals,
            });
        }
        dec.finish()?;

        let mut cdec = r.section("sim/cores")?;
        if cdec.take_u64()? != self.cores.len() as u64 {
            return Err(cdec.mismatch("core count differs"));
        }
        for core in &mut self.cores {
            core.load_state(&mut cdec)?;
        }
        cdec.finish()?;

        r.restore("sim/epoch", &mut self.epoch)?;

        let mut ldec = r.section("sim/llc")?;
        self.scheme.llc_mut().load_state(&mut ldec)?;
        ldec.finish()?;

        self.steps = steps;
        self.finished = finished;
        self.next_trace = next_trace;
        self.mem_free = mem_free;
        self.trace = trace;
        Ok(())
    }
}

/// Convenience: runs a single-core application alone on the machine (used
/// by the Table 3 classification experiment).
pub fn run_solo(
    sys: &SystemConfig,
    kind: &SchemeKind,
    app: &vantage_workloads::AppSpec,
) -> SimResult {
    let mut sys = sys.clone();
    sys.cores = 1;
    let mix = Mix {
        name: format!("solo-{}", app.name),
        class: [app.category; 4],
        apps: vec![app.clone()],
    };
    CmpSim::new(sys, kind, &mix).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayKind, BaselineRank};
    use vantage_partitioning::HasInvariants;
    use vantage_workloads::mixes;

    fn quick_sys() -> SystemConfig {
        let mut s = SystemConfig::small_scale();
        s.instructions = 300_000;
        s.repartition_interval = 50_000;
        s
    }

    #[test]
    fn baseline_and_vantage_complete() {
        let mix = &mixes(4, 1, 11)[17]; // some mid-catalog class
        for kind in [
            SchemeKind::Baseline {
                array: ArrayKind::SetAssoc { ways: 16 },
                rank: BaselineRank::Lru,
            },
            SchemeKind::vantage_paper(),
        ] {
            let mut sim = CmpSim::new(quick_sys(), &kind, mix);
            if matches!(kind, SchemeKind::Baseline { .. }) {
                // Only unbanked Vantage hosts a fault plan.
                let plan = vantage::FaultPlan::new(1, 100, &vantage::FaultKind::INJECTABLE);
                assert!(!sim.set_fault_plan(plan));
            }
            let r = sim.run();
            assert_eq!(r.ipc.len(), 4);
            assert!(
                r.throughput > 0.0 && r.throughput <= 4.0,
                "{}: {}",
                r.label,
                r.throughput
            );
            assert!(r.ipc.iter().all(|&x| x > 0.0 && x <= 1.0));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mix = &mixes(4, 1, 3)[8];
        let kind = SchemeKind::vantage_paper();
        let a = CmpSim::new(quick_sys(), &kind, mix).run();
        let b = CmpSim::new(quick_sys(), &kind, mix).run();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.l2_misses, b.l2_misses);
    }

    #[test]
    fn streaming_core_has_high_mpki() {
        // Class "ssss" is index 0 in class order? Find a mix with a
        // streaming app in slot 0 ("s" first in name order).
        let all = mixes(4, 1, 5);
        let mix = all
            .iter()
            .find(|m| m.name.starts_with("sn"))
            .unwrap_or(&all[0]);
        let kind = SchemeKind::Baseline {
            array: ArrayKind::SetAssoc { ways: 16 },
            rank: BaselineRank::Lru,
        };
        let r = CmpSim::new(quick_sys(), &kind, mix).run();
        assert!(r.mpki[0] > 5.0, "streaming app mpki {}", r.mpki[0]);
    }

    #[test]
    fn trace_and_probe_collect_samples() {
        let mix = &mixes(4, 1, 7)[30];
        let mut sim = CmpSim::new(quick_sys(), &SchemeKind::vantage_paper(), mix);
        sim.enable_trace(20_000);
        sim.enable_priority_probe();
        let r = sim.run();
        assert!(!r.trace.is_empty(), "no trace samples");
        for s in &r.trace {
            assert_eq!(s.targets.len(), 4);
            assert_eq!(s.actuals.len(), 4);
        }
        assert!(r.managed_eviction_fraction.is_some());
    }

    #[test]
    fn with_sources_reproduces_the_live_run() {
        // The same generators `new` builds, handed over as sources: an
        // identical run.
        let sys = quick_sys();
        let mix = &mixes(4, 1, 13)[22];
        let live = CmpSim::new(sys.clone(), &SchemeKind::vantage_paper(), mix).run();

        let sources: Vec<Box<dyn RefStream + Send>> = mix
            .apps
            .iter()
            .enumerate()
            .map(|(c, app)| {
                Box::new(AppGen::new(
                    app.clone(),
                    (c as u64 + 1) << 44,
                    sys.seed ^ mix64(c as u64 + 0xABC),
                )) as Box<dyn RefStream + Send>
            })
            .collect();
        let sourced =
            CmpSim::with_sources(sys, &SchemeKind::vantage_paper(), sources, " (sources)").run();
        assert_eq!(live.ipc, sourced.ipc);
        assert_eq!(live.l2_misses, sourced.l2_misses);
        assert!(sourced.label.ends_with("(sources)"));
    }

    #[test]
    fn invariant_checking_and_scrubbing_run_clean() {
        // With the debug checker on, a healthy run must pass every
        // repartitioning-boundary invariant scan; with periodic scrubbing
        // on, the scrubber must actually fire (and find nothing to fix).
        let mut sys = quick_sys();
        sys.check_invariants = true;
        sys.scrub_period = Some(10_000);
        let mix = &mixes(4, 1, 7)[0];
        let mut sim = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix);
        let r = sim.run();
        assert!(r.throughput > 0.0);
        assert_eq!(r.invariant_recoveries, 0, "healthy run needed repairs");
        let inv = sim.scheme().vantage().expect("vantage scheme");
        assert!(inv.scrubs() > 0, "periodic scrub never ran");
        assert_eq!(inv.corruption_fallbacks(), 0);
    }

    #[test]
    fn solo_run_classifies_streaming_as_high_mpki() {
        let sys = quick_sys();
        let app = vantage_workloads::spec_by_name("libquantum_like").expect("in catalog");
        let kind = SchemeKind::Baseline {
            array: ArrayKind::SetAssoc { ways: 16 },
            rank: BaselineRank::Lru,
        };
        let r = run_solo(&sys, &kind, &app);
        assert!(r.mpki[0] > 10.0, "solo stream mpki {}", r.mpki[0]);

        let quiet = vantage_workloads::spec_by_name("povray_like").expect("in catalog");
        let r = run_solo(&sys, &kind, &quiet);
        assert!(r.mpki[0] < 5.0, "insensitive solo mpki {}", r.mpki[0]);
    }
}
