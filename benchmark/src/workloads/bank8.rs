//! `bank8_pipelined`: an 8-core, 8-bank Vantage LLC behind the pipelined
//! ring-buffer engine (`bank_jobs(1)`: one thread), even targets, uniform
//! private working sets at 2× pressure, batches of 16384. Bank routing and
//! the ring hand-off only exist here.
//!
//! 64 K frames per bank is deliberate: the issue's prototype found that at
//! 256 K per bank the host's DRAM and TLB set the pace and the run-to-run
//! spread was 14–30%, against 3% at 64 K.

use vantage::{Engine, EngineKind, VantageStats};
use vantage_partitioning::{
    AccessOutcome, AccessRequest, HasInvariants, Llc, LlcStats, PartitionId,
};
use vantage_sim::{Scheme, SchemeKind, SystemConfig};

use super::{fold_outcomes, fold_vantage, overshoot_pct, warm_up, Replay, SYSTEM_SEED};
use crate::gen::{SplitMix64, StreamSpec};
use crate::harness::{Fnv, Simulated, SliceOut, Workload};
use crate::probes::ProbeInput;
use crate::trace::Tracer;

const PARTS: usize = 8;
const BANKS: usize = 8;
const FRAMES: usize = 512 * 1024;
const BATCH: usize = 16 * 1024;
const SLICES: usize = 100;
const MAX_BUFFER: usize = 2 * 1024 * 1024;

fn spec() -> StreamSpec {
    StreamSpec {
        parts: PARTS,
        ws_lines: (FRAMES / 4) as u64,
        shared_lines: 0,
        shared_pct: 0,
    }
}

fn system() -> SystemConfig {
    let mut sys = SystemConfig::large_scale();
    sys.cores = PARTS;
    sys.l2_lines = FRAMES;
    sys.seed = SYSTEM_SEED;
    sys
}

fn build() -> Scheme {
    Scheme::builder(SchemeKind::vantage_paper(), system())
        .banks(BANKS)
        .engine(EngineKind::Pipelined)
        .bank_jobs(1)
        .try_build()
        .expect("valid banked Vantage machine")
}

/// Bank 0 rebuilt on its own, exactly as `Scheme::try_build` builds it
/// inside the banked machine (shard seed and size), so its Vantage counters
/// — which the banked machine keeps behind `dyn Llc` — can be read.
fn bank0_twin() -> Scheme {
    let mut shard = system();
    shard.l2_lines = FRAMES / BANKS;
    shard.seed = SYSTEM_SEED ^ vantage_cache::hash::mix64(0xBA);
    Scheme::try_build(&SchemeKind::vantage_paper(), &shard).expect("valid bank")
}

pub struct Bank8 {
    /// `None` only after a twin handed its cache to another engine.
    scheme: Option<Scheme>,
    /// Bank 0 on its own, fed bank 0's share of every batch after the
    /// clock has stopped.
    bank0: Scheme,
    bank0_reqs: Vec<AccessRequest>,
    bank0_out: Vec<AccessOutcome>,
    /// The machine's hit/miss counters when the warm-up ended.
    warm_stats: LlcStats,
    replay: Replay,
    batches_per_slice: usize,
    overshoot: f64,
    slice0_digest: u64,
}

impl Bank8 {
    fn scheme(&mut self) -> &mut Scheme {
        self.scheme
            .as_mut()
            .expect("the main set-up keeps its scheme")
    }

    fn state_digest_of(outcomes: Fnv, llc: &mut dyn Llc) -> u64 {
        let mut d = outcomes;
        let stats = llc.stats_mut();
        d.fold_all(stats.hits.iter().chain(&stats.misses).copied());
        d.fold(stats.evictions);
        d.fold_all((0..PARTS).map(|p| llc.partition_size(PartitionId::from_index(p))));
        d.0
    }

    /// Serves bank 0's share of `range` on the standalone bank 0.
    fn feed_bank0(&mut self, range: std::ops::Range<usize>) {
        let scheme = self.scheme.as_ref().expect("main set-up");
        let sharded = scheme.as_sharded().expect("banked machine");
        self.bank0_reqs.clear();
        self.bank0_reqs.extend(
            self.replay.reqs[range]
                .iter()
                .filter(|r| sharded.bank_of(r.addr) == 0),
        );
        self.bank0_out.clear();
        self.bank0
            .llc_mut()
            .access_batch(&self.bank0_reqs, &mut self.bank0_out);
    }

    fn boundary_checks(&mut self) -> Option<String> {
        let issued = self.replay.issued.clone();
        let warm: Vec<u64> = (0..PARTS)
            .map(|p| self.warm_stats.hits[p] + self.warm_stats.misses[p])
            .collect();
        let llc = self.scheme().llc_mut();
        let stats = llc.stats_mut();
        for (p, &n) in issued.iter().enumerate() {
            let served = stats.hits[p] + stats.misses[p] - warm[p];
            if served != n {
                return Some(format!(
                    "partition {p}: {served} hits+misses for {n} requests"
                ));
            }
        }
        let obs = llc.observations();
        let held: u64 = obs.actual.iter().sum();
        if held > FRAMES as u64 {
            return Some(format!("{held} lines held in a {FRAMES}-line cache"));
        }
        self.overshoot = self
            .overshoot
            .max(overshoot_pct(&obs.actual, &obs.targets, &obs.live));
        None
    }
}

impl Workload for Bank8 {
    const NAME: &'static str = "bank8_pipelined";
    const NOMINAL_RATE: f64 = 0.9e6;

    fn setup(seed: u64, units: u64, after_inputs: &mut dyn FnMut()) -> Self {
        let batches_per_slice = (units as usize).div_ceil(SLICES * BATCH).max(1);
        let total = batches_per_slice * SLICES * BATCH;
        let spec = spec();
        let mut rng = SplitMix64::new(seed ^ 0xBA_4C8);
        let reqs = spec.generate(&mut rng, total.min(MAX_BUFFER));
        after_inputs();

        let mut scheme = build();
        let even = [(FRAMES / PARTS) as u64; PARTS];
        scheme.llc_mut().set_targets(&even);
        let mut replay = Replay::new(reqs, BATCH, PARTS);
        // The warm-up stream goes through the machine and, bank 0's share of
        // it, through bank 0 on its own: both see the same subsequence.
        let mut bank0 = bank0_twin();
        bank0
            .llc_mut()
            .set_targets(&[(FRAMES / PARTS / BANKS) as u64; PARTS]);
        let mut bank0_reqs = Vec::with_capacity(BATCH);
        let mut bank0_out = Vec::with_capacity(BATCH);
        warm_up(&spec, &mut rng, FRAMES, BATCH, &mut |reqs| {
            replay.out.clear();
            scheme.llc_mut().access_batch(reqs, &mut replay.out);
            let sharded = scheme.as_sharded().expect("banked machine");
            bank0_reqs.clear();
            bank0_reqs.extend(reqs.iter().filter(|r| sharded.bank_of(r.addr) == 0));
            bank0_out.clear();
            bank0.llc_mut().access_batch(&bank0_reqs, &mut bank0_out);
        });
        scheme.epoch_barrier();
        // `take_stats` on a banked cache leaves the banks' own counters
        // running, so the warm-up's counts are subtracted instead of reset.
        let warm_stats = scheme.llc_mut().stats_mut().clone();
        if let Scheme::Vantage(v) = &mut bank0 {
            v.take_vantage_stats();
        }

        Self {
            scheme: Some(scheme),
            bank0,
            bank0_reqs,
            bank0_out,
            warm_stats,
            replay,
            batches_per_slice,
            overshoot: 0.0,
            slice0_digest: 0,
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
            let scheme = self.scheme.as_mut().expect("main set-up");
            let (out, reqs) = (&mut self.replay.out, &self.replay.reqs[range.clone()]);
            let ((), secs) = tr.call("partitioning", "access_batch", parent, || {
                scheme.llc_mut().access_batch(reqs, out);
                scheme.epoch_barrier();
            });
            s.busy_s += secs;
            s.calls.push(secs);
            s.ops += BATCH as u64;
            let broke = self.replay.account(range.clone());
            s.broke = s.broke.or(broke);
            self.feed_bank0(range);
        }
        tr.close(parent);
        s.units = s.ops;
        let broke = self.boundary_checks();
        s.broke = s.broke.or(broke);
        if i == 0 {
            let outcomes = self.replay.outcomes;
            self.slice0_digest = Self::state_digest_of(outcomes, self.scheme().llc_mut());
        }
        Some(s)
    }

    /// Variant 0 serves slice 0 one `access()` at a time; variant 1 unwraps
    /// the pipelined engine and serves it through the batched one. With the
    /// main run's pipelined batches that is all three engines on one
    /// request prefix.
    fn alt_slice0(&mut self, variant: usize) -> Option<u64> {
        let mut scheme = self.scheme.take()?;
        let mut banked;
        let mut engine = match variant {
            0 => Engine::Serial(scheme.llc_mut()),
            1 => {
                let Scheme::Pipelined { llc, .. } = scheme else {
                    unreachable!("built with the pipelined engine");
                };
                banked = llc.into_banked();
                Engine::Batched {
                    llc: &mut banked,
                    chunk: BATCH,
                }
            }
            _ => return None,
        };
        let mut outcomes = Fnv::default();
        for _ in 0..self.batches_per_slice {
            let range = self.replay.next_batch();
            self.replay.out.clear();
            engine.drive(&self.replay.reqs[range], &mut self.replay.out);
            engine.barrier();
            fold_outcomes(&mut outcomes, &self.replay.out);
        }
        Some(Self::state_digest_of(outcomes, engine.llc_mut()))
    }

    fn finish(&mut self) -> Simulated {
        let mut broke = Vec::new();
        let outcomes = self.replay.outcomes;
        let mut d = Fnv(Self::state_digest_of(outcomes, self.scheme().llc_mut()));

        // The standalone bank 0 must have counted exactly what bank 0 inside
        // the machine counted; its Vantage counters then stand for the
        // machine's (the banks are statistically identical).
        let inside = {
            let s = self.scheme.as_ref().expect("main set-up");
            let b = s
                .as_sharded()
                .expect("banked machine")
                .bank(0)
                .stats()
                .clone();
            (b.hits, b.misses, b.evictions)
        };
        let alone = {
            let b = self.bank0.llc().stats();
            (b.hits.clone(), b.misses.clone(), b.evictions)
        };
        if inside != alone {
            broke.push(format!(
                "bank 0 inside the machine counted {inside:?}, on its own {alone:?}"
            ));
        }
        let Scheme::Vantage(v) = &self.bank0 else {
            unreachable!("bank 0 is an unbanked Vantage scheme");
        };
        if let Err(e) = v.check_invariants() {
            broke.push(format!("bank 0 check_invariants: {e}"));
        }
        let vs = v.vantage_stats();
        fold_vantage(&mut d, vs);
        // Bank 0's counters scaled to the machine by its share of requests
        // (warm-up included on both sides of the ratio).
        let bank0_requests = (alone.0.iter().sum::<u64>() + alone.1.iter().sum::<u64>()).max(1);
        let requests: u64 = self.replay.issued.iter().sum();
        let served = self.warm_stats.total_hits() + self.warm_stats.total_misses() + requests;
        let scale = |x: u64| (x as u128 * served as u128 / bank0_requests as u128) as u64;
        Simulated {
            requests,
            hits: self.replay.hits,
            vantage: VantageStats {
                unmanaged_evictions: scale(vs.unmanaged_evictions),
                forced_managed_evictions: scale(vs.forced_managed_evictions),
                demotions: scale(vs.demotions),
                promotions: scale(vs.promotions),
                setpoint_adjustments: scale(vs.setpoint_adjustments),
                throttled_insertions: scale(vs.throttled_insertions),
                ..VantageStats::default()
            },
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
            frames: FRAMES / BANKS,
            cands: 52,
            parts: PARTS,
            population: PARTS,
            occupancy: match &self.bank0 {
                Scheme::Vantage(v) => v.array().occupancy(),
                _ => unreachable!("bank 0 is an unbanked Vantage scheme"),
            },
            reqs: self.replay.probe_reqs(),
        }
    }
}
