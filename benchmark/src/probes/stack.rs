//! Probes of the layers above and beside the cache: `ucp`, `sim`,
//! `workloads`, `snapshot` and `telemetry`.

use std::hint::black_box;

use vantage_cache::LineAddr;
use vantage_partitioning::Llc;
use vantage_sim::{ArrayKind, BaselineRank, CmpSim, Scheme, SchemeKind, SystemConfig, L1};
use vantage_snapshot::SnapshotReader;
use vantage_telemetry::{NullSink, RingSink, Telemetry};
use vantage_ucp::{
    interpolate_curve, lookahead, AllocationPolicy, PolicyInput, QosGuarantee, UcpGranularity,
    UcpPolicy, Umon,
};
use vantage_workloads::{mixes, TenantChurn};

use super::{drive, part, warmed_stream, Meter, ProbeInput, BATCH, REPS};
use crate::harness::Fnv;
use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::churn::{churn_config, FLOOR, FRAMES as CHURN_FRAMES};
use crate::workloads::cmp4::{app_stream, build_sim, mix_apps};
use crate::workloads::{vantage_llc, SYSTEM_SEED};

/// Population `ucp.qos_reallocate_us` is priced at: the churn workload's
/// steady state.
const CHURN_POPULATION: usize = 768;
/// Instructions per core in the probes' short simulations.
const SIM_QUOTA: u64 = 200_000;
const REFS: usize = 64 * 1024;
const STREAM: usize = 32 * 1024;

pub fn run(m: &mut Meter, input: &ProbeInput, seed: u64, mx: &mut Metrics) {
    ucp(m, input, mx);
    sim_and_workloads(m, seed, mx);
    snapshot(m, seed, mx);
    telemetry(m, input, mx);
}

fn ucp(m: &mut Meter, input: &ProbeInput, mx: &mut Metrics) {
    let sets = (input.frames / 16) as u32;
    let mut umon = Umon::new(16, 64, sets, SYSTEM_SEED);
    let n = input.measured().len();
    for r in input.warm() {
        umon.access(r.addr);
    }
    let ns = m.ns_per_op(n, |_| {
        for r in input.measured() {
            umon.access(r.addr);
        }
    });
    mx.set("ucp.umon_access_ns", ns);

    // Lookahead over four 256-block curves, as `UcpPolicy` drives it for
    // Vantage: the monitor's curve, shifted per partition so they differ.
    let curve = interpolate_curve(&umon.miss_curve(), 256);
    let curves: Vec<Vec<u64>> = (0..4u64)
        .map(|p| curve.iter().map(|&c| c / (p + 1)).collect())
        .collect();
    const CALLS: usize = 10;
    let secs = m.secs(|_| {
        for _ in 0..CALLS {
            black_box(lookahead(&curves, 256, 1));
        }
    });
    mx.set("ucp.lookahead_us", secs * 1e6 / CALLS as f64);

    let mut policy = UcpPolicy::new(
        input.parts,
        16,
        64,
        sets,
        input.frames as u64,
        UcpGranularity::Fine { blocks: 256 },
        SYSTEM_SEED,
    );
    for r in &input.reqs {
        policy.observe(r.part.index(), r.addr);
    }
    let secs = m.secs(|_| {
        for _ in 0..CALLS {
            black_box(policy.reallocate());
        }
    });
    mx.set("ucp.reallocate_us", secs * 1e6 / CALLS as f64);

    let mut qos = QosGuarantee::uniform(FLOOR, 1.0).expect("valid uniform contract");
    let pop = CHURN_POPULATION;
    let (actual, counts, live) = (vec![60u64; pop], vec![1000u64; pop], vec![true; pop]);
    let secs = m.secs(|_| {
        for _ in 0..CALLS {
            black_box(qos.reallocate(&PolicyInput {
                capacity: CHURN_FRAMES as u64,
                actual: &actual,
                hits: &counts,
                misses: &counts,
                churn: &counts,
                insertions: &counts,
                shared_hits: &[],
                ownership_transfers: &[],
                live: &live,
                arrived: &[],
                departed: &[],
            }));
        }
    });
    mx.set("ucp.qos_reallocate_us", secs * 1e6 / CALLS as f64);
}

fn sim_and_workloads(m: &mut Meter, seed: u64, mx: &mut Metrics) {
    let apps = mix_apps();
    let mut gens: Vec<_> = (0..apps.len())
        .map(|c| app_stream(&apps, c, seed))
        .collect();
    let mut refs: Vec<LineAddr> = Vec::with_capacity(REFS);
    let ns = m.ns_per_op(REFS, |_| {
        refs.clear();
        for i in 0..REFS {
            refs.push(gens[i % 4].next_ref().addr);
        }
    });
    mx.set("workloads.appgen_ns_per_ref", ns);

    let sys = SystemConfig::small_scale();
    let mut l1 = L1::new(sys.l1_lines, sys.l1_ways);
    let ns = m.ns_per_op(REFS, |_| {
        let mut hits = 0u32;
        for &a in &refs {
            hits += u32::from(l1.access(a));
        }
        black_box(hits);
    });
    mx.set("sim.l1_access_ns", ns);

    let mut churn = TenantChurn::try_new(churn_config()).expect("valid churn config");
    let ns = m.ns_per_op(REFS, |_| {
        for _ in 0..REFS {
            black_box(churn.next_event());
        }
    });
    mx.set("workloads.churn_ns_per_event", ns);

    let secs = m.secs(|_| {
        black_box(mixes(4, 10, 42));
    });
    mx.set("workloads.mixes_ms", secs * 1e3);

    let secs = m.secs(|_| {
        let built = Scheme::builder(SchemeKind::vantage_paper(), SystemConfig::small_scale())
            .try_build()
            .expect("valid scheme config");
        black_box(built.llc().capacity());
    });
    mx.set("sim.scheme_build_ms", secs * 1e3);

    // The same mix on the cheapest LLC: what the sim costs when the scheme
    // costs next to nothing.
    let cheap = SchemeKind::Baseline {
        array: ArrayKind::SetAssoc { ways: 16 },
        rank: BaselineRank::Lru,
    };
    let secs = m.secs(|_| {
        black_box(build_sim(seed, SIM_QUOTA, &cheap).run().throughput);
    });
    mx.set("sim.baseline_sa16_speed_cal", 4.0 * SIM_QUOTA as f64 / secs);
}

/// LLC statistics and the step clock of a sim, folded.
fn sim_digest(sim: &CmpSim) -> u64 {
    let stats = sim.scheme().llc().stats();
    let mut d = Fnv::default();
    d.fold_all(stats.hits.iter().chain(&stats.misses).copied());
    d.fold(stats.evictions);
    d.fold(sim.steps());
    d.0
}

fn snapshot(m: &mut Meter, seed: u64, mx: &mut Metrics) {
    let kind = SchemeKind::vantage_paper();
    let mut sim = build_sim(seed, 10 * SIM_QUOTA, &kind);
    sim.run_for(200_000);
    let mut bytes = Vec::new();
    let secs = m.secs(|_| bytes = sim.write_checkpoint().to_bytes());
    mx.set("snapshot.save_ms", secs * 1e3);
    mx.set("snapshot.bytes", bytes.len() as f64);

    let mut restored = build_sim(seed, 10 * SIM_QUOTA, &kind);
    let mut ok = true;
    let secs = m.secs(|_| {
        ok &= SnapshotReader::from_bytes(&bytes)
            .and_then(|r| restored.restore_checkpoint(&r))
            .is_ok();
    });
    mx.set("snapshot.restore_ms", secs * 1e3);
    sim.run_for(50_000);
    restored.run_for(50_000);
    let identical = ok && sim_digest(&sim) == sim_digest(&restored);
    mx.set(
        "snapshot.roundtrip_identical",
        f64::from(u8::from(identical)),
    );
}

fn telemetry(m: &mut Meter, input: &ProbeInput, mx: &mut Metrics) {
    let (frames, cands, parts) = (input.frames, input.cands, input.parts);
    let ws = (2 * frames / parts) as u64;
    let mut out = Vec::with_capacity(BATCH);
    // Three identically warmed caches on one pressured stream: no sink, a
    // sink that drops everything, a sink that keeps the last 64 K records.
    let mut bare = vantage_llc(frames, cands, parts);
    let stream = warmed_stream(&mut bare, parts, ws, REPS * STREAM);
    let mut nulled = vantage_llc(frames, cands, parts);
    warmed_stream(&mut nulled, parts, ws, 0);
    nulled.set_telemetry(Telemetry::new(Box::new(NullSink), 0));
    let mut ringed = vantage_llc(frames, cands, parts);
    warmed_stream(&mut ringed, parts, ws, 0);
    ringed.take_stats();
    let (sink, reader) = RingSink::with_capacity(64 * 1024);
    ringed.set_telemetry(Telemetry::new(Box::new(sink), 0));

    // Interleaved: every repetition times all three on the same fresh part
    // of the stream, so a noisy stretch hits all of them alike.
    let mut secs = [Vec::new(), Vec::new(), Vec::new()];
    for rep in 0..REPS {
        let reqs = part(&stream, rep, REPS);
        let caches: [&mut dyn Llc; 3] = [&mut bare, &mut nulled, &mut ringed];
        for (llc, secs) in caches.into_iter().zip(&mut secs) {
            secs.push(m.once(|| {
                drive(llc, reqs, &mut out);
            }));
        }
    }
    let [bare_s, null_s, ring_s] = secs.map(|v| median(&v));
    mx.set(
        "telemetry.nullsink_overhead_pct",
        (null_s / bare_s - 1.0) * 100.0,
    );
    mx.set(
        "telemetry.ringsink_overhead_pct",
        (ring_s / bare_s - 1.0) * 100.0,
    );
    let records = reader.len() as u64 + reader.overwritten();
    let served = ringed.stats().total_hits() + ringed.stats().total_misses();
    mx.set(
        "telemetry.events_per_kacc",
        records as f64 * 1e3 / served.max(1) as f64,
    );
}
