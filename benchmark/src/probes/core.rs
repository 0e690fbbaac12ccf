//! `core` layer probes: the Vantage controller's access paths, its
//! reconfiguration and lifecycle calls, and its self-audit.

use std::time::Instant;

use vantage_cache::ZArray;
use vantage_partitioning::{
    BaselineLlc, HasInvariants, Llc, PartitionId, PartitionSpec, RankPolicy,
};

use super::{drive, part, warmed_stream, Meter, ProbeInput, BATCH, REPS};
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::workloads::{vantage_llc, SYSTEM_SEED};

/// Requests in the probes' own hit and miss streams.
const STREAM: usize = 32 * 1024;
/// create/destroy pairs timed: 1000 samples is the fewest that leave ten
/// beyond the 99th percentile.
const LIFECYCLE_CALLS: usize = 1100;

pub fn run(m: &mut Meter, input: &ProbeInput, mx: &mut Metrics) {
    let (frames, cands, parts) = (input.frames, input.cands, input.parts);
    let mut out = Vec::with_capacity(BATCH);

    // The workload's own slice, batched and one access() at a time, on a
    // cache the slice's first half warmed. Each repetition of each path
    // serves requests the cache has not been asked for before.
    let mut llc = vantage_llc(frames, cands, parts);
    drive(&mut llc, input.warm(), &mut out);
    let fresh = input.measured();
    let n = fresh.len() / (2 * REPS);
    let ns = m.ns_per_op(n, |rep| {
        drive(&mut llc, part(fresh, 2 * rep, 2 * REPS), &mut out);
    });
    mx.set("core.access_ns", ns);
    let ns = m.ns_per_op(n, |rep| {
        for &r in part(fresh, 2 * rep + 1, 2 * REPS) {
            std::hint::black_box(llc.access(r));
        }
    });
    mx.set("core.access_single_ns", ns);

    // A stream that always hits (replaying it changes nothing) and one at
    // 2x capacity pressure; the cost of a miss is solved from the mixed
    // stream's time and hit share.
    let mut hit_llc = vantage_llc(frames, cands, parts);
    let hits = warmed_stream(&mut hit_llc, parts, (frames / (4 * parts)) as u64, STREAM);
    let hit_ns = m.ns_per_op(STREAM, |_| {
        drive(&mut hit_llc, &hits, &mut out);
    });
    mx.set("core.hit_ns", hit_ns);

    let mut miss_llc = vantage_llc(frames, cands, parts);
    let ws = (2 * frames / parts) as u64;
    let misses = warmed_stream(&mut miss_llc, parts, ws, REPS * STREAM);
    let mut hit_count = 0;
    let mixed_ns = m.ns_per_op(STREAM, |rep| {
        hit_count += drive(&mut miss_llc, part(&misses, rep, REPS), &mut out);
    });
    let h = hit_count as f64 / misses.len() as f64;
    let miss_ns = (mixed_ns - h * hit_ns) / (1.0 - h).max(1e-9);
    mx.set("core.miss_ns", miss_ns);
    let array_ns = ["cache.z_lookup_ns", "cache.z_walk_ns", "cache.z_install_ns"]
        .iter()
        .map(|k| mx.get(k).unwrap_or(0.0))
        .sum::<f64>();
    mx.set("core.self_ns_per_miss", miss_ns - array_ns);

    // The same pressured stream through the unpartitioned LRU baseline on
    // the same array: the ratio the in-repo hot-path gate watches.
    let array = Box::new(ZArray::new(frames, 4, cands, SYSTEM_SEED));
    let mut base = BaselineLlc::try_new(array, parts, RankPolicy::Lru).expect("valid baseline");
    warmed_stream(&mut base, parts, ws, 0);
    let base_ns = m.ns_per_op(STREAM, |rep| {
        drive(&mut base, part(&misses, rep, REPS), &mut out);
    });
    mx.set("core.rel_to_baseline_z52", base_ns / mixed_ns);

    // Reconfiguration and lifecycle at the workload's population.
    let mut pop = vantage_llc(frames, cands, 1);
    let floor = (frames / (4 * input.population.max(1))).max(1) as u64;
    while pop.live_partitions() < input.population {
        pop.create_partition(PartitionSpec::with_target(floor))
            .expect("slots for the population");
    }
    drive(&mut pop, input.warm(), &mut out);
    let obs = pop.observations();
    let targets: Vec<u64> = obs
        .live
        .iter()
        .map(|&l| if l { floor } else { 0 })
        .collect();
    const CALLS: usize = 50;
    let secs = m.secs(|_| {
        for _ in 0..CALLS {
            std::hint::black_box(pop.observations());
        }
    });
    mx.set("core.observations_us", secs * 1e6 / CALLS as f64);
    let secs = m.secs(|_| {
        for _ in 0..CALLS {
            pop.set_targets(&targets);
        }
    });
    mx.set("core.set_targets_us", secs * 1e6 / CALLS as f64);

    // Each call is timed on its own; the whole loop is one calibrated body,
    // so its calls share one correction factor.
    let mut created = Vec::with_capacity(LIFECYCLE_CALLS);
    let mut destroyed = Vec::with_capacity(LIFECYCLE_CALLS);
    let (_, k) = m.timed(|| {
        for _ in 0..LIFECYCLE_CALLS {
            let t0 = Instant::now();
            let slot = pop.create_partition(PartitionSpec::with_target(floor));
            created.push(t0.elapsed().as_secs_f64());
            let slot: PartitionId = slot.expect("a free slot");
            let t0 = Instant::now();
            pop.destroy_partition(slot).expect("a live slot");
            destroyed.push(t0.elapsed().as_secs_f64());
        }
    });
    for (name50, name99, secs) in [
        (
            "core.create_partition_us_p50",
            "core.create_partition_us_p99",
            &created,
        ),
        (
            "core.destroy_partition_us_p50",
            "core.destroy_partition_us_p99",
            &destroyed,
        ),
    ] {
        let us: Vec<f64> = secs.iter().map(|s| s * k * 1e6).collect();
        mx.set(name50, median(&us));
        mx.set(name99, percentile(&us, 99));
    }

    let secs = m.secs(|_| {
        pop.check_invariants()
            .expect("the probe cache is consistent");
    });
    mx.set("core.invariants_ms", secs * 1e3);
}
