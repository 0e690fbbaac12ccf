//! `partitioning` layer probes: the three execution engines over one
//! 8-bank machine, the pipelined engine's producer/drain split, and the
//! other schemes as cost rungs.
//!
//! The engines run on a fixed small machine (8 banks × 8 K frames, 8
//! partitions at 2× pressure) whatever the workload, so the three numbers
//! differ by engine and nothing else.

use std::time::Instant;

use vantage::{Engine, EngineKind};
use vantage_cache::hash::mix_bucket;
use vantage_cache::ZArray;
use vantage_partitioning::{
    AccessRequest, BaselineLlc, Llc, PippConfig, PippLlc, RankPolicy, WayPartLlc,
};
use vantage_sim::{Scheme, SchemeKind, SystemConfig};

use super::{drive, part, warmed_stream, Meter, ProbeInput, BATCH, REPS};
use crate::harness::Fnv;
use crate::report::Metrics;
use crate::workloads::{fold_outcomes, SYSTEM_SEED};

const BANKS: usize = 8;
const PARTS: usize = 8;
const FRAMES: usize = BANKS * 8 * 1024;
const STREAM: usize = 32 * 1024;

fn machine(engine: EngineKind, jobs: usize) -> Scheme {
    let mut sys = SystemConfig::large_scale();
    sys.cores = PARTS;
    sys.l2_lines = FRAMES;
    sys.seed = SYSTEM_SEED;
    Scheme::builder(SchemeKind::vantage_paper(), sys)
        .banks(BANKS)
        .engine(engine)
        .bank_jobs(jobs)
        .try_build()
        .expect("valid banked machine")
}

pub fn run(m: &mut Meter, input: &ProbeInput, mx: &mut Metrics) {
    let ws = (2 * FRAMES / PARTS) as u64;
    let mut out = Vec::with_capacity(STREAM);

    // One stream through the three engines, each on its own warmed machine,
    // a fresh part of it per repetition; the outcome digests must agree.
    let mut digests = Vec::new();
    let mut stream = Vec::new();
    for (kind, name) in [
        (EngineKind::Serial, "partitioning.serial_ns"),
        (EngineKind::Batched, "partitioning.batched_ns"),
        (EngineKind::Pipelined, "partitioning.pipelined_ns"),
    ] {
        let mut scheme = machine(kind, 1);
        stream = warmed_stream(scheme.llc_mut(), PARTS, ws, REPS * STREAM);
        let mut engine = match (&mut scheme, kind) {
            (Scheme::Pipelined { llc, .. }, _) => Engine::Pipelined(llc),
            (s, EngineKind::Serial) => Engine::Serial(s.llc_mut()),
            (s, _) => Engine::Batched {
                llc: s.llc_mut(),
                chunk: BATCH,
            },
        };
        let mut digest = Fnv::default();
        let ns = m.ns_per_op(STREAM, |rep| {
            out.clear();
            engine.drive(part(&stream, rep, REPS), &mut out);
            engine.barrier();
            fold_outcomes(&mut digest, &out);
        });
        mx.set(name, ns);
        digests.push(digest);
    }
    let equal = digests.windows(2).all(|w| w[0] == w[1]);
    mx.set(
        "partitioning.engine_digests_equal",
        f64::from(u8::from(equal)),
    );

    let ns = m.ns_per_op(stream.len(), |_| {
        let mut acc = 0u32;
        for r in &stream {
            acc ^= mix_bucket(r.addr.0, SYSTEM_SEED, BANKS as u32);
        }
        std::hint::black_box(acc);
    });
    mx.set("partitioning.route_ns", ns);

    // Producer (shard into rings) against drain (serve bank-major), and two
    // consumer threads against one on the same windows (informational: the
    // benchmark itself is single-threaded).
    let mut machine1 = machine(EngineKind::Pipelined, 1);
    let mut machine2 = machine(EngineKind::Pipelined, 2);
    warmed_stream(machine1.llc_mut(), PARTS, ws, 0);
    warmed_stream(machine2.llc_mut(), PARTS, ws, 0);
    let (Scheme::Pipelined { llc: pipe1, .. }, Scheme::Pipelined { llc: pipe2, .. }) =
        (&mut machine1, &mut machine2)
    else {
        unreachable!("built with the pipelined engine");
    };
    let two = m.secs(|rep| pipe2.run_window(part(&stream, rep, REPS)));
    pipe1.reset_ring_stats();
    let (mut ingest, mut barrier) = (0.0, 0.0);
    let one = m.secs(|rep| {
        let t0 = Instant::now();
        pipe1.ingest(part(&stream, rep, REPS));
        let t1 = Instant::now();
        pipe1.barrier();
        ingest += (t1 - t0).as_secs_f64();
        barrier += t1.elapsed().as_secs_f64();
    });
    mx.set("partitioning.jobs2_speedup", one / two.max(1e-12));
    // The raw producer/drain split of those windows, applied to their
    // calibrated time.
    let per_req = one * 1e9 / STREAM as f64;
    mx.set(
        "partitioning.ingest_ns",
        per_req * ingest / (ingest + barrier),
    );
    mx.set(
        "partitioning.barrier_ns",
        per_req * barrier / (ingest + barrier),
    );
    let ring = pipe1.ring_stats();
    mx.set("partitioning.ring_peak_depth", ring.peak_depth as f64);
    mx.set("partitioning.ring_mean_depth", ring.mean_depth());

    // The workload's geometry under the other schemes, at 2x pressure.
    let (frames, parts) = (input.frames, input.parts);
    let ws = (2 * frames / parts) as u64;
    let array = Box::new(ZArray::new(frames, 4, 52, SYSTEM_SEED));
    let rungs: [(&'static str, Box<dyn Llc>); 3] = [
        (
            "partitioning.baseline_z52_ns",
            Box::new(BaselineLlc::try_new(array, parts, RankPolicy::Lru).expect("valid baseline")),
        ),
        (
            "partitioning.waypart_sa16_ns",
            Box::new(WayPartLlc::try_new(frames, 16, parts, SYSTEM_SEED).expect("valid way-part")),
        ),
        (
            "partitioning.pipp_sa16_ns",
            Box::new(
                PippLlc::try_new(frames, 16, parts, PippConfig::default(), SYSTEM_SEED)
                    .expect("valid PIPP"),
            ),
        ),
    ];
    for (name, mut llc) in rungs {
        let reqs: Vec<AccessRequest> = warmed_stream(llc.as_mut(), parts, ws, REPS * STREAM);
        let ns = m.ns_per_op(STREAM, |rep| {
            drive(llc.as_mut(), part(&reqs, rep, REPS), &mut out);
        });
        mx.set(name, ns);
    }
}
