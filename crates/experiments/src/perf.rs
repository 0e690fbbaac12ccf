//! `perf` subcommand: hot-path throughput microbenchmarks plus figure-kernel
//! wall times, recorded to `BENCH_hotpath.json` at the repository root.
//!
//! Vantage's claim is that fine-grain partitioning is enforceable with low
//! overheads at replacement time; this harness makes the simulator's own
//! per-access cost *measurable and regression-guarded*. Each run drives
//! fixed seeded workloads through every scheme/array combination of
//! interest and appends one entry to the trajectory file, so the repo
//! accumulates a throughput history across PRs:
//!
//! * **Microbenchmarks** — raw `Llc::access` loops (4 partitions, uniform
//!   random lines over a working set of twice the cache capacity, so the
//!   steady state mixes hits, demotions and evictions). Reported as
//!   accesses/second.
//! * **Figure kernels** — wall time of representative experiment kernels at
//!   quick scale (model math, dynamics simulation, state accounting).
//!
//! The workloads are fully deterministic (seeded [`SmallRng`], fixed access
//! counts), so two runs on the same machine differ only by machine noise.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage::{RankMode, VantageConfig, VantageLlc, VantageStats};
use vantage_cache::{CacheArray, LineAddr, SetAssocArray, SkewArray, ZArray};
use vantage_partitioning::{
    AccessRequest, BaselineLlc, Llc, PartitionId, PippConfig, PippLlc, RankPolicy, WayPartLlc,
};
use vantage_telemetry::{NullSink, Telemetry};

use crate::common::{record_failure, Options};
use crate::record::{append_entry, BenchRecord};
use crate::{fig_dynamics, fig_model, tables};

/// Result of one access-loop microbenchmark.
#[derive(Clone, Debug)]
pub struct MicrobenchResult {
    /// Scheme/array label (e.g. `vantage_z4_52`).
    pub name: String,
    /// Cache capacity in lines.
    pub frames: usize,
    /// Timed accesses (excludes warmup).
    pub accesses: u64,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// `accesses / wall_s`.
    pub accesses_per_sec: f64,
}

/// Result of one figure-kernel timing.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Kernel name (experiment subcommand it corresponds to).
    pub name: String,
    /// Wall time, seconds.
    pub wall_s: f64,
}

/// Scale parameters for one perf run.
#[derive(Clone, Copy, Debug)]
struct Scale {
    frames: usize,
    warmup: u64,
    timed: u64,
}

impl Scale {
    fn from_options(o: &Options) -> Self {
        if o.quick {
            Self {
                frames: 8 * 1024,
                warmup: 100_000,
                timed: 400_000,
            }
        } else {
            Self {
                frames: 32 * 1024,
                warmup: 500_000,
                timed: 4_000_000,
            }
        }
    }
}

const PARTS: usize = 4;

/// Requests per `access_batch` call in the batched rung.
const BATCH: usize = 4096;

/// The next request of the microbenchmark stream: a uniform random line of
/// one of `PARTS` partitions, each with a private working set of
/// `frames / 2` lines (2x total capacity pressure).
fn next_req(frames: usize, rng: &mut SmallRng) -> AccessRequest {
    let p = (rng.gen::<u32>() as usize) % PARTS;
    let base = (p as u64 + 1) << 40;
    AccessRequest::read(
        PartitionId::from_index(p),
        LineAddr(base + rng.gen_range(0..(frames / 2) as u64)),
    )
}

/// Serves `n` requests of the stream one `access` at a time.
fn drive(llc: &mut dyn Llc, frames: usize, n: u64, rng: &mut SmallRng) {
    for _ in 0..n {
        llc.access(next_req(frames, rng));
    }
}

/// Serves `n` requests of the same stream through `access_batch` in
/// [`BATCH`]-request calls.
fn drive_batched(llc: &mut dyn Llc, frames: usize, n: u64, rng: &mut SmallRng) {
    let mut reqs = Vec::with_capacity(BATCH);
    let mut out = Vec::with_capacity(BATCH);
    let mut left = n;
    while left > 0 {
        let k = left.min(BATCH as u64);
        reqs.clear();
        reqs.extend((0..k).map(|_| next_req(frames, rng)));
        out.clear();
        llc.access_batch(&reqs, &mut out);
        left -= k;
    }
}

/// How a microbenchmark's timed phase hands the stream to the cache.
type Serve = fn(&mut dyn Llc, usize, u64, &mut SmallRng);

/// Times one scheme: warmup, then a timed loop served by `serve` (the
/// warmup is always one `access` at a time, so every rung times the same
/// state).
fn bench_llc(
    name: &str,
    llc: &mut dyn Llc,
    scale: Scale,
    seed: u64,
    serve: Serve,
) -> MicrobenchResult {
    let even = vec![(scale.frames / PARTS) as u64; PARTS];
    llc.set_targets(&even).expect("targets fit");
    let mut rng = SmallRng::seed_from_u64(seed);
    drive(llc, scale.frames, scale.warmup, &mut rng);
    let t0 = Instant::now();
    serve(llc, scale.frames, scale.timed, &mut rng);
    let wall_s = t0.elapsed().as_secs_f64();
    MicrobenchResult {
        name: name.to_string(),
        frames: scale.frames,
        accesses: scale.timed,
        wall_s,
        accesses_per_sec: scale.timed as f64 / wall_s.max(1e-9),
    }
}

fn vantage_on(array: Box<dyn CacheArray>, cfg: VantageConfig, seed: u64) -> VantageLlc {
    VantageLlc::try_new(array, PARTS, cfg, seed).expect("valid Vantage config")
}

/// Runs every scheme/array microbenchmark at the given scale. Also returns
/// the gated `vantage_z4_52` stream's Vantage counters over its warmup
/// and timed phases, so the record shows whether that stream demotes or
/// only forces evictions (DESIGN.md §8).
pub fn run_microbenches(opts: &Options) -> (Vec<MicrobenchResult>, VantageStats) {
    let scale = Scale::from_options(opts);
    let seed = opts.seed;
    let f = scale.frames;
    let mut out = Vec::new();
    let mut go = |name: &str, llc: &mut dyn Llc, serve: Serve| {
        let r = bench_llc(name, llc, scale, seed ^ 0xBE7C4, serve);
        eprintln!(
            "  {:<24} {:>10.0} acc/s ({} accesses in {:.3}s)",
            r.name, r.accesses_per_sec, r.accesses, r.wall_s
        );
        out.push(r);
    };

    // The acceptance-gate configuration: Vantage on a Z4/52 zcache.
    let mut gate = vantage_on(
        Box::new(ZArray::new(f, 4, 52, seed)),
        VantageConfig::default(),
        seed,
    );
    go(HOTPATH_GATE_BENCH, &mut gate, drive);
    let gate_stats = gate.take_vantage_stats();
    // The same stream through the batched entry point, timed right after
    // it: the ratio of the two prices `access_batch` per request.
    go(
        "vantage_z4_52_batch",
        &mut vantage_on(
            Box::new(ZArray::new(f, 4, 52, seed)),
            VantageConfig::default(),
            seed,
        ),
        drive_batched,
    );
    go(
        "vantage_z4_16",
        &mut vantage_on(
            Box::new(ZArray::new(f, 4, 16, seed)),
            VantageConfig::default(),
            seed,
        ),
        drive,
    );
    go(
        "vantage_skew4",
        &mut vantage_on(
            Box::new(SkewArray::new(f, 4, seed)),
            VantageConfig::default(),
            seed,
        ),
        drive,
    );
    go(
        "vantage_sa16",
        &mut vantage_on(
            Box::new(SetAssocArray::hashed(f, 16, seed)),
            VantageConfig::default(),
            seed,
        ),
        drive,
    );
    go(
        "vantage_rrip_z4_52",
        &mut vantage_on(
            Box::new(ZArray::new(f, 4, 52, seed)),
            VantageConfig {
                rank: RankMode::Rrip { bits: 3 },
                ..VantageConfig::default()
            },
            seed,
        ),
        drive,
    );
    go(
        "baseline_lru_sa16",
        &mut BaselineLlc::try_new(
            Box::new(SetAssocArray::hashed(f, 16, seed)),
            PARTS,
            RankPolicy::Lru,
        )
        .expect("valid baseline geometry"),
        drive,
    );
    go(
        "baseline_lru_z4_52",
        &mut BaselineLlc::try_new(
            Box::new(ZArray::new(f, 4, 52, seed)),
            PARTS,
            RankPolicy::Lru,
        )
        .expect("valid baseline geometry"),
        drive,
    );
    go(
        "waypart_sa16",
        &mut WayPartLlc::try_new(f, 16, PARTS, seed).expect("valid way-partition geometry"),
        drive,
    );
    go(
        "pipp_sa16",
        &mut PippLlc::try_new(f, 16, PARTS, PippConfig::default(), seed)
            .expect("valid PIPP geometry"),
        drive,
    );
    (out, gate_stats)
}

/// Telemetry-overhead ceiling enforced by the NullSink gate.
///
/// Raised from 2% when the SoA tag-metadata layout landed: the disabled-
/// telemetry check is a fixed per-access cost, and the SoA layout shrank
/// the bare loop it is measured against, so the same absolute cost reads
/// as a larger fraction. 5% of the faster loop is a tighter absolute bound
/// than 2% of the old one.
const NULLSINK_MAX_OVERHEAD: f64 = 0.05;

/// Quick-mode floor on the acceptance-gate configuration's hot-path rate,
/// expressed *relative* to the same run's [`HOTPATH_REFERENCE`] rate. The
/// two schemes share the array geometry and walk machinery and differ only
/// in Vantage's demotion bookkeeping (candidate scans, setpoint feedback,
/// aliasing clamp), so their ratio cancels host-speed noise that makes an
/// absolute acc/s floor meaningless on shared runners — the same binary
/// measures 3x apart here depending on neighbor load, while the ratio
/// holds ~0.3-0.65. A catastrophic hot-path regression (say an accidental
/// per-access lane sweep) drags the ratio an order of magnitude below the
/// floor.
const HOTPATH_GATE_BENCH: &str = "vantage_z4_52";

/// The same-run reference the hot-path gate divides by.
const HOTPATH_REFERENCE: &str = "baseline_lru_z4_52";

/// Minimum `vantage_z4_52 / baseline_lru_z4_52` rate ratio in quick mode.
const HOTPATH_MIN_REL: f64 = 0.2;

/// Checks the quick-mode hot-path floor on freshly measured
/// microbenchmarks and returns the measured ratio (0.0 when either row is
/// missing, which is itself recorded as a failure).
fn check_hotpath_gate(opts: &Options, micro: &[MicrobenchResult]) -> f64 {
    let rate = |name: &str| {
        micro
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.accesses_per_sec)
    };
    let (v, b) = match (rate(HOTPATH_GATE_BENCH), rate(HOTPATH_REFERENCE)) {
        (Some(v), Some(b)) if b > 0.0 => (v, b),
        _ => {
            record_failure(
                "perf hotpath gate",
                format!("{HOTPATH_GATE_BENCH} or {HOTPATH_REFERENCE} missing from the matrix"),
            );
            return 0.0;
        }
    };
    let rel = v / b;
    eprintln!(
        "  hotpath gate: {HOTPATH_GATE_BENCH} {v:>10.0} acc/s = {rel:.2}x \
         {HOTPATH_REFERENCE} (min {HOTPATH_MIN_REL:.2}x, quick-enforced: {})",
        opts.quick
    );
    if opts.quick && rel < HOTPATH_MIN_REL {
        record_failure(
            "perf hotpath gate",
            format!(
                "{HOTPATH_GATE_BENCH} reached only {rel:.2}x the \
                 {HOTPATH_REFERENCE} rate (min {HOTPATH_MIN_REL:.2}x)"
            ),
        );
    }
    rel
}

/// The NullSink gate at an explicit scale: interleaved best-of-`rounds`
/// runs of the acceptance-gate configuration (`vantage_z4_52`) bare and
/// with an installed `NullSink` telemetry producer. Interleaving and
/// best-of filtering cancel most machine noise, so the remaining delta is
/// the instrumentation's own branch cost. Returns `(bare, nullsink)`.
fn nullsink_gate_at(
    scale: Scale,
    seed: u64,
    rounds: usize,
) -> (MicrobenchResult, MicrobenchResult) {
    let f = scale.frames;
    let mut best: [Option<MicrobenchResult>; 2] = [None, None];
    for _ in 0..rounds {
        for (slot, name) in [(0, "vantage_z4_52_bare"), (1, "vantage_z4_52_nullsink")] {
            let mut llc = vantage_on(
                Box::new(ZArray::new(f, 4, 52, seed)),
                VantageConfig::default(),
                seed,
            );
            if slot == 1 {
                llc.set_telemetry(Telemetry::new(Box::new(NullSink), 0));
            }
            let r = bench_llc(name, &mut llc, scale, seed ^ 0xBE7C4, drive);
            if best[slot]
                .as_ref()
                .is_none_or(|b| r.accesses_per_sec > b.accesses_per_sec)
            {
                best[slot] = Some(r);
            }
        }
    }
    let [bare, nulled] = best;
    (bare.expect("rounds ran"), nulled.expect("rounds ran"))
}

/// Runs the NullSink overhead gate: telemetry compiled in but disabled (a
/// `NullSink` producer sampling on the default period) must stay within
/// `NULLSINK_MAX_OVERHEAD` of the uninstrumented `vantage_z4_52` rate.
/// A breach is recorded in the failure registry (keep-going), so `perf`
/// still writes its trajectory entry before the process exits nonzero.
pub fn run_nullsink_gate(opts: &Options) -> Vec<MicrobenchResult> {
    let (bare, nulled) = nullsink_gate_at(Scale::from_options(opts), opts.seed, 3);
    let overhead = 1.0 - nulled.accesses_per_sec / bare.accesses_per_sec;
    eprintln!(
        "  nullsink gate: bare {:>10.0} acc/s, nullsink {:>10.0} acc/s, overhead {:+.2}%",
        bare.accesses_per_sec,
        nulled.accesses_per_sec,
        overhead * 100.0
    );
    if overhead > NULLSINK_MAX_OVERHEAD {
        record_failure(
            "perf nullsink gate",
            format!(
                "NullSink telemetry costs {:.2}% throughput on vantage_z4_52 \
                 (limit {:.0}%)",
                overhead * 100.0,
                NULLSINK_MAX_OVERHEAD * 100.0
            ),
        );
    }
    vec![bare, nulled]
}

/// Times representative figure kernels at quick scale (they exercise the
/// full workload -> core -> UCP -> scheme stack rather than the bare LLC).
pub fn run_kernels(opts: &Options) -> Vec<KernelResult> {
    let mut kopts = opts.clone();
    kopts.quick = true;
    kopts.mixes_per_class = 1;
    kopts.out_dir = opts.out_dir.join("perf-scratch");
    type Kernel = (&'static str, fn(&Options));
    let kernels: &[Kernel] = &[
        ("fig1", fig_model::fig1),
        ("fig8", fig_dynamics::fig8),
        ("overheads", tables::overheads),
    ];
    let mut out = Vec::new();
    for (name, f) in kernels {
        let t0 = Instant::now();
        f(&kopts);
        let wall_s = t0.elapsed().as_secs_f64();
        eprintln!("  kernel {name:<12} {wall_s:.3}s");
        out.push(KernelResult {
            name: (*name).to_string(),
            wall_s,
        });
    }
    out
}

/// Renders one run entry as a JSON object (hand-rolled: the workspace is
/// offline and vendors no serde). The shared preamble and trajectory
/// append mechanics live in [`crate::record`].
fn render_entry(
    opts: &Options,
    micro: &[MicrobenchResult],
    kernels: &[KernelResult],
    hotpath_rel: f64,
    gate_stats: &VantageStats,
) -> String {
    let mut rec = BenchRecord::new(opts.quick, opts.seed);
    let s = rec.body_mut();
    s.push_str("    \"microbench\": [\n");
    for (i, m) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"frames\": {}, \"accesses\": {}, \"wall_s\": {:.6}, \"accesses_per_sec\": {:.1}}}{comma}",
            m.name, m.frames, m.accesses, m.wall_s, m.accesses_per_sec
        );
    }
    s.push_str("    ],\n    \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"wall_s\": {:.6}}}{comma}",
            k.name, k.wall_s
        );
    }
    let _ = write!(
        s,
        "    ],\n    \"hotpath_gate\": {{\"bench\": \"{HOTPATH_GATE_BENCH}\", \
         \"reference\": \"{HOTPATH_REFERENCE}\", \"rel\": {hotpath_rel:.3}, \
         \"min_rel\": {HOTPATH_MIN_REL:.2}, \"demotions\": {}, \
         \"forced_managed_evictions\": {}, \"managed_eviction_fraction\": {:.4}}}",
        gate_stats.demotions,
        gate_stats.forced_managed_evictions,
        gate_stats.managed_eviction_fraction()
    );
    rec.finish()
}

/// The `perf` subcommand: runs all microbenchmarks and kernels and appends
/// the results to `BENCH_hotpath.json` in the current directory (the repo
/// root in CI and normal use).
pub fn perf(opts: &Options) {
    perf_to(opts, Path::new("BENCH_hotpath.json"));
}

/// [`perf`] writing the trajectory to an explicit path (test support).
pub fn perf_to(opts: &Options, path: &Path) {
    println!(
        "perf: hot-path microbenchmarks ({} scale)",
        if opts.quick { "quick" } else { "full" }
    );
    let (mut micro, gate_stats) = run_microbenches(opts);
    let hotpath_rel = check_hotpath_gate(opts, &micro);
    println!("perf: telemetry NullSink overhead gate");
    micro.extend(run_nullsink_gate(opts));
    println!("perf: figure kernels (quick scale)");
    let kernels = run_kernels(opts);
    let entry = render_entry(opts, &micro, &kernels, hotpath_rel, &gate_stats);
    match append_entry(path, &entry) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => record_failure(path.display().to_string(), e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> Options {
        Options {
            quick: true,
            ..Options::default()
        }
    }

    #[test]
    fn microbench_names_are_unique_and_rates_positive() {
        // A micro-scale run: small cache, few accesses, but the full scheme
        // matrix — catches construction or accounting regressions cheaply.
        let scale = Scale {
            frames: 1024,
            warmup: 2_000,
            timed: 4_000,
        };
        let mut llc = vantage_on(
            Box::new(ZArray::new(scale.frames, 4, 52, 5)),
            VantageConfig::default(),
            5,
        );
        let r = bench_llc("vantage_z4_52", &mut llc, scale, 7, drive);
        assert_eq!(r.accesses, 4_000);
        assert!(r.accesses_per_sec > 0.0);
        assert!(r.wall_s > 0.0);
    }

    #[test]
    fn batched_rung_serves_the_gate_rungs_stream() {
        // 5000 timed requests: one full batch plus a partial one.
        let scale = Scale {
            frames: 1024,
            warmup: 2_000,
            timed: 5_000,
        };
        let run = |serve: Serve| {
            let mut llc = vantage_on(
                Box::new(ZArray::new(scale.frames, 4, 52, 5)),
                VantageConfig::default(),
                5,
            );
            bench_llc("x", &mut llc, scale, 7, serve);
            format!("{:?}", llc.stats())
        };
        assert_eq!(run(drive), run(drive_batched));
    }

    #[test]
    fn nullsink_gate_measures_both_variants() {
        let scale = Scale {
            frames: 1024,
            warmup: 2_000,
            timed: 4_000,
        };
        let (bare, nulled) = nullsink_gate_at(scale, 5, 1);
        assert_eq!(bare.name, "vantage_z4_52_bare");
        assert_eq!(nulled.name, "vantage_z4_52_nullsink");
        assert!(bare.accesses_per_sec > 0.0);
        assert!(nulled.accesses_per_sec > 0.0);
    }

    #[test]
    fn entry_appends_into_a_json_array() {
        let dir = std::env::temp_dir().join(format!("vantage-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let _ = std::fs::remove_file(&path);
        let micro = vec![MicrobenchResult {
            name: "x".into(),
            frames: 1,
            accesses: 2,
            wall_s: 0.5,
            accesses_per_sec: 4.0,
        }];
        let kernels = vec![KernelResult {
            name: "k".into(),
            wall_s: 0.25,
        }];
        let gate_stats = VantageStats {
            demotions: 3,
            unmanaged_evictions: 3,
            forced_managed_evictions: 1,
            ..VantageStats::default()
        };
        let entry = render_entry(&tiny_options(), &micro, &kernels, 0.42, &gate_stats);
        append_entry(&path, &entry).unwrap();
        append_entry(&path, &entry).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.trim_end().ends_with(']'));
        assert_eq!(body.matches("\"microbench\"").count(), 2);
        assert_eq!(body.matches("\"accesses_per_sec\"").count(), 2);
        assert_eq!(body.matches("\"hotpath_gate\"").count(), 2);
        assert!(body.contains("\"rel\": 0.420"));
        assert!(body.contains(
            "\"demotions\": 3, \"forced_managed_evictions\": 1, \
             \"managed_eviction_fraction\": 0.2500"
        ));
        let _ = std::fs::remove_file(&path);
    }
}
