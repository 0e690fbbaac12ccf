//! `perf-parallel` subcommand: bank-sharding scaling benchmark, recorded to
//! `BENCH_parallel.json` at the repository root.
//!
//! The banked LLC's pitch is that serving each bank's share of a window as
//! one run buys throughput *without changing a single replacement
//! decision*. This harness measures both halves of that claim on the
//! acceptance-gate configuration (Vantage on Z4/52 banks), with one paired
//! routine at four points: 2, 4 and 8 banks at the sweep scale, and 8
//! banks at the larger pipeline scale.
//!
//! * **Scaling** — aggregate accesses/second of a [`BankedLlc`] served in
//!   windows ([`BankedLlc::run_window`]: route every request to its bank's
//!   run, then one `access_batch` call per bank) versus the same machine
//!   served one access at a time, on identical seeded workloads.
//! * **Determinism** — both sides fold their outcome streams into the
//!   machine's per-bank digests, which `state_hash` folds with the final
//!   statistics and partition sizes; the two hashes must be bit-identical
//!   at every point. A mismatch is recorded in the failure registry
//!   unconditionally.
//!
//! Quick mode doubles as the CI gate: three points are held to a minimum
//! windowed-over-per-access speedup (see `GATES`), or the run is recorded
//! as failed.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage::{VantageConfig, VantageLlc};
use vantage_cache::hash::mix64;
use vantage_cache::{LineAddr, ZArray};
use vantage_partitioning::{
    banked::DIGEST_SEED, AccessRequest, BankedLlc, Llc, PartitionId, RingStats,
};

use crate::common::{record_failure, Options};
use crate::record::{append_entry, BenchRecord};

const PARTS: usize = 4;

/// The bank count the CI gate checks.
const GATE_BANKS: usize = 4;

/// Minimum windowed-over-per-access speedup the quick-mode gate enforces
/// at [`GATE_BANKS`] banks.
///
/// Rebased from 2.0x when the SoA tag-metadata layout landed: the layout
/// change sped the *serial* per-access baseline up by ~30% (the ratio's
/// denominator) while the windowed side — whose bank-major runs already
/// kept each bank's tags warm — gained little, legitimately compressing
/// the measured advantage to ~1.7x on the reference host. The
/// absolute per-side rates are recorded alongside the ratio, so a
/// per-access regression cannot masquerade as a windowed improvement.
const GATE_MIN_SPEEDUP: f64 = 1.4;

/// The high-bank-count point of the sweep scale. Before the warm-prefix fix
/// (see [`WARM_DIV`]) this point had no floor at all, so a regression that
/// only hurt high bank counts — where the cold-restart transient was
/// largest — sailed through CI.
const FLOOR_BANKS: usize = 8;

/// Informational floor on the 8-bank speedup at the sweep scale. Set below
/// the gate's minimum deliberately: scaling flattens at eight banks, but
/// the windowed side must never fall back toward the per-access rate by
/// more than measurement noise.
const FLOOR8_MIN_SPEEDUP: f64 = 1.2;

/// The pipeline point's bank count, where bank-major service's per-bank
/// locality advantage is largest.
const PIPE_BANKS: usize = 8;

/// Hard gate on the 8-bank speedup at the pipeline scale. At that
/// memory-bound scale, serving each bank's run contiguously must beat the
/// per-access machine by a wide margin, not merely avoid regressing. CI
/// additionally asserts the recorded entry.
const PIPE_MIN_SPEEDUP: f64 = 2.5;

/// The gated points: index into [`points`], entry key, and minimum speedup.
const GATES: [(usize, &str, f64); 3] = [
    (1, "gate", GATE_MIN_SPEEDUP),
    (2, "floor8", FLOOR8_MIN_SPEEDUP),
    (3, "pipeline", PIPE_MIN_SPEEDUP),
];

/// Interleaved measurement rounds at the gated sweep points. Host
/// throughput drifts on benchmark timescales (frequency governors,
/// background load), so the two sides are measured back-to-back [`ROUNDS`]
/// times and the speedup taken from the best *round* — an
/// adjacent-in-time pair. Taking each side's best window separately would
/// compare measurements minutes apart and fold the drift into the ratio.
/// Same noise-rejection idea as the hot-path harness's interleaved best-of
/// NullSink gate.
const ROUNDS: usize = 3;

/// Measurement rounds at the pipeline point — more than [`ROUNDS`] because
/// its gate is *hard* where the 8-bank sweep floor is informational: the
/// best-of-rounds paired-slice estimator converges on the quiet-host ratio
/// as samples grow, and on shared hosts individual rounds can swing ±15%
/// around it. Five rounds keeps a noisy round from deciding a hard gate.
const PIPE_ROUNDS: usize = 5;

/// Cache size and access counts of one point. The working set is
/// deliberately larger than the hot-path harness's so every point is
/// memory-bound — the regime bank-major service exists for. Quick mode
/// shrinks the access counts, never the cache: shrinking the arrays would
/// lift the points into the host's caches and measure a regime the banked
/// machine does not target.
#[derive(Clone, Copy, Debug)]
struct Scale {
    frames: usize,
    warmup: u64,
    timed: u64,
    /// Mixed into the run seed, so each scale replays its own workload.
    salt: u64,
}

impl Scale {
    /// The sweep scale, kept from the first `BENCH_parallel.json` entries so
    /// their trajectories stay comparable. Every bank serves its run as a
    /// plain `access` loop (at the quick 4-bank gate point each bank has
    /// 32K frames, in full mode 64K), so the gain comes from bank-major
    /// service alone.
    fn sweep(quick: bool) -> Self {
        Self {
            frames: if quick { 128 * 1024 } else { 256 * 1024 },
            warmup: if quick { 400_000 } else { 500_000 },
            timed: if quick { 1_200_000 } else { 4_000_000 },
            salt: 0xBA12,
        }
    }

    /// The pipeline scale: a footprint where the per-access machine is
    /// memory-stall-bound and the cache is fully warmed before timing. The
    /// frame count is chosen so one bank's metadata sits within the host's
    /// cache and TLB reach while the whole cache's does not — the regime
    /// where bank-major service pays off and the one a large simulated LLC
    /// actually occupies; both smaller footprints (everything near) and
    /// much larger ones (not even one bank near) measurably narrow the gap.
    fn pipeline(quick: bool) -> Self {
        Self {
            frames: 2 * 1024 * 1024,
            warmup: 4_000_000,
            timed: if quick { 2_400_000 } else { 4_000_000 },
            salt: 0x919E,
        }
    }
}

/// One measured point: a bank count at a scale, the number of paired
/// rounds that measure it, and the names of its two rows
/// (`{prefix}{banks}_serial` and `{prefix}{banks}_{windowed}`).
#[derive(Clone, Copy, Debug)]
struct Point {
    banks: usize,
    scale: Scale,
    rounds: usize,
    prefix: &'static str,
    windowed: &'static str,
}

/// The four points, in run order; [`GATES`] indexes into this list.
fn points(quick: bool) -> [Point; 4] {
    let sweep = |banks, rounds| Point {
        banks,
        scale: Scale::sweep(quick),
        rounds,
        prefix: "banked",
        windowed: "batched",
    };
    [
        sweep(2, 1),
        sweep(GATE_BANKS, ROUNDS),
        sweep(FLOOR_BANKS, ROUNDS),
        Point {
            banks: PIPE_BANKS,
            scale: Scale::pipeline(quick),
            rounds: PIPE_ROUNDS,
            prefix: "pipe",
            windowed: "pipelined",
        },
    ]
}

/// Result of one measured side of a point.
#[derive(Clone, Debug)]
pub struct ScalingResult {
    /// Row label (e.g. `banked4_serial`, `banked4_batched`).
    pub name: String,
    /// Bank count.
    pub banks: usize,
    /// Timed accesses (excludes warmup).
    pub accesses: u64,
    /// Total wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Best timed slice's rate (see `SLICES`).
    pub accesses_per_sec: f64,
    /// FNV-1a digest of per-bank outcome digests + stats + partition sizes.
    pub hash: u64,
}

/// One FNV-1a fold step over a `u64` word.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Digests the machine's per-bank outcome digests plus its observable end
/// state. Two machines that hash equal are indistinguishable to a
/// simulation.
fn state_hash(llc: &mut BankedLlc) -> u64 {
    let mut h = DIGEST_SEED;
    for &d in llc.bank_digests() {
        h = fnv(h, d);
    }
    // stats_mut() refreshes the per-bank aggregation.
    let stats = llc.stats_mut().clone();
    for p in 0..llc.num_partitions() {
        h = fnv(h, stats.hits[p]);
        h = fnv(h, stats.misses[p]);
        h = fnv(h, llc.partition_size(PartitionId::from_index(p)));
    }
    fnv(h, stats.evictions)
}

/// Builds the gate configuration: `banks` Vantage-Z4/52 banks behind an
/// address-interleaved [`BankedLlc`], with even capacity targets. Fully
/// deterministic in `seed`, so two calls build indistinguishable caches.
fn build_banked(frames: usize, banks: usize, seed: u64) -> BankedLlc {
    let bank_llcs = (0..banks)
        .map(|b| {
            let array = ZArray::new(frames / banks, 4, 52, seed ^ mix64(b as u64 + 0xBA));
            Box::new(
                VantageLlc::try_new(
                    Box::new(array),
                    PARTS,
                    VantageConfig::default(),
                    seed ^ mix64(b as u64),
                )
                .expect("valid Vantage config"),
            ) as Box<dyn Llc>
        })
        .collect();
    let mut llc = BankedLlc::try_new(bank_llcs, seed ^ 0xBA2C).expect("valid bank set");
    llc.set_targets(&[(frames / PARTS) as u64; PARTS])
        .expect("targets fit");
    llc
}

/// The shared workload: uniform random lines over `PARTS` partitions, each
/// with a private working set of `2 * frames` lines (8x total capacity
/// pressure), keeping every point miss-heavy and memory-bound.
fn trace(frames: usize, n: u64, seed: u64) -> Vec<AccessRequest> {
    let ws = 2 * frames as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p = (rng.gen::<u32>() as usize) % PARTS;
            let base = (p as u64 + 1) << 40;
            AccessRequest::read(
                PartitionId::from_index(p),
                LineAddr(base + rng.gen_range(0..ws)),
            )
        })
        .collect()
}

/// Timed slices per run: the timed phase is measured in [`SLICES`] equal
/// windows, with the two sides *interleaved* slice by slice — each side
/// advances through the same requests, and each slice's two windows sit a
/// fraction of a second apart in wall time. The best single window's rate
/// is reported per side, and the speedup is taken from the best
/// time-adjacent window *pair*, so host throughput drift (frequency
/// governors, noisy neighbors on virtualized hosts) cancels out of the
/// ratio instead of folding into it. The digest still covers every timed
/// access.
const SLICES: usize = 6;

/// Untimed warm prefix of each side's slice window, as a divisor of the
/// slice length. Interleaving the sides means every timed window would
/// otherwise open on the microarchitectural state the *other* side left
/// behind — several MB of its tag arrays freshly evicted from the host's
/// caches — so each window used to fold a cold-restart transient into its
/// rate. The transient is not symmetric (the windowed side touches memory
/// bank-by-bank, the per-access side access-interleaved, so they refill at
/// different speeds), which biased the paired ratio, worst at 8 banks
/// where the per-bank state is smallest and the transient is the largest
/// fraction of the window. Serving the first `1/WARM_DIV` of each slice
/// untimed re-warms the side before its clock starts; those accesses still
/// land in the digest.
const WARM_DIV: usize = 8;

/// Measurement of one side of a pair: total timed wall clock, the best
/// timed slice's rate, and the end-state hash.
struct RunMeasurement {
    wall_s: f64,
    best_rate: f64,
    hash: u64,
}

/// Warms both machines on the first `warmup` requests (untimed, in
/// slice-sized windows: the end state is identical either way), then times
/// the rest in [`SLICES`] interleaved windows: `serial` serves a slice one
/// access at a time, then `windowed` serves the same slice as one
/// [`BankedLlc::run_window`] (route + serve + quiesce, so the clock covers
/// the whole schedule). Returns both measurements and the best per-slice
/// windowed-over-per-access ratio.
fn run_pair(
    serial: &mut BankedLlc,
    windowed: &mut BankedLlc,
    reqs: &[AccessRequest],
    warmup: usize,
) -> (RunMeasurement, RunMeasurement, f64) {
    let timed = &reqs[warmup..];
    let slice_len = timed.len().div_ceil(SLICES);
    for llc in [&mut *serial, &mut *windowed] {
        for window in reqs[..warmup].chunks(slice_len) {
            llc.run_window(window);
        }
        // Digests cover exactly the timed stream.
        llc.reset_digests();
    }
    let (mut wall_s, mut wall_w) = (0.0f64, 0.0f64);
    let (mut best_s, mut best_w, mut best_ratio) = (0.0f64, 0.0f64, 0.0f64);
    for slice in timed.chunks(slice_len) {
        // Each side re-warms on the slice's untimed prefix before its
        // window opens (see [`WARM_DIV`]); every access is still served
        // exactly once and digested.
        let (warm, rest) = slice.split_at(slice.len() / WARM_DIV);
        for &r in warm {
            serial.access(r);
        }
        let t0 = Instant::now();
        for &r in rest {
            serial.access(r);
        }
        let dt_s = t0.elapsed().as_secs_f64().max(1e-9);
        windowed.run_window(warm);
        let t0 = Instant::now();
        windowed.run_window(rest);
        let dt_w = t0.elapsed().as_secs_f64().max(1e-9);
        wall_s += dt_s;
        wall_w += dt_w;
        let (rate_s, rate_w) = (rest.len() as f64 / dt_s, rest.len() as f64 / dt_w);
        best_s = best_s.max(rate_s);
        best_w = best_w.max(rate_w);
        best_ratio = best_ratio.max(rate_w / rate_s);
    }
    let m_s = RunMeasurement {
        wall_s,
        best_rate: best_s,
        hash: state_hash(serial),
    };
    let m_w = RunMeasurement {
        wall_s: wall_w,
        best_rate: best_w,
        hash: state_hash(windowed),
    };
    (m_s, m_w, best_ratio)
}

/// Everything one point contributes to the recorded entry: its two rows,
/// its best paired speedup, the determinism verdict, and run-length
/// statistics from the windowed side of the kept round.
struct PointResult {
    point: Point,
    rows: [ScalingResult; 2],
    speedup: f64,
    /// Per-access and windowed hashes agree.
    hashes_equal: bool,
    ring: RingStats,
}

/// Measures one point: [`run_pair`] on fresh, identically built machines
/// for `point.rounds` rounds, keeping the round with the best paired ratio.
/// Construction is deterministic, so every round replays the identical
/// simulation (equal hashes) and only the timing differs.
fn run_point(opts: &Options, point: Point) -> PointResult {
    let Point { banks, scale, .. } = point;
    let seed = opts.seed ^ scale.salt;
    let reqs = trace(scale.frames, scale.warmup + scale.timed, seed ^ 0xD21E);
    let mut best_ratio = -1.0f64;
    let mut kept = None;
    for round in 0..point.rounds {
        let mut serial = build_banked(scale.frames, banks, seed);
        let mut windowed = build_banked(scale.frames, banks, seed);
        let (ms, mw, ratio) = run_pair(&mut serial, &mut windowed, &reqs, scale.warmup as usize);
        if point.rounds > 1 {
            eprintln!(
                "  {}{banks} round {}/{}: {:>10.0} serial, {:>10.0} {} acc/s, \
                 best paired ratio {ratio:.2}x",
                point.prefix,
                round + 1,
                point.rounds,
                ms.best_rate,
                mw.best_rate,
                point.windowed
            );
        }
        if ratio > best_ratio {
            best_ratio = ratio;
            kept = Some((ms, mw, windowed.ring_stats()));
        }
    }
    let (ms, mw, ring) = kept.expect("at least one round ran");
    let row = |side: &str, m: &RunMeasurement| {
        let r = ScalingResult {
            name: format!("{}{banks}_{side}", point.prefix),
            banks,
            accesses: scale.timed,
            wall_s: m.wall_s,
            accesses_per_sec: m.best_rate,
            hash: m.hash,
        };
        eprintln!(
            "  {:<20} {:>10.0} acc/s (hash {:#018x})",
            r.name, r.accesses_per_sec, r.hash
        );
        r
    };
    PointResult {
        point,
        rows: [row("serial", &ms), row(point.windowed, &mw)],
        speedup: best_ratio,
        hashes_equal: ms.hash == mw.hash,
        ring,
    }
}

/// Checks the determinism hashes of every point (always) and each
/// [`GATES`] minimum (quick mode only), recording breaches in the failure
/// registry.
fn check_gates(opts: &Options, results: &[PointResult]) {
    for r in results.iter().filter(|r| !r.hashes_equal) {
        record_failure(
            "perf-parallel determinism",
            format!(
                "serial and {} digests differ at {}{} banks",
                r.point.windowed, r.point.prefix, r.point.banks
            ),
        );
    }
    for (i, key, min) in GATES {
        let r = &results[i];
        let what = format!("{}-bank {}/serial speedup", r.point.banks, r.point.windowed);
        eprintln!(
            "  {key}: {what} {:.2}x (min {min:.1}x, quick-enforced: {})",
            r.speedup, opts.quick
        );
        if opts.quick && r.speedup < min {
            record_failure(
                format!("perf-parallel {key}"),
                format!("{what} only {:.2}x (min {min:.1}x)", r.speedup),
            );
        }
    }
}

/// Renders one run entry as a JSON object (hand-rolled: the workspace is
/// offline and vendors no serde). `gate.hashes_equal` covers the sweep
/// points, `pipeline.hashes_equal` the pipeline point.
fn render_entry(opts: &Options, results: &[PointResult]) -> String {
    let mut rec = BenchRecord::new(opts.quick, opts.seed);
    let s = rec.body_mut();
    s.push_str("    \"scaling\": [\n");
    let rows: Vec<&ScalingResult> = results.iter().flat_map(|r| &r.rows).collect();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"banks\": {}, \"accesses\": {}, \
             \"wall_s\": {:.6}, \"accesses_per_sec\": {:.1}, \"hash\": \"{:#018x}\"}}{comma}",
            r.name, r.banks, r.accesses, r.wall_s, r.accesses_per_sec, r.hash
        );
    }
    let [(gate, gate_min), (floor8, floor8_min), (pipe, pipe_min)] =
        GATES.map(|(i, _, min)| (&results[i], min));
    let sweep_equal = results
        .iter()
        .filter(|r| r.point.prefix == "banked")
        .all(|r| r.hashes_equal);
    let _ = write!(
        s,
        "    ],\n    \"gate\": {{\"banks\": {}, \"speedup\": {:.3}, \
         \"min_speedup\": {gate_min:.1}, \"hashes_equal\": {sweep_equal}}},\n    \
         \"floor8\": {{\"banks\": {}, \"speedup\": {:.3}, \
         \"min_speedup\": {floor8_min:.1}}},\n    \
         \"pipeline\": {{\"banks\": {}, \"accesses\": {}, \
         \"speedup\": {:.3}, \"min_speedup\": {pipe_min:.1}, \
         \"hashes_equal\": {}, \
         \"ring_peak_depth\": {}, \"ring_mean_depth\": {:.2}}}",
        gate.point.banks,
        gate.speedup,
        floor8.point.banks,
        floor8.speedup,
        pipe.point.banks,
        pipe.point.scale.timed,
        pipe.speedup,
        pipe.hashes_equal,
        pipe.ring.peak_depth,
        pipe.ring.mean_depth()
    );
    rec.finish()
}

/// The `perf-parallel` subcommand: measures every point and appends the
/// results to `BENCH_parallel.json` in the current directory (the repo root
/// in CI and normal use).
pub fn perf_parallel(opts: &Options) {
    perf_parallel_to(opts, Path::new("BENCH_parallel.json"));
}

/// [`perf_parallel`] writing the trajectory to an explicit path (test
/// support).
pub fn perf_parallel_to(opts: &Options, path: &Path) {
    println!(
        "perf-parallel: bank-sharding scaling ({} scale)",
        if opts.quick { "quick" } else { "full" }
    );
    let results: Vec<PointResult> = points(opts.quick)
        .into_iter()
        .map(|p| run_point(opts, p))
        .collect();
    check_gates(opts, &results);
    let entry = render_entry(opts, &results);
    match append_entry(path, &entry) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => record_failure(path.display().to_string(), e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        frames: 2 * 1024,
        warmup: 4_000,
        timed: 8_000,
        salt: 0,
    };

    #[test]
    fn serial_and_batched_digests_agree_at_tiny_scale() {
        let seed = 7;
        let reqs = trace(TINY.frames, TINY.warmup + TINY.timed, seed);
        let warmup = TINY.warmup as usize;
        let mut serial = build_banked(TINY.frames, 4, seed);
        let mut windowed = build_banked(TINY.frames, 4, seed);
        let (ms, mw, _ratio) = run_pair(&mut serial, &mut windowed, &reqs, warmup);
        assert_eq!(ms.hash, mw.hash, "windowed diverged from serial");
        // The hash is over the timed stream: a machine that skipped the
        // timed phase hashes differently.
        let mut idle = build_banked(TINY.frames, 4, seed);
        idle.run_window(&reqs[..warmup]);
        idle.reset_digests();
        assert_ne!(state_hash(&mut idle), ms.hash);
    }

    #[test]
    fn serial_and_pipelined_digests_agree_at_tiny_scale() {
        let opts = Options::default();
        let point = Point {
            banks: PIPE_BANKS,
            scale: TINY,
            rounds: 2,
            prefix: "pipe",
            windowed: "pipelined",
        };
        let r = run_point(&opts, point);
        assert!(r.hashes_equal, "pipelined diverged from serial");
        assert_eq!(r.rows[0].name, "pipe8_serial");
        assert_eq!(r.rows[1].name, "pipe8_pipelined");
        assert_eq!(r.rows[0].hash, r.rows[1].hash);
        // One run per bank per window: the longest run is one bank's share
        // of a slice, far below the slice itself.
        let slice = (TINY.timed as usize).div_ceil(SLICES);
        assert!(r.ring.samples > 0);
        assert!(r.ring.peak_depth > 0 && r.ring.peak_depth < slice);
    }

    #[test]
    fn trajectory_entry_records_the_gate() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let result = |point: Point, speedup: f64| PointResult {
            point,
            rows: [0, 1].map(|i| ScalingResult {
                name: format!("{}{}_{i}", point.prefix, point.banks),
                banks: point.banks,
                accesses: 10,
                wall_s: 0.5,
                accesses_per_sec: 20.0,
                hash: 0xABCD,
            }),
            speedup,
            hashes_equal: true,
            ring: RingStats {
                peak_depth: 3,
                depth_sum: 10,
                samples: 5,
            },
        };
        let results: Vec<PointResult> = points(true)
            .into_iter()
            .zip([1.9, 2.5, 1.7, 2.61])
            .map(|(p, s)| result(p, s))
            .collect();
        let entry = render_entry(&opts, &results);
        assert!(entry.contains("\"scaling\""));
        assert!(entry.contains("\"speedup\": 2.500"));
        assert!(entry.contains("\"hashes_equal\": true"));
        assert!(entry.contains("0x000000000000abcd"));
        assert!(entry.contains("\"floor8\""));
        assert!(entry.contains("\"speedup\": 1.700"));
        assert!(entry.contains("\"pipeline\""));
        assert!(entry.contains("\"speedup\": 2.610"));
        assert!(entry.contains("\"min_speedup\": 1.4"));
        assert!(entry.contains("\"min_speedup\": 1.2"));
        assert!(entry.contains("\"min_speedup\": 2.5"));
        assert!(!entry.contains("\"batch\""));
        assert!(entry.contains("\"ring_peak_depth\": 3"));
        assert!(entry.contains("pipe8_1"));
        assert!(
            !entry.contains("\"speedup\": 1.900"),
            "the 2-bank point is ungated"
        );
    }
}
