//! `perf-parallel` subcommand: bank-sharding scaling benchmark, recorded to
//! `BENCH_parallel.json` at the repository root.
//!
//! The sharded engine's pitch is that batching accesses by bank buys
//! throughput *without changing a single replacement decision*. This
//! harness measures both halves of that claim on the acceptance-gate
//! configuration (Vantage on Z4/52 banks):
//!
//! * **Scaling** — aggregate accesses/second of a [`BankedLlc`] served in
//!   `BATCH`-request `access_batch` windows (one call per bank per
//!   window) versus the same machine served one access at a time, at 2, 4
//!   and 8 banks, on identical seeded workloads.
//! * **Determinism** — every run folds its outcome stream, final
//!   statistics and partition sizes into one FNV-1a digest; the serial and
//!   batched digests must be bit-identical at every bank count. A mismatch
//!   is recorded in the failure registry unconditionally.
//!
//! Quick mode doubles as the CI gate: the 4-bank batched engine must reach
//! at least `GATE_MIN_SPEEDUP`x the serial per-access rate (with equal
//! digests), or the run is recorded as failed. The 8-bank point is held to
//! the informational `FLOOR8_MIN_SPEEDUP` floor the same way — it
//! previously had no check at all, and each engine's timed windows opened
//! cold on the other engine's evictions (see `WARM_DIV`), which hid
//! high-bank-count regressions.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage::{VantageConfig, VantageLlc};
use vantage_cache::hash::mix64;
use vantage_cache::{LineAddr, ZArray};
use vantage_partitioning::{
    banked::DIGEST_SEED, AccessOutcome, AccessRequest, BankedLlc, Llc, PartitionId, RingStats,
};

use crate::common::{record_failure, Options};
use crate::record::{append_entry, BenchRecord};

const PARTS: usize = 4;

/// Bank counts swept by the scaling benchmark.
const BANK_SWEEP: [usize; 3] = [2, 4, 8];

/// The bank count the CI gate checks.
const GATE_BANKS: usize = 4;

/// Minimum batched-over-serial speedup the quick-mode gate enforces.
///
/// Rebased from 2.0x when the SoA tag-metadata layout landed: the layout
/// change sped the *serial* per-access baseline up by ~30% (the ratio's
/// denominator) while the batched engine — already hiding most of its tag
/// misses behind walk prefetching — gained little, legitimately
/// compressing the measured advantage to ~1.7x on the reference host. The
/// absolute per-engine rates are recorded alongside the ratio, so a
/// serial-baseline regression cannot masquerade as batched-engine
/// improvement.
const GATE_MIN_SPEEDUP: f64 = 1.4;

/// The high-bank-count point of the sweep, measured with the same
/// multi-round paired protocol as the gate and held to an informational
/// floor. Before the warm-prefix fix (see [`WARM_DIV`]) this point had no
/// floor at all, so a regression that only hurt high bank counts — where
/// the cold-restart transient was largest — sailed through CI.
const FLOOR_BANKS: usize = 8;

/// Informational floor on the 8-bank batched-over-serial speedup. Set
/// below the gate's minimum deliberately: with more banks than worker
/// threads the batched engine multiplexes, so scaling flattens, but it
/// must never fall back toward the serial engine's rate by more than
/// measurement noise (best-of-[`ROUNDS`] paired ratios measure ~1.4-1.5x
/// on the reference host). Quick mode records a failure-registry entry
/// when breached.
const FLOOR8_MIN_SPEEDUP: f64 = 1.2;

/// Requests handed to `access_batch` per call (the driver's batch, distinct
/// from the engine's internal per-worker batching).
const BATCH: usize = 65536;

/// The pipelined ring engine's bank count: the 8-bank point, where the
/// bank-major drain's per-bank locality advantage is largest and where the
/// batched sweep historically had only an informational floor.
const PIPE_BANKS: usize = 8;

/// Hard gate on the pipelined-over-serial speedup at [`PIPE_BANKS`] banks —
/// the promotion of the old informational 8-bank floor onto the new
/// engine's recorded entry. The pipelined engine buffers whole windows in
/// per-bank rings and serves each bank's run contiguously, so at the
/// memory-bound [`PipeScale`] it must beat the per-access serial engine by
/// a wide margin, not merely avoid regressing. Quick mode records a
/// failure-registry entry on breach, and CI additionally asserts the
/// recorded entry.
const PIPE_MIN_SPEEDUP: f64 = 2.5;

/// Worker counts the pipelined determinism verification replays the
/// measured trace at: the recorded digests must be identical at every
/// count (and to the serial reference), or the entry records a failure.
const PIPE_JOBS_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Measurement rounds for the pipelined pair — more than [`ROUNDS`]
/// because this gate is *hard* where the batched sweep's 8-bank floor was
/// informational: the best-of-rounds paired-slice estimator converges on
/// the quiet-host ratio as samples grow, and on shared hosts individual
/// rounds can swing ±15% around it. Five rounds keeps a noisy round from
/// deciding a hard gate.
const PIPE_ROUNDS: usize = 5;

/// Scale of the pipelined-engine pair: a footprint where the serial
/// per-access baseline is memory-stall-bound and the cache is fully warmed
/// before timing, the operating regime the ring engine targets. This is
/// deliberately larger than [`Scale`]: the batched sweep keeps its
/// historical scale so `BENCH_parallel.json` trajectories stay comparable,
/// and the pipelined entry records its own scale alongside its own gate.
/// The frame count is chosen so one bank's metadata sits within the host's
/// cache and TLB reach while the whole cache's does not — the regime where
/// bank-major service pays off and the one a large simulated LLC actually
/// occupies; both smaller footprints (everything near) and much larger
/// ones (not even one bank near) measurably narrow the gap. Quick mode
/// again shrinks the access counts, never the cache.
#[derive(Clone, Copy, Debug)]
struct PipeScale {
    frames: usize,
    warmup: u64,
    timed: u64,
}

impl PipeScale {
    fn from_options(o: &Options) -> Self {
        if o.quick {
            Self {
                frames: 2 * 1024 * 1024,
                warmup: 4_000_000,
                timed: 2_400_000,
            }
        } else {
            Self {
                frames: 2 * 1024 * 1024,
                warmup: 4_000_000,
                timed: 4_000_000,
            }
        }
    }
}

/// Ring-batch size of the measured pipelined engine. Larger than the
/// engine's default: each `access_batch` call re-ramps the two-stage
/// prefetch pipeline from cold, so at benchmark scale fewer, longer
/// batches serve measurably faster, and the per-bank runs of a timed
/// window (timed / [`SLICES`] / [`PIPE_BANKS`] requests) comfortably fill
/// them.
const PIPE_BATCH: usize = 16 * 1024;

/// Result of one scaling-benchmark run.
#[derive(Clone, Debug)]
pub struct ScalingResult {
    /// Run label (e.g. `banked4_serial`, `banked4_batched_j2`).
    pub name: String,
    /// Bank count.
    pub banks: usize,
    /// Worker threads (0 = the per-access serial baseline).
    pub jobs: usize,
    /// Timed accesses (excludes warmup).
    pub accesses: u64,
    /// Total wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Best timed slice's rate (see `SLICES`).
    pub accesses_per_sec: f64,
    /// FNV-1a digest of outcomes + stats + partition sizes.
    pub hash: u64,
}

/// Scale parameters: the working set is deliberately larger than the
/// hot-path harness so the sweep is memory-bound — the regime bank
/// batching exists for.
#[derive(Clone, Copy, Debug)]
struct Scale {
    frames: usize,
    warmup: u64,
    timed: u64,
}

impl Scale {
    fn from_options(o: &Options) -> Self {
        // Quick mode shrinks the access counts, not the cache: shrinking
        // the arrays would lift the whole sweep into the host's caches and
        // measure a regime the sharded engine does not target. Its 4-bank
        // gate point has 32K-frame banks, each small enough for the host's
        // L2 on its own, so `VantageLlc::access_batch` serves them as a
        // plain loop; full mode's 64K-frame 4-bank banks keep the prefetch
        // pipeline. Either way the gain over the serial engine comes from
        // bank-major service.
        if o.quick {
            Self {
                frames: 128 * 1024,
                warmup: 400_000,
                timed: 1_200_000,
            }
        } else {
            Self {
                frames: 256 * 1024,
                warmup: 500_000,
                timed: 4_000_000,
            }
        }
    }
}

/// One FNV-1a fold step over a `u64` word.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Digests an outcome stream plus the cache's observable end state. Two
/// engines that digest equal are indistinguishable to a simulation.
fn state_hash(outcomes: &[AccessOutcome], llc: &mut dyn Llc) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &o in outcomes {
        h = fnv(h, o.is_hit() as u64);
    }
    // stats_mut() refreshes the per-bank aggregation on sharded caches.
    let stats = llc.stats_mut().clone();
    for p in 0..llc.num_partitions() {
        h = fnv(h, stats.hits[p]);
        h = fnv(h, stats.misses[p]);
        h = fnv(h, llc.partition_size(PartitionId::from_index(p)));
    }
    fnv(h, stats.evictions)
}

/// Builds the gate configuration: `banks` Vantage-Z4/52 banks behind an
/// address-interleaved [`BankedLlc`] with `jobs` workers, with even
/// capacity targets. Fully deterministic in `seed`, so two calls build
/// indistinguishable caches.
fn build_banked(frames: usize, banks: usize, seed: u64, jobs: usize) -> BankedLlc {
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
    let mut llc = BankedLlc::try_new(bank_llcs, seed ^ 0xBA2C, jobs).expect("valid bank set");
    llc.set_targets(&[(frames / PARTS) as u64; PARTS])
        .expect("targets fit");
    llc
}

/// The shared workload: uniform random lines over `PARTS` partitions, each
/// with a private working set of `2 * frames` lines (8x total capacity
/// pressure), keeping the sweep miss-heavy and memory-bound — the regime
/// the sharded engine's walk prefetching targets.
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
/// windows, with the serial and batched engines *interleaved* slice by
/// slice — each engine advances through the same requests, and each
/// slice's two windows sit a fraction of a second apart in wall time. The
/// best single window's rate is reported per engine, and the speedup is
/// taken from the best time-adjacent window *pair*, so host throughput
/// drift (frequency governors, noisy neighbors on virtualized hosts)
/// cancels out of the ratio instead of folding into it (same
/// noise-rejection idea as the hot-path harness's interleaved best-of
/// NullSink gate). The digest still covers every timed access.
const SLICES: usize = 6;

/// Untimed warm prefix of each engine's slice window, as a divisor of the
/// slice length. Interleaving the engines means every timed window would
/// otherwise open on the microarchitectural state the *other* engine left
/// behind — several MB of the opening engine's tag arrays freshly evicted
/// from the host's caches — so each window used to fold a cold-restart
/// transient into its rate. The transient is not symmetric (the batched
/// engine touches memory bank-by-bank, the serial engine access-
/// interleaved, so they refill at different speeds), which biased the
/// paired ratio, worst at the 8-bank point where the per-bank state is
/// smallest and the transient is the largest fraction of the window.
/// Serving the first `1/WARM_DIV` of each slice untimed re-warms the
/// engine before its clock starts; those accesses still land in the
/// outcome stream and digest.
const WARM_DIV: usize = 8;

/// Measurement of one engine run: total timed wall clock, the best timed
/// slice's rate, and the end-state digest.
struct RunMeasurement {
    wall_s: f64,
    best_rate: f64,
    hash: u64,
}

/// Warms both engines on the first `warmup` requests, then times the rest
/// in [`SLICES`] interleaved windows (see [`SLICES`]): the serial engine
/// serves a slice one access at a time, then the batched engine serves
/// the same slice in [`BATCH`]-sized `access_batch` calls. Returns both
/// measurements and the best per-slice batched-over-serial ratio.
fn run_pair(
    serial: &mut dyn Llc,
    batched: &mut dyn Llc,
    reqs: &[AccessRequest],
    warmup: usize,
) -> (RunMeasurement, RunMeasurement, f64) {
    for &r in &reqs[..warmup] {
        serial.access(r);
    }
    let mut scratch = Vec::with_capacity(BATCH);
    for chunk in reqs[..warmup].chunks(BATCH) {
        scratch.clear();
        batched.access_batch(chunk, &mut scratch);
    }
    let timed = &reqs[warmup..];
    let mut out_s = Vec::with_capacity(timed.len());
    let mut out_b = Vec::with_capacity(timed.len());
    let (mut wall_s, mut wall_b) = (0.0f64, 0.0f64);
    let (mut best_s, mut best_b, mut best_ratio) = (0.0f64, 0.0f64, 0.0f64);
    for slice in timed.chunks(timed.len().div_ceil(SLICES)) {
        // Each engine re-warms on the slice's untimed prefix before its
        // window opens (see [`WARM_DIV`]); every access is still served
        // exactly once and digested.
        let (warm, rest) = slice.split_at(slice.len() / WARM_DIV);
        for &r in warm {
            out_s.push(serial.access(r));
        }
        let t0 = Instant::now();
        for &r in rest {
            out_s.push(serial.access(r));
        }
        let dt_s = t0.elapsed().as_secs_f64().max(1e-9);
        for chunk in warm.chunks(BATCH) {
            batched.access_batch(chunk, &mut out_b);
        }
        let t0 = Instant::now();
        for chunk in rest.chunks(BATCH) {
            batched.access_batch(chunk, &mut out_b);
        }
        let dt_b = t0.elapsed().as_secs_f64().max(1e-9);
        wall_s += dt_s;
        wall_b += dt_b;
        let (rate_s, rate_b) = (rest.len() as f64 / dt_s, rest.len() as f64 / dt_b);
        best_s = best_s.max(rate_s);
        best_b = best_b.max(rate_b);
        best_ratio = best_ratio.max(rate_b / rate_s);
    }
    let m_s = RunMeasurement {
        wall_s,
        best_rate: best_s,
        hash: state_hash(&out_s, serial),
    };
    let m_b = RunMeasurement {
        wall_s: wall_b,
        best_rate: best_b,
        hash: state_hash(&out_b, batched),
    };
    (m_s, m_b, best_ratio)
}

/// Interleaved measurement rounds at the gate bank count. Host throughput
/// drifts on benchmark timescales (frequency governors, background load),
/// so the serial and batched engines are measured back-to-back [`ROUNDS`]
/// times and the gate speedup taken from the best *round* — an
/// adjacent-in-time pair. Taking each engine's best window separately
/// would compare measurements minutes apart and fold the drift into the
/// ratio. Same noise-rejection idea as the hot-path harness's interleaved
/// best-of NullSink gate.
const ROUNDS: usize = 3;

/// Runs the sweep: serial and batched engines at each bank count. Returns
/// the per-bank results plus the gate and 8-bank-floor speedups — each the
/// best time-adjacent slice-pair ratio at [`GATE_BANKS`] / [`FLOOR_BANKS`]
/// across rounds (see [`run_pair`]).
fn run_sweep(opts: &Options, scale: Scale) -> (Vec<ScalingResult>, f64, f64) {
    let seed = opts.seed ^ 0xBA12;
    let reqs = trace(scale.frames, scale.warmup + scale.timed, seed ^ 0xD21E);
    let warmup = scale.warmup as usize;
    let jobs = opts.bank_jobs.max(1);
    let mut out = Vec::new();
    let mut push = |name: String, banks: usize, jobs: usize, m: RunMeasurement| {
        let r = ScalingResult {
            name,
            banks,
            jobs,
            accesses: scale.timed,
            wall_s: m.wall_s,
            accesses_per_sec: m.best_rate,
            hash: m.hash,
        };
        eprintln!(
            "  {:<20} {:>10.0} acc/s (hash {:#018x})",
            r.name, r.accesses_per_sec, r.hash
        );
        out.push(r);
    };
    let mut gate_speedup = 0.0f64;
    let mut floor8_speedup = 0.0f64;
    for banks in BANK_SWEEP {
        let rounds = if banks == GATE_BANKS || banks == FLOOR_BANKS {
            ROUNDS
        } else {
            1
        };
        let mut best_ratio = -1.0f64;
        let mut kept: Option<(RunMeasurement, RunMeasurement)> = None;
        for round in 0..rounds {
            // Fresh builds each round: construction is deterministic, so
            // every round replays the identical simulation (equal digests)
            // and only the timing differs.
            // Ring slots as large as a driver batch hand each bank its
            // whole share of a window in one `access_batch` call.
            let mut serial = build_banked(scale.frames, banks, seed, 1);
            let mut batched = build_banked(scale.frames, banks, seed, jobs).with_batch_size(BATCH);
            let (ms, mb, ratio) = run_pair(&mut serial, &mut batched, &reqs, warmup);
            if rounds > 1 {
                eprintln!(
                    "  banked{banks} round {}/{rounds}: {:>10.0} serial, {:>10.0} batched \
                     acc/s, best paired ratio {ratio:.2}x",
                    round + 1,
                    ms.best_rate,
                    mb.best_rate
                );
            }
            if ratio > best_ratio {
                best_ratio = ratio;
                kept = Some((ms, mb));
            }
        }
        let (ms, mb) = kept.expect("at least one round ran");
        push(format!("banked{banks}_serial"), banks, 0, ms);
        push(format!("banked{banks}_batched_j{jobs}"), banks, jobs, mb);
        if banks == GATE_BANKS {
            gate_speedup = best_ratio;
        }
        if banks == FLOOR_BANKS {
            floor8_speedup = best_ratio;
        }
    }
    (out, gate_speedup, floor8_speedup)
}

/// Per-bank outcome digests of a serial reference run: fold each timed
/// outcome's hit bit into its bank's FNV-1a digest, in stream order. The
/// pipelined engine computes the same digests internally while serving
/// bank-major, so equality here proves per-bank order (and every
/// replacement decision) survived the re-scheduling.
fn serial_bank_digests(
    llc: &BankedLlc,
    reqs: &[AccessRequest],
    outs: &[AccessOutcome],
) -> Vec<u64> {
    let mut d = vec![DIGEST_SEED; llc.num_banks()];
    for (r, o) in reqs.iter().zip(outs) {
        let b = llc.bank_of(r.addr);
        d[b] = fnv(d[b], o.is_hit() as u64);
    }
    d
}

/// Digests per-bank outcome digests plus the cache's observable end state
/// — the pipelined analogue of [`state_hash`], comparable across engines
/// that expose the same bank decomposition.
fn pipe_state_hash(bank_digests: &[u64], llc: &mut dyn Llc) -> u64 {
    let mut h = DIGEST_SEED;
    for &d in bank_digests {
        h = fnv(h, d);
    }
    let stats = llc.stats_mut().clone();
    for p in 0..llc.num_partitions() {
        h = fnv(h, stats.hits[p]);
        h = fnv(h, stats.misses[p]);
        h = fnv(h, llc.partition_size(PartitionId::from_index(p)));
    }
    fnv(h, stats.evictions)
}

/// Warms both engines through their batch paths (identical traffic and
/// end state either way — warmup is untimed), then times the rest in
/// [`SLICES`] interleaved windows exactly like [`run_pair`]: the serial
/// engine serves a slice one access at a time; the pipelined engine
/// ingests the same slice into its rings and drains it bank-major inside
/// the timed window (`run_window` = shard + serve + quiesce, so the
/// window's clock covers the whole pipeline, not just production).
fn run_pipe_pair(
    serial: &mut BankedLlc,
    pipe: &mut BankedLlc,
    reqs: &[AccessRequest],
    warmup: usize,
) -> (RunMeasurement, RunMeasurement, f64) {
    let mut scratch = Vec::with_capacity(BATCH);
    for chunk in reqs[..warmup].chunks(BATCH) {
        scratch.clear();
        serial.access_batch(chunk, &mut scratch);
    }
    for chunk in reqs[..warmup].chunks(BATCH) {
        pipe.run_window(chunk);
    }
    // Digests cover exactly the timed stream, like `run_pair`'s outcome
    // buffers.
    pipe.reset_digests();
    let timed = &reqs[warmup..];
    let mut out_s = Vec::with_capacity(timed.len());
    let (mut wall_s, mut wall_p) = (0.0f64, 0.0f64);
    let (mut best_s, mut best_p, mut best_ratio) = (0.0f64, 0.0f64, 0.0f64);
    for slice in timed.chunks(timed.len().div_ceil(SLICES)) {
        let (warm, rest) = slice.split_at(slice.len() / WARM_DIV);
        for &r in warm {
            out_s.push(serial.access(r));
        }
        let t0 = Instant::now();
        for &r in rest {
            out_s.push(serial.access(r));
        }
        let dt_s = t0.elapsed().as_secs_f64().max(1e-9);
        pipe.run_window(warm);
        let t0 = Instant::now();
        pipe.run_window(rest);
        let dt_p = t0.elapsed().as_secs_f64().max(1e-9);
        wall_s += dt_s;
        wall_p += dt_p;
        let (rate_s, rate_p) = (rest.len() as f64 / dt_s, rest.len() as f64 / dt_p);
        best_s = best_s.max(rate_s);
        best_p = best_p.max(rate_p);
        best_ratio = best_ratio.max(rate_p / rate_s);
    }
    let serial_digests = serial_bank_digests(serial, timed, &out_s);
    let m_s = RunMeasurement {
        wall_s,
        best_rate: best_s,
        hash: pipe_state_hash(&serial_digests, serial),
    };
    let pipe_digests = pipe.bank_digests().to_vec();
    let m_p = RunMeasurement {
        wall_s: wall_p,
        best_rate: best_p,
        hash: pipe_state_hash(&pipe_digests, pipe),
    };
    (m_s, m_p, best_ratio)
}

/// Everything the pipelined-engine benchmark contributes to the recorded
/// entry: its two scaling rows, the gated speedup, the determinism
/// verdicts, and ring-occupancy telemetry from the measured run.
struct PipeOutcome {
    results: Vec<ScalingResult>,
    /// Worker count of the measured (timed) pipelined run.
    jobs: usize,
    speedup: f64,
    /// Serial and pipelined digests of the measured pair agree.
    hashes_equal: bool,
    /// Replays at every [`PIPE_JOBS_SWEEP`] worker count digest equal.
    jobs_hashes_equal: bool,
    ring: RingStats,
    timed: u64,
}

/// Runs the pipelined pair at [`PIPE_BANKS`] banks with the same
/// multi-round paired protocol as the gate sweep, then replays the
/// identical trace at every [`PIPE_JOBS_SWEEP`] worker count and checks
/// the digests against the serial reference.
fn run_pipe_sweep(opts: &Options, scale: PipeScale) -> PipeOutcome {
    let seed = opts.seed ^ 0x919E;
    let reqs = trace(scale.frames, scale.warmup + scale.timed, seed ^ 0xD21E);
    let warmup = scale.warmup as usize;
    let jobs = opts.bank_jobs.max(1);
    let mut best_ratio = -1.0f64;
    let mut kept: Option<(RunMeasurement, RunMeasurement, RingStats)> = None;
    for round in 0..PIPE_ROUNDS {
        let mut serial = build_banked(scale.frames, PIPE_BANKS, seed, 1);
        let mut pipe =
            build_banked(scale.frames, PIPE_BANKS, seed, jobs).with_batch_size(PIPE_BATCH);
        let (ms, mp, ratio) = run_pipe_pair(&mut serial, &mut pipe, &reqs, warmup);
        eprintln!(
            "  pipelined{PIPE_BANKS} round {}/{PIPE_ROUNDS}: {:>10.0} serial, {:>10.0} pipelined \
             acc/s, best paired ratio {ratio:.2}x",
            round + 1,
            ms.best_rate,
            mp.best_rate
        );
        if ratio > best_ratio {
            best_ratio = ratio;
            kept = Some((ms, mp, pipe.ring_stats()));
        }
    }
    let (ms, mp, ring) = kept.expect("at least one round ran");
    let hashes_equal = ms.hash == mp.hash;
    let serial_hash = ms.hash;
    let mut results = vec![
        ScalingResult {
            name: format!("pipe{PIPE_BANKS}_serial"),
            banks: PIPE_BANKS,
            jobs: 0,
            accesses: scale.timed,
            wall_s: ms.wall_s,
            accesses_per_sec: ms.best_rate,
            hash: ms.hash,
        },
        ScalingResult {
            name: format!("pipe{PIPE_BANKS}_pipelined_j{jobs}"),
            banks: PIPE_BANKS,
            jobs,
            accesses: scale.timed,
            wall_s: mp.wall_s,
            accesses_per_sec: mp.best_rate,
            hash: mp.hash,
        },
    ];
    for r in &results {
        eprintln!(
            "  {:<24} {:>10.0} acc/s (hash {:#018x})",
            r.name, r.accesses_per_sec, r.hash
        );
    }
    // Determinism across worker counts: replay the identical trace
    // (untimed, arbitrary window chunking — per-bank order is what must
    // hold) at each jobs count and digest-compare against the serial
    // reference.
    let mut jobs_hashes_equal = true;
    for j in PIPE_JOBS_SWEEP {
        let mut pipe = build_banked(scale.frames, PIPE_BANKS, seed, j).with_batch_size(PIPE_BATCH);
        for chunk in reqs[..warmup].chunks(BATCH) {
            pipe.run_window(chunk);
        }
        pipe.reset_digests();
        for chunk in reqs[warmup..].chunks(BATCH) {
            pipe.run_window(chunk);
        }
        let digests = pipe.bank_digests().to_vec();
        let hash = pipe_state_hash(&digests, &mut pipe);
        let ok = hash == serial_hash;
        jobs_hashes_equal &= ok;
        eprintln!(
            "  pipe{PIPE_BANKS}_j{j} replay hash {hash:#018x} ({})",
            if ok { "== serial" } else { "MISMATCH" }
        );
        results.push(ScalingResult {
            name: format!("pipe{PIPE_BANKS}_replay_j{j}"),
            banks: PIPE_BANKS,
            jobs: j,
            accesses: scale.timed,
            wall_s: 0.0,
            accesses_per_sec: 0.0,
            hash,
        });
    }
    PipeOutcome {
        results,
        jobs,
        speedup: best_ratio,
        hashes_equal,
        jobs_hashes_equal,
        ring,
        timed: scale.timed,
    }
}

/// Checks the pipelined entry's gates: digest equality (always enforced in
/// the failure registry) and the hard [`PIPE_MIN_SPEEDUP`] speedup gate
/// (quick-enforced, like the batched gate; CI re-asserts the recorded
/// entry).
fn check_pipe_gates(opts: &Options, pipe: &PipeOutcome) {
    if !pipe.hashes_equal {
        record_failure(
            "perf-parallel pipelined determinism",
            format!("serial and pipelined digests differ at {PIPE_BANKS} banks"),
        );
    }
    if !pipe.jobs_hashes_equal {
        record_failure(
            "perf-parallel pipelined determinism",
            format!("pipelined digests vary across worker counts {PIPE_JOBS_SWEEP:?}"),
        );
    }
    eprintln!(
        "  gate: {PIPE_BANKS}-bank pipelined/serial speedup {:.2}x \
         (min {PIPE_MIN_SPEEDUP:.1}x, quick-enforced: {})",
        pipe.speedup, opts.quick
    );
    if opts.quick && pipe.speedup < PIPE_MIN_SPEEDUP {
        record_failure(
            "perf-parallel pipelined gate",
            format!(
                "{PIPE_BANKS}-bank pipelined engine reached only {:.2}x \
                 the serial rate (min {PIPE_MIN_SPEEDUP:.1}x)",
                pipe.speedup
            ),
        );
    }
}

/// Checks the determinism digests (always), the quick-mode speedup gate on
/// the paired `speedup` from [`run_sweep`], and the informational 8-bank
/// floor on `speedup8`; returns whether the digests matched.
fn check_gates(opts: &Options, results: &[ScalingResult], speedup: f64, speedup8: f64) -> bool {
    let mut hashes_equal = true;
    for banks in BANK_SWEEP {
        let of: Vec<&ScalingResult> = results.iter().filter(|r| r.banks == banks).collect();
        if of.windows(2).any(|w| w[0].hash != w[1].hash) {
            hashes_equal = false;
            record_failure(
                "perf-parallel determinism",
                format!("serial and batched digests differ at {banks} banks"),
            );
        }
    }
    eprintln!(
        "  gate: {GATE_BANKS}-bank batched/serial speedup {speedup:.2}x \
         (min {GATE_MIN_SPEEDUP:.1}x, quick-enforced: {})",
        opts.quick
    );
    if opts.quick && speedup < GATE_MIN_SPEEDUP {
        record_failure(
            "perf-parallel scaling gate",
            format!(
                "{GATE_BANKS}-bank batched engine reached only {speedup:.2}x \
                 the serial rate (min {GATE_MIN_SPEEDUP:.1}x)"
            ),
        );
    }
    eprintln!(
        "  floor: {FLOOR_BANKS}-bank batched/serial speedup {speedup8:.2}x \
         (informational floor {FLOOR8_MIN_SPEEDUP:.1}x, quick-enforced: {})",
        opts.quick
    );
    if opts.quick && speedup8 < FLOOR8_MIN_SPEEDUP {
        record_failure(
            "perf-parallel 8-bank floor",
            format!(
                "{FLOOR_BANKS}-bank batched engine reached only {speedup8:.2}x \
                 the serial rate (informational floor {FLOOR8_MIN_SPEEDUP:.1}x)"
            ),
        );
    }
    hashes_equal
}

/// Renders one run entry as a JSON object (hand-rolled: the workspace is
/// offline and vendors no serde).
fn render_entry(
    opts: &Options,
    results: &[ScalingResult],
    speedup: f64,
    speedup8: f64,
    equal: bool,
    pipe: &PipeOutcome,
) -> String {
    let mut rec = BenchRecord::new(opts.quick, opts.seed);
    let s = rec.body_mut();
    s.push_str("    \"scaling\": [\n");
    let all: Vec<&ScalingResult> = results.iter().chain(pipe.results.iter()).collect();
    for (i, r) in all.iter().enumerate() {
        let comma = if i + 1 < all.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"banks\": {}, \"jobs\": {}, \"accesses\": {}, \
             \"wall_s\": {:.6}, \"accesses_per_sec\": {:.1}, \"hash\": \"{:#018x}\"}}{comma}",
            r.name, r.banks, r.jobs, r.accesses, r.wall_s, r.accesses_per_sec, r.hash
        );
    }
    let _ = write!(
        s,
        "    ],\n    \"gate\": {{\"banks\": {GATE_BANKS}, \"speedup\": {speedup:.3}, \
         \"min_speedup\": {GATE_MIN_SPEEDUP:.1}, \"hashes_equal\": {equal}}},\n    \
         \"floor8\": {{\"banks\": {FLOOR_BANKS}, \"speedup\": {speedup8:.3}, \
         \"min_speedup\": {FLOOR8_MIN_SPEEDUP:.1}}},\n    \
         \"pipeline\": {{\"banks\": {PIPE_BANKS}, \"jobs\": {}, \"accesses\": {}, \
         \"batch\": {PIPE_BATCH}, \
         \"speedup\": {:.3}, \"min_speedup\": {PIPE_MIN_SPEEDUP:.1}, \
         \"hashes_equal\": {}, \"jobs_hashes_equal\": {}, \
         \"jobs_sweep\": [1, 2, 4, 8], \
         \"ring_peak_depth\": {}, \"ring_mean_depth\": {:.2}}}",
        pipe.jobs,
        pipe.timed,
        pipe.speedup,
        pipe.hashes_equal,
        pipe.jobs_hashes_equal,
        pipe.ring.peak_depth,
        pipe.ring.mean_depth()
    );
    rec.finish()
}

/// The `perf-parallel` subcommand: runs the sweep and appends the results
/// to `BENCH_parallel.json` in the current directory (the repo root in CI
/// and normal use).
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
    let (results, speedup, speedup8) = run_sweep(opts, Scale::from_options(opts));
    let equal = check_gates(opts, &results, speedup, speedup8);
    println!("perf-parallel: pipelined ring engine at {PIPE_BANKS} banks");
    let pipe = run_pipe_sweep(opts, PipeScale::from_options(opts));
    check_pipe_gates(opts, &pipe);
    let entry = render_entry(opts, &results, speedup, speedup8, equal, &pipe);
    match append_entry(path, &entry) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => record_failure(path.display().to_string(), e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_batched_digests_agree_at_tiny_scale() {
        let scale = Scale {
            frames: 2 * 1024,
            warmup: 4_000,
            timed: 8_000,
        };
        let seed = 7;
        let reqs = trace(scale.frames, scale.warmup + scale.timed, seed);
        let warmup = scale.warmup as usize;
        for jobs in [1, 2] {
            let mut serial = build_banked(scale.frames, 4, seed, 1);
            let mut batched = build_banked(scale.frames, 4, seed, jobs).with_batch_size(BATCH);
            let (ms, mb, _ratio) = run_pair(&mut serial, &mut batched, &reqs, warmup);
            assert_eq!(ms.hash, mb.hash, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn serial_and_pipelined_digests_agree_at_tiny_scale() {
        let scale = PipeScale {
            frames: 2 * 1024,
            warmup: 4_000,
            timed: 8_000,
        };
        let seed = 7;
        let reqs = trace(scale.frames, scale.warmup + scale.timed, seed);
        let warmup = scale.warmup as usize;
        for jobs in [1, 2] {
            let mut serial = build_banked(scale.frames, 4, seed, 1);
            let mut pipe = build_banked(scale.frames, 4, seed, jobs);
            let (ms, mp, _ratio) = run_pipe_pair(&mut serial, &mut pipe, &reqs, warmup);
            assert_eq!(ms.hash, mp.hash, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn trajectory_entry_records_the_gate() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let results = vec![ScalingResult {
            name: "banked4_serial".into(),
            banks: 4,
            jobs: 0,
            accesses: 10,
            wall_s: 0.5,
            accesses_per_sec: 20.0,
            hash: 0xABCD,
        }];
        let pipe = PipeOutcome {
            results: vec![ScalingResult {
                name: "pipe8_pipelined_j1".into(),
                banks: 8,
                jobs: 1,
                accesses: 10,
                wall_s: 0.2,
                accesses_per_sec: 50.0,
                hash: 0xABCD,
            }],
            jobs: 1,
            speedup: 2.61,
            hashes_equal: true,
            jobs_hashes_equal: true,
            ring: RingStats {
                peak_depth: 3,
                depth_sum: 10,
                samples: 5,
            },
            timed: 10,
        };
        let entry = render_entry(&opts, &results, 2.5, 1.7, true, &pipe);
        assert!(entry.contains("\"scaling\""));
        assert!(entry.contains("\"speedup\": 2.500"));
        assert!(entry.contains("\"hashes_equal\": true"));
        assert!(entry.contains("0x000000000000abcd"));
        assert!(entry.contains("\"floor8\""));
        assert!(entry.contains("\"speedup\": 1.700"));
        assert!(entry.contains("\"pipeline\""));
        assert!(entry.contains("\"speedup\": 2.610"));
        assert!(entry.contains("\"min_speedup\": 2.5"));
        assert!(entry.contains("\"jobs_hashes_equal\": true"));
        assert!(entry.contains(&format!("\"batch\": {PIPE_BATCH}")));
        assert!(entry.contains("\"ring_peak_depth\": 3"));
        assert!(entry.contains("pipe8_pipelined_j1"));
    }
}
