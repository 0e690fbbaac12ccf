//! `security` subcommand: measured prime+probe leakage across schemes
//! and share modes.
//!
//! The paper argues partitioning for performance isolation; the same
//! mechanism is routinely proposed as a side-channel defense. This
//! harness measures — rather than asserts — how much a cache-occupancy
//! channel actually carries on each scheme, and how the ownership
//! layer's [`ShareMode`] knob changes the answer when attacker and
//! victim *share* data:
//!
//! * An attacker primes a probe set in the shared region
//!   ([`PrimeProbe`] geometry from `vantage-workloads`), the victim
//!   either touches it and thrashes its own partition (`secret = 1`)
//!   or idles (`secret = 0`), and the attacker counts probe misses.
//! * Over many trials the per-trial miss counts are thresholded into a
//!   binary observable at the threshold maximizing mutual information
//!   ([`binary_channel_bits`]) — an attacker-optimal channel-capacity
//!   estimate, reported in bits/trial and scaled to bits/second at a
//!   nominal [`NOMINAL_ACCESS_RATE`] accesses/second.
//! * The matrix covers an unpartitioned baseline (the reference leak),
//!   way-partitioning, and Vantage, each under every [`ShareMode`];
//!   Vantage additionally under tenant-churn bursts and register/tag
//!   fault injection, the two disturbances the recovery machinery
//!   exists for.
//!
//! Under `Adopt`, partitioning alone does *not* close the channel: the
//! victim's touch re-tags the shared lines into its own partition,
//! where its replacement pressure evicts them — an ownership channel
//! that `Pin` and `Replicate` block. The recorded gate asserts exactly
//! that: Vantage+`Pin` must leak at most [`MAX_LEAK_RATIO`] of the
//! unpartitioned reference. Results go to `<out>/security_leak.csv`
//! and `BENCH_security.json` at the repo root; CI re-asserts the gate
//! from the JSON artifact.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use vantage::{FaultKind, FaultPlan, VantageConfig, VantageLlc};
use vantage_cache::hash::mix64;
use vantage_cache::{SetAssocArray, ShareMode, ZArray};
use vantage_partitioning::{
    AccessOutcome, AccessRequest, BaselineLlc, Llc, PartitionId, PartitionSpec, RankPolicy,
    WayPartLlc,
};
use vantage_workloads::{binary_channel_bits, count_misses, PrimeProbe};

use crate::common::{open_telemetry, record_failure, write_csv, Options};
use crate::record::{append_entry, BenchRecord};

/// Nominal LLC access rate used to scale bits/trial into bits/second.
pub const NOMINAL_ACCESS_RATE: f64 = 1.0e9;

/// The gate: Vantage+`Pin` may leak at most this fraction of the
/// unpartitioned reference channel.
pub const MAX_LEAK_RATIO: f64 = 0.01;

/// Meaningfulness floor on the reference channel (bits/trial): if the
/// unpartitioned cache doesn't leak at least this much, the harness
/// geometry is broken and the ratio gate would pass vacuously.
pub const MIN_REFERENCE_LEAK: f64 = 0.1;

/// Salt for the per-trial secret bit draw.
const SECRET_SALT: u64 = 0x5EC2E7;

/// Cache lines in the measured machine.
const FRAMES: usize = 4096;

/// Measured partitions (attacker = 0, victim = 1).
const PARTS: usize = 2;

/// Trials per matrix cell.
fn trials_for(opts: &Options) -> u64 {
    if opts.quick {
        96
    } else {
        384
    }
}

/// One measured channel: the best-threshold 2×2 contingency table and
/// its capacity estimate.
#[derive(Clone, Debug)]
pub struct ChannelMeasurement {
    /// Trials run.
    pub trials: u64,
    /// Trials whose secret bit was set.
    pub secret_trials: u64,
    /// Total accesses issued (prime + victim + perturbation + probe).
    pub accesses: u64,
    /// Per-trial `(secret, probe misses)` samples, in trial order.
    pub samples: Vec<(bool, u64)>,
    /// Miss-count threshold maximizing mutual information.
    pub threshold: u64,
    /// Best-threshold table `[n00, n01, n10, n11]`
    /// (`n[secret][observed]`).
    pub table: [u64; 4],
    /// Channel capacity estimate at that threshold, bits/trial.
    pub bits_per_trial: f64,
}

impl ChannelMeasurement {
    /// Accesses issued per trial, on average.
    pub fn accesses_per_trial(&self) -> f64 {
        self.accesses as f64 / self.trials.max(1) as f64
    }

    /// Leak rate in bits/second at [`NOMINAL_ACCESS_RATE`].
    pub fn bits_per_sec(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.bits_per_trial * NOMINAL_ACCESS_RATE / self.accesses_per_trial()
    }

    /// FNV-1a digest of the `(secret, misses)` trial sequence — the
    /// engine-equivalence fingerprint (identical across
    /// Serial/Batched/Pipelined engines for the same machine and seed).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u64| {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(secret, misses) in &self.samples {
            eat(secret as u64);
            eat(misses);
        }
        h
    }
}

/// Runs `trials` prime+probe trials against `llc` and estimates the
/// channel. `perturb` runs between the victim phase and the probe of
/// every trial (tenant churn, background noise; pass a no-op closure
/// for a clean run) and returns the number of accesses it issued.
///
/// Exposed for the engine-equivalence integration test; the subcommand
/// drives it through [`security`].
pub fn measure_channel(
    llc: &mut dyn Llc,
    pp: &PrimeProbe,
    trials: u64,
    mut perturb: impl FnMut(&mut dyn Llc, u64) -> u64,
) -> ChannelMeasurement {
    let mut reqs: Vec<AccessRequest> = Vec::new();
    let mut outs: Vec<AccessOutcome> = Vec::new();
    let mut samples = Vec::with_capacity(trials as usize);
    let mut accesses = 0u64;
    let mut secret_trials = 0u64;
    for trial in 0..trials {
        reqs.clear();
        outs.clear();
        pp.prime(&mut reqs);
        llc.access_batch(&reqs, &mut outs);
        accesses += reqs.len() as u64;

        let secret = mix64(pp.seed ^ SECRET_SALT ^ trial) & 1 == 1;
        secret_trials += u64::from(secret);
        reqs.clear();
        pp.victim_act(secret, trial, &mut reqs);
        if !reqs.is_empty() {
            outs.clear();
            llc.access_batch(&reqs, &mut outs);
            accesses += reqs.len() as u64;
        }

        accesses += perturb(llc, trial);

        reqs.clear();
        outs.clear();
        pp.probe(&mut reqs);
        llc.access_batch(&reqs, &mut outs);
        accesses += reqs.len() as u64;
        samples.push((secret, count_misses(&outs)));
    }
    let (threshold, table, bits_per_trial) = best_threshold(&samples);
    ChannelMeasurement {
        trials,
        secret_trials,
        accesses,
        samples,
        threshold,
        table,
        bits_per_trial,
    }
}

/// Scans every binary split of the observed miss counts and returns the
/// `(threshold, table, bits)` maximizing mutual information, where a
/// trial observes `1` iff its miss count exceeds the threshold.
fn best_threshold(samples: &[(bool, u64)]) -> (u64, [u64; 4], f64) {
    let mut cuts: Vec<u64> = samples.iter().map(|&(_, m)| m).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut best = (0u64, [0u64; 4], -1.0f64);
    for &thr in &cuts {
        let mut t = [0u64; 4];
        for &(secret, misses) in samples {
            t[2 * usize::from(secret) + usize::from(misses > thr)] += 1;
        }
        let bits = binary_channel_bits(t[0], t[1], t[2], t[3]);
        if bits > best.2 {
            best = (thr, t, bits);
        }
    }
    if best.2 < 0.0 {
        best.2 = 0.0;
    }
    best
}

/// One row of the measured matrix.
struct MatrixRow {
    scheme: &'static str,
    mode: ShareMode,
    condition: &'static str,
    m: ChannelMeasurement,
}

/// Builds the unpartitioned reference machine (hashed 16-way LRU,
/// [`FRAMES`] lines, [`PARTS`] requestors, no capacity enforcement).
fn build_unpartitioned(seed: u64) -> BaselineLlc {
    BaselineLlc::try_new(
        Box::new(SetAssocArray::hashed(FRAMES, 16, seed)),
        PARTS,
        RankPolicy::Lru,
    )
    .expect("valid baseline config")
}

/// Builds the way-partitioned machine (16 ways split evenly).
fn build_waypart(seed: u64, mode: ShareMode) -> WayPartLlc {
    let mut llc = WayPartLlc::try_new(FRAMES, 16, PARTS, seed).expect("valid waypart config");
    assert!(llc.set_share_mode(mode), "waypart supports every mode");
    llc
}

/// Builds the Vantage machine (Z4/52 array, even quarter-capacity
/// targets so the victim's streaming sweep overruns its share), with an
/// optional fault plan.
fn build_vantage(seed: u64, mode: ShareMode, faults: bool) -> VantageLlc {
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(FRAMES, 4, 16, seed)),
        PARTS,
        VantageConfig::default(),
        seed,
    )
    .expect("valid Vantage config");
    llc.set_targets(&[(FRAMES / 4) as u64; PARTS]);
    assert!(llc.set_share_mode(mode), "vantage supports every mode");
    if faults {
        llc.set_fault_plan(Some(FaultPlan::new(
            seed ^ 0xFA_17,
            2_000,
            &[
                FaultKind::TagPart,
                FaultKind::TagTs,
                FaultKind::ActualSize,
                FaultKind::Setpoint,
                FaultKind::Meters,
            ],
        )));
        llc.set_scrub_period(Some(8_192));
    }
    llc
}

/// The measured prime+probe geometry: the default probe set, with the
/// victim's active-trial sweep sized to wrap the whole `FRAMES`-line
/// machine — on the unpartitioned reference even MRU probe lines must
/// be evicted, or the occupancy channel under test never fires.
pub fn probe_geometry(seed: u64) -> PrimeProbe {
    let mut pp = PrimeProbe::new(PartitionId::from_index(0), PartitionId::from_index(1), seed);
    pp.victim_accesses = 2 * FRAMES;
    pp
}

/// A no-op perturbation (the `clean` condition).
fn no_perturb(_: &mut dyn Llc, _: u64) -> u64 {
    0
}

/// The `churn` condition: every trial, two short-lived tenants arrive,
/// stream a burst of private traffic, and depart — the admission/drain
/// path runs concurrently with the measured channel.
fn churn_perturb(llc: &mut dyn Llc, trial: u64) -> u64 {
    let mut reqs: Vec<AccessRequest> = Vec::new();
    let mut outs: Vec<AccessOutcome> = Vec::new();
    let mut slots = Vec::new();
    for k in 0..2u64 {
        match llc.create_partition(PartitionSpec::with_target(64)) {
            Ok(slot) => slots.push(slot),
            Err(e) => record_failure("security churn", format!("create_partition: {e}")),
        }
        if let Some(&slot) = slots.last() {
            let base = mix64(trial ^ (k << 32) ^ 0xC0_FFEE);
            for n in 0..256u64 {
                reqs.push(AccessRequest::read(
                    slot,
                    vantage_workloads::sharing::private_line(
                        slot.raw(),
                        (base.wrapping_add(n)) % (1 << 24),
                    ),
                ));
            }
        }
    }
    llc.access_batch(&reqs, &mut outs);
    for slot in slots {
        if let Err(e) = llc.destroy_partition(slot) {
            record_failure("security churn", format!("destroy_partition: {e}"));
        }
    }
    reqs.len() as u64
}

/// Runs the full measurement matrix.
fn run_matrix(opts: &Options) -> Vec<MatrixRow> {
    let trials = trials_for(opts);
    let seed = opts.seed;
    let pp = probe_geometry(seed);
    let mut rows = Vec::new();
    let mut push =
        |scheme: &'static str, mode: ShareMode, condition: &'static str, m: ChannelMeasurement| {
            eprintln!(
            "  {scheme:>8} {:>9} {condition:>6}: {:.4} bits/trial ({:.3e} bits/s), thr {} misses",
            mode.label(),
            m.bits_per_trial,
            m.bits_per_sec(),
            m.threshold,
        );
            rows.push(MatrixRow {
                scheme,
                mode,
                condition,
                m,
            });
        };

    // Unpartitioned reference: the share mode is irrelevant to an
    // unenforced cache's occupancy channel, so one row suffices.
    let mut llc = build_unpartitioned(seed);
    push(
        "unpart",
        ShareMode::Adopt,
        "clean",
        measure_channel(&mut llc, &pp, trials, no_perturb),
    );

    for &mode in &ShareMode::ALL {
        let mut llc = build_waypart(seed, mode);
        push(
            "waypart",
            mode,
            "clean",
            measure_channel(&mut llc, &pp, trials, no_perturb),
        );
    }

    for &mode in &ShareMode::ALL {
        // The clean-condition Vantage machine carries the telemetry trace
        // (SharedHit / OwnershipTransfer / Replica events per mode).
        let mut llc = build_vantage(seed, mode, false);
        if let Some(base) = &opts.telemetry {
            if let Some(t) = open_telemetry(base, &format!("security-{}", mode.label())) {
                llc.set_telemetry(t);
            }
        }
        let m = measure_channel(&mut llc, &pp, trials, no_perturb);
        if let Some(mut t) = llc.take_telemetry() {
            t.flush();
            if let Some(e) = t.io_error() {
                record_failure("security telemetry", e);
            }
        }
        push("vantage", mode, "clean", m);

        let mut llc = build_vantage(seed, mode, false);
        push(
            "vantage",
            mode,
            "churn",
            measure_channel(&mut llc, &pp, trials, churn_perturb),
        );

        let mut llc = build_vantage(seed, mode, true);
        push(
            "vantage",
            mode,
            "faults",
            measure_channel(&mut llc, &pp, trials, no_perturb),
        );
    }
    rows
}

/// Finds the matrix cell `(scheme, mode, "clean")`.
fn cell<'a>(rows: &'a [MatrixRow], scheme: &str, mode: ShareMode) -> Option<&'a MatrixRow> {
    rows.iter()
        .find(|r| r.scheme == scheme && r.mode == mode && r.condition == "clean")
}

/// Renders one `BENCH_security.json` entry.
fn render_entry(opts: &Options, rows: &[MatrixRow], gate: &GateOutcome, wall_s: f64) -> String {
    let mut rec = BenchRecord::new(opts.quick, opts.seed);
    let s = rec.body_mut();
    let _ = writeln!(
        s,
        "    \"machine\": {{\"frames\": {FRAMES}, \"parts\": {PARTS}, \
         \"trials\": {}, \"nominal_access_rate\": {NOMINAL_ACCESS_RATE:.1}, \
         \"wall_s\": {wall_s:.3}}},",
        trials_for(opts),
    );
    let _ = writeln!(s, "    \"channels\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{\"scheme\": \"{}\", \"mode\": \"{}\", \"condition\": \"{}\", \
             \"bits_per_trial\": {:.6}, \"bits_per_sec\": {:.3}, \
             \"threshold\": {}, \"table\": [{}, {}, {}, {}], \
             \"accesses_per_trial\": {:.1}}}{}",
            r.scheme,
            r.mode.label(),
            r.condition,
            r.m.bits_per_trial,
            r.m.bits_per_sec(),
            r.m.threshold,
            r.m.table[0],
            r.m.table[1],
            r.m.table[2],
            r.m.table[3],
            r.m.accesses_per_trial(),
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = write!(
        s,
        "    \"gate\": {{\"reference_bits_per_trial\": {:.6}, \
         \"vantage_pin_bits_per_trial\": {:.6}, \"ratio\": {:.6}, \
         \"max_ratio\": {MAX_LEAK_RATIO}, \"min_reference\": {MIN_REFERENCE_LEAK}, \
         \"pass\": {}}}",
        gate.reference, gate.pin, gate.ratio, gate.pass,
    );
    rec.finish()
}

/// The gate verdict recorded alongside the matrix.
struct GateOutcome {
    reference: f64,
    pin: f64,
    ratio: f64,
    pass: bool,
}

/// Evaluates the leak-rate gate: the unpartitioned channel must be a
/// real channel, and Vantage+`Pin` must carry at most
/// [`MAX_LEAK_RATIO`] of it.
fn evaluate_gate(rows: &[MatrixRow]) -> GateOutcome {
    let reference = cell(rows, "unpart", ShareMode::Adopt).map_or(0.0, |r| r.m.bits_per_trial);
    let pin = cell(rows, "vantage", ShareMode::Pin).map_or(f64::INFINITY, |r| r.m.bits_per_trial);
    let ratio = if reference > 0.0 {
        pin / reference
    } else {
        f64::INFINITY
    };
    let pass = reference >= MIN_REFERENCE_LEAK && ratio <= MAX_LEAK_RATIO;
    GateOutcome {
        reference,
        pin,
        ratio,
        pass,
    }
}

/// The `security` subcommand (see the [module docs](self)), writing
/// the record to `BENCH_security.json` in the current directory.
pub fn security(opts: &Options) {
    security_to(opts, Path::new("BENCH_security.json"));
}

/// [`security`] writing the record to an explicit path (test support).
pub fn security_to(opts: &Options, path: &Path) {
    println!(
        "security: prime+probe leak matrix ({} scale, {} trials/cell)",
        if opts.quick { "quick" } else { "full" },
        trials_for(opts),
    );
    let t0 = Instant::now();
    let rows = run_matrix(opts);
    let wall_s = t0.elapsed().as_secs_f64();
    let gate = evaluate_gate(&rows);
    eprintln!(
        "  gate: reference {:.4} bits/trial, vantage+pin {:.4} ({}{:.4}x, max {MAX_LEAK_RATIO}) — {}",
        gate.reference,
        gate.pin,
        if gate.ratio.is_finite() { "" } else { ">" },
        if gate.ratio.is_finite() { gate.ratio } else { 0.0 },
        if gate.pass { "pass" } else { "FAIL" },
    );
    if gate.reference < MIN_REFERENCE_LEAK {
        record_failure(
            "security reference channel",
            format!(
                "unpartitioned leak {:.4} bits/trial below the {MIN_REFERENCE_LEAK} \
                 meaningfulness floor — harness geometry is not exercising the channel",
                gate.reference
            ),
        );
    } else if !gate.pass {
        record_failure(
            "security leak gate",
            format!(
                "vantage+pin leaks {:.4} bits/trial vs reference {:.4} \
                 (ratio {:.4} > max {MAX_LEAK_RATIO})",
                gate.pin, gate.reference, gate.ratio
            ),
        );
    }
    write_csv(
        &opts.out_dir,
        "security_leak",
        "scheme,mode,condition,trials,secret_trials,threshold,n00,n01,n10,n11,\
         bits_per_trial,accesses_per_trial,bits_per_sec",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{:.6},{:.1},{:.3}",
                    r.scheme,
                    r.mode.label(),
                    r.condition,
                    r.m.trials,
                    r.m.secret_trials,
                    r.m.threshold,
                    r.m.table[0],
                    r.m.table[1],
                    r.m.table[2],
                    r.m.table[3],
                    r.m.bits_per_trial,
                    r.m.accesses_per_trial(),
                    r.m.bits_per_sec(),
                )
            })
            .collect::<Vec<_>>(),
    );
    let entry = render_entry(opts, &rows, &gate, wall_s);
    match append_entry(path, &entry) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => record_failure(path.display().to_string(), e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(seed: u64) -> PrimeProbe {
        probe_geometry(seed)
    }

    #[test]
    fn unpartitioned_reference_leaks() {
        let mut llc = build_unpartitioned(11);
        let m = measure_channel(&mut llc, &pp(11), 48, no_perturb);
        assert!(
            m.bits_per_trial >= MIN_REFERENCE_LEAK,
            "occupancy channel must be real: {} bits/trial",
            m.bits_per_trial
        );
    }

    #[test]
    fn vantage_pin_closes_the_channel() {
        let mut llc = build_vantage(11, ShareMode::Pin, false);
        let m = measure_channel(&mut llc, &pp(11), 48, no_perturb);
        assert!(
            m.bits_per_trial <= 0.02,
            "pin must block both channels: {} bits/trial",
            m.bits_per_trial
        );
    }

    #[test]
    fn vantage_adopt_keeps_the_ownership_channel_open() {
        let mut llc = build_vantage(11, ShareMode::Adopt, false);
        let m = measure_channel(&mut llc, &pp(11), 48, no_perturb);
        let mut pinned = build_vantage(11, ShareMode::Pin, false);
        let p = measure_channel(&mut pinned, &pp(11), 48, no_perturb);
        assert!(
            m.bits_per_trial > p.bits_per_trial + 0.1,
            "adopt ({}) should leak well above pin ({})",
            m.bits_per_trial,
            p.bits_per_trial
        );
    }

    #[test]
    fn churn_perturbation_runs_cleanly_on_vantage() {
        let mut llc = build_vantage(11, ShareMode::Replicate, false);
        let m = measure_channel(&mut llc, &pp(11), 8, churn_perturb);
        assert_eq!(m.trials, 8);
        assert!(m.accesses > 8 * 512, "churn traffic was issued");
    }

    #[test]
    fn best_threshold_finds_the_separating_cut() {
        let samples: Vec<(bool, u64)> = (0..40)
            .map(|i| (i % 2 == 1, if i % 2 == 1 { 200 } else { 3 }))
            .collect();
        let (thr, table, bits) = best_threshold(&samples);
        assert!((3..200).contains(&thr));
        assert_eq!(table, [20, 0, 0, 20]);
        assert!((bits - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_deterministic() {
        let mut a = build_vantage(5, ShareMode::Adopt, false);
        let mut b = build_vantage(5, ShareMode::Adopt, false);
        let ma = measure_channel(&mut a, &pp(5), 12, no_perturb);
        let mb = measure_channel(&mut b, &pp(5), 12, no_perturb);
        assert_eq!(ma.digest(), mb.digest());
    }
}
