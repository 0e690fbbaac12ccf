//! Shared experiment infrastructure: options, CSV output, the
//! multi-scheme comparison runner and summary statistics.
//!
//! # Failure handling
//!
//! Experiment runs are *keep-going*: a mix that panics inside the simulator
//! or a CSV file that cannot be written is recorded in a process-wide
//! failure registry (see [`record_failure`]/[`take_failures`]) instead of
//! aborting the run. The `vantage-experiments` binary drains the registry
//! after the last command, prints a failure summary, and only then exits
//! nonzero — so one bad mix cannot take down an `all` sweep.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vantage_cache::ShareMode;
use vantage_sim::{CmpSim, PolicyKind, SchemeKind, SimResult, SystemConfig};
use vantage_telemetry::{JsonSink, Telemetry};
use vantage_workloads::Mix;

/// A malformed command line: carries the message shown above the usage
/// block (typed, so argument errors never panic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The options accepted by every experiment command.
pub const USAGE: &str = "options:
  --mixes N    mixes generated per workload class (default 1; paper 10)
  --instr N    per-core instruction quota override
  --out DIR    output directory for CSV artifacts (default results/)
  --seed N     master seed (default 42)
  --jobs N     worker threads for mix-level parallelism
  --banks N    shard each simulated LLC across N address-interleaved banks,
               each with its own controller and a share of every
               partition's target; each request is served by its bank
  --quick      drastically reduced scale for smoke runs
  --policy P   allocation policy driving partition targets on UCP-managed
               schemes: ucp (default), equal, missratio, qos, clustered
  --share-mode M  how the LLC resolves cross-partition sharing: adopt
                  (default; re-tag to the accessor), replicate (duplicate
                  shared lines per partition), or pin (lines keep their
                  first owner)
  --telemetry P  record per-partition dynamics traces as JSON Lines; P is a
                 base path and each simulated cache writes to a tagged
                 sibling of P
  --checkpoint PATH  (run) periodically auto-checkpoint simulation state to
                     PATH, atomically
  --resume PATH      (run) restore simulation state from PATH before running
  --fork-sweep       (run) fork one warmed state into every --policy variant
  --stop-after N     (run) pause at the first chunk boundary at or past step
                     N, checkpoint, and exit";

/// Command-line options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Options {
    /// Mixes generated per workload class (paper: 10).
    pub mixes_per_class: usize,
    /// Instruction quota per core (paper: 200M; scaled default).
    pub instructions: Option<u64>,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Quick mode: drastically reduced scale for smoke runs.
    pub quick: bool,
    /// Worker threads for mix-level parallelism (default: available cores).
    pub jobs: usize,
    /// Banks each simulated LLC is sharded across (default 1 = unbanked).
    pub banks: usize,
    /// Allocation policy driving partition targets on UCP-managed schemes.
    pub policy: PolicyKind,
    /// How the LLC resolves cross-partition sharing (the ownership layer's
    /// knob; see [`ShareMode`]).
    pub share_mode: ShareMode,
    /// Base path for JSON Lines telemetry traces (`None` = telemetry off).
    /// Each simulated cache writes to a sibling of this path tagged with the
    /// mix and scheme.
    pub telemetry: Option<PathBuf>,
    /// `run`: auto-checkpoint simulation state here at epoch boundaries.
    pub checkpoint: Option<PathBuf>,
    /// `run`: restore simulation state from this checkpoint before running.
    pub resume: Option<PathBuf>,
    /// `run`: fork one warmed state into every allocation-policy variant.
    pub fork_sweep: bool,
    /// `run`: pause at the first epoch boundary at or past this step count.
    pub stop_after: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            mixes_per_class: 1,
            instructions: None,
            out_dir: PathBuf::from("results"),
            seed: 42,
            quick: false,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            banks: 1,
            policy: PolicyKind::default(),
            share_mode: ShareMode::default(),
            telemetry: None,
            checkpoint: None,
            resume: None,
            fork_sweep: false,
            stop_after: None,
        }
    }
}

impl Options {
    /// Parses `--mixes N --instr N --out DIR --seed N --quick` style
    /// arguments. A typo'd flag or a malformed value yields a typed
    /// [`UsageError`] (never a panic) so the CLI can print a clean usage
    /// message and exit with status 2.
    pub fn try_parse(args: &[String]) -> Result<Self, UsageError> {
        let mut o = Self::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| UsageError(format!("missing value after {a}")))
            };
            fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, UsageError> {
                v.parse()
                    .map_err(|_| UsageError(format!("{flag} expects a number, got '{v}'")))
            }
            match a.as_str() {
                "--mixes" => o.mixes_per_class = num(a, take()?)?,
                "--instr" => o.instructions = Some(num(a, take()?)?),
                "--out" => o.out_dir = PathBuf::from(take()?),
                "--seed" => o.seed = num(a, take()?)?,
                "--jobs" => o.jobs = num::<usize>(a, take()?)?.max(1),
                "--banks" => o.banks = num::<usize>(a, take()?)?.max(1),
                "--quick" => o.quick = true,
                "--policy" => {
                    let v = take()?;
                    o.policy = PolicyKind::parse(&v).ok_or_else(|| {
                        UsageError(format!(
                            "--policy expects ucp, equal, missratio, qos or clustered, got '{v}'"
                        ))
                    })?;
                }
                "--share-mode" => {
                    let v = take()?;
                    o.share_mode = ShareMode::parse(&v).ok_or_else(|| {
                        UsageError(format!(
                            "--share-mode expects adopt, replicate or pin, got '{v}'"
                        ))
                    })?;
                }
                "--telemetry" => o.telemetry = Some(PathBuf::from(take()?)),
                "--checkpoint" => o.checkpoint = Some(PathBuf::from(take()?)),
                "--resume" => o.resume = Some(PathBuf::from(take()?)),
                "--fork-sweep" => o.fork_sweep = true,
                "--stop-after" => o.stop_after = Some(num(a, take()?)?),
                other => return Err(UsageError(format!("unknown option: {other}"))),
            }
        }
        Ok(o)
    }

    /// Applies the machine-shape flags (`--banks`, `--policy`,
    /// `--share-mode`) to a base machine and returns it; every experiment
    /// builds its [`SystemConfig`] through this so they reach all commands
    /// uniformly.
    pub fn machine(&self, mut sys: SystemConfig) -> SystemConfig {
        sys.banks = self.banks;
        sys.policy = self.policy;
        sys.share_mode = self.share_mode;
        sys
    }

    /// The per-core instruction quota for a machine, honoring overrides and
    /// quick mode.
    pub fn instructions_for(&self, sys: &SystemConfig) -> u64 {
        if let Some(i) = self.instructions {
            return i;
        }
        if self.quick {
            sys.instructions / 20
        } else {
            sys.instructions
        }
    }
}

/// One recorded failure from a keep-going run: which unit failed and why.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// What failed (a mix name or an artifact path).
    pub what: String,
    /// The panic message or I/O error.
    pub why: String,
}

static FAILURES: Mutex<Vec<RunFailure>> = Mutex::new(Vec::new());

/// Records a failure in the process-wide registry (keep-going semantics).
pub fn record_failure(what: impl Into<String>, why: impl Into<String>) {
    let f = RunFailure {
        what: what.into(),
        why: why.into(),
    };
    eprintln!("  FAILED {}: {}", f.what, f.why);
    // The mutex is only poisoned if a panic escapes this module while the
    // lock is held, which the two-line critical section cannot do.
    match FAILURES.lock() {
        Ok(mut v) => v.push(f),
        Err(poisoned) => poisoned.into_inner().push(f),
    }
}

/// Drains every failure recorded so far (the CLI calls this once, at the
/// very end, to print the summary and pick the exit status).
pub fn take_failures() -> Vec<RunFailure> {
    match FAILURES.lock() {
        Ok(mut v) => std::mem::take(&mut *v),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Writes CSV rows (first row = header) to `<out_dir>/<name>.csv`,
/// atomically: content goes to `<name>.csv.tmp` first and is renamed into
/// place only once fully flushed, so an interrupted run never leaves a
/// truncated artifact behind.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn try_write_csv(
    dir: &Path,
    name: &str,
    header: &str,
    rows: &[String],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let tmp = dir.join(format!("{name}.csv.tmp"));
    let mut f = fs::File::create(&tmp)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// [`try_write_csv`] with keep-going error handling: an I/O failure is
/// recorded in the failure registry and `None` is returned, so figure code
/// keeps producing its remaining artifacts.
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> Option<PathBuf> {
    match try_write_csv(dir, name, header, rows) {
        Ok(path) => {
            println!("  wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            record_failure(
                dir.join(format!("{name}.csv")).display().to_string(),
                e.to_string(),
            );
            None
        }
    }
}

/// Reduces a scheme/mix label to a filesystem-safe tag fragment.
pub fn slugify(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Derives the trace path for one simulated cache from the `--telemetry`
/// base path: `out.json` + tag `fig8_vantage` -> `out_fig8_vantage.json`.
pub fn telemetry_trace_path(base: &Path, tag: &str) -> PathBuf {
    let stem = base
        .file_stem()
        .map_or_else(|| "telemetry".to_string(), |s| s.to_string_lossy().into());
    let ext = base
        .extension()
        .map_or_else(|| "json".to_string(), |e| e.to_string_lossy().into());
    base.with_file_name(format!("{stem}_{tag}.{ext}"))
}

/// Opens a JSON Lines telemetry producer writing to the tagged sibling of
/// `base` (see [`telemetry_trace_path`]). An unopenable path is recorded
/// in the failure registry and yields `None` (keep-going).
pub fn open_telemetry(base: &Path, tag: &str) -> Option<Telemetry> {
    let path = telemetry_trace_path(base, &slugify(tag));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = fs::create_dir_all(dir) {
            record_failure(path.display().to_string(), e.to_string());
            return None;
        }
    }
    match JsonSink::create(&path) {
        Ok(sink) => {
            println!("  telemetry -> {}", path.display());
            Some(Telemetry::new(Box::new(sink), 0))
        }
        Err(e) => {
            record_failure(path.display().to_string(), e.to_string());
            None
        }
    }
}

/// Installs a per-cache telemetry trace on `sim` when a base path is set.
/// The tag carries the sim's full label (scheme plus any `+policy` suffix)
/// so traces from different allocation policies never collide.
pub(crate) fn install_telemetry(sim: &mut CmpSim, base: Option<&Path>, mix: &Mix) {
    let Some(base) = base else { return };
    let tag = format!("{}_{}", mix.name, sim.label());
    if let Some(t) = open_telemetry(base, &tag) {
        sim.set_telemetry(t);
    }
}

/// Retires a sim's telemetry producer: flush, then surface any absorbed
/// I/O error in the failure registry — a trace that lost data must not
/// pass silently.
pub(crate) fn retire_telemetry(sim: &mut CmpSim, mix: &Mix) {
    if let Some(mut t) = sim.take_telemetry() {
        t.flush();
        if let Some(e) = t.io_error() {
            record_failure(format!("telemetry for {} ({})", mix.name, sim.label()), e);
        }
    }
}

/// Result of running one mix under a baseline and several schemes.
#[derive(Clone, Debug)]
pub struct MixOutcome {
    /// The mix's name (e.g. `ffnn3`).
    pub mix: String,
    /// Baseline aggregate throughput.
    pub base_throughput: f64,
    /// Per scheme (same order as the scheme list): absolute throughput.
    pub throughput: Vec<f64>,
    /// Per scheme: managed-eviction fraction where applicable.
    pub managed_fraction: Vec<Option<f64>>,
}

impl MixOutcome {
    /// Normalized throughput of scheme `s` versus the baseline.
    pub fn normalized(&self, s: usize) -> f64 {
        self.throughput[s] / self.base_throughput
    }
}

/// Runs one mix under the baseline and each scheme.
fn run_one(
    sys: &SystemConfig,
    baseline: &SchemeKind,
    schemes: &[SchemeKind],
    mix: &Mix,
    telemetry: Option<&Path>,
) -> MixOutcome {
    let mut base_sim = CmpSim::new(sys.clone(), baseline, mix);
    install_telemetry(&mut base_sim, telemetry, mix);
    let base = base_sim.run();
    retire_telemetry(&mut base_sim, mix);
    let mut tp = Vec::with_capacity(schemes.len());
    let mut mf = Vec::with_capacity(schemes.len());
    for kind in schemes {
        let mut sim = CmpSim::new(sys.clone(), kind, mix);
        install_telemetry(&mut sim, telemetry, mix);
        let r: SimResult = sim.run();
        retire_telemetry(&mut sim, mix);
        tp.push(r.throughput);
        mf.push(r.managed_eviction_fraction);
    }
    MixOutcome {
        mix: mix.name.clone(),
        base_throughput: base.throughput,
        throughput: tp,
        managed_fraction: mf,
    }
}

/// Renders a panic payload as a printable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// [`run_one`] with the panic isolated: a mix whose simulation panics
/// becomes an `Err` carrying the panic message instead of unwinding into
/// the worker pool.
fn run_one_isolated(
    sys: &SystemConfig,
    baseline: &SchemeKind,
    schemes: &[SchemeKind],
    mix: &Mix,
    telemetry: Option<&Path>,
) -> Result<MixOutcome, RunFailure> {
    catch_unwind(AssertUnwindSafe(|| {
        run_one(sys, baseline, schemes, mix, telemetry)
    }))
    .map_err(|p| RunFailure {
        what: mix.name.clone(),
        why: panic_message(p.as_ref()),
    })
}

/// Runs every mix under the baseline and each scheme. Mixes are processed
/// in parallel across `jobs` workers (simulations are independent and
/// internally deterministic, so results do not depend on scheduling);
/// output order matches the input order.
///
/// A mix whose simulation panics is caught, recorded in the failure
/// registry and dropped from the output — one poisoned mix no longer kills
/// a whole sweep (`--keep-going` semantics; the CLI exits nonzero at the
/// very end if anything failed).
///
/// On SIGINT/SIGTERM (see [`crate::signal`]) no new mixes are started:
/// in-flight simulations finish, their outcomes are kept, and the partial
/// result set flows into whatever CSV artifacts the caller writes.
pub fn run_comparison_jobs(
    sys: &SystemConfig,
    baseline: &SchemeKind,
    schemes: &[SchemeKind],
    mixes: &[Mix],
    progress: bool,
    jobs: usize,
    telemetry: Option<&Path>,
) -> Vec<MixOutcome> {
    let jobs = jobs.max(1).min(mixes.len().max(1));
    let results: Vec<Result<MixOutcome, RunFailure>> = if jobs <= 1 {
        let mut v = Vec::with_capacity(mixes.len());
        for (i, mix) in mixes.iter().enumerate() {
            if let Some(signo) = crate::signal::pending() {
                eprintln!(
                    "  signal {signo}: stopping sweep after {i}/{} mixes",
                    mixes.len()
                );
                break;
            }
            if progress && (i % 10 == 0 || i + 1 == mixes.len()) {
                eprintln!("  [{}/{}] {}", i + 1, mixes.len(), mix.name);
            }
            v.push(run_one_isolated(sys, baseline, schemes, mix, telemetry));
        }
        v
    } else {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<MixOutcome, RunFailure>>>> =
            (0..mixes.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    if crate::signal::pending().is_some() {
                        // Wind down: in-flight mixes (other workers)
                        // finish, no new ones start.
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= mixes.len() {
                        break;
                    }
                    let outcome = run_one_isolated(sys, baseline, schemes, &mixes[i], telemetry);
                    // Workers cannot poison the slot: the fallible part ran
                    // under catch_unwind above.
                    match slots[i].lock() {
                        Ok(mut s) => *s = Some(outcome),
                        Err(poisoned) => *poisoned.into_inner() = Some(outcome),
                    }
                    let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if progress && (d.is_multiple_of(10) || d == mixes.len()) {
                        eprintln!("  [{d}/{}]", mixes.len());
                    }
                });
            }
        });
        if let Some(signo) = crate::signal::pending() {
            eprintln!("  signal {signo}: sweep stopped early; keeping finished mixes");
        }
        // Slots left `None` belong to mixes never started (signal wind-down).
        slots
            .into_iter()
            .filter_map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    };
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(o) => out.push(o),
            Err(f) => record_failure(format!("mix {}", f.what), f.why),
        }
    }
    out
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut logsum, mut n) = (0.0, 0u64);
    for v in values {
        logsum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (logsum / n as f64).exp()
    }
}

/// Per-scheme summary over a comparison (the numbers the paper's prose
/// quotes for Figs. 6a and 7).
#[derive(Clone, Debug)]
pub struct SchemeSummary {
    /// Scheme label.
    pub label: String,
    /// Geometric-mean normalized throughput.
    pub geomean: f64,
    /// Fraction of workloads with normalized throughput > 1.
    pub improved: f64,
    /// Best normalized throughput.
    pub best: f64,
    /// Worst normalized throughput.
    pub worst: f64,
}

/// Summarizes one scheme column of a comparison.
pub fn summarize(label: &str, outcomes: &[MixOutcome], s: usize) -> SchemeSummary {
    let norm: Vec<f64> = outcomes.iter().map(|o| o.normalized(s)).collect();
    SchemeSummary {
        label: label.to_string(),
        geomean: geomean(norm.iter().copied()),
        improved: norm.iter().filter(|&&x| x > 1.0).count() as f64 / norm.len().max(1) as f64,
        best: norm.iter().copied().fold(f64::MIN, f64::max),
        worst: norm.iter().copied().fold(f64::MAX, f64::min),
    }
}

/// Prints the standard summary block for a set of scheme summaries.
pub fn print_summaries(title: &str, summaries: &[SchemeSummary]) {
    println!("\n{title}");
    println!(
        "  {:<24} {:>9} {:>10} {:>8} {:>8}",
        "scheme", "geomean", "%improved", "best", "worst"
    );
    for s in summaries {
        println!(
            "  {:<24} {:>8.3}x {:>9.1}% {:>7.3}x {:>7.3}x",
            s.label,
            s.geomean,
            s.improved * 100.0,
            s.best,
            s.worst
        );
    }
}

/// Emits the sorted normalized-throughput curves (what Fig. 6a / Fig. 7
/// plot) as CSV rows: `rank,<scheme1>,<scheme2>,...` with each scheme's
/// column independently sorted ascending, as in the paper.
pub fn sorted_curves_csv(outcomes: &[MixOutcome], schemes: &[String]) -> (String, Vec<String>) {
    let mut columns: Vec<Vec<f64>> = (0..schemes.len())
        .map(|s| {
            let mut v: Vec<f64> = outcomes.iter().map(|o| o.normalized(s)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v
        })
        .collect();
    let header = format!("rank,{}", schemes.join(","));
    let rows = (0..outcomes.len())
        .map(|i| {
            let vals: Vec<String> = columns.iter_mut().map(|c| format!("{:.5}", c[i])).collect();
            format!("{},{}", i, vals.join(","))
        })
        .collect();
    (header, rows)
}

/// Renders a compact textual histogram of normalized values (a terminal
/// stand-in for the paper's curves).
pub fn ascii_distribution(label: &str, values: &[f64]) {
    if values.is_empty() {
        return;
    }
    let buckets = [
        (0.0, 0.9, "<0.90"),
        (0.9, 0.97, "0.90-0.97"),
        (0.97, 1.0, "0.97-1.00"),
        (1.0, 1.03, "1.00-1.03"),
        (1.03, 1.10, "1.03-1.10"),
        (1.10, f64::INFINITY, ">1.10"),
    ];
    print!("  {label:<24}");
    for (lo, hi, name) in buckets {
        let n = values.iter().filter(|&&v| v >= lo && v < hi).count();
        let pct = 100.0 * n as f64 / values.len() as f64;
        print!(" {name}:{pct:>4.0}%");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn options_parse_roundtrip() {
        let args: Vec<String> = [
            "--mixes",
            "3",
            "--instr",
            "500000",
            "--seed",
            "9",
            "--quick",
            "--policy",
            "missratio",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Options::try_parse(&args).expect("valid options");
        assert_eq!(o.mixes_per_class, 3);
        assert_eq!(o.instructions, Some(500_000));
        assert_eq!(o.seed, 9);
        assert!(o.quick);
        assert_eq!(o.policy, PolicyKind::MissRatio);
    }

    #[test]
    fn policy_flag_reaches_the_machine() {
        let o = Options::try_parse(&["--policy".to_string(), "qos".to_string()])
            .expect("valid options");
        let sys = o.machine(SystemConfig::small_scale());
        assert_eq!(sys.policy, PolicyKind::Qos);
        let err = Options::try_parse(&["--policy".to_string(), "bogus".to_string()])
            .expect_err("bad policy rejected");
        assert!(err.0.contains("--policy"));
    }

    #[test]
    #[should_panic(expected = "unknown option")]
    fn unknown_option_rejected() {
        Options::try_parse(&["--bogus".to_string()]).unwrap();
    }

    #[test]
    fn summaries_and_curves() {
        let outcomes = vec![
            MixOutcome {
                mix: "a".into(),
                base_throughput: 1.0,
                throughput: vec![1.1, 0.9],
                managed_fraction: vec![None, None],
            },
            MixOutcome {
                mix: "b".into(),
                base_throughput: 2.0,
                throughput: vec![2.4, 1.8],
                managed_fraction: vec![None, None],
            },
        ];
        let s = summarize("x", &outcomes, 0);
        assert!((s.geomean - (1.1f64 * 1.2).sqrt()).abs() < 1e-9);
        assert_eq!(s.improved, 1.0);
        let (header, rows) = sorted_curves_csv(&outcomes, &["x".into(), "y".into()]);
        assert_eq!(header, "rank,x,y");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("0,1.10000,0.90000"));
    }
}
