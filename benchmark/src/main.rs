//! The repo benchmark. `benchmark/run.sh` builds and runs this; see
//! `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! vantage-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object — `correct`,
//! `attempted`, `failed`, `metrics` — holding every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`). A table for people
//! goes to standard error. The exit code is 0 only when every check held.

mod cal;
mod gen;
mod harness;
mod mem;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use cal::{Cal, CAL_VERSION};
use harness::{run, RunLog, Workload};
use report::{result_line, table, Metrics, END_TO_END, PER_LAYER};
use stats::{median, percentile, tail_percentile};
use workloads::bank8::Bank8;
use workloads::churn::Churn;
use workloads::cmp4::Cmp4;
use workloads::llc::{Hit, LlcWorkload, Miss, SharedPin};

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 6] = [
    Cmp4::NAME,
    LlcWorkload::<Miss>::NAME,
    LlcWorkload::<Hit>::NAME,
    LlcWorkload::<SharedPin>::NAME,
    Bank8::NAME,
    Churn::NAME,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: vantage-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--scale <f>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 6.0,
        trace: false,
    };
    let mut scale = 1.0;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--scale" => scale = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.seconds *= scale;
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds (times --scale) must be in (0, 600]".into());
    }
    Ok(args)
}

fn run_workload(args: &Args, cal: &mut Cal) -> RunLog {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        Cmp4::NAME => run::<Cmp4>(seed, seconds, trace, cal),
        LlcWorkload::<Miss>::NAME => run::<LlcWorkload<Miss>>(seed, seconds, trace, cal),
        LlcWorkload::<Hit>::NAME => run::<LlcWorkload<Hit>>(seed, seconds, trace, cal),
        LlcWorkload::<SharedPin>::NAME => run::<LlcWorkload<SharedPin>>(seed, seconds, trace, cal),
        Bank8::NAME => run::<Bank8>(seed, seconds, trace, cal),
        Churn::NAME => run::<Churn>(seed, seconds, trace, cal),
        other => unreachable!("parse_args admitted {other}"),
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn end_to_end(log: &RunLog) -> Metrics {
    let sim = &log.sim;
    let mut mx = Metrics::default();
    mx.set("setup_s", median(&log.setup_s));
    mx.set("speed_cal", log.speed_cal());
    mx.set("heap_mb", log.heap_mib());
    mx.set("llc_hit_pct", pct(sim.hits, sim.requests));
    let v = &sim.vantage;
    let evictions = v.unmanaged_evictions + v.forced_managed_evictions;
    // With no evictions at all nothing violated isolation.
    mx.set(
        "isolation_pct",
        if evictions == 0 {
            100.0
        } else {
            pct(v.unmanaged_evictions, evictions)
        },
    );
    mx
}

/// The per-layer metrics the run itself yields (the probes add the rest).
fn run_layer_metrics(log: &RunLog, mx: &mut Metrics) {
    let sim = &log.sim;
    let v = &sim.vantage;
    let per_kacc = |x: u64| x as f64 * 1e3 / sim.requests.max(1) as f64;
    mx.set("core.demotions_per_kacc", per_kacc(v.demotions));
    mx.set("core.promotions_per_kacc", per_kacc(v.promotions));
    mx.set(
        "core.setpoint_adj_per_kacc",
        per_kacc(v.setpoint_adjustments),
    );
    mx.set("core.throttled_per_kacc", per_kacc(v.throttled_insertions));
    let evictions = v.unmanaged_evictions + v.forced_managed_evictions;
    mx.set(
        "core.managed_evict_pct",
        pct(v.forced_managed_evictions, evictions),
    );
    mx.set("core.size_overshoot_pct", sim.size_overshoot_pct);
    mx.set("ucp.epochs", sim.epochs as f64);

    // The sim's own numbers; all zero when the workload simulates no cores.
    mx.set("sim.ipc_sum", sim.ipc_sum);
    let kinstr = sim.sim_instructions as f64 / 1e3;
    let per_kinstr = |x: u64| if kinstr > 0.0 { x as f64 / kinstr } else { 0.0 };
    mx.set("sim.steps_per_kinstr", per_kinstr(sim.sim_steps));
    mx.set("sim.l2_acc_per_kinstr", per_kinstr(sim.sim_l2_accesses));
    let run_for: Vec<f64> = log
        .tracer
        .spans
        .iter()
        .filter(|s| s.layer == "sim" && s.name == "run_for")
        .map(|s| s.secs() * 1e6 * log.cal_around(s.slice as usize) / cal::CAL_REF_OPS_PER_S)
        .collect();
    mx.set("sim.run_for_us_p50", median(&run_for));
    let tail = tail_percentile(run_for.len()).unwrap_or(50);
    mx.set("sim.run_for_us_tail", percentile(&run_for, tail));

    mx.set("cal.ops_per_s", log.cal_median());
    mx.set("cal.cv_pct", log.cal_cv_pct());
    mx.set("run.wall_s", log.wall_s);
    mx.set("run.speed_raw", log.units() / log.busy_s().max(1e-12));
    mx.set("run.speed_cal", log.speed_cal());
    let (p50, tail, tail_pct) = log.call_us();
    mx.set("run.call_us_p50", p50);
    mx.set("run.call_us_tail", tail);
    mx.set("run.call_tail_pct", f64::from(tail_pct));
    mx.set("run.slices", log.slices.len() as f64);
    mx.set("run.trace_overhead_pct", log.trace_overhead_pct());
    mx.set(
        "run.failed_share",
        log.failed_ops() as f64 / log.ops().max(1) as f64,
    );
    mx.set("run.llc_hit_pct", pct(sim.hits, sim.requests));
    // The low 48 bits: every one of them survives the trip through an f64.
    mx.set("run.sim_digest48", (sim.digest & ((1 << 48) - 1)) as f64);
}

fn trace_path(workload: &str) -> PathBuf {
    // Beside the sources when run from a checkout root (`benchmark/out/`),
    // which is where run.sh runs it from.
    PathBuf::from(format!("benchmark/out/trace-{workload}.jsonl"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // A panic anywhere in the system under test fails every op of the run.
    let outcome = std::panic::catch_unwind(|| {
        let mut cal = Cal::new();
        let log = run_workload(&args, &mut cal);
        let mx = if args.trace {
            let mut mx = Metrics::default();
            run_layer_metrics(&log, &mut mx);
            let input = log
                .probe_input
                .as_ref()
                .expect("a traced run keeps its probe input");
            probes::run_all(&mut cal, input, args.seed, &mut mx);
            mx
        } else {
            end_to_end(&log)
        };
        (log, mx)
    });
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let Ok((log, mx)) = outcome else {
        eprintln!(
            "{}: the run panicked; every op counts as failed",
            args.workload
        );
        println!("{}", result_line(false, 1, 1, defs, &Metrics::default()));
        return ExitCode::FAILURE;
    };

    let mut failures = log.failures();
    for name in mx.missing(defs) {
        failures.push(format!("metric {name} is missing or not finite"));
    }
    if args.trace {
        let path = trace_path(&args.workload);
        match log.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("{} spans -> {}", log.tracer.spans.len(), path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
    }
    let attempted = log.ops().max(1);
    let failed = if failures.is_empty() {
        0
    } else {
        log.failed_ops().max(1)
    };
    let correct = failures.is_empty();

    let title = format!(
        "{} seed {} seconds {} trace {} | cal v{CAL_VERSION} {:.0} ops/s cv {:.1}% | \
         sim_digest {:016x} | attempted {attempted} failed {failed}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        log.cal_median(),
        log.cal_cv_pct(),
        log.sim.digest,
    );
    eprint!("{}", table(&title, defs, &mx));
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", result_line(correct, attempted, failed, defs, &mx));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload llc_hit_z52 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("llc_hit_z52", 7, 10.0, true)
        );
        let a = parse_args(&argv("--workload cmp4_ucp --scale 0.5")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 3.0, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload cmp4_ucp --trace 2",
            "--workload cmp4_ucp --seed x",
            "--workload cmp4_ucp --seconds 0",
            "--workload cmp4_ucp --seconds",
            "--workload cmp4_ucp --frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    /// The settings under `[profile.release]` in a manifest, comments and
    /// blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let read = |p: String| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let ours = release_profile(&read(format!("{dir}/Cargo.toml")));
        let root = release_profile(&read(format!("{dir}/../Cargo.toml")));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(
            ours, root,
            "benchmark/Cargo.toml must build the code as the repo ships it"
        );
    }
}
