//! The `run` subcommand: one managed simulation with crash-safe
//! checkpointing, resume, and deterministic fork-sweeps.
//!
//! ```text
//! vantage-experiments run [--checkpoint PATH] [--resume PATH] [--fork-sweep]
//!                         [--stop-after N] [--policy P] [usual options]
//! ```
//!
//! * `--checkpoint PATH` — auto-checkpoint to `PATH` periodically
//!   (atomically: temp + fsync + rename), so a killed run resumes from
//!   near where it died.
//! * `--resume PATH` — restore simulation state from `PATH` before running.
//!   The machine flags must match the checkpointed run; `--policy` may
//!   differ, in which case the run hot-swaps the allocation policy through
//!   the guarded [`CmpSim::reconfigure`] path after restoring.
//! * `--fork-sweep` — warm once (or restore `--resume`), then fork the
//!   warmed state into every allocation policy and run each variant to
//!   completion from the identical warmed cache.
//! * `--stop-after N` — pause at the first chunk boundary at or past `N`
//!   simulation steps, write the checkpoint, and exit; the CI smoke uses
//!   this for deterministic mid-run checkpoints.
//!
//! On SIGINT/SIGTERM the in-flight epoch finishes, a final checkpoint and
//! the partial CSV are written, and the process exits `128 + signo`.

use std::path::Path;

use vantage_sim::{CmpSim, PolicyKind, Reconfig, SchemeKind, SimResult, SystemConfig};
use vantage_snapshot::SnapshotReader;
use vantage_workloads::{mixes, Mix};

use crate::common::{install_telemetry, record_failure, write_csv, Options};
use crate::signal;

const RUN_COLUMNS: &str =
    "mix,scheme,policy,steps,throughput,l2_accesses,l2_misses,recoveries,rollbacks";

fn csv_row(mix: &str, label: &str, policy: PolicyKind, steps: u64, r: &SimResult) -> String {
    format!(
        "{mix},{label},{},{steps},{:.17e},{},{},{},{}",
        policy.label(),
        r.throughput,
        r.l2_accesses.iter().sum::<u64>(),
        r.l2_misses.iter().sum::<u64>(),
        r.invariant_recoveries,
        r.reconfig_rollbacks,
    )
}

/// Restores `sim` from the checkpoint file at `path`, then hot-swaps the
/// allocation policy to `want` if the checkpoint carried a different one.
/// Failures are recorded (keep-going) and reported as `false`.
fn resume_into(sim: &mut CmpSim, path: &Path, want: PolicyKind) -> bool {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            record_failure(path.display().to_string(), e.to_string());
            return false;
        }
    };
    let reader = match SnapshotReader::from_bytes(&bytes) {
        Ok(r) => r,
        Err(e) => {
            record_failure(path.display().to_string(), e.to_string());
            return false;
        }
    };
    if let Err(e) = sim.restore_checkpoint(&reader) {
        record_failure(path.display().to_string(), e.to_string());
        return false;
    }
    println!("  resumed from {} at step {}", path.display(), sim.steps());
    if sim
        .epoch()
        .active_policy()
        .is_some_and(|a| a.kind() != want)
    {
        if let Err(e) = sim.reconfigure(&Reconfig::Policy(want)) {
            record_failure(path.display().to_string(), format!("policy swap: {e}"));
            return false;
        }
        println!("  hot-swapped allocation policy to {}", want.label());
    }
    true
}

/// Saves a checkpoint, recording (not propagating) failures.
fn save(sim: &CmpSim, path: &Path) {
    if let Err(e) = sim.save_checkpoint(path) {
        record_failure(path.display().to_string(), e.to_string());
    }
}

/// The machine and workload for the `run` subcommand.
fn setup(opts: &Options) -> (SystemConfig, SchemeKind, Mix) {
    let mut sys = opts.machine(SystemConfig::small_scale());
    sys.instructions = opts.instructions_for(&sys);
    let kind = SchemeKind::vantage_paper();
    let mix = mixes(sys.cores, 1, opts.seed).swap_remove(0);
    (sys, kind, mix)
}

/// The `run` subcommand (see the module docs).
pub fn run(opts: &Options) {
    if opts.fork_sweep {
        fork_sweep(opts);
        return;
    }
    let (sys, kind, mix) = setup(opts);
    println!(
        "run: {} on {} ({} policy)",
        mix.name,
        kind.label(),
        opts.policy.label()
    );
    let mut sim = CmpSim::new(sys.clone(), &kind, &mix);
    install_telemetry(&mut sim, opts.telemetry.as_deref(), &mix);
    if let Some(from) = &opts.resume {
        if !resume_into(&mut sim, from, opts.policy) {
            return;
        }
    }

    // The run proceeds in fixed step chunks; signals and `--stop-after`
    // are honored between chunks, and `--checkpoint` saves after each one
    // (every boundary is an exact resume point, so cadence is about
    // recency, not safety). A signal does not stop the run immediately:
    // it arms the next repartitioning boundary, so the in-flight epoch
    // finishes before the final checkpoint is cut.
    let chunk = 16_384;
    let mut armed_boundary: Option<u64> = None;
    let result = loop {
        let r = match sim.try_run_for(chunk) {
            Ok(r) => r,
            Err(e) => {
                record_failure(format!("mix {}", mix.name), e.to_string());
                return;
            }
        };
        if let Some(result) = r {
            break Some(result);
        }
        if let Some(path) = &opts.checkpoint {
            save(&sim, path);
        }
        if let (None, Some(signo)) = (armed_boundary, signal::pending()) {
            println!("  signal {signo}: finishing the in-flight epoch");
            armed_boundary = Some(sim.epoch().next_at());
        }
        if armed_boundary.is_some_and(|b| sim.epoch().next_at() > b) {
            println!("  epoch finished; stopping at step {}", sim.steps());
            break None;
        }
        if opts.stop_after.is_some_and(|n| sim.steps() >= n) {
            println!("  --stop-after: pausing at step {}", sim.steps());
            break None;
        }
    };
    if let Some(path) = &opts.checkpoint {
        save(&sim, path);
        println!("  checkpoint -> {}", path.display());
    }
    crate::common::retire_telemetry(&mut sim, &mix);
    match result {
        Some(r) => {
            let row = csv_row(&mix.name, &r.label, opts.policy, sim.steps(), &r);
            write_csv(&opts.out_dir, "run", RUN_COLUMNS, &[row]);
        }
        None => {
            // Interrupted or paused: a partial artifact records how far the
            // run got, and the checkpoint above carries the state itself.
            let row = format!(
                "{},{},{},{}",
                mix.name,
                sim.label(),
                sim.steps(),
                sim.is_finished()
            );
            write_csv(
                &opts.out_dir,
                "run_partial",
                "mix,scheme,steps,finished",
                &[row],
            );
        }
    }
}

/// `run --fork-sweep`: every allocation policy, forked from one warmed
/// state. With `--resume` the shared warmup is the given checkpoint;
/// otherwise a fresh sim is warmed for four epochs (and saved to
/// `--checkpoint`, when given, so later sweeps can reuse it).
fn fork_sweep(opts: &Options) {
    let (sys, kind, mix) = setup(opts);
    println!("run --fork-sweep: {} on {}", mix.name, kind.label());
    let bytes = match &opts.resume {
        Some(path) => match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                record_failure(path.display().to_string(), e.to_string());
                return;
            }
        },
        None => {
            // Warm through the first repartitioning epoch, so every fork
            // starts from a state where the policies actually differ.
            let mut warm = CmpSim::new(sys.clone(), &kind, &mix);
            let first_epoch = warm.epoch().next_at();
            loop {
                match warm.try_run_for(16_384) {
                    Ok(Some(_)) => {
                        println!("  warmup ran to completion; forking the final state");
                        break;
                    }
                    Ok(None) => {
                        if warm.epoch().next_at() > first_epoch {
                            println!("  warmed for {} steps (one epoch)", warm.steps());
                            break;
                        }
                    }
                    Err(e) => {
                        record_failure(format!("mix {}", mix.name), e.to_string());
                        return;
                    }
                }
            }
            if let Some(path) = &opts.checkpoint {
                save(&warm, path);
                println!("  warmup checkpoint -> {}", path.display());
            }
            warm.write_checkpoint().to_bytes()
        }
    };
    let reader = match SnapshotReader::from_bytes(&bytes) {
        Ok(r) => r,
        Err(e) => {
            record_failure("fork-sweep checkpoint", e.to_string());
            return;
        }
    };

    let mut rows = Vec::new();
    for policy in PolicyKind::ALL {
        if let Some(signo) = signal::pending() {
            println!(
                "  signal {signo}: stopping the sweep after {} variants",
                rows.len()
            );
            break;
        }
        // Build the fork with the target policy in its config so its label
        // (and any policy-dependent defaults) match a run that was given
        // `--policy` directly; the restore then overwrites all state and
        // the hot-swap below installs the policy itself.
        let mut fsys = sys.clone();
        fsys.policy = policy;
        let mut fork = CmpSim::new(fsys, &kind, &mix);
        if let Err(e) = fork.restore_checkpoint(&reader) {
            record_failure(format!("fork {}", policy.label()), e.to_string());
            continue;
        }
        if fork
            .epoch()
            .active_policy()
            .is_some_and(|a| a.kind() != policy)
        {
            if let Err(e) = fork.reconfigure(&Reconfig::Policy(policy)) {
                record_failure(format!("fork {}", policy.label()), e.to_string());
                continue;
            }
        }
        match fork.try_run() {
            Ok(r) => {
                println!(
                    "  {:<10} throughput {:.4}  misses {}",
                    policy.label(),
                    r.throughput,
                    r.l2_misses.iter().sum::<u64>()
                );
                rows.push(csv_row(&mix.name, &r.label, policy, fork.steps(), &r));
            }
            Err(e) => record_failure(format!("fork {}", policy.label()), e.to_string()),
        }
    }
    write_csv(&opts.out_dir, "fork_sweep", RUN_COLUMNS, &rows);
}
