//! `service` subcommand: service-mode partition lifecycle at scale.
//!
//! The paper's experiments pin one partition per core for a whole run.
//! This harness exercises the other deployment Vantage's scalability
//! argument targets — a consolidated service whose tenants arrive,
//! live, and leave — end to end:
//!
//! * **Churn run** — a [`TenantChurn`] population drives a Vantage LLC
//!   through `create_partition`/`destroy_partition`; every epoch an
//!   allocation policy ([`QosGuarantee::uniform`] by default,
//!   `--policy clustered` for the LFOC-style allocator) re-targets the
//!   live tenants. Per-tenant SLA accounting (accesses, hit rate,
//!   guaranteed floor, violations) is written to
//!   `<out>/service_sla.csv`.
//! * **Scale bench** — a steady 1024-live-partition access loop,
//!   recorded (with the churn run's throughput) to
//!   `BENCH_service.json` at the repo root. In quick mode (CI) the
//!   bench gates at [`SCALE_MIN_RATE`] accesses/second: fine-grain
//!   partitioning must not collapse when the population is three
//!   orders of magnitude past the core count.
//!
//! Destruction never flushes: departing tenants drain through ordinary
//! demotions, and the churn run counts lifecycle errors (which must be
//! zero) rather than tolerating them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage::{VantageConfig, VantageLlc};
use vantage_cache::{LineAddr, ZArray};
use vantage_partitioning::{AccessRequest, Llc, PartitionId, PartitionSpec};
use vantage_sim::PolicyKind;
use vantage_ucp::{AllocationPolicy, ClusteredPolicy, EqualShares, PolicyInput, QosGuarantee};
use vantage_workloads::{ChurnEvent, TenantChurn, TenantChurnConfig};

use crate::common::{open_telemetry, record_failure, write_csv, Options};
use crate::record::{append_entry, BenchRecord};

/// Quick-mode floor on the 1024-partition steady-state access rate.
pub const SCALE_MIN_RATE: f64 = 1.0e6;

/// Live partitions in the scale bench.
const SCALE_PARTITIONS: usize = 1024;

/// Scale parameters for one service run.
#[derive(Clone, Copy, Debug)]
struct Scale {
    /// Cache lines in the churn run.
    frames: usize,
    /// Generator events consumed by the churn run.
    events: u64,
    /// Accesses between repartitioning epochs.
    epoch: u64,
    /// Admission cap for the churn population.
    max_tenants: usize,
    /// Cache lines in the scale bench.
    bench_frames: usize,
    /// Warmup / timed accesses in the scale bench.
    bench_warmup: u64,
    bench_timed: u64,
}

impl Scale {
    fn from_options(o: &Options) -> Self {
        if o.quick {
            Self {
                frames: 16 * 1024,
                events: 1_500_000,
                epoch: 20_000,
                max_tenants: 128,
                bench_frames: 64 * 1024,
                bench_warmup: 200_000,
                bench_timed: 1_000_000,
            }
        } else {
            Self {
                frames: 64 * 1024,
                events: 12_000_000,
                epoch: 50_000,
                max_tenants: 1024,
                bench_frames: 128 * 1024,
                bench_warmup: 1_000_000,
                bench_timed: 8_000_000,
            }
        }
    }
}

/// Per-tenant SLA ledger for the churn run's report.
#[derive(Clone, Debug)]
struct TenantSla {
    tenant: u64,
    slot: PartitionId,
    arrived_at: u64,
    departed_at: Option<u64>,
    accesses: u64,
    hits: u64,
    /// Repartitioning epochs this tenant was live for.
    epochs: u64,
    /// Smallest policy target granted across those epochs.
    min_target: u64,
    /// Epochs whose target fell below the guaranteed floor.
    floor_violations: u64,
}

/// Everything the churn run reports.
struct ChurnOutcome {
    events: u64,
    accesses: u64,
    wall_s: f64,
    tenants_admitted: u64,
    departures: u64,
    peak_live: usize,
    policy_name: &'static str,
    floor: u64,
    floor_violations: u64,
    lifecycle_errors: u64,
    sla: Vec<TenantSla>,
}

/// Instantiates the allocation policy for the service run. UMON-backed
/// policies are sized at construction and cannot follow a churning
/// population, so `ucp`/`missratio` fall back to the uniform QoS
/// contract with a note.
fn service_policy(kind: PolicyKind, floor: u64) -> (&'static str, Box<dyn AllocationPolicy>) {
    match kind {
        PolicyKind::Equal => ("equal", Box::new(EqualShares::new())),
        PolicyKind::Clustered => (
            "clustered",
            Box::new(ClusteredPolicy::try_new(8, floor).expect("valid cluster config")),
        ),
        PolicyKind::Qos => (
            "qos",
            Box::new(QosGuarantee::uniform(floor, 1.0).expect("valid uniform contract")),
        ),
        PolicyKind::Ucp | PolicyKind::MissRatio => {
            eprintln!(
                "  note: {} cannot follow a churning population; using the \
                 uniform qos contract",
                kind.label()
            );
            (
                "qos",
                Box::new(QosGuarantee::uniform(floor, 1.0).expect("valid uniform contract")),
            )
        }
    }
}

/// Runs the churn phase: tenants arrive and depart against a live
/// Vantage LLC while the allocation policy re-targets every epoch.
fn run_churn(opts: &Options, scale: Scale) -> ChurnOutcome {
    let seed = opts.seed;
    // Every live tenant is guaranteed 1/(4 * cap) of the cache.
    let floor = (scale.frames / (4 * scale.max_tenants)).max(1) as u64;
    let (policy_name, mut policy) = service_policy(opts.policy, floor);
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(scale.frames, 4, 16, seed)),
        1,
        VantageConfig::default(),
        seed,
    )
    .expect("valid Vantage config");
    if let Some(base) = &opts.telemetry {
        if let Some(t) = open_telemetry(base, "service") {
            llc.set_telemetry(t);
        }
    }
    // The construction-time slot belongs to no tenant; retire it so the
    // population starts empty (it drains instantly — nothing resident).
    llc.destroy_partition(PartitionId::from_index(0))
        .expect("fresh slot destroys cleanly");

    let mut gen = TenantChurn::try_new(TenantChurnConfig {
        max_tenants: scale.max_tenants,
        mean_lifetime: scale.events as f64 / 8.0,
        mean_interarrival: (scale.events as f64 / (6.0 * scale.max_tenants as f64)).max(1.0),
        footprint_lines: (scale.frames / 8) as u64,
        seed,
        ..TenantChurnConfig::default()
    })
    .expect("valid churn config");

    let mut slot_of: HashMap<u64, PartitionId> = HashMap::new();
    let mut ledger: HashMap<u64, TenantSla> = HashMap::new();
    let mut done: Vec<TenantSla> = Vec::new();
    let mut accesses = 0u64;
    let mut until_epoch = scale.epoch;
    let mut departures = 0u64;
    let mut peak_live = 0usize;
    let mut floor_violations = 0u64;
    let mut lifecycle_errors = 0u64;

    let t0 = Instant::now();
    for _ in 0..scale.events {
        match gen.next_event() {
            ChurnEvent::Arrive { tenant } => {
                match llc.create_partition(PartitionSpec::with_target(floor)) {
                    Ok(slot) => {
                        slot_of.insert(tenant, slot);
                        peak_live = peak_live.max(slot_of.len());
                        ledger.insert(
                            tenant,
                            TenantSla {
                                tenant,
                                slot,
                                arrived_at: gen.now(),
                                departed_at: None,
                                accesses: 0,
                                hits: 0,
                                epochs: 0,
                                min_target: u64::MAX,
                                floor_violations: 0,
                            },
                        );
                    }
                    Err(e) => {
                        lifecycle_errors += 1;
                        record_failure("service churn", format!("create_partition: {e}"));
                    }
                }
            }
            ChurnEvent::Depart { tenant } => {
                let slot = slot_of.remove(&tenant).expect("departing tenant is live");
                if let Err(e) = llc.destroy_partition(slot) {
                    lifecycle_errors += 1;
                    record_failure("service churn", format!("destroy_partition: {e}"));
                }
                departures += 1;
                let mut sla = ledger.remove(&tenant).expect("ledger covers live tenants");
                sla.departed_at = Some(gen.now());
                done.push(sla);
            }
            ChurnEvent::Access { tenant, addr } => {
                let slot = slot_of[&tenant];
                let out = llc.access(AccessRequest::read(slot, addr));
                let sla = ledger.get_mut(&tenant).expect("accessing tenant is live");
                sla.accesses += 1;
                sla.hits += u64::from(out.is_hit());
                accesses += 1;
                until_epoch -= 1;
                if until_epoch == 0 {
                    until_epoch = scale.epoch;
                    let capacity = llc.capacity() as u64;
                    let obs = llc.observations();
                    let input = PolicyInput {
                        capacity,
                        actual: &obs.actual,
                        hits: &obs.hits,
                        misses: &obs.misses,
                        churn: &obs.churn,
                        insertions: &obs.insertions,
                        shared_hits: &obs.shared_hits,
                        ownership_transfers: &obs.ownership_transfers,
                        live: &obs.live,
                        arrived: &obs.arrived,
                        departed: &obs.departed,
                    };
                    let targets = policy.reallocate(&input);
                    llc.set_targets(&targets);
                    for sla in ledger.values_mut() {
                        let t = targets.get(sla.slot.index()).copied().unwrap_or(0);
                        sla.epochs += 1;
                        sla.min_target = sla.min_target.min(t);
                        if t < floor {
                            sla.floor_violations += 1;
                            floor_violations += 1;
                        }
                    }
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    done.extend(ledger.into_values());
    done.sort_by_key(|s| s.tenant);
    if let Some(mut t) = llc.take_telemetry() {
        t.flush();
        if let Some(e) = t.io_error() {
            record_failure("service telemetry", e);
        }
    }
    ChurnOutcome {
        events: scale.events,
        accesses,
        wall_s,
        tenants_admitted: gen.tenants_admitted(),
        departures,
        peak_live,
        policy_name,
        floor,
        floor_violations,
        lifecycle_errors,
        sla: done,
    }
}

/// The steady-state scale bench: 1024 live partitions, uniform tenant
/// traffic at 2x capacity pressure (the hot-path configuration the
/// BENCH gate gates).
fn bench_scale(opts: &Options, scale: Scale) -> (u64, f64, f64) {
    let seed = opts.seed;
    let f = scale.bench_frames;
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(f, 4, 16, seed)),
        SCALE_PARTITIONS,
        VantageConfig::default(),
        seed,
    )
    .expect("valid Vantage config");
    let even = vec![(f / SCALE_PARTITIONS) as u64; SCALE_PARTITIONS];
    llc.set_targets(&even);
    let ws = (2 * f / SCALE_PARTITIONS) as u64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E7C);
    let mut drive = |n: u64| {
        for _ in 0..n {
            let p = (rng.gen::<u32>() as usize) % SCALE_PARTITIONS;
            let base = (p as u64 + 1) << 32;
            llc.access(AccessRequest::read(
                PartitionId::from_index(p),
                LineAddr(base + rng.gen_range(0..ws)),
            ));
        }
    };
    drive(scale.bench_warmup);
    let t0 = Instant::now();
    drive(scale.bench_timed);
    let wall_s = t0.elapsed().as_secs_f64();
    let rate = scale.bench_timed as f64 / wall_s.max(1e-9);
    (scale.bench_timed, wall_s, rate)
}

/// Renders the per-tenant SLA report rows.
fn sla_rows(out: &ChurnOutcome) -> Vec<String> {
    out.sla
        .iter()
        .map(|s| {
            let hit_rate = s.hits as f64 / s.accesses.max(1) as f64;
            let min_target = if s.min_target == u64::MAX {
                0
            } else {
                s.min_target
            };
            format!(
                "{},{},{},{},{},{},{:.4},{},{},{},{}",
                s.tenant,
                s.slot.index(),
                s.arrived_at,
                s.departed_at.map_or(-1i64, |d| d as i64),
                s.accesses,
                s.hits,
                hit_rate,
                s.epochs,
                min_target,
                out.floor,
                s.floor_violations
            )
        })
        .collect()
}

/// Renders one BENCH_service.json entry.
fn render_entry(opts: &Options, churn: &ChurnOutcome, bench: (u64, f64, f64)) -> String {
    let (accesses, wall_s, rate) = bench;
    let mut rec = BenchRecord::new(opts.quick, opts.seed);
    let s = rec.body_mut();
    let _ = writeln!(
        s,
        "    \"churn\": {{\"policy\": \"{}\", \"events\": {}, \"accesses\": {}, \
         \"wall_s\": {:.6}, \"events_per_sec\": {:.1}, \"tenants_admitted\": {}, \
         \"departures\": {}, \"peak_live\": {}, \"floor\": {}, \
         \"floor_violations\": {}, \"lifecycle_errors\": {}}},",
        churn.policy_name,
        churn.events,
        churn.accesses,
        churn.wall_s,
        churn.events as f64 / churn.wall_s.max(1e-9),
        churn.tenants_admitted,
        churn.departures,
        churn.peak_live,
        churn.floor,
        churn.floor_violations,
        churn.lifecycle_errors,
    );
    let _ = write!(
        s,
        "    \"scale_bench\": {{\"partitions\": {SCALE_PARTITIONS}, \"accesses\": {accesses}, \
         \"wall_s\": {wall_s:.6}, \"accesses_per_sec\": {rate:.1}, \
         \"min_rate\": {SCALE_MIN_RATE:.1}, \"enforced\": {}}}",
        opts.quick
    );
    rec.finish()
}

/// The `service` subcommand (see the [module docs](self)), writing the
/// trajectory to `BENCH_service.json` in the current directory.
pub fn service(opts: &Options) {
    service_to(opts, Path::new("BENCH_service.json"));
}

/// [`service`] writing the trajectory to an explicit path (test support).
pub fn service_to(opts: &Options, path: &Path) {
    let scale = Scale::from_options(opts);
    println!(
        "service: tenant churn ({} scale, policy {})",
        if opts.quick { "quick" } else { "full" },
        opts.policy.label()
    );
    let churn = run_churn(opts, scale);
    eprintln!(
        "  churn: {} events in {:.2}s ({:.0} ev/s), {} tenants admitted, \
         {} departed, peak {} live, {} floor violations, {} lifecycle errors",
        churn.events,
        churn.wall_s,
        churn.events as f64 / churn.wall_s.max(1e-9),
        churn.tenants_admitted,
        churn.departures,
        churn.peak_live,
        churn.floor_violations,
        churn.lifecycle_errors,
    );
    if churn.floor_violations > 0 {
        record_failure(
            "service qos floors",
            format!(
                "{} epoch-tenant floor violations under the {} policy",
                churn.floor_violations, churn.policy_name
            ),
        );
    }
    write_csv(
        &opts.out_dir,
        "service_sla",
        "tenant,slot,arrived_at,departed_at,accesses,hits,hit_rate,epochs,min_target,floor,floor_violations",
        &sla_rows(&churn),
    );

    println!("service: {SCALE_PARTITIONS}-partition scale bench");
    let bench = bench_scale(opts, scale);
    let (_, _, rate) = bench;
    eprintln!(
        "  scale bench: {rate:>10.0} acc/s at {SCALE_PARTITIONS} live partitions \
         (min {SCALE_MIN_RATE:.0}, quick-enforced: {})",
        opts.quick
    );
    if opts.quick && rate < SCALE_MIN_RATE {
        record_failure(
            "service scale gate",
            format!(
                "{rate:.0} acc/s at {SCALE_PARTITIONS} partitions \
                 (min {SCALE_MIN_RATE:.0})"
            ),
        );
    }
    let entry = render_entry(opts, &churn, bench);
    match append_entry(path, &entry) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => record_failure(path.display().to_string(), e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            frames: 2 * 1024,
            events: 120_000,
            epoch: 5_000,
            max_tenants: 16,
            bench_frames: 8 * 1024,
            bench_warmup: 1_000,
            bench_timed: 2_000,
        }
    }

    #[test]
    fn churn_run_completes_cleanly_with_qos_floors() {
        let opts = Options {
            policy: PolicyKind::Qos,
            ..Options::default()
        };
        let out = run_churn(&opts, tiny_scale());
        assert_eq!(out.lifecycle_errors, 0, "lifecycle must be clean");
        assert_eq!(out.floor_violations, 0, "floors must hold");
        assert!(out.tenants_admitted > 4, "population churned");
        assert!(out.departures > 0, "tenants departed");
        assert!(!out.sla.is_empty());
        for s in &out.sla {
            if s.epochs > 0 {
                assert!(
                    s.min_target >= out.floor,
                    "tenant {} granted {} < floor {}",
                    s.tenant,
                    s.min_target,
                    out.floor
                );
            }
        }
    }

    #[test]
    fn clustered_policy_drives_the_churn_run_too() {
        let opts = Options {
            policy: PolicyKind::Clustered,
            ..Options::default()
        };
        let out = run_churn(&opts, tiny_scale());
        assert_eq!(out.lifecycle_errors, 0);
        assert_eq!(out.floor_violations, 0);
        assert_eq!(out.policy_name, "clustered");
    }

    #[test]
    fn scale_bench_reports_a_positive_rate() {
        let opts = Options::default();
        let (accesses, wall_s, rate) = bench_scale(&opts, tiny_scale());
        assert_eq!(accesses, 2_000);
        assert!(wall_s > 0.0);
        assert!(rate > 0.0);
    }
}
