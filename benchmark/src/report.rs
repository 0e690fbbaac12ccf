//! Metric names and units, and how a run is printed.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the same lists `BENCHMARK.json`
//! declares (a unit test keeps them equal): an untraced run prints every
//! end-to-end metric, a traced run every per-layer one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("speed_cal", "1/s", "higher"),
    m("heap_mb", "MiB", "lower"),
    m("llc_hit_pct", "%", "higher"),
    m("isolation_pct", "%", "higher"),
];

pub const PER_LAYER: &[MetricDef] = &[
    // cache
    m("cache.h3_hash_ns", "ns", "lower"),
    m("cache.z_lookup_ns", "ns", "lower"),
    m("cache.z_lookup_hit_pct", "%", "higher"),
    m("cache.z_walk_ns", "ns", "lower"),
    m("cache.z_walk_candidates", "count", "higher"),
    m("cache.z_install_ns", "ns", "lower"),
    m("cache.z_relocations", "count", "lower"),
    m("cache.tagmeta_gather_ns", "ns", "lower"),
    m("cache.ownership_resolve_ns", "ns", "lower"),
    m("cache.sa16_lookup_ns", "ns", "lower"),
    m("cache.skew4_lookup_ns", "ns", "lower"),
    // core
    m("core.access_ns", "ns", "lower"),
    m("core.access_single_ns", "ns", "lower"),
    m("core.hit_ns", "ns", "lower"),
    m("core.miss_ns", "ns", "lower"),
    m("core.self_ns_per_miss", "ns", "lower"),
    m("core.rel_to_baseline_z52", "ratio", "higher"),
    m("core.demotions_per_kacc", "count", "lower"),
    m("core.promotions_per_kacc", "count", "lower"),
    m("core.setpoint_adj_per_kacc", "count", "lower"),
    m("core.throttled_per_kacc", "count", "lower"),
    m("core.managed_evict_pct", "%", "lower"),
    m("core.size_overshoot_pct", "%", "lower"),
    m("core.set_targets_us", "us", "lower"),
    m("core.observations_us", "us", "lower"),
    m("core.create_partition_us_p50", "us", "lower"),
    m("core.create_partition_us_p99", "us", "lower"),
    m("core.destroy_partition_us_p50", "us", "lower"),
    m("core.destroy_partition_us_p99", "us", "lower"),
    m("core.invariants_ms", "ms", "lower"),
    // partitioning
    m("partitioning.serial_ns", "ns", "lower"),
    m("partitioning.batched_ns", "ns", "lower"),
    m("partitioning.pipelined_ns", "ns", "lower"),
    m("partitioning.route_ns", "ns", "lower"),
    m("partitioning.ingest_ns", "ns", "lower"),
    m("partitioning.barrier_ns", "ns", "lower"),
    m("partitioning.ring_peak_depth", "count", "lower"),
    m("partitioning.ring_mean_depth", "count", "lower"),
    m("partitioning.engine_digests_equal", "count", "higher"),
    m("partitioning.jobs2_speedup", "ratio", "higher"),
    m("partitioning.baseline_z52_ns", "ns", "lower"),
    m("partitioning.waypart_sa16_ns", "ns", "lower"),
    m("partitioning.pipp_sa16_ns", "ns", "lower"),
    // ucp
    m("ucp.umon_access_ns", "ns", "lower"),
    m("ucp.lookahead_us", "us", "lower"),
    m("ucp.reallocate_us", "us", "lower"),
    m("ucp.qos_reallocate_us", "us", "lower"),
    m("ucp.epochs", "count", "higher"),
    // sim
    m("sim.ipc_sum", "ipc", "higher"),
    m("sim.run_for_us_p50", "us", "lower"),
    m("sim.run_for_us_tail", "us", "lower"),
    m("sim.steps_per_kinstr", "count", "lower"),
    m("sim.l2_acc_per_kinstr", "count", "lower"),
    m("sim.l1_access_ns", "ns", "lower"),
    m("sim.scheme_build_ms", "ms", "lower"),
    m("sim.baseline_sa16_speed_cal", "1/s", "higher"),
    // workloads
    m("workloads.appgen_ns_per_ref", "ns", "lower"),
    m("workloads.churn_ns_per_event", "ns", "lower"),
    m("workloads.mixes_ms", "ms", "lower"),
    // snapshot
    m("snapshot.save_ms", "ms", "lower"),
    m("snapshot.restore_ms", "ms", "lower"),
    m("snapshot.bytes", "count", "lower"),
    m("snapshot.roundtrip_identical", "count", "higher"),
    // telemetry
    m("telemetry.nullsink_overhead_pct", "%", "lower"),
    m("telemetry.ringsink_overhead_pct", "%", "lower"),
    m("telemetry.events_per_kacc", "count", "lower"),
    // harness
    m("cal.ops_per_s", "1/s", "higher"),
    m("cal.cv_pct", "%", "lower"),
    m("run.wall_s", "s", "lower"),
    m("run.speed_raw", "1/s", "higher"),
    m("run.speed_cal", "1/s", "higher"),
    m("run.call_us_p50", "us", "lower"),
    m("run.call_us_tail", "us", "lower"),
    m("run.call_tail_pct", "%", "higher"),
    m("run.slices", "count", "higher"),
    m("run.trace_overhead_pct", "%", "lower"),
    m("run.failed_share", "ratio", "lower"),
    m("run.llc_hit_pct", "%", "higher"),
    m("run.sim_digest48", "count", "higher"),
];

/// Named values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names in `defs` this run did not set or set to a non-finite value.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics` (every metric of `defs`, in order).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    metrics: &Metrics,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = metrics.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest text that reads back to the same f64:
        // every digit measured, and always valid JSON for a finite value.
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

/// A one-screen table of `defs` for people (goes to stderr); `+` marks a
/// metric where higher is better, `-` one where lower is.
pub fn table(title: &str, defs: &[MetricDef], metrics: &Metrics) -> String {
    let mut s = format!("{title}\n");
    let cols = if defs.len() > 12 { 2 } else { 1 };
    let rows = defs.len().div_ceil(cols);
    for r in 0..rows {
        for c in 0..cols {
            if let Some(d) = defs.get(c * rows + r) {
                let v = metrics.get(d.name).unwrap_or(f64::NAN);
                let arrow = if d.better == "higher" { '+' } else { '-' };
                let _ = write!(s, "  {arrow} {:<34} {:>14.4} {:<6}", d.name, v, d.unit);
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"key": "value"` string pair named `key` out of JSON text
    /// (enough of a parser for the flat lists in BENCHMARK.json).
    fn strings(json: &str, key: &str) -> Vec<String> {
        let pat = format!("\"{key}\": \"");
        json.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &json[i + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn result_line_is_the_contracts_shape() {
        let mut mx = Metrics::default();
        mx.set("setup_s", 0.8127);
        mx.set("speed_cal", 1.5e6);
        let line = result_line(true, 1000, 0, &END_TO_END[..2], &mx);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"speed_cal\": {\"value\": 1500000, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(strings(&line, "unit"), ["s", "1/s"]);
    }

    #[test]
    fn missing_reports_unset_and_non_finite() {
        let mut mx = Metrics::default();
        mx.set("setup_s", f64::NAN);
        mx.set("speed_cal", 1.0);
        assert_eq!(mx.missing(&END_TO_END[..2]), ["setup_s"]);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer key");
        let (_, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end key");
        for (text, defs) in [(end_to_end, END_TO_END), (per_layer, PER_LAYER)] {
            let want: Vec<_> = defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
            let (names, units, better) = (
                strings(text, "name"),
                strings(text, "unit"),
                strings(text, "better"),
            );
            let got: Vec<_> = (0..names.len())
                .map(|i| (names[i].as_str(), units[i].as_str(), better[i].as_str()))
                .collect();
            assert_eq!(got, want);
        }
        let workloads = strings(json.split_once("\"end_to_end\"").expect("key").0, "name");
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
