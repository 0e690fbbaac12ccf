//! Integration tests for the telemetry layer: partition dynamics must be
//! observable through a sink and show the controller converging after a
//! target flip, and file sinks must produce parseable traces.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_repro::cache::{LineAddr, SetAssocArray, ZArray};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{AccessRequest, BaselineLlc, Llc, PartitionId, RankPolicy};
use vantage_repro::telemetry::{
    from_json_line, JsonSink, RingSink, Telemetry, TelemetryRecord, UNMANAGED_PART,
};

/// Uniform random traffic over two partitions with 6000-line working sets
/// (the cache holds 8192 lines, so both partitions stay demand-unlimited).
fn drive(llc: &mut VantageLlc, accesses: u64, rng: &mut SmallRng) {
    for _ in 0..accesses {
        let p = (rng.gen::<u32>() % 2) as usize;
        let base = ((p as u64) + 1) << 40;
        llc.access(AccessRequest::read(
            PartitionId::from_index(p),
            LineAddr(base + rng.gen_range(0..6000u64)),
        ));
    }
}

/// The telemetry stream must show partition sizes and apertures re-converging
/// after the targets flip: the shrunk partition demotes its overshoot away
/// and the grown partition fills toward its new target.
#[test]
fn sizes_and_apertures_converge_after_a_target_flip() {
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(8 * 1024, 4, 52, 3)),
        2,
        VantageConfig::default(),
        3,
    )
    .expect("valid Vantage config");
    let (sink, reader) = RingSink::with_capacity(1 << 16);
    assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 1024)));

    let mut rng = SmallRng::seed_from_u64(77);
    llc.set_targets(&[5000, 2000]);
    drive(&mut llc, 600_000, &mut rng);
    // Flip: partition 0 must shrink toward 2000, partition 1 grow to 5000.
    llc.set_targets(&[2000, 5000]);
    drive(&mut llc, 600_000, &mut rng);
    llc.take_telemetry();

    let records = reader.records();
    assert!(!records.is_empty(), "ring captured nothing");

    // Record accesses are non-decreasing within the retained window.
    let mut last = 0;
    for r in &records {
        assert!(r.access() >= last, "out-of-order record at {}", r.access());
        last = r.access();
    }

    // The latest sample per partition reflects the post-flip targets and a
    // converged actual size (within enforcement slack of the target).
    let latest = |part: u16| {
        let part = vantage_telemetry::PartitionId::from_raw(part);
        records
            .iter()
            .filter_map(|r| match r {
                TelemetryRecord::Sample(s) if s.part == part => Some(s),
                _ => None,
            })
            .next_back()
            .unwrap_or_else(|| panic!("no samples for partition {part}"))
    };
    let s0 = latest(0);
    let s1 = latest(1);
    // Targets are scaled into the managed region (a 5% unmanaged fraction
    // by default), so the samples carry ~95% of the requested sizes.
    assert!(
        s0.target >= 1800 && s0.target <= 2000,
        "sample must carry the post-flip target: {}",
        s0.target
    );
    assert!(
        s1.target >= 4500 && s1.target <= 5000,
        "sample must carry the post-flip target: {}",
        s1.target
    );
    assert!(
        s0.actual < 3000,
        "partition 0 did not shrink: {} lines",
        s0.actual
    );
    assert!(
        s1.actual > 4000,
        "partition 1 did not grow: {} lines",
        s1.actual
    );

    // The unmanaged region is sampled alongside the partitions.
    let um = records.iter().any(
        |r| matches!(r, TelemetryRecord::Sample(s) if s.part == UNMANAGED_PART && s.actual > 0),
    );
    assert!(um, "no unmanaged-region samples");

    // The feedback loop is visible: demotions and aperture updates flow
    // throughout the retained (post-flip) window.
    let demotions = records
        .iter()
        .filter(|r| matches!(r, TelemetryRecord::Event(e) if matches!(e, vantage_repro::telemetry::TelemetryEvent::Demotion { .. })))
        .count();
    let apertures = records
        .iter()
        .filter(|r| matches!(r, TelemetryRecord::Event(e) if matches!(e, vantage_repro::telemetry::TelemetryEvent::ApertureUpdate { .. })))
        .count();
    assert!(demotions > 0, "no demotion events");
    assert!(apertures > 0, "no aperture updates");
}

/// Drives 60K accesses through `llc` with a JSON Lines sink on `file`
/// and parses the trace back line by line, returning (samples, events).
fn file_trace_round_trip(llc: &mut dyn Llc, file: &str) -> (usize, usize) {
    let dir = std::env::temp_dir().join(format!("vantage-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let sink = JsonSink::create(&path).unwrap();
    assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 512)));
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..60_000u64 {
        let p = (rng.gen::<u32>() % 2) as usize;
        let base = ((p as u64) + 1) << 40;
        llc.access(AccessRequest::read(
            PartitionId::from_index(p),
            LineAddr(base + rng.gen_range(0..3000u64)),
        ));
    }
    llc.take_telemetry(); // drop flushes the file

    let body = std::fs::read_to_string(&path).unwrap();
    let (mut samples, mut events) = (0, 0);
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        match from_json_line(line) {
            Some(TelemetryRecord::Sample(_)) => samples += 1,
            Some(TelemetryRecord::Event(_)) => events += 1,
            None => panic!("unparseable JSON line: {line}"),
        }
    }
    let _ = std::fs::remove_file(&path);
    (samples, events)
}

/// A JSON Lines trace written by a Vantage cache must parse line-by-line
/// back into records, with both samples and events present.
#[test]
fn json_trace_round_trips_through_a_file() {
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(4 * 1024, 4, 52, 9)),
        2,
        VantageConfig::default(),
        9,
    )
    .expect("valid Vantage config");
    let (samples, events) = file_trace_round_trip(&mut llc, "trace.json");
    assert!(samples > 10, "too few samples: {samples}");
    assert!(events > 0, "no events in trace");
}

/// The same file round trip from a *baseline* (non-Vantage) cache — the
/// observation API is scheme-agnostic.
#[test]
fn baseline_trace_round_trips_through_a_file() {
    let mut llc = BaselineLlc::try_new(
        Box::new(SetAssocArray::hashed(4 * 1024, 16, 1)),
        2,
        RankPolicy::Lru,
    )
    .expect("valid baseline geometry");
    let (samples, evictions) = file_trace_round_trip(&mut llc, "baseline.json");
    assert!(samples > 10, "too few samples: {samples}");
    assert!(evictions > 0, "baseline emitted no eviction events");
}
