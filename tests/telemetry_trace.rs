//! Integration tests for the telemetry layer: partition dynamics must be
//! observable through a sink and show the controller converging after a
//! target flip, and file sinks must produce parseable traces.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_repro::cache::{LineAddr, SetAssocArray, ShareMode, ZArray};
use vantage_repro::core::{FaultKind, FaultPlan, VantageConfig, VantageLlc};
use vantage_repro::partitioning::{
    AccessRequest, BaselineLlc, Llc, PartitionId, PartitionSpec, PippConfig, PippLlc, RankPolicy,
    WayPartLlc,
};
use vantage_repro::snapshot::Encoder;
use vantage_repro::telemetry::{
    from_json_line, to_json_line, JsonSink, RingSink, Telemetry, TelemetryRecord, UNMANAGED_PART,
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

/// FNV-1a over `bytes`, continuing from `d`.
fn fnv(mut d: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        d ^= u64::from(b);
        d = d.wrapping_mul(0x0100_0000_01b3);
    }
    d
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const TRACE_PARTS: usize = 4;
const TRACE_FRAMES: usize = 4096;

/// One traced run's pinned values: the number of records the ring kept,
/// an FNV-1a digest of their JSON lines in arrival order, and an FNV-1a
/// digest of the cache's snapshot payload at the end of the run.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    records: usize,
    trace: u64,
    snapshot: u64,
}

/// Vantage Z4/52 with churn throttling, a tag-flip fault plan and
/// periodic scrubs.
fn traced_vantage() -> Box<dyn Llc> {
    let cfg = VantageConfig {
        churn_throttling: true,
        ..VantageConfig::default()
    };
    let array = Box::new(ZArray::new(TRACE_FRAMES, 4, 52, 21));
    let mut llc = VantageLlc::try_new(array, TRACE_PARTS, cfg, 21).expect("valid Vantage config");
    let kinds = [FaultKind::TagPart, FaultKind::TagTs];
    llc.set_fault_plan(Some(FaultPlan::new(0xFA17, 2_000, &kinds)));
    llc.set_scrub_period(Some(7_000));
    Box::new(llc)
}

fn traced_baseline() -> Box<dyn Llc> {
    let array = Box::new(ZArray::new(TRACE_FRAMES, 4, 52, 22));
    let llc = BaselineLlc::try_new(array, TRACE_PARTS, RankPolicy::Lru);
    Box::new(llc.expect("valid baseline geometry"))
}

fn traced_way_part() -> Box<dyn Llc> {
    let mut llc = WayPartLlc::try_new(TRACE_FRAMES, 16, TRACE_PARTS, 23).expect("valid geometry");
    llc.enable_priority_probe();
    Box::new(llc)
}

fn traced_pipp() -> Box<dyn Llc> {
    let llc = PippLlc::try_new(TRACE_FRAMES, 16, TRACE_PARTS, PippConfig::default(), 24);
    Box::new(llc.expect("valid geometry"))
}

/// Drives 60K accesses through a fresh cache under `mode` with a ring sink
/// attached: a quarter of the requests go to lines every partition shares,
/// the targets flip at 30K, and with `lifecycle` partition 3 is destroyed
/// at 20K (its requests are dropped) and re-created at 40K.
fn traced_run(build: fn() -> Box<dyn Llc>, mode: ShareMode, lifecycle: bool) -> Pinned {
    let mut llc = build();
    assert!(llc.set_share_mode(mode));
    let (sink, reader) = RingSink::with_capacity(1 << 18);
    assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 512)));
    llc.set_targets(&[1536, 1024, 1024, 512])
        .expect("targets fit");
    let mut rng = SmallRng::seed_from_u64(0x7ACE);
    let mut dead = false;
    for i in 0..60_000u64 {
        match i {
            20_000 if lifecycle => {
                llc.destroy_partition(PartitionId::from_index(3))
                    .expect("live partition");
                dead = true;
            }
            30_000 => llc
                .set_targets(&[512, 1024, 1024, 1536])
                .expect("targets fit"),
            40_000 if lifecycle => {
                let id = llc.create_partition(PartitionSpec::with_target(512));
                assert_eq!(
                    id,
                    Ok(PartitionId::from_index(3)),
                    "the dead slot is reused"
                );
                dead = false;
            }
            _ => {}
        }
        let p = rng.gen_range(0..TRACE_PARTS);
        let addr = if rng.gen_range(0..4u32) == 0 {
            LineAddr(rng.gen_range(0..1024u64))
        } else {
            LineAddr(((p as u64 + 1) << 40) + rng.gen_range(0..3000u64))
        };
        if !(dead && p == 3) {
            llc.access(AccessRequest::read(PartitionId::from_index(p), addr));
        }
    }
    let mut enc = Encoder::new();
    llc.save_state(&mut enc);
    let snapshot = fnv(FNV_SEED, &enc.into_bytes());
    llc.take_telemetry();
    assert_eq!(reader.overwritten(), 0, "ring sized too small");
    let records = reader.records();
    let trace = records.iter().fold(FNV_SEED, |d, r| {
        fnv(fnv(d, to_json_line(r).as_bytes()), b"\n")
    });
    Pinned {
        records: records.len(),
        trace,
        snapshot,
    }
}

/// Every scheme's telemetry stream, in arrival order, and its snapshot
/// bytes under every share mode: where and in what order each scheme
/// resolves hits, evictions, fills, ownership, faults, scrubs and
/// lifecycle calls is pinned record by record, not as an order-free
/// multiset.
#[test]
fn event_streams_and_snapshots_are_pinned_in_arrival_order() {
    type Case = (
        &'static str,
        fn() -> Box<dyn Llc>,
        bool,
        [(usize, u64, u64); 3],
    );
    // (records, trace digest, snapshot digest) under Adopt, Replicate, Pin.
    let cases: [Case; 4] = [
        (
            "vantage",
            traced_vantage,
            true,
            [
                (86128, 0x0de3_e6ed_ed90_2d10, 0x6037_0eb9_481d_7961),
                (125478, 0xe3f8_dd8e_17e2_e6d6, 0x158c_7c15_ff4c_23c2),
                (80274, 0xd55b_2632_f9d2_4375, 0xeed9_4e3f_3797_8d76),
            ],
        ),
        (
            "baseline-lru",
            traced_baseline,
            false,
            [
                (49579, 0x7c07_ae6a_a201_4e59, 0x6e79_977b_2fc0_d40b),
                (87130, 0x0595_af6e_5071_2d6a, 0x169a_80a3_a1f7_d9fb),
                (41794, 0x90ae_9f31_0a54_5556, 0x6c22_50fe_fa23_b151),
            ],
        ),
        (
            "waypart",
            traced_way_part,
            false,
            [
                (48631, 0x474d_dced_f8fc_1ab7, 0xb0c7_9e94_e49d_409d),
                (87988, 0xe53f_dcf8_63ec_ada3, 0x8d12_9e7d_b05e_68d8),
                (42111, 0x09ee_ca92_e8c3_d5e0, 0x4b00_68c9_7d03_273e),
            ],
        ),
        (
            "pipp",
            traced_pipp,
            false,
            [
                (49522, 0x3faa_933b_e74e_e217, 0x4200_3e55_b9b7_bc3e),
                (86996, 0xcb35_2428_f95e_d590, 0x3009_b856_c3c2_ad07),
                (41713, 0x61d9_081f_110d_41bf, 0x7a46_2247_8229_e178),
            ],
        ),
    ];
    let mut failures = Vec::new();
    for (name, build, lifecycle, golden) in cases {
        for (mode, (records, trace, snapshot)) in ShareMode::ALL.into_iter().zip(golden) {
            let want = Pinned {
                records,
                trace,
                snapshot,
            };
            let got = traced_run(build, mode, lifecycle);
            if got != want {
                failures.push(format!(
                    "{name}/{}: got ({}, {:#x}, {:#x})",
                    mode.label(),
                    got.records,
                    got.trace,
                    got.snapshot
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
