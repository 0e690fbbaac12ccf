//! Tentpole acceptance tests for crash-safe checkpoint/restore: run-straight
//! vs checkpoint→restore→continue must be bit-identical for every scheme at
//! every split point, including under active fault injection; forked replicas
//! from one warmup checkpoint must agree; and guarded live reconfiguration
//! must roll back cleanly when post-swap invariants fail.

use vantage::{FaultKind, FaultPlan};
use vantage_sim::{
    ActivePolicy, ArrayKind, BaselineRank, CmpSim, PolicyKind, Reconfig, ReconfigError, SchemeKind,
    SimResult, SystemConfig,
};
use vantage_snapshot::{SnapshotError, SnapshotReader};
use vantage_telemetry::{to_json_line, RingSink, Telemetry};
use vantage_workloads::mixes;

fn quick_sys() -> SystemConfig {
    let mut s = SystemConfig::small_scale();
    s.instructions = 200_000;
    s.repartition_interval = 40_000;
    s
}

/// One FNV-1a fold step over a `u64` word.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a digest of a result's partition-size trace.
fn trace_digest(r: &SimResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for s in &r.trace {
        h = fnv(h, s.cycle);
        for &t in &s.targets {
            h = fnv(h, t);
        }
        for &a in &s.actuals {
            h = fnv(h, a);
        }
    }
    h
}

fn assert_results_identical(want: &SimResult, got: &SimResult, what: &str) {
    assert_eq!(want.ipc, got.ipc, "{what}: IPC diverged");
    assert_eq!(
        want.throughput, got.throughput,
        "{what}: throughput diverged"
    );
    assert_eq!(
        want.l2_accesses, got.l2_accesses,
        "{what}: accesses diverged"
    );
    assert_eq!(
        want.l2_misses, got.l2_misses,
        "{what}: miss counts diverged"
    );
    assert_eq!(want.mpki, got.mpki, "{what}: MPKI diverged");
    assert_eq!(
        want.managed_eviction_fraction, got.managed_eviction_fraction,
        "{what}: eviction fraction diverged"
    );
    assert_eq!(
        want.invariant_recoveries, got.invariant_recoveries,
        "{what}: recovery counts diverged"
    );
    assert_eq!(
        trace_digest(want),
        trace_digest(got),
        "{what}: trace digests diverged"
    );
    assert_eq!(
        want.priority_samples, got.priority_samples,
        "{what}: priority samples diverged"
    );
}

/// Checkpoints `warm` at its current point and resumes a fresh sim from the
/// serialized bytes, returning the resumed sim.
fn fork(warm: &CmpSim, mut fresh: CmpSim) -> CmpSim {
    let bytes = warm.write_checkpoint().to_bytes();
    let reader = SnapshotReader::from_bytes(&bytes).expect("checkpoint parses");
    fresh
        .restore_checkpoint(&reader)
        .expect("checkpoint restores");
    fresh
}

#[test]
fn resume_is_bit_identical_for_every_scheme_at_three_split_points() {
    let base = quick_sys();
    let mut banked = base.clone();
    // Builds Scheme::Pipelined; CmpSim issues one access at a time, so
    // every access is an inline barrier.
    banked.banks = 4;
    let mix = &mixes(4, 1, 7)[12];
    let cases: Vec<(SchemeKind, SystemConfig)> = vec![
        (SchemeKind::vantage_paper(), base.clone()),
        (SchemeKind::WayPart, base.clone()),
        (SchemeKind::Pipp, base.clone()),
        (SchemeKind::vantage_paper(), banked),
    ];
    for (kind, sys) in cases {
        let build = || {
            let mut s = CmpSim::new(sys.clone(), &kind, mix);
            s.enable_trace(25_000);
            s.enable_priority_probe();
            s
        };
        let mut straight = build();
        let want = straight.run();
        let total = straight.steps();
        assert!(total > 100, "run too short to split");

        for split in [total / 4, total / 2, total * 3 / 4] {
            let mut warm = build();
            assert!(
                warm.run_for(split).is_none(),
                "{}: paused before completion",
                warm.label()
            );
            assert_eq!(warm.steps(), split);
            let mut resumed = fork(&warm, build());
            assert_eq!(resumed.steps(), split, "checkpoint clock restored");
            let got = resumed.run();
            assert_results_identical(&want, &got, &format!("{} @ {split}", got.label));
        }
    }
}

#[test]
fn resume_at_arbitrary_odd_split_points() {
    // Tiny machine so many split points stay cheap.
    let mut sys = quick_sys();
    sys.instructions = 40_000;
    sys.repartition_interval = 9_000;
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 3)[5];
    let mut straight = CmpSim::new(sys.clone(), &kind, mix);
    let want = straight.run();
    let total = straight.steps();
    for split in [1, 13, 997, total / 7, total / 3, total - 1] {
        let mut warm = CmpSim::new(sys.clone(), &kind, mix);
        assert!(warm.run_for(split).is_none());
        let mut resumed = fork(&warm, CmpSim::new(sys.clone(), &kind, mix));
        let got = resumed.run();
        assert_results_identical(&want, &got, &format!("odd split {split}"));
    }
}

#[test]
fn resume_is_bit_identical_under_active_fault_injection() {
    let mut sys = quick_sys();
    sys.check_invariants = true;
    sys.scrub_period = Some(10_000);
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 11)[3];
    let build = || {
        let mut s = CmpSim::new(sys.clone(), &kind, mix);
        assert!(s.set_fault_plan(FaultPlan::new(5, 400, &FaultKind::INJECTABLE)));
        s
    };
    let mut straight = build();
    let want = straight.run();
    let total = straight.steps();
    let want_log = format!("{:?}", straight.scheme().fault_plan().unwrap().log());
    assert!(
        !straight.scheme().fault_plan().unwrap().log().is_empty(),
        "fault plan never fired; injection not active"
    );

    for split in [total / 3, total / 2, total * 2 / 3] {
        let mut warm = build();
        assert!(warm.run_for(split).is_none());
        let mut resumed = fork(&warm, build());
        let got = resumed.run();
        assert_results_identical(&want, &got, &format!("faulted @ {split}"));
        let got_log = format!("{:?}", resumed.scheme().fault_plan().unwrap().log());
        assert_eq!(want_log, got_log, "fault-injection logs diverged");
    }
}

#[test]
fn telemetry_event_multisets_match_across_resume() {
    let sys = quick_sys();
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 13)[8];

    let rows = |reader: &vantage_telemetry::RingReader| -> Vec<String> {
        assert_eq!(reader.overwritten(), 0, "ring too small for the run");
        reader.records().iter().map(to_json_line).collect()
    };

    let mut straight = CmpSim::new(sys.clone(), &kind, mix);
    let (sink, straight_reader) = RingSink::with_capacity(1 << 21);
    assert!(straight.set_telemetry(Telemetry::new(Box::new(sink), 256)));
    straight.run();
    let total = straight.steps();
    let mut want = rows(&straight_reader);

    let mut warm = CmpSim::new(sys.clone(), &kind, mix);
    let (sink, warm_reader) = RingSink::with_capacity(1 << 21);
    assert!(warm.set_telemetry(Telemetry::new(Box::new(sink), 256)));
    assert!(warm.run_for(total / 2).is_none());

    let mut resumed = CmpSim::new(sys.clone(), &kind, mix);
    let (sink, resumed_reader) = RingSink::with_capacity(1 << 21);
    assert!(resumed.set_telemetry(Telemetry::new(Box::new(sink), 256)));
    let resumed = &mut fork(&warm, resumed);
    resumed.run();

    let mut got = rows(&warm_reader);
    got.extend(rows(&resumed_reader));
    want.sort();
    got.sort();
    assert_eq!(want, got, "telemetry event multisets differ");
}

#[test]
fn fork_sweep_replicas_from_one_warmup_are_identical() {
    let sys = quick_sys(); // default policy: UCP
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 5)[20];

    let mut probe = CmpSim::new(sys.clone(), &kind, mix);
    probe.run();
    let total = probe.steps();

    let mut warm = CmpSim::new(sys.clone(), &kind, mix);
    assert!(warm.run_for(total / 3).is_none());
    let bytes = warm.write_checkpoint().to_bytes();
    let reader = SnapshotReader::from_bytes(&bytes).expect("warmup checkpoint parses");

    for policy in PolicyKind::ALL {
        let run_fork = || {
            let mut replica = CmpSim::new(sys.clone(), &kind, mix);
            replica.restore_checkpoint(&reader).expect("fork restores");
            if policy != PolicyKind::Ucp {
                replica
                    .reconfigure(&Reconfig::Policy(policy))
                    .expect("default-configured hot-swap succeeds");
            }
            replica.run()
        };
        let a = run_fork();
        let b = run_fork();
        assert_results_identical(&a, &b, &format!("fork replicas ({})", policy.label()));
        assert_eq!(a.reconfig_rollbacks, 0);
    }
}

#[test]
fn hot_swapped_policy_survives_a_checkpoint() {
    let sys = quick_sys(); // config says UCP
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 9)[14];
    let mut sim = CmpSim::new(sys.clone(), &kind, mix);
    assert!(sim.run_for(30_000).is_none());
    sim.reconfigure(&Reconfig::Policy(PolicyKind::Equal))
        .expect("swap to equal shares");
    assert_eq!(sim.epoch().active_policy(), Some(&ActivePolicy::Equal));

    // A resumed replica must come back with the swapped policy, not the
    // config default.
    let resumed = fork(&sim, CmpSim::new(sys.clone(), &kind, mix));
    assert_eq!(resumed.epoch().active_policy(), Some(&ActivePolicy::Equal));

    // And both continuations stay in lockstep.
    let want = sim.run();
    let mut resumed = resumed;
    let got = resumed.run();
    assert_results_identical(&want, &got, "hot-swapped resume");
}

#[test]
fn failed_reconfigure_rolls_back_and_counts_the_recovery() {
    let sys = quick_sys();
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 17)[2];
    let mut sim = CmpSim::new(sys.clone(), &kind, mix);
    assert!(sim.run_for(40_000).is_none());

    let epoch_before = section_payload(&sim, "sim/epoch");

    // Floors that cannot all fit: QosGuarantee scales them down, which
    // violates the floor guarantee — the post-swap invariant check must
    // catch it and roll back.
    let err = sim
        .reconfigure(&Reconfig::QosContract {
            floors: vec![20_000; 4],
            weights: vec![1.0; 4],
        })
        .unwrap_err();
    assert!(
        matches!(err, ReconfigError::RolledBack(_)),
        "wanted rollback, got {err:?}"
    );
    assert_eq!(
        sim.epoch().active_policy(),
        Some(&ActivePolicy::Ucp),
        "active policy must revert to the pre-swap selection"
    );

    // The controller state is byte-identical to the pre-swap snapshot
    // except the rollback counter (the final u64 of the payload).
    let epoch_after = section_payload(&sim, "sim/epoch");
    assert_eq!(epoch_before.len(), epoch_after.len());
    let (body_b, ctr_b) = epoch_before.split_at(epoch_before.len() - 8);
    let (body_a, ctr_a) = epoch_after.split_at(epoch_after.len() - 8);
    assert_eq!(
        body_b, body_a,
        "controller state changed beyond the counter"
    );
    assert_eq!(
        u64::from_le_bytes(ctr_a.try_into().unwrap()),
        u64::from_le_bytes(ctr_b.try_into().unwrap()) + 1,
        "rollback not counted"
    );

    // Structurally invalid requests are rejected before any state changes.
    let err = sim
        .reconfigure(&Reconfig::QosContract {
            floors: vec![1; 2],
            weights: vec![1.0; 2],
        })
        .unwrap_err();
    assert!(matches!(err, ReconfigError::BadRequest(_)));
    let err = sim
        .reconfigure(&Reconfig::QosContract {
            floors: vec![1; 4],
            weights: vec![f64::NAN; 4],
        })
        .unwrap_err();
    assert!(matches!(err, ReconfigError::BadRequest(_)));

    // A feasible contract then goes through, and the run completes with
    // exactly the one rollback on the books.
    sim.reconfigure(&Reconfig::QosContract {
        floors: vec![1_000; 4],
        weights: vec![1.0, 1.0, 2.0, 4.0],
    })
    .expect("feasible contract installs");
    let r = sim.run();
    assert_eq!(r.reconfig_rollbacks, 1);
    assert_eq!(r.invariant_recoveries, 0);
}

#[test]
fn unmanaged_schemes_refuse_reconfiguration() {
    let kind = SchemeKind::Baseline {
        array: ArrayKind::SetAssoc { ways: 16 },
        rank: BaselineRank::Lru,
    };
    let mix = &mixes(4, 1, 7)[0];
    let mut sim = CmpSim::new(quick_sys(), &kind, mix);
    assert_eq!(
        sim.reconfigure(&Reconfig::Policy(PolicyKind::Equal)),
        Err(ReconfigError::Unmanaged)
    );
}

#[test]
fn restore_into_a_mismatched_host_is_a_typed_error() {
    let sys = quick_sys();
    let kind = SchemeKind::vantage_paper();
    let mix = &mixes(4, 1, 7)[12];
    let mut warm = CmpSim::new(sys.clone(), &kind, mix);
    assert!(warm.run_for(20_000).is_none());
    let bytes = warm.write_checkpoint().to_bytes();
    let reader = SnapshotReader::from_bytes(&bytes).unwrap();

    // Different seed: rejected up front with a mismatch.
    let mut other = sys.clone();
    other.seed ^= 0xBAD;
    let err = CmpSim::new(other, &kind, mix)
        .restore_checkpoint(&reader)
        .unwrap_err();
    assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err:?}");

    // Different scheme: some section refuses, typed, no panic.
    assert!(CmpSim::new(sys.clone(), &SchemeKind::WayPart, mix)
        .restore_checkpoint(&reader)
        .is_err());
}

/// Extracts one named section's payload from a sim checkpoint.
fn section_payload(sim: &CmpSim, name: &str) -> Vec<u8> {
    let bytes = sim.write_checkpoint().to_bytes();
    let reader = SnapshotReader::from_bytes(&bytes).expect("own checkpoint parses");
    let mut dec = reader.section(name).expect("section exists");
    let mut out = Vec::with_capacity(dec.remaining());
    while dec.remaining() > 0 {
        out.push(dec.take_u8().expect("in bounds"));
    }
    out
}
