//! Equivalence tests for the pluggable allocation-policy layer.
//!
//! The tentpole refactor moved UCP out of `CmpSim` and behind the
//! `AllocationPolicy` trait; these tests pin golden values captured from
//! the pre-refactor simulator (where UCP was hard-wired into
//! `CmpSim::new`/`repartition`) and assert the trait path reproduces them
//! **bit-for-bit** — miss counts, IPC bit patterns, and an FNV-1a digest
//! of every trace sample. They also drive each alternative policy end to
//! end with telemetry attached.

use vantage_repro::sim::{CmpSim, PolicyKind, SchemeKind, SimResult, SystemConfig};
use vantage_repro::telemetry::{RingSink, Telemetry};
use vantage_repro::workloads::mixes;

/// The machine the goldens were captured on: small-scale, shortened run.
fn golden_sys() -> SystemConfig {
    let mut sys = SystemConfig::small_scale();
    sys.instructions = 300_000;
    sys.repartition_interval = 50_000;
    sys
}

/// FNV-1a over every trace sample's targets, actuals and cycle — any
/// reordering or perturbation of the repartitioning schedule changes it.
fn trace_digest(r: &SimResult) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for s in &r.trace {
        for &v in s.targets.iter().chain(s.actuals.iter()).chain([&s.cycle]) {
            d ^= v;
            d = d.wrapping_mul(0x0100_0000_01b3);
        }
    }
    d
}

struct Golden {
    mix: usize,
    kind: SchemeKind,
    misses: [u64; 4],
    ipc_bits: [u64; 4],
    trace_len: usize,
    trace_digest: u64,
}

/// Golden values captured from the pre-refactor simulator (UCP hard-wired
/// into `CmpSim`, commit e46cf16) on `mixes(4, 1, 11)` with the machine
/// from [`golden_sys`] and a 60 000-cycle trace interval.
#[test]
fn ucp_via_trait_is_bit_identical_to_prerefactor() {
    let goldens = [
        Golden {
            mix: 17,
            kind: SchemeKind::vantage_paper(),
            misses: [11342, 9855, 9024, 1469],
            ipc_bits: [
                4592842332003511917,
                4593819492146314407,
                4594211833307959624,
                4602323833278804831,
            ],
            trace_len: 44,
            trace_digest: 0x5d53ac05aedd9dc9,
        },
        Golden {
            mix: 8,
            kind: SchemeKind::vantage_paper(),
            misses: [19695, 15430, 9877, 1094],
            ipc_bits: [
                4589522280749376594,
                4590823856217834203,
                4593862152800600933,
                4603115977430315138,
            ],
            trace_len: 74,
            trace_digest: 0x91d4e9ab1c6fc478,
        },
        Golden {
            mix: 17,
            kind: SchemeKind::WayPart,
            misses: [11368, 9933, 9068, 1469],
            ipc_bits: [
                4592829756755653490,
                4593790986840461062,
                4594193015516276862,
                4602323971801321564,
            ],
            trace_len: 44,
            trace_digest: 0xbfcef3eb09c4b2ac,
        },
        Golden {
            mix: 8,
            kind: SchemeKind::Pipp,
            misses: [19672, 15439, 9877, 1094],
            ipc_bits: [
                4589528837387654270,
                4590824725072776549,
                4593862152800600933,
                4603115977430315138,
            ],
            trace_len: 74,
            trace_digest: 0x4bf32cfae69028b2,
        },
    ];
    let all = mixes(4, 1, 11);
    for g in &goldens {
        let mix = &all[g.mix];
        let mut sim = CmpSim::new(golden_sys(), &g.kind, mix);
        sim.enable_trace(60_000);
        let r = sim.run();
        let ctx = format!("mix {} under {}", mix.name, r.label);
        assert_eq!(r.l2_misses, g.misses, "misses diverged: {ctx}");
        let bits: Vec<u64> = r.ipc.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, g.ipc_bits, "IPC bit patterns diverged: {ctx}");
        assert_eq!(r.trace.len(), g.trace_len, "trace length diverged: {ctx}");
        assert_eq!(
            trace_digest(&r),
            g.trace_digest,
            "trace digest diverged: {ctx}"
        );
    }
}

/// Explicitly requesting the default policy must be a no-op: same label,
/// same results as leaving `SystemConfig::policy` untouched.
#[test]
fn explicit_ucp_policy_matches_default() {
    let mix = &mixes(4, 1, 11)[17];
    let a = CmpSim::new(golden_sys(), &SchemeKind::vantage_paper(), mix).run();
    let mut sys = golden_sys();
    sys.policy = PolicyKind::Ucp;
    let b = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix).run();
    assert_eq!(a.label, b.label);
    assert_eq!(a.l2_misses, b.l2_misses);
    assert_eq!(a.ipc, b.ipc);
}

/// Every policy runs end to end on a UCP-managed scheme with telemetry
/// flowing, produces sane IPCs, and tags its label so artifacts from
/// different policies cannot be confused.
#[test]
fn every_policy_runs_end_to_end_with_telemetry() {
    let mix = &mixes(4, 1, 11)[8];
    let mut labels = Vec::new();
    for kind in PolicyKind::ALL {
        let mut sys = golden_sys();
        sys.policy = kind;
        let mut sim = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix);
        let (sink, reader) = RingSink::with_capacity(1 << 16);
        assert!(sim.set_telemetry(Telemetry::new(Box::new(sink), 1024)));
        let r = sim.run();
        sim.take_telemetry();
        assert_eq!(r.ipc.len(), 4, "{}", r.label);
        assert!(
            r.ipc.iter().all(|&i| i > 0.0 && i <= 1.0),
            "{}: IPCs {:?}",
            r.label,
            r.ipc
        );
        assert!(
            !reader.records().is_empty(),
            "{}: telemetry captured nothing",
            r.label
        );
        if kind != PolicyKind::Ucp {
            assert!(
                r.label.ends_with(&format!("+{}", kind.label())),
                "{}: label must carry the policy tag",
                r.label
            );
        }
        labels.push(r.label);
    }
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), PolicyKind::ALL.len(), "labels collide");
}

/// The same non-default policy run twice is deterministic (the policy layer
/// introduced no hidden global state).
#[test]
fn alternative_policies_are_deterministic() {
    let mix = &mixes(4, 1, 11)[8];
    for kind in [PolicyKind::Equal, PolicyKind::MissRatio, PolicyKind::Qos] {
        let mut sys = golden_sys();
        sys.policy = kind;
        let a = CmpSim::new(sys.clone(), &SchemeKind::vantage_paper(), mix).run();
        let b = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix).run();
        assert_eq!(a.l2_misses, b.l2_misses, "{}", a.label);
        assert_eq!(a.ipc, b.ipc, "{}", a.label);
    }
}

/// Policies must actually steer the cache: equal-shares allocates
/// differently from UCP's lookahead on a heterogeneous mix, so the runs
/// diverge (if they did not, the policy knob would be dead).
#[test]
fn policies_change_behavior() {
    let mix = &mixes(4, 1, 11)[8];
    let ucp = CmpSim::new(golden_sys(), &SchemeKind::vantage_paper(), mix).run();
    let mut sys = golden_sys();
    sys.policy = PolicyKind::Equal;
    let eq = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix).run();
    assert_ne!(
        ucp.l2_misses, eq.l2_misses,
        "equal-shares should allocate differently from lookahead"
    );
}

/// The invariant-checking path recovers (scrub + count) instead of
/// panicking, and a clean run reports zero recoveries.
#[test]
fn invariant_checking_recovers_instead_of_panicking() {
    let mix = &mixes(4, 1, 11)[17];
    let mut sys = golden_sys();
    sys.check_invariants = true;
    let r = CmpSim::new(sys, &SchemeKind::vantage_paper(), mix)
        .try_run()
        .expect("clean run passes invariant checks");
    assert_eq!(r.invariant_recoveries, 0);
}

/// Order-independent multiset digest of a telemetry capture: each record's
/// CSV rendering is FNV-1a hashed and the per-record hashes are summed
/// (wrapping), so any added, dropped or altered record changes the digest
/// while buffering-order differences do not.
fn telemetry_multiset(records: &[vantage_repro::telemetry::TelemetryRecord]) -> (usize, u64) {
    use vantage_repro::telemetry::to_csv_row;
    let mut sum = 0u64;
    for rec in records {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in to_csv_row(rec).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        sum = sum.wrapping_add(h);
    }
    (records.len(), sum)
}

/// Telemetry multiset goldens for the three partitioning schemes: the
/// event stream a golden run emits is pinned as a record count plus an
/// order-independent digest, so a scheme change that perturbs *any*
/// demotion, eviction, aperture or sampling event is caught even when the
/// miss counts happen to survive.
#[test]
fn telemetry_multisets_match_goldens() {
    let goldens: [(usize, SchemeKind, usize, u64); 3] = [
        (17, SchemeKind::vantage_paper(), 17503, 0x05ff6c7d0cdf8a92),
        (17, SchemeKind::WayPart, 9620, 0x65499eed1a897c9a),
        (8, SchemeKind::Pipp, 26992, 0x2bd91184af36001e),
    ];
    let all = mixes(4, 1, 11);
    for (mix_idx, kind, want_len, want_digest) in goldens {
        let mix = &all[mix_idx];
        let mut sim = CmpSim::new(golden_sys(), &kind, mix);
        let (sink, reader) = RingSink::with_capacity(1 << 18);
        assert!(sim.set_telemetry(Telemetry::new(Box::new(sink), 1024)));
        let r = sim.run();
        sim.take_telemetry();
        let (len, digest) = telemetry_multiset(&reader.records());
        let ctx = format!("mix {} under {}", mix.name, r.label);
        assert_eq!(len, want_len, "telemetry record count diverged: {ctx}");
        assert_eq!(
            digest, want_digest,
            "telemetry multiset digest diverged: {ctx} (len {len}, digest {digest:#018x})"
        );
    }
}
