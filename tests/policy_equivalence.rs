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
use vantage_repro::telemetry::{RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
use vantage_repro::workloads::{mixes, Mix};

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

/// The flat row encoding the goldens below were captured over (the
/// telemetry crate's former CSV row, kept here so the digests stay pinned
/// now that the crate writes JSON Lines only).
fn golden_row(rec: &TelemetryRecord) -> String {
    use TelemetryEvent as E;
    match rec {
        TelemetryRecord::Sample(p) => {
            let mut s = format!(
                "sample,{},{},{},{},{:.6},{},{},",
                p.access, p.part, p.actual, p.target, p.aperture, p.window, p.churn
            );
            if p.shared != 0 || p.transfers != 0 {
                s += &format!("shared={};transfers={}", p.shared, p.transfers);
            }
            s
        }
        TelemetryRecord::Event(ev) => {
            let (kind, part, detail) = match *ev {
                E::Demotion { part, .. } => ("demotion", Some(part), String::new()),
                E::Promotion { part, .. } => ("promotion", Some(part), String::new()),
                E::Eviction { part, forced, .. } => {
                    ("eviction", Some(part), format!("forced={forced}"))
                }
                E::SetpointAdjust {
                    part,
                    direction,
                    window,
                    ..
                } => (
                    "setpoint",
                    Some(part),
                    format!("direction={direction};window={window}"),
                ),
                E::ApertureUpdate { part, aperture, .. } => {
                    ("aperture", Some(part), format!("aperture={aperture:.6}"))
                }
                E::Scrub { repairs, .. } => ("scrub", None, format!("repairs={repairs}")),
                E::PartitionCreated { part, target, .. } => {
                    ("created", Some(part), format!("target={target}"))
                }
                E::PartitionDestroyed { part, .. } => ("destroyed", Some(part), String::new()),
                E::SharedHit { part, owner, .. } => {
                    ("shared_hit", Some(part), format!("owner={owner}"))
                }
                E::OwnershipTransfer { part, from, .. } => {
                    ("transfer", Some(part), format!("from={from}"))
                }
                E::Replica { part, .. } => ("replica", Some(part), String::new()),
            };
            let part = part.map(|p| p.to_string()).unwrap_or_default();
            format!("{kind},{},{part},,,,,,{detail}", ev.access())
        }
    }
}

/// Order-independent multiset digest of a telemetry capture: each record's
/// [`golden_row`] is FNV-1a hashed and the per-record hashes are summed
/// (wrapping), so any added, dropped or altered record changes the digest
/// while buffering-order differences do not.
fn telemetry_multiset(records: &[TelemetryRecord]) -> (usize, u64) {
    let mut sum = 0u64;
    for rec in records {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in golden_row(rec).bytes() {
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

/// One run under a non-UCP policy: the epoch controller's targets are
/// folded into an FNV-1a digest at every repartitioning boundary, next to
/// the run's L2 misses and IPC bit patterns.
struct PolicyGolden {
    policy: PolicyKind,
    kind: SchemeKind,
    banks: usize,
    epochs: usize,
    targets_digest: u64,
    misses: [u64; 4],
    ipc_bits: [u64; 4],
}

/// References per `run_for` slice: small enough that no slice crosses two
/// epoch boundaries, so every epoch's targets are read.
const EPOCH_PROBE_STEP: u64 = 32;

/// Runs `sys` on `kind` to completion, reading the installed targets after
/// every epoch boundary. Returns the result, the epoch count and the digest.
fn run_with_epoch_digest(
    sys: SystemConfig,
    kind: &SchemeKind,
    mix: &Mix,
) -> (SimResult, usize, u64) {
    let interval = sys.repartition_interval;
    let mut sim = CmpSim::new(sys, kind, mix);
    let mut next = sim.epoch().next_at();
    let mut epochs = 0;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    loop {
        let done = sim.run_for(EPOCH_PROBE_STEP);
        if sim.epoch().next_at() != next {
            assert_eq!(
                sim.epoch().next_at(),
                next + interval,
                "a probe slice crossed two epoch boundaries"
            );
            next = sim.epoch().next_at();
            epochs += 1;
            for &t in sim.epoch().targets() {
                digest ^= t;
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
        if let Some(r) = done {
            return (r, epochs, digest);
        }
    }
}

/// Goldens for the Equal, MissRatio, Qos and Clustered policies on mix 8,
/// on Vantage and WayPart, plus Qos on a 4-bank WayPart machine, where
/// every bank turns its share of the targets into whole ways. Captured
/// before the allocation layer's rounding was folded into one routine;
/// they pin every policy's per-epoch targets, not only UCP's.
#[test]
fn alternative_policies_match_goldens() {
    let goldens = [
        PolicyGolden {
            policy: PolicyKind::Equal,
            kind: SchemeKind::vantage_paper(),
            banks: 1,
            epochs: 88,
            targets_digest: 0x094a_9a6d_9b94_eea5,
            misses: [19666, 15433, 9877, 1094],
            ipc_bits: [
                4589529644251122317,
                4590824122991659840,
                4593862152800600933,
                4603115977430315138,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::MissRatio,
            kind: SchemeKind::vantage_paper(),
            banks: 1,
            epochs: 88,
            targets_digest: 0xfe58_15b5_dbf6_03a5,
            misses: [19668, 15434, 9877, 1094],
            ipc_bits: [
                4589529582933239823,
                4590821752673552926,
                4593862152800600933,
                4603115977430315138,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::Qos,
            kind: SchemeKind::vantage_paper(),
            banks: 1,
            epochs: 88,
            targets_digest: 0x07ea_8380_ba22_b815,
            misses: [19662, 15435, 9877, 1094],
            ipc_bits: [
                4589531236867375948,
                4590823775488204798,
                4593862152800600933,
                4603115977430315138,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::Clustered,
            kind: SchemeKind::vantage_paper(),
            banks: 1,
            epochs: 88,
            targets_digest: 0x07ea_8380_ba22_b815,
            misses: [19662, 15435, 9877, 1094],
            ipc_bits: [
                4589531236867375948,
                4590823775488204798,
                4593862152800600933,
                4603115977430315138,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::Equal,
            kind: SchemeKind::WayPart,
            banks: 1,
            epochs: 89,
            targets_digest: 0x347e_7a1b_f98c_9775,
            misses: [19776, 15552, 9921, 1094],
            ipc_bits: [
                4589500851360015971,
                4590777071091296156,
                4593845379930739813,
                4603116158115272499,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::MissRatio,
            kind: SchemeKind::WayPart,
            banks: 1,
            epochs: 89,
            targets_digest: 0xf6bf_7732_f668_b775,
            misses: [19754, 15538, 9947, 1094],
            ipc_bits: [
                4589506825175227524,
                4590783291210504365,
                4593835454642725029,
                4603116158115272499,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::Qos,
            kind: SchemeKind::WayPart,
            banks: 1,
            epochs: 88,
            targets_digest: 0xd7a9_5994_8ec5_afa3,
            misses: [19640, 15452, 9921, 1094],
            ipc_bits: [
                4589532074120822581,
                4590812955839483540,
                4593844726239997791,
                4603116158115272499,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::Clustered,
            kind: SchemeKind::WayPart,
            banks: 1,
            epochs: 88,
            targets_digest: 0xd7a9_5994_8ec5_afa3,
            misses: [19640, 15452, 9921, 1094],
            ipc_bits: [
                4589532074120822581,
                4590812955839483540,
                4593844726239997791,
                4603116158115272499,
            ],
        },
        PolicyGolden {
            policy: PolicyKind::Qos,
            kind: SchemeKind::WayPart,
            banks: 4,
            epochs: 89,
            targets_digest: 0xa256_0b52_dd41_a087,
            misses: [19704, 15459, 9912, 1094],
            ipc_bits: [
                4589519771219226105,
                4590814409443108541,
                4593848472764835894,
                4603115977430315138,
            ],
        },
    ];
    let mix = &mixes(4, 1, 11)[8];
    for g in &goldens {
        let mut sys = golden_sys();
        sys.policy = g.policy;
        sys.banks = g.banks;
        let (r, epochs, digest) = run_with_epoch_digest(sys, &g.kind, mix);
        let bits: Vec<u64> = r.ipc.iter().map(|x| x.to_bits()).collect();
        let ctx = format!(
            "{} on {} banks: epochs {epochs}, digest {digest:#018x}, misses {:?}, ipc bits {bits:?}",
            r.label, g.banks, r.l2_misses
        );
        assert_eq!(epochs, g.epochs, "epoch count diverged: {ctx}");
        assert_eq!(digest, g.targets_digest, "target digest diverged: {ctx}");
        assert_eq!(r.l2_misses, g.misses, "misses diverged: {ctx}");
        assert_eq!(bits, g.ipc_bits, "IPC bit patterns diverged: {ctx}");
    }
}
