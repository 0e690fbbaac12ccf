//! Hostile retargeting and lifecycle calls, fed to every `Llc`
//! implementation: each must come back as a typed `Err` — never an unwind —
//! and leave the cache exactly as it was, which a follow-up request stream
//! checks against an untouched twin.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vantage_repro::cache::{LineAddr, SetAssocArray, ZArray};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{
    AccessRequest, BankedLlc, BaselineLlc, Llc, PartitionId, PartitionSpec, PippConfig, PippLlc,
    RankPolicy, WayPartLlc,
};

const FRAMES: usize = 2048;
const PARTS: usize = 4;
/// The largest population a cache can be built with: every slot of the
/// `u16` tag lane but the unmanaged sentinel and the one `create` claims.
const MAX_BUILT: usize = PartitionId::MAX_PARTITIONS - 1;

fn vantage(frames: usize, parts: usize, seed: u64) -> VantageLlc {
    let array = Box::new(ZArray::new(frames, 4, 16, seed));
    VantageLlc::try_new(array, parts, VantageConfig::default(), seed).expect("valid Vantage")
}

fn vantage_banks(parts: usize) -> BankedLlc {
    let banks = (0..2)
        .map(|b| Box::new(vantage(FRAMES / 2, parts, b)) as Box<dyn Llc>)
        .collect();
    BankedLlc::try_new(banks, 7).expect("valid bank set")
}

/// Requests from the first `PARTS` partitions, over twice the capacity.
fn stream(n: u64, salt: u64) -> Vec<AccessRequest> {
    (0..n)
        .map(|i| {
            let addr = (i * 2_654_435_761 + salt) % (2 * FRAMES as u64);
            AccessRequest::read(PartitionId::from_index(i as usize % PARTS), LineAddr(addr))
        })
        .collect()
}

type Build = fn(usize) -> Box<dyn Llc>;

/// Every implementation, built for (up to) `parts` partitions.
const LLCS: [(&str, Build); 6] = [
    ("vantage", |parts| Box::new(vantage(FRAMES, parts, 1))),
    ("baseline", |parts| {
        let array = Box::new(SetAssocArray::hashed(FRAMES, 16, 1));
        Box::new(BaselineLlc::try_new(array, parts, RankPolicy::Lru).expect("valid baseline"))
    }),
    ("waypart", |parts| {
        Box::new(WayPartLlc::try_new(FRAMES, 16, parts.min(16), 1).expect("valid way-part"))
    }),
    ("pipp", |parts| {
        let pipp = PippLlc::try_new(FRAMES, 16, parts.min(16), PippConfig::default(), 1);
        Box::new(pipp.expect("valid PIPP"))
    }),
    ("banked", |parts| Box::new(vantage_banks(parts))),
    ("banked+queued", |parts| {
        let mut llc = vantage_banks(parts);
        llc.ingest(&stream(500, 3));
        Box::new(llc)
    }),
];

struct Case {
    name: &'static str,
    parts: usize,
    /// Runs on the cache and its twin alike.
    setup: fn(&mut dyn Llc),
    /// Runs on the cache only; must fail.
    hostile: fn(&mut dyn Llc) -> Result<(), String>,
}

fn targets_with(llc: &dyn Llc, head: &[u64]) -> Vec<u64> {
    let mut t = vec![0; llc.num_partitions()];
    t[..head.len()].copy_from_slice(head);
    t
}

const CASES: [Case; 6] = [
    Case {
        name: "wrong length",
        parts: PARTS,
        setup: |_| {},
        hostile: |llc| {
            let t = vec![1; llc.num_partitions() + 1];
            llc.set_targets(&t).map_err(|e| e.to_string())
        },
    },
    Case {
        name: "sum past capacity",
        parts: PARTS,
        setup: |_| {},
        hostile: |llc| {
            let t = targets_with(llc, &[1 << 40, 1 << 40]);
            llc.set_targets(&t).map_err(|e| e.to_string())
        },
    },
    Case {
        name: "overflowing sum",
        parts: PARTS,
        setup: |_| {},
        hostile: |llc| {
            let t = targets_with(llc, &[u64::MAX, 2]);
            llc.set_targets(&t).map_err(|e| e.to_string())
        },
    },
    Case {
        name: "destroy out of range",
        parts: PARTS,
        setup: |_| {},
        hostile: |llc| {
            let part = PartitionId::from_index(llc.num_partitions());
            llc.destroy_partition(part).map_err(|e| e.to_string())
        },
    },
    Case {
        name: "destroy twice",
        parts: PARTS,
        setup: |llc| {
            let _ = llc.destroy_partition(PartitionId::from_index(1));
        },
        hostile: |llc| {
            let part = PartitionId::from_index(1);
            llc.destroy_partition(part).map_err(|e| e.to_string())
        },
    },
    Case {
        name: "create past the slot space",
        parts: MAX_BUILT,
        setup: |llc| {
            let _ = llc.create_partition(PartitionSpec::with_target(0));
        },
        hostile: |llc| {
            let got = llc.create_partition(PartitionSpec::with_target(0));
            got.map(|_| ()).map_err(|e| e.to_string())
        },
    },
];

/// Builds, sets up and drives one cache; `hostile` runs between setup and
/// the follow-up stream. Returns the stream's outcomes.
fn follow_up(build: Build, case: &Case, hostile: bool, what: &str) -> Vec<bool> {
    let mut llc = build(case.parts);
    (case.setup)(llc.as_mut());
    if hostile {
        let got = catch_unwind(AssertUnwindSafe(|| (case.hostile)(llc.as_mut())));
        match got {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("{what}: accepted"),
            Err(_) => panic!("{what}: unwound instead of returning Err"),
        }
    }
    let mut out = Vec::new();
    llc.access_batch(&stream(3000, 11), &mut out);
    out.iter().map(|o| o.is_hit()).collect()
}

#[test]
fn hostile_calls_fail_typed_and_leave_the_cache_untouched() {
    for case in &CASES {
        for (llc, build) in LLCS {
            let what = format!("{llc}, {}", case.name);
            // One cache alive at a time: the slot-space case builds 65K
            // partitions per bank.
            let after = follow_up(build, case, true, &what);
            let twin = follow_up(build, case, false, &what);
            assert_eq!(after, twin, "{what}: the refused call changed the cache");
        }
    }
}
