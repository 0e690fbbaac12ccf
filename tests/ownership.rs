//! Ownership-layer integration tests: the `ShareMode` contract observed
//! from outside the cache.
//!
//! * `Replicate` trades capacity for isolation by salting shared
//!   addresses per partition — however hard partitions hammer a common
//!   hot set, total occupancy never exceeds the array and no
//!   cross-partition hit is ever observed.
//! * `Pin` resolves cross-partition hits in place — lines never change
//!   owner, so the `OwnershipTransfer` telemetry lane and observation
//!   counters must stay silent.

use proptest::prelude::*;
use vantage_repro::cache::{ShareMode, ZArray};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{Llc, PartitionId};
use vantage_repro::telemetry::{RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
use vantage_repro::workloads::SharedHotSet;

/// Builds a Vantage cache over `frames` Z4/16 lines in `mode`.
fn vantage(frames: usize, parts: usize, mode: ShareMode, seed: u64) -> VantageLlc {
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(frames, 4, 16, seed)),
        parts,
        VantageConfig::default(),
        seed,
    )
    .expect("valid Vantage config");
    llc.set_targets(&vec![(frames / (2 * parts)) as u64; parts]);
    assert!(llc.set_share_mode(mode), "vantage supports every mode");
    llc
}

/// Drives `chunk`-sized rounds of shared-hot-set traffic from every
/// partition through `llc`.
fn drive_shared(llc: &mut dyn Llc, gen: &SharedHotSet, parts: usize, rounds: u64, chunk: usize) {
    let mut reqs = Vec::new();
    let mut outs = Vec::new();
    for round in 0..rounds {
        reqs.clear();
        outs.clear();
        for p in 0..parts {
            gen.fill(
                PartitionId::from_index(p),
                round * chunk as u64,
                chunk,
                &mut reqs,
            );
        }
        llc.access_batch(&reqs, &mut outs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replicate conserves occupancy: per-partition copies of the shared
    /// set never sum past the array, and no cross-partition hit leaks
    /// through the per-partition address salt.
    #[test]
    fn replicate_conserves_occupancy(seed in 0u64..1 << 16, parts in 2usize..5) {
        let frames = 2048;
        let mut llc = vantage(frames, parts, ShareMode::Replicate, seed);
        let gen = SharedHotSet::new(seed);
        for _ in 0..4 {
            drive_shared(&mut llc, &gen, parts, 2, 1500);
            let obs = llc.observations();
            let total: u64 = obs.actual.iter().sum();
            prop_assert!(
                total <= frames as u64,
                "replicas overran the array: {total} > {frames}"
            );
            prop_assert!(
                obs.shared_hits.iter().all(|&s| s == 0),
                "salted replicas must never cross-hit: {:?}",
                obs.shared_hits
            );
            prop_assert!(
                obs.ownership_transfers.iter().all(|&t| t == 0),
                "replicate never adopts: {:?}",
                obs.ownership_transfers
            );
        }
    }
}

/// Pin never transfers ownership: heavy cross-partition sharing produces
/// shared hits but not a single `OwnershipTransfer` event or counter.
#[test]
fn pin_never_emits_ownership_transfers() {
    let parts = 4;
    let mut llc = vantage(4096, parts, ShareMode::Pin, 33);
    let (sink, reader) = RingSink::with_capacity(1 << 20);
    assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 512)));
    let gen = SharedHotSet::new(33);
    drive_shared(&mut llc, &gen, parts, 8, 2000);
    llc.take_telemetry();
    let obs = llc.observations();
    assert!(
        obs.shared_hits.iter().sum::<u64>() > 0,
        "the hot set must actually be shared for this test to bite"
    );
    assert_eq!(
        obs.ownership_transfers.iter().sum::<u64>(),
        0,
        "pin froze ownership"
    );
    let transfers = reader
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r,
                TelemetryRecord::Event(TelemetryEvent::OwnershipTransfer { .. })
            )
        })
        .count();
    assert_eq!(transfers, 0, "no OwnershipTransfer event under pin");
}

/// Adopt, by contrast, both cross-hits and transfers — the control that
/// the pin test above is not vacuous.
#[test]
fn adopt_does_emit_ownership_transfers() {
    let parts = 4;
    let mut llc = vantage(4096, parts, ShareMode::Adopt, 33);
    let gen = SharedHotSet::new(33);
    drive_shared(&mut llc, &gen, parts, 8, 2000);
    let obs = llc.observations();
    assert!(obs.shared_hits.iter().sum::<u64>() > 0);
    assert!(obs.ownership_transfers.iter().sum::<u64>() > 0);
}
