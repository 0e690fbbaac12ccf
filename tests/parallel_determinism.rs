//! Schedule-equivalence tests for the banked LLC: on the same seeded mixed
//! trace, [`BankedLlc`] windows of any size must be indistinguishable from
//! the same machine served one access at a time — same outcome stream,
//! same statistics, same partition sizes, and the same multiset of
//! telemetry records (per-bank streams interleave differently in the
//! shared ring, so order is not part of the contract).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_partitioning::PartitionId;
use vantage_repro::cache::{LineAddr, ZArray};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{AccessOutcome, AccessRequest, BankedLlc, Llc};
use vantage_repro::telemetry::{RingSink, Telemetry};

const PARTS: usize = 4;
const BANKS: usize = 4;
const FRAMES: usize = 8 * 1024;

/// Seeded mixed trace: reads and writes over per-partition working sets
/// sized for steady churn (hits, misses, demotions and evictions all
/// occur).
fn mixed_trace(n: u64, seed: u64) -> Vec<AccessRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p = (rng.gen::<u32>() as usize) % PARTS;
            let base = (p as u64 + 1) << 40;
            let addr = LineAddr(base + rng.gen_range(0..(FRAMES as u64 / 2)));
            if rng.gen_ratio(1, 4) {
                AccessRequest::write(PartitionId::from_index(p), addr)
            } else {
                AccessRequest::read(PartitionId::from_index(p), addr)
            }
        })
        .collect()
}

/// The gate configuration in miniature: `BANKS` Vantage-Z4/52 banks behind
/// an address-interleaved [`BankedLlc`] with even targets. Deterministic in
/// `seed`.
fn build_banked(seed: u64) -> BankedLlc {
    let banks = (0..BANKS)
        .map(|b| {
            let array = ZArray::new(FRAMES / BANKS, 4, 52, seed ^ (b as u64 + 1));
            Box::new(
                VantageLlc::try_new(
                    Box::new(array),
                    PARTS,
                    VantageConfig::default(),
                    seed ^ ((b as u64) << 8),
                )
                .expect("valid Vantage config"),
            ) as Box<dyn Llc>
        })
        .collect();
    let mut llc = BankedLlc::try_new(banks, seed ^ 0xBA2C).expect("valid bank set");
    llc.set_targets(&[(FRAMES / PARTS) as u64; PARTS])
        .expect("targets fit");
    llc
}

/// Everything observable about a run: the outcome stream, final statistics,
/// partition sizes, and the telemetry record multiset (sorted rendering).
struct Observed {
    outcomes: Vec<AccessOutcome>,
    stats: String,
    sizes: Vec<u64>,
    telemetry: Vec<String>,
}

fn observe(
    llc: &mut dyn Llc,
    outcomes: Vec<AccessOutcome>,
    reader: impl FnOnce() -> Vec<String>,
) -> Observed {
    let stats = format!("{:?}", llc.stats_mut());
    let sizes = (0..llc.num_partitions())
        .map(|p| llc.partition_size(PartitionId::from_index(p)))
        .collect();
    let mut telemetry = reader();
    telemetry.sort_unstable();
    Observed {
        outcomes,
        stats,
        sizes,
        telemetry,
    }
}

/// Drives `llc` one access at a time with telemetry attached.
fn run_serial(mut llc: BankedLlc, reqs: &[AccessRequest]) -> Observed {
    let (sink, reader) = RingSink::with_capacity(1 << 20);
    assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 512)));
    let outcomes: Vec<AccessOutcome> = reqs.iter().map(|&r| llc.access(r)).collect();
    llc.take_telemetry();
    observe(&mut llc, outcomes, || {
        reader.records().iter().map(|r| format!("{r:?}")).collect()
    })
}

/// Drives `llc` through `access_batch` in uneven `chunk`-sized pieces (to
/// exercise batch boundaries) with telemetry attached. Each chunk is
/// sharded into the per-bank rings and drained bank-major, so this
/// exercises the full shard/queue/drain path.
fn run_batched(mut llc: impl Llc, reqs: &[AccessRequest], chunk: usize) -> Observed {
    let (sink, reader) = RingSink::with_capacity(1 << 20);
    assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 512)));
    let mut outcomes = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(chunk) {
        llc.access_batch(chunk, &mut outcomes);
    }
    llc.take_telemetry();
    observe(&mut llc, outcomes, || {
        reader.records().iter().map(|r| format!("{r:?}")).collect()
    })
}

/// The batch determinism claim: sharding each batch by bank on the calling
/// thread replays the per-access serial reference bit-for-bit.
#[test]
fn batched_engine_matches_serial() {
    let reqs = mixed_trace(120_000, 0xD15C);
    let reference = run_serial(build_banked(9), &reqs);
    assert!(
        reference.outcomes.iter().any(|o| o.is_hit())
            && reference.outcomes.iter().any(|o| !o.is_hit()),
        "trace must exercise both hits and misses"
    );
    assert!(
        !reference.telemetry.is_empty(),
        "telemetry captured nothing"
    );

    let got = run_batched(build_banked(9), &reqs, 999);
    assert_eq!(got.outcomes, reference.outcomes, "outcome stream diverged");
    assert_eq!(got.stats, reference.stats, "stats diverged");
    assert_eq!(got.sizes, reference.sizes, "sizes diverged");
    assert_eq!(
        got.telemetry, reference.telemetry,
        "telemetry record multiset diverged"
    );
}
