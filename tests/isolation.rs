//! Cross-crate isolation properties: the guarantees Vantage claims over
//! soft schemes, measured end to end.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_partitioning::PartitionId;
use vantage_repro::cache::ZArray;
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{
    AccessRequest, BaselineLlc, Llc, PippConfig, PippLlc, RankPolicy,
};

const LINES: usize = 8 * 1024;

/// Loads a quiet working set into partition 0, thrashes from partition 1,
/// then measures how many of partition 0's re-read accesses miss.
fn victim_misses(llc: &mut dyn Llc, ws: u64) -> u64 {
    for i in 0..ws {
        llc.access(AccessRequest::read(
            PartitionId::from_index(0),
            (0x10_0000u64 + i).into(),
        ));
    }
    for i in 0..ws {
        llc.access(AccessRequest::read(
            PartitionId::from_index(0),
            (0x10_0000u64 + i).into(),
        ));
    }
    for i in 0..600_000u64 {
        llc.access(AccessRequest::read(
            PartitionId::from_index(1),
            (0x99_0000_0000u64 + i).into(),
        ));
    }
    let before = llc.stats().misses[0];
    for i in 0..ws {
        llc.access(AccessRequest::read(
            PartitionId::from_index(0),
            (0x10_0000u64 + i).into(),
        ));
    }
    llc.stats().misses[0] - before
}

#[test]
fn vantage_protects_quiet_partitions_where_lru_does_not() {
    let ws = 2_000u64;

    let mut lru = BaselineLlc::try_new(Box::new(ZArray::new(LINES, 4, 52, 2)), 2, RankPolicy::Lru)
        .expect("valid baseline geometry");
    let lru_misses = victim_misses(&mut lru, ws);

    let mut vantage = VantageLlc::try_new(
        Box::new(ZArray::new(LINES, 4, 52, 2)),
        2,
        VantageConfig::default(),
        1,
    )
    .expect("valid Vantage config");
    vantage.set_targets(&[3_000, (LINES as u64) - 3_000]);
    let vantage_misses = victim_misses(&mut vantage, ws);

    assert!(
        lru_misses > ws * 9 / 10,
        "LRU should have flushed the quiet working set ({lru_misses}/{ws})"
    );
    assert!(
        vantage_misses < ws / 10,
        "Vantage failed to protect the quiet partition ({vantage_misses}/{ws})"
    );
}

#[test]
fn pipp_only_approximates_what_vantage_enforces() {
    // PIPP's pseudo-partitioning lets a churning partition exceed its share
    // at a quiet partner's expense; Vantage's bound is strict.
    let ws = 2_000u64;
    let mut pipp =
        PippLlc::try_new(LINES, 16, 2, PippConfig::default(), 3).expect("valid PIPP geometry");
    pipp.set_targets(&[(LINES / 2) as u64, (LINES / 2) as u64])
        .expect("targets fit");
    let pipp_misses = victim_misses(&mut pipp, ws);

    let mut vantage = VantageLlc::try_new(
        Box::new(ZArray::new(LINES, 4, 52, 3)),
        2,
        VantageConfig::default(),
        1,
    )
    .expect("valid Vantage config");
    vantage.set_targets(&[(LINES / 2) as u64, (LINES / 2) as u64]);
    let vantage_misses = victim_misses(&mut vantage, ws);

    assert!(
        vantage_misses <= pipp_misses,
        "Vantage ({vantage_misses}) should not leak more than PIPP ({pipp_misses})"
    );
    assert!(
        vantage_misses < ws / 10,
        "Vantage leak too large: {vantage_misses}/{ws}"
    );
}

#[test]
fn partitions_bound_sizes_even_with_32_uneven_partitions() {
    // Fine-grain scalability: 32 partitions with targets from 64 to ~1700
    // lines, all churning; every actual size lands within slack + MSS of
    // its target.
    let parts = 32;
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(LINES, 4, 52, 4)),
        parts,
        VantageConfig::default(),
        1,
    )
    .expect("valid Vantage config");
    // Targets 64..312 lines sum to 6016 ≤ capacity; the spare goes to the
    // last partition.
    let mut targets: Vec<u64> = (0..parts as u64).map(|p| 64 + p * 8).collect();
    let spare = LINES as u64 - targets.iter().sum::<u64>();
    targets[31] += spare;
    llc.set_targets(&targets);

    let mut rng = SmallRng::seed_from_u64(8);
    for i in 0..2_000_000u64 {
        let p = (i % parts as u64) as usize;
        let base = (p as u64 + 1) << 40;
        llc.access(AccessRequest::read(
            PartitionId::from_index(p),
            (base + rng.gen_range(0..50_000u64)).into(),
        ));
    }
    llc.invariants().expect("invariants hold");

    // MSS bound (Eq. 6): total borrowed ≈ 1/(A_max·R) of the cache.
    let mss_total = LINES as f64 / (0.5 * 52.0);
    for p in 0..parts {
        let t = llc.partition_target(PartitionId::from_index(p)) as f64;
        let s = llc.partition_size(PartitionId::from_index(p)) as f64;
        assert!(
            s <= t * 1.15 + mss_total,
            "partition {p}: size {s} vs target {t} (bound {})",
            t * 1.15 + mss_total
        );
    }
}
