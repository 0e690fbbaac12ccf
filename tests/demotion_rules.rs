//! Goldens for the demotion rules other than plain Setpoint + LRU.
//!
//! `policy_equivalence` and `aliasing_clamp` pin the practical controller
//! with LRU ranks only. These runs pin the other rules of `VantageLlc`'s
//! replacement process (§4.3) — Vantage-RRIP, the idealized
//! perfect-aperture controller (Vantage-Ideal), the Fig. 2b exactly-one
//! strawman — plus Setpoint + LRU at the smallest feedback period with a
//! partition destroyed mid-run, and Setpoint + LRU and Vantage-Ideal with
//! the priority probe under tag faults and periodic scrubs, which drive
//! the corrupted-ID fallbacks of the candidate scan and rank lines while
//! their tags are corrupted. Each run is a Z4/52 cache with 4 partitions
//! at 2× capacity pressure, cross-partition traffic to a shared hot set,
//! and one mid-run target flip; the goldens pin outcomes, controller
//! counters, sizes and the full snapshot (both tag lanes), so any change
//! to which line a miss demotes or evicts, or to how a line is stamped,
//! fails here.

use vantage_repro::cache::replacement::rrip::BasePolicy;
use vantage_repro::cache::{LineAddr, ShareMode, ZArray};
use vantage_repro::core::{
    DemotionMode, FaultKind, FaultPlan, RankMode, VantageConfig, VantageLlc,
};
use vantage_repro::partitioning::{AccessRequest, Llc, PartitionId};
use vantage_repro::snapshot::{Encoder, Snapshot};

const FRAMES: usize = 4096;
const PARTS: usize = 4;
const ACCESSES: u64 = 120_000;
/// Per-partition working sets: together twice the cache.
const WORKING_SET: [u64; PARTS] = [3072, 2048, 1536, 1536];
/// Lines every partition shares (cross-partition hits).
const SHARED: u64 = 256;
const TARGETS: [u64; PARTS] = [1536, 1024, 768, 768];
const FLIPPED: [u64; PARTS] = [512, 1024, 1280, 1280];

/// SplitMix64: the scenario's only source of randomness.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(d: &mut u64, v: u64) {
    *d ^= v;
    *d = d.wrapping_mul(0x0100_0000_01b3);
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One request of the stream: a partition, and either a shared line (one
/// access in ten) or one of the partition's own lines, an eighth of which
/// are hot.
fn request(i: u64) -> AccessRequest {
    let r = mix(i);
    let p = (r % PARTS as u64) as usize;
    let k = if (r >> 8).is_multiple_of(10) {
        (r >> 16) % SHARED
    } else if (r >> 12).is_multiple_of(2) {
        ((p as u64 + 1) << 20) | ((r >> 16) % (WORKING_SET[p] / 8))
    } else {
        ((p as u64 + 1) << 20) | ((r >> 16) % WORKING_SET[p])
    };
    // Scrambled so the H3-indexed array sees high-entropy addresses.
    AccessRequest::read(PartitionId::from_index(p), LineAddr(mix(k) >> 24))
}

struct Outcome {
    hits: u64,
    outcomes: u64,
    stats: String,
    sizes: u64,
    state: u64,
    samples: u64,
}

fn run(cfg: VantageConfig, share: ShareMode, prep: impl FnOnce(&mut VantageLlc)) -> Outcome {
    run_destroying(cfg, share, prep, None)
}

/// [`run`], destroying partition `dead` (if any) just before the target
/// flip; its requests are dropped from then on, so the slot drains through
/// demotions and never regrows.
fn run_destroying(
    cfg: VantageConfig,
    share: ShareMode,
    prep: impl FnOnce(&mut VantageLlc),
    dead: Option<usize>,
) -> Outcome {
    let mut llc = VantageLlc::try_new(Box::new(ZArray::new(FRAMES, 4, 52, 11)), PARTS, cfg, 11)
        .expect("valid Vantage config");
    assert!(llc.set_share_mode(share));
    llc.set_targets(&TARGETS);
    prep(&mut llc);
    let (mut outcomes, mut hits) = (FNV_BASIS, 0u64);
    for i in 0..ACCESSES {
        if i == ACCESSES / 2 {
            if let Some(d) = dead {
                llc.destroy_partition(PartitionId::from_index(d))
                    .expect("destroy a live partition");
            }
            llc.set_targets(&FLIPPED);
        }
        let req = request(i);
        if i >= ACCESSES / 2 && dead == Some(req.part.index()) {
            continue;
        }
        let hit = llc.access(req).is_hit();
        hits += u64::from(hit);
        fnv(&mut outcomes, u64::from(hit));
    }
    if llc.fault_plan().is_some() {
        // Faults leave size registers stale until the next scrub.
        llc.scrub();
    }
    llc.invariants().expect("invariants hold");
    let mut sizes = FNV_BASIS;
    for p in 0..PARTS {
        fnv(&mut sizes, llc.partition_size(PartitionId::from_index(p)));
    }
    fnv(&mut sizes, llc.unmanaged_size());
    let mut samples = FNV_BASIS;
    for (access, part, pr) in llc.drain_priority_samples() {
        fnv(&mut samples, access);
        fnv(&mut samples, u64::from(part));
        fnv(&mut samples, u64::from(pr.to_bits()));
    }
    let mut enc = Encoder::new();
    llc.save_state(&mut enc);
    let mut state = FNV_BASIS;
    for b in enc.into_bytes() {
        fnv(&mut state, u64::from(b));
    }
    Outcome {
        hits,
        outcomes,
        stats: format!("{:?}", llc.vantage_stats()),
        sizes,
        state,
        samples,
    }
}

#[test]
fn vantage_rrip_with_a_brrip_partition() {
    let cfg = VantageConfig {
        rank: RankMode::Rrip { bits: 3 },
        churn_throttling: true,
        ..VantageConfig::default()
    };
    let o = run(cfg, ShareMode::Pin, |llc| {
        llc.set_partition_policy(1, BasePolicy::Brrip);
    });
    assert_eq!(o.hits, 87_898, "hits");
    assert_eq!(o.outcomes, 0x27c0_b214_06d6_f2f7, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 29759, promotions: 2380, unmanaged_evictions: 27247, \
         forced_managed_evictions: 759, empty_fills: 4096, setpoint_adjustments: 5390, \
         throttled_insertions: 62, corrupted_pid_fallbacks: 0, scrubs: 0 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0x51a8_59d6_a768_4cc1, "partition sizes digest");
    assert_eq!(o.state, 0x9fdb_8081_4028_4000, "snapshot digest");
}

#[test]
fn vantage_ideal_with_the_priority_probe() {
    let cfg = VantageConfig {
        demotion_mode: DemotionMode::PerfectAperture,
        churn_throttling: true,
        ..VantageConfig::default()
    };
    let o = run(cfg, ShareMode::Pin, VantageLlc::enable_priority_probe);
    assert_eq!(o.hits, 88_453, "hits");
    assert_eq!(o.outcomes, 0xde04_d40f_6259_90d8, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 28081, promotions: 2291, unmanaged_evictions: 25706, \
         forced_managed_evictions: 1745, empty_fills: 4096, setpoint_adjustments: 5393, \
         throttled_insertions: 86, corrupted_pid_fallbacks: 0, scrubs: 0 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0x98b1_8269_c6d4_8867, "partition sizes digest");
    assert_eq!(o.state, 0x24bf_a4c4_c661_fd58, "snapshot digest");
    assert_eq!(o.samples, 0xdaa7_b790_3681_2d66, "priority samples digest");
}

#[test]
fn vantage_lru_adjusts_inside_walks() {
    // The smallest feedback period, c = 8: a partition meters several
    // periods inside one 52-candidate walk, so its setpoint moves while
    // the walk still has candidates to test. Keep windows stand as at walk
    // start. Partition 3 is destroyed mid-run, so its Draining lines go
    // through the stale rule.
    let cfg = VantageConfig {
        cands_period: 8,
        ..VantageConfig::default()
    };
    let o = run_destroying(cfg, ShareMode::Pin, |_| {}, Some(3));
    assert_eq!(o.hits, 79_918, "hits");
    assert_eq!(o.outcomes, 0x8b80_75ba_35de_ec59, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 30168, promotions: 7928, unmanaged_evictions: 20841, \
         forced_managed_evictions: 176, empty_fills: 4096, setpoint_adjustments: 114477, \
         throttled_insertions: 0, corrupted_pid_fallbacks: 0, scrubs: 0 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0x9721_8e5c_bd0f_0231, "partition sizes digest");
    assert_eq!(o.state, 0x301c_12ae_d3f1_1aeb, "snapshot digest");
}

#[test]
fn vantage_exactly_one() {
    let cfg = VantageConfig {
        demotion_mode: DemotionMode::ExactlyOne,
        ..VantageConfig::default()
    };
    let o = run(cfg, ShareMode::Adopt, |_| {});
    assert_eq!(o.hits, 88_384, "hits");
    assert_eq!(o.outcomes, 0x2616_9491_e8fe_72f3, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 27520, promotions: 0, unmanaged_evictions: 27520, \
         forced_managed_evictions: 0, empty_fills: 4096, setpoint_adjustments: 0, \
         throttled_insertions: 0, corrupted_pid_fallbacks: 0, scrubs: 0 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0x09e0_b6bd_c3d3_9cb3, "partition sizes digest");
    assert_eq!(o.state, 0xd5c8_9144_3acd_297b, "snapshot digest");
}

#[test]
fn vantage_lru_under_tag_faults_and_scrubs() {
    // Partition-ID flips dominate the schedule: a flip into an
    // out-of-range ID exercises the scan's corrupted-ID fallback.
    let kinds = [
        FaultKind::TagPart,
        FaultKind::TagPart,
        FaultKind::TagPart,
        FaultKind::TagPart,
        FaultKind::TagTs,
        FaultKind::ActualSize,
        FaultKind::Setpoint,
        FaultKind::Meters,
    ];
    let o = run(VantageConfig::default(), ShareMode::Adopt, |llc| {
        llc.set_fault_plan(Some(FaultPlan::new(0xFA17, 150, &kinds)));
        llc.set_scrub_period(Some(7_000));
    });
    assert_eq!(o.hits, 86_083, "hits");
    assert_eq!(o.outcomes, 0xbe42_dd52_6257_713e, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 7479, promotions: 622, unmanaged_evictions: 7178, \
         forced_managed_evictions: 22643, empty_fills: 4096, setpoint_adjustments: 6094, \
         throttled_insertions: 0, corrupted_pid_fallbacks: 335, scrubs: 18 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0x599d_ea2a_3c94_547b, "partition sizes digest");
    assert_eq!(o.state, 0x33db_fd02_44a6_a09a, "snapshot digest");
}

#[test]
fn vantage_ideal_probe_under_tag_faults_and_scrubs() {
    // The one run that reads ranks while tags are corrupted: the idealized
    // controller and the probe rank every demotion among its partition's
    // lines while tag flips move lines between partitions, into
    // out-of-range IDs and across stamps, and scrubs repair them.
    let cfg = VantageConfig {
        demotion_mode: DemotionMode::PerfectAperture,
        churn_throttling: true,
        ..VantageConfig::default()
    };
    let kinds = [
        FaultKind::TagPart,
        FaultKind::TagPart,
        FaultKind::TagPart,
        FaultKind::TagTs,
        FaultKind::TagTs,
        FaultKind::ActualSize,
        FaultKind::Meters,
    ];
    let o = run(cfg, ShareMode::Pin, |llc| {
        llc.enable_priority_probe();
        llc.set_fault_plan(Some(FaultPlan::new(0x1DEA, 150, &kinds)));
        llc.set_scrub_period(Some(7_000));
    });
    assert_eq!(o.hits, 85_550, "hits");
    assert_eq!(o.outcomes, 0xcb47_fa41_ad1e_ab6f, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 6794, promotions: 3909, unmanaged_evictions: 21489, \
         forced_managed_evictions: 8865, empty_fills: 4096, setpoint_adjustments: 5831, \
         throttled_insertions: 18391, corrupted_pid_fallbacks: 305, scrubs: 18 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0xcaa6_7552_5f98_94d7, "partition sizes digest");
    assert_eq!(o.state, 0x12ad_ab49_17a1_a184, "snapshot digest");
    assert_eq!(o.samples, 0xda71_6fdc_a514_ba8c, "priority samples digest");
}
