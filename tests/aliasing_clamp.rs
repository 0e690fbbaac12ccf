//! Golden for the regime where the timestamp-aliasing clamp fires.
//!
//! Hundreds of small tenants tick their coarse clocks every access or
//! two, and a quarter of them park lines they never touch again while
//! staying under target, so nothing demotes those lines: after 256 ticks
//! their stamps alias, and from then on every tick of the owner re-pins
//! them through `TagMeta::clamp_stale`. Slots are recycled throughout, so
//! recycled tenants inherit parked lines too. The goldens below were
//! recorded before `clamp_stale` stopped sweeping the whole tag array;
//! they pin that the early-stopping search re-stamps exactly the frames
//! the sweep did (the snapshot digest covers both tag lanes) and that
//! everything downstream — outcomes, controller counters, sizes — is
//! bit-identical. When they were recorded, 79 803 of the scenario's
//! 352 178 clock ticks pinned at least one line (858 151 pins in all).

use vantage_repro::cache::{LineAddr, ZArray};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{AccessRequest, Llc, PartitionId, PartitionSpec};
use vantage_repro::snapshot::{Encoder, Snapshot};

const FRAMES: usize = 8 * 1024;
const TENANTS: usize = 320;
const ACCESSES: u64 = 400_000;
/// One tenant departs and a fresh one arrives every this many accesses.
const CHURN_EVERY: u64 = 2_000;

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

struct Tenant {
    slot: PartitionId,
    /// Distinct per tenant ever admitted, so addresses never collide.
    id: u64,
    /// Accesses issued so far.
    n: u64,
}

impl Tenant {
    /// Every fourth tenant parks 12 one-off lines and then loops over 2
    /// hot ones (under its 16-line target: nothing ever demotes the
    /// parked lines); the rest loop over 8 hot lines and stream a fresh
    /// line on one access in five.
    fn next_addr(&mut self, r: u64) -> LineAddr {
        let k = if self.id.is_multiple_of(4) {
            if self.n < 12 {
                1_000 + self.n
            } else {
                self.n % 2
            }
        } else if r.is_multiple_of(5) {
            1_000 + self.n
        } else {
            r % 8
        };
        self.n += 1;
        // Scrambled so the H3-indexed array sees high-entropy addresses.
        LineAddr(mix(self.id << 32 | k) >> 24)
    }
}

struct Outcome {
    outcomes: u64,
    hits: u64,
    stats: String,
    sizes: u64,
    state: u64,
}

fn run() -> Outcome {
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(FRAMES, 4, 16, 7)),
        1,
        VantageConfig::default(),
        7,
    )
    .expect("valid Vantage config");
    llc.destroy_partition(PartitionId::from_index(0))
        .expect("fresh slot destroys cleanly");
    let mut admitted = 0u64;
    let mut admit = |llc: &mut VantageLlc| {
        admitted += 1;
        Tenant {
            slot: llc
                .create_partition(PartitionSpec::with_target(16))
                .expect("slot available"),
            id: admitted,
            n: 0,
        }
    };
    let mut tenants: Vec<Tenant> = (0..TENANTS).map(|_| admit(&mut llc)).collect();
    let (mut outcomes, mut hits) = (0xcbf2_9ce4_8422_2325u64, 0u64);
    for i in 0..ACCESSES {
        let r = mix(i);
        if i % CHURN_EVERY == CHURN_EVERY - 1 {
            let gone = (r >> 32) as usize % tenants.len();
            llc.destroy_partition(tenants[gone].slot)
                .expect("live slot destroys");
            tenants[gone] = admit(&mut llc);
        }
        let t = &mut tenants[(r >> 16) as usize % TENANTS];
        let req = AccessRequest::read(t.slot, t.next_addr(r));
        let hit = llc.access(req).is_hit();
        hits += u64::from(hit);
        fnv(&mut outcomes, u64::from(hit));
    }
    llc.invariants().expect("invariants hold");
    let mut sizes = 0xcbf2_9ce4_8422_2325u64;
    for p in 0..llc.num_partitions() {
        fnv(&mut sizes, llc.partition_size(PartitionId::from_index(p)));
    }
    fnv(&mut sizes, llc.unmanaged_size());
    let mut enc = Encoder::new();
    llc.save_state(&mut enc);
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for b in enc.into_bytes() {
        fnv(&mut state, u64::from(b));
    }
    Outcome {
        outcomes,
        hits,
        stats: format!("{:?}", llc.vantage_stats()),
        sizes,
        state,
    }
}

#[test]
fn many_small_tenants_clamp_bit_identically_to_the_full_sweep() {
    let o = run();
    assert_eq!(o.hits, 334_933, "hits");
    assert_eq!(o.outcomes, 0xbf84_de3f_47a4_b5c2, "outcome digest");
    assert_eq!(
        o.stats,
        "VantageStats { demotions: 5176, promotions: 0, unmanaged_evictions: 5174, \
         forced_managed_evictions: 51701, empty_fills: 8192, setpoint_adjustments: 3363, \
         throttled_insertions: 0, corrupted_pid_fallbacks: 0, scrubs: 0 }",
        "VantageStats"
    );
    assert_eq!(o.sizes, 0x84e3_70f0_d515_5cff, "partition sizes digest");
    assert_eq!(
        o.state, 0x0893_8034_eefa_a3d1,
        "snapshot digest (both tag lanes)"
    );
}
