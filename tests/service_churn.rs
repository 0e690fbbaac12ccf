//! Service-mode lifecycle tests: partition churn must be deterministic
//! across engines, survive mid-churn checkpoints bit-identically, honor
//! QoS floors for whoever is live, drain destroyed partitions through
//! the ordinary demotion machinery, and reject hostile or truncated
//! lifecycle state in snapshots.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_repro::cache::{LineAddr, ZArray};
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{
    AccessOutcome, AccessRequest, BankedLlc, Llc, PartitionId, PartitionSpec,
};
use vantage_repro::snapshot::{Decoder, Encoder, Snapshot, SnapshotError};
use vantage_repro::ucp::{AllocationPolicy, PolicyInput, QosGuarantee};
use vantage_repro::workloads::{ChurnEvent, TenantChurn, TenantChurnConfig};

const FRAMES: usize = 4 * 1024;

fn churn_gen(seed: u64) -> TenantChurn {
    TenantChurn::try_new(TenantChurnConfig {
        max_tenants: 12,
        mean_lifetime: 12_000.0,
        mean_interarrival: 1_500.0,
        footprint_lines: 256,
        diurnal_period: 10_000,
        seed,
        ..TenantChurnConfig::default()
    })
    .expect("valid churn config")
}

fn fresh_llc(seed: u64) -> VantageLlc {
    let mut llc = VantageLlc::try_new(
        Box::new(ZArray::new(FRAMES, 4, 16, seed)),
        1,
        VantageConfig::default(),
        seed,
    )
    .expect("valid Vantage config");
    // The construction-time slot belongs to no tenant; the population
    // starts empty and is driven entirely by the churn events.
    llc.destroy_partition(PartitionId::from_index(0))
        .expect("fresh slot destroys cleanly");
    llc
}

/// Maps churn events onto lifecycle calls and accesses; every observable
/// (outcome stream, slot assignments, final stats and sizes) is captured
/// for cross-engine comparison.
#[derive(Default)]
struct Driven {
    outcomes: Vec<AccessOutcome>,
    slots: Vec<u16>,
    stats: String,
    sizes: Vec<u64>,
    observations: String,
}

fn drive(llc: &mut dyn Llc, gen: &mut TenantChurn, events: u64, batch: usize) -> Driven {
    drive_with(
        llc,
        gen,
        events,
        batch,
        &mut std::collections::HashMap::new(),
    )
}

fn drive_with(
    llc: &mut dyn Llc,
    gen: &mut TenantChurn,
    events: u64,
    batch: usize,
    slot_of: &mut std::collections::HashMap<u64, PartitionId>,
) -> Driven {
    let mut d = Driven::default();
    let mut pending: Vec<AccessRequest> = Vec::new();
    let flush = |llc: &mut dyn Llc, pending: &mut Vec<AccessRequest>, d: &mut Driven| {
        if batch == 0 {
            for &r in pending.iter() {
                d.outcomes.push(llc.access(r));
            }
        } else {
            for chunk in pending.chunks(batch) {
                llc.access_batch(chunk, &mut d.outcomes);
            }
        }
        pending.clear();
    };
    for _ in 0..events {
        match gen.next_event() {
            ChurnEvent::Arrive { tenant } => {
                flush(llc, &mut pending, &mut d);
                let slot = llc
                    .create_partition(PartitionSpec::with_target(256))
                    .expect("slot available under the admission cap");
                d.slots.push(slot.raw());
                slot_of.insert(tenant, slot);
            }
            ChurnEvent::Depart { tenant } => {
                flush(llc, &mut pending, &mut d);
                let slot = slot_of.remove(&tenant).expect("departing tenant is live");
                llc.destroy_partition(slot).expect("live slot destroys");
            }
            ChurnEvent::Access { tenant, addr } => {
                pending.push(AccessRequest::read(slot_of[&tenant], addr));
            }
        }
    }
    flush(llc, &mut pending, &mut d);
    d.stats = format!("{:?}", llc.stats_mut());
    d.sizes = (0..llc.num_partitions())
        .map(|p| llc.partition_size(PartitionId::from_index(p)))
        .collect();
    d.observations = format!("{:?}", llc.observations());
    d
}

fn build_banked(seed: u64, banks: usize, jobs: usize) -> BankedLlc {
    let units = (0..banks)
        .map(|b| {
            let array = ZArray::new(FRAMES / banks, 4, 16, seed ^ (b as u64 + 1));
            let mut llc = VantageLlc::try_new(
                Box::new(array),
                1,
                VantageConfig::default(),
                seed ^ ((b as u64) << 8),
            )
            .expect("valid Vantage config");
            llc.destroy_partition(PartitionId::from_index(0))
                .expect("fresh slot destroys cleanly");
            Box::new(llc) as Box<dyn Llc>
        })
        .collect();
    BankedLlc::try_new(units, seed ^ 0xBA2C, jobs).expect("valid bank set")
}

/// Lifecycle calls interleaved with batched traffic must replay the
/// serial per-access engine bit-for-bit at every worker count.
#[test]
fn churn_is_deterministic_across_serial_and_parallel_engines() {
    let reference = drive(
        &mut build_banked(7, 4, 1),
        &mut churn_gen(0xC0DE),
        60_000,
        0,
    );
    assert!(
        reference.slots.len() > 8,
        "trace must churn the population (got {} arrivals)",
        reference.slots.len()
    );
    assert!(reference.outcomes.iter().any(|o| o.is_hit()));
    assert!(reference.outcomes.iter().any(|o| !o.is_hit()));
    for jobs in [1, 2, 4] {
        let mut par = build_banked(7, 4, jobs);
        let got = drive(&mut par, &mut churn_gen(0xC0DE), 60_000, 997);
        assert_eq!(
            got.slots, reference.slots,
            "slot ids diverged at {jobs} workers"
        );
        assert_eq!(
            got.outcomes, reference.outcomes,
            "outcomes diverged at {jobs} workers"
        );
        assert_eq!(
            got.stats, reference.stats,
            "stats diverged at {jobs} workers"
        );
        assert_eq!(
            got.sizes, reference.sizes,
            "sizes diverged at {jobs} workers"
        );
        assert_eq!(
            got.observations, reference.observations,
            "observations diverged at {jobs} workers"
        );
    }
}

/// A checkpoint taken mid-churn — slots draining, slots recycled, pending
/// arrival/departure queues non-empty — must restore into a fresh cache
/// and replay the original's future bit-identically.
#[test]
fn mid_churn_checkpoint_restores_bit_identically() {
    let mut gen = churn_gen(0xF00D);
    let mut llc = fresh_llc(11);
    let mut slot_of = std::collections::HashMap::new();
    drive_with(&mut llc, &mut gen, 30_000, 0, &mut slot_of);
    // Unconsumed lifecycle state at the save point: a fresh arrival and a
    // departure neither of which any observations() call has drained.
    let extra = llc
        .create_partition(PartitionSpec::with_target(64))
        .expect("slot available");
    llc.destroy_partition(extra).expect("live slot destroys");
    let mut enc = Encoder::new();
    llc.save_state(&mut enc);
    let bytes = enc.into_bytes();

    let mut restored = fresh_llc(11);
    restored
        .load_state(&mut Decoder::new(&bytes, "mid-churn checkpoint"))
        .expect("checkpoint restores");

    let mut gen2 = gen.clone();
    let mut slots2 = slot_of.clone();
    let a = drive_with(&mut llc, &mut gen, 30_000, 0, &mut slot_of);
    let b = drive_with(&mut restored, &mut gen2, 30_000, 0, &mut slots2);
    assert_eq!(a.slots, b.slots, "restored run assigned different slots");
    assert_eq!(a.outcomes, b.outcomes, "restored run diverged");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.sizes, b.sizes);
    assert_eq!(
        a.observations, b.observations,
        "lifecycle queues or liveness diverged after restore"
    );
}

/// Destruction must not flush: lines stay resident at the destroy call and
/// leave only through the ordinary demotion machinery as other tenants
/// apply pressure.
#[test]
fn destroy_drains_through_demotions_not_bulk_eviction() {
    let mut llc = fresh_llc(3);
    let doomed = llc
        .create_partition(PartitionSpec::with_target(1024))
        .expect("slot available");
    let survivor = llc
        .create_partition(PartitionSpec::with_target(1024))
        .expect("slot available");
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..20_000 {
        let addr = LineAddr(1 << 32 | rng.gen_range(0..900));
        llc.access(AccessRequest::read(doomed, addr));
    }
    let resident = llc.partition_size(doomed);
    assert!(resident > 100, "partition must hold lines before destroy");
    let evictions_before = llc.stats().evictions;
    let demotions_before = llc.vantage_stats().demotions;
    llc.destroy_partition(doomed).expect("live slot destroys");
    assert_eq!(
        llc.stats().evictions,
        evictions_before,
        "destroy must not evict anything itself"
    );
    assert_eq!(
        llc.partition_size(doomed),
        resident,
        "destroy must leave resident lines in place"
    );
    // Other tenants' misses drain the doomed partition via demotions. The
    // survivor streams through fresh addresses so its walks' level-0 hash
    // positions cover every frame: a zcache walk only visits frames
    // reachable from the missing address, so a small fixed footprint would
    // leave a few frames — and any doomed lines parked there — unscanned
    // forever.
    for i in 0..200_000u64 {
        let addr = LineAddr(2 << 32 | i);
        llc.access(AccessRequest::read(survivor, addr));
        if llc.partition_size(doomed) == 0 {
            break;
        }
    }
    assert_eq!(
        llc.partition_size(doomed),
        0,
        "doomed partition never drained"
    );
    assert!(
        llc.vantage_stats().demotions > demotions_before,
        "drain must flow through the demotion machinery"
    );
    llc.invariants().expect("invariants hold after the drain");
    // The drained slot is recycled by the next create.
    let next = llc
        .create_partition(PartitionSpec::with_target(64))
        .expect("slot available");
    assert_eq!(next, doomed, "drained slot must be recycled first");
}

/// Under a uniform QoS contract, every live tenant's target honors the
/// guaranteed floor at every repartitioning epoch, across arrivals and
/// departures.
#[test]
fn qos_floors_hold_for_live_tenants_throughout_churn() {
    let floor = 64u64;
    let mut policy = QosGuarantee::uniform(floor, 1.0).expect("valid contract");
    let mut llc = fresh_llc(21);
    let mut gen = churn_gen(0xFACE);
    let mut slot_of = std::collections::HashMap::new();
    let mut epochs = 0u32;
    for step in 0..80_000u64 {
        match gen.next_event() {
            ChurnEvent::Arrive { tenant } => {
                let slot = llc
                    .create_partition(PartitionSpec::with_target(floor))
                    .expect("slot available");
                slot_of.insert(tenant, slot);
            }
            ChurnEvent::Depart { tenant } => {
                let slot = slot_of.remove(&tenant).expect("departing tenant is live");
                llc.destroy_partition(slot).expect("live slot destroys");
            }
            ChurnEvent::Access { tenant, addr } => {
                llc.access(AccessRequest::read(slot_of[&tenant], addr));
            }
        }
        if step % 5_000 == 4_999 {
            let capacity = llc.capacity() as u64;
            let obs = llc.observations();
            let targets = policy.reallocate(&PolicyInput {
                capacity,
                actual: &obs.actual,
                hits: &obs.hits,
                misses: &obs.misses,
                churn: &obs.churn,
                insertions: &obs.insertions,
                shared_hits: &obs.shared_hits,
                ownership_transfers: &obs.ownership_transfers,
                live: &obs.live,
                arrived: &obs.arrived,
                departed: &obs.departed,
            });
            for (p, (&t, &live)) in targets.iter().zip(obs.live.iter()).enumerate() {
                if live {
                    assert!(
                        t >= floor,
                        "epoch {epochs}: slot {p} granted {t} < floor {floor}"
                    );
                } else {
                    assert_eq!(t, 0, "epoch {epochs}: dead slot {p} granted capacity");
                }
            }
            llc.set_targets(&targets);
            epochs += 1;
        }
    }
    assert!(epochs >= 10, "run must cross many repartitioning epochs");
    assert!(!slot_of.is_empty(), "population must end non-empty");
}

/// Byte offsets of the lifecycle tail, counted from the end of the
/// payload: `u8_slice` slot lane (8 + npart bytes), then the arrived and
/// departed queues as `u16_slice`s (8 + 2·len each).
fn tail_layout(npart: usize, arrived: usize, departed: usize) -> (usize, usize, usize) {
    let departed_bytes = 8 + 2 * departed;
    let arrived_bytes = 8 + 2 * arrived;
    let lane_bytes = 8 + npart;
    (lane_bytes, arrived_bytes, departed_bytes)
}

/// Byte size of the ownership tail that follows the lifecycle tail:
/// a mode byte plus three length-prefixed `u64` counter lanes.
fn ownership_tail_bytes(npart: usize) -> usize {
    1 + 3 * (8 + 8 * npart)
}

/// Builds a checkpoint with known lifecycle-tail geometry: `npart` slots,
/// one pending arrival, one pending departure, and slot 1 drained (Free)
/// with slot 0 Active.
fn lifecycle_checkpoint() -> (VantageLlc, Vec<u8>, usize) {
    let mut llc = fresh_llc(17);
    let a = llc
        .create_partition(PartitionSpec::with_target(512))
        .expect("slot available");
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..8_000 {
        llc.access(AccessRequest::read(a, LineAddr(rng.gen_range(0..600))));
    }
    let _ = llc.observations(); // drain the queues accumulated so far
    let b = llc
        .create_partition(PartitionSpec::with_target(64))
        .expect("slot available");
    llc.destroy_partition(b)
        .expect("empty slot destroys instantly");
    // Queues now hold exactly one arrival (b) and one departure (b).
    let npart = llc.num_partitions();
    let mut enc = Encoder::new();
    llc.save_state(&mut enc);
    (llc, enc.into_bytes(), npart)
}

#[test]
fn hostile_lifecycle_tails_are_rejected() {
    let (_, bytes, npart) = lifecycle_checkpoint();
    let (lane, arr, dep) = tail_layout(npart, 1, 1);
    // The ownership tail sits past the lifecycle tail; every end-relative
    // offset below must skip over it.
    let own = ownership_tail_bytes(npart);
    let try_restore =
        |bytes: &[u8]| fresh_llc(17).load_state(&mut Decoder::new(bytes, "hostile checkpoint"));
    assert!(
        try_restore(&bytes).is_ok(),
        "pristine checkpoint must restore"
    );

    // Unknown slot-state discriminant.
    let mut evil = bytes.clone();
    let lane_start = evil.len() - own - dep - arr - lane + 8;
    evil[lane_start] = 3;
    assert!(try_restore(&evil).is_err(), "unknown slot state accepted");

    // A dead slot claiming capacity: flip the Active tenant (slot 0, the
    // recycled construction slot, carrying a nonzero target) to Free.
    let mut evil = bytes.clone();
    evil[lane_start] = 2;
    assert!(
        try_restore(&evil).is_err(),
        "dead slot with a capacity target accepted"
    );

    // A lifecycle queue naming an out-of-range slot.
    let mut evil = bytes.clone();
    let arrived_data = evil.len() - own - dep - 2; // the single arrived id
    evil[arrived_data] = 0xFF;
    evil[arrived_data + 1] = 0xFF; // UNMANAGED sentinel
    assert!(
        try_restore(&evil).is_err(),
        "out-of-range queue id accepted"
    );

    // A slot-state lane shorter than the slot table.
    let mut evil = bytes.clone();
    evil.drain(lane_start..lane_start + 1);
    assert!(
        try_restore(&evil).is_err(),
        "short slot-state lane accepted"
    );

    // Both tails are mandatory: a payload cut exactly at a tail boundary is
    // truncated, not an older dialect to restore with defaults.
    for (cut, what) in [
        (bytes.len() - own, "ownership"),
        (bytes.len() - own - dep - arr - lane, "lifecycle"),
    ] {
        assert!(
            matches!(
                try_restore(&bytes[..cut]),
                Err(SnapshotError::Truncated { .. })
            ),
            "payload cut before the {what} tail accepted"
        );
    }
}

/// The other three schemes end their payloads with the same mandatory
/// ownership tail: cut exactly before it they are truncated, uncut they
/// restore and consume every byte.
#[test]
fn scheme_payloads_cut_before_the_ownership_tail_are_rejected() {
    use vantage_repro::cache::SetAssocArray;
    use vantage_repro::partitioning::{BaselineLlc, PippConfig, PippLlc, RankPolicy, WayPartLlc};
    const PARTS: usize = 2;
    fn check<L: Llc + Snapshot>(name: &str, build: fn() -> L) {
        let mut llc = build();
        for i in 0..2_000u64 {
            let part = PartitionId::from_index(i as usize % PARTS);
            llc.access(AccessRequest::read(part, LineAddr((i * 7) % 400)));
        }
        let mut enc = Encoder::new();
        llc.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let cut = &bytes[..bytes.len() - ownership_tail_bytes(PARTS)];
        assert!(
            matches!(
                build().load_state(&mut Decoder::new(cut, name)),
                Err(SnapshotError::Truncated { .. })
            ),
            "{name}: payload cut before the ownership tail accepted"
        );
        let mut dec = Decoder::new(&bytes, name);
        build()
            .load_state(&mut dec)
            .expect("uncut payload restores");
        dec.finish().expect("ownership tail ends the payload");
    }
    check("baseline", || {
        let array = Box::new(SetAssocArray::hashed(256, 4, 3));
        BaselineLlc::try_new(array, PARTS, RankPolicy::Lru).expect("valid geometry")
    });
    check("way-part", || {
        WayPartLlc::try_new(256, 4, PARTS, 3).expect("valid geometry")
    });
    check("pipp", || {
        PippLlc::try_new(256, 4, PARTS, PippConfig::default(), 3).expect("valid geometry")
    });
}
