//! `tenant_churn`: the `service` subcommand's machine — a 64 K-frame Z4/16
//! `VantageLlc` whose tenants arrive and leave (`TenantChurn`, cap 1024,
//! about 770 live) while a uniform QoS contract re-targets them every 50 K
//! accesses. Hundreds of live partitions, lifecycle calls and policy epochs
//! on the access path; the only workload where per-partition state does not
//! fit a few host cache lines.
//!
//! Who arrives when, for how long and how popular — the scenario — is fixed,
//! as the mix is in `cmp4_ucp`: drawn afresh per seed, the population alone
//! moved the hit rate by ±4% between seeds, against a 0.5% bound. `--seed`
//! keys the bijection that turns the generator's line addresses into the
//! ones the cache sees, so every seed gives different requests.
//!
//! The generator needs the population it has itself admitted, so events
//! cannot be drawn ahead of the whole run; they are drawn a slice at a time
//! into one reused buffer, between timed slices and never inside one, with
//! tenants already resolved to the slots the cache will hand out.

use vantage::VantageLlc;
use vantage_cache::hash::mix64;
use vantage_cache::LineAddr;
use vantage_partitioning::{
    AccessOutcome, AccessRequest, HasInvariants, Llc, PartitionId, PartitionSpec,
};
use vantage_ucp::{AllocationPolicy, PolicyInput, QosGuarantee};
use vantage_workloads::{ChurnEvent, TenantChurn, TenantChurnConfig};

use super::{fold_outcomes, fold_vantage, overshoot_pct, vantage_llc};
use crate::harness::{Fnv, Simulated, SliceOut, Workload};
use crate::probes::ProbeInput;
use crate::trace::{Tracer, ROOT};

pub const FRAMES: usize = 64 * 1024;
pub const CANDS: usize = 16;
pub const MAX_TENANTS: usize = 1024;
/// Accesses between repartitioning epochs.
const EPOCH: u64 = 50_000;
/// Every live tenant is guaranteed 1/(4 × cap) of the cache.
pub const FLOOR: u64 = (FRAMES / (4 * MAX_TENANTS)) as u64;
const SLICES: usize = 100;
/// Events served before the clock starts: three mean lifetimes, by which
/// the population is within 5% of its steady state and the cache is full.
const WARM_EVENTS: u64 = 900_000;
/// Longest run of accesses handed to one `access_batch` call.
const MAX_RUN: usize = 4096;

/// Seed of the fixed arrival/lifetime/popularity scenario.
const SCENARIO_SEED: u64 = 42;

pub fn churn_config() -> TenantChurnConfig {
    TenantChurnConfig {
        max_tenants: MAX_TENANTS,
        // ~770 live in steady state (lifetime / inter-arrival gap).
        mean_lifetime: 300_000.0,
        mean_interarrival: 390.0,
        footprint_lines: (FRAMES / 8) as u64,
        seed: SCENARIO_SEED,
        ..TenantChurnConfig::default()
    }
}

/// One step of a pre-resolved slice.
enum Op {
    /// Serve `reqs[start..end]`.
    Run(usize, usize),
    /// A tenant arrives; the cache must hand out `slot`.
    Create(PartitionId),
    Destroy(PartitionId),
    /// Repartitioning epoch: observe, reallocate, re-target.
    Epoch,
}

/// Draws events and resolves tenants to slots by mirroring the cache's slot
/// rule (lowest slot that is not live, else a new one).
struct Producer {
    gen: TenantChurn,
    /// Keys the address bijection (from `--seed`).
    salt: u64,
    /// Slot of each live tenant.
    slot_of: std::collections::HashMap<u64, usize>,
    /// Whether each slot the cache has ever allocated is live. Slot 0 is the
    /// construction-time partition, retired before the first event.
    live: Vec<bool>,
    until_epoch: u64,
}

impl Producer {
    fn new(seed: u64) -> Self {
        Self {
            gen: TenantChurn::try_new(churn_config()).expect("valid churn config"),
            salt: seed,
            slot_of: std::collections::HashMap::new(),
            live: vec![false],
            until_epoch: EPOCH,
        }
    }

    /// Replaces `ops`/`reqs` with the next `events` events.
    fn fill(&mut self, events: u64, ops: &mut Vec<Op>, reqs: &mut Vec<AccessRequest>) {
        ops.clear();
        reqs.clear();
        let mut run_start = 0;
        let close_run = |ops: &mut Vec<Op>, start: &mut usize, end: usize| {
            if end > *start {
                ops.push(Op::Run(*start, end));
                *start = end;
            }
        };
        for _ in 0..events {
            match self.gen.next_event() {
                ChurnEvent::Arrive { tenant } => {
                    close_run(ops, &mut run_start, reqs.len());
                    let slot = match self.live.iter().position(|l| !l) {
                        Some(s) => s,
                        None => {
                            self.live.push(false);
                            self.live.len() - 1
                        }
                    };
                    self.live[slot] = true;
                    self.slot_of.insert(tenant, slot);
                    ops.push(Op::Create(PartitionId::from_index(slot)));
                }
                ChurnEvent::Depart { tenant } => {
                    close_run(ops, &mut run_start, reqs.len());
                    let slot = self
                        .slot_of
                        .remove(&tenant)
                        .expect("departing tenant is live");
                    self.live[slot] = false;
                    ops.push(Op::Destroy(PartitionId::from_index(slot)));
                }
                ChurnEvent::Access { tenant, addr } => {
                    let slot = self.slot_of[&tenant];
                    let addr = LineAddr(mix64(addr.0 ^ self.salt));
                    reqs.push(AccessRequest::read(PartitionId::from_index(slot), addr));
                    self.until_epoch -= 1;
                    let epoch = self.until_epoch == 0;
                    if epoch || reqs.len() - run_start == MAX_RUN {
                        close_run(ops, &mut run_start, reqs.len());
                    }
                    if epoch {
                        self.until_epoch = EPOCH;
                        ops.push(Op::Epoch);
                    }
                }
            }
        }
        close_run(ops, &mut run_start, reqs.len());
    }
}

pub struct Churn {
    llc: VantageLlc,
    policy: QosGuarantee,
    producer: Producer,
    ops: Vec<Op>,
    reqs: Vec<AccessRequest>,
    events_per_slice: u64,
    out: Vec<AccessOutcome>,
    outcomes: Fnv,
    /// Requests issued to each slot since its current tenant arrived.
    issued: Vec<u64>,
    requests: u64,
    hits: u64,
    epochs: u64,
    lifecycle_calls: u64,
    peak_live: usize,
    overshoot: f64,
    slice0_digest: u64,
}

impl Churn {
    /// Serves the staged ops, checking as it goes. `batched` picks
    /// `access_batch` over one `access()` per request.
    fn serve(&mut self, tr: &mut Tracer, parent: u32, batched: bool) -> SliceOut {
        let mut s = SliceOut::default();
        let note = |s: &mut SliceOut, secs: f64| {
            s.busy_s += secs;
            s.calls.push(secs);
        };
        for op in &self.ops {
            match *op {
                Op::Run(start, end) => {
                    let (llc, out, reqs) = (&mut self.llc, &mut self.out, &self.reqs[start..end]);
                    out.clear();
                    let ((), secs) = tr.call("core", "access_batch", parent, || {
                        if batched {
                            llc.access_batch(reqs, out);
                        } else {
                            out.extend(reqs.iter().map(|&r| llc.access(r)));
                        }
                    });
                    note(&mut s, secs);
                    s.ops += reqs.len() as u64;
                    for r in reqs {
                        self.issued[r.part.index()] += 1;
                    }
                    self.requests += reqs.len() as u64;
                    if out.len() != reqs.len() {
                        let why = format!("{} outcomes for {} requests", out.len(), reqs.len());
                        s.broke.get_or_insert(why);
                    }
                    self.hits += fold_outcomes(&mut self.outcomes, out);
                }
                Op::Create(expect) => {
                    let llc = &mut self.llc;
                    let (got, secs) = tr.call("core", "create_partition", parent, || {
                        llc.create_partition(PartitionSpec::with_target(FLOOR))
                    });
                    note(&mut s, secs);
                    s.ops += 1;
                    self.lifecycle_calls += 1;
                    match got {
                        Ok(slot) if slot == expect => {
                            if self.issued.len() <= slot.index() {
                                self.issued.resize(slot.index() + 1, 0);
                            }
                            self.issued[slot.index()] = 0;
                        }
                        Ok(slot) => {
                            let why = format!("create_partition gave slot {slot}, not {expect}");
                            s.broke.get_or_insert(why);
                        }
                        Err(e) => {
                            s.broke.get_or_insert(format!("create_partition: {e}"));
                        }
                    }
                    self.peak_live = self.peak_live.max(self.llc.live_partitions());
                }
                Op::Destroy(slot) => {
                    let llc = &mut self.llc;
                    let (r, secs) = tr.call("core", "destroy_partition", parent, || {
                        llc.destroy_partition(slot)
                    });
                    note(&mut s, secs);
                    s.ops += 1;
                    self.lifecycle_calls += 1;
                    if let Err(e) = r {
                        s.broke.get_or_insert(format!("destroy_partition: {e}"));
                    }
                }
                Op::Epoch => {
                    self.epochs += 1;
                    let capacity = self.llc.capacity() as u64;
                    let llc = &mut self.llc;
                    let (obs, secs) =
                        tr.call("core", "observations", parent, || llc.observations());
                    note(&mut s, secs);
                    let policy = &mut self.policy;
                    let (targets, secs) = tr.call("ucp", "qos_reallocate", parent, || {
                        policy.reallocate(&PolicyInput {
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
                        })
                    });
                    note(&mut s, secs);
                    let llc = &mut self.llc;
                    let ((), secs) =
                        tr.call("core", "set_targets", parent, || llc.set_targets(&targets));
                    note(&mut s, secs);

                    // Checks on the epoch's own snapshot: statistics match
                    // what was issued, sizes fit, nobody is under the floor.
                    for (p, &live) in obs.live.iter().enumerate() {
                        if !live {
                            continue;
                        }
                        if obs.hits[p] + obs.misses[p] != self.issued[p] {
                            let why = format!(
                                "slot {p}: {} hits+misses for {} requests",
                                obs.hits[p] + obs.misses[p],
                                self.issued[p]
                            );
                            s.broke.get_or_insert(why);
                        }
                        if targets[p] < FLOOR {
                            let why = format!("slot {p} granted {} < floor {FLOOR}", targets[p]);
                            s.broke.get_or_insert(why);
                        }
                    }
                    let held = obs.actual.iter().sum::<u64>() + self.llc.unmanaged_size();
                    if held > capacity {
                        s.broke
                            .get_or_insert(format!("{held} lines held in a {capacity}-line cache"));
                    }
                    self.overshoot =
                        self.overshoot
                            .max(overshoot_pct(&obs.actual, &obs.targets, &obs.live));
                }
            }
        }
        s
    }

    fn state_digest(&self) -> u64 {
        let mut d = self.outcomes;
        let stats = self.llc.stats();
        d.fold_all(stats.hits.iter().chain(&stats.misses).copied());
        d.fold(stats.evictions);
        d.fold_all(
            (0..self.llc.num_partitions())
                .map(|p| self.llc.partition_size(PartitionId::from_index(p))),
        );
        d.fold(self.llc.unmanaged_size());
        d.fold(self.llc.live_partitions() as u64);
        d.0
    }
}

impl Workload for Churn {
    const NAME: &'static str = "tenant_churn";
    const NOMINAL_RATE: f64 = 0.75e6;

    fn setup(seed: u64, units: u64, after_inputs: &mut dyn FnMut()) -> Self {
        let events_per_slice = (units / SLICES as u64).max(1);
        let producer = Producer::new(seed);
        let reqs = Vec::with_capacity(events_per_slice as usize);
        after_inputs();

        let mut llc = vantage_llc(FRAMES, CANDS, 1);
        // The construction-time slot belongs to no tenant; retire it so the
        // population starts empty.
        llc.destroy_partition(PartitionId::from_index(0))
            .expect("a fresh slot destroys cleanly");
        let mut w = Self {
            llc,
            policy: QosGuarantee::uniform(FLOOR, 1.0).expect("valid uniform contract"),
            producer,
            ops: Vec::new(),
            reqs,
            events_per_slice,
            out: Vec::with_capacity(MAX_RUN),
            outcomes: Fnv::default(),
            issued: vec![0],
            requests: 0,
            hits: 0,
            epochs: 0,
            lifecycle_calls: 0,
            peak_live: 0,
            overshoot: 0.0,
            slice0_digest: 0,
        };
        let mut left = WARM_EVENTS;
        while left > 0 {
            let n = left.min(50_000);
            w.producer.fill(n, &mut w.ops, &mut w.reqs);
            let warm = w.serve(&mut Tracer::new(), ROOT, true);
            assert!(
                warm.broke.is_none(),
                "warm-up broke a check: {:?}",
                warm.broke
            );
            left -= n;
        }
        w.llc.take_vantage_stats();
        (w.outcomes, w.requests, w.hits) = (Fnv::default(), 0, 0);
        (w.epochs, w.lifecycle_calls, w.overshoot) = (0, 0, 0.0);
        w
    }

    fn expected_slices(&self) -> usize {
        SLICES
    }

    fn slice(&mut self, i: usize, tr: &mut Tracer) -> Option<SliceOut> {
        if i >= SLICES {
            return None;
        }
        self.producer
            .fill(self.events_per_slice, &mut self.ops, &mut self.reqs);
        let parent = tr.open("harness", "slice");
        let mut s = self.serve(tr, parent, true);
        tr.close(parent);
        s.units = self.events_per_slice;
        if i == 0 {
            self.slice0_digest = self.state_digest();
        }
        Some(s)
    }

    fn alt_slice0(&mut self, variant: usize) -> Option<u64> {
        if variant != 0 {
            return None;
        }
        self.producer
            .fill(self.events_per_slice, &mut self.ops, &mut self.reqs);
        self.serve(&mut Tracer::new(), ROOT, false);
        Some(self.state_digest())
    }

    fn finish(&mut self) -> Simulated {
        let mut broke = Vec::new();
        if let Err(e) = self.llc.check_invariants() {
            broke.push(format!("check_invariants: {e}"));
        }
        let vantage = self.llc.vantage_stats().clone();
        let mut d = Fnv(self.state_digest());
        fold_vantage(&mut d, &vantage);
        d.fold_all([self.lifecycle_calls, self.epochs]);
        Simulated {
            requests: self.requests,
            hits: self.hits,
            vantage,
            size_overshoot_pct: self.overshoot,
            epochs: self.epochs,
            unit_scale: 1.0,
            slice0_digest: self.slice0_digest,
            digest: d.0,
            broke,
            ..Simulated::default()
        }
    }

    /// The last slice's requests, tenants folded onto a fixed-size
    /// population so fixed-population probes can replay them.
    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            frames: FRAMES,
            cands: CANDS,
            parts: 4,
            population: self.peak_live,
            occupancy: self.llc.array().occupancy(),
            reqs: self
                .reqs
                .iter()
                .take(ProbeInput::MAX_REQS)
                .map(|r| AccessRequest::read(PartitionId::from_index(r.part.index() % 4), r.addr))
                .collect(),
        }
    }
}
