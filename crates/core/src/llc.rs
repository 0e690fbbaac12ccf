//! The Vantage last-level cache: the practical controller of §4 bound to a
//! cache array.
//!
//! Lines from all partitions share the array; capacity is enforced purely at
//! replacement time. Each tag carries a partition ID (with one extra ID for
//! the unmanaged region) and an 8-bit timestamp (or RRPV). On each miss the
//! controller makes one pass over the replacement candidates, whatever the
//! demotion rule:
//!
//! 1. gathers the candidates' tags once, up to the first empty frame;
//! 2. in walk order, meters every managed candidate and *demotes* those
//!    its rule picks — under the practical controller, a line over its
//!    partition's target whose stamp falls outside the partition's keep
//!    window (setpoint-based demotions, §4.2) — re-tagging them into the
//!    unmanaged region, while tracking the oldest unmanaged candidate;
//! 3. evicts that unmanaged candidate, falling back to a just-demoted one,
//!    and only if neither exists forcing an eviction from the managed
//!    region, chosen from the same gathered tags (counted, since its
//!    probability is the paper's isolation metric, Fig. 9b);
//! 4. inserts the incoming line into its partition.
//!
//! Per-partition setpoints are steered by negative feedback every
//! `c = 256` candidates using the demotion thresholds lookup table
//! (feedback-based aperture control, §4.1), so apertures are never computed
//! explicitly at run time.

use vantage_cache::replacement::rrip::BasePolicy;
use vantage_cache::{
    stamp_rank, CacheArray, Frame, LineAddr, Ownership, PartitionId, RripConfig, RripMode,
    RripPolicy, ShareMode, TagMeta, TsLru, Walk, MAX_PROBE_WAYS, TAG_UNMANAGED,
};
pub use vantage_partitioning::PrioritySample;
use vantage_partitioning::{
    AccessOutcome, AccessRequest, HasInvariants, HasPartitionPolicy, InvariantViolation,
    LifecycleError, Llc, LlcStats, PartitionObservations, PartitionSpec, TargetsError,
};
use vantage_telemetry::{PartitionSample, Telemetry, TelemetryEvent};

use crate::config::{DemotionMode, RankMode, VantageConfig};
use crate::controller::{Feedback, PartitionState};
use crate::error::VantageError;
use crate::fault::{Fault, FaultPlan};

/// The partition ID tagging unmanaged lines (and, in the SoA tag store,
/// never-filled frames — see [`TagMeta`]).
pub const UNMANAGED: u16 = TAG_UNMANAGED;

/// Array footprint, in bytes (see [`batch_footprint`]), from which
/// [`Llc::access_batch`] runs its two-stage prefetch pipeline; smaller
/// caches serve a batch as a plain [`Llc::access`] loop. Fixed per cache at
/// construction, never re-checked per call.
///
/// Placed between the two Z4/52 geometries the benchmark drives, measured
/// one thread on a Xeon with a 2 MiB L2 per core. A 32K-frame cache
/// (~0.6 MiB) is already L2-resident, so the pipeline's hashing, ~16
/// prefetches and ~5 extra array calls per request are pure overhead: the
/// plain loop serves an all-hit stream at 34.6M instead of 17.6M acc/s
/// and a half-miss stream at 2.45M instead of 2.22M. Eight 64K-frame
/// caches (~1.2 MiB each) served in alternation behind a banked engine
/// lose ~10% without the pipeline (1.94M → 1.75M acc/s), so 64K frames
/// and every larger cache keep it. A lone 64K-frame cache would gain
/// without it; a per-cache rule cannot tell the two apart (DESIGN.md §8).
const PREFETCH_MIN_FOOTPRINT: usize = 1 << 20;

/// The bytes a request can touch across an array of `frames` frames and
/// `ways` ways: the line store (8 B per frame), a zcache's position memo
/// (2 B per way per frame) and both tag lanes (3 B per frame). Arrays
/// without a position memo are overestimated, which errs toward the
/// pipeline.
fn batch_footprint(frames: usize, ways: usize) -> usize {
    frames * (8 + 2 * ways + 3)
}

/// Vantage-specific event counters (beyond hit/miss bookkeeping).
#[derive(Clone, Debug, Default)]
pub struct VantageStats {
    /// Managed lines demoted to the unmanaged region.
    pub demotions: u64,
    /// Unmanaged lines promoted back on a hit.
    pub promotions: u64,
    /// Evictions served from the unmanaged region (including just-demoted
    /// candidates).
    pub unmanaged_evictions: u64,
    /// Forced evictions from the managed region (no unmanaged or demoted
    /// candidate available) — the isolation-violation count.
    pub forced_managed_evictions: u64,
    /// Fills into empty frames (warm-up only).
    pub empty_fills: u64,
    /// Setpoint adjustments performed.
    pub setpoint_adjustments: u64,
    /// Insertions diverted to the unmanaged region by churn throttling.
    pub throttled_insertions: u64,
    /// Accesses that met a tag with an out-of-range partition ID (fault
    /// injection / soft errors) and fell back to unmanaged-region handling.
    pub corrupted_pid_fallbacks: u64,
    /// Scrub passes performed (manual or periodic).
    pub scrubs: u64,
}

impl VantageStats {
    /// Fraction of evictions that had to come from the managed region —
    /// the empirical counterpart of the model's `P_ev` (Fig. 9b).
    pub fn managed_eviction_fraction(&self) -> f64 {
        let total = self.unmanaged_evictions + self.forced_managed_evictions;
        if total == 0 {
            0.0
        } else {
            self.forced_managed_evictions as f64 / total as f64
        }
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Lifecycle state of one partition slot (service mode).
///
/// The slot table only ever grows; destroyed slots are recycled. A slot's
/// state gates what the controller does with it:
///
/// * `Active` slots serve accesses and hold a capacity target;
/// * `Draining` slots were destroyed while still holding lines — their
///   target is zero (so the aperture saturates at `A_max` and ordinary
///   setpoint demotions evict everything stale) and they become `Free`
///   once the last line leaves;
/// * `Free` slots are fully drained.
///
/// [`Llc::create_partition`] reuses the lowest non-`Active` slot — drained
/// or not — so slot assignment depends only on the lifecycle call
/// sequence, never on drain progress (which differs across the banks of a
/// banked cache). Recycling a `Draining` slot hands its leftover lines to
/// the new tenant, as reassigning a partition ID does in hardware.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SlotState {
    /// Live: serving accesses and holding a capacity target.
    #[default]
    Active,
    /// Destroyed but not yet empty; drains via ordinary demotion.
    Draining,
    /// Fully drained; dead until recycled by the next create.
    Free,
}

/// A Vantage-partitioned last-level cache over any [`CacheArray`].
///
/// # Example
///
/// ```
/// use vantage::{VantageConfig, VantageLlc};
/// use vantage_cache::ZArray;
/// use vantage_partitioning::{AccessRequest, Llc, PartitionId};
///
/// let array = ZArray::new(4096, 4, 52, 1); // Z4/52
/// let mut llc = VantageLlc::try_new(Box::new(array), 2, VantageConfig::default(), 1).expect("valid Vantage config");
/// llc.set_targets(&[3072, 1024]);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x1000.into()));
/// assert_eq!(llc.stats().misses[0], 1);
/// ```
pub struct VantageLlc {
    array: Box<dyn CacheArray>,
    /// Per-frame tags as dense SoA lanes (partition IDs + stamps, Fig. 4);
    /// never-filled frames carry the [`UNMANAGED`] sentinel. Its
    /// (partition, stamp) line count, sized by the slot table, is where
    /// the idealized controller and the priority probe read ranks.
    meta: TagMeta,
    /// How cross-partition sharing is resolved (the [`ShareMode`] knob)
    /// plus the per-partition sharing counters it produces.
    own: Ownership,
    parts: Vec<PartitionState>,
    /// Per-slot lifecycle state, parallel to `parts` (service mode).
    slot_state: Vec<SlotState>,
    /// Partitions created since the last [`Llc::observations`] snapshot.
    pending_arrived: Vec<PartitionId>,
    /// Partitions destroyed since the last [`Llc::observations`] snapshot.
    pending_departed: Vec<PartitionId>,
    /// Unmanaged-region timestamp domain (advanced per demotion).
    um_lru: TsLru,
    um_size: u64,
    um_target: u64,
    cfg: VantageConfig,
    max_rrpv: u8,
    rrip: Option<RripPolicy>,
    stats: LlcStats,
    vstats: VantageStats,
    walk: Walk,
    moves: Vec<(Frame, Frame)>,
    /// Candidate-scan scratch lanes: every miss gathers the walk's tags
    /// once into `scan_part`/`scan_ts`, which the demotion pass and the
    /// forced-victim pick both read. Persistent so the miss path never
    /// allocates.
    scan_part: Vec<u16>,
    scan_ts: Vec<u8>,
    /// `(partition, setpoint)` for each partition whose setpoint adjusted
    /// during the current walk, holding the setpoint from before its first
    /// adjustment: keep windows stand as at walk start (see
    /// [`Scan::is_stale`]). Cleared per walk; rarely more than one entry.
    walk_setpoints: Vec<(u16, u8)>,
    /// Whether [`Llc::access_batch`] runs the prefetch pipeline, decided in
    /// [`Self::try_new`] from the array's footprint (see
    /// [`PREFETCH_MIN_FOOTPRINT`]).
    prefetch_batches: bool,
    /// The pipeline's walk-expansion scratch, sized at construction so a
    /// batch never allocates (empty when `prefetch_batches` is false).
    expand: Vec<Frame>,
    probe: bool,
    samples: Vec<PrioritySample>,
    /// Cumulative lines lost per partition (demotion or eviction) — the
    /// churn meter behind [`PartitionObservations`] and telemetry samples.
    lost: Vec<u64>,
    /// Cumulative managed installs per partition.
    filled: Vec<u64>,
    /// Cumulative unmanaged-region evictions (the region's churn meter).
    um_lost: u64,
    /// `lost`/`um_lost` values at the previous telemetry sample, so each
    /// sample reports churn since the one before.
    sample_lost: Vec<u64>,
    sample_um_lost: u64,
    /// `lost`/`filled` values at the previous [`Llc::observations`]
    /// snapshot, so each snapshot reports epoch-relative dynamics.
    obs_lost: Vec<u64>,
    obs_filled: Vec<u64>,
    accesses: u64,
    /// Run [`Self::scrub`] automatically every this many accesses.
    scrub_period: Option<u64>,
    /// Attached fault schedule, polled once per access (`None` by default;
    /// the disabled case costs one branch).
    fault_plan: Option<FaultPlan>,
    /// Dynamics telemetry (events + periodic samples); disabled by default.
    tele: Telemetry,
}

/// What one [`VantageLlc::scrub`] pass found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Tags with out-of-range partition IDs re-tagged as [`UNMANAGED`].
    pub repaired_tags: u64,
    /// Size registers (per-partition `ActualSize` or the unmanaged size)
    /// rewritten from the tag scan.
    pub size_corrections: u64,
    /// Candidate meters reset because they were outside their period.
    pub meters_reset: u64,
    /// Setpoints re-centered because the keep window was wedged fully
    /// closed (0) or fully open (255).
    pub setpoints_recentered: u64,
}

impl ScrubReport {
    /// Whether the pass found anything to repair.
    pub fn clean(&self) -> bool {
        *self == Self::default()
    }
}

impl VantageLlc {
    /// Creates a Vantage cache over `array` with `partitions` partitions,
    /// initially splitting capacity evenly.
    ///
    /// # Errors
    ///
    /// Returns a [`VantageError`] if `cfg` is out of domain, `partitions`
    /// is 0 or would collide with the reserved unmanaged ID, or the
    /// idealized perfect-aperture controller is combined with RRIP ranking.
    pub fn try_new(
        array: Box<dyn CacheArray>,
        partitions: usize,
        cfg: VantageConfig,
        seed: u64,
    ) -> Result<Self, VantageError> {
        cfg.try_validate()?;
        if partitions == 0 || partitions >= UNMANAGED as usize {
            return Err(VantageError::PartitionCount(partitions));
        }
        let (max_rrpv, rrip) = match cfg.rank {
            RankMode::Lru => (0u8, None),
            RankMode::Rrip { bits } => {
                if cfg.demotion_mode != DemotionMode::Setpoint {
                    return Err(VantageError::PerfectApertureNeedsLru);
                }
                let mut rcfg = RripConfig::paper(RripMode::PerPartition, partitions, seed);
                rcfg.bits = bits;
                ((1u8 << bits) - 1, Some(RripPolicy::new(rcfg)))
            }
        };
        let frames = array.num_frames();
        let ways = array.ways();
        let prefetch_batches = batch_footprint(frames, ways) >= PREFETCH_MIN_FOOTPRINT;
        let parts = (0..partitions)
            .map(|_| PartitionState::new(0, &cfg, max_rrpv))
            .collect();
        let mut llc = Self {
            array,
            meta: TagMeta::with_partitions(frames, partitions),
            own: Ownership::new(ShareMode::Adopt, partitions),
            parts,
            slot_state: vec![SlotState::Active; partitions],
            pending_arrived: Vec::new(),
            pending_departed: Vec::new(),
            um_lru: TsLru::for_size(16),
            um_size: 0,
            um_target: 0,
            cfg,
            max_rrpv,
            rrip,
            stats: LlcStats::new(partitions),
            vstats: VantageStats::default(),
            walk: Walk::with_capacity(64),
            moves: Vec::with_capacity(8),
            scan_part: Vec::with_capacity(64),
            scan_ts: Vec::with_capacity(64),
            walk_setpoints: Vec::with_capacity(8),
            prefetch_batches,
            // One expansion adds at most `ways - 1` children per probe frame.
            expand: Vec::with_capacity(if prefetch_batches { ways * ways } else { 0 }),
            probe: false,
            samples: Vec::new(),
            lost: vec![0; partitions],
            filled: vec![0; partitions],
            um_lost: 0,
            sample_lost: vec![0; partitions],
            sample_um_lost: 0,
            obs_lost: vec![0; partitions],
            obs_filled: vec![0; partitions],
            accesses: 0,
            scrub_period: None,
            fault_plan: None,
            tele: Telemetry::disabled(),
        };
        let even = vec![(frames / partitions) as u64; partitions];
        llc.set_targets(&even);
        Ok(llc)
    }

    /// Vantage-specific counters.
    pub fn vantage_stats(&self) -> &VantageStats {
        &self.vstats
    }

    /// Takes the Vantage-specific counters, leaving zeroed ones — the
    /// per-interval companion of [`Llc::take_stats`].
    pub fn take_vantage_stats(&mut self) -> VantageStats {
        std::mem::take(&mut self.vstats)
    }

    /// Current number of lines in the unmanaged region.
    pub fn unmanaged_size(&self) -> u64 {
        self.um_size
    }

    /// The unmanaged region's target size in lines.
    pub fn unmanaged_target(&self) -> u64 {
        self.um_target
    }

    /// Partition `part`'s (scaled) target size in lines.
    pub fn partition_target(&self, part: PartitionId) -> u64 {
        self.parts[part.index()].target
    }

    /// Lifecycle state of slot `part` (service mode; slots of a cache that
    /// never created or destroyed partitions are all
    /// [`SlotState::Active`]).
    pub fn slot_state(&self, part: PartitionId) -> SlotState {
        self.slot_state[part.index()]
    }

    /// Number of live ([`SlotState::Active`]) partitions.
    pub fn live_partitions(&self) -> usize {
        self.slot_state
            .iter()
            .filter(|s| **s == SlotState::Active)
            .count()
    }

    /// Sets the base policy (SRRIP/BRRIP) for one partition; only meaningful
    /// with RRIP ranking, where the allocation policy picks per-partition
    /// policies at each repartitioning (Vantage-DRRIP, §6.2).
    pub fn set_partition_policy(&mut self, part: usize, policy: BasePolicy) {
        if let Some(rr) = &mut self.rrip {
            rr.set_partition_policy(part, policy);
        }
    }

    /// Read-only view of the underlying array.
    pub fn array(&self) -> &dyn CacheArray {
        self.array.as_ref()
    }

    /// [`Llc::set_targets`] for callers holding a concrete `VantageLlc`
    /// that treat a refused target vector as a bug. It stays because the
    /// frozen `benchmark/` uses this call's value as `()`; it goes with
    /// the benchmark-side follow-up that retires `CmpSim::{run, run_for}`.
    ///
    /// # Panics
    ///
    /// Panics on any vector the trait method refuses with a
    /// [`TargetsError`].
    pub fn set_targets(&mut self, targets: &[u64]) {
        Llc::set_targets(self, targets).expect("targets fit the cache");
    }

    /// The `(partition, stamp)` tag of the resident line holding `addr`,
    /// or `None` when it is not resident. The partition is [`UNMANAGED`]
    /// for lines in the unmanaged region. Instrumentation/test hook; the
    /// access paths never call it.
    pub fn tag_of(&self, addr: LineAddr) -> Option<(u16, u8)> {
        let f = self.array.lookup(addr)? as usize;
        Some((self.meta.part(f), self.meta.ts(f)))
    }

    /// Checks every internal accounting invariant, returning the first
    /// violation instead of panicking — usable inside fault-injection
    /// experiments, where a violation is data rather than a bug, as well
    /// as in tests (`.expect()` it there). O(frames).
    ///
    /// Checked invariants:
    ///
    /// * every tag's partition ID is in range (or [`UNMANAGED`]);
    /// * each partition's `ActualSize` register matches a full scan of the
    ///   tags, and the unmanaged size register likewise;
    /// * the sum of all size registers equals the array occupancy (and so
    ///   never exceeds the line count);
    /// * candidate meters are mid-period: `cands_demoted <= cands_seen < c`;
    /// * the unmanaged target leaves the configured unmanaged fraction
    ///   available: `um_target >= u · capacity` (floor) and the managed
    ///   targets plus `um_target` exactly tile the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`VantageError::Invariant`] describing the first violation.
    pub fn invariants(&self) -> Result<(), VantageError> {
        let viol = |what: String| Err(VantageError::Invariant(what));
        let mut sizes = vec![0u64; self.parts.len()];
        let mut um = 0u64;
        let mut occupied = 0u64;
        for f in 0..self.meta.len() {
            if self.array.occupant(f as Frame).is_none() {
                continue;
            }
            occupied += 1;
            let part = self.meta.part(f);
            if part == UNMANAGED {
                um += 1;
            } else if (part as usize) < self.parts.len() {
                sizes[part as usize] += 1;
            } else {
                return viol(format!(
                    "frame {f} tagged with out-of-range partition {part}"
                ));
            }
        }
        if um != self.um_size {
            return viol(format!(
                "unmanaged size accounting drift: register {} vs scan {um}",
                self.um_size
            ));
        }
        for (p, st) in self.parts.iter().enumerate() {
            if sizes[p] != st.actual {
                return viol(format!(
                    "partition {p} size accounting drift: register {} vs scan {}",
                    st.actual, sizes[p]
                ));
            }
        }
        let total: u64 = self.parts.iter().map(|st| st.actual).sum::<u64>() + self.um_size;
        if total != occupied {
            return viol(format!(
                "size registers sum to {total} but {occupied} frames are occupied"
            ));
        }
        for (p, st) in self.parts.iter().enumerate() {
            if st.cands_seen >= self.cfg.cands_period {
                return viol(format!(
                    "partition {p} candidate meter at {} (period {})",
                    st.cands_seen, self.cfg.cands_period
                ));
            }
            if st.cands_demoted > st.cands_seen {
                return viol(format!(
                    "partition {p} demoted meter {} exceeds seen meter {}",
                    st.cands_demoted, st.cands_seen
                ));
            }
        }
        let cap = self.meta.len() as u64;
        let managed_total: u64 = self.parts.iter().map(|st| st.target).sum();
        if managed_total + self.um_target != cap {
            return viol(format!(
                "targets do not tile the cache: {managed_total} managed + {} unmanaged != {cap}",
                self.um_target
            ));
        }
        let floor = (self.cfg.unmanaged_fraction * cap as f64).floor() as u64;
        if self.um_target < floor {
            return viol(format!(
                "unmanaged target {} below the configured fraction's floor {floor}",
                self.um_target
            ));
        }
        Ok(())
    }

    /// Enables (or disables, with `None`) an automatic [`Self::scrub`]
    /// pass every `period` accesses — the recovery half of a
    /// fault-tolerance loop. A zero period disables scrubbing.
    pub fn set_scrub_period(&mut self, period: Option<u64>) {
        self.scrub_period = period.filter(|&p| p > 0);
    }

    /// Attaches (or detaches, with `None`) a seeded [`FaultPlan`]: the plan
    /// is polled on every access and due faults are injected in-line via
    /// [`Self::inject`]. Pair with [`Self::set_scrub_period`] for a closed
    /// inject/recover loop. Returns the previously attached plan, whose
    /// [`log`](FaultPlan::log) records everything it injected.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Option<FaultPlan> {
        std::mem::replace(&mut self.fault_plan, plan)
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Applies one [`Fault`] to live state, deliberately leaving dependent
    /// registers stale — that staleness is what the recovery paths exist to
    /// absorb. Returns `false` for faults that do not apply (workload-level
    /// [`ChurnBurst`](Fault::ChurnBurst) descriptors, or tag faults when
    /// the array is empty).
    ///
    /// A tag fault moves its line in the tag store's count index like any
    /// other tag write (an out-of-range ID lands in the index's shared
    /// overflow row), so ranks always reflect the corrupted tags;
    /// everything architectural — size registers, setpoints, meters — is
    /// left for [`Self::scrub`] and the access-path fallbacks to repair.
    pub fn inject(&mut self, fault: &Fault) -> bool {
        let lru = self.is_lru();
        let nparts = self.parts.len();
        match *fault {
            Fault::TagPartFlip { frame_sel, bit } => {
                let Some(f) = self.pick_occupied(frame_sel) else {
                    return false;
                };
                self.meta.set_part(f, self.meta.part(f) ^ (1 << (bit % 16)));
            }
            Fault::TagTsFlip { frame_sel, bit } => {
                let Some(f) = self.pick_occupied(frame_sel) else {
                    return false;
                };
                self.meta.set_ts(f, self.meta.ts(f) ^ (1 << (bit % 8)));
            }
            Fault::ActualSizeCorrupt { part_sel, bit } => {
                let p = (part_sel % nparts as u64) as usize;
                self.parts[p].actual ^= 1u64 << (bit % 20);
            }
            Fault::SetpointCorrupt { part_sel, value } => {
                let p = (part_sel % nparts as u64) as usize;
                self.parts[p].setpoint = value;
                if !lru {
                    // In RRIP mode the setpoint register holds an RRPV; a
                    // glitch can push it past max_rrpv + 1 ("demote
                    // nothing"), which scrub clamps back.
                    self.parts[p].setpoint_rrpv = value;
                }
            }
            Fault::MeterCorrupt {
                part_sel,
                seen,
                demoted,
            } => {
                let p = (part_sel % nparts as u64) as usize;
                self.parts[p].cands_seen = seen;
                self.parts[p].cands_demoted = demoted;
            }
            Fault::ChurnBurst { .. } => return false,
        }
        true
    }

    /// One recovery pass over all soft state, O(frames) — the software
    /// analogue of a periodic tag-array scrubber:
    ///
    /// * tags with out-of-range partition IDs are re-tagged [`UNMANAGED`]
    ///   (the line stays resident and is evicted or promoted normally);
    /// * every size register (`ActualSize`, unmanaged size) is recomputed
    ///   from the tag scan;
    /// * candidate meters outside `demoted <= seen < c` are reset to 0;
    /// * setpoints whose keep window is wedged fully closed (0) or fully
    ///   open (255) are re-centered to the constructor's half-window, and
    ///   RRIP setpoints are clamped to `max_rrpv + 1` — the feedback loop
    ///   then re-converges in a few adjustment periods instead of having to
    ///   ratchet one step per period across the whole timestamp space.
    pub fn scrub(&mut self) -> ScrubReport {
        let lru = self.is_lru();
        let mut report = ScrubReport::default();
        let mut sizes = vec![0u64; self.parts.len()];
        let mut um = 0u64;
        for f in 0..self.meta.len() {
            if self.array.occupant(f as Frame).is_none() {
                // A never-filled frame must carry the sentinel so size
                // audits cannot confuse it with a partition-0 line;
                // anything else is a stale tag.
                if self.meta.part(f) != UNMANAGED || self.meta.ts(f) != 0 {
                    self.meta.set(f, UNMANAGED, 0);
                    report.repaired_tags += 1;
                }
                continue;
            }
            let part = self.meta.part(f);
            if part != UNMANAGED && (part as usize) >= self.parts.len() {
                self.meta.set_part(f, UNMANAGED);
                report.repaired_tags += 1;
            }
            let part = self.meta.part(f);
            if part == UNMANAGED {
                um += 1;
            } else {
                sizes[part as usize] += 1;
            }
        }
        if um != self.um_size {
            self.um_size = um;
            report.size_corrections += 1;
        }
        for (st, &scanned) in self.parts.iter_mut().zip(&sizes) {
            if st.actual != scanned {
                st.actual = scanned;
                report.size_corrections += 1;
            }
        }
        for st in &mut self.parts {
            if st.cands_seen >= self.cfg.cands_period || st.cands_demoted > st.cands_seen {
                st.cands_seen = 0;
                st.cands_demoted = 0;
                report.meters_reset += 1;
            }
            let window = st.keep_window();
            if window == 0 || window == u8::MAX {
                st.setpoint = st.lru.current().wrapping_sub(128);
                report.setpoints_recentered += 1;
            }
            if !lru && st.setpoint_rrpv > self.max_rrpv + 1 {
                st.setpoint_rrpv = self.max_rrpv + 1;
                report.setpoints_recentered += 1;
            }
        }
        self.vstats.scrubs += 1;
        if self.tele.enabled() {
            let repairs = report.repaired_tags
                + report.size_corrections
                + report.meters_reset
                + report.setpoints_recentered;
            self.tele.event(TelemetryEvent::Scrub {
                access: self.accesses,
                repairs,
            });
        }
        report
    }

    /// Lazily retires drained slots: a [`SlotState::Draining`] slot whose
    /// last line has left becomes [`SlotState::Free`]. Run at the
    /// lifecycle/observation boundaries rather than on the access path —
    /// nothing on the hot path reads the distinction.
    fn retire_drained_slots(&mut self) {
        for (st, slot) in self.parts.iter().zip(&mut self.slot_state) {
            if *slot == SlotState::Draining && st.actual == 0 {
                *slot = SlotState::Free;
            }
        }
    }

    /// Resizes every per-slot table to `n` slots (snapshot restore of a
    /// cache whose population moved since construction). New slots start
    /// zeroed and [`SlotState::Free`]; the caller overwrites each slot's
    /// state from the payload.
    fn resize_slot_tables(&mut self, n: usize) {
        self.parts
            .resize_with(n, || PartitionState::new(0, &self.cfg, self.max_rrpv));
        self.slot_state.resize(n, SlotState::Free);
        self.meta.resize_partitions(n);
        self.stats.resize(n);
        self.lost.resize(n, 0);
        self.filled.resize(n, 0);
        self.sample_lost.resize(n, 0);
        self.obs_lost.resize(n, 0);
        self.obs_filled.resize(n, 0);
        self.tele.bind(n);
    }

    /// Maps a raw frame selector to an occupied frame, uniformly: the
    /// selector is reduced modulo the occupancy and the k-th occupied
    /// frame (in frame order) is chosen, so every resident line is
    /// equally likely. (Reducing modulo the frame count and scanning
    /// forward to the next occupied slot would over-sample frames that
    /// follow runs of empties.) Counts by scanning rather than trusting
    /// the size registers, which fault injection may have corrupted.
    fn pick_occupied(&self, frame_sel: u64) -> Option<usize> {
        let occupied = (0..self.meta.len())
            .filter(|&f| self.array.occupant(f as Frame).is_some())
            .count();
        if occupied == 0 {
            return None;
        }
        let k = (frame_sel % occupied as u64) as usize;
        (0..self.meta.len())
            .filter(|&f| self.array.occupant(f as Frame).is_some())
            .nth(k)
    }

    /// The unmanaged region's current timestamp period, in demotions per
    /// tick (instrumentation: asserts which size the region's clock
    /// tracks).
    pub fn unmanaged_ts_period(&self) -> u32 {
        self.um_lru.period()
    }

    /// Tags frame `f` into the unmanaged region, which grows by one line:
    /// a demotion or a throttled fill. Under RRIP ranking the line takes
    /// `rrpv`; under LRU ranking it takes the region's clock.
    ///
    /// The clock's period follows the region's *actual* size (the
    /// `size/16` rule applied to `um_size`, matching how partitions derive
    /// theirs from `ActualSize`), re-derived only when the timestamp
    /// advances — the per-demotion path carries no division and the clock
    /// tracks what the region really holds rather than its target.
    #[inline]
    fn stamp_unmanaged(&mut self, f: usize, rrpv: u8) {
        self.um_size += 1;
        let ts = if self.is_lru() {
            if self.um_lru.on_access() {
                self.um_lru.set_period_for_size(self.um_size.max(16));
            }
            self.um_lru.current()
        } else {
            rrpv
        };
        self.meta.set(f, UNMANAGED, ts);
    }

    /// Tags frame `f` as partition `owner`'s line after an access by
    /// `part` — a hit or a fill; `owner` differs from `part` only for a
    /// shared hit pinned to its owner. Under RRIP ranking the line takes
    /// `rrpv`. Under LRU ranking the accessor's coarse clock ticks (see
    /// [`Self::clamp_aliasing`]) and the line takes the owner's current
    /// stamp, so a pinned hit refreshes recency without advancing the
    /// owner's clock.
    #[inline]
    fn stamp_managed(&mut self, f: usize, part: usize, owner: usize, rrpv: u8) {
        let ts = if self.is_lru() {
            let (t, advanced) = self.parts[part].on_access_advanced();
            if advanced {
                self.clamp_aliasing(part, t);
            }
            self.parts[owner].lru.current()
        } else {
            rrpv
        };
        self.meta.set(f, owner as u16, ts);
    }

    /// Pins partition `part`'s aliasing stamps right after its coarse
    /// clock ticked to `t`, before any line is stamped with the new value.
    ///
    /// Without this, a line untouched for a full 256 ticks reads as age 0
    /// again — back inside the keep window — and dodges demotion for
    /// another epoch (and every epoch after). Pinning rewrites those
    /// stamps to `t + 1` (age 255 under the new clock), so genuinely
    /// stale lines stay the oldest; each later tick re-pins them. The
    /// frame about to be stamped may be among them; the stamp that follows
    /// overwrites its pin.
    fn clamp_aliasing(&mut self, part: usize, t: u8) {
        self.meta.clamp_stale(part as u16, t);
    }

    fn is_lru(&self) -> bool {
        matches!(self.cfg.rank, RankMode::Lru)
    }

    fn hit(&mut self, part: usize, frame: Frame) {
        let f = frame as usize;
        let tag_part = self.meta.part(f);
        let mut owner = part;
        if tag_part == UNMANAGED {
            // Promotion: the line rejoins the accessing partition. The
            // saturating decrement tolerates a corrupted unmanaged-size
            // register (scrub recomputes the true value).
            self.vstats.promotions += 1;
            self.tele.event(TelemetryEvent::Promotion {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
            self.um_size = self.um_size.saturating_sub(1);
            self.parts[part].actual += 1;
        } else if (tag_part as usize) >= self.parts.len() {
            // Corrupted partition ID (fault injection / soft error): adopt
            // the line into the accessing partition. The original owner's
            // size register still counts it; that drift is repaired by the
            // next scrub.
            self.vstats.corrupted_pid_fallbacks += 1;
            self.parts[part].actual += 1;
        } else {
            let q = tag_part as usize;
            if q != part {
                // Cross-partition hit: the ownership layer decides whether
                // the line migrates to its latest user (Adopt) or stays with
                // its first owner (Pin). Under Replicate the per-partition
                // address salt keeps lookups disjoint, so this branch is
                // unreachable in that mode.
                self.tele.event(TelemetryEvent::SharedHit {
                    access: self.accesses,
                    part: PartitionId::from_index(part),
                    owner: PartitionId::from_index(q),
                });
                if self.own.on_shared_hit(part as u16) {
                    // Adopt: the shared line migrates to its latest user.
                    self.tele.event(TelemetryEvent::OwnershipTransfer {
                        access: self.accesses,
                        part: PartitionId::from_index(part),
                        from: PartitionId::from_index(q),
                    });
                    self.parts[q].actual = self.parts[q].actual.saturating_sub(1);
                    self.parts[part].actual += 1;
                } else {
                    // Pin: refresh the line's recency under the *owner's*
                    // clock without advancing it (the owner did not access);
                    // the accessor's coarse clock still ticks for this
                    // access. Ownership, size registers and the owner's
                    // demotion exposure are all untouched.
                    owner = q;
                }
            }
        }
        // Under RRIP a hit promotes to near-immediate re-reference.
        self.stamp_managed(f, part, owner, 0);
    }

    /// Demotes frame `f`, partition `q`'s line stamped `ts`, into the
    /// unmanaged region.
    fn demote_candidate(&mut self, f: usize, q: usize, ts: u8) {
        self.vstats.demotions += 1;
        self.tele.event(TelemetryEvent::Demotion {
            access: self.accesses,
            part: PartitionId::from_index(q),
        });
        if self.probe {
            let pr = rank(&self.meta, &self.parts[q], q, ts);
            self.samples.push((self.accesses, q as u16, pr as f32));
        }
        self.parts[q].actual = self.parts[q].actual.saturating_sub(1);
        self.lost[q] += 1;
        self.stamp_unmanaged(f, ts);
    }

    /// Emits the telemetry for one setpoint adjustment: the adjusted keep
    /// window plus the implied Eq. 7 aperture at the current size. Cold by
    /// construction — at most once per `c = 256` candidates, and only
    /// reached with telemetry enabled.
    #[cold]
    fn note_adjustment(&mut self, part: usize, fb: Feedback) {
        let st = &self.parts[part];
        let direction = match fb {
            Feedback::TooMany => 1i8,
            Feedback::TooFew => -1,
            Feedback::OnTarget => 0,
        };
        let window = st.keep_window();
        let aperture = st.table.aperture(st.actual) as f32;
        self.tele.event(TelemetryEvent::SetpointAdjust {
            access: self.accesses,
            part: PartitionId::from_index(part),
            direction,
            window,
        });
        self.tele.event(TelemetryEvent::ApertureUpdate {
            access: self.accesses,
            part: PartitionId::from_index(part),
            aperture,
        });
    }

    /// Emits one periodic sample per partition plus one for the unmanaged
    /// region. Cold: reached once per telemetry sampling period.
    #[cold]
    fn emit_samples(&mut self) {
        for p in 0..self.parts.len() {
            if self.slot_state[p] == SlotState::Free {
                self.sample_lost[p] = self.lost[p];
                continue;
            }
            let st = &self.parts[p];
            let s = PartitionSample {
                access: self.accesses,
                part: PartitionId::from_index(p),
                actual: st.actual,
                target: st.target,
                aperture: st.table.aperture(st.actual) as f32,
                window: st.keep_window(),
                churn: self.lost[p] - self.sample_lost[p],
                shared: self.own.shared_hits()[p],
                transfers: self.own.transfers()[p],
            };
            self.sample_lost[p] = self.lost[p];
            self.tele.sample(s);
        }
        self.tele.sample(PartitionSample {
            access: self.accesses,
            part: PartitionId::UNMANAGED,
            actual: self.um_size,
            target: self.um_target,
            aperture: 0.0,
            window: 0,
            churn: self.um_lost - self.sample_um_lost,
            shared: 0,
            transfers: 0,
        });
        self.sample_um_lost = self.um_lost;
    }

    /// The walk-order resolution loop of [`Self::miss`], one skeleton for
    /// every demotion rule and the miss path's one pass over its
    /// candidates. Over the gathered lanes it tracks the oldest unmanaged
    /// candidate, routes corrupted partition IDs to eviction, meters each
    /// managed candidate, and demotes it or (RRIP) ages it. The rule
    /// supplies only `demote(scan, i, q, ts, over)`: whether candidate
    /// `i`, partition `q`'s line stamped `ts`, is demoted, given whether
    /// `q` is `over` its target — checked live, so one walk never demotes
    /// a partition below its target — or `None` to leave the candidate
    /// unmetered. Each rule's call compiles to its own loop with the
    /// predicate inlined.
    ///
    /// The per-candidate body runs over [`Scan`]'s split field borrows and
    /// makes no `&mut self` call. It leaves that loop only for three rare
    /// events, handled out of line before it resumes at the next
    /// candidate: a corrupted partition ID, the end of a `c`-candidate
    /// metering period (the setpoint adjusts), and a demotion — in that
    /// order when one candidate completes a period and is demoted, so the
    /// adjustment reads the size from before the demotion.
    ///
    /// Returns the walk indices of the oldest unmanaged candidate and of
    /// the first demoted one.
    #[inline(always)]
    fn resolve(
        &mut self,
        walk: &Walk,
        mut demote: impl FnMut(&Scan<'_>, usize, usize, u8, bool) -> Option<bool>,
    ) -> (Option<usize>, Option<usize>) {
        /// Why the fast loop stopped at a candidate.
        enum Rare {
            Corrupted,
            /// A metered candidate that is demoted or completes its
            /// partition's `c`-candidate period (`adjust`).
            Metered {
                demoted: bool,
                adjust: bool,
            },
        }
        let lru = self.is_lru();
        let (cands_period, max_rrpv) = (self.cfg.cands_period, self.max_rrpv);
        let mut best_um: Option<(usize, u8)> = None; // (walk idx, age/rrpv)
        let mut first_demoted: Option<usize> = None;
        self.walk_setpoints.clear();
        let n = self.scan_part.len();
        let mut i = 0;
        while i < n {
            let scan = Scan {
                parts: &mut self.parts,
                slot_state: &self.slot_state,
                meta: &mut self.meta,
                walk_setpoints: &self.walk_setpoints,
            };
            let (lane_part, lane_ts, um_lru) =
                (&self.scan_part[..n], &mut self.scan_ts[..n], &self.um_lru);
            // The fast loop: runs to the end of the walk or stops at `i`
            // on a rare event.
            let rare = loop {
                if i == n {
                    break None;
                }
                let (tag_part, tag_ts) = (lane_part[i], lane_ts[i]);
                if tag_part == UNMANAGED {
                    let age = if lru { um_lru.age(tag_ts) } else { tag_ts };
                    if best_um.is_none_or(|(_, a)| age > a) {
                        best_um = Some((i, age));
                    }
                    i += 1;
                    continue;
                }
                let q = tag_part as usize;
                let Some(st) = scan.parts.get(q) else {
                    break Some(Rare::Corrupted);
                };
                let over = st.actual > st.target;
                let Some(demoted) = demote(&scan, i, q, tag_ts, over) else {
                    i += 1;
                    continue;
                };
                let adjust = scan.parts[q].meter(demoted, cands_period);
                if !demoted && !lru && over && tag_ts < max_rrpv {
                    // RRIP aging: candidates of over-target partitions
                    // drift towards "distant" so demotion pressure can
                    // build (under-target partitions are never aged,
                    // §6.2).
                    scan.meta.set_ts(walk.nodes[i].frame as usize, tag_ts + 1);
                    lane_ts[i] = tag_ts + 1;
                }
                if demoted | adjust {
                    break Some(Rare::Metered { demoted, adjust });
                }
                i += 1;
            };
            let Some(rare) = rare else { break };
            match rare {
                Rare::Corrupted => {
                    // Corrupted partition ID: treat the line as the oldest
                    // possible unmanaged candidate so it is evicted (and
                    // the corruption flushed) at the first opportunity.
                    self.vstats.corrupted_pid_fallbacks += 1;
                    best_um = Some((i, u8::MAX));
                }
                Rare::Metered { demoted, adjust } => {
                    let q = self.scan_part[i] as usize;
                    if adjust {
                        self.adjust_in_walk(q);
                    }
                    if demoted {
                        first_demoted.get_or_insert(i);
                        self.demote_candidate(walk.nodes[i].frame as usize, q, self.scan_ts[i]);
                    }
                }
            }
            i += 1;
        }
        (best_um.map(|(i, _)| i), first_demoted)
    }

    /// Applies partition `q`'s every-`c`-candidates feedback mid-walk,
    /// first recording its setpoint for the rest of the walk if this is
    /// its first adjustment in it.
    fn adjust_in_walk(&mut self, q: usize) {
        let st = &mut self.parts[q];
        if !self
            .walk_setpoints
            .iter()
            .any(|&(p, _)| usize::from(p) == q)
        {
            self.walk_setpoints.push((q as u16, st.setpoint));
        }
        let fb = st.adjust_setpoint(self.max_rrpv);
        self.vstats.setpoint_adjustments += 1;
        if self.tele.enabled() {
            self.note_adjustment(q, fb);
        }
    }

    // Out of line: with one scan loop per rule inlined, the miss path is
    // large, and inlining it into the access path costs hits a few
    // percent.
    #[inline(never)]
    fn miss(&mut self, part: usize, addr: LineAddr) {
        if let Some(rr) = &mut self.rrip {
            rr.note_miss(part, addr);
        }
        // The walk buffer is moved out of `self` for the duration of the
        // miss: the candidate loop below then borrows it immutably while
        // mutating the rest of the controller, which also lets the compiler
        // keep its pointer in a register across those mutations.
        let mut walk = std::mem::take(&mut self.walk);
        self.array.walk(addr, &mut walk);
        let lru = self.is_lru();

        // --- Demotion pass over all candidates (§4.3, "Misses"). ---
        // One gather: the walk's tags are read once into contiguous lanes
        // — independent loads, issued back to back rather than interleaved
        // with controller updates — cut at the first empty frame, where
        // the scan ends. Candidate frames are deduplicated, so no demotion
        // can change another candidate's tag: each lane entry is the tag
        // its candidate is resolved with, and RRIP aging writes through to
        // it so the forced-victim pick below reads current tags.
        let n = walk.nodes.len();
        self.scan_part.clear();
        self.scan_part.resize(n, 0);
        self.scan_ts.clear();
        self.scan_ts.resize(n, 0);
        let lanes = self.scan_part.iter_mut().zip(self.scan_ts.iter_mut());
        for (node, (p, t)) in walk.nodes.iter().zip(lanes) {
            let f = node.frame as usize;
            (*p, *t) = (self.meta.part(f), self.meta.ts(f));
        }
        let occ = walk
            .nodes
            .iter()
            .position(|nd| !nd.is_occupied())
            .unwrap_or(n);
        self.scan_part.truncate(occ);
        self.scan_ts.truncate(occ);
        let empty = (occ < n).then_some(occ);
        // One resolution loop ([`Self::resolve`]); each rule supplies only
        // its demote predicate, evaluated in walk order against live state
        // — RRIP's setpoint, the aperture and the ranks, the running
        // oldest pick.
        let mut best_managed: Option<(usize, u8)> = None; // exactly-one pick
        let (best_um, mut first_demoted) = match (self.cfg.demotion_mode, self.cfg.rank) {
            // Practical controller, LRU ranks: demote outside the keep
            // window as it stood at walk start (a mid-walk adjustment takes
            // effect from the next walk). A draining slot's lines all count
            // as stale: a destroyed partition's coarse clock never advances
            // again (only its own accesses tick it), so without this its
            // freshest lines would read age 0 forever and the drain would
            // stall short of empty. Non-short-circuit `&`: at equilibrium
            // `actual` hovers at `target`, so branching on it alone is
            // noise, while the combined outcome (a few demotions per walk)
            // predicts well.
            (DemotionMode::Setpoint, RankMode::Lru) => {
                self.resolve(&walk, |scan, _, q, ts, over| {
                    Some(
                        over & (scan.is_stale(q, ts) | (scan.slot_state[q] == SlotState::Draining)),
                    )
                })
            }
            // Practical controller, RRIP ranks: demote at or above the
            // setpoint RRPV.
            (DemotionMode::Setpoint, RankMode::Rrip { .. }) => self
                .resolve(&walk, |scan, _, q, ts, over| {
                    Some(over & (ts >= scan.parts[q].setpoint_rrpv))
                }),
            // Idealized controller: demote by exact rank against the
            // aperture.
            (DemotionMode::PerfectAperture, _) => self.resolve(&walk, |scan, _, q, ts, over| {
                let st = &scan.parts[q];
                Some(
                    over && {
                        let aperture = st.table.aperture(st.actual);
                        aperture > 0.0 && rank(scan.meta, st, q, ts) > 1.0 - aperture
                    },
                )
            }),
            // Fig. 2b strawman: remember the oldest over-target candidate
            // and demote exactly that one after the scan (unmetered).
            (DemotionMode::ExactlyOne, _) => self.resolve(&walk, |scan, i, q, ts, over| {
                let age = scan.parts[q].lru.age(ts);
                if over && best_managed.is_none_or(|(_, a)| age > a) {
                    best_managed = Some((i, age));
                }
                None
            }),
        };
        if let (Some((i, _)), None) = (best_managed, empty) {
            first_demoted = Some(i);
            let q = self.scan_part[i] as usize;
            self.demote_candidate(walk.nodes[i].frame as usize, q, self.scan_ts[i]);
        }

        // --- Victim selection. ---
        let mut forced = false;
        let victim = if let Some(e) = empty {
            self.vstats.empty_fills += 1;
            e
        } else if let Some(i) = best_um {
            self.vstats.unmanaged_evictions += 1;
            i
        } else if let Some(i) = first_demoted {
            self.vstats.unmanaged_evictions += 1;
            i
        } else {
            // Forced eviction from the managed region. The paper leaves the
            // choice arbitrary; we pick the oldest candidate (the last one
            // on ties), preferring partitions that are over their targets so
            // transients do not bleed quiet, under-target partitions. No
            // candidate was demoted, so the lanes hold every current tag.
            self.vstats.forced_managed_evictions += 1;
            forced = true;
            let mut best = 0usize;
            let mut best_key = 0u32;
            for (i, (&q, &ts)) in self.scan_part.iter().zip(&self.scan_ts).enumerate() {
                // Over-target flag above age; a corrupted-PID line
                // (tolerated above) is always the best forced victim: no
                // healthy partition loses a line.
                let key = self.parts.get(q as usize).map_or(u32::MAX, |st| {
                    let age = if lru { st.lru.age(ts) } else { ts };
                    (u32::from(st.actual > st.target) << 8) | u32::from(age)
                });
                if key >= best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        };

        // --- Retire the victim's tag. ---
        let vnode = walk.nodes[victim];
        if vnode.is_occupied() {
            self.stats.evictions += 1;
            let vf = vnode.frame as usize;
            let tag_part = self.meta.part(vf);
            self.tele.event(TelemetryEvent::Eviction {
                access: self.accesses,
                part: PartitionId::from_raw(tag_part),
                forced,
            });
            if tag_part == UNMANAGED {
                self.um_size = self.um_size.saturating_sub(1);
                self.um_lost += 1;
            } else if (tag_part as usize) < self.parts.len() {
                let q = tag_part as usize;
                self.parts[q].actual = self.parts[q].actual.saturating_sub(1);
                self.lost[q] += 1;
            }
            // Out-of-range PIDs: no register ever counted this line under a
            // valid owner, so there is nothing to decrement; the stale
            // original-owner register is repaired by the next scrub.
        }

        // --- Install the incoming line. ---
        self.moves.clear();
        let landing = self.array.install(addr, &walk, victim, &mut self.moves) as usize;
        self.walk = walk;
        for &(from, to) in &self.moves {
            self.meta.copy(from, to);
        }
        let rrpv = self
            .rrip
            .as_mut()
            .map_or(0, |rr| rr.insertion_rrpv(part, addr));
        // Churn throttling (§3.4 option 2): a partition whose aperture is
        // pinned at A_max cannot shed lines fast enough; divert its fills
        // to the unmanaged region instead of growing it further.
        let st = &self.parts[part];
        if self.cfg.churn_throttling
            && st.table.aperture(st.actual.saturating_add(1)) >= self.cfg.a_max
        {
            self.vstats.throttled_insertions += 1;
            self.stamp_unmanaged(landing, rrpv);
            return;
        }
        self.parts[part].actual += 1;
        self.filled[part] += 1;
        if self.own.mode() == ShareMode::Replicate {
            // Every managed install under Replicate carries the partition's
            // address salt, so it is a private copy by construction.
            self.own.on_replica_fill(part as u16);
            self.tele.event(TelemetryEvent::Replica {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
        }
        self.stamp_managed(landing, part, part, rrpv);
    }
}

/// The controller state [`VantageLlc::resolve`]'s per-candidate loop
/// reads and writes, borrowed field by field so the loop makes no
/// `&mut self` call; a demotion rule reads it through the same borrows.
struct Scan<'a> {
    parts: &'a mut [PartitionState],
    slot_state: &'a [SlotState],
    meta: &'a mut TagMeta,
    walk_setpoints: &'a [(u16, u8)],
}

impl Scan<'_> {
    /// Whether partition `q`'s line stamped `ts` falls outside `q`'s keep
    /// window as it stood at walk start (DESIGN.md §12): against the
    /// setpoint recorded at `q`'s first adjustment in this walk, if any,
    /// else the live one.
    #[inline]
    fn is_stale(&self, q: usize, ts: u8) -> bool {
        let st = &self.parts[q];
        let setpoint = self
            .walk_setpoints
            .iter()
            .find(|&&(p, _)| usize::from(p) == q)
            .map_or(st.setpoint, |&(_, sp)| sp);
        st.is_stale(ts, setpoint)
    }
}

/// The rank (Fig. 8 priority) of partition `q`'s line stamped `ts` among
/// the partition's lines, read from the tag store's count row; `st` is
/// `q`'s controller state. The total is the row's sum, never the
/// `ActualSize` register, which faults corrupt.
///
/// Ranks are only read while a miss resolves, when every tag is whole: no
/// frame is half-retired or awaiting its stamp. So the row counts exactly
/// the partition's resident lines, corrupted tags included (a flip into an
/// out-of-range ID leaves the row).
fn rank(meta: &TagMeta, st: &PartitionState, q: usize, ts: u8) -> f64 {
    let row = meta.stamp_counts(q as u16);
    // At most the frame count, so a u32 sum cannot overflow, and it
    // vectorizes without widening (the idealized controller ranks most
    // candidates of every walk).
    let total: u32 = row.iter().sum();
    stamp_rank(row, u64::from(total), ts, st.lru.current())
}

impl VantageLlc {
    /// [`Llc::access`] taking an optional probe hint: when `probe` holds
    /// the frames a prior [`CacheArray::prefetch`] of this address
    /// returned, the lookup reuses them via
    /// [`CacheArray::lookup_prefetched`] instead of rehashing. Observable
    /// behavior is identical either way; the batched path passes its
    /// pipeline's stage-1 frames here.
    fn access_probed(&mut self, req: AccessRequest, probe: &[Frame]) -> AccessOutcome {
        let AccessRequest { part, addr, .. } = req;
        let part = part.index();
        // Under Replicate the lookup address carries a per-partition salt,
        // so each partition fills (and hits) a private copy of shared lines.
        // Identity in every other mode.
        let addr = self.own.effective_addr(part as u16, addr);
        self.accesses += 1;
        if let Some(fault) = self.fault_plan.as_mut().and_then(|p| p.poll(self.accesses)) {
            self.inject(&fault);
        }
        if let Some(period) = self.scrub_period {
            if self.accesses.is_multiple_of(period) {
                self.scrub();
            }
        }
        if self.tele.sample_due(self.accesses) {
            self.emit_samples();
        }
        let found = if probe.is_empty() {
            self.array.lookup(addr)
        } else {
            self.array.lookup_prefetched(addr, probe)
        };
        if let Some(frame) = found {
            self.stats.hits[part] += 1;
            self.hit(part, frame);
            AccessOutcome::Hit
        } else {
            self.stats.misses[part] += 1;
            self.miss(part, addr);
            AccessOutcome::Miss
        }
    }
}

impl Llc for VantageLlc {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        self.access_probed(req, &[])
    }

    /// The serial loop, with a two-stage software-prefetch pipeline for
    /// caches whose footprint reaches 1 MiB (`PREFETCH_MIN_FOOTPRINT`:
    /// 55 192 frames and up for Z4), decided once, at construction. Smaller
    /// caches sit in the host's own cache, where the pipeline's extra
    /// hashing and prefetches only cost, so they serve the batch as a plain
    /// [`Llc::access`] loop.
    ///
    /// On larger arrays each access is otherwise a chain of dependent
    /// random loads: `ways` line probes on every request, and on a miss
    /// the replacement walk's BFS over the candidate frames (each level's
    /// positions are read from the previous level's rows). The pipeline
    /// mirrors that dependence structure across requests:
    ///
    /// * at `i + D1`, warm request `i + D1`'s depth-0 probe rows
    ///   ([`CacheArray::prefetch`]);
    /// * at `i + D2`, once those rows are resident, predict the outcome
    ///   from them and — for predicted misses only — expand one walk level
    ///   and warm the depth-1 candidates
    ///   ([`CacheArray::prefetch_expand`]).
    ///
    /// Per-frame ranking tags (`meta`) are warmed alongside each stage.
    /// (A third stage warming the walk's final level was tried — both the
    /// full expansion and a leaf-only variant — and *hurt*: the ~70-110
    /// extra prefetches per miss oversubscribe the fill buffers.)
    ///
    /// At serve time the request's probe frames — computed at stage 1 and
    /// guaranteed current because the array's hash functions are fixed at
    /// construction — are handed back to the lookup
    /// ([`CacheArray::lookup_prefetched`]), sparing the rehash.
    /// Replacement decisions are untouched — prefetches are hints and the
    /// serve path is exactly [`Llc::access`] — so outcomes and statistics
    /// are identical to the one-at-a-time path. Neither path allocates
    /// beyond growing `out`.
    fn access_batch(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        /// Prefetch distances (in requests ahead of the serving position)
        /// of the two stages: far enough apart that stage 2's reads were
        /// prefetched by stage 1, near enough that lines survive in cache
        /// until their turn.
        const D1: usize = 48;
        const D2: usize = 16;
        /// One slot more than the pipeline depth, so request `i`'s slot is
        /// still intact when it is served at iteration `i` (stage 1 of
        /// iteration `i` recycles a different slot).
        const RING: usize = D1 + 1;

        /// In-flight prefetch state for one request: its depth-0 probe
        /// frames. (The walk candidates stage 2 expands from them are
        /// consumed on the spot, in the shared `expand` scratch.)
        #[derive(Clone, Copy)]
        struct Slot {
            l0: [Frame; MAX_PROBE_WAYS],
            n: usize,
        }

        out.reserve(reqs.len());
        if !self.prefetch_batches {
            out.extend(reqs.iter().map(|&req| self.access_probed(req, &[])));
            return;
        }
        // On the stack and fresh per call, so no slot can carry a previous
        // batch's probe frames into this one.
        let mut ring = [Slot {
            l0: [vantage_cache::INVALID_FRAME; MAX_PROBE_WAYS],
            n: 0,
        }; RING];
        for (i, &req) in reqs.iter().enumerate() {
            if let Some(ahead) = reqs.get(i + D1) {
                let slot = &mut ring[(i + D1) % RING];
                // Prefetch what the serve path will actually look up: the
                // ownership layer may salt the address per partition.
                let a = self
                    .own
                    .effective_addr(ahead.part.index() as u16, ahead.addr);
                slot.n = self.array.prefetch(a, &mut slot.l0);
                for &f in &slot.l0[..slot.n] {
                    // The hit path reads both tag lanes; warm them
                    // alongside the array's own probe state.
                    self.meta.prefetch(f as usize);
                }
            }
            if let Some(ahead) = reqs.get(i + D2) {
                let slot = &ring[(i + D2) % RING];
                // Only a miss walks; its probe rows are warm by now, so
                // predict the outcome and skip the (much wider) expansion
                // for hits. A mispredict — the line moving between now and
                // serve time — only costs or spares some prefetches.
                let a = self
                    .own
                    .effective_addr(ahead.part.index() as u16, ahead.addr);
                let hit = slot.l0[..slot.n]
                    .iter()
                    .any(|&f| self.array.occupant(f) == Some(a));
                if !hit {
                    self.expand.clear();
                    self.array
                        .prefetch_expand(&slot.l0[..slot.n], &mut self.expand);
                    for &f in &self.expand {
                        // The replacement process ranks every candidate.
                        self.meta.prefetch(f as usize);
                    }
                }
            }
            let slot = &ring[i % RING];
            out.push(self.access_probed(req, &slot.l0[..slot.n]));
        }
    }

    fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    fn capacity(&self) -> usize {
        self.meta.len()
    }

    /// Installs targets, scaling them onto the managed region: a partition
    /// granted `t` lines of the cache receives `t·(1-u)` managed lines, and
    /// the remainder funds the unmanaged region (§3.3).
    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError> {
        let cap = self.meta.len() as u64;
        TargetsError::check(targets, self.parts.len(), cap)?;
        let m = 1.0 - self.cfg.unmanaged_fraction;
        let mut managed_total = 0u64;
        for (p, (st, &t)) in self.parts.iter_mut().zip(targets).enumerate() {
            // Dead slots (destroyed or draining) hold no capacity: whatever
            // a policy hands them funds the unmanaged region instead, and
            // the zero target keeps their aperture saturated so draining
            // slots keep shedding lines.
            let scaled = if self.slot_state[p] == SlotState::Active {
                (t as f64 * m).floor() as u64
            } else {
                0
            };
            st.set_target(scaled, &self.cfg);
            managed_total += scaled;
        }
        self.um_target = cap - managed_total;
        // Seed the unmanaged clock from the region's actual size when it is
        // populated — the clock keeps tracking `um_size` at every tick (see
        // `stamp_unmanaged`) — and from the target only as a cold-start estimate.
        let clock_size = if self.um_size > 0 {
            self.um_size
        } else {
            self.um_target
        };
        self.um_lru.set_period_for_size(clock_size.max(16));
        if self.tele.enabled() {
            for p in 0..self.parts.len() {
                if self.slot_state[p] != SlotState::Active {
                    continue;
                }
                let st = &self.parts[p];
                let aperture = st.table.aperture(st.actual) as f32;
                self.tele.event(TelemetryEvent::ApertureUpdate {
                    access: self.accesses,
                    part: PartitionId::from_index(p),
                    aperture,
                });
            }
        }
        Ok(())
    }

    fn partition_size(&self, part: PartitionId) -> u64 {
        self.parts[part.index()].actual
    }

    /// Real dynamics metering: reports the (scaled) managed targets and
    /// drains the epoch-relative churn/insertion counters maintained on the
    /// demotion/eviction/install paths, plus the lifecycle deltas (slots
    /// created/destroyed since the previous snapshot).
    ///
    /// Dead slots (destroyed or still draining) report `live = false` with
    /// zeroed churn/insertion rows — their meters are frozen leftovers of
    /// the departed tenant, not dynamics a policy should ingest.
    fn observations(&mut self) -> PartitionObservations {
        self.retire_drained_slots();
        let n = self.parts.len();
        let mut obs = PartitionObservations::new(n);
        for (p, st) in self.parts.iter().enumerate() {
            let live = self.slot_state[p] == SlotState::Active;
            obs.live[p] = live;
            obs.actual[p] = st.actual;
            obs.targets[p] = st.target;
            if live {
                obs.churn[p] = self.lost[p] - self.obs_lost[p];
                obs.insertions[p] = self.filled[p] - self.obs_filled[p];
            }
        }
        obs.hits.copy_from_slice(&self.stats.hits);
        obs.misses.copy_from_slice(&self.stats.misses);
        obs.shared_hits.copy_from_slice(self.own.shared_hits());
        obs.ownership_transfers
            .copy_from_slice(self.own.transfers());
        self.own.reset_counters();
        self.obs_lost.copy_from_slice(&self.lost);
        self.obs_filled.copy_from_slice(&self.filled);
        obs.arrived = std::mem::take(&mut self.pending_arrived);
        obs.departed = std::mem::take(&mut self.pending_departed);
        obs
    }

    /// Creates a partition at runtime: reuses the lowest dead slot, or
    /// grows the slot table by one. The grant is carved from the unmanaged
    /// region's spare target (everything above the configured unmanaged
    /// fraction's floor), so targets keep tiling the cache and the Vantage
    /// guarantees hold throughout; a short grant is trued up by the next
    /// repartitioning epoch.
    ///
    /// Any dead slot qualifies, drained or not: slot choice must be a pure
    /// function of the lifecycle call sequence, never of drain progress,
    /// so that the banks of a [`BankedLlc`] — which drain at different
    /// rates — always assign the same slot. A still-draining slot's
    /// leftover lines are inherited by the new tenant, exactly as recycling
    /// a partition ID does in hardware; they demote through the ordinary
    /// machinery whenever they push the tenant over target.
    ///
    /// [`BankedLlc`]: vantage_partitioning::BankedLlc
    fn create_partition(&mut self, spec: PartitionSpec) -> Result<PartitionId, LifecycleError> {
        if self.rrip.is_some() {
            // The RRIP policy's per-partition state is sized at
            // construction; Vantage-DRRIP keeps a fixed population.
            return Err(LifecycleError::Unsupported);
        }
        self.retire_drained_slots();
        let p = match self.slot_state.iter().position(|s| *s != SlotState::Active) {
            Some(p) => {
                // Recycled slot: fresh controller and meters, so the new
                // tenant's SLA accounting starts from zero. Inherited lines
                // (if the slot was still draining) stay counted in `actual`.
                let actual = self.parts[p].actual;
                debug_assert!(
                    self.slot_state[p] == SlotState::Draining || actual == 0,
                    "free slot still holds lines"
                );
                self.parts[p] = PartitionState::new(0, &self.cfg, self.max_rrpv);
                self.parts[p].actual = actual;
                self.stats.hits[p] = 0;
                self.stats.misses[p] = 0;
                self.own.reset_partition(p);
                self.lost[p] = 0;
                self.filled[p] = 0;
                self.sample_lost[p] = 0;
                self.obs_lost[p] = 0;
                self.obs_filled[p] = 0;
                p
            }
            None => {
                let p = self.parts.len();
                if p >= UNMANAGED as usize {
                    return Err(LifecycleError::Exhausted);
                }
                self.parts
                    .push(PartitionState::new(0, &self.cfg, self.max_rrpv));
                self.slot_state.push(SlotState::Free);
                self.meta.resize_partitions(p + 1);
                self.stats.resize(p + 1);
                self.lost.push(0);
                self.filled.push(0);
                self.sample_lost.push(0);
                self.obs_lost.push(0);
                self.obs_filled.push(0);
                self.own.ensure_partitions(p + 1);
                self.tele.bind(p + 1);
                p
            }
        };
        let cap = self.meta.len() as u64;
        let m = 1.0 - self.cfg.unmanaged_fraction;
        let want = (spec.target as f64 * m).floor() as u64;
        let floor = (self.cfg.unmanaged_fraction * cap as f64).floor() as u64;
        let grant = want.min(self.um_target.saturating_sub(floor));
        self.um_target -= grant;
        self.parts[p].set_target(grant, &self.cfg);
        self.slot_state[p] = SlotState::Active;
        let id = PartitionId::from_index(p);
        self.pending_arrived.push(id);
        if self.tele.enabled() {
            self.tele.event(TelemetryEvent::PartitionCreated {
                access: self.accesses,
                part: id,
                target: grant,
            });
        }
        Ok(id)
    }

    /// Destroys a live partition without flushing: its target funds the
    /// unmanaged region again and the zero target saturates its aperture,
    /// so resident lines drain through ordinary setpoint demotions as
    /// other tenants miss. The slot is dead immediately and reusable by
    /// the next create, drained or not.
    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), LifecycleError> {
        if self.rrip.is_some() {
            return Err(LifecycleError::Unsupported);
        }
        let p = part.index();
        if part.is_unmanaged() || p >= self.parts.len() {
            return Err(LifecycleError::OutOfRange(part));
        }
        if self.slot_state[p] != SlotState::Active {
            return Err(LifecycleError::NotLive(part));
        }
        self.um_target += self.parts[p].target;
        self.parts[p].set_target(0, &self.cfg);
        self.slot_state[p] = if self.parts[p].actual == 0 {
            SlotState::Free
        } else {
            SlotState::Draining
        };
        self.pending_departed.push(part);
        if self.tele.enabled() {
            self.tele.event(TelemetryEvent::PartitionDestroyed {
                access: self.accesses,
                part,
            });
        }
        Ok(())
    }

    fn stats(&self) -> &LlcStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut LlcStats {
        &mut self.stats
    }

    fn set_share_mode(&mut self, mode: ShareMode) -> bool {
        self.own.set_mode(mode);
        true
    }

    fn share_mode(&self) -> ShareMode {
        self.own.mode()
    }

    fn set_telemetry(&mut self, mut telemetry: Telemetry) -> bool {
        telemetry.bind(self.parts.len());
        self.tele = telemetry;
        true
    }

    fn take_telemetry(&mut self) -> Option<Telemetry> {
        if self.tele.enabled() {
            Some(std::mem::take(&mut self.tele))
        } else {
            None
        }
    }

    /// Enables Fig. 8-style demotion-priority sampling (LRU ranking only).
    /// Ranks come from the tag store's count index, which every lane write
    /// keeps current, so the probe can be enabled at any point of a run.
    ///
    /// # Panics
    ///
    /// Panics under RRIP ranking, where timestamp ranks are undefined.
    fn enable_priority_probe(&mut self) {
        assert!(
            matches!(self.cfg.rank, RankMode::Lru),
            "probe requires LRU ranking"
        );
        self.probe = true;
    }

    /// Drains accumulated demotion-priority samples.
    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        std::mem::take(&mut self.samples)
    }

    fn name(&self) -> &str {
        match (self.cfg.demotion_mode, self.cfg.rank) {
            (DemotionMode::Setpoint, RankMode::Lru) => "Vantage",
            (DemotionMode::Setpoint, RankMode::Rrip { .. }) => "Vantage-RRIP",
            (DemotionMode::PerfectAperture, _) => "Vantage-Ideal",
            (DemotionMode::ExactlyOne, _) => "Vantage-ExactlyOne",
        }
    }
}

impl HasPartitionPolicy for VantageLlc {
    fn set_partition_policy(&mut self, part: usize, policy: BasePolicy) {
        VantageLlc::set_partition_policy(self, part, policy);
    }
}

impl HasInvariants for VantageLlc {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.invariants()
            .map_err(|e| InvariantViolation(e.to_string()))
    }

    fn repair(&mut self) -> u64 {
        let r = self.scrub();
        r.repaired_tags + r.size_corrections + r.meters_reset + r.setpoints_recentered
    }

    fn scrubs(&self) -> u64 {
        self.vstats.scrubs
    }

    fn corruption_fallbacks(&self) -> u64 {
        self.vstats.corrupted_pid_fallbacks
    }
}

impl vantage_snapshot::Snapshot for VantageLlc {
    /// Serializes every architectural register plus the simulator-side
    /// meters: tags, per-partition controller state, the unmanaged clock,
    /// RRIP policy state, statistics, churn meters, the fault schedule and
    /// the telemetry schedule, with the cache array last. Derived
    /// structures (threshold tables, the tag store's count index, walk
    /// scratch) are rebuilt on load rather than stored.
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64(self.accesses);
        enc.put_u16_slice(self.meta.parts());
        enc.put_u8_slice(self.meta.ts_lane());
        enc.put_u64(self.parts.len() as u64);
        for st in &self.parts {
            enc.put_u64(st.target);
            enc.put_u64(st.actual);
            enc.put_u8(st.setpoint);
            enc.put_u8(st.setpoint_rrpv);
            enc.put_u32(st.cands_seen);
            enc.put_u32(st.cands_demoted);
            st.lru.save_state(enc);
        }
        self.um_lru.save_state(enc);
        enc.put_u64(self.um_size);
        enc.put_u64(self.um_target);
        enc.put_bool(self.rrip.is_some());
        if let Some(rr) = &self.rrip {
            rr.save_state(enc);
        }
        self.stats.save_state(enc);
        enc.put_u64(self.vstats.demotions);
        enc.put_u64(self.vstats.promotions);
        enc.put_u64(self.vstats.unmanaged_evictions);
        enc.put_u64(self.vstats.forced_managed_evictions);
        enc.put_u64(self.vstats.empty_fills);
        enc.put_u64(self.vstats.setpoint_adjustments);
        enc.put_u64(self.vstats.throttled_insertions);
        enc.put_u64(self.vstats.corrupted_pid_fallbacks);
        enc.put_u64(self.vstats.scrubs);
        enc.put_bool(self.probe);
        enc.put_u64(self.samples.len() as u64);
        for &(access, part, pr) in &self.samples {
            enc.put_u64(access);
            enc.put_u16(part);
            enc.put_u32(pr.to_bits());
        }
        enc.put_u64_slice(&self.lost);
        enc.put_u64_slice(&self.filled);
        enc.put_u64(self.um_lost);
        enc.put_u64_slice(&self.sample_lost);
        enc.put_u64(self.sample_um_lost);
        enc.put_u64_slice(&self.obs_lost);
        enc.put_u64_slice(&self.obs_filled);
        enc.put_opt_u64(self.scrub_period);
        enc.put_bool(self.fault_plan.is_some());
        if let Some(plan) = &self.fault_plan {
            plan.save_state(enc);
        }
        self.tele.save_state(enc);
        self.array.save_state(enc);
        // Lifecycle tail: the slot-state lane plus the pending
        // arrival/departure queues.
        let lane: Vec<u8> = self
            .slot_state
            .iter()
            .map(|s| match s {
                SlotState::Active => 0u8,
                SlotState::Draining => 1,
                SlotState::Free => 2,
            })
            .collect();
        enc.put_u8_slice(&lane);
        let arrived: Vec<u16> = self.pending_arrived.iter().map(|p| p.raw()).collect();
        let departed: Vec<u16> = self.pending_departed.iter().map(|p| p.raw()).collect();
        enc.put_u16_slice(&arrived);
        enc.put_u16_slice(&departed);
        // Ownership tail: the share mode plus the per-partition sharing
        // counters.
        self.own.save_state(enc);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let frames = self.meta.len();
        let accesses = dec.take_u64()?;
        let parts_tags = dec.take_u16_vec()?;
        let ts_tags = dec.take_u8_vec()?;
        if parts_tags.len() != frames || ts_tags.len() != frames {
            return Err(dec.mismatch("tag array length differs from cache geometry"));
        }
        // Tag PIDs are deliberately NOT range-checked: out-of-range IDs are
        // legal live state under fault injection, and the access paths and
        // scrub already tolerate them.
        let npart = dec.take_u64()? as usize;
        if npart == 0 || npart >= UNMANAGED as usize {
            return Err(dec.invalid("partition count out of range"));
        }
        if npart != self.parts.len() {
            // Service mode: the saved cache created/destroyed partitions
            // after construction, so the slot table is sized by the
            // snapshot, not the constructor. RRIP state cannot resize.
            if self.rrip.is_some() {
                return Err(dec.mismatch("partition count differs under RRIP ranking"));
            }
            self.resize_slot_tables(npart);
        }
        let mut managed_total = 0u64;
        for p in 0..npart {
            let target = dec.take_u64()?;
            let actual = dec.take_u64()?;
            let setpoint = dec.take_u8()?;
            let setpoint_rrpv = dec.take_u8()?;
            let cands_seen = dec.take_u32()?;
            let cands_demoted = dec.take_u32()?;
            let st = &mut self.parts[p];
            st.set_target(target, &self.cfg);
            st.actual = actual;
            st.setpoint = setpoint;
            st.setpoint_rrpv = setpoint_rrpv;
            st.cands_seen = cands_seen;
            st.cands_demoted = cands_demoted;
            st.lru.load_state(dec)?;
            managed_total += target;
        }
        self.um_lru.load_state(dec)?;
        let um_size = dec.take_u64()?;
        let um_target = dec.take_u64()?;
        if managed_total + um_target != frames as u64 {
            return Err(dec.invalid("targets do not tile the cache"));
        }
        let has_rrip = dec.take_bool()?;
        if has_rrip != self.rrip.is_some() {
            return Err(dec.mismatch("ranking mode differs (LRU vs RRIP)"));
        }
        if let Some(rr) = &mut self.rrip {
            rr.load_state(dec)?;
        }
        self.stats.load_state(dec)?;
        let vstats = VantageStats {
            demotions: dec.take_u64()?,
            promotions: dec.take_u64()?,
            unmanaged_evictions: dec.take_u64()?,
            forced_managed_evictions: dec.take_u64()?,
            empty_fills: dec.take_u64()?,
            setpoint_adjustments: dec.take_u64()?,
            throttled_insertions: dec.take_u64()?,
            corrupted_pid_fallbacks: dec.take_u64()?,
            scrubs: dec.take_u64()?,
        };
        let probe = dec.take_bool()?;
        if probe && !self.is_lru() {
            return Err(dec.mismatch("priority probe requires LRU ranking"));
        }
        let nsamples = dec.take_len()?;
        // Each sample is 8 + 2 + 4 bytes in the stream.
        if nsamples > dec.remaining() / 14 {
            return Err(dec.invalid("priority-sample count exceeds payload"));
        }
        let mut samples = Vec::with_capacity(nsamples);
        for _ in 0..nsamples {
            let access = dec.take_u64()?;
            let part = dec.take_u16()?;
            let pr = f32::from_bits(dec.take_u32()?);
            samples.push((access, part, pr));
        }
        let lost = dec.take_u64_vec()?;
        let filled = dec.take_u64_vec()?;
        let um_lost = dec.take_u64()?;
        let sample_lost = dec.take_u64_vec()?;
        let sample_um_lost = dec.take_u64()?;
        let obs_lost = dec.take_u64_vec()?;
        let obs_filled = dec.take_u64_vec()?;
        for v in [&lost, &filled, &sample_lost, &obs_lost, &obs_filled] {
            if v.len() != npart {
                return Err(dec.mismatch("churn meter length differs"));
            }
        }
        let scrub_period = dec.take_opt_u64()?;
        if scrub_period == Some(0) {
            return Err(dec.invalid("zero scrub period"));
        }
        let has_plan = dec.take_bool()?;
        let fault_plan = if has_plan {
            // Load fully overwrites the plan, so the pre-restore plan (or a
            // never-firing placeholder) is just a landing slot.
            let mut plan = self
                .fault_plan
                .take()
                .unwrap_or_else(|| FaultPlan::new(0, 0, &[]));
            plan.load_state(dec)?;
            Some(plan)
        } else {
            None
        };
        self.tele.load_state(dec)?;
        self.array.load_state(dec)?;
        // Lifecycle tail: the slot-state lane + pending queues.
        let lane = dec.take_u8_vec()?;
        if lane.len() != npart {
            return Err(dec.mismatch("slot-state lane length differs"));
        }
        let mut slot_state = Vec::with_capacity(npart);
        for b in lane {
            slot_state.push(match b {
                0 => SlotState::Active,
                1 => SlotState::Draining,
                2 => SlotState::Free,
                _ => return Err(dec.invalid("unknown slot state")),
            });
        }
        let take_queue = |dec: &mut vantage_snapshot::Decoder<'_>|
         -> vantage_snapshot::Result<Vec<PartitionId>> {
            let raw = dec.take_u16_vec()?;
            let mut ids = Vec::with_capacity(raw.len());
            for r in raw {
                let id = PartitionId::from_raw(r);
                if id.is_unmanaged() || id.index() >= npart {
                    return Err(dec.invalid("lifecycle queue names an out-of-range slot"));
                }
                ids.push(id);
            }
            Ok(ids)
        };
        let pending_arrived = take_queue(dec)?;
        let pending_departed = take_queue(dec)?;
        // Ownership tail, sized by the snapshot's slot table.
        if self.own.partitions() != npart {
            self.own = Ownership::new(self.own.mode(), npart);
        }
        self.own.load_state(dec)?;
        for (p, s) in slot_state.iter().enumerate() {
            if *s != SlotState::Active && self.parts[p].target != 0 {
                return Err(dec.invalid("dead slot carries a capacity target"));
            }
        }

        self.accesses = accesses;
        self.slot_state = slot_state;
        self.pending_arrived = pending_arrived;
        self.pending_departed = pending_departed;
        self.meta.load_lanes(parts_tags, ts_tags);
        // Input validation: a never-filled frame must carry the sentinel,
        // whatever the payload claims, or the SoA store would count a
        // forged owner into that partition's lines.
        for f in 0..frames {
            if self.array.occupant(f as Frame).is_none() {
                self.meta.set(f, UNMANAGED, 0);
            }
        }
        self.um_size = um_size;
        self.um_target = um_target;
        self.vstats = vstats;
        self.probe = probe;
        self.samples = samples;
        self.lost = lost;
        self.filled = filled;
        self.um_lost = um_lost;
        self.sample_lost = sample_lost;
        self.sample_um_lost = sample_um_lost;
        self.obs_lost = obs_lost;
        self.obs_filled = obs_filled;
        self.scrub_period = scrub_period;
        self.fault_plan = fault_plan;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vantage_cache::ZArray;

    fn z52(frames: usize) -> Box<dyn CacheArray> {
        Box::new(ZArray::new(frames, 4, 52, 0xA11CE))
    }

    fn default_llc(frames: usize, partitions: usize) -> VantageLlc {
        VantageLlc::try_new(z52(frames), partitions, VantageConfig::default(), 7)
            .expect("valid Vantage config")
    }

    /// Drives `n` accesses of uniform random lines over `working_set`
    /// distinct addresses, tagged per partition.
    fn drive(llc: &mut VantageLlc, part: usize, working_set: u64, n: u64, rng: &mut SmallRng) {
        let base = (part as u64 + 1) << 40;
        for _ in 0..n {
            llc.access(AccessRequest::read(
                PartitionId::from_index(part),
                LineAddr(base + rng.gen_range(0..working_set)),
            ));
        }
    }

    #[test]
    fn attached_fault_plan_injects_and_scrub_recovers() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut llc = default_llc(2048, 2);
        llc.set_fault_plan(Some(FaultPlan::new(0xBAD, 500, &FaultKind::INJECTABLE)));
        llc.set_scrub_period(Some(2_000));
        let mut rng = SmallRng::seed_from_u64(9);
        drive(&mut llc, 0, 10_000, 20_000, &mut rng);
        drive(&mut llc, 1, 10_000, 20_000, &mut rng);
        let plan = llc.fault_plan().expect("plan stays attached");
        assert!(
            plan.log().len() >= 50,
            "plan fired {} times",
            plan.log().len()
        );
        // The interleaved scrubs kept the controller coherent despite the
        // injected corruption.
        llc.scrub();
        llc.invariants().expect("scrub repairs injected damage");
        let detached = llc.set_fault_plan(None);
        assert!(detached.is_some() && llc.fault_plan().is_none());
    }

    #[test]
    fn scrub_restores_sentinel_on_partially_filled_array() {
        // With only a fraction of the array filled, never-filled frames
        // must read as (UNMANAGED, 0) — the reset tag — or a stale
        // partition ID left on an empty frame would be counted into that
        // partition's recomputed size. Corrupt both occupied and
        // never-filled frames and check one scrub pass repairs everything.
        let mut llc = default_llc(1024, 2);
        llc.set_targets(&[512, 512]);
        let mut rng = SmallRng::seed_from_u64(11);
        // A tiny working set leaves most of the array never filled.
        drive(&mut llc, 0, 48, 2_000, &mut rng);
        let empties: Vec<usize> = (0..llc.meta.len())
            .filter(|&f| llc.array.occupant(f as Frame).is_none())
            .collect();
        let occupied: Vec<usize> = (0..llc.meta.len())
            .filter(|&f| llc.array.occupant(f as Frame).is_some())
            .collect();
        assert!(empties.len() >= 3, "array unexpectedly full");
        assert!(!occupied.is_empty(), "array unexpectedly empty");
        for f in &empties {
            assert_eq!(
                (llc.meta.part(*f), llc.meta.ts(*f)),
                (UNMANAGED, 0),
                "never-filled frame {f} must carry the reset tag"
            );
        }
        // A never-filled frame claiming a partition-0 line, one with a
        // stale stamp, and an occupied frame with an out-of-range owner.
        llc.meta.set(empties[0], 0, 7);
        llc.meta.set_ts(empties[1], 200);
        llc.meta.set_part(occupied[0], 999);
        let report = llc.scrub();
        assert!(
            report.repaired_tags >= 3,
            "expected all 3 corruptions retagged, repaired {}",
            report.repaired_tags
        );
        for f in &empties {
            assert_eq!(
                (llc.meta.part(*f), llc.meta.ts(*f)),
                (UNMANAGED, 0),
                "scrub must reset never-filled frame {f}"
            );
        }
        assert_eq!(llc.meta.part(occupied[0]), UNMANAGED);
        // Recomputed sizes count exactly the occupied frames.
        let total = llc.partition_size(PartitionId::from_index(0))
            + llc.partition_size(PartitionId::from_index(1))
            + llc.unmanaged_size();
        assert_eq!(total as usize, occupied.len());
        llc.invariants().expect("scrub leaves a coherent cache");
    }

    #[test]
    fn sizes_converge_to_asymmetric_targets() {
        let mut llc = default_llc(4096, 2);
        llc.set_targets(&[3072, 1024]);
        let mut rng = SmallRng::seed_from_u64(1);
        // Both partitions churn heavily (working sets far over capacity).
        for _ in 0..40 {
            drive(&mut llc, 0, 100_000, 5_000, &mut rng);
            drive(&mut llc, 1, 100_000, 5_000, &mut rng);
        }
        llc.invariants().expect("invariants hold");
        let (t0, t1) = (
            llc.partition_target(PartitionId::from_index(0)) as f64,
            llc.partition_target(PartitionId::from_index(1)) as f64,
        );
        let (s0, s1) = (
            llc.partition_size(PartitionId::from_index(0)) as f64,
            llc.partition_size(PartitionId::from_index(1)) as f64,
        );
        // Sizes track scaled targets within the feedback slack plus a small
        // margin for in-flight drift.
        assert!(s0 >= t0 * 0.92 && s0 <= t0 * 1.2, "s0 = {s0}, t0 = {t0}");
        assert!(s1 >= t1 * 0.92 && s1 <= t1 * 1.2, "s1 = {s1}, t1 = {t1}");
    }

    #[test]
    fn thrasher_cannot_displace_quiet_partition() {
        let mut llc = default_llc(4096, 2);
        llc.set_targets(&[2048, 2048]);
        let mut rng = SmallRng::seed_from_u64(2);
        // Partition 0 loads a working set that fits comfortably, then goes
        // quiet while partition 1 streams.
        drive(&mut llc, 0, 1500, 60_000, &mut rng);
        let resident_before = llc.partition_size(PartitionId::from_index(0));
        assert!(resident_before > 1200, "warmup failed ({resident_before})");
        for i in 0..400_000u64 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(1),
                LineAddr((2u64 << 40) + i),
            ));
        }
        llc.invariants().expect("invariants hold");
        // The quiet partition keeps (almost) all its lines: only forced
        // managed evictions could remove them, and those are rare.
        let resident_after = llc.partition_size(PartitionId::from_index(0));
        assert!(
            resident_after as f64 > resident_before as f64 * 0.97,
            "quiet partition lost {} of {} lines",
            resident_before - resident_after,
            resident_before
        );
        // And the streamer is bounded near its own target.
        let t1 = llc.partition_target(PartitionId::from_index(1)) as f64;
        assert!((llc.partition_size(PartitionId::from_index(1)) as f64) < t1 * 1.2);
    }

    #[test]
    fn demote_only_when_over_target() {
        let mut llc = default_llc(1024, 2);
        llc.set_targets(&[512, 512]);
        let (p0, p1) = (PartitionId::from_index(0), PartitionId::from_index(1));
        // Partition 0 parks 300 lines under its target, then hits one of
        // them until its clock has run far past the keep window.
        let parked: Vec<LineAddr> = (0..300).map(|i| LineAddr((1 << 40) + i)).collect();
        for &a in &parked {
            llc.access(AccessRequest::read(p0, a));
        }
        for _ in 0..20_000 {
            llc.access(AccessRequest::read(p0, parked[0]));
        }
        let stale = |llc: &VantageLlc, a: LineAddr| {
            llc.tag_of(a)
                .is_some_and(|(q, ts)| q == 0 && llc.parts[0].is_stale(ts, llc.parts[0].setpoint))
        };
        assert!(parked[1..].iter().all(|&a| stale(&llc, a)));
        // At or below target: stale lines stay put while partition 1
        // streams.
        for i in 0..50_000u64 {
            llc.access(AccessRequest::read(p1, LineAddr((2 << 40) + i)));
        }
        assert!(parked[1..].iter().all(|&a| stale(&llc, a)));
        assert_eq!(llc.partition_size(p0), 300);
        // Over target: the same stale lines are demoted.
        llc.set_targets(&[128, 896]);
        for i in 50_000..100_000u64 {
            llc.access(AccessRequest::read(p1, LineAddr((2 << 40) + i)));
        }
        assert!(llc.partition_size(p0) < 200, "{}", llc.partition_size(p0));
        llc.invariants().expect("invariants hold");
    }

    #[test]
    fn recycled_slot_starts_with_zeroed_sharing_counters() {
        let mut llc = default_llc(1024, 2);
        assert!(llc.set_share_mode(ShareMode::Pin));
        let (p0, p1) = (PartitionId::from_index(0), PartitionId::from_index(1));
        let line = LineAddr(0x1234);
        llc.access(AccessRequest::read(p0, line));
        assert!(llc.access(AccessRequest::read(p1, line)).is_hit());
        assert_eq!(llc.own.shared_hits()[1], 1);
        llc.destroy_partition(p1).expect("live slot destroys");
        let recycled = llc
            .create_partition(PartitionSpec::with_target(256))
            .expect("slot available");
        assert_eq!(recycled, p1);
        let obs = llc.observations();
        assert_eq!(obs.shared_hits[1], 0, "new tenant inherited shared hits");
        assert_eq!(obs.hits[1], 0);
    }

    #[test]
    fn forced_managed_evictions_are_rare() {
        let cfg = VantageConfig {
            unmanaged_fraction: 0.15,
            ..VantageConfig::default()
        };
        let mut llc = VantageLlc::try_new(z52(4096), 4, cfg, 3).expect("valid Vantage config");
        llc.set_targets(&[1024, 1024, 1024, 1024]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            for p in 0..4 {
                drive(&mut llc, p, 50_000, 10_000, &mut rng);
            }
        }
        let frac = llc.vantage_stats().managed_eviction_fraction();
        // Model worst case for u = 0.15, R = 52 is ~2e-4; give slack for
        // warmup and walk truncation.
        assert!(frac < 0.01, "managed eviction fraction {frac}");
        llc.invariants().expect("invariants hold");
    }

    #[test]
    fn promotion_rescues_unmanaged_lines() {
        let mut llc = default_llc(1024, 2);
        llc.set_targets(&[512, 512]);
        let mut rng = SmallRng::seed_from_u64(4);
        // Create churn so partition 0's lines get demoted...
        drive(&mut llc, 0, 5_000, 30_000, &mut rng);
        assert!(llc.vantage_stats().demotions > 0);
        // ...then re-touch a recent window; some hits will be promotions.
        let before = llc.vantage_stats().promotions;
        drive(&mut llc, 0, 5_000, 30_000, &mut rng);
        assert!(
            llc.vantage_stats().promotions > before,
            "no promotions happened"
        );
        llc.invariants().expect("invariants hold");
    }

    #[test]
    fn zero_target_drains_partition() {
        let mut llc = default_llc(2048, 2);
        llc.set_targets(&[1024, 1024]);
        let mut rng = SmallRng::seed_from_u64(5);
        drive(&mut llc, 0, 50_000, 30_000, &mut rng);
        drive(&mut llc, 1, 50_000, 30_000, &mut rng);
        let s0 = llc.partition_size(PartitionId::from_index(0));
        assert!(s0 > 700);
        // Delete partition 0: target 0; its lines drain as partition 1
        // churns.
        llc.set_targets(&[0, 2048]);
        drive(&mut llc, 1, 50_000, 120_000, &mut rng);
        llc.invariants().expect("invariants hold");
        let drained = llc.partition_size(PartitionId::from_index(0));
        assert!(
            drained < s0 / 4,
            "partition retained {drained} of {s0} lines"
        );
    }

    #[test]
    fn small_partition_respects_minimum_stable_size() {
        // A 1-line-target partition with high churn grows to its MSS but no
        // further: MSS ≈ ΣS/(A_max·R·m) of the managed region (Eq. 5 with
        // all churn in one partition). The partition's size oscillates
        // around that equilibrium (the setpoint feedback hunts with an
        // amplitude of a few tens of percent), so a single end-of-run
        // sample is phase-sensitive; bound the mean over the churn tail
        // instead, with 2× headroom over the ideal MSS.
        let mut llc = default_llc(4096, 2);
        llc.set_targets(&[16, 4080]);
        let mut rng = SmallRng::seed_from_u64(6);
        // Partition 1 fills and stays quiet; partition 0 churns hard.
        drive(&mut llc, 1, 3400, 60_000, &mut rng);
        let (mut sum, mut samples) = (0u64, 0u64);
        for i in 0..300_000u64 {
            llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
            if i >= 100_000 && i % 1_000 == 0 {
                sum += llc.partition_size(PartitionId::from_index(0));
                samples += 1;
            }
        }
        llc.invariants().expect("invariants hold");
        let mss_bound = (4096.0 / (0.5 * 52.0)) * 2.0; // 1/(A_max·R) + 2× headroom
        let s0 = sum as f64 / samples as f64;
        assert!(
            s0 < mss_bound,
            "runaway partition: mean {s0} lines > bound {mss_bound}"
        );
    }

    #[test]
    fn downsize_converges_quickly() {
        let mut llc = default_llc(4096, 2);
        llc.set_targets(&[3584, 512]);
        let mut rng = SmallRng::seed_from_u64(7);
        drive(&mut llc, 0, 100_000, 60_000, &mut rng);
        drive(&mut llc, 1, 100_000, 20_000, &mut rng);
        assert!(llc.partition_size(PartitionId::from_index(0)) > 2500);
        // Swap the allocations; both partitions keep churning.
        llc.set_targets(&[512, 3584]);
        for _ in 0..20 {
            drive(&mut llc, 0, 100_000, 2_000, &mut rng);
            drive(&mut llc, 1, 100_000, 2_000, &mut rng);
        }
        llc.invariants().expect("invariants hold");
        let t0 = llc.partition_target(PartitionId::from_index(0)) as f64;
        assert!(
            (llc.partition_size(PartitionId::from_index(0)) as f64) < t0 * 1.3,
            "downsized partition stuck at {}",
            llc.partition_size(PartitionId::from_index(0))
        );
    }

    #[test]
    fn perfect_aperture_mode_matches_setpoint_mode() {
        let mk = |mode| {
            let cfg = VantageConfig {
                demotion_mode: mode,
                ..VantageConfig::default()
            };
            VantageLlc::try_new(z52(2048), 2, cfg, 9).expect("valid Vantage config")
        };
        let mut practical = mk(DemotionMode::Setpoint);
        let mut ideal = mk(DemotionMode::PerfectAperture);
        for llc in [&mut practical, &mut ideal] {
            llc.set_targets(&[1536, 512]);
            let mut rng = SmallRng::seed_from_u64(10);
            for _ in 0..20 {
                drive(llc, 0, 50_000, 4_000, &mut rng);
                drive(llc, 1, 50_000, 4_000, &mut rng);
            }
            llc.invariants().expect("invariants hold");
        }
        // §6.2: both designs perform essentially identically; sizes must
        // agree within a few percent of capacity.
        for p in 0..2 {
            let a = practical.partition_size(PartitionId::from_index(p)) as f64;
            let b = ideal.partition_size(PartitionId::from_index(p)) as f64;
            assert!((a - b).abs() / 2048.0 < 0.06, "partition {p}: {a} vs {b}");
        }
        assert_eq!(ideal.name(), "Vantage-Ideal");
    }

    #[test]
    fn rrip_mode_runs_and_sizes_track() {
        let cfg = VantageConfig {
            rank: RankMode::Rrip { bits: 3 },
            ..VantageConfig::default()
        };
        let mut llc = VantageLlc::try_new(z52(2048), 2, cfg, 11).expect("valid Vantage config");
        llc.set_targets(&[1536, 512]);
        llc.set_partition_policy(0, BasePolicy::Srrip);
        llc.set_partition_policy(1, BasePolicy::Brrip);
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..30 {
            drive(&mut llc, 0, 50_000, 4_000, &mut rng);
            drive(&mut llc, 1, 50_000, 4_000, &mut rng);
        }
        llc.invariants().expect("invariants hold");
        assert_eq!(llc.name(), "Vantage-RRIP");
        let (s0, s1) = (
            llc.partition_size(PartitionId::from_index(0)) as f64,
            llc.partition_size(PartitionId::from_index(1)) as f64,
        );
        let (t0, t1) = (
            llc.partition_target(PartitionId::from_index(0)) as f64,
            llc.partition_target(PartitionId::from_index(1)) as f64,
        );
        assert!(s0 > t0 * 0.8 && s0 < t0 * 1.3, "s0 = {s0} vs t0 = {t0}");
        assert!(s1 > t1 * 0.8 && s1 < t1 * 1.3, "s1 = {s1} vs t1 = {t1}");
    }

    #[test]
    fn probe_samples_concentrate_near_one_for_low_churn() {
        let mut llc = default_llc(2048, 2);
        llc.enable_priority_probe();
        llc.set_targets(&[1024, 1024]);
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..30 {
            drive(&mut llc, 0, 20_000, 3_000, &mut rng);
            drive(&mut llc, 1, 20_000, 3_000, &mut rng);
        }
        let samples = llc.drain_priority_samples();
        assert!(samples.len() > 100, "expected many demotion samples");
        let mean: f64 =
            samples.iter().map(|(_, _, p)| f64::from(*p)).sum::<f64>() / samples.len() as f64;
        // Balanced partitions demote from a small aperture: mean priority
        // must sit well above 0.5 (Fig. 8's dark band near 1.0).
        assert!(mean > 0.75, "mean demotion priority {mean}");
    }

    #[test]
    fn exactly_one_mode_holds_sizes_but_demotes_younger_lines() {
        // Fig. 2b vs 2c on the real cache: exactly-one demotion maintains
        // partition sizes, but its demotion priorities are spread far below
        // the demote-on-average controller's.
        let run = |mode: DemotionMode| {
            let cfg = VantageConfig {
                demotion_mode: mode,
                ..VantageConfig::default()
            };
            let mut llc = VantageLlc::try_new(z52(2048), 2, cfg, 31).expect("valid Vantage config");
            llc.enable_priority_probe();
            llc.set_targets(&[1024, 1024]);
            let mut rng = SmallRng::seed_from_u64(32);
            for _ in 0..30 {
                drive(&mut llc, 0, 20_000, 3_000, &mut rng);
                drive(&mut llc, 1, 20_000, 3_000, &mut rng);
            }
            llc.invariants().expect("invariants hold");
            let samples = llc.drain_priority_samples();
            // The Eq. 2-vs-Eq. 3 difference is in the low-priority tail:
            // demote-on-average never reaches below 1 - A, exactly-one does
            // whenever few of a partition's lines appear among candidates.
            let tail = samples.iter().filter(|(_, _, p)| *p < 0.8).count() as f64
                / samples.len().max(1) as f64;
            (llc.partition_size(PartitionId::from_index(0)), tail)
        };
        let (size_avg, tail_avg) = run(DemotionMode::PerfectAperture);
        let (size_one, tail_one) = run(DemotionMode::ExactlyOne);
        // Both hold sizes near the (scaled) target...
        for s in [size_avg, size_one] {
            assert!(s > 850 && s < 1150, "size {s} off target");
        }
        // ...but exactly-one demotes soft-pinned (low-priority) lines that
        // the aperture-based controller never touches.
        assert!(
            tail_one > 2.0 * tail_avg + 0.005,
            "exactly-one tail {tail_one:.4} vs demote-on-average tail {tail_avg:.4}"
        );
    }

    #[test]
    fn churn_throttling_caps_runaway_partitions() {
        // Without throttling a tiny-target churner grows to its minimum
        // stable size; with throttling its fills divert to the unmanaged
        // region and it stays pinned near the target.
        let run = |throttle: bool| {
            let cfg = VantageConfig {
                churn_throttling: throttle,
                ..VantageConfig::default()
            };
            let mut llc = VantageLlc::try_new(z52(4096), 2, cfg, 21).expect("valid Vantage config");
            llc.set_targets(&[64, 4032]);
            let mut rng = SmallRng::seed_from_u64(22);
            drive(&mut llc, 1, 3_000, 50_000, &mut rng);
            for i in 0..200_000u64 {
                llc.access(AccessRequest::read(PartitionId::from_index(0), LineAddr(i)));
            }
            llc.invariants().expect("invariants hold");
            (
                llc.partition_size(PartitionId::from_index(0)),
                llc.vantage_stats().throttled_insertions,
            )
        };
        let (unthrottled, t0) = run(false);
        let (throttled, t1) = run(true);
        assert_eq!(t0, 0, "throttling off must divert nothing");
        assert!(t1 > 10_000, "throttling should divert the churner's fills");
        assert!(
            throttled < unthrottled / 2,
            "throttled churner at {throttled} vs {unthrottled} lines"
        );
        assert!(throttled < 200, "throttled partition should hug its target");
    }

    #[test]
    fn targets_exceeding_capacity_rejected() {
        let mut llc = default_llc(1024, 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            llc.set_targets(&[1024, 1024]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pick_occupied_samples_uniformly() {
        let mut llc = default_llc(1024, 2);
        llc.set_targets(&[512, 512]);
        let mut rng = SmallRng::seed_from_u64(40);
        // Partial fill (~25% occupancy) leaves long runs of empty frames —
        // exactly the layout where scanning forward from a random frame to
        // the next occupied slot over-samples frames behind empty runs.
        for _ in 0..256 {
            llc.access(AccessRequest::read(
                PartitionId::from_index(0),
                LineAddr(rng.gen_range(0..100_000u64)),
            ));
        }
        let occupied: Vec<usize> = (0..1024usize)
            .filter(|&f| llc.array.occupant(f as Frame).is_some())
            .collect();
        let k = occupied.len();
        assert!(k >= 64, "fill too small ({k})");
        let n = 100 * k;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let f = llc.pick_occupied(rng.gen::<u64>()).expect("array nonempty");
            assert!(
                llc.array.occupant(f as Frame).is_some(),
                "picked empty frame {f}"
            );
            *counts.entry(f).or_insert(0u64) += 1;
        }
        // Chi-square goodness of fit against the uniform distribution over
        // occupied frames: the statistic concentrates around its dof
        // (k - 1); 6 sigma of slack makes the test deterministic-friendly.
        // The pre-fix next-occupied scan weights each frame by the empty
        // run preceding it and blows this up by orders of magnitude.
        let e = n as f64 / k as f64;
        let chi2: f64 = occupied
            .iter()
            .map(|f| {
                let o = *counts.get(f).unwrap_or(&0) as f64;
                (o - e) * (o - e) / e
            })
            .sum();
        let dof = (k - 1) as f64;
        let bound = dof + 6.0 * (2.0 * dof).sqrt();
        assert!(chi2 < bound, "chi2 {chi2:.1} vs bound {bound:.1}");
    }

    #[test]
    fn unmanaged_clock_tracks_actual_size_not_target() {
        let mut llc = default_llc(4096, 2);
        llc.set_targets(&[2048, 2048]);
        // Cold start (empty region): seeded from the target.
        let target = llc.unmanaged_target();
        assert_eq!(
            u64::from(llc.unmanaged_ts_period()),
            (target.max(16) / 16).max(1)
        );
        // Once the region holds far more than its target, stamping through
        // one full period must re-derive the period from the actual size.
        for _ in 0..=llc.unmanaged_ts_period() {
            // Each stamp grows the region back to 4 × target.
            llc.um_size = 4 * target - 1;
            llc.stamp_unmanaged(0, 0);
        }
        assert_eq!(
            u64::from(llc.unmanaged_ts_period()),
            (llc.um_size.max(16) / 16).max(1),
            "period still tracking the target, not the actual size"
        );
        // And retargeting a populated region seeds from the actual size.
        llc.um_size = 32;
        llc.set_targets(&[2048, 2048]);
        assert_eq!(llc.unmanaged_ts_period(), 2);
    }

    #[test]
    fn telemetry_captures_partition_dynamics() {
        use vantage_telemetry::{RingSink, TelemetryRecord};
        let mut llc = default_llc(2048, 2);
        let (sink, reader) = RingSink::with_capacity(1 << 19);
        assert!(llc.set_telemetry(Telemetry::new(Box::new(sink), 1024)));
        llc.set_targets(&[1536, 512]);
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..10 {
            drive(&mut llc, 0, 50_000, 4_000, &mut rng);
            drive(&mut llc, 1, 50_000, 4_000, &mut rng);
        }
        llc.scrub();
        let recs = reader.records();
        let mut demotions = 0u64;
        let mut promotions = 0u64;
        let mut adjustments = 0u64;
        let mut apertures = 0u64;
        let mut scrubs = 0u64;
        let mut um_samples = 0u64;
        let mut part_samples = 0u64;
        for r in &recs {
            match r {
                TelemetryRecord::Event(TelemetryEvent::Demotion { .. }) => demotions += 1,
                TelemetryRecord::Event(TelemetryEvent::Promotion { .. }) => promotions += 1,
                TelemetryRecord::Event(TelemetryEvent::SetpointAdjust { .. }) => adjustments += 1,
                TelemetryRecord::Event(TelemetryEvent::ApertureUpdate { .. }) => apertures += 1,
                TelemetryRecord::Event(TelemetryEvent::Scrub { .. }) => scrubs += 1,
                TelemetryRecord::Sample(s) if s.part.is_unmanaged() => um_samples += 1,
                TelemetryRecord::Sample(_) => part_samples += 1,
                _ => {}
            }
        }
        // The ring is sized to hold everything: event counts line up with
        // the architectural counters (the ring also saw pre-drop records).
        assert_eq!(reader.overwritten(), 0, "ring sized too small for test");
        assert!(demotions > 0 && promotions > 0, "dynamics events present");
        assert!(adjustments > 0, "feedback adjustments present");
        assert!(apertures >= adjustments, "each adjustment logs an aperture");
        assert_eq!(scrubs, 1);
        assert!(um_samples > 10, "unmanaged region sampled");
        assert_eq!(part_samples, 2 * um_samples, "one sample per partition");
        // Samples carry real targets (scaled onto the managed region).
        let t0 = llc.partition_target(PartitionId::from_index(0));
        assert!(recs.iter().any(
            |r| matches!(r, TelemetryRecord::Sample(s) if s.part.index() == 0 && s.target == t0)
        ));
        // take_telemetry removes the handle and stops the stream.
        let before = reader.len();
        assert!(llc.take_telemetry().is_some());
        drive(&mut llc, 0, 50_000, 2_000, &mut rng);
        assert_eq!(reader.len(), before, "stream must stop after take");
    }

    #[test]
    fn take_vantage_stats_resets_counters() {
        let mut llc = default_llc(1024, 2);
        let mut rng = SmallRng::seed_from_u64(99);
        drive(&mut llc, 0, 10_000, 20_000, &mut rng);
        let taken = llc.take_vantage_stats();
        assert!(taken.demotions > 0);
        assert_eq!(llc.vantage_stats().demotions, 0);
    }

    #[test]
    fn unmanaged_region_size_hovers_near_its_target() {
        let mut llc = default_llc(4096, 4);
        llc.set_targets(&[1024, 1024, 1024, 1024]);
        let mut rng = SmallRng::seed_from_u64(14);
        for _ in 0..25 {
            for p in 0..4 {
                drive(&mut llc, p, 50_000, 3_000, &mut rng);
            }
        }
        llc.invariants().expect("invariants hold");
        let um = llc.unmanaged_size() as f64;
        let target = llc.unmanaged_target() as f64;
        assert!(
            um > target * 0.3 && um < target * 2.5,
            "unmanaged {um} vs target {target}"
        );
    }

    /// Regression for the 8-bit keep-window aliasing bug: a line whose
    /// partition clock advances 256+ times between touches used to alias
    /// back to age 0 (`current.wrapping_sub(ts)` wraps), re-entering the
    /// keep window and dodging demotion for a whole further epoch. The
    /// clamp pins such stamps to age 255 at every tick instead.
    #[test]
    fn aliased_stale_lines_stay_demotable_after_clock_wrap() {
        use vantage_cache::SetAssocArray;
        // Modulo indexing: `set = addr % 4`, so traffic is steerable
        // per set. 4 sets x 16 ways.
        let array = Box::new(SetAssocArray::modulo(64, 16));
        let mut llc = VantageLlc::try_new(array, 1, VantageConfig::default(), 5)
            .expect("valid Vantage config");
        llc.set_targets(&[32]);
        // Phase A: park victim lines in set 0, never touched again.
        let victims: Vec<LineAddr> = (0..8u64).map(|v| LineAddr(v * 4)).collect();
        for &v in &victims {
            llc.access(AccessRequest::read(PartitionId::from_index(0), v));
        }
        let parked: Vec<u8> = victims.iter().map(|&v| llc.tag_of(v).unwrap().1).collect();
        // Phase B: stream fresh lines through sets 1-3 only, so set 0 is
        // never walked while partition 0's coarse clock wraps (300 ticks
        // observed > the 256 of one full epoch).
        let mut cur = *parked.last().unwrap();
        let mut ticks = 0u32;
        let mut k = 0u64;
        while ticks < 300 {
            k += 1;
            assert!(k < 1_000_000, "clock failed to wrap");
            let addr = LineAddr(4 * k + 1 + (k % 3));
            llc.access(AccessRequest::read(PartitionId::from_index(0), addr));
            // A managed install is stamped with the partition's current
            // timestamp; watch it to count ticks (throttled fills land
            // unmanaged and are skipped).
            if let Some((0, stamp)) = llc.tag_of(addr) {
                if stamp != cur {
                    ticks += 1;
                    cur = stamp;
                }
            }
        }
        // Every parked line must have been pinned one tick behind the
        // clock (age 255). Without the clamp they would still carry
        // their phase-A stamps and read as freshly young.
        for &v in &victims {
            let (p, ts) = llc.tag_of(v).expect("set 0 was never walked");
            assert_eq!(p, 0, "victims stay managed until set 0 is walked");
            assert_eq!(ts, cur.wrapping_add(1), "stale stamp pinned to age 255");
        }
        // Phase C: the first walk of set 0 must demote the stale lines
        // immediately (plenty of headroom over the shrunken target).
        llc.set_targets(&[16]);
        llc.access(AccessRequest::read(
            PartitionId::from_index(0),
            LineAddr(4 * 2_000_000),
        ));
        for &v in &victims {
            if let Some((p, _)) = llc.tag_of(v) {
                assert_eq!(
                    p, UNMANAGED,
                    "stale line must be demoted at first candidacy"
                );
            }
        }
        llc.invariants().expect("invariants hold");
    }

    /// A 4096-frame, 4-partition cache, filled.
    fn filled_llc() -> VantageLlc {
        let mut llc = default_llc(4096, 4);
        let mut rng = SmallRng::seed_from_u64(50);
        for p in 0..4 {
            drive(&mut llc, p, 50_000, 6_000, &mut rng);
        }
        assert_eq!(llc.array.occupancy(), 4096);
        llc
    }

    #[test]
    fn tag_part_flips_leave_the_count_index_bounded() {
        let mut llc = filled_llc();
        let mut rng = SmallRng::seed_from_u64(51);
        for _ in 0..1000 {
            let flip = Fault::TagPartFlip {
                frame_sel: rng.gen(),
                bit: 15,
            };
            assert!(llc.inject(&flip));
        }
        // Each flipped partition ID (0x8000 | p) and unmanaged tag (0x7FFF)
        // would otherwise have grown the index to its row.
        assert!(
            llc.meta.index_rows() <= 4 + 2,
            "{} index rows",
            llc.meta.index_rows()
        );
        drive(&mut llc, 0, 50_000, 2_000, &mut rng);
        llc.scrub();
        llc.invariants().expect("scrub repairs the flips");
    }

    #[test]
    fn restored_corrupt_ids_leave_the_count_index_bounded() {
        use vantage_snapshot::{Decoder, Encoder, Snapshot};
        let mut llc = filled_llc();
        for f in 0..llc.meta.len() {
            llc.meta.set_part(f, 0xFFFE);
        }
        let mut enc = Encoder::new();
        llc.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = default_llc(4096, 4);
        restored
            .load_state(&mut Decoder::new(&bytes, "corrupt tags"))
            .expect("out-of-range tags are legal live state");
        assert_eq!(restored.meta.part(0), 0xFFFE);
        assert!(
            restored.meta.index_rows() <= 4 + 2,
            "{} index rows",
            restored.meta.index_rows()
        );
        restored.scrub();
        restored
            .invariants()
            .expect("scrub retags the restored lines");
    }

    /// The idealized controller and the probe read ranks from the count
    /// index's rows, so under faults and scrubs every valid partition's row
    /// must stay exactly its resident lines' stamps, checked after every
    /// access.
    #[test]
    fn rank_rows_match_a_recount_under_faults() {
        use crate::fault::FaultKind;
        const FRAMES: usize = 1024;
        const PARTS: usize = 4;
        let cfg = VantageConfig {
            demotion_mode: DemotionMode::PerfectAperture,
            churn_throttling: true,
            ..VantageConfig::default()
        };
        let mut llc = VantageLlc::try_new(z52(FRAMES), PARTS, cfg, 17).expect("valid config");
        llc.enable_priority_probe();
        let kinds = [
            FaultKind::TagPart,
            FaultKind::TagPart,
            FaultKind::TagTs,
            FaultKind::ActualSize,
        ];
        llc.set_fault_plan(Some(FaultPlan::new(0x5CA1, 40, &kinds)));
        llc.set_scrub_period(Some(3_000));
        let mut rng = SmallRng::seed_from_u64(52);
        for i in 0..20_000usize {
            drive(&mut llc, i % PARTS, 3_000, 1, &mut rng);
            let mut recount = [[0u32; 256]; PARTS];
            for f in 0..FRAMES {
                let q = llc.meta.part(f) as usize;
                if q < PARTS && llc.array.occupant(f as Frame).is_some() {
                    recount[q][llc.meta.ts(f) as usize] += 1;
                }
            }
            for (q, want) in recount.iter().enumerate() {
                assert_eq!(
                    llc.meta.stamp_counts(q as u16),
                    want,
                    "partition {q} after access {i}"
                );
            }
            assert!(llc.meta.index_rows() <= PARTS + 2, "after access {i}");
        }
        let log = llc.fault_plan().expect("attached").log();
        assert!(log.iter().any(|(_, f)| matches!(
            f,
            Fault::TagPartFlip { bit, .. } if bit % 16 >= 2
        )));
        assert!(llc.drain_priority_samples().len() > 100);
    }

    /// `access_batch`'s path is fixed at construction by the array
    /// footprint: the plain loop below [`PREFETCH_MIN_FOOTPRINT`], the
    /// prefetch pipeline from it on.
    #[test]
    fn batch_path_is_chosen_by_footprint_at_construction() {
        let pipelined = |array: ZArray| {
            VantageLlc::try_new(Box::new(array), 4, VantageConfig::default(), 1)
                .expect("valid Vantage config")
                .prefetch_batches
        };
        // A frame costs an odd number of bytes (11 + 2 per way), so no
        // geometry lands exactly on the power-of-two constant. Z15 over
        // 25575 frames lands one byte short of it.
        assert_eq!(batch_footprint(25_575, 15), PREFETCH_MIN_FOOTPRINT - 1);
        assert!(!pipelined(ZArray::new(25_575, 15, 52, 1)));
        // Z4 at 19 B per frame: the largest plain cache and the smallest
        // pipelined one (the size the batch-equivalence proptests use).
        assert!(batch_footprint(55_188, 4) < PREFETCH_MIN_FOOTPRINT);
        assert!(batch_footprint(55_192, 4) >= PREFETCH_MIN_FOOTPRINT);
        assert!(!pipelined(ZArray::new(55_188, 4, 52, 1)));
        assert!(pipelined(ZArray::new(55_192, 4, 52, 1)));
        // The benchmark's single caches take the plain loop; its banked
        // engine's 64K-frame banks keep the pipeline.
        assert!(!pipelined(ZArray::new(32 * 1024, 4, 52, 1)));
        assert!(pipelined(ZArray::new(64 * 1024, 4, 52, 1)));
    }
}
