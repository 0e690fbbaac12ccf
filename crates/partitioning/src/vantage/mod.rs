//! The Vantage last-level cache: the practical controller of §4 laid over a
//! cache array as the [`Mechanism`] of a [`SchemeFrame`], exactly as the
//! schemes it is compared against are.
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
//!
//! The frame resolves ownership, counts lines per partition and serves
//! statistics, telemetry and batches. Vantage's own are the controller,
//! the demotion rules, the unmanaged region, the lifecycle
//! (`lifecycle.rs`), fault injection and scrub ([`crate::fault`]) and the
//! snapshot codec (`codec.rs`).

mod codec;
mod lifecycle;

pub use lifecycle::SlotState;

use vantage_cache::replacement::rrip::BasePolicy;
use vantage_cache::{
    CacheArray, Frame, LineAddr, PartitionId, RripConfig, RripMode, RripPolicy, TagMeta, TsLru,
    Walk, TAG_UNMANAGED,
};
use vantage_snapshot::{Decoder, Encoder};
use vantage_telemetry::{PartitionSample, TelemetryEvent};

use crate::caps::{HasInvariants, InvariantViolation};
use crate::config::{DemotionMode, RankMode, VantageConfig};
use crate::controller::{Feedback, PartitionState};
use crate::error::VantageError;
use crate::fault::FaultPlan;
use crate::frame::{Ctx, Mechanism, SchemeFrame};
pub use crate::llc::PrioritySample;
use crate::llc::{LifecycleError, Llc, PartitionObservations, PartitionSpec};

/// The partition ID tagging unmanaged lines (and, in the SoA tag store,
/// never-filled frames — see [`TagMeta`]).
pub const UNMANAGED: u16 = TAG_UNMANAGED;

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

/// The Vantage [`Mechanism`]: controller registers (`ActualSize` is the
/// frame's size lane), the unmanaged region, slots, meters and faults.
pub struct Vantage {
    pub(crate) cfg: VantageConfig,
    pub(crate) parts: Vec<PartitionState>,
    /// Per-slot lifecycle state, parallel to `parts` (service mode).
    pub(crate) slot_state: Vec<SlotState>,
    /// Partitions created since the last [`Llc::observations`] snapshot.
    pub(crate) pending_arrived: Vec<PartitionId>,
    /// Partitions destroyed since the last [`Llc::observations`] snapshot.
    pub(crate) pending_departed: Vec<PartitionId>,
    /// Unmanaged-region timestamp domain (advanced per demotion).
    pub(crate) um_lru: TsLru,
    pub(crate) um_size: u64,
    pub(crate) um_target: u64,
    pub(crate) max_rrpv: u8,
    pub(crate) rrip: Option<RripPolicy>,
    pub(crate) vstats: VantageStats,
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
    /// The RRPV the miss in flight installs its line with (RRIP ranking).
    fill_rrpv: u8,
    pub(crate) probe: bool,
    pub(crate) samples: Vec<PrioritySample>,
    /// Cumulative lines lost per partition (demotion or eviction) — the
    /// churn meter behind [`PartitionObservations`] and telemetry samples.
    pub(crate) lost: Vec<u64>,
    /// Cumulative managed installs per partition.
    pub(crate) filled: Vec<u64>,
    /// Cumulative unmanaged-region evictions (the region's churn meter).
    pub(crate) um_lost: u64,
    /// `lost`/`um_lost` values at the previous telemetry sample, so each
    /// sample reports churn since the one before.
    pub(crate) sample_lost: Vec<u64>,
    pub(crate) sample_um_lost: u64,
    /// `lost`/`filled` values at the previous [`Llc::observations`]
    /// snapshot, so each snapshot reports epoch-relative dynamics.
    pub(crate) obs_lost: Vec<u64>,
    pub(crate) obs_filled: Vec<u64>,
    /// Run [`VantageLlc::scrub`] automatically every this many accesses.
    pub(crate) scrub_period: Option<u64>,
    /// Attached fault schedule, polled once per access (`None` by default;
    /// the disabled case costs one branch).
    pub(crate) fault_plan: Option<FaultPlan>,
}

/// A Vantage-partitioned last-level cache over any [`CacheArray`].
///
/// # Example
///
/// ```
/// use vantage_cache::ZArray;
/// use vantage_partitioning::{AccessRequest, Llc, PartitionId, VantageConfig, VantageLlc};
///
/// let array = ZArray::new(4096, 4, 52, 1); // Z4/52
/// let mut llc = VantageLlc::try_new(Box::new(array), 2, VantageConfig::default(), 1).expect("valid Vantage config");
/// llc.set_targets(&[3072, 1024]);
/// llc.access(AccessRequest::read(PartitionId::from_index(0), 0x1000.into()));
/// assert_eq!(llc.stats().misses[0], 1);
/// ```
pub type VantageLlc = SchemeFrame<Vantage>;

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
        let mech = Vantage {
            parts: (0..partitions)
                .map(|_| PartitionState::new(0, max_rrpv))
                .collect(),
            slot_state: vec![SlotState::Active; partitions],
            pending_arrived: Vec::new(),
            pending_departed: Vec::new(),
            um_lru: TsLru::for_size(16),
            um_size: 0,
            um_target: 0,
            cfg,
            max_rrpv,
            rrip,
            vstats: VantageStats::default(),
            scan_part: Vec::with_capacity(64),
            scan_ts: Vec::with_capacity(64),
            walk_setpoints: Vec::with_capacity(8),
            fill_rrpv: 0,
            probe: false,
            samples: Vec::new(),
            lost: vec![0; partitions],
            filled: vec![0; partitions],
            um_lost: 0,
            sample_lost: vec![0; partitions],
            sample_um_lost: 0,
            obs_lost: vec![0; partitions],
            obs_filled: vec![0; partitions],
            scrub_period: None,
            fault_plan: None,
        };
        let mut llc = SchemeFrame::new(array, partitions, mech);
        let even = vec![(llc.meta.len() / partitions) as u64; partitions];
        llc.set_targets(&even);
        Ok(llc)
    }

    /// Vantage-specific counters.
    pub fn vantage_stats(&self) -> &VantageStats {
        &self.mech.vstats
    }

    /// Takes the Vantage-specific counters, leaving zeroed ones — the
    /// per-interval companion of [`Llc::take_stats`].
    pub fn take_vantage_stats(&mut self) -> VantageStats {
        std::mem::take(&mut self.mech.vstats)
    }

    /// Current number of lines in the unmanaged region.
    pub fn unmanaged_size(&self) -> u64 {
        self.mech.um_size
    }

    /// The unmanaged region's target size in lines.
    pub fn unmanaged_target(&self) -> u64 {
        self.mech.um_target
    }

    /// Partition `part`'s (scaled) target size in lines.
    pub fn partition_target(&self, part: PartitionId) -> u64 {
        self.mech.parts[part.index()].target
    }

    /// [`Llc::set_targets`] for callers holding a concrete `VantageLlc`
    /// that treat a refused target vector as a bug. It stays because the
    /// frozen `benchmark/` uses this call's value as `()`; it goes with
    /// the benchmark-side follow-up that retires `CmpSim::{run, run_for}`.
    ///
    /// # Panics
    ///
    /// Panics on any vector the trait method refuses with a
    /// [`TargetsError`](crate::TargetsError).
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

    /// The unmanaged region's current timestamp period, in demotions per
    /// tick (instrumentation: asserts which size the region's clock
    /// tracks).
    pub fn unmanaged_ts_period(&self) -> u32 {
        self.mech.um_lru.period()
    }

    /// Sets partition `part`'s base replacement/insertion policy. Only
    /// meaningful with RRIP ranking, where the allocation policy picks
    /// per-partition policies at each repartitioning (Vantage-DRRIP, §6.2);
    /// ignored under LRU ranking.
    pub fn set_partition_policy(&mut self, part: usize, policy: BasePolicy) {
        if let Some(rr) = &mut self.mech.rrip {
            rr.set_partition_policy(part, policy);
        }
    }
}

impl Vantage {
    pub(crate) fn is_lru(&self) -> bool {
        matches!(self.cfg.rank, RankMode::Lru)
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
    pub(crate) fn stamp_unmanaged(&mut self, meta: &mut TagMeta, f: usize, rrpv: u8) {
        self.um_size += 1;
        let ts = if self.is_lru() {
            if self.um_lru.on_access() {
                self.um_lru.set_period_for_size(self.um_size.max(16));
            }
            self.um_lru.current()
        } else {
            rrpv
        };
        meta.set(f, UNMANAGED, ts);
    }

    /// Tags frame `f` as partition `owner`'s line after an access by
    /// `part` — a hit or a fill; `owner` differs from `part` only for a
    /// shared hit pinned to its owner. Under RRIP ranking the line takes
    /// `rrpv`. Under LRU ranking the accessor's coarse clock ticks and the
    /// line takes the owner's current stamp, so a pinned hit refreshes
    /// recency without advancing the owner's clock.
    ///
    /// A tick pins the accessor's aliasing stamps before any line is
    /// stamped with the new value ([`TagMeta::clamp_stale`]). Without
    /// this, a line untouched for a full 256 ticks reads as age 0 again —
    /// back inside the keep window — and dodges demotion for another epoch
    /// (and every epoch after). Pinning rewrites those stamps to `t + 1`
    /// (age 255 under the new clock), so genuinely stale lines stay the
    /// oldest; each later tick re-pins them. The frame about to be stamped
    /// may be among them; the stamp that follows overwrites its pin.
    #[inline]
    fn stamp_managed(&mut self, cx: &mut Ctx<'_>, f: usize, part: usize, owner: usize, rrpv: u8) {
        let ts = if self.is_lru() {
            let (t, advanced) = self.parts[part].on_access_advanced(cx.sizes[part]);
            if advanced {
                cx.meta.clamp_stale(part as u16, t);
            }
            self.parts[owner].lru.current()
        } else {
            rrpv
        };
        cx.meta.set(f, owner as u16, ts);
    }

    /// Demotes frame `f`, partition `q`'s line stamped `ts`, into the
    /// unmanaged region.
    fn demote_candidate(&mut self, cx: &mut Ctx<'_>, f: usize, q: usize, ts: u8) {
        self.vstats.demotions += 1;
        cx.tele.event(TelemetryEvent::Demotion {
            access: cx.access,
            part: PartitionId::from_index(q),
        });
        if self.probe {
            // Ranks (Fig. 8 priorities) are only read while a miss
            // resolves, when every tag is whole, so the count row holds
            // exactly the partition's resident lines.
            let pr = cx.meta.rank(q as u16, ts, self.parts[q].lru.current());
            self.samples.push((cx.access, q as u16, pr as f32));
        }
        cx.sizes[q] = cx.sizes[q].saturating_sub(1);
        self.lost[q] += 1;
        self.stamp_unmanaged(cx.meta, f, ts);
    }

    /// Emits the telemetry for one setpoint adjustment: the adjusted keep
    /// window plus the implied Eq. 7 aperture at the current size. Cold by
    /// construction — at most once per `c = 256` candidates, and only
    /// reached with telemetry enabled.
    #[cold]
    fn note_adjustment(&self, cx: &mut Ctx<'_>, part: usize, fb: Feedback) {
        let st = &self.parts[part];
        cx.tele.event(TelemetryEvent::SetpointAdjust {
            access: cx.access,
            part: PartitionId::from_index(part),
            direction: fb as i8,
            window: st.keep_window(),
        });
        cx.tele.event(TelemetryEvent::ApertureUpdate {
            access: cx.access,
            part: PartitionId::from_index(part),
            aperture: st.table(&self.cfg).aperture(cx.sizes[part]) as f32,
        });
    }

    /// The walk-order resolution loop of [`Mechanism::select_victim`], one
    /// skeleton for every demotion rule and the miss path's one pass over
    /// its candidates. Over the gathered lanes it tracks the oldest
    /// unmanaged candidate, routes corrupted partition IDs to eviction,
    /// meters each managed candidate, and demotes it or (RRIP) ages it. The
    /// rule supplies only `demote(scan, i, q, ts, over)`: whether candidate
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
        cx: &mut Ctx<'_>,
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
        // Sliced to the slot count, so a candidate whose partition ID
        // passed the `parts` lookup indexes `sizes` without a check.
        let slots = self.parts.len();
        let mut i = 0;
        while i < n {
            let scan = Scan {
                parts: &mut self.parts,
                slot_state: &self.slot_state,
                meta: &mut *cx.meta,
                sizes: &cx.sizes[..slots],
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
                let over = scan.sizes[q] > st.target;
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
                        self.adjust_in_walk(cx, q);
                    }
                    if demoted {
                        first_demoted.get_or_insert(i);
                        let f = walk.nodes[i].frame as usize;
                        self.demote_candidate(cx, f, q, self.scan_ts[i]);
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
    fn adjust_in_walk(&mut self, cx: &mut Ctx<'_>, q: usize) {
        let st = &mut self.parts[q];
        if !self
            .walk_setpoints
            .iter()
            .any(|&(p, _)| usize::from(p) == q)
        {
            self.walk_setpoints.push((q as u16, st.setpoint));
        }
        let fb = st.adjust_setpoint(&self.cfg, self.max_rrpv, cx.sizes[q]);
        self.vstats.setpoint_adjustments += 1;
        if cx.tele.enabled() {
            self.note_adjustment(cx, q, fb);
        }
    }
}

/// The controller state [`Vantage::resolve`]'s per-candidate loop reads
/// and writes, borrowed field by field so the loop makes no `&mut self`
/// call; a demotion rule reads it through the same borrows.
struct Scan<'a> {
    parts: &'a mut [PartitionState],
    slot_state: &'a [SlotState],
    meta: &'a mut TagMeta,
    sizes: &'a [u64],
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

impl Mechanism for Vantage {
    type Array = dyn CacheArray;

    fn name(&self) -> &'static str {
        match (self.cfg.demotion_mode, self.cfg.rank) {
            (DemotionMode::Setpoint, RankMode::Lru) => "Vantage",
            (DemotionMode::Setpoint, RankMode::Rrip { .. }) => "Vantage-RRIP",
            (DemotionMode::PerfectAperture, _) => "Vantage-Ideal",
            (DemotionMode::ExactlyOne, _) => "Vantage-ExactlyOne",
        }
    }

    /// Polls the attached fault plan and runs the periodic scrub.
    #[inline]
    fn before_lookup(llc: &mut VantageLlc, _part: usize) {
        if let Some(fault) = llc
            .mech
            .fault_plan
            .as_mut()
            .and_then(|p| p.poll(llc.accesses))
        {
            llc.inject(&fault);
        }
        if let Some(period) = llc.mech.scrub_period {
            if llc.accesses.is_multiple_of(period) {
                llc.scrub();
            }
        }
    }

    /// A hit on an unmanaged line promotes it; one on a corrupted ID (a
    /// fault) adopts it, still counted by its old owner until a scrub.
    /// Under RRIP a hit promotes to near-immediate re-reference.
    #[inline]
    fn on_hit(&mut self, cx: &mut Ctx<'_>, f: Frame, part: usize, owner: usize) {
        let owner = if owner < cx.sizes.len() {
            owner
        } else {
            if owner == usize::from(UNMANAGED) {
                self.vstats.promotions += 1;
                cx.tele.event(TelemetryEvent::Promotion {
                    access: cx.access,
                    part: PartitionId::from_index(part),
                });
                // Saturating: tolerates a corrupted unmanaged-size register
                // (scrub recomputes the true value).
                self.um_size = self.um_size.saturating_sub(1);
            } else {
                self.vstats.corrupted_pid_fallbacks += 1;
            }
            cx.sizes[part] += 1;
            part
        };
        self.stamp_managed(cx, f as usize, part, owner, 0);
    }

    fn note_miss(&mut self, part: usize, addr: LineAddr) {
        if let Some(rr) = &mut self.rrip {
            rr.note_miss(part, addr);
            // Nothing between the miss and its fill consults the policy,
            // so the insertion RRPV is drawn here.
            self.fill_rrpv = rr.insertion_rrpv(part, addr);
        }
    }

    /// The candidate pass (§4.3, "Misses") and the victim pick.
    fn select_victim(&mut self, cx: &mut Ctx<'_>, walk: &Walk, _part: usize) -> (usize, bool) {
        let lru = self.is_lru();
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
            (*p, *t) = (cx.meta.part(f), cx.meta.ts(f));
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
                self.resolve(cx, walk, |scan, _, q, ts, over| {
                    Some(
                        over & (scan.is_stale(q, ts) | (scan.slot_state[q] == SlotState::Draining)),
                    )
                })
            }
            // Practical controller, RRIP ranks: demote at or above the
            // setpoint RRPV.
            (DemotionMode::Setpoint, RankMode::Rrip { .. }) => {
                self.resolve(cx, walk, |scan, _, q, ts, over| {
                    Some(over & (ts >= scan.parts[q].setpoint_rrpv))
                })
            }
            // Idealized controller: demote by exact rank against the
            // aperture.
            (DemotionMode::PerfectAperture, _) => {
                let cfg = self.cfg.clone();
                self.resolve(cx, walk, |scan, _, q, ts, over| {
                    let st = &scan.parts[q];
                    Some(
                        over && {
                            let aperture = st.table(&cfg).aperture(scan.sizes[q]);
                            aperture > 0.0
                                && scan.meta.rank(q as u16, ts, st.lru.current()) > 1.0 - aperture
                        },
                    )
                })
            }
            // Fig. 2b strawman: remember the oldest over-target candidate
            // and demote exactly that one after the scan (unmetered).
            (DemotionMode::ExactlyOne, _) => self.resolve(cx, walk, |scan, i, q, ts, over| {
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
            let f = walk.nodes[i].frame as usize;
            self.demote_candidate(cx, f, q, self.scan_ts[i]);
        }

        if let Some(e) = empty {
            self.vstats.empty_fills += 1;
            return (e, false);
        }
        if let Some(i) = best_um.or(first_demoted) {
            self.vstats.unmanaged_evictions += 1;
            return (i, false);
        }
        // Forced eviction from the managed region. The paper leaves the
        // choice arbitrary; we pick the oldest candidate (the last one on
        // ties), preferring partitions that are over their targets so
        // transients do not bleed quiet, under-target partitions. No
        // candidate was demoted, so the lanes hold every current tag.
        self.vstats.forced_managed_evictions += 1;
        let mut best = 0usize;
        let mut best_key = 0u32;
        for (i, (&q, &ts)) in self.scan_part.iter().zip(&self.scan_ts).enumerate() {
            // Over-target flag above age; a corrupted-PID line (tolerated
            // above) is always the best forced victim: no healthy partition
            // loses a line.
            let key = self.parts.get(q as usize).map_or(u32::MAX, |st| {
                let age = if lru { st.lru.age(ts) } else { ts };
                (u32::from(cx.sizes[q as usize] > st.target) << 8) | u32::from(age)
            });
            if key >= best_key {
                best_key = key;
                best = i;
            }
        }
        (best, true)
    }

    /// An unmanaged line leaves the region; a managed one adds to its
    /// partition's churn. Out-of-range PIDs: no register ever counted this
    /// line under a valid owner, so there is nothing to decrement; the
    /// stale original-owner register is repaired by the next scrub.
    fn note_eviction(&mut self, _meta: &TagMeta, _access: u64, tag: u16, _stamp: u8) {
        if tag == UNMANAGED {
            self.um_size = self.um_size.saturating_sub(1);
            self.um_lost += 1;
        } else if let Some(lost) = self.lost.get_mut(usize::from(tag)) {
            *lost += 1;
        }
    }

    /// Churn throttling (§3.4 option 2): a partition whose aperture is
    /// pinned at `A_max` cannot shed lines fast enough, so its fills go to
    /// the unmanaged region instead of growing it further.
    fn divert_fill(&mut self, cx: &mut Ctx<'_>, landing: Frame, part: usize) -> bool {
        let st = &self.parts[part];
        if self.cfg.churn_throttling
            && st
                .table(&self.cfg)
                .aperture(cx.sizes[part].saturating_add(1))
                >= self.cfg.a_max
        {
            self.vstats.throttled_insertions += 1;
            self.stamp_unmanaged(cx.meta, landing as usize, self.fill_rrpv);
            return true;
        }
        false
    }

    fn on_fill(&mut self, cx: &mut Ctx<'_>, landing: Frame, part: usize, _addr: LineAddr) {
        self.filled[part] += 1;
        self.stamp_managed(cx, landing as usize, part, part, self.fill_rrpv);
    }

    /// Enables Fig. 8-style demotion-priority sampling (LRU ranking only).
    /// Ranks come from the tag store's count index, which every lane write
    /// keeps current, so the probe can be enabled at any point of a run.
    ///
    /// # Panics
    ///
    /// Panics under RRIP ranking, where timestamp ranks are undefined.
    fn enable_priority_probe(&mut self) {
        assert!(self.is_lru(), "probe requires LRU ranking");
        self.probe = true;
    }

    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        std::mem::take(&mut self.samples)
    }

    /// Installs targets, scaling them onto the managed region: a partition
    /// granted `t` lines of the cache receives `t·(1-u)` managed lines, and
    /// the remainder funds the unmanaged region (§3.3).
    fn set_targets(&mut self, cx: &mut Ctx<'_>, targets: &[u64]) {
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
            st.target = scaled;
            managed_total += scaled;
        }
        self.um_target = cx.meta.len() as u64 - managed_total;
        // Seed the unmanaged clock from the region's actual size when it is
        // populated — the clock keeps tracking `um_size` at every tick (see
        // `stamp_unmanaged`) — and from the target only as a cold-start estimate.
        let clock_size = if self.um_size > 0 {
            self.um_size
        } else {
            self.um_target
        };
        self.um_lru.set_period_for_size(clock_size.max(16));
        if cx.tele.enabled() {
            for (p, st) in self.parts.iter().enumerate() {
                if self.slot_state[p] == SlotState::Active {
                    cx.tele.event(TelemetryEvent::ApertureUpdate {
                        access: cx.access,
                        part: PartitionId::from_index(p),
                        aperture: st.table(&self.cfg).aperture(cx.sizes[p]) as f32,
                    });
                }
            }
        }
    }

    /// Reports each live partition's target, aperture and keep window, and
    /// samples the unmanaged region too. Churn is metered since the
    /// previous sample.
    fn sample(&mut self, s: &mut PartitionSample) -> bool {
        if s.part.is_unmanaged() {
            s.actual = self.um_size;
            s.target = self.um_target;
            s.churn = self.um_lost - self.sample_um_lost;
            self.sample_um_lost = self.um_lost;
            return true;
        }
        let p = s.part.index();
        s.churn = self.lost[p] - self.sample_lost[p];
        self.sample_lost[p] = self.lost[p];
        let st = &self.parts[p];
        s.target = st.target;
        s.aperture = st.table(&self.cfg).aperture(s.actual) as f32;
        s.window = st.keep_window();
        self.slot_state[p] != SlotState::Free
    }

    /// Real dynamics metering: reports the (scaled) managed targets and
    /// drains the epoch-relative churn/insertion counters maintained on the
    /// demotion/eviction/install paths, plus the lifecycle deltas (slots
    /// created/destroyed since the previous snapshot).
    ///
    /// Dead slots (destroyed or still draining) report `live = false` with
    /// zeroed churn/insertion rows — their meters are frozen leftovers of
    /// the departed tenant, not dynamics a policy should ingest.
    fn observe(&mut self, sizes: &[u64], obs: &mut PartitionObservations) {
        self.retire_drained_slots(sizes);
        for (p, st) in self.parts.iter().enumerate() {
            let live = self.slot_state[p] == SlotState::Active;
            obs.live[p] = live;
            obs.targets[p] = st.target;
            if live {
                obs.churn[p] = self.lost[p] - self.obs_lost[p];
                obs.insertions[p] = self.filled[p] - self.obs_filled[p];
            }
        }
        self.obs_lost.copy_from_slice(&self.lost);
        self.obs_filled.copy_from_slice(&self.filled);
        obs.arrived = std::mem::take(&mut self.pending_arrived);
        obs.departed = std::mem::take(&mut self.pending_departed);
    }

    fn create_partition(
        llc: &mut VantageLlc,
        spec: PartitionSpec,
    ) -> Result<PartitionId, LifecycleError> {
        llc.create(spec)
    }

    fn destroy_partition(llc: &mut VantageLlc, part: PartitionId) -> Result<(), LifecycleError> {
        llc.destroy(part)
    }

    fn save_state(llc: &VantageLlc, enc: &mut Encoder) {
        llc.save_vantage(enc);
    }

    fn load_state(llc: &mut VantageLlc, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<()> {
        llc.load_vantage(dec)
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
        self.mech.vstats.scrubs
    }

    fn corruption_fallbacks(&self) -> u64 {
        self.mech.vstats.corrupted_pid_fallbacks
    }
}
