//! The [`Llc`] trait: a shared, partitioned last-level cache.

use vantage_cache::{LineAddr, PartitionId, ShareMode};
use vantage_telemetry::Telemetry;

use crate::error::TargetsError;

/// The kind of memory operation an [`AccessRequest`] models.
///
/// Today every scheme treats reads and writes identically (the paper's
/// evaluation does not model dirty lines); the distinction is carried through
/// the access path so future write-back/dirty-line modeling needs no second
/// API migration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    #[default]
    Read,
    /// A store (reserved for future dirty-line modeling).
    Write,
}

/// One cache access: which partition is asking, for which line, and how.
///
/// This is the unit of the [`Llc`] access API — both the one-at-a-time
/// [`Llc::access`] and the batched [`Llc::access_batch`] consume it — and it
/// is plain `Copy` data so request slices can be grouped and queued per bank
/// by the banked LLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessRequest {
    /// The partition (a core/thread or a service-mode tenant) the access
    /// is on behalf of.
    pub part: PartitionId,
    /// The line address accessed.
    pub addr: LineAddr,
    /// Read or write (see [`AccessKind`]).
    pub kind: AccessKind,
}

impl AccessRequest {
    /// Builds a request with an explicit kind.
    #[inline]
    pub fn new(part: PartitionId, addr: LineAddr, kind: AccessKind) -> Self {
        Self { part, addr, kind }
    }

    /// Builds a read request — the common case throughout the simulator.
    #[inline]
    pub fn read(part: PartitionId, addr: LineAddr) -> Self {
        Self::new(part, addr, AccessKind::Read)
    }

    /// Builds a write request.
    #[inline]
    pub fn write(part: PartitionId, addr: LineAddr) -> Self {
        Self::new(part, addr, AccessKind::Write)
    }
}

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was fetched and installed (possibly evicting another line).
    Miss,
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Aggregate per-LLC statistics, kept uniformly across schemes.
#[derive(Clone, Debug, Default)]
pub struct LlcStats {
    /// Hits per partition.
    pub hits: Vec<u64>,
    /// Misses per partition.
    pub misses: Vec<u64>,
    /// Total lines evicted (excluding fills into empty frames).
    pub evictions: u64,
}

impl LlcStats {
    /// Creates zeroed stats for `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        Self {
            hits: vec![0; partitions],
            misses: vec![0; partitions],
            evictions: 0,
        }
    }

    /// Total accesses by `part`.
    pub fn accesses(&self, part: PartitionId) -> u64 {
        let p = part.index();
        self.hits[p] + self.misses[p]
    }

    /// Miss ratio of `part` (0 if it made no accesses).
    pub fn miss_ratio(&self, part: PartitionId) -> f64 {
        let a = self.accesses(part);
        let p = part.index();
        if a == 0 {
            0.0
        } else {
            self.misses[p] as f64 / a as f64
        }
    }

    /// Total hits across partitions.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total misses across partitions.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.hits.fill(0);
        self.misses.fill(0);
        self.evictions = 0;
    }

    /// Grows or shrinks the per-partition counters to `partitions` slots
    /// (new slots start at zero). Used by schemes with a runtime partition
    /// lifecycle when the slot table grows.
    pub fn resize(&mut self, partitions: usize) {
        self.hits.resize(partitions, 0);
        self.misses.resize(partitions, 0);
    }
}

impl vantage_snapshot::Snapshot for LlcStats {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64_slice(&self.hits);
        enc.put_u64_slice(&self.misses);
        enc.put_u64(self.evictions);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let hits = dec.take_u64_vec()?;
        let misses = dec.take_u64_vec()?;
        let evictions = dec.take_u64()?;
        if hits.len() != self.hits.len() || misses.len() != self.misses.len() {
            return Err(dec.mismatch(&format!(
                "stats cover {} partitions, snapshot has {}/{}",
                self.hits.len(),
                hits.len(),
                misses.len()
            )));
        }
        self.hits = hits;
        self.misses = misses;
        self.evictions = evictions;
        Ok(())
    }
}

/// A per-partition snapshot of occupancy and dynamics, in one shape shared
/// by allocation policies and telemetry.
///
/// All vectors have one entry per partition. `hits`/`misses` mirror
/// [`LlcStats`]; `targets`, `churn` and `insertions` are scheme-provided
/// where the scheme tracks them (schemes without the machinery report
/// zeros — see [`Llc::observations`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionObservations {
    /// Lines each partition currently holds.
    pub actual: Vec<u64>,
    /// The capacity target each partition was last given (0 if the scheme
    /// does not retain targets).
    pub targets: Vec<u64>,
    /// Cumulative hits per partition.
    pub hits: Vec<u64>,
    /// Cumulative misses per partition.
    pub misses: Vec<u64>,
    /// Lines lost (demotion or eviction) per partition since the previous
    /// snapshot (0 for schemes that do not meter churn).
    pub churn: Vec<u64>,
    /// Lines installed per partition since the previous snapshot (0 for
    /// schemes that do not meter insertions).
    pub insertions: Vec<u64>,
    /// Cross-partition hits by each *accessing* partition since the
    /// previous snapshot (sharing pressure; 0 when no lines are shared or
    /// under `ShareMode::Replicate`, where lookups are per-partition).
    pub shared_hits: Vec<u64>,
    /// Ownership transfers to each *adopting* partition since the previous
    /// snapshot (nonzero only under `ShareMode::Adopt`).
    pub ownership_transfers: Vec<u64>,
    /// Whether each slot hosts a live (serviceable) partition. Destroyed
    /// or never-created slots report `false`; consumers aggregating CSV
    /// rows or SLA reports must skip dead slots rather than ingest their
    /// zeroed/stale counters.
    pub live: Vec<bool>,
    /// Partitions created since the previous snapshot (service-mode
    /// arrival deltas for allocation policies).
    pub arrived: Vec<PartitionId>,
    /// Partitions destroyed since the previous snapshot (departure
    /// deltas; the slot may still be draining).
    pub departed: Vec<PartitionId>,
}

impl PartitionObservations {
    /// Creates a zeroed snapshot for `partitions` partitions (all live,
    /// no lifecycle deltas — the fixed-population default).
    pub fn new(partitions: usize) -> Self {
        Self {
            actual: vec![0; partitions],
            targets: vec![0; partitions],
            hits: vec![0; partitions],
            misses: vec![0; partitions],
            churn: vec![0; partitions],
            insertions: vec![0; partitions],
            shared_hits: vec![0; partitions],
            ownership_transfers: vec![0; partitions],
            live: vec![true; partitions],
            arrived: Vec::new(),
            departed: Vec::new(),
        }
    }

    /// Number of partitions in the snapshot.
    pub fn num_partitions(&self) -> usize {
        self.actual.len()
    }
}

/// Requested configuration for a partition created at runtime (see
/// [`Llc::create_partition`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Requested capacity target in lines of total cache capacity (the
    /// allocation-policy view; schemes scale it onto their mechanism).
    /// The grant may be smaller when spare capacity is short — the next
    /// repartitioning epoch trues it up.
    pub target: u64,
}

impl PartitionSpec {
    /// A spec requesting `target` lines.
    pub fn with_target(target: u64) -> Self {
        Self { target }
    }
}

/// Why a runtime partition lifecycle operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LifecycleError {
    /// The scheme has no runtime partition lifecycle (fixed population).
    Unsupported,
    /// Every slot the scheme can address is in use (the `u16` tag lane
    /// bounds the population at [`PartitionId::MAX_PARTITIONS`]).
    Exhausted,
    /// The partition is not live (already destroyed, still draining, or
    /// never created).
    NotLive(PartitionId),
    /// The ID does not name a slot this cache has ever allocated.
    OutOfRange(PartitionId),
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsupported => f.write_str("scheme has no runtime partition lifecycle"),
            Self::Exhausted => f.write_str("partition slots exhausted (u16 tag lane)"),
            Self::NotLive(p) => write!(f, "partition {p} is not live"),
            Self::OutOfRange(p) => write!(f, "partition {p} was never allocated"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// One eviction's or demotion's empirical priority, for Fig. 8-style heat
/// maps: `(access sequence number, partition, priority in [0, 1])`.
pub type PrioritySample = (u64, u16, f32);

/// A shared last-level cache serving multiple partitions.
///
/// A partition is usually a core/thread, but may be any capacity domain
/// (an address range pinned as a local store, a transactional-state
/// partition, a security domain, ...). Implementations differ in how — and
/// how strictly — they enforce the capacity targets.
///
/// # Target semantics
///
/// [`set_targets`](Llc::set_targets) receives one target per partition in
/// *lines of total cache capacity* (the allocation-policy view). Schemes map
/// these onto their own mechanism: way-partitioning and PIPP round to whole
/// ways; Vantage scales them onto its managed region.
///
/// # Threading
///
/// `Llc` requires `Send`: a cache (and everything it owns — arrays, RNGs,
/// telemetry sinks) can be moved to another thread. No `Sync` is required;
/// a cache is only ever driven by one thread at a time.
///
/// # Checkpoint/restore
///
/// `Llc` requires [`Snapshot`](vantage_snapshot::Snapshot): every scheme
/// must be able to serialize its mutable state for crash-safe checkpointing
/// and bit-identical resume. The supertrait (rather than an optional method)
/// makes the compiler enforce coverage — a new scheme cannot forget it.
/// The restore contract is the trait's: `load_state` runs on a cache freshly
/// built from the same configuration and seeds that produced the save.
pub trait Llc: Send + vantage_snapshot::Snapshot {
    /// Serves one access, updating replacement and partition state.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `req.part >= num_partitions()`.
    fn access(&mut self, req: AccessRequest) -> AccessOutcome;

    /// Serves `reqs` in order, appending one outcome per request to `out`.
    ///
    /// Semantically identical to calling [`access`](Llc::access) in a loop;
    /// implementations amortize per-access costs across the batch —
    /// software-prefetching upcoming probes or grouping by bank. `out` is
    /// appended to, not cleared, so callers can accumulate across batches.
    fn access_batch(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>);

    /// Number of partitions this cache was configured with.
    fn num_partitions(&self) -> usize;

    /// Total capacity in lines.
    fn capacity(&self) -> usize;

    /// Installs new capacity targets (in lines; see trait docs).
    ///
    /// # Errors
    ///
    /// [`TargetsError::Length`] unless `targets.len() == num_partitions()`
    /// and [`TargetsError::ExceedCapacity`] when the targets sum past
    /// [`capacity`](Llc::capacity). On error the cache is unchanged.
    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError>;

    /// The number of lines partition `part` currently holds.
    fn partition_size(&self, part: PartitionId) -> u64;

    /// Creates a partition at runtime and returns its handle.
    ///
    /// Schemes with a runtime lifecycle (Vantage and its banked wrappers)
    /// allocate a slot (reusing a fully drained one when available), seed
    /// it with as much of `spec.target` as current spare capacity allows,
    /// and emit a partition-created telemetry event.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::Unsupported`] on fixed-population schemes and
    /// [`LifecycleError::Exhausted`] when the `u16` tag lane has no free
    /// slot left.
    fn create_partition(&mut self, spec: PartitionSpec) -> Result<PartitionId, LifecycleError>;

    /// Destroys a live partition.
    ///
    /// Destruction never flushes: the slot stops receiving capacity (its
    /// target moves to the unmanaged region) and its resident lines drain
    /// through the scheme's ordinary demotion machinery as other tenants
    /// churn. The slot becomes reusable once fully drained.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::Unsupported`] on fixed-population schemes,
    /// [`LifecycleError::OutOfRange`] for a handle this cache never
    /// allocated, and [`LifecycleError::NotLive`] when the partition was
    /// already destroyed.
    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), LifecycleError>;

    /// Hit/miss statistics.
    fn stats(&self) -> &LlcStats;

    /// Mutable statistics (e.g. to reset between measurement intervals).
    fn stats_mut(&mut self) -> &mut LlcStats;

    /// Takes the accumulated statistics, leaving zeroed counters — the
    /// uniform "read one measurement interval" operation across schemes.
    fn take_stats(&mut self) -> LlcStats {
        let partitions = self.num_partitions();
        std::mem::replace(self.stats_mut(), LlcStats::new(partitions))
    }

    /// Snapshots per-partition occupancy and dynamics (see
    /// [`PartitionObservations`]): current sizes and cumulative hit/miss
    /// counters, plus targets, churn and insertions where the scheme meters
    /// them (e.g. Vantage's demotion machinery). Takes `&mut self` so
    /// schemes may drain epoch-relative counters.
    fn observations(&mut self) -> PartitionObservations;

    /// Installs the cross-partition sharing mode (see [`ShareMode`]). Must
    /// be called on a cold cache — before any access — because lines
    /// already placed under the old mode keep their placement. Returns
    /// `false` (leaving the cache in its default [`ShareMode::Adopt`]
    /// behavior) if the cache refuses the mode.
    fn set_share_mode(&mut self, mode: ShareMode) -> bool;

    /// The active cross-partition sharing mode.
    fn share_mode(&self) -> ShareMode;

    /// Installs a telemetry handle; the cache emits dynamics events and
    /// periodic per-partition samples into it from now on. Returns `false`
    /// (dropping the handle) if the cache refuses it.
    fn set_telemetry(&mut self, telemetry: Telemetry) -> bool;

    /// Removes and returns the installed telemetry handle (flushing is the
    /// caller's or the handle's `Drop`'s job), or `None` if absent.
    fn take_telemetry(&mut self) -> Option<Telemetry>;

    /// Starts Fig. 8-style eviction/demotion priority sampling where the
    /// scheme supports it; other schemes ignore the request.
    fn enable_priority_probe(&mut self);

    /// Drains the priority samples taken since the last drain (empty when
    /// the probe is off or unsupported).
    fn drain_priority_samples(&mut self) -> Vec<PrioritySample>;

    /// A short human-readable scheme name (e.g. `"Vantage"`, `"WayPart"`).
    fn name(&self) -> &str;
}

/// Converts line-granularity targets into a whole-way allocation summing to
/// exactly `ways`, giving every partition at least one way.
///
/// This is how way-granularity schemes (way-partitioning, PIPP) map the
/// allocation policy's targets onto their mechanism. Uses largest-remainder
/// apportionment on top of a one-way-per-partition floor.
///
/// # Panics
///
/// Panics if `targets` is empty or there are fewer ways than partitions.
pub fn ways_from_targets(targets: &[u64], ways: u32) -> Vec<u32> {
    let n = targets.len();
    assert!(n > 0, "no partitions");
    assert!(ways as usize >= n, "need at least one way per partition");
    let total: u64 = targets.iter().sum();
    let mut alloc = vec![1u32; n];
    let rem = ways - n as u32;
    if rem == 0 {
        return alloc;
    }
    // Desired way share beyond the 1-way floor.
    let extras: Vec<f64> = if total == 0 {
        vec![1.0; n]
    } else {
        targets
            .iter()
            .map(|&t| (t as f64 / total as f64 * f64::from(ways) - 1.0).max(0.0))
            .collect()
    };
    let extra_sum: f64 = extras.iter().sum();
    if extra_sum <= 0.0 {
        // Degenerate: all targets want less than one way; spread evenly.
        for i in 0..rem as usize {
            alloc[i % n] += 1;
        }
        return alloc;
    }
    let scaled: Vec<f64> = extras
        .iter()
        .map(|e| e * f64::from(rem) / extra_sum)
        .collect();
    let mut given = 0u32;
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
    for (i, &s) in scaled.iter().enumerate() {
        let f = s.floor() as u32;
        alloc[i] += f;
        given += f;
        fracs.push((i, s - s.floor()));
    }
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite fractions"));
    for k in 0..(rem - given) as usize {
        alloc[fracs[k % n].0] += 1;
    }
    debug_assert_eq!(alloc.iter().sum::<u32>(), ways);
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DemotionMode, RankMode, VantageConfig};
    use crate::fault::{Fault, FaultPlan};
    use crate::frame::{batch_footprint, PREFETCH_MIN_FOOTPRINT};
    use crate::vantage::{VantageLlc, UNMANAGED};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vantage_cache::replacement::rrip::BasePolicy;
    use vantage_cache::{CacheArray, Frame, ZArray};
    use vantage_telemetry::TelemetryEvent;

    #[test]
    fn outcome_helpers() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Miss.is_hit());
    }

    #[test]
    fn request_constructors() {
        let r = AccessRequest::read(PartitionId::from_index(3), LineAddr(0x10));
        assert_eq!(
            r,
            AccessRequest::new(PartitionId::from_index(3), LineAddr(0x10), AccessKind::Read)
        );
        let w = AccessRequest::write(PartitionId::from_index(3), LineAddr(0x10));
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(AccessKind::default(), AccessKind::Read);
    }

    #[test]
    fn stats_accounting() {
        let mut s = LlcStats::new(2);
        s.hits[0] = 6;
        s.misses[0] = 2;
        s.misses[1] = 4;
        assert_eq!(s.accesses(PartitionId::from_index(0)), 8);
        assert_eq!(s.miss_ratio(PartitionId::from_index(0)), 0.25);
        assert_eq!(s.miss_ratio(PartitionId::from_index(1)), 1.0);
        assert_eq!(s.total_hits(), 6);
        assert_eq!(s.total_misses(), 6);
        s.reset();
        assert_eq!(s.accesses(PartitionId::from_index(0)), 0);
        assert_eq!(s.miss_ratio(PartitionId::from_index(0)), 0.0);
    }

    #[test]
    fn ways_sum_exactly_and_respect_floor() {
        let alloc = ways_from_targets(&[100, 100, 100, 100], 16);
        assert_eq!(alloc, vec![4, 4, 4, 4]);

        let alloc = ways_from_targets(&[700, 100, 100, 100], 16);
        assert_eq!(alloc.iter().sum::<u32>(), 16);
        assert!(alloc.iter().all(|&w| w >= 1));
        assert!(alloc[0] > alloc[1]);

        // A partition with a zero target still gets its floor way.
        let alloc = ways_from_targets(&[1000, 0, 0, 0], 8);
        assert_eq!(alloc.iter().sum::<u32>(), 8);
        assert_eq!(&alloc[1..], &[1, 1, 1]);
        assert_eq!(alloc[0], 5);
    }

    #[test]
    fn ways_handle_many_partitions() {
        let targets: Vec<u64> = (0..32).map(|i| 100 + i * 10).collect();
        let alloc = ways_from_targets(&targets, 64);
        assert_eq!(alloc.iter().sum::<u32>(), 64);
        assert!(alloc.iter().all(|&w| w >= 1));
    }

    #[test]
    fn zero_targets_split_evenly() {
        let alloc = ways_from_targets(&[0, 0], 8);
        assert_eq!(alloc.iter().sum::<u32>(), 8);
        assert!(alloc.iter().all(|&w| w >= 1));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn too_few_ways_panics() {
        ways_from_targets(&[1, 2, 3, 4, 5], 4);
    }

    // The Vantage LLC (`crate::vantage`), driven through this module's
    // vocabulary.

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
            llc.tag_of(a).is_some_and(|(q, ts)| {
                q == 0 && llc.mech.parts[0].is_stale(ts, llc.mech.parts[0].setpoint)
            })
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
            llc.mech.um_size = 4 * target - 1;
            llc.mech.stamp_unmanaged(&mut llc.meta, 0, 0);
        }
        assert_eq!(
            u64::from(llc.unmanaged_ts_period()),
            (llc.mech.um_size.max(16) / 16).max(1),
            "period still tracking the target, not the actual size"
        );
        // And retargeting a populated region seeds from the actual size.
        llc.mech.um_size = 32;
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
        // A zcache frame costs an odd number of bytes (11 + 2 per way it
        // does not occupy), so no geometry lands exactly on the
        // power-of-two constant. Z11 over 33 825 frames lands one byte
        // short of it.
        assert_eq!(batch_footprint(33_825, 11, 52), PREFETCH_MIN_FOOTPRINT - 1);
        assert!(!pipelined(ZArray::new(33_825, 11, 52, 1)));
        // Z4 at 17 B per frame: the largest plain cache and the smallest
        // pipelined one (the size the batch-equivalence proptests use).
        assert!(batch_footprint(61_680, 4, 52) < PREFETCH_MIN_FOOTPRINT);
        assert!(batch_footprint(61_684, 4, 52) >= PREFETCH_MIN_FOOTPRINT);
        assert!(!pipelined(ZArray::new(61_680, 4, 52, 1)));
        assert!(pipelined(ZArray::new(61_684, 4, 52, 1)));
        // The benchmark's single caches take the plain loop; its banked
        // engine's 64K-frame banks keep the pipeline.
        assert!(!pipelined(ZArray::new(32 * 1024, 4, 52, 1)));
        assert!(pipelined(ZArray::new(64 * 1024, 4, 52, 1)));
    }
}
