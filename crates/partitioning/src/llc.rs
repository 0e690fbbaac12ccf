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

    /// Number of live partitions in the snapshot.
    pub fn num_live(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
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
    /// Semantically identical to calling [`access`](Llc::access) in a loop
    /// (which is the default implementation); schemes override it to amortize
    /// per-access costs across the batch — software-prefetching upcoming
    /// probes or grouping by bank. `out` is
    /// appended to, not cleared, so callers can accumulate across batches.
    fn access_batch(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        out.reserve(reqs.len());
        for &req in reqs {
            out.push(self.access(req));
        }
    }

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
    /// and emit a partition-created telemetry event. The default is a
    /// fixed-population scheme: [`LifecycleError::Unsupported`].
    ///
    /// # Errors
    ///
    /// [`LifecycleError::Unsupported`] on fixed-population schemes and
    /// [`LifecycleError::Exhausted`] when the `u16` tag lane has no free
    /// slot left.
    fn create_partition(&mut self, spec: PartitionSpec) -> Result<PartitionId, LifecycleError> {
        let _ = spec;
        Err(LifecycleError::Unsupported)
    }

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
    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), LifecycleError> {
        let _ = part;
        Err(LifecycleError::Unsupported)
    }

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
    /// [`PartitionObservations`]).
    ///
    /// The default implementation reports current sizes and cumulative
    /// hit/miss counters, with zeroed targets/churn/insertions; schemes
    /// that meter dynamics (e.g. Vantage's demotion machinery) override it.
    /// Takes `&mut self` so overriding schemes may drain epoch-relative
    /// counters.
    fn observations(&mut self) -> PartitionObservations {
        let n = self.num_partitions();
        let mut obs = PartitionObservations::new(n);
        for p in 0..n {
            obs.actual[p] = self.partition_size(PartitionId::from_index(p));
        }
        let stats = self.stats();
        obs.hits.copy_from_slice(&stats.hits);
        obs.misses.copy_from_slice(&stats.misses);
        obs
    }

    /// Installs the cross-partition sharing mode (see [`ShareMode`]). Must
    /// be called on a cold cache — before any access — because lines
    /// already placed under the old mode keep their placement. Returns
    /// `false` (leaving the scheme in its default [`ShareMode::Adopt`]
    /// behavior) if the scheme does not implement the ownership layer.
    fn set_share_mode(&mut self, _mode: ShareMode) -> bool {
        false
    }

    /// The active cross-partition sharing mode.
    fn share_mode(&self) -> ShareMode {
        ShareMode::Adopt
    }

    /// Installs a telemetry handle; the cache emits dynamics events and
    /// periodic per-partition samples into it from now on. Returns `false`
    /// (dropping the handle) if the scheme does not support telemetry.
    fn set_telemetry(&mut self, _telemetry: Telemetry) -> bool {
        false
    }

    /// Removes and returns the installed telemetry handle (flushing is the
    /// caller's or the handle's `Drop`'s job), or `None` if absent.
    fn take_telemetry(&mut self) -> Option<Telemetry> {
        None
    }

    /// Starts Fig. 8-style eviction/demotion priority sampling where the
    /// scheme supports it; other schemes ignore the request.
    fn enable_priority_probe(&mut self) {}

    /// Drains the priority samples taken since the last drain (empty when
    /// the probe is off or unsupported).
    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        Vec::new()
    }

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
}
