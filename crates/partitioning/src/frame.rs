//! [`SchemeFrame`]: everything the array-level schemes do identically,
//! written once.
//!
//! The paper separates the cache array from the partitioning scheme laid
//! over it (§3), and lays Vantage over an array exactly as it lays the
//! schemes it compares against (§5). The frame owns what all four share —
//! the array, the [`TagMeta`] lanes, the per-partition line counts,
//! [`Ownership`] (who owns a shared line is one structural rule, not a
//! per-scheme habit), statistics, telemetry, the batch pipeline and the
//! snapshot layout — and calls a [`Mechanism`] at exactly the points where
//! the schemes differ. A new array-level scheme is one `Mechanism` impl.

use vantage_cache::{
    CacheArray, Frame, LineAddr, Ownership, PartitionId, ShareMode, TagMeta, Walk, INVALID_FRAME,
    MAX_PROBE_WAYS, TAG_UNMANAGED,
};
use vantage_snapshot::{Decoder, Encoder, Snapshot};
use vantage_telemetry::{PartitionSample, Telemetry, TelemetryEvent};

use crate::error::TargetsError;
use crate::llc::{
    AccessOutcome, AccessRequest, LifecycleError, Llc, LlcStats, PartitionObservations,
    PartitionSpec, PrioritySample,
};

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
pub(crate) const PREFETCH_MIN_FOOTPRINT: usize = 1 << 20;

/// The bytes a request can touch across an array of `frames` frames and
/// `ways` ways that yields `candidates` replacement candidates: the line
/// store (8 B per frame), both tag lanes (3 B per frame) and, for a zcache
/// — the arrays whose walk reaches past the ways it probes — its position
/// memo (2 B per way per frame).
pub(crate) fn batch_footprint(frames: usize, ways: usize, candidates: usize) -> usize {
    let memo = if candidates > ways { 2 * ways } else { 0 };
    frames * (8 + memo + 3)
}

/// The frame state a [`Mechanism`] hook reads and writes besides its own.
pub struct Ctx<'a> {
    /// The tag store; its stamp lane belongs to the mechanism.
    pub meta: &'a mut TagMeta,
    /// Lines per partition (Vantage's `ActualSize` registers). A mechanism
    /// moves a count only for lines entering or leaving state the frame
    /// does not see (Vantage's unmanaged region).
    pub sizes: &'a mut [u64],
    /// The cache's telemetry handle.
    pub tele: &'a mut Telemetry,
    /// The access being served (1-based).
    pub access: u64,
}

/// Where one array-level scheme differs from the others: how it ranks
/// lines, picks victims and maps targets onto its mechanism. Every hook
/// runs inside [`SchemeFrame`]'s access skeleton, and each default is what
/// the frame does for a scheme without the feature.
pub trait Mechanism: Send + Sized {
    /// The array the scheme runs over. A concrete type keeps lookup, walk
    /// and install statically dispatched; `dyn CacheArray` accepts any.
    type Array: CacheArray + ?Sized;

    /// Whether stamps stay meaningful on never-filled frames (PIPP's chain
    /// positions); otherwise a restore zeroes them with the owner tag.
    const STAMPS_EMPTY_FRAMES: bool = false;

    /// The scheme's [`Llc::name`].
    fn name(&self) -> &'static str;

    /// Runs once per access by `part`, before the lookup.
    fn before_lookup(_frame: &mut SchemeFrame<Self>, _part: usize) {}

    /// Updates the rank of the line `part` just hit in frame `f`, which
    /// `owner` holds now (`part` unless the line stayed with another
    /// partition). An `owner` naming no partition is the mechanism's to
    /// place; schemes whose occupied frames always name one never see it.
    fn on_hit(&mut self, cx: &mut Ctx<'_>, f: Frame, part: usize, owner: usize);

    /// Notes a miss by `part` on (effective) address `addr`.
    fn note_miss(&mut self, _part: usize, _addr: LineAddr) {}

    /// Picks the index in `walk` of the candidate to replace for `part`, and
    /// whether the pick was forced out of the partitions it protects.
    fn select_victim(&mut self, cx: &mut Ctx<'_>, walk: &Walk, part: usize) -> (usize, bool);

    /// Notes that the line tagged `(tag, stamp)` is being evicted. The
    /// frame has already uncounted it if `tag` names a partition.
    fn note_eviction(&mut self, _meta: &TagMeta, _access: u64, _tag: u16, _stamp: u8) {}

    /// Moves per-frame state along with a relocated line (the tag lanes
    /// have already moved).
    fn relocate(&mut self, _from: Frame, _to: Frame) {}

    /// Whether `part`'s fill into `landing` bypasses the partitions: the
    /// mechanism tagged and counted it, and [`on_fill`](Self::on_fill) is
    /// skipped.
    fn divert_fill(&mut self, _cx: &mut Ctx<'_>, _landing: Frame, _part: usize) -> bool {
        false
    }

    /// Ranks and stamps the line `part` just filled into `landing`, which
    /// the frame tags as `part`'s right after.
    fn on_fill(&mut self, cx: &mut Ctx<'_>, landing: Frame, part: usize, addr: LineAddr);

    /// Starts priority sampling; see [`Llc::enable_priority_probe`].
    fn enable_priority_probe(&mut self) {}

    /// Drains priority samples; see [`Llc::drain_priority_samples`].
    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        Vec::new()
    }

    /// Maps line-granularity targets (already checked: one per partition,
    /// summing to at most the capacity) onto the mechanism.
    fn set_targets(&mut self, _cx: &mut Ctx<'_>, _targets: &[u64]) {}

    /// Completes a periodic telemetry sample the frame filled with sizes and
    /// sharing counters: once per partition, then once for
    /// [`PartitionId::UNMANAGED`]. `false` skips the sample.
    fn sample(&mut self, s: &mut PartitionSample) -> bool {
        !s.part.is_unmanaged()
    }

    /// Completes an [`Llc::observations`] snapshot the frame filled with
    /// sizes, statistics and sharing counters.
    fn observe(&mut self, _sizes: &[u64], _obs: &mut PartitionObservations) {}

    /// [`Llc::create_partition`]; the default refuses: the population is
    /// fixed ([`LifecycleError::Unsupported`]).
    fn create_partition(
        _frame: &mut SchemeFrame<Self>,
        _spec: PartitionSpec,
    ) -> Result<PartitionId, LifecycleError> {
        Err(LifecycleError::Unsupported)
    }

    /// [`Llc::destroy_partition`]; the default refuses.
    fn destroy_partition(
        _frame: &mut SchemeFrame<Self>,
        _part: PartitionId,
    ) -> Result<(), LifecycleError> {
        Err(LifecycleError::Unsupported)
    }

    /// Serializes the mechanism's part of the shared layout, including the
    /// stamp lane of `meta` if it cannot be rederived. The default is a
    /// mechanism without state.
    fn save(&self, _meta: &TagMeta, _enc: &mut Encoder) {}

    /// Restores what [`save`](Self::save) wrote and returns the stamp lane
    /// to install (the frame checks its length). The default is a
    /// mechanism without state, whose stamps are all zero.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`](vantage_snapshot::SnapshotError) on torn,
    /// hostile, or mismatched input.
    fn load(
        &mut self,
        meta: &TagMeta,
        _dec: &mut Decoder<'_>,
    ) -> vantage_snapshot::Result<Vec<u8>> {
        Ok(vec![0; meta.len()])
    }

    /// Serializes the whole cache. The default is the shared layout:
    /// mechanism state, then the owner lane, line counts, stats, access
    /// counter and telemetry schedule, then the array, with the ownership
    /// tail (share mode + sharing counters) last.
    fn save_state(frame: &SchemeFrame<Self>, enc: &mut Encoder) {
        frame.mech.save(&frame.meta, enc);
        enc.put_u16_slice(frame.meta.parts());
        enc.put_u64_slice(&frame.sizes);
        frame.stats.save_state(enc);
        enc.put_u64(frame.accesses);
        frame.tele.save_state(enc);
        frame.array.save_state(enc);
        frame.own.save_state(enc);
    }

    /// Restores what [`save_state`](Self::save_state) wrote into a cache
    /// freshly built from the same configuration.
    fn load_state(
        frame: &mut SchemeFrame<Self>,
        dec: &mut Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let frames = frame.meta.len();
        let partitions = frame.sizes.len();
        let stamps = frame.mech.load(&frame.meta, dec)?;
        let owner = dec.take_u16_vec()?;
        let sizes = dec.take_u64_vec()?;
        if stamps.len() != frames || owner.len() != frames || sizes.len() != partitions {
            return Err(dec.mismatch("frame metadata lengths differ"));
        }
        // Never-filled frames carry the [`TAG_UNMANAGED`] sentinel; every
        // other owner must name a partition.
        if owner
            .iter()
            .any(|&o| o != TAG_UNMANAGED && o as usize >= partitions)
        {
            return Err(dec.invalid("frame owner beyond partition count"));
        }
        frame.stats.load_state(dec)?;
        let accesses = dec.take_u64()?;
        frame.tele.load_state(dec)?;
        frame.array.load_state(dec)?;
        frame.meta.load_lanes(owner, stamps);
        // Input validation: an unoccupied frame carries the sentinel
        // whatever the payload claims (a forged owner would corrupt the
        // `TagMeta` count index), and an occupied frame must carry a real
        // partition ID.
        for f in 0..frames {
            if frame.array.occupant(f as u32).is_some() {
                if frame.meta.part(f) == TAG_UNMANAGED {
                    return Err(dec.invalid("occupied frame without an owner"));
                }
            } else if Self::STAMPS_EMPTY_FRAMES {
                frame.meta.set_part(f, TAG_UNMANAGED);
            } else {
                frame.meta.set(f, TAG_UNMANAGED, 0);
            }
        }
        frame.sizes = sizes;
        frame.accesses = accesses;
        frame.own.load_state(dec)
    }
}

/// A last-level cache whose partitioning scheme is the [`Mechanism`] `M`:
/// the one [`Llc`] and [`Snapshot`] implementation behind
/// [`VantageLlc`](crate::VantageLlc), [`BaselineLlc`](crate::BaselineLlc),
/// [`WayPartLlc`](crate::WayPartLlc) and [`PippLlc`](crate::PippLlc).
pub struct SchemeFrame<M: Mechanism> {
    pub(crate) array: Box<M::Array>,
    pub(crate) mech: M,
    /// Per-frame tag lanes: the partition lane holds each line's owner
    /// ([`TAG_UNMANAGED`] for never-filled frames); the stamp lane is the
    /// mechanism's.
    pub(crate) meta: TagMeta,
    /// Lines per partition (see [`Ctx::sizes`]).
    pub(crate) sizes: Vec<u64>,
    /// Cross-partition sharing resolution and its per-partition counters.
    pub(crate) own: Ownership,
    pub(crate) stats: LlcStats,
    walk: Walk,
    moves: Vec<(Frame, Frame)>,
    pub(crate) tele: Telemetry,
    pub(crate) accesses: u64,
    /// Whether [`Llc::access_batch`] runs the prefetch pipeline, decided at
    /// construction from the array's footprint (see
    /// [`PREFETCH_MIN_FOOTPRINT`]).
    pub(crate) prefetch_batches: bool,
    /// The pipeline's walk-expansion scratch, sized at construction so a
    /// batch never allocates (empty when `prefetch_batches` is false).
    expand: Vec<Frame>,
}

impl<M: Mechanism> SchemeFrame<M> {
    /// Lays `mech` over `array` for `partitions` requestors; the scheme
    /// constructors validate geometry first.
    pub(crate) fn new(array: Box<M::Array>, partitions: usize, mech: M) -> Self {
        let (frames, ways) = (array.num_frames(), array.ways());
        let footprint = batch_footprint(frames, ways, array.candidates_per_walk());
        let prefetch_batches = footprint >= PREFETCH_MIN_FOOTPRINT;
        Self {
            meta: TagMeta::with_partitions(frames, partitions),
            walk: Walk::with_capacity(array.candidates_per_walk()),
            array,
            mech,
            sizes: vec![0; partitions],
            own: Ownership::new(ShareMode::Adopt, partitions),
            stats: LlcStats::new(partitions),
            moves: Vec::with_capacity(8),
            tele: Telemetry::disabled(),
            accesses: 0,
            prefetch_batches,
            // One expansion adds at most `ways - 1` children per probe frame.
            expand: Vec::with_capacity(if prefetch_batches { ways * ways } else { 0 }),
        }
    }

    /// Read-only access to the underlying array.
    pub fn array(&self) -> &M::Array {
        &self.array
    }

    /// Resizes the frame's per-partition tables — size lane, statistics,
    /// tag count rows, ownership counters, telemetry binding — to
    /// `partitions` slots, keeping existing slots (lifecycle growth and
    /// restore).
    pub(crate) fn resize_partitions(&mut self, partitions: usize) {
        self.sizes.resize(partitions, 0);
        self.stats.resize(partitions);
        self.meta.resize_partitions(partitions);
        if partitions < self.own.partitions() {
            self.own = Ownership::new(self.own.mode(), partitions);
        }
        self.own.ensure_partitions(partitions);
        self.tele.bind(partitions);
    }

    /// The mechanism and the frame state its hooks see.
    #[inline]
    fn split(&mut self) -> (&mut M, Ctx<'_>) {
        let cx = Ctx {
            meta: &mut self.meta,
            sizes: &mut self.sizes,
            tele: &mut self.tele,
            access: self.accesses,
        };
        (&mut self.mech, cx)
    }

    /// Emits one sample per partition and, where the mechanism keeps one,
    /// for its unmanaged region. Cold: reached once per sampling period.
    #[cold]
    fn emit_samples(&mut self) {
        let n = self.sizes.len();
        for p in 0..=n {
            let mut s = PartitionSample {
                access: self.accesses,
                part: PartitionId::UNMANAGED,
                actual: 0,
                target: 0,
                aperture: 0.0,
                window: 0,
                churn: 0,
                shared: 0,
                transfers: 0,
            };
            if p < n {
                s.part = PartitionId::from_index(p);
                s.actual = self.sizes[p];
                s.shared = self.own.shared_hits()[p];
                s.transfers = self.own.transfers()[p];
            }
            if self.mech.sample(&mut s) {
                self.tele.sample(s);
            }
        }
    }

    /// [`Llc::access`] taking an optional probe hint: when `probe` holds
    /// the frames a prior [`CacheArray::prefetch`] of this address
    /// returned, the lookup reuses them via
    /// [`CacheArray::lookup_prefetched`] instead of rehashing. Observable
    /// behavior is identical either way; the batched path passes its
    /// pipeline's stage-1 frames here.
    #[inline]
    fn access_probed(&mut self, req: AccessRequest, probe: &[Frame]) -> AccessOutcome {
        let part = req.part.index();
        // Under Replicate the lookup address carries a per-partition salt,
        // so each partition fills (and hits) a private copy of shared
        // lines. Identity in every other mode.
        let addr = self.own.effective_addr(part as u16, req.addr);
        self.accesses += 1;
        M::before_lookup(self, part);
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

    /// Resolves who owns the line `part` hit in `frame`, then lets the
    /// mechanism rank it.
    #[inline]
    fn hit(&mut self, part: usize, frame: Frame) {
        let mut owner = usize::from(self.meta.part(frame as usize));
        if owner != part && owner < self.sizes.len() && self.shared_hit(frame as usize, part, owner)
        {
            owner = part;
        }
        let (mech, mut cx) = self.split();
        mech.on_hit(&mut cx, frame, part, owner);
    }

    /// Resolves a hit by `part` on `owner`'s line: the ownership layer
    /// decides whether the line migrates to its latest user (Adopt) or
    /// stays with its owner (Pin); `true` when `part` adopts it. Under
    /// Replicate the per-partition address salt keeps lookups disjoint, so
    /// this is never reached in that mode.
    fn shared_hit(&mut self, frame: usize, part: usize, owner: usize) -> bool {
        self.tele.event(TelemetryEvent::SharedHit {
            access: self.accesses,
            part: PartitionId::from_index(part),
            owner: PartitionId::from_index(owner),
        });
        let adopted = self.own.on_shared_hit(part as u16);
        if adopted {
            self.tele.event(TelemetryEvent::OwnershipTransfer {
                access: self.accesses,
                part: PartitionId::from_index(part),
                from: PartitionId::from_index(owner),
            });
            self.meta.set_part(frame, part as u16);
            // Saturating: fault injection may corrupt a size register.
            self.sizes[owner] = self.sizes[owner].saturating_sub(1);
            self.sizes[part] += 1;
        }
        adopted
    }

    // Out of line: with Vantage's candidate scan inlined the miss path is
    // large, and inlining it into the access path costs hits a few
    // percent.
    #[inline(never)]
    fn miss(&mut self, part: usize, addr: LineAddr) {
        self.mech.note_miss(part, addr);
        self.array.walk(addr, &mut self.walk);
        let mut cx = Ctx {
            meta: &mut self.meta,
            sizes: &mut self.sizes,
            tele: &mut self.tele,
            access: self.accesses,
        };
        let (victim, forced) = self.mech.select_victim(&mut cx, &self.walk, part);
        let vnode = self.walk.nodes[victim];
        if vnode.is_occupied() {
            self.stats.evictions += 1;
            let vf = vnode.frame as usize;
            let tag = self.meta.part(vf);
            self.tele.event(TelemetryEvent::Eviction {
                access: self.accesses,
                part: PartitionId::from_raw(tag),
                forced,
            });
            if let Some(size) = self.sizes.get_mut(usize::from(tag)) {
                *size = size.saturating_sub(1);
            }
            self.mech
                .note_eviction(&self.meta, self.accesses, tag, self.meta.ts(vf));
        }
        self.moves.clear();
        let landing = self
            .array
            .install(addr, &self.walk, victim, &mut self.moves);
        // Per-frame state follows the relocated lines, tag lanes first.
        for &(from, to) in &self.moves {
            self.meta.copy(from, to);
            self.mech.relocate(from, to);
        }
        let (mech, mut cx) = self.split();
        if mech.divert_fill(&mut cx, landing, part) {
            return;
        }
        self.sizes[part] += 1;
        if self.own.mode() == ShareMode::Replicate {
            // Every install under Replicate carries the partition's
            // address salt, so it is a private copy by construction.
            self.own.on_replica_fill(part as u16);
            self.tele.event(TelemetryEvent::Replica {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
        }
        let (mech, mut cx) = self.split();
        mech.on_fill(&mut cx, landing, part, addr);
        // After the stamp: a whole-tag stamp (Vantage's) then moves the
        // line's count once, and its re-pin (`TagMeta::clamp_stale`) never
        // meets the landing frame's stale stamp under the new owner.
        self.meta.set_part(landing as usize, part as u16);
    }
}

impl<M: Mechanism> Llc for SchemeFrame<M> {
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
            l0: [INVALID_FRAME; MAX_PROBE_WAYS],
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
        self.sizes.len()
    }

    fn capacity(&self) -> usize {
        self.meta.len()
    }

    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError> {
        TargetsError::check(targets, self.sizes.len(), self.meta.len() as u64)?;
        let (mech, mut cx) = self.split();
        mech.set_targets(&mut cx, targets);
        Ok(())
    }

    fn partition_size(&self, part: PartitionId) -> u64 {
        self.sizes[part.index()]
    }

    fn create_partition(&mut self, spec: PartitionSpec) -> Result<PartitionId, LifecycleError> {
        M::create_partition(self, spec)
    }

    fn destroy_partition(&mut self, part: PartitionId) -> Result<(), LifecycleError> {
        M::destroy_partition(self, part)
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

    fn observations(&mut self) -> PartitionObservations {
        let mut obs = PartitionObservations::new(self.sizes.len());
        obs.actual.copy_from_slice(&self.sizes);
        obs.hits.copy_from_slice(&self.stats.hits);
        obs.misses.copy_from_slice(&self.stats.misses);
        obs.shared_hits.copy_from_slice(self.own.shared_hits());
        obs.ownership_transfers
            .copy_from_slice(self.own.transfers());
        self.own.reset_counters();
        self.mech.observe(&self.sizes, &mut obs);
        obs
    }

    fn set_telemetry(&mut self, mut telemetry: Telemetry) -> bool {
        telemetry.bind(self.sizes.len());
        self.tele = telemetry;
        true
    }

    fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.tele.enabled().then(|| std::mem::take(&mut self.tele))
    }

    fn enable_priority_probe(&mut self) {
        self.mech.enable_priority_probe();
    }

    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        self.mech.drain_priority_samples()
    }

    fn name(&self) -> &str {
        self.mech.name()
    }
}

/// Delegates to the mechanism's codec, which for all but Vantage is the
/// shared layout of [`Mechanism::save_state`].
impl<M: Mechanism> Snapshot for SchemeFrame<M> {
    fn save_state(&self, enc: &mut Encoder) {
        M::save_state(self, enc);
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<()> {
        M::load_state(self, dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineLlc, PippConfig, PippLlc, RankPolicy, WayPartLlc};
    use vantage_cache::SetAssocArray;
    use vantage_snapshot::SnapshotError;

    const PARTS: usize = 2;

    /// Saves a warmed cache, forges one owner tag in the payload and
    /// restores it into a fresh build: an occupied frame must name a real
    /// partition, an empty one reads the sentinel whatever the payload says.
    fn hostile_owner_lane<M: Mechanism>(name: &str, build: fn() -> SchemeFrame<M>) {
        let mut llc = build();
        for i in 0..300u64 {
            let part = PartitionId::from_index(i as usize % PARTS);
            llc.access(AccessRequest::read(part, LineAddr((i * 7) % 400)));
        }
        // The owner lane follows the mechanism's state and its own 8-byte
        // length prefix, two little-endian bytes per frame.
        let mut enc = Encoder::new();
        llc.mech.save(&llc.meta, &mut enc);
        let lane = enc.into_bytes().len() + 8;
        let mut enc = Encoder::new();
        llc.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let restore = |frame: usize, tag: u16| {
            let mut forged = bytes.clone();
            forged[lane + 2 * frame..][..2].copy_from_slice(&tag.to_le_bytes());
            let mut fresh = build();
            let loaded = fresh.load_state(&mut Decoder::new(&forged, name));
            loaded.map(|()| fresh)
        };
        let frame_where = |occupied: bool| {
            (0..llc.meta.len())
                .find(|&f| llc.array.occupant(f as u32).is_some() == occupied)
                .expect("the warm-up leaves full and empty frames")
        };
        for tag in [PARTS as u16, TAG_UNMANAGED] {
            assert!(
                matches!(
                    restore(frame_where(true), tag),
                    Err(SnapshotError::Malformed { .. })
                ),
                "{name}: occupied frame tagged {tag} accepted"
            );
        }
        let empty = frame_where(false);
        let restored = restore(empty, 0).expect("a forged tag on an empty frame is overridden");
        assert_eq!(restored.meta.part(empty), TAG_UNMANAGED, "{name}");
        let sizes: u64 = restored.sizes.iter().sum();
        assert_eq!(sizes, restored.array.occupancy() as u64, "{name}");
    }

    #[test]
    fn hostile_owner_lanes_meet_the_single_restore_path() {
        hostile_owner_lane("baseline", || {
            let array = Box::new(SetAssocArray::hashed(256, 4, 3));
            BaselineLlc::try_new(array, PARTS, RankPolicy::Lru).expect("valid geometry")
        });
        hostile_owner_lane("way-part", || {
            WayPartLlc::try_new(256, 4, PARTS, 3).expect("valid geometry")
        });
        hostile_owner_lane("pipp", || {
            PippLlc::try_new(256, 4, PARTS, PippConfig::default(), 3).expect("valid geometry")
        });
    }
}
