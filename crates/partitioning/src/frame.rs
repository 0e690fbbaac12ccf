//! [`SchemeFrame`]: everything the array-level schemes do identically,
//! written once.
//!
//! The paper separates the cache array from the partitioning scheme laid
//! over it (§3), and the schemes it compares against (§5) differ only in
//! how they rank lines and pick a victim. The frame owns what they share —
//! the array, the [`TagMeta`] lanes, per-partition line counts,
//! [`Ownership`] (who owns a shared line is one structural rule, not a
//! per-scheme habit), statistics, telemetry and the snapshot layout — and
//! calls a [`Mechanism`] at exactly the points where they differ. A new
//! array-level scheme is one `Mechanism` impl.

use vantage_cache::{
    CacheArray, Frame, LineAddr, Ownership, PartitionId, ShareMode, TagMeta, Walk, TAG_UNMANAGED,
};
use vantage_snapshot::{Decoder, Encoder, Snapshot};
use vantage_telemetry::{PartitionSample, Telemetry, TelemetryEvent};

use crate::error::TargetsError;
use crate::llc::{
    AccessOutcome, AccessRequest, Llc, LlcStats, PartitionObservations, PrioritySample,
};

/// Where one array-level scheme differs from the others: how it ranks
/// lines, picks victims and maps targets onto its mechanism. Every hook
/// runs inside [`SchemeFrame`]'s access skeleton; `meta` is the frame's
/// tag store, whose stamp lane belongs to the mechanism.
pub trait Mechanism: Send {
    /// The array the scheme runs over. A concrete type keeps lookup, walk
    /// and install statically dispatched; `dyn CacheArray` accepts any.
    type Array: CacheArray + ?Sized;

    /// Whether stamps stay meaningful on never-filled frames (PIPP's chain
    /// positions); otherwise a restore zeroes them with the owner tag.
    const STAMPS_EMPTY_FRAMES: bool = false;

    /// The scheme's [`Llc::name`].
    fn name(&self) -> &'static str;

    /// Runs once per access before the lookup, with the accessor's size.
    fn tick(&mut self, _part: usize, _part_lines: u64) {}

    /// Updates the rank of the line `part` just hit in frame `f`. `owner`
    /// held it before the hit; `adopted` says `part` now does.
    fn on_hit(&mut self, meta: &mut TagMeta, f: Frame, part: usize, owner: usize, adopted: bool);

    /// Notes a miss by `part` on (effective) address `addr`.
    fn note_miss(&mut self, _part: usize, _addr: LineAddr) {}

    /// Picks the index in `walk` of the candidate to replace for `part`.
    fn select_victim(&mut self, meta: &mut TagMeta, walk: &Walk, part: usize) -> usize;

    /// Notes that `owner`'s line stamped `stamp` is being evicted.
    fn note_eviction(&mut self, _access: u64, _owner: usize, _stamp: u8) {}

    /// Moves per-frame state along with a relocated line (the tag lanes
    /// have already moved).
    fn relocate(&mut self, _from: Frame, _to: Frame) {}

    /// Ranks and stamps the line `part` just filled into `landing`.
    fn on_fill(&mut self, meta: &mut TagMeta, landing: Frame, part: usize, addr: LineAddr);

    /// Starts priority sampling; see [`Llc::enable_priority_probe`].
    fn enable_priority_probe(&mut self) {}

    /// Drains priority samples; see [`Llc::drain_priority_samples`].
    fn drain_priority_samples(&mut self) -> Vec<PrioritySample> {
        Vec::new()
    }

    /// Maps line-granularity targets (already checked: one per partition,
    /// summing to at most the capacity) onto the mechanism.
    fn set_targets(&mut self, _targets: &[u64]) {}

    /// The target, in lines, a telemetry sample reports for `part`.
    fn target(&self, _part: usize) -> u64 {
        0
    }

    /// Serializes the mechanism's state, including the stamp lane of
    /// `meta` if it cannot be rederived.
    fn save(&self, meta: &TagMeta, enc: &mut Encoder);

    /// Restores what [`save`](Self::save) wrote and returns the stamp lane
    /// to install (the frame checks its length).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`](vantage_snapshot::SnapshotError) on torn,
    /// hostile, or mismatched input.
    fn load(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<Vec<u8>>;

    /// Rebuilds derived state from the restored, validated tag lanes.
    fn restored(&mut self, _meta: &TagMeta) {}
}

/// A last-level cache whose partitioning scheme is the [`Mechanism`] `M`:
/// the one [`Llc`] and [`Snapshot`] implementation behind
/// [`BaselineLlc`](crate::BaselineLlc), [`WayPartLlc`](crate::WayPartLlc)
/// and [`PippLlc`](crate::PippLlc).
pub struct SchemeFrame<M: Mechanism> {
    array: Box<M::Array>,
    pub(crate) mech: M,
    /// Per-frame tag lanes shared with the Vantage core: the partition
    /// lane holds each line's owner ([`TAG_UNMANAGED`] for never-filled
    /// frames); the stamp lane is the mechanism's.
    pub(crate) meta: TagMeta,
    part_lines: Vec<u64>,
    /// Cross-partition sharing resolution and its per-partition counters.
    own: Ownership,
    stats: LlcStats,
    walk: Walk,
    moves: Vec<(Frame, Frame)>,
    tele: Telemetry,
    accesses: u64,
}

impl<M: Mechanism> SchemeFrame<M> {
    /// Lays `mech` over `array` for `partitions` requestors; the scheme
    /// constructors validate geometry first.
    pub(crate) fn new(array: Box<M::Array>, partitions: usize, mech: M) -> Self {
        Self {
            meta: TagMeta::with_partitions(array.num_frames(), partitions),
            walk: Walk::with_capacity(array.candidates_per_walk()),
            array,
            mech,
            part_lines: vec![0; partitions],
            own: Ownership::new(ShareMode::Adopt, partitions),
            stats: LlcStats::new(partitions),
            moves: Vec::with_capacity(8),
            tele: Telemetry::disabled(),
            accesses: 0,
        }
    }

    /// Read-only access to the underlying array.
    pub fn array(&self) -> &M::Array {
        &self.array
    }

    /// Emits one sample per partition. These schemes have no apertures or
    /// setpoints; those fields report 0.
    #[cold]
    fn emit_samples(&mut self) {
        for part in 0..self.part_lines.len() {
            self.tele.sample(PartitionSample {
                access: self.accesses,
                part: PartitionId::from_index(part),
                actual: self.part_lines[part],
                target: self.mech.target(part),
                aperture: 0.0,
                window: 0,
                churn: 0,
                shared: self.own.shared_hits()[part],
                transfers: self.own.transfers()[part],
            });
        }
    }

    /// Resolves a hit by `part` on `owner`'s line; `true` when `part`
    /// adopts it.
    fn shared_hit(&mut self, frame: usize, part: usize, owner: usize) -> bool {
        self.tele.event(TelemetryEvent::SharedHit {
            access: self.accesses,
            part: PartitionId::from_index(part),
            owner: PartitionId::from_index(owner),
        });
        let adopted = self.own.on_shared_hit(part as u16);
        if adopted {
            self.meta.set_part(frame, part as u16);
            self.part_lines[owner] -= 1;
            self.part_lines[part] += 1;
            self.tele.event(TelemetryEvent::OwnershipTransfer {
                access: self.accesses,
                part: PartitionId::from_index(part),
                from: PartitionId::from_index(owner),
            });
        }
        adopted
    }
}

impl<M: Mechanism> Llc for SchemeFrame<M> {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let part = req.part.index();
        self.accesses += 1;
        if self.tele.sample_due(self.accesses) {
            self.emit_samples();
        }
        let addr = self.own.effective_addr(part as u16, req.addr);
        self.mech.tick(part, self.part_lines[part]);
        if let Some(frame) = self.array.lookup(addr) {
            let owner = self.meta.part(frame as usize) as usize;
            let adopted = owner != part && self.shared_hit(frame as usize, part, owner);
            self.mech
                .on_hit(&mut self.meta, frame, part, owner, adopted);
            self.stats.hits[part] += 1;
            return AccessOutcome::Hit;
        }
        self.stats.misses[part] += 1;
        self.mech.note_miss(part, addr);
        self.array.walk(addr, &mut self.walk);
        let victim = self.mech.select_victim(&mut self.meta, &self.walk, part);
        let vnode = self.walk.nodes[victim];
        if vnode.is_occupied() {
            self.stats.evictions += 1;
            let vf = vnode.frame as usize;
            let vowner = self.meta.part(vf);
            self.part_lines[vowner as usize] -= 1;
            self.tele.event(TelemetryEvent::Eviction {
                access: self.accesses,
                part: PartitionId::from_raw(vowner),
                forced: false,
            });
            self.mech
                .note_eviction(self.accesses, vowner as usize, self.meta.ts(vf));
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
        self.meta.set_part(landing as usize, part as u16);
        self.part_lines[part] += 1;
        if self.own.mode() == ShareMode::Replicate {
            self.own.on_replica_fill(part as u16);
            self.tele.event(TelemetryEvent::Replica {
                access: self.accesses,
                part: PartitionId::from_index(part),
            });
        }
        self.mech.on_fill(&mut self.meta, landing, part, addr);
        AccessOutcome::Miss
    }

    fn num_partitions(&self) -> usize {
        self.part_lines.len()
    }

    fn capacity(&self) -> usize {
        self.meta.len()
    }

    fn set_targets(&mut self, targets: &[u64]) -> Result<(), TargetsError> {
        TargetsError::check(targets, self.part_lines.len(), self.meta.len() as u64)?;
        self.mech.set_targets(targets);
        Ok(())
    }

    fn partition_size(&self, part: PartitionId) -> u64 {
        self.part_lines[part.index()]
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
        let mut obs = PartitionObservations::new(self.part_lines.len());
        obs.actual.copy_from_slice(&self.part_lines);
        obs.hits.copy_from_slice(&self.stats.hits);
        obs.misses.copy_from_slice(&self.stats.misses);
        obs.shared_hits.copy_from_slice(self.own.shared_hits());
        obs.ownership_transfers
            .copy_from_slice(self.own.transfers());
        self.own.reset_counters();
        obs
    }

    fn set_telemetry(&mut self, mut telemetry: Telemetry) -> bool {
        telemetry.bind(self.part_lines.len());
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

/// Payload layout: mechanism state, then the owner lane, line counts,
/// stats, access counter and telemetry schedule, then the array, with the
/// ownership tail (share mode + sharing counters) last.
impl<M: Mechanism> Snapshot for SchemeFrame<M> {
    fn save_state(&self, enc: &mut Encoder) {
        self.mech.save(&self.meta, enc);
        enc.put_u16_slice(self.meta.parts());
        enc.put_u64_slice(&self.part_lines);
        self.stats.save_state(enc);
        enc.put_u64(self.accesses);
        self.tele.save_state(enc);
        self.array.save_state(enc);
        self.own.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<()> {
        let frames = self.meta.len();
        let partitions = self.part_lines.len();
        let stamps = self.mech.load(dec)?;
        let owner = dec.take_u16_vec()?;
        let part_lines = dec.take_u64_vec()?;
        if stamps.len() != frames || owner.len() != frames || part_lines.len() != partitions {
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
        self.stats.load_state(dec)?;
        let accesses = dec.take_u64()?;
        self.tele.load_state(dec)?;
        self.array.load_state(dec)?;
        self.meta.load_lanes(owner, stamps);
        // Input validation: an unoccupied frame carries the sentinel
        // whatever the payload claims (a forged owner would corrupt the
        // `TagMeta` count index), and an occupied frame must carry a real
        // partition ID.
        for f in 0..frames {
            if self.array.occupant(f as u32).is_some() {
                if self.meta.part(f) == TAG_UNMANAGED {
                    return Err(dec.invalid("occupied frame without an owner"));
                }
            } else if M::STAMPS_EMPTY_FRAMES {
                self.meta.set_part(f, TAG_UNMANAGED);
            } else {
                self.meta.set(f, TAG_UNMANAGED, 0);
            }
        }
        self.part_lines = part_lines;
        self.accesses = accesses;
        self.mech.restored(&self.meta);
        self.own.load_state(dec)
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
        let sizes: u64 = restored.part_lines.iter().sum();
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
