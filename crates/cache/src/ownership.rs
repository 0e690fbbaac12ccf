//! Line-ownership layer: how cross-partition sharing is resolved.
//!
//! Vantage's tag model gives every line exactly one owning partition (the
//! `parts` lane of [`TagMeta`](crate::TagMeta)). That is the right invariant
//! for the replacement machinery, but it leaves a policy question open: when
//! partition A hits a line that partition B inserted, whose line is it now?
//! Historically the answer was hard-coded per scheme (Vantage re-tagged the
//! line to the accessor; the baselines left it alone). [`Ownership`] lifts
//! that decision out of the schemes into one shared layer with an explicit
//! [`ShareMode`] knob:
//!
//! * [`ShareMode::Adopt`] — the accessor adopts the line: it is re-tagged to
//!   the accessing partition and the owner's actual size shrinks by one.
//!   This is the default and is bit-identical to the pre-refactor behavior.
//! * [`ShareMode::Replicate`] — shared lines are duplicated per partition.
//!   Implemented by salting the looked-up address with the accessing
//!   partition ([`Ownership::effective_addr`]), so two partitions reading
//!   the same line each keep a private copy: capacity is traded for
//!   isolation, and cross-partition hits can never occur.
//! * [`ShareMode::Pin`] — lines keep their first owner. A cross-partition
//!   hit still counts as a hit for the accessor, but ownership (and hence
//!   the owner's measured size, demotion pressure, and eviction exposure)
//!   never transfers.
//!
//! The layer also owns the per-partition sharing counters (shared hits,
//! ownership transfers, replica fills) that feed `PolicyInput` and
//! telemetry, so allocation policies can see sharing pressure.

use crate::array::LineAddr;

/// Bit position of the per-partition address salt used by
/// [`ShareMode::Replicate`]. Application address spaces live well below
/// this (mix generators place apps at `region << 32` offsets under a
/// `1 << 40` base), so the salt never collides with a real address bit.
const REPLICA_SALT_SHIFT: u32 = 48;

/// How cross-partition sharing is resolved. See the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ShareMode {
    /// Re-tag shared lines to the accessing partition (historical default).
    #[default]
    Adopt,
    /// Duplicate shared lines per partition via address salting.
    Replicate,
    /// Lines keep their first owner; hits never transfer ownership.
    Pin,
}

impl ShareMode {
    /// All modes, in CLI/report order.
    pub const ALL: [ShareMode; 3] = [ShareMode::Adopt, ShareMode::Replicate, ShareMode::Pin];

    /// Stable lowercase label (CLI values, bench records, CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            ShareMode::Adopt => "adopt",
            ShareMode::Replicate => "replicate",
            ShareMode::Pin => "pin",
        }
    }

    /// Parses a CLI label. Accepts the exact [`Self::label`] strings.
    pub fn parse(s: &str) -> Option<ShareMode> {
        match s {
            "adopt" => Some(ShareMode::Adopt),
            "replicate" => Some(ShareMode::Replicate),
            "pin" => Some(ShareMode::Pin),
            _ => None,
        }
    }

    /// Snapshot encoding (stable across versions).
    pub fn as_u8(self) -> u8 {
        match self {
            ShareMode::Adopt => 0,
            ShareMode::Replicate => 1,
            ShareMode::Pin => 2,
        }
    }

    /// Inverse of [`Self::as_u8`].
    pub fn from_u8(v: u8) -> Option<ShareMode> {
        match v {
            0 => Some(ShareMode::Adopt),
            1 => Some(ShareMode::Replicate),
            2 => Some(ShareMode::Pin),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShareMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-cache ownership state: the active [`ShareMode`] plus the
/// per-partition sharing counters it produces.
///
/// Counters accumulate like `LlcStats` lanes and are drained by the same
/// observation cycle (the owning cache snapshots-and-resets them when its
/// stats are taken).
#[derive(Clone, Debug)]
pub struct Ownership {
    mode: ShareMode,
    /// Cross-partition hits observed per *accessing* partition.
    shared_hits: Vec<u64>,
    /// Ownership transfers per *accessing* (adopting) partition.
    transfers: Vec<u64>,
    /// Replica fills per partition (Replicate mode only).
    replicas: Vec<u64>,
}

impl Ownership {
    /// Creates the layer for `partitions` partitions in `mode`.
    pub fn new(mode: ShareMode, partitions: usize) -> Self {
        Self {
            mode,
            shared_hits: vec![0; partitions],
            transfers: vec![0; partitions],
            replicas: vec![0; partitions],
        }
    }

    /// The active mode.
    #[inline]
    pub fn mode(&self) -> ShareMode {
        self.mode
    }

    /// Switches the mode. Callers must only do this on a cold cache (or
    /// accept that lines installed under the old mode keep their placement).
    pub fn set_mode(&mut self, mode: ShareMode) {
        self.mode = mode;
    }

    /// Number of partitions covered by the counter lanes.
    #[inline]
    pub fn partitions(&self) -> usize {
        self.shared_hits.len()
    }

    /// Grows the counter lanes to cover at least `partitions` partitions
    /// (partition lifecycle: slots are never shrunk, matching `LlcStats`).
    pub fn ensure_partitions(&mut self, partitions: usize) {
        if partitions > self.shared_hits.len() {
            self.shared_hits.resize(partitions, 0);
            self.transfers.resize(partitions, 0);
            self.replicas.resize(partitions, 0);
        }
    }

    /// The address a lookup by `part` actually uses. Identity except under
    /// [`ShareMode::Replicate`], where the partition index is folded into
    /// high address bits so each partition fills a private copy of every
    /// line it touches.
    #[inline]
    pub fn effective_addr(&self, part: u16, addr: LineAddr) -> LineAddr {
        match self.mode {
            ShareMode::Replicate => LineAddr(addr.0 ^ ((part as u64 + 1) << REPLICA_SALT_SHIFT)),
            _ => addr,
        }
    }

    /// Records a cross-partition hit by `accessor` on a line owned by
    /// another partition, and decides whether ownership transfers.
    ///
    /// Returns `true` when the accessor adopts the line (the caller must
    /// then re-tag the frame and move the owner's actual-size count), and
    /// `false` when the line stays pinned to its current owner. Under
    /// [`ShareMode::Replicate`] cross-partition hits cannot occur (address
    /// salting keeps lookups disjoint), so this is never reached in that
    /// mode; it conservatively reports no transfer.
    #[inline]
    pub fn on_shared_hit(&mut self, accessor: u16) -> bool {
        self.shared_hits[accessor as usize] += 1;
        match self.mode {
            ShareMode::Adopt => {
                self.transfers[accessor as usize] += 1;
                true
            }
            ShareMode::Replicate | ShareMode::Pin => false,
        }
    }

    /// Records a replica fill by `part` (an install whose address carried
    /// the Replicate salt).
    #[inline]
    pub fn on_replica_fill(&mut self, part: u16) {
        self.replicas[part as usize] += 1;
    }

    /// Cross-partition hits per accessing partition since the last drain.
    #[inline]
    pub fn shared_hits(&self) -> &[u64] {
        &self.shared_hits
    }

    /// Ownership transfers per adopting partition since the last drain.
    #[inline]
    pub fn transfers(&self) -> &[u64] {
        &self.transfers
    }

    /// Replica fills per partition since the last drain.
    #[inline]
    pub fn replicas(&self) -> &[u64] {
        &self.replicas
    }

    /// Resets every counter lane to zero (stat-drain cycle).
    pub fn reset_counters(&mut self) {
        self.shared_hits.fill(0);
        self.transfers.fill(0);
        self.replicas.fill(0);
    }

    /// Resets partition `part`'s counters to zero (a recycled slot, whose
    /// new tenant must not inherit the old one's sharing record).
    pub fn reset_partition(&mut self, part: usize) {
        self.shared_hits[part] = 0;
        self.transfers[part] = 0;
        self.replicas[part] = 0;
    }

    /// Serializes the layer (mode byte plus the three counter lanes).
    pub fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u8(self.mode.as_u8());
        enc.put_u64_slice(&self.shared_hits);
        enc.put_u64_slice(&self.transfers);
        enc.put_u64_slice(&self.replicas);
    }

    /// Restores the layer saved by [`Self::save_state`]. The snapshot's
    /// mode must match the host's configured mode: lines were placed under
    /// the recorded mode, and silently reinterpreting them under another
    /// would corrupt occupancy accounting (same contract as the RRIP
    /// policy-kind check).
    pub fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let raw = dec.take_u8()?;
        let mode = ShareMode::from_u8(raw).ok_or_else(|| dec.invalid("unknown share-mode tag"))?;
        if mode != self.mode {
            return Err(dec.mismatch("share mode differs from snapshot"));
        }
        let shared_hits = dec.take_u64_vec()?;
        let transfers = dec.take_u64_vec()?;
        let replicas = dec.take_u64_vec()?;
        let n = self.shared_hits.len();
        if shared_hits.len() != n || transfers.len() != n || replicas.len() != n {
            return Err(dec.mismatch("ownership counter lane length differs"));
        }
        self.shared_hits = shared_hits;
        self.transfers = transfers;
        self.replicas = replicas;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for mode in ShareMode::ALL {
            assert_eq!(ShareMode::parse(mode.label()), Some(mode));
            assert_eq!(ShareMode::from_u8(mode.as_u8()), Some(mode));
            assert_eq!(format!("{mode}"), mode.label());
        }
        assert_eq!(ShareMode::parse("bogus"), None);
        assert_eq!(ShareMode::from_u8(3), None);
    }

    #[test]
    fn adopt_transfers_pin_does_not() {
        let mut o = Ownership::new(ShareMode::Adopt, 4);
        assert!(o.on_shared_hit(2));
        assert!(o.on_shared_hit(2));
        assert_eq!(o.shared_hits(), &[0, 0, 2, 0]);
        assert_eq!(o.transfers(), &[0, 0, 2, 0]);

        let mut p = Ownership::new(ShareMode::Pin, 4);
        assert!(!p.on_shared_hit(1));
        assert_eq!(p.shared_hits(), &[0, 1, 0, 0]);
        assert_eq!(p.transfers(), &[0, 0, 0, 0]);
    }

    #[test]
    fn effective_addr_salts_only_under_replicate() {
        let addr = LineAddr(0xAB_CDEF);
        for mode in [ShareMode::Adopt, ShareMode::Pin] {
            let o = Ownership::new(mode, 2);
            assert_eq!(o.effective_addr(0, addr), addr);
            assert_eq!(o.effective_addr(1, addr), addr);
        }
        let r = Ownership::new(ShareMode::Replicate, 2);
        let a0 = r.effective_addr(0, addr);
        let a1 = r.effective_addr(1, addr);
        assert_ne!(a0, a1, "per-partition copies are distinct lines");
        assert_ne!(a0, addr, "partition 0 is salted too");
        assert_eq!(
            a0.0 & ((1 << REPLICA_SALT_SHIFT) - 1),
            addr.0,
            "low bits preserved"
        );
    }

    #[test]
    fn ensure_partitions_grows_monotonically() {
        let mut o = Ownership::new(ShareMode::Adopt, 2);
        o.on_shared_hit(1);
        o.ensure_partitions(5);
        assert_eq!(o.partitions(), 5);
        assert_eq!(o.shared_hits(), &[0, 1, 0, 0, 0]);
        o.ensure_partitions(3); // never shrinks
        assert_eq!(o.partitions(), 5);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_mode_mismatch() {
        let mut o = Ownership::new(ShareMode::Pin, 3);
        o.on_shared_hit(0);
        o.on_shared_hit(2);
        let mut enc = vantage_snapshot::Encoder::new();
        o.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut fresh = Ownership::new(ShareMode::Pin, 3);
        let mut dec = vantage_snapshot::Decoder::new(&bytes, "ownership");
        fresh.load_state(&mut dec).expect("same-mode restore");
        assert_eq!(fresh.shared_hits(), &[1, 0, 1]);

        let mut wrong = Ownership::new(ShareMode::Adopt, 3);
        let mut dec = vantage_snapshot::Decoder::new(&bytes, "ownership");
        assert!(
            wrong.load_state(&mut dec).is_err(),
            "mode mismatch rejected"
        );
    }
}
