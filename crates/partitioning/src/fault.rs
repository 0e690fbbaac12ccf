//! Deterministic fault injection for the Vantage stack, and the recovery
//! paths that absorb it.
//!
//! Vantage's correctness story rests on a small amount of state: ~6 tag bits
//! per line and ~256 bits of controller registers per partition (Fig. 4).
//! This module models what happens when that state is corrupted — by soft
//! errors in tag arrays, stuck register bits, or adversarial workloads — so
//! the recovery paths ([`VantageLlc::scrub`], the corrupted-PID fallbacks
//! in the hit/miss paths and the [`VantageLlc::invariants`] checker) can be
//! exercised reproducibly.
//!
//! A [`FaultPlan`] is a seeded schedule: polled with the cache's access
//! count, it periodically emits a [`Fault`] drawn from the enabled classes.
//! Faults carry raw random payloads (frame/partition selectors, bit
//! indices); [`VantageLlc::inject`] maps them
//! onto live state, so plans are independent of any particular cache
//! geometry and a given seed always produces the same fault sequence.
//!
//! ```
//! use vantage_partitioning::fault::{Fault, FaultKind, FaultPlan};
//!
//! let mut plan = FaultPlan::new(42, 1000, &[FaultKind::TagPart]);
//! assert_eq!(plan.poll(999), None);
//! let fault = plan.poll(1000).expect("due");
//! assert!(matches!(fault, Fault::TagPartFlip { .. }));
//! // Deterministic: an identical plan produces the identical fault.
//! let mut again = FaultPlan::new(42, 1000, &[FaultKind::TagPart]);
//! assert_eq!(again.poll(1234), Some(fault));
//! ```

use vantage_cache::Frame;
use vantage_telemetry::TelemetryEvent;

use crate::error::VantageError;
use crate::vantage::{ScrubReport, VantageLlc, UNMANAGED};

/// One concrete fault. Selector fields (`frame_sel`, `part_sel`) are raw
/// random words that the injection point reduces onto live state (modulo the
/// frame/partition count), so a `Fault` is meaningful for any cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Flip one bit of an occupied frame's partition-ID tag. Low bits
    /// migrate the line between valid partitions; high bits usually produce
    /// an out-of-range PID that the access paths must tolerate.
    TagPartFlip {
        /// Raw frame selector (reduced modulo the frame count, then scanned
        /// forward to the next occupied frame).
        frame_sel: u64,
        /// Bit index into the 16-bit PID (taken modulo 16).
        bit: u8,
    },
    /// Flip one bit of an occupied frame's coarse timestamp (or RRPV),
    /// making the line appear older or younger than it is.
    TagTsFlip {
        /// Raw frame selector.
        frame_sel: u64,
        /// Bit index into the 8-bit stamp (taken modulo 8).
        bit: u8,
    },
    /// Flip one bit of a partition's `ActualSize` register. The feedback
    /// controller then steers against a fictitious size until a scrub
    /// recomputes the register from the tag array.
    ActualSizeCorrupt {
        /// Raw partition selector (reduced modulo the partition count).
        part_sel: u64,
        /// Bit index into the size register (taken modulo 20, so the
        /// corruption stays within plausible cache-size magnitudes).
        bit: u8,
    },
    /// Overwrite a partition's `SetpointTS` (and setpoint RRPV) with an
    /// arbitrary value — modelling a stuck or glitched setpoint register.
    /// The keep window may wedge fully open or fully closed.
    SetpointCorrupt {
        /// Raw partition selector.
        part_sel: u64,
        /// The value forced into the setpoint register.
        value: u8,
    },
    /// Overwrite a partition's candidate meters (`CandsSeen`,
    /// `CandsDemoted`) with arbitrary values, desynchronizing the feedback
    /// period.
    MeterCorrupt {
        /// Raw partition selector.
        part_sel: u64,
        /// Forced `CandsSeen` value.
        seen: u32,
        /// Forced `CandsDemoted` value.
        demoted: u32,
    },
    /// An adversarial churn burst: the workload harness should stream
    /// `accesses` distinct lines through the selected partition. This is a
    /// workload-level fault — [`VantageLlc::inject`] ignores it (and
    /// returns `false`); drivers are expected to synthesize the burst.
    ChurnBurst {
        /// Raw partition selector.
        part_sel: u64,
        /// Length of the burst in accesses.
        accesses: u64,
    },
}

impl Fault {
    /// The class this fault belongs to.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::TagPartFlip { .. } => FaultKind::TagPart,
            Fault::TagTsFlip { .. } => FaultKind::TagTs,
            Fault::ActualSizeCorrupt { .. } => FaultKind::ActualSize,
            Fault::SetpointCorrupt { .. } => FaultKind::Setpoint,
            Fault::MeterCorrupt { .. } => FaultKind::Meters,
            Fault::ChurnBurst { .. } => FaultKind::ChurnBurst,
        }
    }
}

/// A fault class a [`FaultPlan`] can draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Partition-ID tag bit flips.
    TagPart,
    /// Coarse-timestamp tag bit flips.
    TagTs,
    /// `ActualSize` register corruption.
    ActualSize,
    /// `SetpointTS` register corruption.
    Setpoint,
    /// Candidate-meter corruption.
    Meters,
    /// Adversarial churn bursts (workload-level).
    ChurnBurst,
}

impl FaultKind {
    /// Every fault class.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TagPart,
        FaultKind::TagTs,
        FaultKind::ActualSize,
        FaultKind::Setpoint,
        FaultKind::Meters,
        FaultKind::ChurnBurst,
    ];

    /// The classes that corrupt state [`VantageLlc::inject`] can apply
    /// directly (everything except workload-level churn bursts).
    pub const INJECTABLE: [FaultKind; 5] = [
        FaultKind::TagPart,
        FaultKind::TagTs,
        FaultKind::ActualSize,
        FaultKind::Setpoint,
        FaultKind::Meters,
    ];
}

/// SplitMix64: a tiny, self-contained generator so fault schedules do not
/// depend on (and cannot drift with) the workload RNG streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded fault schedule.
///
/// The plan fires one fault every `period` accesses (the first at access
/// `period`), cycling its RNG once per fault, so the sequence of faults is a
/// pure function of `(seed, enabled kinds)` regardless of when or how often
/// [`poll`](Self::poll) is called.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: u64,
    period: u64,
    next_at: u64,
    kinds: Vec<FaultKind>,
    log: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// Creates a plan injecting one fault from `kinds` every `period`
    /// accesses. An empty `kinds` slice or a zero `period` yields a plan
    /// that never fires.
    pub fn new(seed: u64, period: u64, kinds: &[FaultKind]) -> Self {
        Self {
            rng: seed,
            period,
            next_at: period,
            kinds: kinds.to_vec(),
            log: Vec::new(),
        }
    }

    /// Polls the schedule with the cache's current access count; returns
    /// the due fault, if any. At most one fault is emitted per call (missed
    /// slots collapse into one), and every emitted fault is recorded in
    /// [`log`](Self::log).
    pub fn poll(&mut self, accesses: u64) -> Option<Fault> {
        if self.period == 0 || self.kinds.is_empty() || accesses < self.next_at {
            return None;
        }
        while self.next_at <= accesses {
            self.next_at += self.period;
        }
        let fault = self.draw();
        self.log.push((accesses, fault));
        Some(fault)
    }

    /// Every fault emitted so far, with the access count it fired at.
    pub fn log(&self) -> &[(u64, Fault)] {
        &self.log
    }

    fn draw(&mut self) -> Fault {
        let kind = self.kinds[(splitmix64(&mut self.rng) % self.kinds.len() as u64) as usize];
        let a = splitmix64(&mut self.rng);
        let b = splitmix64(&mut self.rng);
        match kind {
            FaultKind::TagPart => Fault::TagPartFlip {
                frame_sel: a,
                bit: (b % 16) as u8,
            },
            FaultKind::TagTs => Fault::TagTsFlip {
                frame_sel: a,
                bit: (b % 8) as u8,
            },
            FaultKind::ActualSize => Fault::ActualSizeCorrupt {
                part_sel: a,
                bit: (b % 20) as u8,
            },
            FaultKind::Setpoint => Fault::SetpointCorrupt {
                part_sel: a,
                value: b as u8,
            },
            FaultKind::Meters => Fault::MeterCorrupt {
                part_sel: a,
                seen: (b as u32) & 0xFFFF,
                demoted: ((b >> 32) as u32) & 0xFFFF,
            },
            FaultKind::ChurnBurst => Fault::ChurnBurst {
                part_sel: a,
                accesses: 1_000 + b % 9_000,
            },
        }
    }
}

/// The inverse of a kind's snapshot tag, `kind as u8`: its declaration
/// index, which is its position in [`FaultKind::ALL`].
fn kind_from_tag(tag: u8) -> Option<FaultKind> {
    FaultKind::ALL.get(tag as usize).copied()
}

impl vantage_snapshot::Snapshot for FaultPlan {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64(self.rng);
        enc.put_u64(self.period);
        enc.put_u64(self.next_at);
        enc.put_u64(self.kinds.len() as u64);
        for &k in &self.kinds {
            enc.put_u8(k as u8);
        }
        enc.put_u64(self.log.len() as u64);
        for &(at, fault) in &self.log {
            enc.put_u64(at);
            enc.put_u8(fault.kind() as u8);
            match fault {
                Fault::TagPartFlip {
                    frame_sel: sel,
                    bit,
                }
                | Fault::TagTsFlip {
                    frame_sel: sel,
                    bit,
                }
                | Fault::ActualSizeCorrupt { part_sel: sel, bit }
                | Fault::SetpointCorrupt {
                    part_sel: sel,
                    value: bit,
                } => {
                    enc.put_u64(sel);
                    enc.put_u8(bit);
                }
                Fault::MeterCorrupt {
                    part_sel,
                    seen,
                    demoted,
                } => {
                    enc.put_u64(part_sel);
                    enc.put_u32(seen);
                    enc.put_u32(demoted);
                }
                Fault::ChurnBurst { part_sel, accesses } => {
                    enc.put_u64(part_sel);
                    enc.put_u64(accesses);
                }
            }
        }
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let rng = dec.take_u64()?;
        let period = dec.take_u64()?;
        let next_at = dec.take_u64()?;
        let nkinds = dec.take_len()?;
        let mut kinds = Vec::with_capacity(nkinds);
        for _ in 0..nkinds {
            let Some(k) = kind_from_tag(dec.take_u8()?) else {
                return Err(dec.invalid("unknown fault kind tag"));
            };
            kinds.push(k);
        }
        let nlog = dec.take_len()?;
        // Each log entry occupies at least 8 + 1 + 8 + 1 bytes.
        if nlog > dec.remaining() / 18 {
            return Err(dec.invalid("fault-log length exceeds payload"));
        }
        let mut log = Vec::with_capacity(nlog);
        for _ in 0..nlog {
            let at = dec.take_u64()?;
            let Some(kind) = kind_from_tag(dec.take_u8()?) else {
                return Err(dec.invalid("unknown fault kind tag in log"));
            };
            let fault = match kind {
                FaultKind::TagPart => Fault::TagPartFlip {
                    frame_sel: dec.take_u64()?,
                    bit: dec.take_u8()?,
                },
                FaultKind::TagTs => Fault::TagTsFlip {
                    frame_sel: dec.take_u64()?,
                    bit: dec.take_u8()?,
                },
                FaultKind::ActualSize => Fault::ActualSizeCorrupt {
                    part_sel: dec.take_u64()?,
                    bit: dec.take_u8()?,
                },
                FaultKind::Setpoint => Fault::SetpointCorrupt {
                    part_sel: dec.take_u64()?,
                    value: dec.take_u8()?,
                },
                FaultKind::Meters => Fault::MeterCorrupt {
                    part_sel: dec.take_u64()?,
                    seen: dec.take_u32()?,
                    demoted: dec.take_u32()?,
                },
                FaultKind::ChurnBurst => Fault::ChurnBurst {
                    part_sel: dec.take_u64()?,
                    accesses: dec.take_u64()?,
                },
            };
            log.push((at, fault));
        }
        self.rng = rng;
        self.period = period;
        self.next_at = next_at;
        self.kinds = kinds;
        self.log = log;
        Ok(())
    }
}

impl VantageLlc {
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
        let v = &self.mech;
        let mut sizes = vec![0u64; self.sizes.len()];
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
            } else if let Some(size) = sizes.get_mut(part as usize) {
                *size += 1;
            } else {
                return viol(format!(
                    "frame {f} tagged with out-of-range partition {part}"
                ));
            }
        }
        if um != v.um_size {
            return viol(format!(
                "unmanaged size accounting drift: register {} vs scan {um}",
                v.um_size
            ));
        }
        for (p, (&register, &scanned)) in self.sizes.iter().zip(&sizes).enumerate() {
            if register != scanned {
                return viol(format!(
                    "partition {p} size accounting drift: register {register} vs scan {scanned}"
                ));
            }
        }
        let total: u64 = self.sizes.iter().sum::<u64>() + v.um_size;
        if total != occupied {
            return viol(format!(
                "size registers sum to {total} but {occupied} frames are occupied"
            ));
        }
        for (p, st) in v.parts.iter().enumerate() {
            if st.cands_seen >= v.cfg.cands_period {
                return viol(format!(
                    "partition {p} candidate meter at {} (period {})",
                    st.cands_seen, v.cfg.cands_period
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
        let managed_total: u64 = v.parts.iter().map(|st| st.target).sum();
        if managed_total + v.um_target != cap {
            return viol(format!(
                "targets do not tile the cache: {managed_total} managed + {} unmanaged != {cap}",
                v.um_target
            ));
        }
        let floor = (v.cfg.unmanaged_fraction * cap as f64).floor() as u64;
        if v.um_target < floor {
            return viol(format!(
                "unmanaged target {} below the configured fraction's floor {floor}",
                v.um_target
            ));
        }
        Ok(())
    }

    /// Enables (or disables, with `None`) an automatic [`Self::scrub`]
    /// pass every `period` accesses — the recovery half of a
    /// fault-tolerance loop. A zero period disables scrubbing.
    pub fn set_scrub_period(&mut self, period: Option<u64>) {
        self.mech.scrub_period = period.filter(|&p| p > 0);
    }

    /// Attaches (or detaches, with `None`) a seeded [`FaultPlan`]: the plan
    /// is polled on every access and due faults are injected in-line via
    /// [`Self::inject`]. Pair with [`Self::set_scrub_period`] for a closed
    /// inject/recover loop. Returns the previously attached plan, whose
    /// [`log`](FaultPlan::log) records everything it injected.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Option<FaultPlan> {
        std::mem::replace(&mut self.mech.fault_plan, plan)
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.mech.fault_plan.as_ref()
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
        let lru = self.mech.is_lru();
        let nparts = self.sizes.len() as u64;
        match *fault {
            Fault::TagPartFlip { frame_sel, bit } => match self.pick_occupied(frame_sel) {
                Some(f) => self.meta.set_part(f, self.meta.part(f) ^ (1 << (bit % 16))),
                None => return false,
            },
            Fault::TagTsFlip { frame_sel, bit } => match self.pick_occupied(frame_sel) {
                Some(f) => self.meta.set_ts(f, self.meta.ts(f) ^ (1 << (bit % 8))),
                None => return false,
            },
            Fault::ActualSizeCorrupt { part_sel, bit } => {
                self.sizes[(part_sel % nparts) as usize] ^= 1u64 << (bit % 20);
            }
            Fault::SetpointCorrupt { part_sel, value } => {
                let st = &mut self.mech.parts[(part_sel % nparts) as usize];
                st.setpoint = value;
                if !lru {
                    // In RRIP mode the setpoint register holds an RRPV; a
                    // glitch can push it past max_rrpv + 1 ("demote
                    // nothing"), which scrub clamps back.
                    st.setpoint_rrpv = value;
                }
            }
            Fault::MeterCorrupt {
                part_sel,
                seen,
                demoted,
            } => {
                let st = &mut self.mech.parts[(part_sel % nparts) as usize];
                st.cands_seen = seen;
                st.cands_demoted = demoted;
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
        let mut report = ScrubReport::default();
        let mut sizes = vec![0u64; self.sizes.len()];
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
            if part != UNMANAGED && (part as usize) >= sizes.len() {
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
        let v = &mut self.mech;
        if um != v.um_size {
            v.um_size = um;
            report.size_corrections += 1;
        }
        for (register, scanned) in self.sizes.iter_mut().zip(sizes) {
            if *register != scanned {
                *register = scanned;
                report.size_corrections += 1;
            }
        }
        let lru = v.is_lru();
        for st in &mut v.parts {
            if st.cands_seen >= v.cfg.cands_period || st.cands_demoted > st.cands_seen {
                st.cands_seen = 0;
                st.cands_demoted = 0;
                report.meters_reset += 1;
            }
            let window = st.keep_window();
            if window == 0 || window == u8::MAX {
                st.setpoint = st.lru.current().wrapping_sub(128);
                report.setpoints_recentered += 1;
            }
            if !lru && st.setpoint_rrpv > v.max_rrpv + 1 {
                st.setpoint_rrpv = v.max_rrpv + 1;
                report.setpoints_recentered += 1;
            }
        }
        v.vstats.scrubs += 1;
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

    /// Maps a raw frame selector to an occupied frame, uniformly: the
    /// selector is reduced modulo the occupancy and the k-th occupied
    /// frame (in frame order) is chosen, so every resident line is
    /// equally likely. (Reducing modulo the frame count and scanning
    /// forward to the next occupied slot would over-sample frames that
    /// follow runs of empties.) Counts by scanning rather than trusting
    /// the size registers, which fault injection may have corrupted.
    pub(crate) fn pick_occupied(&self, frame_sel: u64) -> Option<usize> {
        let occupied = (0..self.meta.len()).filter(|&f| self.array.occupant(f as Frame).is_some());
        let k = frame_sel.checked_rem(occupied.clone().count() as u64)?;
        occupied.clone().nth(k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_positions_in_all() {
        for (i, &k) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i);
            assert_eq!(kind_from_tag(k as u8), Some(k));
        }
        assert_eq!(kind_from_tag(FaultKind::ALL.len() as u8), None);
    }

    #[test]
    fn plan_is_deterministic() {
        let mk = || FaultPlan::new(0xDEAD, 500, &FaultKind::ALL);
        let (mut a, mut b) = (mk(), mk());
        for acc in (0..20_000u64).step_by(137) {
            assert_eq!(a.poll(acc), b.poll(acc));
        }
        assert_eq!(a.log(), b.log());
        assert!(!a.log().is_empty(), "plan never fired");
    }

    #[test]
    fn fires_once_per_period() {
        let mut plan = FaultPlan::new(7, 100, &[FaultKind::Setpoint]);
        let fired: Vec<u64> = (0..=1000u64)
            .filter(|&acc| plan.poll(acc).is_some())
            .collect();
        assert_eq!(
            fired,
            vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        );
    }

    #[test]
    fn missed_slots_collapse() {
        // Polling sparsely must not queue up a backlog of faults.
        let mut plan = FaultPlan::new(7, 100, &[FaultKind::Meters]);
        assert!(plan.poll(950).is_some());
        assert!(plan.poll(999).is_none(), "next slot is 1000");
        assert!(plan.poll(1000).is_some());
    }

    #[test]
    fn disabled_plans_never_fire() {
        let mut empty = FaultPlan::new(7, 100, &[]);
        let mut zero = FaultPlan::new(7, 0, &FaultKind::ALL);
        for acc in 0..10_000 {
            assert_eq!(empty.poll(acc), None);
            assert_eq!(zero.poll(acc), None);
        }
    }

    #[test]
    fn draws_cover_all_enabled_kinds() {
        let mut plan = FaultPlan::new(3, 1, &FaultKind::ALL);
        let mut seen = [false; 6];
        for acc in 1..=200u64 {
            if let Some(f) = plan.poll(acc) {
                seen[FaultKind::ALL.iter().position(|&k| k == f.kind()).unwrap()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "kinds drawn: {seen:?}");
    }

    #[test]
    fn payload_bit_indices_are_in_range() {
        let mut plan = FaultPlan::new(11, 1, &FaultKind::INJECTABLE);
        for acc in 1..=500u64 {
            match plan.poll(acc) {
                Some(Fault::TagPartFlip { bit, .. }) => assert!(bit < 16),
                Some(Fault::TagTsFlip { bit, .. }) => assert!(bit < 8),
                Some(Fault::ActualSizeCorrupt { bit, .. }) => assert!(bit < 20),
                _ => {}
            }
        }
    }
}
