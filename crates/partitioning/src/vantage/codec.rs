//! Vantage's snapshot codec, in place of the frame's shared layout.
//!
//! It serializes every architectural register plus the simulator-side
//! meters: tags, per-partition controller state (with the frame's size
//! lane), the unmanaged clock, RRIP policy state, statistics, churn meters,
//! the fault schedule and the telemetry schedule, with the cache array, the
//! lifecycle tail and the ownership tail last. Derived structures
//! (threshold tables, the tag store's count index, walk scratch) are
//! rebuilt on load rather than stored.

use vantage_cache::{Frame, PartitionId};
use vantage_snapshot::{Decoder, Encoder, Snapshot};

use super::{SlotState, VantageLlc, VantageStats, UNMANAGED};
use crate::fault::FaultPlan;

impl VantageLlc {
    pub(super) fn save_vantage(&self, enc: &mut Encoder) {
        let v = &self.mech;
        enc.put_u64(self.accesses);
        enc.put_u16_slice(self.meta.parts());
        enc.put_u8_slice(self.meta.ts_lane());
        enc.put_u64(v.parts.len() as u64);
        for (st, &actual) in v.parts.iter().zip(&self.sizes) {
            enc.put_u64(st.target);
            enc.put_u64(actual);
            enc.put_u8(st.setpoint);
            enc.put_u8(st.setpoint_rrpv);
            enc.put_u32(st.cands_seen);
            enc.put_u32(st.cands_demoted);
            st.lru.save_state(enc);
        }
        v.um_lru.save_state(enc);
        enc.put_u64(v.um_size);
        enc.put_u64(v.um_target);
        enc.put_bool(v.rrip.is_some());
        if let Some(rr) = &v.rrip {
            rr.save_state(enc);
        }
        self.stats.save_state(enc);
        let vs = &v.vstats;
        enc.put_u64(vs.demotions);
        enc.put_u64(vs.promotions);
        enc.put_u64(vs.unmanaged_evictions);
        enc.put_u64(vs.forced_managed_evictions);
        enc.put_u64(vs.empty_fills);
        enc.put_u64(vs.setpoint_adjustments);
        enc.put_u64(vs.throttled_insertions);
        enc.put_u64(vs.corrupted_pid_fallbacks);
        enc.put_u64(vs.scrubs);
        enc.put_bool(v.probe);
        enc.put_u64(v.samples.len() as u64);
        for &(access, part, pr) in &v.samples {
            enc.put_u64(access);
            enc.put_u16(part);
            enc.put_u32(pr.to_bits());
        }
        enc.put_u64_slice(&v.lost);
        enc.put_u64_slice(&v.filled);
        enc.put_u64(v.um_lost);
        enc.put_u64_slice(&v.sample_lost);
        enc.put_u64(v.sample_um_lost);
        enc.put_u64_slice(&v.obs_lost);
        enc.put_u64_slice(&v.obs_filled);
        enc.put_opt_u64(v.scrub_period);
        enc.put_bool(v.fault_plan.is_some());
        if let Some(plan) = &v.fault_plan {
            plan.save_state(enc);
        }
        self.tele.save_state(enc);
        self.array.save_state(enc);
        // Lifecycle tail: the slot-state lane plus the pending
        // arrival/departure queues.
        let lane: Vec<u8> = v.slot_state.iter().map(|&s| s as u8).collect();
        enc.put_u8_slice(&lane);
        let arrived: Vec<u16> = v.pending_arrived.iter().map(|p| p.raw()).collect();
        let departed: Vec<u16> = v.pending_departed.iter().map(|p| p.raw()).collect();
        enc.put_u16_slice(&arrived);
        enc.put_u16_slice(&departed);
        // Ownership tail: the share mode plus the per-partition sharing
        // counters.
        self.own.save_state(enc);
    }

    pub(super) fn load_vantage(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<()> {
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
        if npart != self.mech.parts.len() {
            // Service mode: the saved cache created/destroyed partitions
            // after construction, so the slot table is sized by the
            // snapshot, not the constructor. RRIP state cannot resize.
            if self.mech.rrip.is_some() {
                return Err(dec.mismatch("partition count differs under RRIP ranking"));
            }
            self.mech.resize_slots(npart);
            self.resize_partitions(npart);
        }
        let v = &mut self.mech;
        let mut managed_total = 0u64;
        for (st, size) in v.parts.iter_mut().zip(&mut self.sizes) {
            let target = dec.take_u64()?;
            *size = dec.take_u64()?;
            st.set_target(target, &v.cfg);
            st.setpoint = dec.take_u8()?;
            st.setpoint_rrpv = dec.take_u8()?;
            st.cands_seen = dec.take_u32()?;
            st.cands_demoted = dec.take_u32()?;
            st.lru.load_state(dec)?;
            managed_total += target;
        }
        v.um_lru.load_state(dec)?;
        let um_size = dec.take_u64()?;
        let um_target = dec.take_u64()?;
        if managed_total + um_target != frames as u64 {
            return Err(dec.invalid("targets do not tile the cache"));
        }
        let has_rrip = dec.take_bool()?;
        if has_rrip != v.rrip.is_some() {
            return Err(dec.mismatch("ranking mode differs (LRU vs RRIP)"));
        }
        if let Some(rr) = &mut v.rrip {
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
        if probe && !v.is_lru() {
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
            let mut plan = v
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
            let Some(&s) = SlotState::ALL.get(usize::from(b)) else {
                return Err(dec.invalid("unknown slot state"));
            };
            slot_state.push(s);
        }
        let take_queue = |dec: &mut Decoder<'_>| -> vantage_snapshot::Result<Vec<PartitionId>> {
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
        self.own.load_state(dec)?;
        let v = &mut self.mech;
        for (st, s) in v.parts.iter().zip(&slot_state) {
            if *s != SlotState::Active && st.target != 0 {
                return Err(dec.invalid("dead slot carries a capacity target"));
            }
        }

        self.accesses = accesses;
        v.slot_state = slot_state;
        v.pending_arrived = pending_arrived;
        v.pending_departed = pending_departed;
        self.meta.load_lanes(parts_tags, ts_tags);
        // Input validation: a never-filled frame must carry the sentinel,
        // whatever the payload claims, or the SoA store would count a
        // forged owner into that partition's lines.
        for f in 0..frames {
            if self.array.occupant(f as Frame).is_none() {
                self.meta.set(f, UNMANAGED, 0);
            }
        }
        v.um_size = um_size;
        v.um_target = um_target;
        v.vstats = vstats;
        v.probe = probe;
        v.samples = samples;
        v.lost = lost;
        v.filled = filled;
        v.um_lost = um_lost;
        v.sample_lost = sample_lost;
        v.sample_um_lost = sample_um_lost;
        v.obs_lost = obs_lost;
        v.obs_filled = obs_filled;
        v.scrub_period = scrub_period;
        v.fault_plan = fault_plan;
        Ok(())
    }
}
