//! Vantage's runtime partition lifecycle: the slot table, create, destroy
//! and drain.

use vantage_cache::PartitionId;
use vantage_telemetry::TelemetryEvent;

use super::{Vantage, VantageLlc, UNMANAGED};
use crate::controller::PartitionState;
use crate::llc::{LifecycleError, PartitionSpec};

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
/// [`Llc::create_partition`](crate::Llc::create_partition) reuses the
/// lowest non-`Active` slot — drained or not — so slot assignment depends
/// only on the lifecycle call sequence, never on drain progress (which
/// differs across the banks of a banked cache). Recycling a `Draining` slot
/// hands its leftover lines to the new tenant, as reassigning a partition
/// ID does in hardware.
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

impl SlotState {
    /// Every state; a state's snapshot tag (`state as u8`) is its index.
    pub(crate) const ALL: [SlotState; 3] =
        [SlotState::Active, SlotState::Draining, SlotState::Free];
}

impl Vantage {
    /// Lazily retires drained slots: a [`SlotState::Draining`] slot whose
    /// last line has left (`sizes` is the frame's size lane) becomes
    /// [`SlotState::Free`]. Run at the lifecycle/observation boundaries
    /// rather than on the access path — nothing on the hot path reads the
    /// distinction.
    pub(crate) fn retire_drained_slots(&mut self, sizes: &[u64]) {
        for (slot, &actual) in self.slot_state.iter_mut().zip(sizes) {
            if *slot == SlotState::Draining && actual == 0 {
                *slot = SlotState::Free;
            }
        }
    }

    /// Resizes every per-slot table to `n` slots (the frame resizes its
    /// own); new slots start zeroed and [`SlotState::Free`].
    pub(crate) fn resize_slots(&mut self, n: usize) {
        self.parts
            .resize_with(n, || PartitionState::new(0, &self.cfg, self.max_rrpv));
        self.slot_state.resize(n, SlotState::Free);
        self.lost.resize(n, 0);
        self.filled.resize(n, 0);
        self.sample_lost.resize(n, 0);
        self.obs_lost.resize(n, 0);
        self.obs_filled.resize(n, 0);
    }
}

impl VantageLlc {
    /// Lifecycle state of slot `part` (service mode; slots of a cache that
    /// never created or destroyed partitions are all
    /// [`SlotState::Active`]).
    pub fn slot_state(&self, part: PartitionId) -> SlotState {
        self.mech.slot_state[part.index()]
    }

    /// Number of live ([`SlotState::Active`]) partitions.
    pub fn live_partitions(&self) -> usize {
        self.mech
            .slot_state
            .iter()
            .filter(|s| **s == SlotState::Active)
            .count()
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
    /// so that the banks of a [`BankedLlc`](crate::BankedLlc) — which drain
    /// at different rates — always assign the same slot. A still-draining
    /// slot's leftover lines are inherited by the new tenant, exactly as
    /// recycling a partition ID does in hardware; they demote through the
    /// ordinary machinery whenever they push the tenant over target.
    pub(super) fn create(&mut self, spec: PartitionSpec) -> Result<PartitionId, LifecycleError> {
        if self.mech.rrip.is_some() {
            // The RRIP policy's per-partition state is sized at
            // construction; Vantage-DRRIP keeps a fixed population.
            return Err(LifecycleError::Unsupported);
        }
        self.mech.retire_drained_slots(&self.sizes);
        let v = &mut self.mech;
        let p = match v.slot_state.iter().position(|s| *s != SlotState::Active) {
            Some(p) => {
                // Recycled slot: fresh controller and meters, so the new
                // tenant's SLA accounting starts from zero. Inherited lines
                // (if the slot was still draining) stay counted in its size.
                debug_assert!(
                    v.slot_state[p] == SlotState::Draining || self.sizes[p] == 0,
                    "free slot still holds lines"
                );
                v.parts[p] = PartitionState::new(0, &v.cfg, v.max_rrpv);
                self.stats.hits[p] = 0;
                self.stats.misses[p] = 0;
                self.own.reset_partition(p);
                v.lost[p] = 0;
                v.filled[p] = 0;
                v.sample_lost[p] = 0;
                v.obs_lost[p] = 0;
                v.obs_filled[p] = 0;
                p
            }
            None => {
                let p = v.parts.len();
                if p >= UNMANAGED as usize {
                    return Err(LifecycleError::Exhausted);
                }
                v.resize_slots(p + 1);
                self.resize_partitions(p + 1);
                p
            }
        };
        let v = &mut self.mech;
        let cap = self.meta.len() as u64;
        let m = 1.0 - v.cfg.unmanaged_fraction;
        let want = (spec.target as f64 * m).floor() as u64;
        let floor = (v.cfg.unmanaged_fraction * cap as f64).floor() as u64;
        let grant = want.min(v.um_target.saturating_sub(floor));
        v.um_target -= grant;
        v.parts[p].set_target(grant, &v.cfg);
        v.slot_state[p] = SlotState::Active;
        let id = PartitionId::from_index(p);
        v.pending_arrived.push(id);
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
    pub(super) fn destroy(&mut self, part: PartitionId) -> Result<(), LifecycleError> {
        let v = &mut self.mech;
        if v.rrip.is_some() {
            return Err(LifecycleError::Unsupported);
        }
        let p = part.index();
        if part.is_unmanaged() || p >= v.parts.len() {
            return Err(LifecycleError::OutOfRange(part));
        }
        if v.slot_state[p] != SlotState::Active {
            return Err(LifecycleError::NotLive(part));
        }
        v.um_target += v.parts[p].target;
        v.parts[p].set_target(0, &v.cfg);
        v.slot_state[p] = if self.sizes[p] == 0 {
            SlotState::Free
        } else {
            SlotState::Draining
        };
        v.pending_departed.push(part);
        if self.tele.enabled() {
            self.tele.event(TelemetryEvent::PartitionDestroyed {
                access: self.accesses,
                part,
            });
        }
        Ok(())
    }
}
