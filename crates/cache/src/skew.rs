//! Skew-associative cache arrays (Seznec, ISCA 1993).
//!
//! Each way is indexed with a *different* H3 hash function, which spreads
//! conflicts: two lines that collide in one way almost surely do not collide
//! in the others. The candidate set on a replacement is one frame per way,
//! which for well-hashed ways is statistically close to a uniform random
//! sample of `W` lines — the property Vantage's analysis builds on.

use std::ops::ControlFlow;

use crate::array::{debug_check_walk, CacheArray, Frame, LineAddr, Walk, WalkNode, EMPTY_LINE};
use crate::hash::WayHasher;

/// A skew-associative array: `ways` banks of `frames/ways` frames, each bank
/// indexed by its own hash function.
///
/// # Example
///
/// ```
/// use vantage_cache::{CacheArray, LineAddr, SkewArray, Walk};
///
/// let mut a = SkewArray::new(4096, 4, 11);
/// let mut walk = Walk::new();
/// a.walk(LineAddr(99), &mut walk);
/// assert!(walk.len() <= 4); // one candidate per way, deduplicated
/// ```
#[derive(Clone, Debug)]
pub struct SkewArray {
    /// Packed line store, [`EMPTY_LINE`] marking free frames (one `u64` per
    /// frame — see the note on [`EMPTY_LINE`]).
    lines: Vec<u64>,
    /// Every way's H3 function, one bank of `hasher.buckets()` frames per
    /// way, all evaluated in one table pass.
    hasher: WayHasher,
    occupancy: usize,
}

impl SkewArray {
    /// Creates a skew-associative array with `ways` hash functions derived
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not a positive multiple of `ways`.
    pub fn new(frames: usize, ways: usize, seed: u64) -> Self {
        assert!(ways > 0, "ways must be non-zero");
        assert!(
            frames > 0 && frames.is_multiple_of(ways),
            "frames must be a positive multiple of ways"
        );
        assert!(frames <= u32::MAX as usize, "frame count must fit in u32");
        let seeds: Vec<u64> = (0..ways)
            .map(|w| seed.wrapping_add(w as u64 * 0x5851_F42D))
            .collect();
        Self {
            lines: vec![EMPTY_LINE; frames],
            hasher: WayHasher::new(&seeds, (frames / ways) as u32),
            occupancy: 0,
        }
    }
}

impl CacheArray for SkewArray {
    fn num_frames(&self) -> usize {
        self.lines.len()
    }

    fn ways(&self) -> usize {
        self.hasher.ways()
    }

    fn candidates_per_walk(&self) -> usize {
        self.hasher.ways()
    }

    fn lookup(&self, addr: LineAddr) -> Option<Frame> {
        if addr.0 == EMPTY_LINE {
            return None; // reserved sentinel, never stored
        }
        match self.hasher.frames(addr.0, |_, f| {
            if self.lines[f as usize] == addr.0 {
                ControlFlow::Break(f)
            } else {
                ControlFlow::Continue(())
            }
        }) {
            ControlFlow::Break(f) => Some(f),
            ControlFlow::Continue(()) => None,
        }
    }

    fn walk(&mut self, addr: LineAddr, walk: &mut Walk) {
        walk.clear();
        // Different ways index disjoint banks, so frames never collide
        // across ways; no dedup needed.
        let _ = self.hasher.frames(addr.0, |w, frame| {
            let line = self.lines[frame as usize];
            walk.nodes
                .push(WalkNode::new(frame, line != EMPTY_LINE, None, w));
            ControlFlow::<()>::Continue(())
        });
        debug_check_walk(walk, self.hasher.ways());
    }

    fn install(
        &mut self,
        addr: LineAddr,
        walk: &Walk,
        victim: usize,
        _moves: &mut Vec<(Frame, Frame)>,
    ) -> Frame {
        assert_ne!(
            addr.0, EMPTY_LINE,
            "line address u64::MAX is reserved as the empty-frame sentinel"
        );
        let node = walk.nodes[victim];
        debug_assert_eq!(
            self.occupant(node.frame).is_some(),
            node.is_occupied(),
            "stale walk"
        );
        if self.lines[node.frame as usize] == EMPTY_LINE {
            self.occupancy += 1;
        }
        self.lines[node.frame as usize] = addr.0;
        node.frame
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<Frame> {
        let frame = self.lookup(addr)?;
        self.lines[frame as usize] = EMPTY_LINE;
        self.occupancy -= 1;
        Some(frame)
    }

    fn occupant(&self, frame: Frame) -> Option<LineAddr> {
        let line = self.lines[frame as usize];
        (line != EMPTY_LINE).then_some(LineAddr(line))
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }
}

impl vantage_snapshot::Snapshot for SkewArray {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64_slice(&self.lines);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let lines = dec.take_u64_vec()?;
        if lines.len() != self.lines.len() {
            return Err(dec.mismatch(&format!(
                "skew array has {} frames, snapshot has {}",
                self.lines.len(),
                lines.len()
            )));
        }
        self.occupancy = lines.iter().filter(|&&l| l != EMPTY_LINE).count();
        self.lines = lines;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::WAY_LANES;

    /// The frame `addr` maps to in `way`.
    fn frame_in_way(a: &SkewArray, addr: LineAddr, way: usize) -> Frame {
        way as u32 * a.hasher.buckets() + a.hasher.group(addr.0, way / WAY_LANES)[way % WAY_LANES]
    }

    #[test]
    fn candidates_come_from_distinct_banks() {
        let mut a = SkewArray::new(1024, 4, 1);
        let mut walk = Walk::new();
        a.walk(LineAddr(123), &mut walk);
        assert_eq!(walk.len(), 4);
        let banks: Vec<u32> = walk.nodes.iter().map(|n| n.frame / 256).collect();
        assert_eq!(banks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn install_lookup_roundtrip() {
        let mut a = SkewArray::new(256, 4, 2);
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        for i in 0..32u64 {
            let addr = LineAddr(i * 17);
            a.walk(addr, &mut walk);
            let slot = walk.first_empty().unwrap_or(0);
            a.install(addr, &walk, slot, &mut moves);
            assert!(a.lookup(addr).is_some());
        }
        assert!(a.occupancy() >= 24, "most installs should have found room");
    }

    #[test]
    fn conflicting_lines_spread_across_ways() {
        // Lines that collide in way 0 should mostly not collide in way 1.
        let a = SkewArray::new(4096, 2, 3);
        let target = frame_in_way(&a, LineAddr(0), 0);
        let colliders: Vec<LineAddr> = (1..100_000u64)
            .map(LineAddr)
            .filter(|&x| frame_in_way(&a, x, 0) == target)
            .collect();
        assert!(colliders.len() > 5, "need some way-0 colliders to test");
        let mut way1 = std::collections::HashSet::new();
        for &c in &colliders {
            way1.insert(frame_in_way(&a, c, 1));
        }
        assert!(
            way1.len() > colliders.len() / 2,
            "way-1 frames should be diverse"
        );
    }

    #[test]
    fn invalidate_then_miss() {
        let mut a = SkewArray::new(64, 4, 4);
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        let addr = LineAddr(5);
        a.walk(addr, &mut walk);
        a.install(addr, &walk, 0, &mut moves);
        assert!(a.invalidate(addr).is_some());
        assert_eq!(a.lookup(addr), None);
    }
}
