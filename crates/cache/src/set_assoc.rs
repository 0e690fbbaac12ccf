//! Set-associative cache arrays, with optional H3-hashed indexing.

use std::cell::Cell;

use crate::array::{debug_check_walk, CacheArray, Frame, LineAddr, Walk, WalkNode, EMPTY_LINE};
use crate::hash::H3Hasher;

/// How a [`SetAssocArray`] maps addresses to sets.
#[derive(Clone, Debug)]
enum Indexing {
    /// `set = addr mod num_sets` (classic untashed indexing).
    Modulo,
    /// `set = H3(addr) mod num_sets` (hashed indexing, as in modern LLCs).
    Hashed(H3Hasher),
}

/// A set-associative array: `num_sets × ways` frames, candidates are the
/// `ways` frames of the indexed set.
///
/// With hashed indexing this models the "hashed set-associative caches" that
/// the paper shows Vantage also works on (Fig. 10), at the cost of a less
/// uniform candidate distribution than a zcache.
///
/// # Example
///
/// ```
/// use vantage_cache::{CacheArray, LineAddr, SetAssocArray, Walk};
///
/// let mut a = SetAssocArray::hashed(4096, 16, 7);
/// let mut walk = Walk::new();
/// a.walk(LineAddr(10), &mut walk);
/// assert_eq!(walk.len(), 16); // R == ways for set-associative arrays
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocArray {
    /// Packed line store, [`EMPTY_LINE`] marking free frames (one `u64` per
    /// frame — see the note on [`EMPTY_LINE`]).
    lines: Vec<u64>,
    num_sets: u32,
    ways: u32,
    indexing: Indexing,
    occupancy: usize,
    /// Memo of the last missing lookup's set index, reused by `walk` for
    /// the same address (the set of an address never changes).
    probe_addr: Cell<u64>,
    probe_set: Cell<u32>,
}

impl SetAssocArray {
    /// Creates an array with classic modulo indexing.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not a positive multiple of `ways`.
    pub fn modulo(frames: usize, ways: usize) -> Self {
        Self::build(frames, ways, Indexing::Modulo)
    }

    /// Creates an array indexed with an H3 hash drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not a positive multiple of `ways`.
    pub fn hashed(frames: usize, ways: usize, seed: u64) -> Self {
        Self::build(frames, ways, Indexing::Hashed(H3Hasher::new(seed)))
    }

    fn build(frames: usize, ways: usize, indexing: Indexing) -> Self {
        assert!(ways > 0, "ways must be non-zero");
        assert!(
            frames > 0 && frames.is_multiple_of(ways),
            "frames must be a positive multiple of ways"
        );
        assert!(frames <= u32::MAX as usize, "frame count must fit in u32");
        Self {
            lines: vec![EMPTY_LINE; frames],
            num_sets: (frames / ways) as u32,
            ways: ways as u32,
            indexing,
            occupancy: 0,
            probe_addr: Cell::new(EMPTY_LINE),
            probe_set: Cell::new(0),
        }
    }

    /// The number of sets.
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    #[inline]
    fn set_of(&self, addr: LineAddr) -> u32 {
        match &self.indexing {
            Indexing::Modulo => (addr.0 % u64::from(self.num_sets)) as u32,
            Indexing::Hashed(h) => h.bucket(addr.0, self.num_sets),
        }
    }

    #[inline]
    fn frame_of(&self, set: u32, way: u32) -> Frame {
        set * self.ways + way
    }
}

impl CacheArray for SetAssocArray {
    fn num_frames(&self) -> usize {
        self.lines.len()
    }

    fn ways(&self) -> usize {
        self.ways as usize
    }

    fn candidates_per_walk(&self) -> usize {
        self.ways as usize
    }

    fn lookup(&self, addr: LineAddr) -> Option<Frame> {
        if addr.0 == EMPTY_LINE {
            return None; // reserved sentinel, never stored
        }
        let set = self.set_of(addr);
        let hit = (0..self.ways)
            .map(|w| self.frame_of(set, w))
            .find(|&f| self.lines[f as usize] == addr.0);
        if hit.is_none() {
            self.probe_addr.set(addr.0);
            self.probe_set.set(set);
        }
        hit
    }

    fn walk(&mut self, addr: LineAddr, walk: &mut Walk) {
        walk.clear();
        let set = if self.probe_addr.get() == addr.0 {
            self.probe_set.get()
        } else {
            self.set_of(addr)
        };
        for w in 0..self.ways {
            let frame = self.frame_of(set, w);
            let line = self.lines[frame as usize];
            walk.nodes
                .push(WalkNode::new(frame, line != EMPTY_LINE, None, w as usize));
        }
        debug_check_walk(walk, self.ways as usize);
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

impl vantage_snapshot::Snapshot for SetAssocArray {
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
                "set-assoc array has {} frames, snapshot has {}",
                self.lines.len(),
                lines.len()
            )));
        }
        self.occupancy = lines.iter().filter(|&&l| l != EMPTY_LINE).count();
        self.lines = lines;
        self.probe_addr.set(EMPTY_LINE);
        self.probe_set.set(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_addr(i: u64) -> LineAddr {
        LineAddr(i)
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut a = SetAssocArray::modulo(64, 4);
        let mut walk = Walk::new();
        let addr = fill_addr(33);
        assert_eq!(a.lookup(addr), None);
        a.walk(addr, &mut walk);
        assert_eq!(walk.len(), 4);
        let mut moves = Vec::new();
        let f = a.install(addr, &walk, 0, &mut moves);
        assert!(moves.is_empty(), "set-assoc installs never relocate");
        assert_eq!(a.lookup(addr), Some(f));
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn modulo_indexing_maps_conflicting_addresses_to_same_set() {
        let mut a = SetAssocArray::modulo(64, 4); // 16 sets
        let mut walk = Walk::new();
        a.walk(fill_addr(5), &mut walk);
        let frames_a: Vec<Frame> = walk.nodes.iter().map(|n| n.frame).collect();
        a.walk(fill_addr(5 + 16), &mut walk);
        let frames_b: Vec<Frame> = walk.nodes.iter().map(|n| n.frame).collect();
        assert_eq!(frames_a, frames_b);
    }

    #[test]
    fn hashed_indexing_spreads_sequential_addresses() {
        let mut a = SetAssocArray::hashed(1024, 4, 99); // 256 sets
        let mut walk = Walk::new();
        let mut sets = std::collections::HashSet::new();
        for i in 0..64 {
            a.walk(fill_addr(i), &mut walk);
            sets.insert(walk.nodes[0].frame / 4);
        }
        // Sequential addresses should land in many distinct sets.
        assert!(sets.len() > 32, "only {} distinct sets", sets.len());
    }

    #[test]
    fn eviction_replaces_victim() {
        let mut a = SetAssocArray::modulo(8, 4); // 2 sets
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        // Fill set 0 with addresses 0, 2, 4, 6.
        for i in 0..4u64 {
            let addr = fill_addr(i * 2);
            a.walk(addr, &mut walk);
            let slot = walk.first_empty().expect("room available");
            a.install(addr, &walk, slot, &mut moves);
        }
        assert_eq!(a.occupancy(), 4);
        // Set 0 is full; install a conflicting address over candidate 2.
        let newcomer = fill_addr(8);
        a.walk(newcomer, &mut walk);
        assert!(walk.first_empty().is_none());
        let evicted = a.occupant(walk.nodes[2].frame).unwrap();
        a.install(newcomer, &walk, 2, &mut moves);
        assert_eq!(a.lookup(evicted), None);
        assert!(a.lookup(newcomer).is_some());
        assert_eq!(a.occupancy(), 4);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut a = SetAssocArray::modulo(16, 4);
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        let addr = fill_addr(7);
        a.walk(addr, &mut walk);
        a.install(addr, &walk, 0, &mut moves);
        let f = a.invalidate(addr);
        assert!(f.is_some());
        assert_eq!(a.lookup(addr), None);
        assert_eq!(a.occupancy(), 0);
        assert_eq!(a.invalidate(addr), None);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        SetAssocArray::modulo(10, 4);
    }
}
