//! ZCache arrays (Sanchez & Kozyrakis, MICRO 2010).
//!
//! A zcache is a skew-associative cache whose replacement process walks the
//! hash positions of the lines it finds, obtaining an arbitrarily large
//! number of replacement candidates `R` with a small number of ways `W`:
//! depth 0 yields `W` candidates (the incoming line's own positions), depth 1
//! yields up to `W·(W-1)` more (each depth-0 line's alternative positions),
//! and so on. A Z4/52 cache is a 4-way zcache walking
//! `4 + 12 + 36 = 52` candidates.
//!
//! Evicting a candidate at depth `d` requires relocating `d` lines: the
//! victim's frame is filled by its parent's line, whose frame is filled by
//! the grandparent's line, until a depth-0 frame — one of the incoming
//! line's own hash positions — is freed. Because the candidates of a
//! well-hashed zcache are statistically close to a uniform random sample of
//! the cache's lines, the associativity distribution follows
//! `FA(x) = x^R` regardless of workload, which is the property Vantage's
//! analytical models are built on (paper §3.2).

use std::ops::ControlFlow;

use crate::array::{
    debug_check_walk, CacheArray, Frame, LineAddr, Walk, WalkNode, EMPTY_LINE, INVALID_FRAME,
};
use crate::hash::{WayHasher, WAY_LANES};

/// Most hash groups a zcache has: a walk node records its way in a byte,
/// so a zcache has at most 256 ways.
const MAX_GROUPS: usize = 64;

/// A zcache array: `ways` hashed banks with a multi-level candidate walk.
///
/// # Example
///
/// A Z4/52 configuration as used throughout the paper's evaluation:
///
/// ```
/// use vantage_cache::{CacheArray, LineAddr, Walk, ZArray};
///
/// let mut a = ZArray::new(32 * 1024, 4, 52, 0xFEED);
/// assert_eq!(a.candidates_per_walk(), 52);
/// let mut walk = Walk::new();
/// a.walk(LineAddr(7), &mut walk);
/// assert!(walk.len() >= 1); // empty frames terminate the walk early
/// ```
#[derive(Clone, Debug)]
pub struct ZArray {
    /// Packed line store, [`EMPTY_LINE`] marking free frames: one `u64` per
    /// frame instead of a 16-byte `Option<LineAddr>` halves the randomly
    /// probed footprint, which is what walk throughput is bound by.
    lines: Vec<u64>,
    /// Every way's H3 function, one bank of `hasher.buckets()` frames per
    /// way. A line's positions are hashed whenever they are needed, all
    /// ways in one table pass, so no per-frame position state is kept.
    hasher: WayHasher,
    max_candidates: usize,
    occupancy: usize,
    /// Frame-dedup scratch: `seen[f] == epoch` means frame `f` is already in
    /// the current walk. Epoch-stamping avoids clearing per walk; one byte
    /// per frame keeps the scratch cache-resident at the cost of a bulk
    /// clear every 255 walks.
    seen: Vec<u8>,
    epoch: u8,
}

impl ZArray {
    /// Creates a zcache with `ways` hash functions (derived from `seed`)
    /// that gathers up to `max_candidates` replacement candidates per walk.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not a positive multiple of `ways`, if
    /// `max_candidates < ways`, or if `ways < 2` (a 1-way zcache cannot
    /// expand its walk).
    pub fn new(frames: usize, ways: usize, max_candidates: usize, seed: u64) -> Self {
        assert!(ways >= 2, "a zcache needs at least 2 ways");
        assert!(
            frames > 0 && frames.is_multiple_of(ways),
            "frames must be a positive multiple of ways"
        );
        assert!(frames <= u32::MAX as usize, "frame count must fit in u32");
        assert!(
            max_candidates >= ways,
            "max_candidates must be at least the way count"
        );
        assert!(
            ways <= MAX_GROUPS * WAY_LANES,
            "a zcache has at most 256 ways"
        );
        let seeds: Vec<u64> = (0..ways)
            .map(|w| seed.wrapping_add(w as u64 * 0x9E37_79B9))
            .collect();
        Self {
            lines: vec![EMPTY_LINE; frames],
            hasher: WayHasher::new(&seeds, (frames / ways) as u32),
            max_candidates,
            occupancy: 0,
            seen: vec![0; frames],
            epoch: 0,
        }
    }
}

impl CacheArray for ZArray {
    fn num_frames(&self) -> usize {
        self.lines.len()
    }

    fn ways(&self) -> usize {
        self.hasher.ways()
    }

    fn candidates_per_walk(&self) -> usize {
        self.max_candidates
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
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Rare wrap (every 255 walks): reset stamps so stale epochs
            // cannot match.
            self.seen.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let ways = self.hasher.ways();
        // Nodes are distinct frames, so no walk outgrows the array.
        let max = self.max_candidates.min(self.lines.len());
        // Slices bound once, so the loops below keep their bases and lengths
        // in registers (reading them through `self` measured slower).
        let (lines, seen, hasher) = (&self.lines[..], &mut self.seen[..], &self.hasher);
        // Nodes are written by index into a buffer of `max` slots, cut to
        // the walk's length on return: no per-node push.
        walk.nodes
            .resize(max, WalkNode::new(INVALID_FRAME, false, None, 0));
        let nodes = &mut walk.nodes[..max];
        let mut n = 0;

        // Depth 0: the incoming line's own positions (distinct banks, so no
        // dedup needed among them). An empty frame ends the walk early —
        // the replacement process would use it directly.
        let depth0 = hasher.frames(addr.0, |w, frame| {
            seen[frame as usize] = epoch;
            let line = lines[frame as usize];
            nodes[n] = WalkNode::new(frame, line != EMPTY_LINE, None, w);
            n += 1;
            if line == EMPTY_LINE {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if depth0.is_break() {
            walk.nodes.truncate(n);
            return;
        }

        // BFS expansion: each occupied node contributes its line's
        // positions in the other ways, all hashed in one table pass. The
        // parent's way comes from the node itself, not a `frame /
        // bank_size` division.
        let (groups, bank_size) = (hasher.groups(), hasher.buckets());
        let mut buckets = [[0u32; WAY_LANES]; MAX_GROUPS];
        let mut cursor = 0;
        'bfs: while n < max && cursor < n {
            let parent = nodes[cursor];
            let line = lines[parent.frame as usize];
            for (g, b) in buckets[..groups].iter_mut().enumerate() {
                *b = hasher.group(line, g);
            }
            // Child `k` lies in way `k + (k >= own)`: every way but the
            // parent's own, chosen without a branch on the way.
            let own = parent.way();
            for k in 0..ways - 1 {
                let w = k + usize::from(k >= own);
                let frame = w as u32 * bank_size + buckets[w / WAY_LANES][w % WAY_LANES];
                if seen[frame as usize] == epoch {
                    continue; // duplicate frame, already a candidate
                }
                seen[frame as usize] = epoch;
                let occupant = lines[frame as usize];
                nodes[n] = WalkNode::new(frame, occupant != EMPTY_LINE, Some(cursor as u32), w);
                n += 1;
                if occupant == EMPTY_LINE || n == max {
                    break 'bfs;
                }
            }
            cursor += 1;
        }
        walk.nodes.truncate(n);
        debug_check_walk(walk, ways);
    }

    fn install(
        &mut self,
        addr: LineAddr,
        walk: &Walk,
        victim: usize,
        moves: &mut Vec<(Frame, Frame)>,
    ) -> Frame {
        assert_ne!(
            addr.0, EMPTY_LINE,
            "line address u64::MAX is reserved as the empty-frame sentinel"
        );
        let victim_node = walk.nodes[victim];
        debug_assert_eq!(
            self.occupant(victim_node.frame).is_some(),
            victim_node.is_occupied(),
            "stale walk passed to install"
        );
        if !victim_node.is_occupied() {
            self.occupancy += 1;
        }

        // Relocate from the victim up the parent chain: each node's frame
        // receives its parent's line, freeing a depth-0 frame for the
        // incoming line. The victim end moves first, so every destination
        // frame has just been vacated — the chain is walked directly, with
        // no per-install allocation. A relocated line keeps its hash
        // positions, so nothing but the line moves.
        let mut cur = victim;
        while let Some(p) = walk.nodes[cur].parent() {
            let (to, from) = (walk.nodes[cur].frame, walk.nodes[p as usize].frame);
            self.lines[to as usize] = self.lines[from as usize];
            moves.push((from, to));
            cur = p as usize;
        }
        let root = walk.nodes[cur].frame;
        self.lines[root as usize] = addr.0;
        root
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

impl vantage_snapshot::Snapshot for ZArray {
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
                "zcache has {} frames, snapshot has {}",
                self.lines.len(),
                lines.len()
            )));
        }
        self.occupancy = lines.iter().filter(|&&l| l != EMPTY_LINE).count();
        self.lines = lines;
        // Walk dedup stamps reset rather than restore: behavior-identical,
        // since stamps only live within one walk.
        self.seen.fill(0);
        self.epoch = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{mix64, H3Hasher};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vantage_snapshot::Snapshot;

    /// The frame `addr` maps to in `way`.
    fn frame_in_way(a: &ZArray, addr: LineAddr, way: usize) -> Frame {
        way as u32 * a.hasher.buckets() + a.hasher.group(addr.0, way / WAY_LANES)[way % WAY_LANES]
    }

    /// Checks the placement invariant: every line sits in one of the frames
    /// its hash functions map it to.
    fn check_placement(a: &ZArray) {
        for f in 0..a.num_frames() {
            if let Some(addr) = a.occupant(f as Frame) {
                let ok = (0..a.ways()).any(|w| frame_in_way(a, addr, w) == f as Frame);
                assert!(ok, "line {addr} at frame {f} violates placement invariant");
            }
        }
    }

    /// Fills the array via its own replacement process.
    fn fill(a: &mut ZArray, n: u64, rng: &mut SmallRng) {
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        for _ in 0..n {
            let addr = LineAddr(rng.gen::<u64>() >> 4);
            if a.lookup(addr).is_some() {
                continue;
            }
            a.walk(addr, &mut walk);
            let victim = walk
                .first_empty()
                .unwrap_or_else(|| rng.gen_range(0..walk.len()));
            a.install(addr, &walk, victim, &mut moves);
            moves.clear();
        }
    }

    #[test]
    fn z4_52_walk_reaches_52_candidates_when_full() {
        let mut a = ZArray::new(4096, 4, 52, 7);
        let mut rng = SmallRng::seed_from_u64(1);
        fill(&mut a, 40_000, &mut rng);
        assert_eq!(a.occupancy(), 4096, "array should be full");
        let mut walk = Walk::new();
        let mut total = 0usize;
        let trials = 200;
        for i in 0..trials {
            a.walk(LineAddr(0xABCD_0000 + i), &mut walk);
            total += walk.len();
            assert!(walk.len() <= 52);
        }
        // Hash collisions occasionally dedup a candidate, but the average
        // walk on a full array must be close to the nominal 52.
        assert!(
            total as f64 / trials as f64 > 50.0,
            "avg walk {}",
            total as f64 / trials as f64
        );
    }

    #[test]
    fn walk_levels_have_expected_structure() {
        let mut a = ZArray::new(4096, 4, 52, 8);
        let mut rng = SmallRng::seed_from_u64(2);
        fill(&mut a, 40_000, &mut rng);
        let mut walk = Walk::new();
        a.walk(LineAddr(0x1234_5678), &mut walk);
        // Depth of each node via parent chain.
        let mut depth = vec![0usize; walk.len()];
        for (i, n) in walk.nodes.iter().enumerate() {
            if let Some(p) = n.parent() {
                depth[i] = depth[p as usize] + 1;
            }
        }
        // Level sizes follow the zcache tree: exactly `ways` roots, at most
        // `ways·(ways-1)^k` nodes at depth k. (Hash collisions can dedup a
        // shallow candidate and push the BFS one level deeper, so the walk
        // is not strictly capped at 3 levels — the per-level bounds are the
        // structural invariant.)
        assert_eq!(depth.iter().filter(|&&d| d == 0).count(), 4);
        for k in 1..=depth.iter().copied().max().unwrap_or(0) {
            let cap = 4 * 3usize.pow(k as u32);
            assert!(depth.iter().filter(|&&d| d == k).count() <= cap);
        }
        // BFS order: depth never decreases along the candidate list.
        assert!(
            depth.windows(2).all(|w| w[0] <= w[1]),
            "walk is breadth-first"
        );
        // Each node carries the way its frame belongs to (the BFS relies on
        // this instead of dividing by the bank size).
        for n in &walk.nodes {
            assert_eq!(n.way(), (n.frame / a.hasher.buckets()) as usize);
        }
    }

    /// Zcache geometries `(frames, ways, candidates)`: Z2, Z3, Z4/16,
    /// Z4/52, Z8/64, and Z15/52, whose way count spans four hash groups
    /// with a partial last one.
    const GEOMETRIES: [(usize, usize, usize); 6] = [
        (256, 2, 8),
        (384, 3, 16),
        (512, 4, 16),
        (1024, 4, 52),
        (1024, 8, 64),
        (480, 15, 52),
    ];

    /// The replacement walk as the paper describes it, with nothing fused
    /// or stamped: every position is hashed by the way's own [`H3Hasher`],
    /// drawn from the array's construction `seed`, frames are deduplicated
    /// with a `HashSet`, and a frame's way is its index over the bank size.
    fn naive_walk(a: &ZArray, seed: u64, addr: LineAddr) -> Vec<WalkNode> {
        let bank = (a.num_frames() / a.ways()) as u32;
        let hashers: Vec<H3Hasher> = (0..a.ways() as u64)
            .map(|w| H3Hasher::new(seed.wrapping_add(w * 0x9E37_79B9)))
            .collect();
        let frame_in_way = |x: LineAddr, w: usize| w as u32 * bank + hashers[w].bucket(x.0, bank);
        let mut nodes = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for w in 0..a.ways() {
            let frame = frame_in_way(addr, w);
            assert!(seen.insert(frame), "depth-0 frames lie in distinct banks");
            let occupied = a.occupant(frame).is_some();
            nodes.push(WalkNode::new(frame, occupied, None, w));
            if !occupied {
                return nodes;
            }
        }
        let mut cursor = 0;
        while nodes.len() < a.candidates_per_walk() && cursor < nodes.len() {
            let parent = nodes[cursor].frame;
            let line = a.occupant(parent).expect("expanded nodes are occupied");
            let own = (parent / bank) as usize;
            for w in (0..a.ways()).filter(|&w| w != own) {
                let frame = frame_in_way(line, w);
                if !seen.insert(frame) {
                    continue;
                }
                let occupied = a.occupant(frame).is_some();
                nodes.push(WalkNode::new(frame, occupied, Some(cursor as u32), w));
                if !occupied || nodes.len() == a.candidates_per_walk() {
                    return nodes;
                }
            }
            cursor += 1;
        }
        nodes
    }

    /// Drives `a` with random installs (random victims, so lines relocate
    /// along deep chains) and invalidations over an address space twice
    /// its size, with a `save_state`/`load_state` round-trip halfway. The
    /// first `prefill` installs are unchecked; after each of the next
    /// `steps` operations every walk must match [`naive_walk`] node for
    /// node.
    fn check_against_naive(mut a: ZArray, prefill: usize, steps: usize, seed: u64) {
        let (frames, ways, candidates) = (a.num_frames(), a.ways(), a.candidates_per_walk());
        let mut rng = SmallRng::seed_from_u64(seed);
        let space = 2 * frames as u64;
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        let (mut relocated, mut full) = (0, 0);
        for step in 0..prefill + steps {
            let checked = step >= prefill;
            if step == prefill + steps / 2 {
                let mut enc = vantage_snapshot::Encoder::new();
                a.save_state(&mut enc);
                let bytes = enc.into_bytes();
                let mut restored = ZArray::new(frames, ways, candidates, seed);
                let mut dec = vantage_snapshot::Decoder::new(&bytes, "zarray");
                restored
                    .load_state(&mut dec)
                    .expect("same-geometry restore");
                dec.finish().expect("the whole payload is read");
                assert_eq!(restored.lines, a.lines);
                assert_eq!(restored.occupancy(), a.occupancy());
                a = restored;
            }
            let addr = LineAddr(mix64(rng.gen_range(0..space)) >> 1);
            if rng.gen_range(0..8) == 0 {
                a.invalidate(addr);
            } else if a.lookup(addr).is_none() {
                a.walk(addr, &mut walk);
                if checked {
                    assert_eq!(
                        walk.nodes,
                        naive_walk(&a, seed, addr),
                        "walk diverged at step {step}"
                    );
                    full += usize::from(walk.len() == candidates);
                }
                // An empty frame is always taken while prefilling and half
                // the time after, so the array stays near full while
                // evicting victims also see holes.
                let victim = walk
                    .first_empty()
                    .filter(|_| !checked || rng.gen_range(0..2) == 0)
                    .unwrap_or_else(|| rng.gen_range(0..walk.len()));
                a.install(addr, &walk, victim, &mut moves);
                relocated += usize::from(checked && !moves.is_empty());
                moves.clear();
            }
        }
        // Walks through the array's first and last frames, where the row
        // and bank arithmetic meet the ends of the stores: their depth-0
        // holes are filled first, so the walk expands past depth 0.
        for (way, frame) in [(0, 0), (ways - 1, frames as Frame - 1)] {
            let mut i = 0;
            loop {
                let addr = loop {
                    i += 1;
                    let x = LineAddr(mix64(seed ^ i) >> 1);
                    if frame_in_way(&a, x, way) == frame && a.lookup(x).is_none() {
                        break x;
                    }
                };
                a.walk(addr, &mut walk);
                assert_eq!(
                    walk.nodes,
                    naive_walk(&a, seed, addr),
                    "walk through frame {frame}"
                );
                match walk.first_empty() {
                    Some(v) if v < ways => a.install(addr, &walk, v, &mut moves),
                    _ => break,
                };
                moves.clear();
            }
        }
        check_placement(&a);
        assert!(full > steps / 8, "only {full} full-length walks");
        assert!(
            relocated > steps / 8,
            "only {relocated} relocating installs"
        );
    }

    #[test]
    fn walks_match_a_naive_reference() {
        for (i, &(frames, ways, candidates)) in GEOMETRIES.iter().enumerate() {
            let a = ZArray::new(frames, ways, candidates, 30 + i as u64);
            check_against_naive(a, 0, 6 * frames, 30 + i as u64);
        }
        // Banks of 65 537 buckets, past what a `u16` bucket could hold.
        let a = ZArray::new(4 * 65_537, 4, 52, 37);
        check_against_naive(a, 2 * 4 * 65_537, 4000, 37);
    }

    #[test]
    fn relocations_preserve_placement_invariant() {
        let mut a = ZArray::new(1024, 4, 52, 9);
        let mut rng = SmallRng::seed_from_u64(3);
        fill(&mut a, 20_000, &mut rng);
        check_placement(&a);
    }

    #[test]
    fn deep_eviction_reports_moves_and_keeps_lines_findable() {
        let mut a = ZArray::new(1024, 4, 52, 10);
        let mut rng = SmallRng::seed_from_u64(4);
        fill(&mut a, 10_000, &mut rng);
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        let addr = LineAddr(0xBEEF_0001);
        a.walk(addr, &mut walk);
        // Pick the deepest candidate.
        let mut depth = vec![0usize; walk.len()];
        for (i, n) in walk.nodes.iter().enumerate() {
            if let Some(p) = n.parent() {
                depth[i] = depth[p as usize] + 1;
            }
        }
        let (victim, &d) = depth.iter().enumerate().max_by_key(|(_, &d)| d).unwrap();
        let displaced: Vec<LineAddr> = {
            // The victim's ancestors' lines will be relocated; they must all
            // remain findable afterwards.
            let mut v = Vec::new();
            let mut i = victim;
            while let Some(p) = walk.nodes[i].parent() {
                v.push(a.occupant(walk.nodes[p as usize].frame).unwrap());
                i = p as usize;
            }
            v
        };
        a.install(addr, &walk, victim, &mut moves);
        assert_eq!(moves.len(), d, "evicting at depth d takes d moves");
        assert!(a.lookup(addr).is_some());
        for l in displaced {
            assert!(a.lookup(l).is_some(), "relocated line {l} lost");
        }
        check_placement(&a);
    }

    #[test]
    fn empty_frame_terminates_walk() {
        let mut a = ZArray::new(1024, 4, 52, 11);
        let mut walk = Walk::new();
        a.walk(LineAddr(1), &mut walk);
        // Cold array: the very first candidate is empty.
        assert_eq!(walk.len(), 1);
        assert!(!walk.nodes[0].is_occupied());
    }

    #[test]
    fn occupancy_tracks_installs_and_evictions() {
        let mut a = ZArray::new(64, 4, 16, 12);
        let mut walk = Walk::new();
        let mut moves = Vec::new();
        for i in 0..64u64 {
            let addr = LineAddr(i);
            a.walk(addr, &mut walk);
            let v = walk.first_empty().unwrap_or(0);
            a.install(addr, &walk, v, &mut moves);
            moves.clear();
        }
        let occ = a.occupancy();
        // Now every install on a full array must keep occupancy constant.
        for i in 64..96u64 {
            let addr = LineAddr(i);
            a.walk(addr, &mut walk);
            let v = walk.first_empty().unwrap_or(walk.len() - 1);
            a.install(addr, &walk, v, &mut moves);
            moves.clear();
        }
        assert!(a.occupancy() >= occ);
        assert!(a.occupancy() <= 64);
    }

    #[test]
    #[should_panic(expected = "at least 2 ways")]
    fn one_way_zcache_rejected() {
        ZArray::new(64, 1, 4, 0);
    }
}
