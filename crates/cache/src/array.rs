//! The [`CacheArray`] abstraction: physical frame containers with
//! replacement-candidate walks.
//!
//! Vantage is array-agnostic: it enforces partition sizes purely through the
//! replacement process, so all it needs from the underlying array is
//! (1) associative lookup and (2) a list of *replacement candidates* on each
//! eviction. Arrays differ in how many candidates they provide and how close
//! those candidates are to a uniform random sample of the cache's lines
//! (paper §3.2).
//!
//! A [`Walk`] captures one replacement's candidates together with the parent
//! links needed to perform zcache-style relocations: evicting a candidate at
//! depth `d` frees its depth-0 ancestor frame (one of the incoming line's own
//! hash positions) by moving `d` intermediate lines one step each.

use std::fmt;

/// A cache-line address (the memory address divided by the line size).
///
/// A newtype rather than a bare `u64` so that line addresses, byte addresses
/// and frame indices cannot be confused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

/// Index of a physical frame (a line-sized slot) within an array.
///
/// Frames are numbered `0..num_frames()` and identify where per-line
/// metadata lives: callers keep metadata in a `Vec` indexed by frame and
/// mirror the moves reported by [`CacheArray::install`].
pub type Frame = u32;

/// Sentinel for "no frame".
pub const INVALID_FRAME: Frame = u32::MAX;

/// Sentinel marking an empty frame in the arrays' packed line stores.
///
/// Arrays store one raw `u64` per frame instead of a 16-byte
/// `Option<LineAddr>`, halving the randomly probed footprint of the
/// lookup/walk hot path; [`CacheArray::install`] rejects this address.
pub(crate) const EMPTY_LINE: u64 = u64::MAX;

/// Sentinel for "depth-0 node, no parent" in [`WalkNode`]'s packed parent
/// index. Walks are far shorter than `u16::MAX` nodes (R ≤ 64 in every
/// paper configuration), so a `u16` index always fits.
const NO_PARENT: u16 = u16::MAX;

/// One node of a replacement-candidate walk.
///
/// Packed to 8 bytes: the walk buffer is re-read by every stage of a
/// replacement — candidate scan, victim selection, relocation — so keeping
/// a whole Z4/52 walk in seven cache lines measurably cuts hot-path
/// traffic. Instead of the resident line (which stages re-read from the
/// array when they truly need it, i.e. almost never), the node carries an
/// occupancy flag plus the frame's *way*, sparing the zcache BFS a
/// `frame / bank_size` division per expanded parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkNode {
    /// The physical frame this candidate occupies.
    pub frame: Frame,
    /// Parent index, [`NO_PARENT`]-encoded.
    parent_raw: u16,
    /// The way (bank) `frame` belongs to; 0 for arrays without way
    /// structure.
    way: u8,
    /// 1 if the frame held a line when the walk was gathered.
    occupied: u8,
}

impl WalkNode {
    /// Builds a node for `frame` (resident in `way`, `occupied` or empty),
    /// expanded from the walk node at index `parent`.
    #[inline]
    pub fn new(frame: Frame, occupied: bool, parent: Option<u32>, way: usize) -> Self {
        debug_assert!(way <= u8::MAX as usize, "way index must fit in u8");
        let parent_raw = match parent {
            Some(p) => {
                debug_assert!(p < u32::from(NO_PARENT), "parent index must fit in u16");
                p as u16
            }
            None => NO_PARENT,
        };
        Self {
            frame,
            parent_raw,
            way: way as u8,
            occupied: occupied as u8,
        }
    }

    /// Whether the candidate frame held a line when the walk was gathered.
    #[inline]
    pub fn is_occupied(&self) -> bool {
        self.occupied != 0
    }

    /// The way (bank) the candidate frame belongs to.
    #[inline]
    pub fn way(&self) -> usize {
        self.way as usize
    }

    /// Index (into [`Walk::nodes`]) of the parent node, or `None` at depth 0.
    ///
    /// The parent chain leads to a depth-0 frame, which is one of the
    /// incoming line's own hash positions.
    #[inline]
    pub fn parent(&self) -> Option<u32> {
        (self.parent_raw != NO_PARENT).then_some(u32::from(self.parent_raw))
    }
}

/// A reusable buffer holding the candidates of one replacement.
///
/// Candidates appear in breadth-first order: the first `ways` nodes are the
/// incoming line's own positions (depth 0), followed by deeper zcache
/// expansion levels, if any.
#[derive(Clone, Debug, Default)]
pub struct Walk {
    /// The candidate nodes, breadth-first.
    pub nodes: Vec<WalkNode>,
}

impl Walk {
    /// Creates an empty walk buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty walk buffer with room for `cap` candidates.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
        }
    }

    /// Removes all candidates, keeping the allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Number of candidates gathered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the walk holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the first empty (invalid) candidate frame, if any.
    pub fn first_empty(&self) -> Option<usize> {
        self.nodes.iter().position(|n| !n.is_occupied())
    }

    /// Iterates over `(index, node)` pairs of candidates holding valid lines.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, &WalkNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_occupied())
    }
}

/// A physical cache array: lookup, candidate generation and installation.
///
/// Implementations must maintain the *placement invariant*: every stored line
/// resides in one of the frames its hash functions map it to. For zcaches
/// this means [`install`](CacheArray::install) may relocate lines along the
/// walk's parent chain; the moves are reported so the caller can relocate
/// per-frame metadata in lockstep.
///
/// The trait is object-safe so that last-level caches can be generic over
/// arrays at run time. It is additionally `Send` so that whole cache object
/// graphs can move between threads, and
/// [`Snapshot`](vantage_snapshot::Snapshot) so that checkpoint/restore can
/// serialize arrays behind trait objects. Arrays save only their resident
/// lines (plus any replacement RNG); derived structures — occupancy
/// counters, walk-dedup stamps, probe caches — are rebuilt or reset on
/// load, and hash tables come from the construction seed, so a restore
/// goes into an array *constructed from the same configuration and seed*
/// as the one saved. No array keeps per-frame state derived from its
/// lines' hash positions: a zcache re-hashes a line whenever its walk
/// expands it.
pub trait CacheArray: Send + vantage_snapshot::Snapshot {
    /// Total number of frames (the cache's capacity in lines).
    fn num_frames(&self) -> usize;

    /// Number of ways (hash functions); depth-0 candidates per walk.
    fn ways(&self) -> usize;

    /// Nominal number of replacement candidates per walk (`R` in the paper).
    fn candidates_per_walk(&self) -> usize;

    /// Returns the frame holding `addr`, if present.
    fn lookup(&self, addr: LineAddr) -> Option<Frame>;

    /// Fills `walk` with replacement candidates for incoming line `addr`.
    ///
    /// `walk` is cleared first. After return it holds at least one node
    /// (arrays never have zero ways) and at most
    /// [`candidates_per_walk`](CacheArray::candidates_per_walk) nodes —
    /// deduplicated, so fewer may appear when hash positions collide.
    fn walk(&mut self, addr: LineAddr, walk: &mut Walk);

    /// Installs `addr`, evicting the candidate at `walk.nodes[victim]`.
    ///
    /// Any relocations performed (zcache chain moves) are appended to
    /// `moves` as `(from_frame, to_frame)` pairs in the order applied, so the
    /// caller can mirror them onto its metadata *after* retiring the victim's
    /// metadata. Returns the frame where `addr` was placed (always a depth-0
    /// frame of `addr`'s walk).
    ///
    /// # Panics
    ///
    /// Panics if `victim` is out of bounds for `walk`, or if `walk` was not
    /// produced for `addr` by this array in its current state.
    fn install(
        &mut self,
        addr: LineAddr,
        walk: &Walk,
        victim: usize,
        moves: &mut Vec<(Frame, Frame)>,
    ) -> Frame;

    /// Removes `addr` from the array, returning the frame it occupied.
    fn invalidate(&mut self, addr: LineAddr) -> Option<Frame>;

    /// The line stored in `frame`, if any.
    fn occupant(&self, frame: Frame) -> Option<LineAddr>;

    /// Number of valid lines currently stored.
    fn occupancy(&self) -> usize;
}

/// Checks, in debug builds, that a walk's parent links are well formed:
/// parents always precede children and depth-0 nodes have no parent.
pub(crate) fn debug_check_walk(walk: &Walk, ways: usize) {
    debug_assert!(walk.nodes.len() <= u32::MAX as usize);
    for (i, n) in walk.nodes.iter().enumerate() {
        match n.parent() {
            None => debug_assert!(i < ways, "non-root node {i} lacks parent"),
            Some(p) => debug_assert!((p as usize) < i, "parent {p} not before child {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_formats() {
        let a = LineAddr(0xABC);
        assert_eq!(format!("{a}"), "0xabc");
        assert_eq!(format!("{a:?}"), "LineAddr(0xabc)");
        assert_eq!(LineAddr::from(5u64), LineAddr(5));
    }

    #[test]
    fn walk_helpers() {
        let mut w = Walk::with_capacity(4);
        assert!(w.is_empty());
        w.nodes.push(WalkNode::new(0, true, None, 0));
        w.nodes.push(WalkNode::new(1, false, None, 1));
        w.nodes.push(WalkNode::new(2, true, Some(0), 2));
        assert_eq!(w.len(), 3);
        assert_eq!(w.first_empty(), Some(1));
        let occ: Vec<usize> = w.occupied().map(|(i, _)| i).collect();
        assert_eq!(occ, vec![0, 2]);
        assert_eq!(std::mem::size_of::<WalkNode>(), 8, "walk node stays packed");
        assert_eq!(w.nodes[0].parent(), None);
        assert_eq!(w.nodes[2].parent(), Some(0));
        assert_eq!(w.nodes[2].way(), 2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.first_empty(), None);
    }
}
