//! Dense structure-of-arrays per-frame tag metadata.
//!
//! Partitioned caches extend every frame's tag with a partition ID and a
//! small replacement stamp (an 8-bit coarse timestamp or an RRPV). Keeping
//! those as an array-of-structs (`Vec<Tag { part, ts }>`) wastes a padding
//! byte per frame and, worse, makes the demotion candidate scan read
//! strided 4-byte records. [`TagMeta`] stores the two fields as separate
//! contiguous lanes instead:
//!
//! * `parts: Vec<u16>` — the owning partition of each frame, with the
//!   reserved sentinel [`TAG_UNMANAGED`] (`u16::MAX`) for lines in the
//!   unmanaged region **and** for frames that have never been filled.
//!   A never-filled frame is therefore distinguishable from a partition-0
//!   line by its tag alone, which the scrub/audit paths rely on.
//! * `ts: Vec<u8>` — the timestamp / RRPV lane.
//!
//! The lanes are exposed both element-wise (hot-path accessors, all
//! `#[inline]`) and as whole slices, so candidate scans and scrub passes
//! can run branchless, autovectorizable loops over contiguous `u16`/`u8`
//! data. Snapshot encoding is left to the owning cache: the lanes
//! serialize naturally as one `u16` slice plus one `u8` slice.
//!
//! Every lane write also maintains a count of lines per (partition,
//! stamp) pair, sized by the partition table rather than by the IDs the
//! lanes happen to hold. It is the one such count in the workspace: the
//! aliasing clamp ([`TagMeta::clamp_stale`]) reads it to know how many
//! lines to find, and the Vantage controller and the priority probes read
//! ranks from its rows ([`TagMeta::rank`]).

use crate::array::{prefetch_slice, Frame};

/// The reserved partition ID tagging unmanaged lines and never-filled
/// frames. Valid partition IDs are `0..TAG_UNMANAGED`.
pub const TAG_UNMANAGED: u16 = u16::MAX;

/// Size of the stamp domain (8-bit coarse timestamps / RRPVs).
const STAMP_DOMAIN: usize = 256;

/// The eviction-priority rank of a line stamped `ts` among `total` lines
/// whose stamps `counts` tallies, when the domain's clock reads
/// `current`: the fraction of lines that are *younger* (smaller age,
/// where age = `current - ts` mod 256), counting ties as half. Returns 0.5
/// when `total` is 0.
///
/// Older lines get ranks near 1.0 — they are what LRU wants to evict.
/// With 8-bit coarse timestamps the rank is exact to within a timestamp
/// quantum, which is also exactly the precision the hardware has.
///
/// ```
/// use vantage_cache::stamp_rank;
///
/// let mut counts = [0u32; 256];
/// for ts in [10, 11, 12] {
///     counts[ts] += 1;
/// }
/// // With the clock at 12, the line stamped 10 is the oldest of the 3:
/// // both other lines are strictly younger (2 of 3), and the line itself
/// // counts as half a tie, so its rank is (2 + 1/2) / 3 = 5/6.
/// assert_eq!(stamp_rank(&counts, 3, 10, 12), 5.0 / 6.0);
/// ```
pub fn stamp_rank(counts: &[u32; STAMP_DOMAIN], total: u64, ts: u8, current: u8) -> f64 {
    if total == 0 {
        return 0.5;
    }
    // The younger stamps are `ts + 1 ..= current`, wrapping past 255: one
    // or two contiguous runs of the row.
    let sum = |run: &[u32]| run.iter().map(|&c| u64::from(c)).sum::<u64>();
    let (from, to) = (ts as usize + 1, current as usize + 1);
    let younger = if from <= to {
        sum(&counts[from..to])
    } else {
        sum(&counts[from..]) + sum(&counts[..to])
    };
    let ties = u64::from(counts[ts as usize]);
    (younger as f64 + ties as f64 / 2.0) / total as f64
}

/// Structure-of-arrays per-frame (partition ID, timestamp/RRPV) store.
#[derive(Clone, Debug)]
pub struct TagMeta {
    parts: Vec<u16>,
    ts: Vec<u8>,
    /// Lines per (partition, stamp) pair: `counts[row(part) * 256 + ts]`.
    ///
    /// Every lane write maintains this index. [`Self::clamp_stale`] reads
    /// it to know how many lines it must find: a zero count returns at
    /// once, and a nonzero one lets the chunked search stop at the last
    /// match instead of reading the rest of the array. Both shortcuts are
    /// only correct because the count is exact, which is why there is no
    /// mutable slice access to the lanes. Rank readers read whole rows
    /// ([`Self::stamp_counts`]).
    ///
    /// Row 0 counts the sentinel, row `p + 1` partition `p` for every `p`
    /// below the partition count, and the last row — the overflow row —
    /// every ID at or above it, which only a corrupted tag carries (a
    /// fault flip or a restored payload). The index therefore costs
    /// `(partitions + 2)` KiB whatever IDs the lanes hold.
    counts: Vec<u32>,
    /// The overflow row: the partition count plus one.
    overflow: usize,
    /// Per count-index row, the frames its last [`Self::clamp_stale`]
    /// pinned: the re-pin list. A hint, never trusted — each use checks
    /// the listed frames against the lanes and their number against the
    /// exact count — so no lane write maintains it and snapshots never
    /// see it. Rebuilding the index drops every list; growth that only
    /// appends rows keeps them, since the existing rows keep their lines.
    repin: Vec<Vec<u32>>,
    /// Clamps served from the re-pin list and by the chunked search.
    #[cfg(test)]
    clamp_paths: (usize, usize),
}

impl TagMeta {
    /// A store whose count index has no partition rows: every partition
    /// ID shares the overflow row, so [`Self::clamp_stale`] may only be
    /// asked about [`TAG_UNMANAGED`]. The caches build theirs with
    /// [`Self::with_partitions`]; this constructor stays because the
    /// frozen `benchmark/` tag-gather probe calls it (it reads the lanes
    /// only) and goes with the benchmark-side follow-up.
    pub fn new(frames: usize) -> Self {
        Self::with_partitions(frames, 0)
    }

    /// Creates a store for `frames` frames of a cache with `partitions`
    /// partitions, every tag reset to the never-filled state
    /// (`TAG_UNMANAGED`, stamp 0).
    pub fn with_partitions(frames: usize, partitions: usize) -> Self {
        let overflow = partitions + 1;
        let mut counts = vec![0u32; (overflow + 1) * STAMP_DOMAIN];
        counts[0] = frames as u32; // all frames: (TAG_UNMANAGED, 0)
        Self {
            parts: vec![TAG_UNMANAGED; frames],
            ts: vec![0; frames],
            counts,
            overflow,
            repin: Vec::new(),
            #[cfg(test)]
            clamp_paths: (0, 0),
        }
    }

    /// Re-sizes the index for a partition table of `partitions` entries.
    ///
    /// Growth appends zeroed rows when the overflow row is empty, which it
    /// always is without faults: no line carries an ID at or above the old
    /// count, so none carries one of the new IDs either. Otherwise (a
    /// corrupted tag might carry a newly valid ID) and on shrinking, the
    /// index is rebuilt from the lanes, O(frames).
    pub fn resize_partitions(&mut self, partitions: usize) {
        let overflow = partitions + 1;
        if overflow == self.overflow {
            return;
        }
        let spill = self.row_counts(self.overflow).iter().any(|&c| c != 0);
        let grows = overflow > self.overflow;
        self.overflow = overflow;
        if grows && !spill {
            // Capacity stays a power-of-two number of rows: a table grown
            // one partition at a time reallocates O(log n) times and never
            // holds more than twice the rows it uses.
            let len = (overflow + 1) * STAMP_DOMAIN;
            self.counts
                .reserve_exact(len.next_power_of_two() - self.counts.len());
            self.counts.resize(len, 0);
        } else {
            self.rebuild_counts();
        }
    }

    /// Rows the count index holds, one KiB each: the partition count plus
    /// the sentinel's and the overflow row. Instrumentation for tests.
    pub fn index_rows(&self) -> usize {
        self.counts.len() / STAMP_DOMAIN
    }

    /// Lines per stamp among those tagged `part`: the count index's row.
    /// IDs at or above the partition count share the overflow row.
    #[inline]
    pub fn stamp_counts(&self, part: u16) -> &[u32; STAMP_DOMAIN] {
        self.row_counts(self.row(part))
    }

    /// The [`stamp_rank`] of a line tagged `(part, ts)` among the lines
    /// `part`'s count row holds, when `part`'s clock reads `current`. The
    /// total is the row's sum, so it counts exactly the lines tagged
    /// `part` whatever any size register says.
    #[inline]
    pub fn rank(&self, part: u16, ts: u8, current: u8) -> f64 {
        let row = self.stamp_counts(part);
        // At most the frame count, so a u32 sum cannot overflow, and it
        // vectorizes without widening (the idealized controller ranks most
        // candidates of every walk).
        let total: u32 = row.iter().sum();
        stamp_rank(row, u64::from(total), ts, current)
    }

    /// Row `row` of the count index.
    #[inline]
    fn row_counts(&self, row: usize) -> &[u32; STAMP_DOMAIN] {
        self.counts[row * STAMP_DOMAIN..][..STAMP_DOMAIN]
            .try_into()
            .expect("a row holds the stamp domain")
    }

    /// The count-index row of `part`: `TAG_UNMANAGED` wraps to row 0,
    /// partition `p` lives at row `p + 1`, and every ID at or above the
    /// partition count at the overflow row.
    #[inline]
    fn row(&self, part: u16) -> usize {
        (part.wrapping_add(1) as usize).min(self.overflow)
    }

    /// Index of `(part, ts)` in the count lane.
    #[inline]
    fn count_idx(&self, part: u16, ts: u8) -> usize {
        self.row(part) * STAMP_DOMAIN + ts as usize
    }

    /// Moves one line's count from tag `(op, ot)` to tag `(np, nt)`.
    #[inline]
    fn recount(&mut self, op: u16, ot: u8, np: u16, nt: u8) {
        let old = self.count_idx(op, ot);
        self.counts[old] -= 1;
        let new = self.count_idx(np, nt);
        self.counts[new] += 1;
    }

    /// Rebuilds the count index from the lanes (wholesale lane loads and
    /// partition-count changes that cannot just append rows).
    fn rebuild_counts(&mut self) {
        self.repin.clear();
        self.counts.clear();
        self.counts.resize((self.overflow + 1) * STAMP_DOMAIN, 0);
        for (&p, &t) in self.parts.iter().zip(self.ts.iter()) {
            let idx = self.count_idx(p, t);
            self.counts[idx] += 1;
        }
    }

    /// Number of frames covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the store covers zero frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partition ID of frame `f`.
    #[inline]
    pub fn part(&self, f: usize) -> u16 {
        self.parts[f]
    }

    /// The timestamp / RRPV of frame `f`.
    #[inline]
    pub fn ts(&self, f: usize) -> u8 {
        self.ts[f]
    }

    /// Writes both lanes of frame `f`.
    #[inline]
    pub fn set(&mut self, f: usize, part: u16, ts: u8) {
        self.recount(self.parts[f], self.ts[f], part, ts);
        self.parts[f] = part;
        self.ts[f] = ts;
    }

    /// Writes only the partition lane of frame `f`.
    #[inline]
    pub fn set_part(&mut self, f: usize, part: u16) {
        self.recount(self.parts[f], self.ts[f], part, self.ts[f]);
        self.parts[f] = part;
    }

    /// Writes only the timestamp lane of frame `f`.
    #[inline]
    pub fn set_ts(&mut self, f: usize, ts: u8) {
        self.recount(self.parts[f], self.ts[f], self.parts[f], ts);
        self.ts[f] = ts;
    }

    /// Copies frame `from`'s tag into frame `to` (line relocation).
    #[inline]
    pub fn copy(&mut self, from: Frame, to: Frame) {
        let (f, t) = (from as usize, to as usize);
        self.recount(self.parts[t], self.ts[t], self.parts[f], self.ts[f]);
        self.parts[t] = self.parts[f];
        self.ts[t] = self.ts[f];
    }

    /// The whole partition lane.
    #[inline]
    pub fn parts(&self) -> &[u16] {
        &self.parts
    }

    /// The whole timestamp lane.
    #[inline]
    pub fn ts_lane(&self) -> &[u8] {
        &self.ts
    }

    /// Replaces both lanes wholesale (snapshot restore), rebuilding the
    /// count index within the same partition bound: whatever IDs the
    /// lanes carry, those at or above the partition count land in the
    /// overflow row. (There is deliberately no mutable slice access: every
    /// lane write must go through the setters so the index stays exact.)
    ///
    /// # Panics
    ///
    /// Panics if the lanes disagree with the store's frame count.
    pub fn load_lanes(&mut self, parts: Vec<u16>, ts: Vec<u8>) {
        assert_eq!(parts.len(), self.parts.len(), "partition lane length");
        assert_eq!(ts.len(), self.ts.len(), "timestamp lane length");
        self.parts = parts;
        self.ts = ts;
        self.rebuild_counts();
    }

    /// Issues prefetch hints for frame `f`'s entries in both lanes.
    #[inline]
    pub fn prefetch(&self, f: usize) {
        prefetch_slice(&self.parts, f);
        prefetch_slice(&self.ts, f);
    }

    /// Pins lines of `part` whose stamp is exactly `aliasing_ts` one tick
    /// behind it, i.e. at the maximum age of 255.
    ///
    /// Called right after a partition's coarse-timestamp clock advances to
    /// `aliasing_ts` and *before* any line is stamped with the new value:
    /// at that moment the only resident lines carrying `aliasing_ts` are
    /// ones stamped a full 256 ticks ago, which the 8-bit age arithmetic
    /// `current - ts` would otherwise alias to age 0 — back inside every
    /// keep window, dodging demotion indefinitely. Re-stamping them to
    /// `aliasing_ts + 1` reads as age 255 now and on every later tick
    /// (each subsequent advance re-pins them), so truly stale lines stay
    /// the oldest instead of the youngest.
    ///
    /// The count index says how many lines carry `(part, aliasing_ts)`.
    /// Zero returns at once. Otherwise the row's re-pin list — the frames
    /// its previous clamp pinned — is tried first: an aliased line is
    /// re-pinned on *every* later tick of its owner, and small
    /// service-mode partitions tick every access or two, so the lines
    /// this clamp must find are usually exactly the ones the last one
    /// pinned, one stamp further on. The listed frames that still carry
    /// `(part, aliasing_ts)` are kept; if they number exactly the count,
    /// they are every such line (the index is exact and the list holds no
    /// frame twice), so they are re-pinned and nothing is searched.
    ///
    /// Otherwise — a line aliased for the first time, or a listed one was
    /// evicted, moved or restamped — the lanes are searched in 64-frame
    /// chunks: a read-only "any match" reduction over both lanes rejects a
    /// chunk, only matching chunks are rewritten, and the search stops
    /// once it has found as many lines as the index holds. The cost is
    /// O(frames up to the last match) instead of O(frames) per tick. The
    /// frames it pins become the row's new list. Debug builds recount the
    /// whole lane against the index first; release builds never read past
    /// the last match.
    ///
    /// `part` must be [`TAG_UNMANAGED`] or below the partition count: the
    /// overflow row counts several IDs at once, so it cannot say how many
    /// lines carry one of them.
    ///
    /// Returns how many frames were pinned.
    pub fn clamp_stale(&mut self, part: u16, aliasing_ts: u8) -> usize {
        debug_assert!(
            self.row(part) < self.overflow,
            "clamp asked about overflow ID {part}"
        );
        let idx = self.count_idx(part, aliasing_ts);
        let want = self.counts[idx] as usize;
        if want == 0 {
            return 0;
        }
        debug_assert_eq!(
            self.parts
                .iter()
                .zip(&self.ts)
                .filter(|&(&p, &t)| (p == part) & (t == aliasing_ts))
                .count(),
            want,
            "count index exact"
        );
        let row = self.row(part);
        if self.repin.len() <= row {
            self.repin.resize_with(self.overflow + 1, Vec::new);
        }
        let list = &mut self.repin[row];
        let (parts, ts) = (&self.parts, &mut self.ts);
        list.retain(|&f| (parts[f as usize] == part) & (ts[f as usize] == aliasing_ts));
        let pinned = aliasing_ts.wrapping_add(1);
        if list.len() == want {
            for &f in list.iter() {
                ts[f as usize] = pinned;
            }
            #[cfg(test)]
            {
                self.clamp_paths.0 += 1;
            }
        } else {
            list.clear();
            let mut parts = parts.chunks_exact(CLAMP_CHUNK);
            let mut chunks = ts.chunks_exact_mut(CLAMP_CHUNK);
            let mut base = 0;
            for (p, t) in (&mut parts).zip(&mut chunks) {
                pin_chunk(p, t, base, part, aliasing_ts, list);
                if list.len() == want {
                    break;
                }
                base += CLAMP_CHUNK;
            }
            if list.len() < want {
                let (p, t) = (parts.remainder(), chunks.into_remainder());
                let base = self.parts.len() - p.len();
                pin_chunk(p, t, base, part, aliasing_ts, list);
            }
            #[cfg(test)]
            {
                self.clamp_paths.1 += 1;
            }
        }
        let found = self.repin[row].len();
        self.counts[idx] -= found as u32;
        let to = self.count_idx(part, pinned);
        self.counts[to] += found as u32;
        found
    }
}

/// Frames per chunk of the [`TagMeta::clamp_stale`] search.
const CLAMP_CHUNK: usize = 64;

/// Re-stamps the `(part, stamp)` frames of one chunk, whose first frame
/// is `base`, to `stamp + 1` and appends them to `pinned`. A read-only,
/// non-short-circuit "any match" reduction over both lanes rejects the
/// chunk first, so chunks without a match are never written.
#[inline(always)]
fn pin_chunk(
    parts: &[u16],
    ts: &mut [u8],
    base: usize,
    part: u16,
    stamp: u8,
    pinned: &mut Vec<u32>,
) {
    let hit = |p: u16, t: u8| u8::from(p == part) & u8::from(t == stamp);
    if parts
        .iter()
        .zip(ts.iter())
        .fold(0, |any, (&p, &t)| any | hit(p, t))
        == 0
    {
        return;
    }
    for (f, (&p, t)) in parts.iter().zip(ts.iter_mut()).enumerate() {
        if hit(p, *t) != 0 {
            *t = stamp.wrapping_add(1);
            pinned.push((base + f) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_store_is_unmanaged_everywhere() {
        let m = TagMeta::new(8);
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
        for f in 0..8 {
            assert_eq!(
                m.part(f),
                TAG_UNMANAGED,
                "frame {f} must default to the sentinel"
            );
            assert_eq!(m.ts(f), 0);
        }
    }

    #[test]
    fn set_and_copy_move_both_lanes() {
        let mut m = TagMeta::new(4);
        m.set(1, 7, 42);
        assert_eq!((m.part(1), m.ts(1)), (7, 42));
        m.copy(1, 3);
        assert_eq!((m.part(3), m.ts(3)), (7, 42));
        m.set_part(3, 2);
        m.set_ts(3, 9);
        assert_eq!((m.part(3), m.ts(3)), (2, 9));
        assert_eq!((m.part(1), m.ts(1)), (7, 42), "source unchanged");
    }

    #[test]
    fn clamp_stale_pins_only_matching_lines() {
        let mut m = TagMeta::with_partitions(6, 6);
        m.set(0, 3, 10); // target partition, aliasing stamp -> pinned
        m.set(1, 3, 11); // target partition, other stamp -> untouched
        m.set(2, 5, 10); // other partition, aliasing stamp -> untouched
        m.set(3, 3, 10); // target partition, aliasing stamp -> pinned
        m.set(4, TAG_UNMANAGED, 10); // unmanaged -> untouched here
        assert_eq!(m.clamp_stale(3, 10), 2, "two lines of partition 3 pinned");
        assert_eq!(m.ts(0), 11);
        assert_eq!(m.ts(1), 11);
        assert_eq!(m.ts(2), 10);
        assert_eq!(m.ts(3), 11);
        assert_eq!(m.ts(4), 10);
        // The unmanaged domain clamps with the sentinel as the partition.
        assert_eq!(m.clamp_stale(TAG_UNMANAGED, 10), 1);
        assert_eq!(m.ts(4), 11);
    }

    #[test]
    fn clamp_stale_wraps_at_the_domain_edge() {
        let mut m = TagMeta::with_partitions(1, 1);
        m.set(0, 0, 255);
        assert_eq!(m.clamp_stale(0, 255), 1);
        assert_eq!(m.ts(0), 0, "pin wraps modulo 256");
    }

    #[test]
    fn count_index_stays_exact_through_every_setter() {
        // The clamp fast path trusts the per-(part, ts) counts; drive every
        // mutation kind and check the sweep agrees with the index (the
        // debug_assert inside clamp_stale cross-checks the full count).
        let mut m = TagMeta::with_partitions(8, 8);
        assert_eq!(m.clamp_stale(TAG_UNMANAGED, 0), 8, "init state counted");
        m.set(0, 3, 10);
        m.set(1, 3, 10);
        m.copy(0, 2); // (3, 10) again
        m.set_part(2, 5); // now (5, 10)
        m.set_ts(1, 11); // now (3, 11)
        assert_eq!(m.clamp_stale(3, 10), 1, "only frame 0 left at (3, 10)");
        assert_eq!(m.clamp_stale(3, 11), 2, "frame 1 plus frame 0's pin");
        assert_eq!(m.clamp_stale(5, 10), 1);
        assert_eq!(m.clamp_stale(5, 10), 0, "pinned away: skip is exact");
        m.load_lanes(vec![7; 8], vec![200; 8]);
        assert_eq!(m.clamp_stale(7, 200), 8, "load_lanes rebuilds the index");
    }

    /// The obviously-correct clamp: visit every frame.
    fn naive_clamp(parts: &[u16], ts: &mut [u8], part: u16, stamp: u8) -> usize {
        let mut n = 0;
        for (p, t) in parts.iter().zip(ts.iter_mut()) {
            if *p == part && *t == stamp {
                *t = stamp.wrapping_add(1);
                n += 1;
            }
        }
        n
    }

    /// Recounts every (partition, stamp) pair from the lanes: one row for
    /// the sentinel, one per partition, one shared by every other ID.
    fn assert_index_exact(m: &TagMeta, ctx: &str) {
        let n = m.overflow - 1;
        let mut counts = vec![0u32; (n + 2) * STAMP_DOMAIN];
        for (&p, &t) in m.parts.iter().zip(&m.ts) {
            let row = match p {
                TAG_UNMANAGED => 0,
                p if (p as usize) < n => p as usize + 1,
                _ => n + 1,
            };
            counts[row * STAMP_DOMAIN + t as usize] += 1;
        }
        assert!(counts == m.counts, "count index drifted: {ctx}");
    }

    #[test]
    fn clamp_search_matches_a_full_sweep() {
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // A small alphabet keeps matches frequent; the stamps straddle the
        // 255 -> 0 wrap.
        const PARTS: [u16; 5] = [0, 1, 2, 3, TAG_UNMANAGED];
        const STAMPS: [u8; 4] = [254, 255, 0, 1];
        for len in [0usize, 1, 63, 64, 65, 200, 65_537] {
            // Partition 9 is the highest clamped; flips land above it.
            let mut m = TagMeta::with_partitions(len, 10);
            let mut parts = vec![TAG_UNMANAGED; len];
            let mut ts = vec![0u8; len];
            let clamp = |m: &mut TagMeta, parts: &[u16], ts: &mut [u8], part: u16, stamp: u8| {
                let ctx = format!("len {len}, clamp ({part}, {stamp})");
                let want = naive_clamp(parts, ts, part, stamp);
                assert_eq!(m.clamp_stale(part, stamp), want, "{ctx}");
                assert!(m.ts == ts, "lanes differ: {ctx}");
                assert_index_exact(m, &ctx);
                // Follow-up clamps read the index the first one left.
                let stamp = stamp.wrapping_add(1);
                let want = naive_clamp(parts, ts, part, stamp);
                assert_eq!(m.clamp_stale(part, stamp), want, "follow-up: {ctx}");
                assert!(m.ts == ts, "lanes differ after follow-up: {ctx}");
            };
            for _ in 0..1_500 {
                let r = next();
                let f = (r >> 32) as usize % len.max(1);
                let part = PARTS[(r >> 8) as usize % PARTS.len()];
                let stamp = STAMPS[(r >> 16) as usize % STAMPS.len()];
                match r % 8 {
                    _ if len == 0 => clamp(&mut m, &parts, &mut ts, part, stamp),
                    0 | 1 => {
                        m.set(f, part, stamp);
                        (parts[f], ts[f]) = (part, stamp);
                    }
                    2 => {
                        m.set_part(f, part);
                        parts[f] = part;
                    }
                    3 => {
                        m.set_ts(f, stamp);
                        ts[f] = stamp;
                    }
                    4 => {
                        let to = (r >> 40) as usize % len;
                        m.copy(f as Frame, to as Frame);
                        (parts[to], ts[to]) = (parts[f], ts[f]);
                    }
                    5 if parts[f] != TAG_UNMANAGED => {
                        // A partition-ID bit flip, as fault injection writes
                        // it: usually an out-of-range owner.
                        let flipped = parts[f] ^ (1 << ((r >> 24) % 10));
                        m.set_part(f, flipped);
                        parts[f] = flipped;
                    }
                    _ => clamp(&mut m, &parts, &mut ts, part, stamp),
                }
            }
            if len == 0 {
                continue;
            }
            // A match in the last (partial) chunk, alone and then behind
            // an earlier match.
            let last = len - 1;
            m.set(last, 9, 255);
            (parts[last], ts[last]) = (9, 255);
            clamp(&mut m, &parts, &mut ts, 9, 255);
            m.set(0, 9, 7);
            m.set(last, 9, 7);
            (parts[0], ts[0], parts[last], ts[last]) = (9, 7, 9, 7);
            clamp(&mut m, &parts, &mut ts, 9, 7);
            // Wholesale loads rebuild the index the search relies on.
            for t in ts.iter_mut().step_by(3) {
                *t = 255;
            }
            m.load_lanes(parts.clone(), ts.clone());
            assert_index_exact(&m, &format!("len {len}, after load_lanes"));
            for part in PARTS {
                clamp(&mut m, &parts, &mut ts, part, 255);
            }
        }
    }

    #[test]
    fn repin_list_matches_a_full_sweep() {
        let mut seed = 0xc1a4_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Clamped domains, each with its own clock that every clamp ticks
        // one stamp on, as a partition's coarse clock does.
        const CLAMPED: [u16; 4] = [0, 1, 2, TAG_UNMANAGED];
        let (mut listed, mut searched) = (0, 0);
        for len in [1usize, 64, 65, 300, 4_097] {
            let mut m = TagMeta::with_partitions(len, 4);
            let mut parts = vec![TAG_UNMANAGED; len];
            let mut ts = vec![0u8; len];
            let mut clock = [0u8; CLAMPED.len()];
            for step in 0..4_000 {
                let r = next();
                let f = (r >> 32) as usize % len;
                let d = (r >> 8) as usize % CLAMPED.len();
                let part = CLAMPED[d];
                // Near the domain's clock, so new lines alias within a
                // few ticks and join the ones already re-pinned each tick.
                let stamp = clock[d].wrapping_add((r >> 16) as u8 % 3);
                let ctx = format!("len {len}, step {step}, op {}", r % 16);
                match r % 16 {
                    0..=2 => {
                        m.set(f, part, stamp);
                        (parts[f], ts[f]) = (part, stamp);
                    }
                    3 => {
                        m.set_part(f, part);
                        parts[f] = part;
                    }
                    4 => {
                        m.set_ts(f, stamp);
                        ts[f] = stamp;
                    }
                    5 => {
                        let to = (r >> 40) as usize % len;
                        m.copy(f as Frame, to as Frame);
                        (parts[to], ts[to]) = (parts[f], ts[f]);
                    }
                    6 if parts[f] != TAG_UNMANAGED => {
                        // A bit flip, often to an ID past the partition count.
                        let flipped = parts[f] ^ (1 << ((r >> 24) % 4));
                        m.set_part(f, flipped);
                        parts[f] = flipped;
                    }
                    7 if (r >> 20).is_multiple_of(16) => {
                        m.resize_partitions(3 + (r >> 24) as usize % 8);
                    }
                    8 if (r >> 20).is_multiple_of(32) => {
                        for t in ts.iter_mut().step_by(7) {
                            *t = t.wrapping_add(1);
                        }
                        m.load_lanes(parts.clone(), ts.clone());
                    }
                    _ => {
                        clock[d] = clock[d].wrapping_add(1);
                        let want = naive_clamp(&parts, &mut ts, part, clock[d]);
                        assert_eq!(m.clamp_stale(part, clock[d]), want, "{ctx}");
                    }
                }
                assert!(m.parts == parts && m.ts == ts, "lanes differ: {ctx}");
                assert_index_exact(&m, &ctx);
            }
            listed += m.clamp_paths.0;
            searched += m.clamp_paths.1;
        }
        assert!(listed > 1_000, "re-pin list served only {listed} clamps");
        assert!(searched > 1_000, "search served only {searched} clamps");
    }

    #[test]
    fn stamp_rank_matches_the_age_walk() {
        // The definition: walk ages 0..age from the clock back, summing
        // the strictly younger stamps.
        let naive = |counts: &[u32; 256], total: u64, ts: u8, current: u8| {
            let younger: u64 = (0..current.wrapping_sub(ts))
                .map(|a| u64::from(counts[current.wrapping_sub(a) as usize]))
                .sum();
            (younger as f64 + f64::from(counts[ts as usize]) / 2.0) / total as f64
        };
        let mut counts = [0u32; 256];
        for (s, c) in counts.iter_mut().enumerate() {
            *c = (s as u32).wrapping_mul(2_654_435_761) >> 27;
        }
        let total = counts.iter().map(|&c| u64::from(c)).sum();
        for ts in 0..=255u8 {
            for current in 0..=255u8 {
                assert_eq!(
                    stamp_rank(&counts, total, ts, current),
                    naive(&counts, total, ts, current),
                    "ts {ts}, current {current}"
                );
            }
        }
        assert_eq!(stamp_rank(&[0; 256], 0, 3, 7), 0.5, "empty row");
    }

    #[test]
    fn corrupted_ids_share_one_overflow_row() {
        let mut m = TagMeta::with_partitions(4096, 4);
        for f in 0..4096 {
            m.set(f, (f % 4) as u16, f as u8);
        }
        // Bit-15 flips and hostile IDs: each would have been a row of its own.
        for f in (0..4096).step_by(3) {
            m.set_part(f, m.part(f) ^ 0x8000);
        }
        m.set_part(1, 0xFFFE);
        assert_eq!(m.index_rows(), 6, "partitions + sentinel + overflow");
        assert_index_exact(&m, "after flips");
        let spilled: u32 = m.stamp_counts(0x8000).iter().sum();
        assert_eq!(spilled, 1366 + 1, "every corrupted ID in one row");
        assert_eq!(m.stamp_counts(0xFFFE), m.stamp_counts(4));
        m.load_lanes(vec![0xFFFE; 4096], vec![3; 4096]);
        assert_eq!(m.index_rows(), 6, "load_lanes honours the bound");
        assert_index_exact(&m, "after load_lanes");
    }

    #[test]
    fn resizing_the_partition_table_keeps_the_index_exact() {
        let mut m = TagMeta::with_partitions(64, 2);
        m.set(0, 0, 5);
        m.set(1, 1, 6);
        // Clean growth appends rows.
        m.resize_partitions(3);
        assert_eq!(m.index_rows(), 5);
        assert_index_exact(&m, "clean growth");
        // A corrupted tag naming a not-yet-valid ID sits in the overflow
        // row; growing past it must give it its own exact row.
        m.set(2, 4, 7);
        m.set(3, 9, 7);
        m.resize_partitions(5);
        assert_index_exact(&m, "growth with a spilled overflow row");
        assert_eq!(m.clamp_stale(4, 7), 1, "the newly valid ID is counted");
        // Shrinking folds the cut IDs into the overflow row.
        m.resize_partitions(1);
        assert_eq!(m.index_rows(), 3);
        assert_index_exact(&m, "shrink");
        assert_eq!(m.clamp_stale(0, 5), 1);
        // One partition at a time, as service-mode creates grow the table:
        // 802 rows in use fit a 1024-row capacity.
        let mut m = TagMeta::with_partitions(8, 1);
        for n in 2..=800 {
            m.resize_partitions(n);
        }
        assert_eq!(m.counts.capacity(), 1024 * STAMP_DOMAIN);
    }

    #[test]
    fn load_lanes_replaces_contents() {
        let mut m = TagMeta::new(3);
        m.load_lanes(vec![1, 2, TAG_UNMANAGED], vec![9, 8, 7]);
        assert_eq!(m.parts(), &[1, 2, TAG_UNMANAGED]);
        assert_eq!(m.ts_lane(), &[9, 8, 7]);
    }

    #[test]
    #[should_panic(expected = "partition lane length")]
    fn load_lanes_rejects_wrong_length() {
        TagMeta::new(3).load_lanes(vec![0; 2], vec![0; 3]);
    }
}
