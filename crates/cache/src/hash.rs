//! H3 universal hash functions.
//!
//! The Vantage paper relies on cache arrays with *good hashing*: each way of
//! a skew-associative cache or zcache is indexed with a different hash
//! function drawn from the H3 family of universal hash functions
//! (Carter & Wegman, 1977), and hashed set-associative caches use one such
//! function for their single index.
//!
//! An H3 function maps an `n`-bit key to an `m`-bit index; output bit `i` is
//! the parity of `key & q_i` for a random mask `q_i`. Equivalently (and much
//! faster in software), the key is split into bytes and the output is the
//! XOR of one 256-entry table lookup per byte; this is the classic
//! tabulation-hashing implementation used here.

use std::ops::ControlFlow;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of input bytes hashed (line addresses fit in 64 bits).
const INPUT_BYTES: usize = 8;

/// A nonlinear 64-bit mixer (the splitmix64 finalizer).
///
/// H3 functions are GF(2)-linear, which is a *feature* for cache indexing
/// (dense and strided address ranges map conflict-free) but a hazard for
/// set *sampling*: a dense range can be rank-deficient in the sampled index
/// bits, concentrating many lines onto few sampled sets. Components that
/// need statistical uniformity rather than conflict-freedom (utility-monitor
/// sampling, dueling-bucket selection) should mix with this instead.
///
/// # Example
///
/// ```
/// use vantage_cache::hash::mix64;
///
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Maps `key` uniformly into `0..buckets` using [`mix64`].
///
/// # Panics
///
/// Panics if `buckets` is zero.
#[inline]
pub fn mix_bucket(key: u64, seed: u64, buckets: u32) -> u32 {
    assert!(buckets > 0, "bucket count must be non-zero");
    ((u128::from(mix64(key ^ seed)) * u128::from(buckets)) >> 64) as u32
}

/// An H3 (tabulation) hash function from 64-bit line addresses to 32-bit
/// indices.
///
/// Functions are drawn from the family with an explicit seed so that
/// experiments are reproducible; two hashers built with the same seed are
/// identical, and hashers with different seeds are independent draws.
///
/// # Example
///
/// ```
/// use vantage_cache::H3Hasher;
///
/// let h = H3Hasher::new(12345);
/// // Deterministic: same key, same hash.
/// assert_eq!(h.hash(0xDEAD_BEEF), h.hash(0xDEAD_BEEF));
/// // H3 is linear in GF(2): h(a ^ b) == h(a) ^ h(b) ^ h(0), and h(0) == 0.
/// assert_eq!(h.hash(0), 0);
/// ```
#[derive(Clone)]
pub struct H3Hasher {
    tables: Box<[[u32; 256]; INPUT_BYTES]>,
    seed: u64,
}

/// Draws the tables of the H3 function of `seed`, handing each entry to
/// `put(byte position, byte value, entry)`.
fn draw_tables(seed: u64, mut put: impl FnMut(usize, usize, u32)) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in 0..INPUT_BYTES {
        // Random column masks, one per input bit of this byte. Entry v is
        // the XOR of the masks of the bits set in v, which makes the whole
        // function GF(2)-linear as H3 requires.
        let mut masks = [0u32; 8];
        for m in masks.iter_mut() {
            *m = rng.gen();
        }
        for v in 0..256 {
            let mut acc = 0u32;
            for (bit, m) in masks.iter().enumerate() {
                if v & (1 << bit) != 0 {
                    acc ^= m;
                }
            }
            put(i, v, acc);
        }
    }
}

impl H3Hasher {
    /// Draws a new hash function from the H3 family using `seed`.
    pub fn new(seed: u64) -> Self {
        let mut tables = Box::new([[0u32; 256]; INPUT_BYTES]);
        draw_tables(seed, |i, v, entry| tables[i][v] = entry);
        Self { tables, seed }
    }

    /// Hashes a 64-bit key to a 32-bit value.
    ///
    /// The eight table lookups are combined as a balanced XOR tree rather
    /// than a serial fold: the loads are independent, so the reduction is
    /// 3 dependent XORs deep instead of 8 — this sits on the walk's
    /// critical path (dozens of hashes per replacement).
    #[inline]
    pub fn hash(&self, key: u64) -> u32 {
        let b = key.to_le_bytes();
        let t = &self.tables;
        let a01 = t[0][b[0] as usize] ^ t[1][b[1] as usize];
        let a23 = t[2][b[2] as usize] ^ t[3][b[3] as usize];
        let a45 = t[4][b[4] as usize] ^ t[5][b[5] as usize];
        let a67 = t[6][b[6] as usize] ^ t[7][b[7] as usize];
        (a01 ^ a23) ^ (a45 ^ a67)
    }

    /// Hashes `key` into the range `0..buckets`.
    ///
    /// `buckets` does not need to be a power of two; a fixed-point multiply
    /// maps the 32-bit hash uniformly onto the range.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    #[inline]
    pub fn bucket(&self, key: u64, buckets: u32) -> u32 {
        assert!(buckets > 0, "bucket count must be non-zero");
        ((u64::from(self.hash(key)) * u64::from(buckets)) >> 32) as u32
    }

    /// The seed this function was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Ways per row group of a [`WayHasher`]: one 16-byte `[u32; 4]`, so a
/// group's lanes are XORed as one vector.
pub const WAY_LANES: usize = 4;

/// The H3 functions of every way of a multi-way array, evaluated together.
///
/// Way `w`'s function is [`H3Hasher::new`] of the `w`-th seed, and
/// [`group`](Self::group) returns exactly what its [`H3Hasher::bucket`]
/// would. The tables are interleaved: the row for
/// (byte position, byte value) holds that entry of [`WAY_LANES`] ways side
/// by side, so the buckets of four ways come from 8 row loads instead of
/// 32 table loads. More ways take more groups of four.
///
/// # Example
///
/// ```
/// use vantage_cache::{H3Hasher, WayHasher};
///
/// let seeds = [3, 4, 5, 6];
/// let h = WayHasher::new(&seeds, 1000);
/// let buckets = h.group(0xBEEF, 0);
/// for (w, &seed) in seeds.iter().enumerate() {
///     assert_eq!(buckets[w], H3Hasher::new(seed).bucket(0xBEEF, 1000));
/// }
/// ```
#[derive(Clone)]
pub struct WayHasher {
    /// One interleaved table set per group: `tables[g][i][v]` is the row
    /// for byte value `v` at byte position `i`, whose lane `l` belongs to
    /// way `g * WAY_LANES + l`. Lanes past the last way are zero.
    tables: Box<[GroupTables]>,
    ways: usize,
    buckets: u32,
}

/// The interleaved rows of one group of [`WAY_LANES`] ways, each row two
/// words: lane `l` is bits `32 * (l % 2)..` of word `l / 2`.
type GroupTables = [[[u64; 2]; 256]; INPUT_BYTES];

impl WayHasher {
    /// Draws one H3 function per seed (way `w` from `seeds[w]`), each
    /// mapping into `0..buckets`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or `buckets` is zero.
    pub fn new(seeds: &[u64], buckets: u32) -> Self {
        assert!(!seeds.is_empty(), "a way hasher needs at least one way");
        assert!(buckets > 0, "bucket count must be non-zero");
        let groups = seeds.len().div_ceil(WAY_LANES);
        let mut tables = vec![[[[0u64; 2]; 256]; INPUT_BYTES]; groups].into_boxed_slice();
        for (w, &seed) in seeds.iter().enumerate() {
            let (group, lane) = (&mut tables[w / WAY_LANES], w % WAY_LANES);
            draw_tables(seed, |i, v, entry| {
                group[i][v][lane / 2] |= u64::from(entry) << (32 * (lane % 2));
            });
        }
        Self {
            tables,
            ways: seeds.len(),
            buckets,
        }
    }

    /// Number of ways (hash functions).
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of groups: `ways` rounded up to whole [`WAY_LANES`].
    #[inline]
    pub fn groups(&self) -> usize {
        self.tables.len()
    }

    /// The bucket range every way maps into.
    #[inline]
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// `key`'s bucket in ways `g * WAY_LANES ..` (lane `l` is way
    /// `g * WAY_LANES + l`; lanes past the last way hold bucket 0).
    #[inline(always)]
    pub fn group(&self, key: u64, g: usize) -> [u32; WAY_LANES] {
        let (mut lo, mut hi) = (0u64, 0u64);
        for (table, &byte) in self.tables[g].iter().zip(&key.to_le_bytes()) {
            let [a, b] = table[byte as usize];
            lo ^= a;
            hi ^= b;
        }
        let acc = [lo as u32, (lo >> 32) as u32, hi as u32, (hi >> 32) as u32];
        acc.map(|h| self.scale(h))
    }

    /// Visits `key`'s frame in every way, in way order, until `visit`
    /// breaks, and returns where it stopped. Way `w`'s frames are
    /// `w * buckets .. (w + 1) * buckets`, the layout of arrays whose ways
    /// are equal banks.
    #[inline(always)]
    pub fn frames<B>(
        &self,
        key: u64,
        mut visit: impl FnMut(usize, u32) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        for g in 0..self.tables.len() {
            let buckets = self.group(key, g);
            let base = g * WAY_LANES;
            for (l, &bucket) in buckets.iter().enumerate().take(self.ways - base) {
                let w = base + l;
                visit(w, w as u32 * self.buckets + bucket)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Maps a 32-bit hash onto `0..buckets`, as [`H3Hasher::bucket`] does.
    #[inline]
    fn scale(&self, h: u32) -> u32 {
        ((u64::from(h) * u64::from(self.buckets)) >> 32) as u32
    }
}

impl std::fmt::Debug for WayHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WayHasher")
            .field("ways", &self.ways)
            .field("buckets", &self.buckets)
            .finish()
    }
}

impl std::fmt::Debug for H3Hasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("H3Hasher")
            .field("seed", &self.seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = H3Hasher::new(7);
        let b = H3Hasher::new(7);
        for k in [0u64, 1, 42, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = H3Hasher::new(1);
        let b = H3Hasher::new(2);
        // With 32-bit outputs, 16 collisions in a row is astronomically
        // unlikely for independent draws.
        let all_equal = (0..16u64).all(|k| a.hash(k) == b.hash(k));
        assert!(!all_equal);
    }

    #[test]
    fn gf2_linearity() {
        let h = H3Hasher::new(99);
        assert_eq!(h.hash(0), 0);
        for (a, b) in [(3u64, 5u64), (0xFF00, 0x00FF), (u64::MAX, 12345)] {
            assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }
    }

    #[test]
    fn bucket_stays_in_range() {
        let h = H3Hasher::new(3);
        for buckets in [1u32, 2, 3, 64, 1000, 4096] {
            for k in 0..1000u64 {
                assert!(h.bucket(k * 0x9E37_79B9, buckets) < buckets);
            }
        }
    }

    #[test]
    fn bucket_distribution_is_roughly_uniform() {
        let h = H3Hasher::new(11);
        let buckets = 64u32;
        let samples = 64_000u64;
        let mut counts = vec![0u64; buckets as usize];
        for k in 0..samples {
            counts[h.bucket(k, buckets) as usize] += 1;
        }
        let expected = samples / u64::from(buckets);
        for &c in &counts {
            // Loose 3-sigma-ish bound: each bucket within 20% of expected.
            assert!(
                c > expected * 8 / 10 && c < expected * 12 / 10,
                "bucket count {c} too far from expected {expected}"
            );
        }
    }

    /// Every way of a [`WayHasher`] hashes exactly as the [`H3Hasher`]
    /// drawn from its seed, at way counts that fill, pad and span groups,
    /// over bank sizes that are a power of two, not one, and past `u16`.
    #[test]
    fn way_hasher_matches_per_way_h3() {
        let keys: Vec<u64> = (0..2000u64)
            .map(|k| mix64(k) >> (k % 40))
            .chain([0, 1, u64::MAX, 0x0123_4567_89AB_CDEF])
            .collect();
        for ways in [2usize, 3, 4, 8, 15] {
            for buckets in [1u32, 1000, 8192, 65_537, 1 << 20] {
                let seeds: Vec<u64> = (0..ways as u64).map(|w| 77 + w * 0x9E37_79B9).collect();
                let h = WayHasher::new(&seeds, buckets);
                assert_eq!((h.ways(), h.buckets()), (ways, buckets));
                assert_eq!(h.groups(), ways.div_ceil(WAY_LANES));
                let per_way: Vec<H3Hasher> = seeds.iter().map(|&s| H3Hasher::new(s)).collect();
                for &k in &keys {
                    let mut frames = Vec::new();
                    let _ = h.frames(k, |w, f| {
                        frames.push((w, f));
                        ControlFlow::<()>::Continue(())
                    });
                    assert_eq!(frames.len(), ways);
                    for (w, one) in per_way.iter().enumerate() {
                        let want = one.bucket(k, buckets);
                        let group = h.group(k, w / WAY_LANES);
                        assert_eq!(group[w % WAY_LANES], want, "W{ways} way {w} key {k:#x}");
                        assert_eq!(frames[w], (w, w as u32 * buckets + want));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_panics() {
        H3Hasher::new(0).bucket(1, 0);
    }
}
