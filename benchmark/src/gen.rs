//! Seeded input generation. Everything the systems under test see comes out
//! of the [`SplitMix64`] below, seeded from `--seed`; the program receives
//! only the generated requests.

use vantage_cache::hash::mix64;
use vantage_cache::LineAddr;
use vantage_partitioning::{AccessRequest, PartitionId};

/// SplitMix64 (Steele, Lea & Flood): tiny, fast, and good enough to draw
/// uniform line addresses.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Line `i` of partition `p`'s private working set.
///
/// The dense index is scrambled through a 64-bit bijection, so working sets
/// keep their exact size while every address bit varies. Dense addresses
/// (a partition number above 40 bits of offset) leave an H3 hash only ~20
/// varying input bits, and for some hash seeds those do not span a way's
/// index space: one run had an eighth of a bank's frames unreachable and
/// every eviction forced from the managed region.
pub fn private_line(p: usize, i: u64) -> LineAddr {
    LineAddr(mix64(((p as u64 + 1) << 40) + i))
}

/// Line `i` of the set every partition shares.
pub fn shared_line(i: u64) -> LineAddr {
    LineAddr(mix64((0xFFFF << 40) + i))
}

/// Shape of a uniform-random request stream over per-partition private
/// working sets, optionally with a hot set all partitions share.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Number of partitions issuing requests (chosen uniformly).
    pub parts: usize,
    /// Lines in each partition's private working set.
    pub ws_lines: u64,
    /// Lines in the shared hot set (0 = no sharing).
    pub shared_lines: u64,
    /// Share of requests that go to the shared set, in percent.
    pub shared_pct: u64,
}

impl StreamSpec {
    /// Draws the next request.
    pub fn draw(&self, rng: &mut SplitMix64) -> AccessRequest {
        let r = rng.next_u64();
        let p = (r % self.parts as u64) as usize;
        let addr = if self.shared_lines > 0 && (r >> 32) % 100 < self.shared_pct {
            shared_line(rng.below(self.shared_lines))
        } else {
            private_line(p, rng.below(self.ws_lines))
        };
        AccessRequest::read(PartitionId::from_index(p), addr)
    }

    /// Pre-generates `n` requests.
    pub fn generate(&self, rng: &mut SplitMix64, n: usize) -> Vec<AccessRequest> {
        (0..n).map(|_| self.draw(rng)).collect()
    }

    /// One request per line of every working set, partition by partition
    /// (the shared set first, touched by partition 0): served once, it
    /// leaves every line the stream can name resident or evicted for cause.
    pub fn sweep(&self) -> impl Iterator<Item = AccessRequest> {
        let (parts, ws_lines) = (self.parts, self.ws_lines);
        let p0 = PartitionId::from_index(0);
        let shared = (0..self.shared_lines).map(move |i| AccessRequest::read(p0, shared_line(i)));
        let private = (0..parts).flat_map(move |p| {
            (0..ws_lines)
                .map(move |i| AccessRequest::read(PartitionId::from_index(p), private_line(p, i)))
        });
        shared.chain(private)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec() -> StreamSpec {
        StreamSpec {
            parts: 4,
            ws_lines: 1000,
            shared_lines: 50,
            shared_pct: 30,
        }
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a = spec().generate(&mut SplitMix64::new(42), 5000);
        let b = spec().generate(&mut SplitMix64::new(42), 5000);
        let c = spec().generate(&mut SplitMix64::new(43), 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn requests_stay_inside_their_working_sets() {
        let s = spec();
        let reqs = s.generate(&mut SplitMix64::new(7), 20_000);
        let hot: HashSet<LineAddr> = (0..s.shared_lines).map(shared_line).collect();
        let mut shared = 0;
        for r in &reqs {
            if hot.contains(&r.addr) {
                shared += 1;
            } else {
                let p = r.part.index();
                assert!(
                    (0..s.ws_lines).any(|i| private_line(p, i) == r.addr),
                    "{r:?}"
                );
            }
        }
        // 30% +- a generous sampling margin.
        assert!((5000..7000).contains(&shared), "{shared}");
    }

    #[test]
    fn sweep_names_every_line_once() {
        let s = spec();
        let sweep: Vec<AccessRequest> = s.sweep().collect();
        assert_eq!(sweep.len(), 50 + 4 * 1000);
        assert!(sweep[..50].iter().all(|r| r.part.index() == 0));
        let distinct: HashSet<LineAddr> = sweep.iter().map(|r| r.addr).collect();
        assert_eq!(distinct.len(), sweep.len());
    }
}
