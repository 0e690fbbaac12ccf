//! UMON-DSS: utility monitoring with dynamic set sampling.
//!
//! Each core gets a small auxiliary tag directory that behaves like a
//! `ways`-way LRU cache the core would own exclusively. Only a sampled
//! subset of sets is instrumented (the paper uses 64 sets), which dynamic
//! set sampling shows is enough to estimate the full cache's utility
//! curves. A hit at LRU stack distance `d` increments `hits[d]`; the miss
//! curve for `w` allocated ways is then
//! `misses(w) = misses + Σ_{d ≥ w} hits[d]`.

use vantage_cache::hash::mix_bucket;
use vantage_cache::LineAddr;

/// A per-core utility monitor.
///
/// # Example
///
/// ```
/// use vantage_ucp::Umon;
///
/// let mut umon = Umon::new(16, 64, 2048, 1);
/// for round in 0..10u64 {
///     for line in 0..3000u64 {
///         umon.access(vantage_cache::LineAddr(line * 64));
///     }
///     let _ = round;
/// }
/// let curve = umon.miss_curve();
/// assert_eq!(curve.len(), 17);
/// // More ways never hurt: the curve is non-increasing.
/// assert!(curve.windows(2).all(|w| w[1] <= w[0]));
/// ```
#[derive(Clone, Debug)]
pub struct Umon {
    ways: usize,
    /// Sampled sets, each an LRU stack of tags (MRU first).
    stacks: Vec<Vec<u64>>,
    /// `hits[d]`: hits observed at stack distance `d`.
    hits: Vec<u64>,
    misses: u64,
    /// Total sets of the cache being modeled; used as the sampling space.
    model_sets: u32,
    sample_seed: u64,
}

impl Umon {
    /// Creates a monitor with `ways` ways and `sampled_sets` sampled sets,
    /// modeling a cache of `model_sets` total sets. `seed` draws the
    /// sampling hash.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `sampled_sets > model_sets`.
    pub fn new(ways: usize, sampled_sets: usize, model_sets: u32, seed: u64) -> Self {
        assert!(ways > 0, "ways must be non-zero");
        assert!(
            sampled_sets > 0 && sampled_sets as u32 <= model_sets,
            "bad set sampling"
        );
        Self {
            ways,
            stacks: vec![Vec::with_capacity(ways); sampled_sets],
            hits: vec![0; ways],
            misses: 0,
            model_sets,
            sample_seed: seed ^ 0x0D5,
        }
    }

    /// The monitored associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Observes one LLC access by this monitor's core. Accesses mapping to
    /// non-sampled sets are ignored (that is the sampling).
    pub fn access(&mut self, addr: LineAddr) {
        let set = mix_bucket(addr.0, self.sample_seed, self.model_sets);
        if set as usize >= self.stacks.len() {
            return;
        }
        let stack = &mut self.stacks[set as usize];
        if let Some(pos) = stack.iter().position(|&t| t == addr.0) {
            self.hits[pos] += 1;
            let tag = stack.remove(pos);
            stack.insert(0, tag);
        } else {
            self.misses += 1;
            if stack.len() == self.ways {
                stack.pop();
            }
            stack.insert(0, addr.0);
        }
    }

    /// Misses observed (at full monitored associativity).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total sampled accesses.
    pub fn accesses(&self) -> u64 {
        self.misses + self.hits.iter().sum::<u64>()
    }

    /// The miss curve: element `w` is the number of (sampled) misses this
    /// core would suffer with `w` ways, for `w ∈ 0..=ways`.
    pub fn miss_curve(&self) -> Vec<u64> {
        let mut curve = Vec::with_capacity(self.ways + 1);
        let mut tail: u64 = self.hits.iter().sum::<u64>() + self.misses;
        curve.push(tail); // 0 ways: every access misses
        for d in 0..self.ways {
            tail -= self.hits[d];
            curve.push(tail);
        }
        curve
    }

    /// Halves all counters — the paper's inter-interval decay, letting the
    /// monitor adapt to phase changes while keeping history.
    pub fn decay(&mut self) {
        for h in &mut self.hits {
            *h /= 2;
        }
        self.misses /= 2;
    }

    /// Clears counters (but not the tag stacks).
    pub fn reset(&mut self) {
        self.hits.fill(0);
        self.misses = 0;
    }
}

impl vantage_snapshot::Snapshot for Umon {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64(self.stacks.len() as u64);
        for stack in &self.stacks {
            enc.put_u64_slice(stack);
        }
        enc.put_u64_slice(&self.hits);
        enc.put_u64(self.misses);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        if dec.take_u64()? != self.stacks.len() as u64 {
            return Err(dec.mismatch("sampled-set count differs"));
        }
        let mut stacks = Vec::with_capacity(self.stacks.len());
        for _ in 0..self.stacks.len() {
            let stack = dec.take_u64_vec()?;
            if stack.len() > self.ways {
                return Err(dec.invalid("LRU stack deeper than the monitored ways"));
            }
            stacks.push(stack);
        }
        let hits = dec.take_u64_vec()?;
        if hits.len() != self.ways {
            return Err(dec.mismatch("hit-counter length differs"));
        }
        self.misses = dec.take_u64()?;
        self.stacks = stacks;
        self.hits = hits;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_loop(umon: &mut Umon, lines: u64, rounds: u64) {
        for _ in 0..rounds {
            for i in 0..lines {
                umon.access(LineAddr(i * 64));
            }
        }
    }

    #[test]
    fn fitting_working_set_hits_after_warmup() {
        // 64 sampled sets × 16 ways = 1024 monitored lines; with full-cache
        // sampling every line is monitored.
        let mut umon = Umon::new(16, 64, 64, 1);
        drive_loop(&mut umon, 512, 20);
        let curve = umon.miss_curve();
        // With all 16 ways, a ~8-deep working set per set mostly fits.
        assert!(
            (curve[16] as f64) < 0.2 * umon.accesses() as f64,
            "misses at 16 ways: {} of {}",
            curve[16],
            umon.accesses()
        );
        // With 0 ways everything misses.
        assert_eq!(curve[0], umon.accesses());
    }

    #[test]
    fn miss_curve_is_monotone_nonincreasing() {
        let mut umon = Umon::new(16, 64, 2048, 2);
        // Mixed reuse pattern.
        for i in 0..200_000u64 {
            umon.access(LineAddr((i * i + i / 3) % 100_000));
        }
        let curve = umon.miss_curve();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn streaming_shows_no_utility() {
        let mut umon = Umon::new(16, 64, 2048, 3);
        for i in 0..500_000u64 {
            umon.access(LineAddr(i));
        }
        let curve = umon.miss_curve();
        // No reuse: the curve is flat — extra ways buy nothing.
        assert_eq!(curve[1], curve[16]);
    }

    #[test]
    fn sampling_estimates_match_full_monitoring() {
        // The DSS premise: a 64-of-2048-set sample estimates per-access miss
        // rates well for a homogeneous access stream.
        let mut sampled = Umon::new(8, 64, 2048, 4);
        let mut full = Umon::new(8, 2048, 2048, 4);
        let mut x: u64 = 0x12345;
        for _ in 0..400_000 {
            // xorshift over a working set with reuse
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = LineAddr(x % 30_000);
            sampled.access(addr);
            full.access(addr);
        }
        let mr_sampled = sampled.misses() as f64 / sampled.accesses() as f64;
        let mr_full = full.misses() as f64 / full.accesses() as f64;
        assert!(
            (mr_sampled - mr_full).abs() < 0.05,
            "sampled {mr_sampled:.3} vs full {mr_full:.3}"
        );
    }

    #[test]
    fn decay_halves_counters() {
        let mut umon = Umon::new(4, 16, 16, 5);
        drive_loop(&mut umon, 32, 4);
        let before = umon.accesses();
        umon.decay();
        assert!(umon.accesses() <= before / 2 + 5);
        umon.reset();
        assert_eq!(umon.accesses(), 0);
    }

    #[test]
    fn stack_depth_bounded_by_ways() {
        let mut umon = Umon::new(4, 8, 8, 6);
        drive_loop(&mut umon, 1000, 2);
        for stack in &umon.stacks {
            assert!(stack.len() <= 4);
        }
    }
}
