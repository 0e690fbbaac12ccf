//! Application models: region-structured synthetic address streams.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_cache::LineAddr;

/// The four behavioural categories of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// `n`: low L2 intensity, fits easily.
    Insensitive,
    /// `f`: gradual benefit from capacity.
    Friendly,
    /// `t`: abrupt benefit once the working set fits.
    Fitting,
    /// `s`: no benefit at realistic sizes.
    Streaming,
}

impl Category {
    /// The single-letter code used in mix class names (`n`/`f`/`t`/`s`).
    pub fn code(self) -> char {
        match self {
            Category::Insensitive => 'n',
            Category::Friendly => 'f',
            Category::Fitting => 't',
            Category::Streaming => 's',
        }
    }

    /// Parses a single-letter code.
    pub fn from_code(c: char) -> Option<Self> {
        match c {
            'n' => Some(Category::Insensitive),
            'f' => Some(Category::Friendly),
            't' => Some(Category::Fitting),
            's' => Some(Category::Streaming),
            _ => None,
        }
    }

    /// All categories, in class-name order.
    pub const ALL: [Category; 4] = [
        Category::Insensitive,
        Category::Friendly,
        Category::Fitting,
        Category::Streaming,
    ];
}

/// One memory region of an application's address space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegionKind {
    /// Uniform random accesses over a small, hot set of lines.
    Hot {
        /// Region size in cache lines.
        lines: u64,
    },
    /// Sequential cyclic sweep over a fixed set of lines (the classic
    /// cache-fitting / LRU-thrash pattern).
    Loop {
        /// Region size in cache lines.
        lines: u64,
    },
    /// Sequential streaming with no reuse (wraps after `wrap` lines, far
    /// beyond any cache size).
    Stream {
        /// Lines before the stream wraps around.
        wrap: u64,
    },
    /// Skewed (power-law) reuse over a large footprint: line index is
    /// `⌊lines · u^gamma⌋` for `u ~ U(0,1)`, so low indices are hot and the
    /// miss curve declines smoothly with capacity.
    Skewed {
        /// Region size in cache lines.
        lines: u64,
        /// Skew exponent (> 1 concentrates mass on a hot head).
        gamma: f64,
    },
}

/// A synthetic application model.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// A SPEC-evoking name (the model is synthetic, not a trace).
    pub name: &'static str,
    /// Behavioural category (what Table 3's classification should yield).
    pub category: Category,
    /// L2 accesses per kilo-instruction *issued by the core to the L1*;
    /// the L1 filter in front of the LLC sees exactly this stream.
    pub apki: f64,
    /// Weighted regions. Weights need not sum to 1 (they are normalized).
    pub regions: Vec<(f64, RegionKind)>,
    /// Optional phase behaviour: every `period` accesses, the region
    /// weights switch to the next vector in the cycle (each vector must
    /// have one weight per region).
    pub phases: Option<(u64, Vec<Vec<f64>>)>,
}

/// One generated memory reference: `gap` is the number of instructions this
/// reference accounts for (at least 1 — the memory instruction itself), so
/// driving a core is `cycles += gap - 1; issue(addr)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// Instructions consumed, including the memory access.
    pub gap: u32,
    /// The line touched.
    pub addr: LineAddr,
}

/// A running instance of an [`AppSpec`], bound to a private address-space
/// base and a seed.
#[derive(Clone, Debug)]
pub struct AppGen {
    spec: AppSpec,
    base: u64,
    rng: SmallRng,
    /// Per-region cursors (used by `Loop` and `Stream`).
    cursors: Vec<u64>,
    /// Current phase index and accesses remaining in it.
    phase: usize,
    phase_left: u64,
    /// Mean instruction gap implied by `apki`.
    mean_gap: f64,
    accesses: u64,
}

impl AppGen {
    /// Instantiates `spec` with its lines based at `base` (each app in a
    /// mix gets a disjoint base) and deterministic randomness from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no regions, non-positive weights everywhere,
    /// or an inconsistent phase table.
    pub fn new(spec: AppSpec, base: u64, seed: u64) -> Self {
        assert!(!spec.regions.is_empty(), "spec needs at least one region");
        if let Some((period, phases)) = &spec.phases {
            assert!(*period > 0, "phase period must be non-zero");
            assert!(!phases.is_empty(), "phase table must be non-empty");
            assert!(
                phases.iter().all(|w| w.len() == spec.regions.len()),
                "each phase needs one weight per region"
            );
        }
        let mean_gap = (1000.0 / spec.apki).max(1.0);
        let phase_left = spec.phases.as_ref().map_or(u64::MAX, |(p, _)| *p);
        Self {
            cursors: vec![0; spec.regions.len()],
            rng: SmallRng::seed_from_u64(seed),
            base,
            spec,
            phase: 0,
            phase_left,
            mean_gap,
            accesses: 0,
        }
    }

    /// The spec this generator runs.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Total references generated so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    fn current_weights(&self) -> &[f64] {
        match &self.spec.phases {
            Some((_, phases)) => &phases[self.phase],
            None => &[],
        }
    }

    fn weight(&self, region: usize) -> f64 {
        let w = self.current_weights();
        if w.is_empty() {
            self.spec.regions[region].0
        } else {
            w[region]
        }
    }

    /// Generates the next memory reference.
    pub fn next_ref(&mut self) -> MemRef {
        self.accesses += 1;
        if let Some((period, phases)) = &self.spec.phases {
            self.phase_left -= 1;
            if self.phase_left == 0 {
                self.phase = (self.phase + 1) % phases.len();
                self.phase_left = *period;
            }
        }

        // Pick a region by weight.
        let total: f64 = (0..self.spec.regions.len()).map(|r| self.weight(r)).sum();
        debug_assert!(total > 0.0, "all region weights zero");
        let mut pick = self.rng.gen::<f64>() * total;
        let mut region = self.spec.regions.len() - 1;
        for r in 0..self.spec.regions.len() {
            pick -= self.weight(r);
            if pick <= 0.0 {
                region = r;
                break;
            }
        }

        // Regions are laid out at disjoint 2^32-line offsets within the
        // app's base.
        let region_base = self.base + ((region as u64) << 32);
        let line = match self.spec.regions[region].1 {
            RegionKind::Hot { lines } => self.rng.gen_range(0..lines),
            RegionKind::Loop { lines } => {
                let c = self.cursors[region];
                self.cursors[region] = (c + 1) % lines;
                c
            }
            RegionKind::Stream { wrap } => {
                let c = self.cursors[region];
                self.cursors[region] = (c + 1) % wrap;
                c
            }
            RegionKind::Skewed { lines, gamma } => {
                let u: f64 = self.rng.gen();
                ((lines as f64) * u.powf(gamma)) as u64
            }
        };

        // Instruction gap: geometric-ish jitter around the APKI-implied
        // mean, at least 1 instruction.
        let jitter = self.rng.gen_range(0.5..1.5);
        let gap = (self.mean_gap * jitter).round().max(1.0) as u32;
        MemRef {
            gap,
            addr: LineAddr(region_base + line),
        }
    }
}

/// Anything that can feed a simulated core with memory references.
///
/// Every stream is a [`vantage_snapshot::Snapshot`] (enforced by the
/// supertrait so `Box<dyn RefStream>` checkpoints without downcasts):
/// generator state — RNG streams, cursors, phase machines — must
/// round-trip so a resumed simulation sees the identical reference
/// sequence it would have seen uninterrupted.
pub trait RefStream: vantage_snapshot::Snapshot {
    /// Produces the next reference.
    fn next_ref(&mut self) -> MemRef;
}

impl RefStream for AppGen {
    fn next_ref(&mut self) -> MemRef {
        AppGen::next_ref(self)
    }
}

impl vantage_snapshot::Snapshot for AppGen {
    /// The spec, base and APKI-derived mean gap are construction-time
    /// configuration; run state is the RNG stream, the per-region cursors
    /// and the phase machine.
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_u64_slice(&self.rng.state());
        enc.put_u64_slice(&self.cursors);
        enc.put_u64(self.phase as u64);
        enc.put_u64(self.phase_left);
        enc.put_u64(self.accesses);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let rng_state = dec.take_u64_vec()?;
        let Ok(rng_state) = <[u64; 4]>::try_from(rng_state) else {
            return Err(dec.invalid("RNG state must be 4 words"));
        };
        let cursors = dec.take_u64_vec()?;
        if cursors.len() != self.spec.regions.len() {
            return Err(dec.mismatch("cursor count differs from region count"));
        }
        for (c, (_, kind)) in cursors.iter().zip(&self.spec.regions) {
            let bound = match *kind {
                RegionKind::Loop { lines } => lines,
                RegionKind::Stream { wrap } => wrap,
                RegionKind::Hot { .. } | RegionKind::Skewed { .. } => u64::MAX,
            };
            if *c >= bound {
                return Err(dec.invalid("region cursor beyond its region"));
            }
        }
        let phase = dec.take_usize()?;
        let phase_left = dec.take_u64()?;
        match &self.spec.phases {
            Some((period, phases)) => {
                if phase >= phases.len() || phase_left == 0 || phase_left > *period {
                    return Err(dec.invalid("phase machine out of range"));
                }
            }
            None => {
                if phase != 0 || phase_left != u64::MAX {
                    return Err(dec.mismatch("phase state for a phaseless spec"));
                }
            }
        }
        self.accesses = dec.take_u64()?;
        self.rng = SmallRng::from_state(rng_state);
        self.cursors = cursors;
        self.phase = phase;
        self.phase_left = phase_left;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_spec() -> AppSpec {
        AppSpec {
            name: "test_hot",
            category: Category::Insensitive,
            apki: 20.0,
            regions: vec![(1.0, RegionKind::Hot { lines: 128 })],
            phases: None,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = AppGen::new(hot_spec(), 0, 7);
        let mut b = AppGen::new(hot_spec(), 0, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
    }

    #[test]
    fn hot_region_stays_in_bounds() {
        let mut g = AppGen::new(hot_spec(), 1 << 40, 1);
        for _ in 0..10_000 {
            let r = g.next_ref();
            assert!(r.addr.0 >= 1 << 40);
            assert!(r.addr.0 < (1 << 40) + 128);
            assert!(r.gap >= 1);
        }
    }

    #[test]
    fn loop_region_cycles_sequentially() {
        let spec = AppSpec {
            name: "test_loop",
            category: Category::Fitting,
            apki: 50.0,
            regions: vec![(1.0, RegionKind::Loop { lines: 5 })],
            phases: None,
        };
        let mut g = AppGen::new(spec, 0, 2);
        let lines: Vec<u64> = (0..10).map(|_| g.next_ref().addr.0).collect();
        assert_eq!(lines, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn stream_region_never_reuses_before_wrap() {
        let spec = AppSpec {
            name: "test_stream",
            category: Category::Streaming,
            apki: 30.0,
            regions: vec![(1.0, RegionKind::Stream { wrap: 1 << 30 })],
            phases: None,
        };
        let mut g = AppGen::new(spec, 0, 3);
        let mut last = None;
        for _ in 0..10_000 {
            let a = g.next_ref().addr.0;
            if let Some(l) = last {
                assert_eq!(a, l + 1);
            }
            last = Some(a);
        }
    }

    #[test]
    fn skewed_region_is_head_heavy() {
        let spec = AppSpec {
            name: "test_skew",
            category: Category::Friendly,
            apki: 40.0,
            regions: vec![(
                1.0,
                RegionKind::Skewed {
                    lines: 100_000,
                    gamma: 4.0,
                },
            )],
            phases: None,
        };
        let mut g = AppGen::new(spec, 0, 4);
        let n = 50_000;
        let head = (0..n).filter(|_| g.next_ref().addr.0 < 10_000).count();
        // u^4 < 0.1 ⇔ u < 0.1^(1/4) ≈ 0.56: over half the accesses hit the
        // first tenth of the footprint.
        assert!(head as f64 > 0.5 * n as f64, "head hits: {head}/{n}");
    }

    #[test]
    fn gaps_track_apki() {
        let mut g = AppGen::new(hot_spec(), 0, 5);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| u64::from(g.next_ref().gap)).sum();
        let apki = n as f64 * 1000.0 / total as f64;
        assert!((apki - 20.0).abs() < 2.0, "measured APKI {apki}");
    }

    #[test]
    fn phases_switch_weights() {
        let spec = AppSpec {
            name: "test_phase",
            category: Category::Friendly,
            apki: 10.0,
            regions: vec![
                (1.0, RegionKind::Hot { lines: 10 }),
                (0.0, RegionKind::Stream { wrap: 1 << 20 }),
            ],
            phases: Some((1000, vec![vec![1.0, 0.0], vec![0.0, 1.0]])),
        };
        let mut g = AppGen::new(spec, 0, 6);
        // Phase 0: all accesses in the hot region (< 10).
        for _ in 0..999 {
            assert!(g.next_ref().addr.0 < 10);
        }
        // Phase 1: all accesses stream (region 1 base offset = 1 << 32).
        let mut streamed = 0;
        for _ in 0..1000 {
            if g.next_ref().addr.0 >= (1 << 32) {
                streamed += 1;
            }
        }
        assert!(
            streamed >= 999,
            "phase switch did not take effect: {streamed}"
        );
    }

    #[test]
    fn category_codes_roundtrip() {
        for c in Category::ALL {
            assert_eq!(Category::from_code(c.code()), Some(c));
        }
        assert_eq!(Category::from_code('x'), None);
    }
}
