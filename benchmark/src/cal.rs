//! The calibration kernel: a fixed piece of benchmark-owned work whose rate
//! on the host is measured around every timed slice, so host-time numbers
//! can be reported at one reference machine speed instead of at whatever
//! speed the shared host happened to run that second.
//!
//! **Frozen.** A change to anything in this file changes every calibrated
//! number in every later comparison; it needs its own benchmark issue and a
//! new [`CAL_VERSION`].
//!
//! The kernel imitates what the simulator's hot path does to the host: one
//! dependent random load (the next index comes out of the loaded word, like
//! a hash probe that decides the next probe), three further independent
//! probes derived from it (a 4-way lookup), a little integer mixing, and a
//! store back into the table (tag/timestamp update). The table is 256 KiB:
//! inside this host's 2 MiB L2 beside the simulated cache's own arrays, which
//! is where every workload but `bank8_pipelined` keeps its state (README,
//! "Calibration", has the measured spreads for the sizes tried).

use std::time::Instant;

/// Stamped into every result; bump when the kernel or its table changes.
pub const CAL_VERSION: u32 = 1;

/// Calibrated rates are reported as if the kernel ran at this many steps per
/// second. A fixed convention, not a property of any machine.
pub const CAL_REF_OPS_PER_S: f64 = 70e6;

/// Table size in `u64` words (256 KiB).
const TABLE_WORDS: usize = 32 * 1024;

/// SplitMix64 finaliser, used to fill the table.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The kernel's table and walk position.
pub struct Cal {
    table: Vec<u64>,
    pos: u64,
}

impl Default for Cal {
    fn default() -> Self {
        Self::new()
    }
}

impl Cal {
    /// A kernel in its fixed initial state.
    pub fn new() -> Self {
        Self {
            table: (0..TABLE_WORDS as u64).map(mix).collect(),
            pos: 0x0123_4567_89AB_CDEF,
        }
    }

    /// Runs `ops` kernel steps and returns a checksum of the words visited.
    /// The same number of steps from a fresh kernel always returns the same
    /// checksum.
    pub fn run(&mut self, ops: u64) -> u64 {
        const MASK: usize = TABLE_WORDS - 1;
        let t = &mut self.table[..TABLE_WORDS];
        let mut x = self.pos;
        let mut sum = 0u64;
        for _ in 0..ops {
            let i = x as usize & MASK;
            let v = t[i];
            let a = t[(v >> 11) as usize & MASK];
            let b = t[(v >> 27) as usize & MASK];
            let c = t[(v >> 43) as usize & MASK];
            let m = (v ^ a.rotate_left(9) ^ b.rotate_left(23) ^ c.rotate_left(41))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            t[i] = m | 1;
            x = m ^ (m >> 29);
            sum = sum.wrapping_add(m);
        }
        self.pos = x;
        sum
    }

    /// Times `ops` kernel steps and returns the rate in steps per second.
    pub fn rate(&mut self, ops: u64) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run(std::hint::black_box(ops)));
        ops as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_op_count_same_checksum() {
        let a = Cal::new().run(100_000);
        let b = Cal::new().run(100_000);
        assert_eq!(a, b);
        assert_ne!(a, Cal::new().run(100_001));
    }

    #[test]
    fn checksum_is_pinned_to_the_version() {
        // Editing the kernel without bumping CAL_VERSION trips this.
        assert_eq!(CAL_VERSION, 1);
        assert_eq!(Cal::new().run(10_000), PINNED_V1);
    }

    const PINNED_V1: u64 = 12541574650414482015;
}
