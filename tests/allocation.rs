//! The allocation layer against references.
//!
//! * Every place capacity is rounded to whole units — UCP's blocks → lines,
//!   equal shares, weighted apportionment and a way-granularity scheme's
//!   targets → ways — goes through one largest-remainder routine. The
//!   property tests below compare each with a copy of the sort-and-deal
//!   loop it replaced, on random inputs; every case must agree exactly.
//! * Lookahead against an exact dynamic-programming optimum
//!   (`support::optimal_allocation`): optimal on convex miss curves, never
//!   worse than one-block greedy, and exact in its block count. On
//!   non-convex curves its excess over the optimum is printed, not gated.

mod support;

use proptest::prelude::*;
use support::{greedy_allocation, optimal_allocation, total_misses};
use vantage_repro::cache::apportion::largest_remainder;
use vantage_repro::cache::LineAddr;
use vantage_repro::partitioning::llc::ways_from_targets;
use vantage_repro::ucp::{
    apportion, interpolate_curve, lookahead, AllocationPolicy, EqualShares, PolicyInput,
    UcpGranularity, UcpPolicy,
};

// ---------------------------------------------------------------------------
// The loops the routine replaced, as they were.
// ---------------------------------------------------------------------------

/// `UcpPolicy::reallocate`'s blocks → lines rounding.
fn old_block_lines(alloc: &[u32], blocks: u32, cache_lines: u64) -> Vec<u64> {
    let mut targets: Vec<u64> = Vec::with_capacity(alloc.len());
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(alloc.len());
    let mut assigned = 0u64;
    for (p, &b) in alloc.iter().enumerate() {
        let exact = u128::from(b) * u128::from(cache_lines);
        let lines = (exact / u128::from(blocks)) as u64;
        let frac = (exact % u128::from(blocks)) as f64 / f64::from(blocks);
        targets.push(lines);
        fracs.push((p, frac));
        assigned += lines;
    }
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite fractions"));
    let mut left = cache_lines - assigned;
    let mut i = 0;
    while left > 0 {
        targets[fracs[i % fracs.len()].0] += 1;
        left -= 1;
        i += 1;
    }
    targets
}

/// `EqualShares::reallocate`'s even split over the live slots.
fn old_equal_shares(capacity: u64, live: &[bool]) -> Vec<u64> {
    let n_live = live.iter().filter(|&&l| l).count() as u64;
    let mut out = vec![0u64; live.len()];
    if n_live == 0 {
        return out;
    }
    let base = capacity / n_live;
    let rem = capacity % n_live;
    let mut rank = 0u64;
    for (t, &l) in out.iter_mut().zip(live) {
        if l {
            *t = base + u64::from(rank < rem);
            rank += 1;
        }
    }
    out
}

/// `ways_from_targets` with its own floor-and-deal loop.
fn old_ways_from_targets(targets: &[u64], ways: u32) -> Vec<u32> {
    let n = targets.len();
    let total: u64 = targets.iter().sum();
    let mut alloc = vec![1u32; n];
    let rem = ways - n as u32;
    if rem == 0 {
        return alloc;
    }
    let extras: Vec<f64> = if total == 0 {
        vec![1.0; n]
    } else {
        targets
            .iter()
            .map(|&t| (t as f64 / total as f64 * f64::from(ways) - 1.0).max(0.0))
            .collect()
    };
    let extra_sum: f64 = extras.iter().sum();
    if extra_sum <= 0.0 {
        for i in 0..rem as usize {
            alloc[i % n] += 1;
        }
        return alloc;
    }
    let scaled: Vec<f64> = extras
        .iter()
        .map(|e| e * f64::from(rem) / extra_sum)
        .collect();
    let mut given = 0u32;
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
    for (i, &s) in scaled.iter().enumerate() {
        let f = s.floor() as u32;
        alloc[i] += f;
        given += f;
        fracs.push((i, s - s.floor()));
    }
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite fractions"));
    for k in 0..(rem - given) as usize {
        alloc[fracs[k % n].0] += 1;
    }
    alloc
}

/// `apportion` with its own even-split fallback and deal loop.
fn old_apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if !sum.is_finite() || sum <= 0.0 {
        let base = total / n as u64;
        let rem = total % n as u64;
        return (0..n as u64).map(|p| base + u64::from(p < rem)).collect();
    }
    let mut out = Vec::with_capacity(n);
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for (p, &w) in weights.iter().enumerate() {
        let exact = total as f64 * (w / sum);
        let whole = exact.floor().min(total as f64) as u64;
        out.push(whole);
        fracs.push((p, exact - whole as f64));
        assigned += whole;
    }
    fracs.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite fractions")
            .then(a.0.cmp(&b.0))
    });
    let mut left = total.saturating_sub(assigned);
    let mut i = 0;
    while left > 0 {
        out[fracs[i % n].0] += 1;
        left -= 1;
        i += 1;
    }
    out
}

/// A banked machine's split of whole-cache targets into per-bank shares:
/// `t / n` each, remainders dealt round-robin from a running offset.
fn bank_shares(targets: &[u64], n: usize) -> Vec<Vec<u64>> {
    let mut shares = vec![Vec::with_capacity(targets.len()); n];
    let mut offset = 0;
    for &t in targets {
        let rem = (t % n as u64) as usize;
        for (b, share) in shares.iter_mut().enumerate() {
            share.push(t / n as u64 + u64::from((b + n - offset) % n < rem));
        }
        offset = (offset + rem) % n;
    }
    shares
}

/// The block counts any machine builds: 16 ways, 64 ways, 256 fine blocks.
const BLOCKS: [u32; 3] = [16, 64, 256];

/// `n` random cut points of `0..=total`, as the `n + 1` parts between them.
fn random_split(total: u64, cuts: &[u64]) -> Vec<u64> {
    let mut points: Vec<u64> = cuts.iter().map(|c| c % (total + 1)).collect();
    points.sort_unstable();
    let mut prev = 0;
    let mut parts = Vec::with_capacity(points.len() + 1);
    for p in points.into_iter().chain([total]) {
        parts.push(p - prev);
        prev = p;
    }
    parts
}

fn input<'a>(capacity: u64, zeros: &'a [u64], live: &'a [bool]) -> PolicyInput<'a> {
    PolicyInput {
        capacity,
        actual: zeros,
        hits: zeros,
        misses: zeros,
        churn: zeros,
        insertions: zeros,
        shared_hits: &[],
        ownership_transfers: &[],
        live,
        arrived: &[],
        departed: &[],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Blocks → lines: the routine over `b · lines / blocks` quotas deals
    /// exactly what the integer loop dealt, at every block count a machine
    /// builds.
    #[test]
    fn block_lines_match_the_old_loop(
        which in 0usize..3,
        cache_lines in 1u64..(1 << 22),
        cuts in prop::collection::vec(0u64..1 << 20, 0..32),
    ) {
        let blocks = BLOCKS[which];
        let parts = random_split(u64::from(blocks), &cuts);
        let alloc: Vec<u32> = parts.iter().map(|&b| b as u32).collect();
        let quotas = alloc
            .iter()
            .map(|&b| f64::from(b) * cache_lines as f64 / f64::from(blocks));
        prop_assert_eq!(
            largest_remainder(cache_lines, quotas),
            old_block_lines(&alloc, blocks, cache_lines)
        );
    }

    /// Equal shares over any live mask, all-dead included.
    #[test]
    fn equal_shares_match_the_old_loop(
        capacity in 0u64..(1 << 26),
        mask in prop::collection::vec(0u8..4, 1..64),
    ) {
        let live: Vec<bool> = mask.iter().map(|&m| m != 0).collect();
        let zeros = vec![0u64; live.len()];
        let got = EqualShares::new().reallocate(&input(capacity, &zeros, &live));
        prop_assert_eq!(got, old_equal_shares(capacity, &live));
    }

    /// Weighted apportionment, zero weights and all-zero vectors included.
    #[test]
    fn apportion_matches_the_old_loop(
        total in 0u64..(1 << 24),
        weights in prop::collection::vec((0u8..4, 0.0f64..1_000.0), 0..40),
    ) {
        let weights: Vec<f64> = weights
            .iter()
            .map(|&(z, w)| if z == 0 { 0.0 } else { w })
            .collect();
        prop_assert_eq!(apportion(total, &weights), old_apportion(total, &weights));
    }

    /// Targets → ways on arbitrary targets, zeros and degenerate splits
    /// included.
    #[test]
    fn ways_match_the_old_loop(
        targets in prop::collection::vec((0u8..4, 0u64..100_000), 1..17),
        extra_ways in 0u32..64,
    ) {
        let targets: Vec<u64> = targets
            .iter()
            .map(|&(z, t)| if z == 0 { 0 } else { t })
            .collect();
        let ways = targets.len() as u32 + extra_ways;
        prop_assert_eq!(
            ways_from_targets(&targets, ways),
            old_ways_from_targets(&targets, ways)
        );
    }

    /// Targets → ways on the inputs a banked way-partitioned machine hands
    /// each bank: whole-cache targets that tile the capacity, split into
    /// per-bank shares.
    #[test]
    fn bank_share_ways_match_the_old_loop(
        which in 0usize..3,
        banks in 1usize..9,
        lines_per_way in 1u64..4096,
        cuts in prop::collection::vec(0u64..1 << 40, 0..15),
    ) {
        // At most 16 partitions, so every machine has a way for each.
        let ways = [16, 32, 64][which];
        let capacity = banks as u64 * u64::from(ways) * lines_per_way;
        let targets = random_split(capacity, &cuts);
        for share in bank_shares(&targets, banks) {
            prop_assert_eq!(
                ways_from_targets(&share, ways),
                old_ways_from_targets(&share, ways),
                "share {:?} on {} ways", share, ways
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole UCP path: the targets `UcpPolicy::reallocate` returns are
    /// the old loop's rounding of Lookahead on its own monitors' curves.
    #[test]
    fn ucp_targets_match_the_old_loop(
        which in 0usize..3,
        cache_lines in 4_096u64..(1 << 20),
        seed in 0u64..1_000,
        working_sets in prop::collection::vec(1u64..40_000, 2..9),
    ) {
        let blocks = BLOCKS[which];
        let n = working_sets.len();
        let mut ucp = UcpPolicy::new(
            n,
            16,
            64,
            2048,
            cache_lines,
            UcpGranularity::Fine { blocks },
            seed,
        );
        for i in 0..20_000u64 {
            for (p, &ws) in working_sets.iter().enumerate() {
                ucp.observe(p, LineAddr(((p as u64 + 1) << 40) + (i * 7 + seed) % ws));
            }
        }
        let curves: Vec<Vec<u64>> = (0..n)
            .map(|p| interpolate_curve(&ucp.umon(p).miss_curve(), blocks))
            .collect();
        let alloc = lookahead(&curves, blocks, 1);
        prop_assert_eq!(ucp.reallocate(), old_block_lines(&alloc, blocks, cache_lines));
    }
}

// ---------------------------------------------------------------------------
// Lookahead against the exact optimum.
// ---------------------------------------------------------------------------

/// SplitMix64 over a counter: the oracle's curve generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A convex miss curve over `0..=blocks`: non-increasing, with marginal
/// gains that never grow.
fn convex_curve(rng: &mut Rng, blocks: u32) -> Vec<u64> {
    let mut gains: Vec<u64> = (0..blocks).map(|_| rng.below(1_000)).collect();
    gains.sort_unstable_by(|a, b| b.cmp(a));
    curve_from_gains(rng.below(10_000), &gains)
}

/// A non-increasing miss curve of one of the shapes UMON curves take:
/// flat (streaming), a cliff (a working set that fits at some size),
/// linear, convex, or arbitrary steps.
fn shaped_curve(rng: &mut Rng, blocks: u32) -> Vec<u64> {
    let gains: Vec<u64> = match rng.below(5) {
        0 => vec![0; blocks as usize],
        1 => {
            let knee = rng.below(u64::from(blocks));
            let drop = rng.below(50_000);
            (0..u64::from(blocks))
                .map(|b| if b == knee { drop } else { 0 })
                .collect()
        }
        2 => vec![rng.below(500); blocks as usize],
        3 => return convex_curve(rng, blocks),
        _ => (0..blocks)
            .map(|_| {
                if rng.below(4) == 0 {
                    rng.below(2_000)
                } else {
                    0
                }
            })
            .collect(),
    };
    curve_from_gains(rng.below(10_000), &gains)
}

fn curve_from_gains(floor: u64, gains: &[u64]) -> Vec<u64> {
    let mut curve = vec![floor + gains.iter().sum::<u64>()];
    for g in gains {
        curve.push(curve.last().expect("non-empty") - g);
    }
    curve
}

/// Partition counts × block counts the figures allocate at.
const SHAPES: [(usize, u32, usize); 4] = [(4, 16, 200), (4, 256, 60), (32, 64, 40), (32, 256, 12)];

#[test]
fn lookahead_is_optimal_on_convex_curves() {
    let mut rng = Rng(0x00C0_4EC5);
    for (n, blocks, cases) in SHAPES {
        for case in 0..cases {
            let curves: Vec<Vec<u64>> = (0..n).map(|_| convex_curve(&mut rng, blocks)).collect();
            let la = lookahead(&curves, blocks, 1);
            let opt = optimal_allocation(&curves, blocks, 1);
            assert_eq!(
                la.iter().sum::<u32>(),
                blocks,
                "{n}x{blocks} case {case}: {la:?}"
            );
            assert_eq!(opt.iter().sum::<u32>(), blocks);
            assert!(
                la.iter().all(|&a| a >= 1),
                "{n}x{blocks} case {case}: {la:?}"
            );
            assert_eq!(
                total_misses(&curves, &la),
                total_misses(&curves, &opt),
                "{n}x{blocks} case {case}: lookahead {la:?} vs optimum {opt:?}"
            );
        }
    }
}

#[test]
fn lookahead_is_never_worse_than_greedy_and_reports_its_excess() {
    let mut rng = Rng(0x0054_A9E5);
    for (n, blocks, cases) in SHAPES {
        let mut excess = Vec::with_capacity(cases);
        for case in 0..cases {
            let curves: Vec<Vec<u64>> = (0..n).map(|_| shaped_curve(&mut rng, blocks)).collect();
            let la = lookahead(&curves, blocks, 1);
            let greedy = greedy_allocation(&curves, blocks, 1);
            let opt = optimal_allocation(&curves, blocks, 1);
            assert_eq!(
                la.iter().sum::<u32>(),
                blocks,
                "{n}x{blocks} case {case}: {la:?}"
            );
            assert!(
                la.iter().all(|&a| a >= 1),
                "{n}x{blocks} case {case}: {la:?}"
            );
            let (m_la, m_greedy, m_opt) = (
                total_misses(&curves, &la),
                total_misses(&curves, &greedy),
                total_misses(&curves, &opt),
            );
            assert!(m_opt <= m_la, "{n}x{blocks} case {case}: the oracle lost");
            assert!(
                m_la <= m_greedy,
                "{n}x{blocks} case {case}: lookahead {la:?} ({m_la} misses) \
                 vs greedy {greedy:?} ({m_greedy} misses)"
            );
            excess.push((m_la - m_opt) as f64 / m_opt.max(1) as f64);
        }
        let optimal = excess.iter().filter(|&&e| e == 0.0).count();
        let mean = excess.iter().sum::<f64>() / excess.len() as f64;
        let worst = excess.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "lookahead vs optimum, {n} partitions x {blocks} blocks: optimal in {optimal}/{cases}, \
             mean excess {:.3}%, worst {:.2}%",
            mean * 100.0,
            worst * 100.0
        );
    }
}
