//! Test support: an exact allocation oracle.
//!
//! [`optimal_allocation`] is the dynamic program Lookahead approximates: it
//! minimises the summed misses over every split of `blocks` blocks with at
//! least `min_blocks` per partition, in O(partitions × blocks²). It sits on
//! no run path; the allocation tests compare `lookahead` against it.

/// Total misses of allocation `alloc` on `curves`.
pub fn total_misses(curves: &[Vec<u64>], alloc: &[u32]) -> u64 {
    curves.iter().zip(alloc).map(|(c, &a)| c[a as usize]).sum()
}

/// An exact minimum-miss allocation of `blocks` blocks over `curves`, each
/// partition getting at least `min_blocks`; ties go to the split the
/// partitions in index order reach first.
///
/// # Panics
///
/// Panics if `curves` is empty, a curve is shorter than `blocks + 1`, or
/// the minimums do not fit.
pub fn optimal_allocation(curves: &[Vec<u64>], blocks: u32, min_blocks: u32) -> Vec<u32> {
    let n = curves.len();
    let b = blocks as usize;
    let min = min_blocks as usize;
    assert!(n > 0 && curves.iter().all(|c| c.len() > b));
    assert!(min * n <= b, "not enough blocks for the minimum");
    // best[p][u]: least misses of partitions 0..p using exactly u blocks;
    // pick[p][u]: the blocks partition p - 1 takes in that optimum.
    let mut best = vec![vec![u64::MAX; b + 1]; n + 1];
    let mut pick = vec![vec![0usize; b + 1]; n + 1];
    best[0][0] = 0;
    for p in 0..n {
        for used in 0..=b {
            if best[p][used] == u64::MAX {
                continue;
            }
            for a in min..=b - used {
                let m = best[p][used] + curves[p][a];
                if m < best[p + 1][used + a] {
                    best[p + 1][used + a] = m;
                    pick[p + 1][used + a] = a;
                }
            }
        }
    }
    let mut alloc = vec![0u32; n];
    let mut used = b;
    for p in (0..n).rev() {
        let a = pick[p + 1][used];
        alloc[p] = a as u32;
        used -= a;
    }
    alloc
}

/// One-block greedy: every block goes to the partition it saves the most
/// misses for (ties to the lowest index), after `min_blocks` each.
pub fn greedy_allocation(curves: &[Vec<u64>], blocks: u32, min_blocks: u32) -> Vec<u32> {
    let n = curves.len();
    let mut alloc = vec![min_blocks; n];
    for _ in 0..blocks - min_blocks * n as u32 {
        let gain = |p: usize| {
            let a = alloc[p] as usize;
            curves[p][a].saturating_sub(curves[p][a + 1])
        };
        let p = (0..n)
            .max_by_key(|&p| (gain(p), std::cmp::Reverse(p)))
            .expect("at least one partition");
        alloc[p] += 1;
    }
    alloc
}
