//! Largest-remainder apportionment: the one place capacity is rounded to
//! whole units.
//!
//! Every allocation step that turns a real-valued share into integers —
//! UCP's blocks to lines, the QoS and clustered policies' weighted splits,
//! equal shares, and a way-granularity scheme's targets to whole ways —
//! goes through [`largest_remainder`], so they all round the same way:
//! each quota is floored, and the units left over go one each to the
//! largest fractional parts, ties to the lowest index.

/// Rounds real-valued `quotas` to integers summing to exactly `total`
/// (taken as an iterator, so callers build no quota vector):
/// each quota is floored, then the remaining units are dealt one at a time
/// in order of decreasing fractional part, ties to the lowest index.
///
/// The quotas should sum to `total`; if rounding leaves more units than
/// quotas, the deal wraps around.
///
/// # Panics
///
/// Panics if a quota is NaN, or if units are left over with no quotas to
/// give them to.
///
/// # Example
///
/// ```
/// use vantage_cache::apportion::largest_remainder;
///
/// // 10 units over 3.4 / 3.3 / 3.3: the floors give 9, the largest
/// // remainder (index 0) gets the tenth.
/// assert_eq!(largest_remainder(10, [3.4, 3.3, 3.3]), vec![4, 3, 3]);
/// // Equal remainders: the lowest indices win.
/// assert_eq!(largest_remainder(5, [2.5, 2.5]), vec![3, 2]);
/// ```
pub fn largest_remainder(total: u64, quotas: impl IntoIterator<Item = f64>) -> Vec<u64> {
    let quotas = quotas.into_iter();
    let mut out = Vec::with_capacity(quotas.size_hint().0);
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(quotas.size_hint().0);
    let mut assigned = 0u64;
    for (p, q) in quotas.enumerate() {
        let whole = q.floor().min(total as f64) as u64;
        out.push(whole);
        fracs.push((p, q - whole as f64));
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
        out[fracs[i % fracs.len()].0] += 1;
        left -= 1;
        i += 1;
    }
    out
}

/// Distributes `total` units across `weights` proportionally and exactly
/// ([`largest_remainder`] over the quotas `total * w / Σw`). All-zero (or
/// non-finite) weights fall back to an even split.
///
/// # Example
///
/// ```
/// use vantage_cache::apportion::apportion;
///
/// assert_eq!(apportion(1_000, &[1.0, 1.0, 1.0]), vec![334, 333, 333]);
/// assert_eq!(apportion(10, &[0.0, 0.0]), vec![5, 5]);
/// ```
pub fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if !sum.is_finite() || sum <= 0.0 {
        return largest_remainder(total, std::iter::repeat_n(total as f64 / n as f64, n));
    }
    largest_remainder(total, weights.iter().map(|&w| total as f64 * (w / sum)))
}
