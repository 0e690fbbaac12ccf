//! Aperture, stability and unmanaged-region sizing math (Eqs. 4-9, §4.3).

/// Per-partition aperture for heterogeneous partitions (Eq. 4):
///
/// ```text
/// A_i = (C_i / ΣC) · (ΣS / S_i) · 1 / (R·m)
/// ```
///
/// where `C_i` is the partition's churn (insertions per unit time), `S_i`
/// its size, and sums run over all partitions. Partitions with above-average
/// churn or below-average size need larger apertures.
///
/// # Panics
///
/// Panics if any argument is non-positive where positivity is required.
pub fn aperture(churn: f64, size: f64, churn_sum: f64, size_sum: f64, r: u32, m: f64) -> f64 {
    assert!(r > 0, "candidate count must be non-zero");
    assert!(m > 0.0 && m <= 1.0, "managed fraction must be in (0, 1]");
    assert!(
        churn >= 0.0 && churn_sum > 0.0,
        "churns must be non-negative, sum positive"
    );
    assert!(size > 0.0 && size_sum > 0.0, "sizes must be positive");
    (churn / churn_sum) * (size_sum / size) / (f64::from(r) * m)
}

/// Minimum stable size of a high-churn partition (Eq. 5): the size at which
/// its churn/size ratio can be handled with aperture `a_max`, as a fraction
/// of total cache size.
///
/// ```text
/// MSS_j = (C_j / ΣC) · ΣS / (A_max · R · m)
/// ```
pub fn min_stable_size(
    churn: f64,
    churn_sum: f64,
    size_sum: f64,
    a_max: f64,
    r: u32,
    m: f64,
) -> f64 {
    assert!(a_max > 0.0 && a_max <= 1.0, "A_max must be in (0, 1]");
    assert!(r > 0 && m > 0.0, "bad geometry");
    (churn / churn_sum) * size_sum / (a_max * f64::from(r) * m)
}

/// Worst-case total space borrowed from the unmanaged region by partitions
/// sitting at their minimum stable sizes (Eq. 6): `≈ 1 / (A_max · R)` of the
/// cache, independent of the number of partitions.
pub fn total_borrowed_approx(a_max: f64, r: u32) -> f64 {
    assert!(a_max > 0.0 && a_max <= 1.0 && r > 0, "bad parameters");
    1.0 / (a_max * f64::from(r))
}

/// Exact form of Eq. 6's derivation: `1 / (A_max·R − 1/m)`.
///
/// For any reasonable `A_max`, `R`, `m`, this differs negligibly from
/// [`total_borrowed_approx`] (the paper's point).
///
/// # Panics
///
/// Panics if `A_max·R ≤ 1/m` (no stable configuration exists).
pub fn total_borrowed_exact(a_max: f64, r: u32, m: f64) -> f64 {
    assert!(m > 0.0 && m <= 1.0, "managed fraction must be in (0, 1]");
    let denom = a_max * f64::from(r) - 1.0 / m;
    assert!(denom > 0.0, "A_max·R must exceed 1/m for stability");
    1.0 / denom
}

/// Aggregate steady-state outgrowth of all partitions under feedback-based
/// aperture control (Eq. 9): `Σ ΔS_i = slack / (A_max · R)` of the cache.
pub fn feedback_outgrowth(slack: f64, a_max: f64, r: u32) -> f64 {
    assert!(slack >= 0.0, "slack must be non-negative");
    assert!(a_max > 0.0 && a_max <= 1.0 && r > 0, "bad parameters");
    slack / (a_max * f64::from(r))
}

/// Worst-case probability of a forced eviction from the managed region when
/// a fraction `u` of the cache is unmanaged: `P_ev = (1-u)^R` (§4.3).
pub fn forced_eviction_prob(u: f64, r: u32) -> f64 {
    assert!((0.0..=1.0).contains(&u), "u must be a fraction");
    assert!(r > 0, "candidate count must be non-zero");
    (1.0 - u).powi(r as i32)
}

/// The §4.3 unmanaged-region sizing rule (Fig. 5), which Vantage's
/// configuration applies.
pub use vantage_partitioning::config::unmanaged_fraction;

/// Inverts the §4.3 sizing rule: given a *total* unmanaged fraction `u`,
/// the worst-case probability of a forced managed eviction once the
/// MSS and slack reserves (`(1+slack)/(A_max·R)`) are carved out:
///
/// ```text
/// P_ev = (1 − (u − (1+slack)/(A_max·R)))^R
/// ```
///
/// Returns 1.0 if the reserves consume the whole unmanaged region (no
/// eviction-absorption margin left). This is the model marker plotted on
/// Fig. 9b.
pub fn worst_case_pev(u: f64, r: u32, a_max: f64, slack: f64) -> f64 {
    assert!((0.0..=1.0).contains(&u), "u must be a fraction");
    assert!(a_max > 0.0 && a_max <= 1.0 && r > 0, "bad parameters");
    assert!(slack >= 0.0, "slack must be non-negative");
    let margin = u - (1.0 + slack) / (a_max * f64::from(r));
    if margin <= 0.0 {
        1.0
    } else {
        (1.0 - margin).powi(r as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_pev_inverts_sizing() {
        // unmanaged_fraction and worst_case_pev are inverses.
        for pev in [1e-2, 1e-3, 1e-4] {
            let u = unmanaged_fraction(52, pev, 0.4, 0.1);
            let back = worst_case_pev(u, 52, 0.4, 0.1);
            assert!(
                (back.log10() - pev.log10()).abs() < 0.05,
                "{pev} -> {u} -> {back}"
            );
        }
        // No margin: probability 1.
        assert_eq!(worst_case_pev(0.01, 52, 0.4, 0.1), 1.0);
    }

    #[test]
    fn paper_worked_example_section_3_4() {
        // 4 equal partitions, partition 1 with twice the churn; R = 16,
        // m = 0.625. Expected apertures: 16% and 8%.
        let sizes = [1.0, 1.0, 1.0, 1.0];
        let churns = [2.0, 1.0, 1.0, 1.0];
        let churn_sum: f64 = churns.iter().sum();
        let size_sum: f64 = sizes.iter().sum();
        let a1 = aperture(churns[0], sizes[0], churn_sum, size_sum, 16, 0.625);
        let a2 = aperture(churns[1], sizes[1], churn_sum, size_sum, 16, 0.625);
        assert!((a1 - 0.16).abs() < 1e-12, "A_1 = {a1}");
        assert!((a2 - 0.08).abs() < 1e-12, "A_2 = {a2}");
    }

    #[test]
    fn paper_mss_example_section_3_4() {
        // §3.4: R = 52 candidates, A_max = 0.4 → extra 1/(0.4·52) = 4.8%.
        let b = total_borrowed_approx(0.4, 52);
        assert!((b - 0.0481).abs() < 1e-3, "borrowed = {b}");
    }

    #[test]
    fn exact_and_approx_borrowed_agree() {
        let approx = total_borrowed_approx(0.4, 52);
        let exact = total_borrowed_exact(0.4, 52, 0.85);
        assert!((approx - exact).abs() / exact < 0.07, "{approx} vs {exact}");
    }

    #[test]
    fn paper_outgrowth_example_section_4_1() {
        // R = 52, slack = 0.1, A_max = 0.4 → Σ ΔS_i = 0.48% of cache.
        let g = feedback_outgrowth(0.1, 0.4, 52);
        assert!((g - 0.0048).abs() < 1e-4, "outgrowth = {g}");
    }

    #[test]
    fn paper_unmanaged_sizing_section_4_3() {
        // "with 52 candidates, A_max = 0.4 requires 13% of the cache to be
        // unmanaged for P_ev = 1e-2, while going down to P_ev = 1e-4 would
        // require 21%".
        let u2 = unmanaged_fraction(52, 1e-2, 0.4, 0.1);
        let u4 = unmanaged_fraction(52, 1e-4, 0.4, 0.1);
        assert!((u2 - 0.13).abs() < 0.015, "u(P_ev=1e-2) = {u2}");
        assert!((u4 - 0.21).abs() < 0.015, "u(P_ev=1e-4) = {u4}");
    }

    #[test]
    fn forced_eviction_prob_matches_cdf() {
        // (1-u)^R is exactly FA(m): the chance all R candidates are managed.
        let p = forced_eviction_prob(0.3, 16);
        assert!((p - 0.7f64.powi(16)).abs() < 1e-15);
        // Fig. 2a's setup: u = 0.3, R = 16 gives ~1e-3.
        assert!(p > 1e-4 && p < 1e-2);
    }

    #[test]
    fn unmanaged_fraction_monotonicity() {
        // Stricter isolation (smaller P_ev) needs a larger unmanaged region;
        // more candidates need a smaller one.
        assert!(unmanaged_fraction(52, 1e-4, 0.4, 0.1) > unmanaged_fraction(52, 1e-2, 0.4, 0.1));
        assert!(unmanaged_fraction(16, 1e-2, 0.4, 0.1) > unmanaged_fraction(52, 1e-2, 0.4, 0.1));
        // Larger max aperture shrinks the MSS reserve.
        assert!(unmanaged_fraction(52, 1e-2, 0.2, 0.1) > unmanaged_fraction(52, 1e-2, 0.6, 0.1));
    }

    #[test]
    fn mss_scales_with_churn_share() {
        let a = min_stable_size(1.0, 2.0, 1.0, 0.4, 52, 0.85);
        let b = min_stable_size(2.0, 2.0, 1.0, 0.4, 52, 0.85);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn unstable_configuration_rejected() {
        total_borrowed_exact(0.05, 4, 0.9); // A_max·R = 0.2 < 1/m
    }
}
