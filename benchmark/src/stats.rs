//! Order statistics over timing samples.

/// Sorts `v` ascending (samples are finite by construction).
fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Median of `v` (mean of the middle pair for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let rank = (s.len() as f64 * f64::from(p) / 100.0).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile (at most 99) that still has at least ten
/// samples beyond it, or `None` when even the median has fewer: a tail read
/// off fewer than ten samples is one neighbour's hiccup, not a property of
/// the program.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| samples - (samples as f64 * f64::from(p) / 100.0).ceil() as usize >= 10)
}

/// Coefficient of variation of `v` in percent; 0 for fewer than two samples.
pub fn cv_pct(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    if mean == 0.0 {
        0.0
    } else {
        100.0 * var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(91));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv_pct(&[9.0, 10.0, 11.0]) - 10.0).abs() < 1e-9);
    }
}
