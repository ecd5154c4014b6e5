//! Order statistics for repeated timings.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First quartile, median and third quartile, cut as Python's
/// `statistics.quantiles(values, n=4)` cuts them (the exclusive
/// method), so a spread computed here equals the one the benchmark's
/// driver computes from the same numbers. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest of the usual percentiles (50, 90, 99, 99.9, 99.99) that
/// still has at least ten of `n` samples beyond it; `None` below 20
/// samples, where not even the median has.
pub fn top_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5].into_iter().find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// The `p`-quantile (nearest rank) of already sorted samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(b - a) / a`, the relative difference the selfcheck prints beside a
/// bound.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_percentile_keeps_ten_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(21), Some(0.5));
        assert_eq!(top_percentile(99), Some(0.5));
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(1_000), Some(0.99));
        assert_eq!(top_percentile(20_000), Some(0.999));
        assert_eq!(top_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[5], 0.99), 5);
    }

    #[test]
    fn rel_diff_signs() {
        assert!((rel_diff(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((rel_diff(2.0, 1.8) + 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
