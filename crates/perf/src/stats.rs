//! Order statistics over small sample sets (block values, probe timings).

/// Ascending copy of `values`.
///
/// # Panics
///
/// Panics if a value is NaN: every caller feeds measured times or counts.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default, exclusive method), which
/// is what the benchmark's acceptance rule is stated in. A single value is
/// its own three quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no values");
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The 99th percentile (nearest rank), or `None` when fewer than ten samples
/// lie beyond it — a tail read off fewer is one slow call, not a percentile.
pub fn p99(values: &[f64]) -> Option<f64> {
    if values.len() < 1000 {
        return None;
    }
    let v = sorted(values);
    let rank = ((v.len() as f64) * 0.99).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]),
            [2.0, 8.0, 32.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&few), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&enough), Some(990.0));
    }
}
