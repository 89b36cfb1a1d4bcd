//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a bug in the
/// benchmark, never a value to print.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive, method)
/// gives them, because that is what the driver computes run-to-run spread
/// with. `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median:
/// the driver's steadiness measure.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile `p` in `(0, 1)`, refused (`None`) when fewer
/// than ten samples lie beyond it — a tail read off a handful of samples
/// is noise, and a gate on noise rejects good changes.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    /// Values from CPython: `statistics.quantiles(range(1, 11), n=4)` is
    /// `[2.75, 5.5, 8.25]` and `quantiles([1, 2, 4, 8, 16], n=4)` is
    /// `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        let many: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(1089.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), None);
    }
}
