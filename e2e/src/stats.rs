//! Order statistics shared by the timed run, the traced run, `--repeat`
//! and `compare`.

/// Sorts ascending; timings are never NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `q` quantile of an ascending slice by linear interpolation between
/// closest ranks; `0.0` for an empty slice (a metric with no sample).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Geometric mean of the positive values; `0.0` when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// The `q` quantile of weighted values: each value sits at the middle of
/// its share of the weight, and the quantile is read off the straight lines
/// between neighbours. With a handful of heavy values — four statement
/// classes, say — a quantile that lands between two of them then moves
/// smoothly when a weight changes by one, and does not jump from one value
/// to the other. `0.0` when there is no weight.
pub fn weighted_quantile(mut values: Vec<(f64, usize)>, q: f64) -> f64 {
    values.retain(|v| v.1 > 0);
    values.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = values.iter().map(|v| v.1).sum();
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut before = 0.0;
    let mut last: Option<(f64, f64)> = None;
    for &(value, weight) in &values {
        let middle = before + weight as f64 / 2.0;
        if target <= middle {
            return match last {
                Some((low, low_middle)) => {
                    low + (value - low) * (target - low_middle) / (middle - low_middle)
                }
                None => value,
            };
        }
        last = Some((value, middle));
        before += weight as f64;
    }
    last.map_or(0.0, |(value, _)| value)
}

/// `a / b`, or `0.0` when `b` is zero — a ratio with no base has no sample.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `--repeat` and `compare` judge spread the way the acceptance
/// procedure does. Fewer than two values have no spread: all three are the
/// value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let m = data.len();
    if m < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    ratio(q3 - q1, q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    }

    #[test]
    fn weighted_quantile_reads_between_the_middles() {
        let values = vec![(10.0, 5), (100.0, 3), (500.0, 1)];
        // Middles at 2.5, 6.5 and 8.5 of 9.
        assert_eq!(weighted_quantile(values.clone(), 0.0), 10.0);
        assert_eq!(weighted_quantile(values.clone(), 2.5 / 9.0), 10.0);
        assert_eq!(weighted_quantile(values.clone(), 0.5), 55.0);
        assert_eq!(weighted_quantile(values.clone(), 6.5 / 9.0), 100.0);
        assert_eq!(weighted_quantile(values.clone(), 1.0), 500.0);
        // Equal weights: the median of an odd number is the middle value.
        let equal = vec![(3.0, 7), (1.0, 7), (2.0, 7)];
        assert_eq!(weighted_quantile(equal, 0.5), 2.0);
        assert_eq!(weighted_quantile(vec![], 0.5), 0.0);
        assert_eq!(weighted_quantile(vec![(4.0, 0)], 0.5), 0.0);
    }

    #[test]
    fn geomean_ignores_missing_samples() {
        assert!((geomean(&[2.0, 8.0, 0.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
