//! Order statistics over host-time samples.
//!
//! [`quantiles`] reproduces Python's `statistics.quantiles(data, n)` with
//! its default `exclusive` method, so a median or percentile this benchmark
//! reports is exactly the one a reader computes from the same values with
//! the standard library.

/// The `n - 1` cut points dividing `values` into `n` equal-probability
/// intervals (Python's `statistics.quantiles`, `method="exclusive"`).
/// Returns `None` for fewer than two values or `n < 1`.
#[must_use]
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    if values.len() < 2 || n < 1 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cuts = (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // `i * m - j * n` is negative when the clamp raised `j`; Python
            // evaluates it with signed integers, so do the same.
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect();
    Some(cuts)
}

/// The median (`None` for no values; the value itself for one).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quantiles(values, 2).map(|q| q[0]),
    }
}

/// The interquartile mean: the mean of what is left after the lowest and
/// the highest quarter of the sorted values (`len / 4` each) are dropped
/// (`None` for no values). Rare stalls cannot move it the way they move a
/// mean, and it does not jump between the modes of a bimodal sample the
/// way a median does.
#[must_use]
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = data.len() / 4;
    let middle = &data[cut..data.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The `p`-th percentile for `p` in 1..=99, on the same exclusive method
/// (`None` for fewer than two values).
#[must_use]
pub fn percentile(values: &[f64], p: usize) -> Option<f64> {
    if !(1..=99).contains(&p) {
        return None;
    }
    quantiles(values, 100).map(|q| q[p - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quantiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 10.0, 4.0, 8.0, 6.0], 4).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1.5, 2.5], n=4) clamps j to 1.
        let q = quantiles(&[1.5, 2.5], 4).unwrap();
        assert!(
            close(q[0], 1.25) && close(q[1], 2.0) && close(q[2], 2.75),
            "{q:?}"
        );
        // statistics.quantiles([3, 1, 2], n=4)
        let q = quantiles(&[3.0, 1.0, 2.0], 4).unwrap();
        assert!(
            close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0),
            "{q:?}"
        );
    }

    #[test]
    fn deciles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 21), n=10)
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let q = quantiles(&values, 10).unwrap();
        let want = [2.1, 4.2, 6.3, 8.4, 10.5, 12.6, 14.7, 16.8, 18.9];
        for (got, want) in q.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{q:?}");
        }
        assert!((percentile(&values, 90).unwrap() - 18.9).abs() < 1e-9);
        assert!((percentile(&values, 50).unwrap() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn median_and_percentile_handle_small_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[4.0, 2.0]), Some(3.0));
        assert_eq!(median(&[1.0, 9.0, 5.0]), Some(5.0));
        assert_eq!(quantiles(&[1.0], 4), None);
        assert_eq!(percentile(&[1.0, 2.0], 0), None);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[4.0]), Some(4.0));
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // Sorted 1..=8: drops 1, 2 and 7, 8; a stall of 1000 is dropped too.
        let values = [8.0, 3.0, 1.0, 5.0, 2.0, 6.0, 4.0, 1000.0];
        assert_eq!(interquartile_mean(&values), Some(4.5));
    }
}
