//! Order statistics used for every reported number.

/// Sorts in place and returns the slice (NaN-free inputs only).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it. Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` percentile of each iteration's ascending samples, then the
/// median of those: one disturbed iteration (a stalled window of acks, a
/// burst of slow cycles) cannot move the result the way it moves a
/// percentile of all samples pooled.
pub fn median_percentile<'a>(iterations: impl Iterator<Item = &'a [f64]>, q: f64) -> f64 {
    median(&iterations.map(|it| percentile(it, q)).collect::<Vec<_>>())
}

/// Arithmetic mean; empty input reads 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    let at = |k: usize| {
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    [at(1), at(2), at(3)]
}

/// Interquartile distance as a share of the median: the spread the noise
/// self-check (and the driver) compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1000 samples leave ten beyond the p99.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(w.iter().filter(|x| **x > percentile(&w, 0.99)).count(), 10);
    }

    #[test]
    fn median_of_iterations_ignores_one_outlier() {
        assert_eq!(median(&[4.0, 4.1, 9.0]), 4.1);
        assert_eq!(median(&[1.0, 3.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_of_iterations_shrugs_off_one_bad_iteration() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut stalled = calm.clone();
        stalled[90..].iter_mut().for_each(|x| *x += 1000.0);
        let runs = [calm.as_slice(), calm.as_slice(), stalled.as_slice()];
        assert_eq!(median_percentile(runs.iter().copied(), 0.99), 99.0);
        assert_eq!(median_percentile(runs.iter().copied(), 0.50), 50.0);
        assert_eq!(median_percentile(std::iter::empty(), 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
