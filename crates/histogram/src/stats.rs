//! Small streaming statistics used across 3Sigma.
//!
//! 3σPredict keeps constant-memory state per feature value (§4.1
//! "Scalability"): streaming mean/variance for the *average* expert and the
//! NMAE accounting, and an exponentially weighted moving average for the
//! *rolling* expert. The trace-analysis harness (Fig. 2) additionally needs
//! coefficient-of-variation and quantile helpers.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Mean of the observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then_some(self.m2 / self.count as f64)
    }

    /// Population standard deviation, or `None` if empty.
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Coefficient of variation (σ/μ), or `None` if empty or μ = 0.
    pub fn cov(&self) -> Option<f64> {
        let mean = self.mean()?;
        if mean == 0.0 {
            return None;
        }
        Some(self.std_dev()? / mean.abs())
    }
}

/// Exponentially weighted moving average.
///
/// 3σPredict's *rolling* expert uses `alpha = 0.6` (§4.1): each new
/// observation contributes weight `alpha`, the previous average `1 − alpha`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with the given smoothing factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Folds one observation into the average.
    pub fn push(&mut self, observation: f64) {
        self.value = Some(match self.value {
            None => observation,
            Some(prev) => self.alpha * observation + (1.0 - self.alpha) * prev,
        });
    }

    /// Current average, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Coefficient of variation of a sample (population σ over mean).
///
/// Returns `None` for empty input or zero mean.
pub fn coefficient_of_variation(values: &[f64]) -> Option<f64> {
    let mut m = StreamingMoments::new();
    for v in values {
        m.push(*v);
    }
    m.cov()
}

/// Linear-interpolation quantile of an already-sorted slice.
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
///
/// # Panics
///
/// Debug builds assert the slice is sorted.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_direct_computation() {
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = StreamingMoments::new();
        for v in vals {
            m.push(v);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - 2.0).abs() < 1e-12);
        assert!((m.cov().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_moments_yield_none() {
        let m = StreamingMoments::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.variance(), None);
        assert_eq!(m.cov(), None);
    }

    #[test]
    fn zero_mean_has_no_cov() {
        let mut m = StreamingMoments::new();
        m.push(-1.0);
        m.push(1.0);
        assert_eq!(m.cov(), None);
    }

    #[test]
    fn ewma_first_observation_is_identity() {
        let mut e = Ewma::new(0.6);
        assert_eq!(e.value(), None);
        e.push(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn ewma_weights_recent_observations() {
        let mut e = Ewma::new(0.6);
        e.push(10.0);
        e.push(20.0);
        // 0.6·20 + 0.4·10 = 16.
        assert!((e.value().unwrap() - 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert!((quantile_sorted(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn cov_of_constant_sample_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), Some(0.0));
    }
}
