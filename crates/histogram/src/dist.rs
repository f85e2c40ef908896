//! The runtime-distribution abstraction shared by 3σPredict and 3σSched.
//!
//! [`RuntimeDistribution`] unifies the empirical histograms produced by the
//! predictor with the analytic shapes used by the worked example and the
//! perturbation study, behind the small [`Dist`] algebra the scheduler needs.
//! [`ConditionalDist`] implements the Eq. 2 renormalisation for running jobs:
//! `P(T > t | T > elapsed) = S(t) / S(elapsed)`.

use serde::{Deserialize, Serialize};

use crate::analytic::{LogNormal, Normal, PointMass, Uniform};
use crate::streaming::StreamingHistogram;

/// Survival probabilities below this are treated as zero (distribution
/// exhausted — the under-estimate regime of §4.2.1).
pub const SURVIVAL_EPSILON: f64 = 1e-9;

/// Number of quantile-grid points used to discretise analytic distributions.
const DEFAULT_MASS_POINTS: usize = 64;

/// Common algebra over runtime distributions.
pub trait Dist {
    /// `P(T ≤ t)`.
    fn cdf(&self, t: f64) -> f64;

    /// `P(T > t)` — the probability the job still holds its resources at
    /// elapsed time `t` (§3.2).
    fn survival(&self, t: f64) -> f64 {
        (1.0 - self.cdf(t)).clamp(0.0, 1.0)
    }

    /// Expected runtime.
    fn mean(&self) -> f64;

    /// Smallest `t` with `cdf(t) ≥ q` (q clamped to `[0, 1]`).
    fn quantile(&self, q: f64) -> f64;

    /// Smallest supported runtime.
    fn lower_bound(&self) -> f64;

    /// Largest supported runtime — the "maximum observed runtime" that
    /// triggers under-estimate handling once exceeded.
    fn upper_bound(&self) -> f64;

    /// Discrete `(runtime, probability)` representation; probabilities
    /// sum to 1. Eq. 1's integral is evaluated as a weighted sum over
    /// these points. An analytic family gives at most `max_points` points
    /// (and at most 64) on its quantile grid; an empirical histogram gives
    /// one point per bin, sorted, whatever `max_points` says.
    fn mass_points(&self, max_points: usize) -> Vec<(f64, f64)>;
}

/// A runtime distribution: either empirical (from history) or analytic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RuntimeDistribution {
    /// Exactly-known runtime (how point-estimate schedulers see jobs).
    Point(PointMass),
    /// Uniform over an interval (worked example of §2.3 / Fig. 5).
    Uniform(Uniform),
    /// Truncated normal (perturbation study of §6.3 / Fig. 9).
    Normal(Normal),
    /// Truncated log-normal (workload generator's per-class runtimes).
    LogNormal(LogNormal),
    /// Empirical histogram of observed runtimes (3σPredict's output).
    Empirical(StreamingHistogram),
}

impl RuntimeDistribution {
    /// Builds an empirical distribution from raw samples.
    ///
    /// Returns `None` when `samples` is empty.
    pub fn from_samples(samples: &[f64], max_bins: usize) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut hist = StreamingHistogram::new(max_bins);
        for s in samples {
            hist.insert(*s);
        }
        Some(Self::Empirical(hist))
    }

    /// A point distribution at `value`.
    pub fn point(value: f64) -> Self {
        Self::Point(PointMass::new(value))
    }

    /// Generic quantile by bisection over a monotone CDF.
    fn bisect_quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let (mut lo, mut hi) = (self.lower_bound(), self.upper_bound());
        if q <= 0.0 {
            return lo;
        }
        if q >= 1.0 {
            return hi;
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-9 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Quantile-grid mass points for analytic shapes.
    fn quantile_grid(&self, n: usize) -> Vec<(f64, f64)> {
        let n = n.max(1);
        let p = 1.0 / n as f64;
        (0..n)
            .map(|i| (self.quantile((i as f64 + 0.5) * p), p))
            .collect()
    }
}

impl Dist for RuntimeDistribution {
    fn cdf(&self, t: f64) -> f64 {
        match self {
            Self::Point(p) => {
                if t >= p.value {
                    1.0
                } else {
                    0.0
                }
            }
            Self::Uniform(u) => u.cdf(t),
            Self::Normal(n) => n.cdf(t),
            Self::LogNormal(l) => l.cdf(t),
            Self::Empirical(h) => {
                let count = h.count();
                if count == 0 {
                    return 0.0;
                }
                h.sum(t) / count as f64
            }
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Self::Point(p) => p.value,
            Self::Uniform(u) => u.mean(),
            Self::Empirical(h) => h.mean().unwrap_or(0.0),
            // Truncated analytic shapes: integrate the quantile function.
            Self::Normal(_) | Self::LogNormal(_) => {
                let pts = self.quantile_grid(256);
                pts.iter().map(|(t, p)| t * p).sum()
            }
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        match self {
            Self::Point(p) => p.value,
            Self::Uniform(u) => u.quantile(q),
            Self::Empirical(h) => h.quantile(q).unwrap_or(0.0),
            Self::Normal(_) | Self::LogNormal(_) => self.bisect_quantile(q),
        }
    }

    fn lower_bound(&self) -> f64 {
        match self {
            Self::Point(p) => p.value,
            Self::Uniform(u) => u.lo,
            Self::Normal(n) => n.cdf_lower(),
            Self::LogNormal(_) => 0.0,
            Self::Empirical(h) => h.min().unwrap_or(0.0),
        }
    }

    fn upper_bound(&self) -> f64 {
        match self {
            Self::Point(p) => p.value,
            Self::Uniform(u) => u.hi,
            Self::Normal(n) => n.cdf_upper(),
            Self::LogNormal(l) => l.cdf_upper(),
            Self::Empirical(h) => h.max().unwrap_or(0.0),
        }
    }

    fn mass_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        match self {
            Self::Point(p) => vec![(p.value, 1.0)],
            Self::Empirical(h) => {
                let pts = h.mass_points();
                if pts.is_empty() {
                    vec![(0.0, 1.0)]
                } else {
                    pts
                }
            }
            _ => self.quantile_grid(max_points.clamp(1, DEFAULT_MASS_POINTS)),
        }
    }
}

/// A running job's distribution conditioned on having run for `elapsed`.
///
/// Implements Eq. 2: `1 − CDF_upd(t) = (1 − CDF(t)) / (1 − CDF(elapsed))`.
/// When the original distribution is exhausted (`S(elapsed) ≈ 0`, i.e. the
/// job has outrun all history — an under-estimate), the conditional
/// degenerates to a point mass at `elapsed`; the scheduler layers
/// exponential-increment handling on top (§4.2.1).
#[derive(Debug, Clone)]
pub struct ConditionalDist<'a> {
    dist: &'a RuntimeDistribution,
    elapsed: f64,
    s_elapsed: f64,
}

impl<'a> ConditionalDist<'a> {
    /// Conditions `dist` on `T > elapsed`.
    pub fn new(dist: &'a RuntimeDistribution, elapsed: f64) -> Self {
        let elapsed = elapsed.max(0.0);
        let s_elapsed = dist.survival(elapsed);
        Self {
            dist,
            elapsed,
            s_elapsed,
        }
    }

    /// Elapsed time this distribution is conditioned on.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// True when the job has outrun the entire distribution support — the
    /// under-estimate regime.
    pub fn is_exhausted(&self) -> bool {
        self.s_elapsed <= SURVIVAL_EPSILON
    }

    /// Conditional survival `P(T > t | T > elapsed)` (total runtime `t`).
    pub fn survival(&self, t: f64) -> f64 {
        if t <= self.elapsed {
            return 1.0;
        }
        if self.is_exhausted() {
            return 0.0;
        }
        (self.dist.survival(t) / self.s_elapsed).clamp(0.0, 1.0)
    }

    /// Conditional CDF.
    pub fn cdf(&self, t: f64) -> f64 {
        1.0 - self.survival(t)
    }

    /// Expected *remaining* runtime beyond `elapsed`, by integrating the
    /// conditional survival over the remaining support.
    pub fn expected_remaining(&self) -> f64 {
        if self.is_exhausted() {
            return 0.0;
        }
        let hi = self.dist.upper_bound();
        if hi <= self.elapsed {
            return 0.0;
        }
        let steps = 128;
        let dt = (hi - self.elapsed) / steps as f64;
        // Midpoint rule over S_cond; S is monotone so this is well-behaved.
        (0..steps)
            .map(|i| self.survival(self.elapsed + (i as f64 + 0.5) * dt) * dt)
            .sum()
    }

    /// Largest supported total runtime (at least `elapsed`).
    pub fn upper_bound(&self) -> f64 {
        self.dist.upper_bound().max(self.elapsed)
    }

    /// Conditional mass points over total runtime; probabilities sum to 1.
    pub fn mass_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.is_exhausted() {
            return vec![(self.elapsed, 1.0)];
        }
        let mut pts: Vec<(f64, f64)> = self
            .dist
            .mass_points(max_points)
            .into_iter()
            .filter(|(t, _)| *t > self.elapsed)
            .collect();
        let total: f64 = pts.iter().map(|(_, p)| p).sum();
        if total <= 0.0 {
            return vec![(self.elapsed, 1.0)];
        }
        for (_, p) in &mut pts {
            *p /= total;
        }
        pts
    }
}

// Accessors for truncation bounds that are implementation details of the
// analytic shapes but needed by the enum dispatch above.
impl Normal {
    pub(crate) fn cdf_lower(&self) -> f64 {
        self.lower()
    }

    pub(crate) fn cdf_upper(&self) -> f64 {
        self.upper()
    }
}

impl LogNormal {
    pub(crate) fn cdf_upper(&self) -> f64 {
        self.upper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(lo: f64, hi: f64) -> RuntimeDistribution {
        RuntimeDistribution::Uniform(Uniform::new(lo, hi))
    }

    #[test]
    fn point_distribution_is_a_step() {
        let d = RuntimeDistribution::point(5.0);
        assert_eq!(d.cdf(4.999), 0.0);
        assert_eq!(d.cdf(5.0), 1.0);
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.mass_points(10), vec![(5.0, 1.0)]);
    }

    #[test]
    fn uniform_survival_matches_paper_example() {
        // Scenario 1 of Fig. 5: U(0, 10); survival at 2.5-step boundaries is
        // 1.0, 0.75, 0.5, 0.25, 0.
        let d = uniform(0.0, 10.0);
        for (t, s) in [
            (0.0, 1.0),
            (2.5, 0.75),
            (5.0, 0.5),
            (7.5, 0.25),
            (10.0, 0.0),
        ] {
            assert!((d.survival(t) - s).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn narrow_uniform_survival_matches_scenario_two() {
        // Scenario 2 of Fig. 5: U(2.5, 7.5); survival at 0, 2.5, 5 is
        // 1.0, 1.0, 0.5.
        let d = uniform(2.5, 7.5);
        assert!((d.survival(0.0) - 1.0).abs() < 1e-12);
        assert!((d.survival(2.5) - 1.0).abs() < 1e-12);
        assert!((d.survival(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.survival(7.5), 0.0);
    }

    #[test]
    fn normal_mean_approximates_mu_away_from_zero() {
        let d = RuntimeDistribution::Normal(Normal::new(100.0, 10.0));
        assert!((d.mean() - 100.0).abs() < 0.5);
        assert!((d.quantile(0.5) - 100.0).abs() < 0.5);
    }

    #[test]
    fn empirical_distribution_from_samples() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let d = RuntimeDistribution::from_samples(&samples, 80).unwrap();
        assert!((d.mean() - 50.5).abs() < 0.5);
        assert!((d.cdf(50.0) - 0.5).abs() < 0.05);
        assert_eq!(d.lower_bound(), 1.0);
        assert_eq!(d.upper_bound(), 100.0);
    }

    #[test]
    fn from_empty_samples_is_none() {
        assert!(RuntimeDistribution::from_samples(&[], 80).is_none());
    }

    #[test]
    fn mass_points_sum_to_one_for_all_shapes() {
        let shapes = vec![
            RuntimeDistribution::point(3.0),
            uniform(1.0, 9.0),
            RuntimeDistribution::Normal(Normal::new(50.0, 5.0)),
            RuntimeDistribution::LogNormal(LogNormal::new(3.0, 1.0)),
            RuntimeDistribution::from_samples(&[1.0, 2.0, 2.0, 8.0], 4).unwrap(),
        ];
        for d in shapes {
            let total: f64 = d.mass_points(32).iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "{d:?}");
        }
    }

    #[test]
    fn conditional_renormalises_per_eq2() {
        // U(0, 10) conditioned on elapsed = 5: S(7.5 | 5) = 0.25/0.5 = 0.5.
        let d = uniform(0.0, 10.0);
        let c = ConditionalDist::new(&d, 5.0);
        assert!(!c.is_exhausted());
        assert!((c.survival(7.5) - 0.5).abs() < 1e-12);
        assert_eq!(c.survival(3.0), 1.0, "past time is certain");
        assert_eq!(c.survival(10.0), 0.0);
        assert!((c.expected_remaining() - 2.5).abs() < 0.1);
    }

    #[test]
    fn conditional_with_zero_elapsed_is_identity() {
        let d = uniform(2.0, 6.0);
        let c = ConditionalDist::new(&d, 0.0);
        for t in [1.0, 3.0, 5.0, 7.0] {
            assert!((c.survival(t) - d.survival(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn exhausted_conditional_is_point_at_elapsed() {
        let d = uniform(0.0, 10.0);
        let c = ConditionalDist::new(&d, 12.0);
        assert!(c.is_exhausted());
        assert_eq!(c.survival(12.0), 1.0);
        assert_eq!(c.survival(12.1), 0.0);
        assert_eq!(c.mass_points(16), vec![(12.0, 1.0)]);
        assert_eq!(c.expected_remaining(), 0.0);
    }

    #[test]
    fn conditional_mass_points_renormalise() {
        let d = uniform(0.0, 10.0);
        let c = ConditionalDist::new(&d, 5.0);
        let pts = c.mass_points(10);
        let total: f64 = pts.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pts.iter().all(|(t, _)| *t > 5.0));
    }
}
