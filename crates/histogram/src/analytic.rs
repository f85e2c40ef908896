//! Quantile grids of the analytic runtime distributions.
//!
//! The paper's worked example (§2.3, Fig. 5) reasons about uniform runtime
//! distributions, the robustness study (§6.3, Fig. 9) feeds the scheduler
//! synthetic normal distributions `N(μ = runtime·(1 + shift), σ =
//! runtime·CoV)`, and 3σSched's cold-start prior is a broad log-normal.
//! None of them is kept as a shape: each becomes `n` equal-mass points at
//! its `(i + ½)/n` quantiles, which the constructors of
//! [`DiscreteDist`](crate::DiscreteDist) turn into the one distribution
//! type the scheduler reads.
//!
//! Every family is truncated to a finite non-negative support: a job cannot
//! run for negative time, and the scheduler's under-estimate handling
//! (§4.2.1) triggers off the finite distribution maximum.

/// Error function approximation (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// `n` (at least one) equal-mass points at the `(i + ½)/n` quantiles.
fn quantile_grid(n: usize, quantile: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    let n = n.max(1);
    let p = 1.0 / n as f64;
    (0..n)
        .map(|i| (quantile((i as f64 + 0.5) * p), p))
        .collect()
}

/// Smallest `t` in `[lo, hi]` with `cdf(t) ≥ q`, by bisection over a
/// monotone `cdf`, for `q` strictly inside `(0, 1)` (a grid quantile).
fn bisect_quantile(lo: f64, hi: f64, cdf: impl Fn(f64) -> f64, q: f64) -> f64 {
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < q {
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

/// The quantile grid of the uniform distribution over `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is negative or non-finite.
pub(crate) fn uniform_grid(lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!((0.0..=hi).contains(&lo), "need 0 ≤ lo ≤ hi");
    quantile_grid(n, |q| lo + (hi - lo) * q)
}

/// The quantile grid of `N(mu, sigma²)` truncated to `[max(0, mu − 4σ),
/// mu + 4σ]`, its CDF renormalised over that interval.
///
/// # Panics
///
/// Panics if `sigma` is not strictly positive or an input is non-finite.
pub(crate) fn normal_grid(mu: f64, sigma: f64, n: usize) -> Vec<(f64, f64)> {
    assert!(mu.is_finite() && sigma.is_finite(), "must be finite");
    assert!(sigma > 0.0, "sigma must be positive");
    let lo = (mu - 4.0 * sigma).max(0.0);
    let hi = (mu + 4.0 * sigma).max(lo + f64::MIN_POSITIVE);
    let raw_cdf = |t: f64| std_normal_cdf((t - mu) / sigma);
    let base = raw_cdf(lo);
    let span = raw_cdf(hi) - base;
    let cdf = |t: f64| {
        if t <= lo {
            0.0
        } else if t >= hi {
            1.0
        } else if span <= 0.0 {
            if t >= mu {
                1.0
            } else {
                0.0
            }
        } else {
            ((raw_cdf(t) - base) / span).clamp(0.0, 1.0)
        }
    };
    quantile_grid(n, |q| bisect_quantile(lo, hi, cdf, q))
}

/// The quantile grid of the log-normal whose `ln T` is `N(mu, sigma²)`,
/// truncated at its 99.95th percentile (`z ≈ 3.2905`).
///
/// # Panics
///
/// Panics if `sigma` is not strictly positive or an input is non-finite.
pub(crate) fn log_normal_grid(mu: f64, sigma: f64, n: usize) -> Vec<(f64, f64)> {
    assert!(mu.is_finite() && sigma.is_finite(), "must be finite");
    assert!(sigma > 0.0, "sigma must be positive");
    let hi = (mu + 3.2905 * sigma).exp();
    let raw_cdf = |t: f64| {
        if t <= 0.0 {
            0.0
        } else {
            std_normal_cdf((t.ln() - mu) / sigma)
        }
    };
    let span = raw_cdf(hi);
    let cdf = |t: f64| {
        if t >= hi {
            1.0
        } else if span <= 0.0 {
            0.0
        } else {
            (raw_cdf(t) / span).clamp(0.0, 1.0)
        }
    };
    quantile_grid(n, |q| bisect_quantile(0.0, hi, cdf, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn std_normal_cdf_is_symmetric() {
        for z in [0.1, 0.5, 1.3, 2.7] {
            let s = std_normal_cdf(z) + std_normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-9, "symmetry at {z}");
        }
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_uniform_is_a_point() {
        assert!(uniform_grid(3.0, 3.0, 8).iter().all(|(t, _)| *t == 3.0));
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn uniform_rejects_inverted_bounds() {
        let _ = uniform_grid(5.0, 1.0, 8);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn normal_rejects_zero_sigma() {
        let _ = normal_grid(5.0, 0.0, 8);
    }
}
