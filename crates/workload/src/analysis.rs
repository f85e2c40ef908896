//! Trace analysis: the statistics behind Fig. 2.
//!
//! Runtime CDFs, per-feature coefficient-of-variation distributions, and the
//! estimate-error histogram that motivates distribution-based scheduling
//! (§2.1). These run over generated traces in the `fig02_traces` bench to
//! verify the synthetic environments reproduce the published shapes.

use std::collections::HashMap;

use threesigma_cluster::JobSpec;
use threesigma_histogram::coefficient_of_variation;

/// Empirical CDF points `(runtime, cumulative fraction)` for Fig. 2(a).
pub fn runtime_cdf(jobs: &[JobSpec]) -> Vec<(f64, f64)> {
    let mut rts: Vec<f64> = jobs.iter().map(|j| j.duration).collect();
    rts.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n = rts.len() as f64;
    rts.iter()
        .enumerate()
        .map(|(i, &r)| (r, (i + 1) as f64 / n))
        .collect()
}

/// Coefficient of variation of job runtimes within each group sharing the
/// same value of `attribute` (Fig. 2(b): `"user"`, Fig. 2(c): `"tasks"`).
/// Groups smaller than `min_group` jobs are skipped. Returned sorted
/// ascending (ready to plot as a CDF).
pub fn cov_by_attribute(jobs: &[JobSpec], attribute: &str, min_group: usize) -> Vec<f64> {
    let mut groups: HashMap<&str, Vec<f64>> = HashMap::new();
    for j in jobs {
        if let Some(v) = j.attributes.get(attribute) {
            groups.entry(v).or_default().push(j.duration);
        }
    }
    let mut covs: Vec<f64> = groups
        .values()
        .filter(|g| g.len() >= min_group.max(2))
        .filter_map(|g| coefficient_of_variation(g))
        .collect();
    covs.sort_by(|a, b| a.partial_cmp(b).expect("finite CoV"));
    covs
}

/// Fraction (0–1) of groups with CoV above `threshold` (CoV > 1 is the
/// paper's "high variability" line).
pub fn high_variability_fraction(covs: &[f64], threshold: f64) -> f64 {
    if covs.is_empty() {
        return 0.0;
    }
    covs.iter().filter(|c| **c > threshold).count() as f64 / covs.len() as f64
}

/// Percent estimate error, `(estimate − actual) / actual × 100` (Fig. 2(d)).
pub fn estimate_error_pct(estimate: f64, actual: f64) -> f64 {
    assert!(actual > 0.0, "actual runtime must be positive");
    (estimate - actual) / actual * 100.0
}

/// Fig. 2(d)'s histogram: buckets centred at −100, −75, …, +75 (each
/// covering ±12.5), plus a `tail` bucket for errors > +95 %.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorHistogram {
    /// `(bucket centre, fraction of jobs as a percentage)`.
    pub buckets: Vec<(f64, f64)>,
    /// Percentage of jobs with error > +95 %.
    pub tail_pct: f64,
}

/// Bucket centres used by [`error_histogram`].
pub(crate) const ERROR_BUCKET_CENTERS: [f64; 8] =
    [-100.0, -75.0, -50.0, -25.0, 0.0, 25.0, 50.0, 75.0];

/// Builds the Fig. 2(d) histogram from percent errors.
pub fn error_histogram(errors: &[f64]) -> ErrorHistogram {
    let mut counts = [0usize; 8];
    let mut tail = 0usize;
    for &e in errors {
        if e > 95.0 {
            tail += 1;
            continue;
        }
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in ERROR_BUCKET_CENTERS.iter().enumerate() {
            let d = (e - c).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        counts[best] += 1;
    }
    let n = errors.len().max(1) as f64;
    ErrorHistogram {
        buckets: ERROR_BUCKET_CENTERS
            .iter()
            .zip(counts)
            .map(|(c, k)| (*c, 100.0 * k as f64 / n))
            .collect(),
        tail_pct: 100.0 * tail as f64 / n,
    }
}

/// Fraction (0–1) of estimates off by at least `factor` in either direction
/// (the paper's "8–23 % off by a factor of two or more" uses `factor = 2`).
pub fn fraction_off_by_factor(estimates_and_actuals: &[(f64, f64)], factor: f64) -> f64 {
    assert!(factor >= 1.0);
    if estimates_and_actuals.is_empty() {
        return 0.0;
    }
    let off = estimates_and_actuals
        .iter()
        .filter(|(est, act)| {
            let ratio = est / act;
            ratio >= factor || ratio <= 1.0 / factor
        })
        .count();
    off as f64 / estimates_and_actuals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_cluster::{Attributes, JobKind};

    fn job(id: u64, duration: f64, user: &str) -> JobSpec {
        JobSpec::new(id, 0.0, 1, duration, JobKind::BestEffort)
            .with_attributes(Attributes::new().with("user", user))
    }

    #[test]
    fn cdf_is_monotone_and_normalised() {
        let jobs = vec![job(1, 10.0, "a"), job(2, 5.0, "a"), job(3, 20.0, "b")];
        let cdf = runtime_cdf(&jobs);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0].0, 5.0);
        assert!((cdf[2].1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn cov_groups_by_attribute() {
        let jobs = vec![
            job(1, 10.0, "steady"),
            job(2, 10.0, "steady"),
            job(3, 10.0, "steady"),
            job(4, 1.0, "wild"),
            job(5, 100.0, "wild"),
            job(6, 7.0, "loner"), // group of 1: skipped
        ];
        let covs = cov_by_attribute(&jobs, "user", 2);
        assert_eq!(covs.len(), 2);
        assert!(covs[0] < 1e-9, "steady user has zero CoV");
        assert!(covs[1] > 0.9, "wild user has high CoV");
        assert!((high_variability_fraction(&covs, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn error_pct_matches_paper_definition() {
        assert!((estimate_error_pct(200.0, 100.0) - 100.0).abs() < 1e-12);
        assert!((estimate_error_pct(50.0, 100.0) + 50.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_tail() {
        let errors = vec![0.0, 3.0, -26.0, 120.0, 96.0, -100.0, 74.0];
        let h = error_histogram(&errors);
        let total: f64 = h.buckets.iter().map(|(_, f)| f).sum::<f64>() + h.tail_pct;
        assert!((total - 100.0).abs() < 1e-9);
        // 120 and 96 land in the tail.
        assert!((h.tail_pct - 2.0 / 7.0 * 100.0).abs() < 1e-9);
        let at = |c: f64| {
            h.buckets
                .iter()
                .find(|(bc, _)| *bc == c)
                .map(|(_, f)| *f)
                .unwrap()
        };
        assert!(at(0.0) > 0.0);
        assert!(at(-25.0) > 0.0);
        assert!(at(75.0) > 0.0);
        assert!(at(-100.0) > 0.0);
    }

    #[test]
    fn empty_inputs_are_calm() {
        let h = error_histogram(&[]);
        assert_eq!(h.tail_pct, 0.0);
        assert!(h.buckets.iter().all(|(_, f)| *f == 0.0));
        assert!(cov_by_attribute(&[], "user", 2).is_empty());
        assert!(runtime_cdf(&[]).is_empty());
        assert_eq!(high_variability_fraction(&[], 1.0), 0.0);
    }

    #[test]
    fn min_group_filters_small_groups() {
        let jobs = vec![
            job(1, 10.0, "a"),
            job(2, 12.0, "a"),
            job(3, 14.0, "a"),
            job(4, 5.0, "b"),
            job(5, 6.0, "b"),
        ];
        assert_eq!(cov_by_attribute(&jobs, "user", 3).len(), 1);
        assert_eq!(cov_by_attribute(&jobs, "user", 2).len(), 2);
        // Unknown attribute → no groups.
        assert!(cov_by_attribute(&jobs, "nonexistent", 1).is_empty());
    }

    #[test]
    fn boundary_error_goes_to_tail_only_above_95() {
        let h = error_histogram(&[95.0, 95.1]);
        assert!((h.tail_pct - 50.0).abs() < 1e-9);
        // 95.0 lands in the 75-centred bucket.
        let at75 = h.buckets.iter().find(|(c, _)| *c == 75.0).unwrap().1;
        assert!((at75 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn factor_of_two_detection() {
        let pairs = vec![
            (100.0, 100.0), // exact
            (210.0, 100.0), // 2.1× over
            (45.0, 100.0),  // 2.2× under
            (130.0, 100.0), // within 2×
        ];
        assert!((fraction_off_by_factor(&pairs, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(fraction_off_by_factor(&[], 2.0), 0.0);
    }
}
