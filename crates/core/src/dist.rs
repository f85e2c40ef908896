//! Discrete working form of a runtime distribution.
//!
//! The scheduler reduces every [`RuntimeDistribution`] to a small set of
//! `(runtime, probability)` mass points once per cycle. All of §3's math
//! then becomes cheap sums: Eq. 1's expected utility is a weighted sum over
//! the points, Eq. 3's expected resource consumption is the survival
//! function of the point set, and Eq. 2's conditional update is a filter
//! plus renormalisation. Off-preferred placement (×1.5 runtime) is a scale
//! of the point abscissae.
//!
//! Survival queries are the capacity-row hot path (one per option per time
//! slot per equivalence set, every cycle), so construction precomputes a
//! suffix-sum table over the sorted points: [`DiscreteDist::survival`] is
//! then a binary search plus a table lookup instead of a full scan. The
//! table stores *forward* partial sums (`suffix[k]` is `p[k] + p[k+1] + …`
//! accumulated left-to-right), which makes the lookup bit-for-bit identical
//! to the linear filter-and-sum it replaces; [`DiscreteDist::survival_linear`]
//! keeps that reference implementation alive for the property tests.

use threesigma_histogram::{Dist, RuntimeDistribution};

/// A discrete runtime distribution: sorted `(runtime, probability)` points
/// with probabilities summing to 1, plus a precomputed survival table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    points: Vec<(f64, f64)>,
    /// `suffix[k] = p[k] + p[k+1] + … + p[n-1]` (forward accumulation);
    /// `suffix[n]` is the empty sum. `survival(t)` is
    /// `suffix[partition_point(t)]`.
    suffix: Vec<f64>,
}

/// Replaces `suffix` with the survival table of `points`, built column by
/// column: every entry starts from the empty sum's bits (`Iterator::sum`
/// for floats starts from -0.0) and `p[j]` is added into `suffix[..=j]`
/// for each `j` in turn. Entry `k` therefore sees `p[k], p[k+1], …` added
/// left to right, the linear scan's order, so it equals that scan bit for
/// bit; the entries of one column are independent, so the inner loop
/// vectorises where a row-by-row sum is one dependent chain per entry.
fn fill_suffix(points: &[(f64, f64)], suffix: &mut Vec<f64>) {
    suffix.clear();
    suffix.resize(points.len() + 1, <[f64]>::iter(&[]).sum());
    for (j, (_, p)) in points.iter().enumerate() {
        for s in suffix.iter_mut().take(j + 1) {
            *s += p;
        }
    }
}

impl DiscreteDist {
    /// Builds from sorted points, precomputing the survival table.
    ///
    /// Each `suffix[k]` is accumulated left-to-right over `points[k..]`, in
    /// the same order as the linear scan it replaces, so lookups agree
    /// exactly (not just approximately) with [`Self::survival_linear`].
    /// The construction is O(n²) (n is one point per histogram bin, up to
    /// 80, for a predicted distribution) and nothing amortises it within
    /// one distribution. In the scheduler a distribution is built once per
    /// predictor state version and shared by every pending job that picks
    /// that version; a running attempt's conditional rebuilds its table in
    /// place ([`Self::condition_into`]) each time its elapsed time crosses
    /// a mass point, and the compile stage keeps it in between
    /// (`sched::compile`).
    fn with_points(points: Vec<(f64, f64)>) -> Self {
        let mut suffix = Vec::with_capacity(points.len() + 1);
        fill_suffix(&points, &mut suffix);
        Self { points, suffix }
    }

    /// Discretises a [`RuntimeDistribution`] into its mass points: one per
    /// bin of an empirical histogram (up to its 80-bin budget, whatever
    /// `max_points` says), at most `max_points` on an analytic family's
    /// quantile grid (see [`Dist::mass_points`]).
    pub fn from_distribution(dist: &RuntimeDistribution, max_points: usize) -> Self {
        let mut points = dist.mass_points(max_points.max(1));
        // Empirical points come sorted (histogram bins are), so this
        // usually skips the sort.
        if !points.is_sorted_by(|a, b| a.0.total_cmp(&b.0).is_le()) {
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let d = Self::with_points(points);
        debug_assert!(d.is_normalised());
        d
    }

    /// A single point mass (how point-estimate schedulers see a job).
    pub fn point(runtime: f64) -> Self {
        Self::with_points(vec![(runtime.max(0.0), 1.0)])
    }

    /// `point(runtime).survival(t)` without building the point mass, bit
    /// for bit: `1.0` before the point, the same empty-sum zero after it.
    pub(crate) fn point_survival(runtime: f64, t: f64) -> f64 {
        if runtime.max(0.0) <= t {
            <[f64]>::iter(&[]).sum()
        } else {
            1.0
        }
    }

    /// Builds directly from points (must be sorted; for tests/examples).
    ///
    /// # Panics
    ///
    /// Panics if the points are unsorted or probabilities do not sum to ~1.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "points must be sorted by runtime"
        );
        let d = Self::with_points(points);
        assert!(d.is_normalised(), "probabilities must sum to 1");
        d
    }

    fn is_normalised(&self) -> bool {
        let total: f64 = self.points.iter().map(|(_, p)| p).sum();
        (total - 1.0).abs() < 1e-6
    }

    /// The mass points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Scales all runtimes by `factor` (off-preferred slowdown).
    ///
    /// Probabilities are unchanged, so the survival table carries over.
    pub fn scale(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self {
            points: self.points.iter().map(|(t, p)| (t * factor, *p)).collect(),
            suffix: self.suffix.clone(),
        }
    }

    /// Conditions on the job having already run `elapsed` seconds (Eq. 2).
    ///
    /// If `elapsed` exceeds every supported runtime (the distribution is
    /// exhausted — an under-estimate), the conditional collapses to a point
    /// mass at `elapsed`; the caller layers exp-inc handling on top.
    pub fn condition(&self, elapsed: f64) -> Self {
        let mut out = Self {
            points: Vec::new(),
            suffix: Vec::new(),
        };
        self.condition_into(elapsed, &mut out);
        out
    }

    /// [`Self::condition`] into `out`'s buffers: it keeps the points past
    /// `elapsed`, divides them by their sum (or falls back to a point mass
    /// at `elapsed` when that sum is at most 1e-12) and rebuilds the
    /// survival table, without allocating once `out` has room.
    pub fn condition_into(&self, elapsed: f64, out: &mut DiscreteDist) {
        let DiscreteDist { points, suffix } = out;
        points.clear();
        points.extend(self.points.iter().filter(|(t, _)| *t > elapsed));
        let total: f64 = points.iter().map(|(_, p)| p).sum();
        if total <= 1e-12 {
            points.clear();
            points.push((elapsed.max(0.0), 1.0));
        } else {
            for (_, p) in points.iter_mut() {
                *p /= total;
            }
        }
        fill_suffix(points, suffix);
    }

    /// `P(T > t)` — probability the job still holds resources after running
    /// for `t` seconds (Eq. 3's `1 − CDF`).
    ///
    /// O(log n): binary search for the first point past `t`, then a suffix
    /// table lookup. Agrees exactly with [`Self::survival_linear`].
    pub fn survival(&self, t: f64) -> f64 {
        let k = self.points.partition_point(|&(ti, _)| ti <= t);
        self.suffix[k]
    }

    /// Reference O(n) survival: the filter-and-sum scan the suffix table
    /// replaced. Kept public so property tests can assert exact agreement.
    pub fn survival_linear(&self, t: f64) -> f64 {
        self.points
            .iter()
            .filter(|(ti, _)| *ti > t)
            .map(|(_, p)| p)
            .sum()
    }

    /// `P(T ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        1.0 - self.survival(t)
    }

    /// Expected runtime.
    pub fn mean(&self) -> f64 {
        self.points.iter().map(|(t, p)| t * p).sum()
    }

    /// Variance of the runtime (second central moment of the mass points).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.points
            .iter()
            .map(|(t, p)| p * (t - mean) * (t - mean))
            .sum()
    }

    /// Largest supported runtime (the under-estimate trigger of §4.2.1).
    pub fn upper(&self) -> f64 {
        self.points.last().map_or(0.0, |(t, _)| *t)
    }

    /// Smallest supported runtime.
    pub fn lower(&self) -> f64 {
        self.points.first().map_or(0.0, |(t, _)| *t)
    }

    /// True once `elapsed` exceeds every supported runtime.
    pub fn is_exhausted_at(&self, elapsed: f64) -> bool {
        elapsed >= self.upper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_histogram::Uniform;

    fn uniform_0_10() -> DiscreteDist {
        DiscreteDist::from_distribution(&RuntimeDistribution::Uniform(Uniform::new(0.0, 10.0)), 40)
    }

    #[test]
    fn from_distribution_preserves_mean() {
        let d = uniform_0_10();
        assert!((d.mean() - 5.0).abs() < 0.2, "mean {}", d.mean());
        assert!(d.points().len() <= 40);
    }

    #[test]
    fn survival_decreases_like_fig5() {
        let d = uniform_0_10();
        assert!((d.survival(0.0) - 1.0).abs() < 0.05);
        assert!((d.survival(2.5) - 0.75).abs() < 0.05);
        assert!((d.survival(5.0) - 0.5).abs() < 0.05);
        assert!((d.survival(7.5) - 0.25).abs() < 0.05);
        assert_eq!(d.survival(10.0), 0.0);
    }

    #[test]
    fn survival_table_matches_linear_scan_exactly() {
        // Bitwise agreement, including at and around every support point.
        let samples: Vec<f64> = (0..500).map(|i| 50.0 + (i % 97) as f64 * 13.0).collect();
        let rd = RuntimeDistribution::from_samples(&samples, 80).unwrap();
        for d in [
            uniform_0_10(),
            DiscreteDist::from_distribution(&rd, 40),
            DiscreteDist::point(5.0),
            DiscreteDist::from_points(vec![(1.0, 0.25), (1.0, 0.25), (2.0, 0.5)]),
        ] {
            let mut probes: Vec<f64> = vec![-1.0, 0.0, f64::INFINITY];
            for &(t, _) in d.points() {
                probes.extend([t - 1e-9, t, t + 1e-9, t / 2.0, t * 2.0]);
            }
            for t in probes {
                assert_eq!(
                    d.survival(t).to_bits(),
                    d.survival_linear(t).to_bits(),
                    "survival({t}) diverges"
                );
            }
        }
    }

    #[test]
    fn survival_table_survives_scale_and_condition() {
        let d = uniform_0_10();
        for dd in [d.scale(1.5), d.condition(4.0), d.scale(2.0).condition(3.0)] {
            for t in [0.0, 3.0, 4.5, 6.0, 11.0, 25.0] {
                assert_eq!(dd.survival(t).to_bits(), dd.survival_linear(t).to_bits());
            }
        }
    }

    #[test]
    fn scaling_stretches_time() {
        let d = DiscreteDist::point(100.0).scale(1.5);
        assert_eq!(d.mean(), 150.0);
        assert_eq!(d.upper(), 150.0);
        assert_eq!(d.survival(149.0), 1.0);
        assert_eq!(d.survival(150.0), 0.0);
    }

    #[test]
    fn conditioning_renormalises() {
        let d = uniform_0_10().condition(5.0);
        assert!((d.survival(7.5) - 0.5).abs() < 0.07, "{}", d.survival(7.5));
        assert!(d.lower() > 5.0);
        let total: f64 = d.points().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_condition_is_point_at_elapsed() {
        let d = uniform_0_10();
        assert!(d.is_exhausted_at(10.0));
        let c = d.condition(12.0);
        assert_eq!(c.points(), &[(12.0, 1.0)]);
    }

    #[test]
    fn point_mass_cdf_is_a_step() {
        let d = DiscreteDist::point(5.0);
        assert_eq!(d.cdf(4.9), 0.0);
        assert_eq!(d.cdf(5.0), 1.0);
        assert!(!d.is_exhausted_at(4.9));
        assert!(d.is_exhausted_at(5.0));
    }

    #[test]
    fn conditioning_is_idempotent_past_elapsed() {
        let d = uniform_0_10();
        let once = d.condition(4.0);
        let twice = once.condition(4.0);
        assert_eq!(once.points().len(), twice.points().len());
        for (a, b) in once.points().iter().zip(twice.points()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12, "re-conditioning is a no-op");
        }
        // Conditioning further ahead only removes more mass.
        let further = once.condition(6.0);
        assert!(further.lower() >= 6.0);
        assert!(further.points().len() <= once.points().len());
    }

    #[test]
    fn condition_then_scale_commutes_with_scale_then_condition() {
        let d = uniform_0_10();
        let a = d.scale(1.5).condition(6.0);
        let b = d.condition(4.0).scale(1.5);
        // Same support and mass (scaling time by 1.5 maps elapsed 4 → 6).
        assert!((a.lower() - b.lower()).abs() < 1e-9);
        assert!((a.upper() - b.upper()).abs() < 1e-9);
        assert!((a.mean() - b.mean()).abs() < 1e-9);
    }

    #[test]
    fn survival_plus_cdf_is_one() {
        let d = DiscreteDist::from_points(vec![(1.0, 0.25), (2.0, 0.25), (5.0, 0.5)]);
        for t in [0.0, 1.0, 1.5, 2.0, 4.9, 5.0, 9.0] {
            assert!((d.survival(t) + d.cdf(t) - 1.0).abs() < 1e-12);
        }
        assert_eq!(d.lower(), 1.0);
        assert_eq!(d.upper(), 5.0);
    }

    #[test]
    fn point_survival_matches_a_built_point_mass_bit_for_bit() {
        let edges = [
            f64::NEG_INFINITY,
            -5.0,
            -0.0,
            0.0,
            1e-300,
            5.0,
            f64::from_bits(5f64.to_bits() + 1),
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for runtime in edges {
            for t in edges {
                assert_eq!(
                    DiscreteDist::point_survival(runtime, t).to_bits(),
                    DiscreteDist::point(runtime).survival(t).to_bits(),
                    "point({runtime}).survival({t})"
                );
            }
        }
    }

    #[test]
    fn variance_of_symmetric_two_point_mass() {
        let d = DiscreteDist::from_points(vec![(50.0, 0.5), (150.0, 0.5)]);
        assert_eq!(d.mean(), 100.0);
        assert_eq!(d.variance(), 2500.0);
        assert_eq!(DiscreteDist::point(42.0).variance(), 0.0);
    }

    /// `condition` as it was written before `condition_into`: a fresh
    /// filter-and-collect, divided by the kept sum, built by `with_points`.
    fn reference_condition(d: &DiscreteDist, elapsed: f64) -> DiscreteDist {
        let kept: Vec<(f64, f64)> = d
            .points
            .iter()
            .filter(|(t, _)| *t > elapsed)
            .copied()
            .collect();
        let total: f64 = kept.iter().map(|(_, p)| p).sum();
        if total <= 1e-12 {
            return DiscreteDist::point(elapsed);
        }
        DiscreteDist::with_points(kept.into_iter().map(|(t, p)| (t, p / total)).collect())
    }

    fn bits(d: &DiscreteDist) -> (Vec<(u64, u64)>, Vec<u64>) {
        (
            (d.points.iter())
                .map(|(t, p)| (t.to_bits(), p.to_bits()))
                .collect(),
            d.suffix.iter().map(|s| s.to_bits()).collect(),
        )
    }

    proptest::proptest! {
        /// `condition_into` into one buffer reused across two priors and
        /// many elapsed times equals a fresh `condition`, and the
        /// filter-and-collect reference, bit for bit — points and survival
        /// table — so nothing of an earlier result survives in the buffer:
        /// priors with duplicate abscissae and masses below the 1e-12
        /// floor, elapsed times on, one ulp either side of, and past
        /// support points, and before zero.
        #[test]
        fn condition_into_matches_condition_bit_for_bit(
            mut times in proptest::collection::vec(1.0f64..500.0, 1..12),
            weights in proptest::collection::vec(0.0f64..1.0, 12),
            tiny in proptest::collection::vec(0u8..4, 12),
            dups in proptest::collection::vec(0u8..3, 12),
            steps in proptest::collection::vec(0.0f64..1.0, 1..24),
            nudges in proptest::collection::vec(0u8..5, 24),
        ) {
            times.sort_by(f64::total_cmp);
            for i in 1..times.len() {
                if dups[i] == 0 {
                    times[i] = times[i - 1];
                }
            }
            let raw: Vec<f64> = (0..times.len())
                .map(|i| if tiny[i] == 0 { 1e-15 } else { 0.05 + weights[i] })
                .collect();
            let total: f64 = raw.iter().sum();
            let prior = DiscreteDist::from_points(
                times.iter().zip(&raw).map(|(t, w)| (*t, w / total)).collect(),
            );
            let priors = [prior.scale(1.5), prior];
            let mut out = DiscreteDist::point(0.0);
            for (i, (step, nudge)) in steps.iter().zip(&nudges).enumerate() {
                let d = &priors[i % 2];
                let k = (step * (d.points().len() + 1) as f64) as usize;
                let target = d.points().get(k).map_or(d.upper() + 100.0 * step, |p| p.0);
                let elapsed = match nudge {
                    0 => target,
                    1 => f64::from_bits(target.to_bits() - 1),
                    2 => f64::from_bits(target.to_bits() + 1),
                    3 => -step,
                    _ => step * d.upper(),
                };
                d.condition_into(elapsed, &mut out);
                let want = bits(&reference_condition(d, elapsed));
                proptest::prop_assert_eq!(bits(&d.condition(elapsed)), want.clone(), "at {}", elapsed);
                proptest::prop_assert_eq!(bits(&out), want, "at {}", elapsed);
            }
        }
    }

    /// The survival table as it was built before the column-order fill:
    /// each entry its own left-to-right sum over the points past it.
    fn row_order_suffix(points: &[(f64, f64)]) -> Vec<f64> {
        let tails = std::iter::successors(Some(points), |tail| tail.split_first().map(|(_, t)| t));
        tails
            .map(|tail| tail.iter().map(|(_, p)| p).sum::<f64>())
            .collect()
    }

    proptest::proptest! {
        /// The column-order survival table equals the row-order one bit
        /// for bit, through `with_points` and through `condition_into`
        /// into a reused buffer, on point sets of 1 to 80 points whose
        /// masses mix magnitudes (so rounding differs with the order of
        /// additions) and include exact zeros and duplicates.
        #[test]
        fn column_order_suffix_matches_row_order_bit_for_bit(
            len in 1usize..81,
            raw in proptest::collection::vec(0.0f64..1.0, 80),
            scale in proptest::collection::vec(0u8..6, 80),
            cut in 0.0f64..1.0,
        ) {
            let masses: Vec<f64> = (0..len)
                .map(|i| match scale[i] {
                    0 => 0.0,
                    1 => raw[i] * 1e-12,
                    2 => raw[i] * 1e6,
                    _ => raw[i],
                })
                .collect();
            let total: f64 = masses.iter().sum();
            let points: Vec<(f64, f64)> = (0..len)
                .map(|i| ((i / 2) as f64 * 3.5, if total > 0.0 { masses[i] / total } else { 1.0 / len as f64 }))
                .collect();
            let d = DiscreteDist::with_points(points.clone());
            let want: Vec<u64> = row_order_suffix(&points).iter().map(|s| s.to_bits()).collect();
            proptest::prop_assert_eq!(d.suffix.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), want);
            let mut out = DiscreteDist::point(1.0);
            d.condition_into(cut * d.upper(), &mut out);
            let want: Vec<u64> = row_order_suffix(&out.points).iter().map(|s| s.to_bits()).collect();
            proptest::prop_assert_eq!(out.suffix.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_points_panic() {
        let _ = DiscreteDist::from_points(vec![(5.0, 0.5), (1.0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn unnormalised_points_panic() {
        let _ = DiscreteDist::from_points(vec![(1.0, 0.5), (2.0, 0.2)]);
    }
}
