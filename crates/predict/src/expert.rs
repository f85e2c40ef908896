//! Per-feature-value history state and the four point estimators.
//!
//! A `feature-value:estimator` pair is an **expert** (§4.1). Each expert's
//! accuracy is tracked prequentially: when a new runtime arrives, every
//! estimator is first asked for its prediction, the normalised mean absolute
//! error accounts are updated, and only then is the observation folded in.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use threesigma_histogram::{Ewma, RuntimeDistribution, StreamingHistogram, StreamingMoments};

/// The four point-estimation techniques of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Mean of all observed runtimes.
    Average,
    /// Median of recent runtimes (streaming proxy for the true median).
    RecentMedian,
    /// Exponentially weighted rolling average (α = 0.6).
    Rolling,
    /// Average of the X most recent runtimes.
    RecentAverage,
}

/// All estimator kinds, in a stable order.
pub const ESTIMATORS: [EstimatorKind; 4] = [
    EstimatorKind::Average,
    EstimatorKind::RecentMedian,
    EstimatorKind::Rolling,
    EstimatorKind::RecentAverage,
];

impl EstimatorKind {
    /// Stable index into per-state score arrays.
    pub fn index(self) -> usize {
        match self {
            EstimatorKind::Average => 0,
            EstimatorKind::RecentMedian => 1,
            EstimatorKind::Rolling => 2,
            EstimatorKind::RecentAverage => 3,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Average => "average",
            EstimatorKind::RecentMedian => "median",
            EstimatorKind::Rolling => "rolling",
            EstimatorKind::RecentAverage => "recent-avg",
        }
    }
}

/// NMAE accounting for one expert: `Σ|estimate − actual| / Σ actual`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Score {
    abs_err_sum: f64,
    actual_sum: f64,
    /// Number of scored predictions.
    pub evals: u64,
}

impl Score {
    /// Normalised mean absolute error, `None` before any evaluation.
    pub fn nmae(&self) -> Option<f64> {
        if self.evals == 0 || self.actual_sum <= 0.0 {
            return None;
        }
        Some(self.abs_err_sum / self.actual_sum)
    }

    fn update(&mut self, estimate: f64, actual: f64) {
        self.abs_err_sum += (estimate - actual).abs();
        self.actual_sum += actual;
        self.evals += 1;
    }
}

/// History state for one feature value: distribution sketch, estimator
/// state, and expert scores — all constant memory (§4.1 "Scalability"),
/// except in the explicit `sample_cap` mode used by the Fig. 11 study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueState {
    hist: StreamingHistogram,
    moments: StreamingMoments,
    ewma: Ewma,
    /// Last `recent_window` runtimes (median / recent-average experts).
    recent: VecDeque<f64>,
    recent_window: usize,
    /// When set, the distribution and estimators see only the last N
    /// samples (the E2E-SAMPLE-n sensitivity study, §6.4).
    capped: Option<VecDeque<f64>>,
    sample_cap: usize,
    scores: [Score; 4],
}

impl ValueState {
    /// Creates empty state.
    pub fn new(
        max_bins: usize,
        recent_window: usize,
        ewma_alpha: f64,
        sample_cap: Option<usize>,
    ) -> Self {
        assert!(recent_window >= 1, "recent window must hold a sample");
        Self {
            hist: StreamingHistogram::new(max_bins),
            moments: StreamingMoments::new(),
            ewma: Ewma::new(ewma_alpha),
            recent: VecDeque::with_capacity(recent_window),
            recent_window,
            capped: sample_cap.map(|n| VecDeque::with_capacity(n.max(1))),
            sample_cap: sample_cap.unwrap_or(0).max(1),
            scores: [Score::default(); 4],
        }
    }

    /// Number of runtimes observed (capped mode: within the window).
    pub fn count(&self) -> u64 {
        match &self.capped {
            Some(w) => w.len() as u64,
            None => self.hist.count(),
        }
    }

    /// Current point estimate of an estimator, `None` with no history.
    pub fn estimate(&self, kind: EstimatorKind) -> Option<f64> {
        self.estimate_with(kind, &mut Vec::new())
    }

    /// All four current estimates, indexed by [`EstimatorKind::index`];
    /// the median sorts its copy of the recent window in `scratch`, so a
    /// reused buffer makes this allocation-free.
    pub(crate) fn estimates(&self, scratch: &mut Vec<f64>) -> [Option<f64>; 4] {
        ESTIMATORS.map(|kind| self.estimate_with(kind, scratch))
    }

    fn estimate_with(&self, kind: EstimatorKind, scratch: &mut Vec<f64>) -> Option<f64> {
        if self.count() == 0 {
            return None;
        }
        match kind {
            EstimatorKind::Average => match &self.capped {
                Some(w) => Some(w.iter().sum::<f64>() / w.len() as f64),
                None => self.moments.mean(),
            },
            EstimatorKind::Rolling => match &self.capped {
                Some(w) => {
                    let alpha = 0.6;
                    let mut acc: Option<f64> = None;
                    for &x in w {
                        acc = Some(match acc {
                            None => x,
                            Some(prev) => alpha * x + (1.0 - alpha) * prev,
                        });
                    }
                    acc
                }
                None => self.ewma.value(),
            },
            EstimatorKind::RecentMedian => {
                let v = scratch;
                v.clear();
                v.extend(&self.recent);
                if v.is_empty() {
                    return None;
                }
                // Values equal under `total_cmp` have equal bits, so an
                // unstable sort yields the same sequence as a stable one.
                v.sort_unstable_by(f64::total_cmp);
                Some(if v.len() % 2 == 1 {
                    v[v.len() / 2]
                } else {
                    0.5 * (v[v.len() / 2 - 1] + v[v.len() / 2])
                })
            }
            EstimatorKind::RecentAverage => {
                if self.recent.is_empty() {
                    return None;
                }
                Some(self.recent.iter().sum::<f64>() / self.recent.len() as f64)
            }
        }
    }

    /// Expert score for an estimator.
    pub fn score(&self, kind: EstimatorKind) -> Score {
        self.scores[kind.index()]
    }

    /// Histogram bin merges performed by this value's sketch (how lossy
    /// the constant-memory compression has been).
    pub fn bin_merges(&self) -> u64 {
        self.hist.merge_count()
    }

    /// Lowest NMAE among this value's scored experts, `None` when no
    /// expert has been evaluated yet.
    pub fn best_nmae(&self) -> Option<f64> {
        self.scores
            .iter()
            .filter_map(Score::nmae)
            .min_by(f64::total_cmp)
    }

    /// Scores all estimators against `runtime`, then folds it into history.
    pub fn observe(&mut self, runtime: f64) {
        let estimates = self.estimates(&mut Vec::new());
        self.fold(runtime, &estimates);
    }

    /// [`observe`](Self::observe) given this state's current
    /// [`estimates`](Self::estimates): scores each against `runtime`,
    /// then folds `runtime` into the history.
    pub(crate) fn fold(&mut self, runtime: f64, estimates: &[Option<f64>; 4]) {
        debug_assert!(runtime > 0.0 && runtime.is_finite());
        for kind in ESTIMATORS {
            if let Some(est) = estimates[kind.index()] {
                self.scores[kind.index()].update(est, runtime);
            }
        }
        self.hist.insert(runtime);
        self.moments.push(runtime);
        self.ewma.push(runtime);
        if self.recent.len() == self.recent_window {
            self.recent.pop_front();
        }
        self.recent.push_back(runtime);
        if let Some(w) = &mut self.capped {
            while w.len() >= self.sample_cap {
                w.pop_front();
            }
            w.push_back(runtime);
        }
    }

    /// Empirical runtime distribution of this feature value, `None` with no
    /// history.
    pub fn distribution(&self) -> Option<RuntimeDistribution> {
        match &self.capped {
            Some(w) => {
                let samples: Vec<f64> = w.iter().copied().collect();
                RuntimeDistribution::from_samples(&samples, 80)
            }
            None => {
                if self.hist.is_empty() {
                    None
                } else {
                    Some(RuntimeDistribution::Empirical(self.hist.clone()))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_histogram::Dist;

    fn state() -> ValueState {
        ValueState::new(80, 5, 0.6, None)
    }

    #[test]
    fn empty_state_has_no_estimates() {
        let s = state();
        for kind in ESTIMATORS {
            assert_eq!(s.estimate(kind), None, "{kind:?}");
        }
        assert!(s.distribution().is_none());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn average_tracks_full_history() {
        let mut s = state();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.observe(v);
        }
        assert!((s.estimate(EstimatorKind::Average).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn recent_estimators_use_the_window() {
        let mut s = state();
        // Window of 5; first 10 observations at 100, then 5 at 10.
        for _ in 0..10 {
            s.observe(100.0);
        }
        for _ in 0..5 {
            s.observe(10.0);
        }
        assert!((s.estimate(EstimatorKind::RecentMedian).unwrap() - 10.0).abs() < 1e-9);
        assert!((s.estimate(EstimatorKind::RecentAverage).unwrap() - 10.0).abs() < 1e-9);
        // Average still remembers the old regime.
        assert!(s.estimate(EstimatorKind::Average).unwrap() > 50.0);
    }

    #[test]
    fn rolling_follows_recent_values_faster_than_average() {
        let mut s = state();
        for _ in 0..20 {
            s.observe(100.0);
        }
        s.observe(10.0);
        let rolling = s.estimate(EstimatorKind::Rolling).unwrap();
        let average = s.estimate(EstimatorKind::Average).unwrap();
        assert!(rolling < average, "rolling {rolling} vs avg {average}");
        // 0.6·10 + 0.4·100 = 46.
        assert!((rolling - 46.0).abs() < 1e-9);
    }

    #[test]
    fn even_window_median_interpolates() {
        let mut s = ValueState::new(80, 4, 0.6, None);
        for v in [1.0, 2.0, 3.0, 10.0] {
            s.observe(v);
        }
        assert!((s.estimate(EstimatorKind::RecentMedian).unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn nmae_scores_prequentially() {
        let mut s = state();
        s.observe(100.0); // no estimators defined yet → no scores
        assert_eq!(s.score(EstimatorKind::Average).evals, 0);
        s.observe(100.0); // average predicted 100 → perfect
        assert_eq!(s.score(EstimatorKind::Average).evals, 1);
        assert!((s.score(EstimatorKind::Average).nmae().unwrap() - 0.0).abs() < 1e-12);
        s.observe(200.0); // average predicted 100, actual 200 → |err| 100
        let nmae = s.score(EstimatorKind::Average).nmae().unwrap();
        // (0 + 100) / (100 + 200) = 1/3.
        assert!((nmae - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_reflects_history() {
        let mut s = state();
        for v in [10.0, 20.0, 30.0] {
            s.observe(v);
        }
        let d = s.distribution().unwrap();
        assert_eq!(d.lower_bound(), 10.0);
        assert_eq!(d.upper_bound(), 30.0);
        assert!((d.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sample_cap_limits_visible_history() {
        let mut s = ValueState::new(80, 5, 0.6, Some(5));
        for _ in 0..50 {
            s.observe(1000.0);
        }
        for _ in 0..5 {
            s.observe(10.0);
        }
        assert_eq!(s.count(), 5);
        let d = s.distribution().unwrap();
        assert_eq!(d.upper_bound(), 10.0, "old samples evicted");
        assert!((s.estimate(EstimatorKind::Average).unwrap() - 10.0).abs() < 1e-9);
        assert!((s.estimate(EstimatorKind::Rolling).unwrap() - 10.0).abs() < 1e-9);
    }
}
