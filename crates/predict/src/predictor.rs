//! The predictor: expert selection across features.
//!
//! For a new job, every feature value the job matches contributes up to four
//! experts. The expert with the lowest NMAE over its past predictions wins;
//! its feature value's histogram becomes the job's distribution estimate and
//! its point estimate is the JVuPredict-style point prediction (§4.1).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use threesigma_histogram::RuntimeDistribution;

use crate::expert::{EstimatorKind, ValueState, ESTIMATORS};
use crate::feature::{extract, AttributeSource, FeatureSet};

/// Predictor tuning knobs.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Streaming-histogram bin budget (paper: 80).
    pub max_bins: usize,
    /// Window for the median / recent-average experts.
    pub recent_window: usize,
    /// Rolling-expert smoothing factor (paper: 0.6).
    pub ewma_alpha: f64,
    /// Optional cap on visible samples per feature value (Fig. 11 study).
    pub sample_cap: Option<usize>,
    /// Minimum scored predictions before an expert's NMAE is trusted.
    pub min_expert_evals: u64,
    /// Optional cap on distinct `(feature, value)` states tracked. When a
    /// new value would exceed it, the least-recently-*observed* state is
    /// evicted (prediction reads do not refresh recency, keeping `predict`
    /// immutable and deterministic). `None` = unbounded (batch runs).
    pub max_tracked_values: Option<usize>,
    /// Optional TTL, in *observations* (the predictor's logical clock): a
    /// state untouched for more than this many observation-touches is
    /// evicted on the next observe. `None` = no expiry.
    pub value_ttl: Option<u64>,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            max_bins: 80,
            recent_window: 10,
            ewma_alpha: 0.6,
            sample_cap: None,
            min_expert_evals: 3,
            max_tracked_values: None,
            value_ttl: None,
        }
    }
}

/// A runtime prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Estimated runtime distribution (the winning feature value's history).
    pub distribution: RuntimeDistribution,
    /// The winning expert's point estimate (JVuPredict's output).
    pub point: f64,
    /// Name of the winning feature.
    pub feature: &'static str,
    /// The winning estimator.
    pub estimator: EstimatorKind,
    /// Number of history samples behind the distribution.
    pub history: u64,
}

/// 3σPredict: per-feature-value histories plus online expert selection.
#[derive(Debug)]
pub struct Predictor {
    config: PredictorConfig,
    features: FeatureSet,
    /// State per `(feature index, feature value)`.
    /// Ordered map: `stats`/`snapshot`/`restore` iterate it, and both
    /// expert scoring and snapshot bytes must not depend on hash order.
    state: BTreeMap<(usize, String), ValueState>,
    /// Logical observation clock: advances once per feature-value touch in
    /// [`observe`](Self::observe). Drives LRU/TTL eviction and is persisted
    /// in snapshots so eviction order survives restarts bit-for-bit.
    clock: u64,
    /// Last touch per tracked key (same keys as `state`).
    touch: BTreeMap<(usize, String), u64>,
    /// Recency index: `(touch, feature index, value)` ascending, so the
    /// least-recently-observed entry is always `first()`.
    by_touch: BTreeSet<(u64, usize, String)>,
    /// Feature-value states evicted by the LRU cap or TTL (memory gauge).
    evictions: u64,
    /// Running totals maintained by [`observe`](Self::observe) so
    /// [`quick_stats`](Self::quick_stats) is O(1); [`stats`](Self::stats)
    /// recomputes the same sums exactly by scanning.
    observations: u64,
    bin_merges: u64,
    /// Truncated (killed/failed) runs recorded as censored lower bounds —
    /// counted for telemetry, never folded into the histories.
    censored: u64,
    /// Lowest scored-expert NMAE seen so far (historical minimum).
    best_nmae_seen: Option<f64>,
}

impl Predictor {
    /// Predictor with the standard feature set.
    pub fn new(config: PredictorConfig) -> Self {
        Self::with_features(config, FeatureSet::standard())
    }

    /// Predictor with an explicit feature set.
    pub fn with_features(config: PredictorConfig, features: FeatureSet) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        Self {
            config,
            features,
            state: BTreeMap::new(),
            clock: 0,
            touch: BTreeMap::new(),
            by_touch: BTreeSet::new(),
            evictions: 0,
            observations: 0,
            bin_merges: 0,
            censored: 0,
            best_nmae_seen: None,
        }
    }

    /// Number of distinct feature values tracked (memory gauge).
    pub fn tracked_values(&self) -> usize {
        self.state.len()
    }

    /// The canonical `&'static str` for a feature name this predictor
    /// tracks, or `None` for an unknown feature. Lets callers rehydrate
    /// borrowed feature names from serialized state (serve-mode restore).
    pub fn canonical_feature(&self, name: &str) -> Option<&'static str> {
        self.features
            .features
            .iter()
            .map(|f| f.name)
            .find(|n| *n == name)
    }

    /// Records a completed job's measured runtime against all its features.
    pub fn observe(&mut self, attrs: &impl AttributeSource, runtime: f64) {
        if !(runtime.is_finite() && runtime > 0.0) {
            return; // defensive: never poison history with bad samples
        }
        let cfg = &self.config;
        for (fi, feature) in self.features.features.iter().enumerate() {
            let Some(value) = extract(feature, attrs) else {
                continue;
            };
            self.clock += 1;
            let now = self.clock;
            if let Some(prev) = self.touch.insert((fi, value.clone()), now) {
                self.by_touch.remove(&(prev, fi, value.clone()));
            }
            self.by_touch.insert((now, fi, value.clone()));
            let state = self.state.entry((fi, value)).or_insert_with(|| {
                ValueState::new(
                    cfg.max_bins,
                    cfg.recent_window,
                    cfg.ewma_alpha,
                    cfg.sample_cap,
                )
            });
            let (count_before, merges_before) = (state.count(), state.bin_merges());
            state.observe(runtime);
            // Count deltas rather than inserts: a sample cap keeps
            // `count()` flat, and one insert can trigger several merges.
            self.observations += state.count().saturating_sub(count_before);
            self.bin_merges += state.bin_merges().saturating_sub(merges_before);
            if let Some(n) = state.best_nmae() {
                self.best_nmae_seen = Some(self.best_nmae_seen.map_or(n, |cur| cur.min(n)));
            }
        }
        self.enforce_bounds();
    }

    /// Applies the LRU cap and TTL (see [`PredictorConfig`]), evicting
    /// least-recently-observed states first. Running totals shrink with the
    /// evicted history so `quick_stats` keeps agreeing with a full scan.
    fn enforce_bounds(&mut self) {
        if let Some(ttl) = self.config.value_ttl {
            while let Some(oldest) = self.by_touch.first().cloned() {
                if self.clock.saturating_sub(oldest.0) <= ttl {
                    break;
                }
                self.evict(oldest);
            }
        }
        if let Some(cap) = self.config.max_tracked_values {
            while self.state.len() > cap {
                let Some(oldest) = self.by_touch.first().cloned() else {
                    break;
                };
                self.evict(oldest);
            }
        }
    }

    fn evict(&mut self, entry: (u64, usize, String)) {
        self.by_touch.remove(&entry);
        let key = (entry.1, entry.2);
        self.touch.remove(&key);
        if let Some(state) = self.state.remove(&key) {
            self.observations = self.observations.saturating_sub(state.count());
            self.bin_merges = self.bin_merges.saturating_sub(state.bin_merges());
            self.evictions += 1;
        }
    }

    /// Feature-value states evicted so far by the LRU cap or TTL.
    pub fn evicted_values(&self) -> u64 {
        self.evictions
    }

    /// The configured cap on tracked values, if any (bound gauge).
    pub fn tracked_values_limit(&self) -> Option<usize> {
        self.config.max_tracked_values
    }

    /// Records a *censored* observation: a run that was killed after
    /// `elapsed` seconds, so the true runtime is only known to be ≥
    /// `elapsed`.
    ///
    /// Censored samples must never enter the per-feature histograms or the
    /// expert NMAE scores — folding a truncated runtime in as if it were a
    /// completion would bias every history toward shorter runtimes (the
    /// jobs most likely to be killed are exactly the long ones). The full
    /// Kaplan–Meier-style reweighting the stochastic-scheduling literature
    /// uses needs the whole history per value; until that lands, the
    /// lower bound is recorded for telemetry only so runs can prove no
    /// truncated runtime leaked into the histories.
    pub fn observe_censored(&mut self, _attrs: &impl AttributeSource, elapsed: f64) {
        if !(elapsed.is_finite() && elapsed >= 0.0) {
            return; // same defensive posture as `observe`
        }
        self.censored += 1;
    }

    /// Censored (killed/failed) runs recorded so far. These are *not*
    /// included in [`quick_stats`](Self::quick_stats)' `observations`.
    pub fn censored_observations(&self) -> u64 {
        self.censored
    }

    /// Predicts the runtime distribution for a job with the given
    /// attributes. `None` when no matching feature value has any history.
    pub fn predict(&self, attrs: &impl AttributeSource) -> Option<Prediction> {
        // Best scored expert: lowest trusted NMAE; tie-break on more history.
        let mut best_scored: Option<(f64, u64, &ValueState, usize, EstimatorKind)> = None;
        // Fallback: most history, preferring the median estimator.
        let mut best_fallback: Option<(u64, &ValueState, usize, EstimatorKind)> = None;

        for (fi, feature) in self.features.features.iter().enumerate() {
            let Some(value) = extract(feature, attrs) else {
                continue;
            };
            let Some(state) = self.state.get(&(fi, value)) else {
                continue;
            };
            if state.count() == 0 {
                continue;
            }
            for kind in ESTIMATORS {
                if state.estimate(kind).is_none() {
                    continue;
                }
                let score = state.score(kind);
                match score.nmae() {
                    Some(nmae) if score.evals >= self.config.min_expert_evals => {
                        let better = match &best_scored {
                            None => true,
                            Some((b_nmae, b_hist, ..)) => {
                                nmae < *b_nmae - 1e-12
                                    || ((nmae - *b_nmae).abs() <= 1e-12 && state.count() > *b_hist)
                            }
                        };
                        if better {
                            best_scored = Some((nmae, state.count(), state, fi, kind));
                        }
                    }
                    _ => {
                        let pref = kind == EstimatorKind::RecentMedian;
                        let better = match &best_fallback {
                            None => true,
                            Some((b_hist, _, _, b_kind)) => {
                                state.count() > *b_hist
                                    || (state.count() == *b_hist
                                        && pref
                                        && *b_kind != EstimatorKind::RecentMedian)
                            }
                        };
                        if better {
                            best_fallback = Some((state.count(), state, fi, kind));
                        }
                    }
                }
            }
        }

        let (state, fi, kind) = match (best_scored, best_fallback) {
            (Some((_, _, s, fi, k)), _) => (s, fi, k),
            (None, Some((_, s, fi, k))) => (s, fi, k),
            (None, None) => return None,
        };
        let distribution = state.distribution()?;
        let point = state.estimate(kind)?;
        Some(Prediction {
            distribution,
            point,
            feature: self.features.features[fi].name,
            estimator: kind,
            history: state.count(),
        })
    }

    /// JVuPredict: just the winning expert's point estimate.
    pub fn predict_point(&self, attrs: &impl AttributeSource) -> Option<f64> {
        self.predict(attrs).map(|p| p.point)
    }

    /// Aggregate telemetry over the predictor's state: per-feature history
    /// sizes, sketch compression (bin merges), and the best expert NMAE.
    ///
    /// Every aggregate is order-independent (sums and minima), so the
    /// result is deterministic despite the hash-map backing store.
    pub fn stats(&self) -> PredictorStats {
        let mut per_feature: Vec<FeatureStats> = self
            .features
            .features
            .iter()
            .map(|f| FeatureStats {
                feature: f.name,
                values: 0,
                observations: 0,
                bin_merges: 0,
                best_nmae: None,
            })
            .collect();
        for ((fi, _), state) in &self.state {
            let fs = &mut per_feature[*fi];
            fs.values += 1;
            fs.observations += state.count();
            fs.bin_merges += state.bin_merges();
            if let Some(n) = state.best_nmae() {
                fs.best_nmae = Some(fs.best_nmae.map_or(n, |cur| cur.min(n)));
            }
        }
        PredictorStats {
            tracked_values: self.state.len(),
            observations: per_feature.iter().map(|f| f.observations).sum(),
            bin_merges: per_feature.iter().map(|f| f.bin_merges).sum(),
            per_feature,
        }
    }

    /// O(1) aggregate telemetry from the running totals maintained by
    /// [`observe`](Self::observe) — the per-scheduling-cycle metrics flush
    /// uses this instead of [`stats`](Self::stats), whose full scan over
    /// every tracked feature value is too slow for a hot path.
    ///
    /// `observations` and `bin_merges` agree exactly with [`stats`];
    /// `best_nmae` is the *historical* minimum (lowest scored-expert NMAE
    /// seen so far), whereas [`stats`] reports the current minimum.
    pub fn quick_stats(&self) -> QuickStats {
        QuickStats {
            tracked_values: self.state.len(),
            observations: self.observations,
            bin_merges: self.bin_merges,
            censored: self.censored,
            evictions: self.evictions,
            best_nmae: self.best_nmae_seen,
        }
    }

    /// Serialisable snapshot of the trained state (histories + scores).
    ///
    /// Restoring requires the same feature set and config; this is how a
    /// long-lived deployment persists its history database across restarts.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            touches: self
                .state
                .keys()
                .map(|key| self.touch.get(key).copied().unwrap_or(0))
                .collect(),
            clock: self.clock,
            evictions: self.evictions,
            censored: self.censored,
            best_nmae: self.best_nmae_seen,
            entries: self
                .state
                .iter()
                .map(|((fi, value), state)| (*fi, value.clone(), state.clone()))
                .collect(),
        }
    }

    /// Restores a snapshot taken by [`snapshot`](Self::snapshot), replacing
    /// any current state.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the predictor unchanged, a snapshot that
    /// references a feature this predictor does not have, or whose touch
    /// list does not pair one touch with each entry.
    pub fn restore(&mut self, snapshot: Snapshot) -> Result<(), String> {
        for (fi, _, _) in &snapshot.entries {
            if *fi >= self.features.len() {
                return Err(format!("entry references unknown feature {fi}"));
            }
        }
        if snapshot.touches.len() != snapshot.entries.len() {
            return Err(format!(
                "{} touches for {} entries",
                snapshot.touches.len(),
                snapshot.entries.len()
            ));
        }
        self.touch = BTreeMap::new();
        self.by_touch = BTreeSet::new();
        let mut max_touch = 0u64;
        for ((fi, value, _), &t) in snapshot.entries.iter().zip(&snapshot.touches) {
            max_touch = max_touch.max(t);
            self.touch.insert((*fi, value.clone()), t);
            self.by_touch.insert((t, *fi, value.clone()));
        }
        self.clock = snapshot.clock.max(max_touch);
        self.evictions = snapshot.evictions;
        self.censored = snapshot.censored;
        self.state = snapshot
            .entries
            .into_iter()
            .map(|(fi, value, state)| ((fi, value), state))
            .collect();
        // Rebuild the running totals from the restored state (one-off scan —
        // exact, since eviction subtracts the departing history from both).
        self.observations = self.state.values().map(ValueState::count).sum();
        self.bin_merges = self.state.values().map(ValueState::bin_merges).sum();
        // The historical-best NMAE travels in the snapshot (a restarted
        // serve session must republish the same gauge). `observe` already
        // folded every state's score into it.
        self.best_nmae_seen = snapshot.best_nmae;
        Ok(())
    }
}

/// Serialisable predictor state (see [`Predictor::snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// `(feature index, feature value, state)` triples.
    entries: Vec<(usize, String, ValueState)>,
    /// Last-touch clock per entry (same order and length as `entries`).
    touches: Vec<u64>,
    /// Logical observation clock at snapshot time.
    clock: u64,
    /// Evictions performed before the snapshot (gauge continuity).
    evictions: u64,
    /// Censored observations recorded before the snapshot.
    censored: u64,
    /// Lowest scored-expert NMAE ever seen (including evicted states and
    /// past scores); `None` until an expert is scored.
    best_nmae: Option<f64>,
}

/// Telemetry for one feature (see [`Predictor::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStats {
    /// Feature name.
    pub feature: &'static str,
    /// Distinct values tracked for this feature.
    pub values: usize,
    /// Total runtimes folded into this feature's histories.
    pub observations: u64,
    /// Histogram bin merges across this feature's sketches.
    pub bin_merges: u64,
    /// Lowest scored-expert NMAE across this feature's values, `None`
    /// before any expert evaluation.
    pub best_nmae: Option<f64>,
}

/// O(1) aggregate telemetry (see [`Predictor::quick_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuickStats {
    /// Distinct `(feature, value)` pairs tracked (memory gauge).
    pub tracked_values: usize,
    /// Total observations across all feature values.
    pub observations: u64,
    /// Total histogram bin merges across all sketches.
    pub bin_merges: u64,
    /// Censored (killed/failed) runs recorded as lower bounds only — never
    /// folded into the histories, so disjoint from `observations`.
    pub censored: u64,
    /// Feature-value states evicted by the LRU cap or TTL (memory gauge;
    /// their history left `observations`/`bin_merges` when they went).
    pub evictions: u64,
    /// Lowest scored-expert NMAE seen so far, `None` before any expert
    /// evaluation.
    pub best_nmae: Option<f64>,
}

/// Aggregate predictor telemetry (see [`Predictor::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorStats {
    /// Distinct `(feature, value)` pairs tracked (memory gauge).
    pub tracked_values: usize,
    /// Total observations across all feature values.
    pub observations: u64,
    /// Total histogram bin merges across all sketches.
    pub bin_merges: u64,
    /// Per-feature breakdown, in feature-set order.
    pub per_feature: Vec<FeatureStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_histogram::Dist;

    fn attrs(user: &str, name: &str) -> [(String, String); 4] {
        [
            ("user".to_owned(), user.to_owned()),
            ("job_name".to_owned(), name.to_owned()),
            ("priority".to_owned(), "5".to_owned()),
            ("tasks".to_owned(), "4".to_owned()),
        ]
    }

    #[test]
    fn no_history_yields_none() {
        let p = Predictor::new(PredictorConfig::default());
        assert!(p.predict(&attrs("alice", "etl")).is_none());
    }

    #[test]
    fn learns_a_constant_user() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..20 {
            p.observe(&attrs("alice", "etl"), 120.0);
        }
        let pred = p.predict(&attrs("alice", "etl")).unwrap();
        assert!((pred.point - 120.0).abs() < 1e-9);
        assert!((pred.distribution.mean() - 120.0).abs() < 1e-9);
        assert!(pred.history >= 20);
    }

    #[test]
    fn global_fallback_covers_unseen_users() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..10 {
            p.observe(&attrs("alice", "etl"), 100.0);
        }
        // Bob shares no attribute value with alice: only the global
        // feature has history for him.
        let bob = [
            ("user".to_owned(), "bob".to_owned()),
            ("job_name".to_owned(), "novel".to_owned()),
            ("priority".to_owned(), "9".to_owned()),
            ("tasks".to_owned(), "99".to_owned()),
        ];
        let pred = p.predict(&bob).unwrap();
        assert_eq!(pred.feature, "global");
        assert!((pred.point - 100.0).abs() < 1e-9);
    }

    #[test]
    fn selects_the_predictive_feature() {
        // job_name is noisy across users; user is perfectly predictive.
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..30 {
            p.observe(&attrs("alice", "shared"), 100.0);
            p.observe(
                &attrs(&format!("other{}", i % 5), "shared"),
                2000.0 + i as f64 * 37.0,
            );
        }
        let pred = p.predict(&attrs("alice", "shared")).unwrap();
        assert!(
            (pred.point - 100.0).abs() < 1.0,
            "picked alice-specific history, got {} via {}",
            pred.point,
            pred.feature
        );
        assert!(pred.feature.contains("user"));
    }

    #[test]
    fn distribution_covers_multi_modal_history() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..40 {
            let rt = if i % 2 == 0 { 60.0 } else { 600.0 };
            p.observe(&attrs("carol", "sweep"), rt);
        }
        let pred = p.predict(&attrs("carol", "sweep")).unwrap();
        let d = &pred.distribution;
        assert!(d.lower_bound() <= 60.0 + 1e-9);
        assert!(d.upper_bound() >= 600.0 - 1e-9);
        // Both modes carry mass (the histogram interpolation smears some
        // mass between the modes, hence the generous band).
        assert!(d.cdf(100.0) > 0.2 && d.cdf(100.0) < 0.8);
    }

    #[test]
    fn adapts_when_runtimes_drift() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..30 {
            p.observe(&attrs("dave", "etl"), 100.0);
        }
        for _ in 0..30 {
            p.observe(&attrs("dave", "etl"), 1000.0);
        }
        let pred = p.predict(&attrs("dave", "etl")).unwrap();
        // A recent-window expert should have won; estimate near new regime.
        assert!(
            pred.point > 800.0,
            "point {} via {:?}",
            pred.point,
            pred.estimator
        );
    }

    #[test]
    fn sample_cap_flows_through() {
        let mut p = Predictor::new(PredictorConfig {
            sample_cap: Some(5),
            ..PredictorConfig::default()
        });
        for _ in 0..50 {
            p.observe(&attrs("erin", "etl"), 500.0);
        }
        for _ in 0..5 {
            p.observe(&attrs("erin", "etl"), 50.0);
        }
        let pred = p.predict(&attrs("erin", "etl")).unwrap();
        assert_eq!(pred.history, 5);
        assert!(pred.distribution.upper_bound() <= 50.0 + 1e-9);
    }

    #[test]
    fn ignores_degenerate_runtimes() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("f", "g"), f64::NAN);
        p.observe(&attrs("f", "g"), -5.0);
        p.observe(&attrs("f", "g"), 0.0);
        assert!(p.predict(&attrs("f", "g")).is_none());
    }

    #[test]
    fn predict_point_matches_prediction_point() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..15 {
            p.observe(&attrs("zoe", "job"), 60.0 + i as f64);
        }
        let full = p.predict(&attrs("zoe", "job")).unwrap();
        let point = p.predict_point(&attrs("zoe", "job")).unwrap();
        assert_eq!(full.point, point);
    }

    #[test]
    fn untrusted_experts_fall_back_to_history_size() {
        // Below min_expert_evals, the fallback (most history, preferring
        // the median) is used rather than an unscored NMAE.
        let mut p = Predictor::new(PredictorConfig {
            min_expert_evals: 1000, // never trusted
            ..PredictorConfig::default()
        });
        for _ in 0..10 {
            p.observe(&attrs("kim", "x"), 80.0);
        }
        let pred = p.predict(&attrs("kim", "x")).unwrap();
        assert_eq!(pred.estimator, EstimatorKind::RecentMedian);
        assert!((pred.point - 80.0).abs() < 1e-9);
    }

    #[test]
    fn expert_scores_prefer_recent_regime_after_shift() {
        // After a regime change, the rolling/recent experts have lower
        // NMAE than the long-run average and win selection.
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..50 {
            p.observe(&attrs("lee", "y"), 100.0);
        }
        for _ in 0..50 {
            p.observe(&attrs("lee", "y"), 1000.0);
        }
        let pred = p.predict(&attrs("lee", "y")).unwrap();
        assert_ne!(pred.estimator, EstimatorKind::Average, "{pred:?}");
    }

    #[test]
    fn single_observation_still_predicts() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("solo", "once"), 77.0);
        let pred = p.predict(&attrs("solo", "once")).unwrap();
        assert!((pred.point - 77.0).abs() < 1e-9);
        assert_eq!(pred.history, 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..40 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 7) as f64);
        }
        let before = p.predict(&attrs("ana", "etl")).unwrap();
        let snap = p.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let mut fresh = Predictor::new(PredictorConfig::default());
        fresh.restore(serde_json::from_str(&json).unwrap()).unwrap();
        let after = fresh.predict(&attrs("ana", "etl")).unwrap();
        // JSON roundtrips can flip last-ulp ties between experts; the
        // restored prediction must agree to float noise.
        assert!((after.point - before.point).abs() < 1e-6);
        assert_eq!(after.feature, before.feature);
        assert_eq!(after.history, before.history);
    }

    #[test]
    fn restore_rejects_foreign_features() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("x", "y"), 10.0);
        let mut snap = p.snapshot();
        // Corrupt one entry with an out-of-range feature index.
        snap.entries
            .push((999, "v".into(), snap.entries[0].2.clone()));
        let mut fresh = Predictor::new(PredictorConfig::default());
        assert_eq!(
            fresh.restore(snap.clone()),
            Err("entry references unknown feature 999".into())
        );
        // A touch list that does not pair one touch with each entry is
        // refused too, not read as touch 0.
        snap.entries.pop();
        snap.touches.pop();
        let err = fresh.restore(snap).unwrap_err();
        assert!(err.contains("touches for"), "{err}");
        assert_eq!(fresh.tracked_values(), 0);
    }

    #[test]
    fn stats_aggregate_history_and_scores() {
        let mut p = Predictor::new(PredictorConfig::default());
        let empty = p.stats();
        assert_eq!(empty.observations, 0);
        assert!(empty.per_feature.iter().all(|f| f.best_nmae.is_none()));

        for i in 0..200 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 90) as f64);
        }
        let stats = p.stats();
        assert_eq!(stats.tracked_values, p.tracked_values());
        assert!(stats.observations >= 200);
        // 200 distinct-ish values through an 80-bin sketch must compress.
        assert!(stats.bin_merges > 0);
        let user = stats
            .per_feature
            .iter()
            .find(|f| f.feature == "user")
            .unwrap();
        assert_eq!(user.values, 1);
        assert_eq!(user.observations, 200);
        assert!(user.best_nmae.is_some());
        // Aggregates must be reproducible despite the hash-map store.
        assert_eq!(p.stats(), stats);
    }

    #[test]
    fn quick_stats_match_full_stats() {
        let mut p = Predictor::new(PredictorConfig::default());
        assert_eq!(p.quick_stats().observations, 0);
        for i in 0..200 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 90) as f64);
            p.observe(&attrs("bo", "ml"), 40.0 + (i % 13) as f64);
        }
        let quick = p.quick_stats();
        let full = p.stats();
        assert_eq!(quick.tracked_values, full.tracked_values);
        assert_eq!(quick.observations, full.observations);
        assert_eq!(quick.bin_merges, full.bin_merges);
        // The historical minimum can only be at or below the current one.
        let current = full
            .per_feature
            .iter()
            .filter_map(|f| f.best_nmae)
            .min_by(f64::total_cmp);
        assert!(quick.best_nmae.is_some());
        assert!(quick.best_nmae <= current || current.is_none());
    }

    #[test]
    fn censored_observations_never_touch_the_histories() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..30 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 7) as f64);
        }
        let before = p.predict(&attrs("ana", "etl")).unwrap();
        let stats_before = p.stats();

        // A run killed after 12 s: lower bound only.
        p.observe_censored(&attrs("ana", "etl"), 12.0);
        p.observe_censored(&attrs("ana", "etl"), f64::NAN); // ignored
        p.observe_censored(&attrs("ana", "etl"), -3.0); // ignored

        assert_eq!(p.censored_observations(), 1);
        assert_eq!(p.quick_stats().censored, 1);
        // Histories, predictions, and expert scores are bit-identical:
        // the truncated runtime was not folded in as a completion.
        assert_eq!(p.stats(), stats_before);
        let after = p.predict(&attrs("ana", "etl")).unwrap();
        assert_eq!(after.point, before.point);
        assert_eq!(after.history, before.history);
        assert_eq!(p.quick_stats().observations, stats_before.observations);
    }

    #[test]
    fn quick_stats_match_full_stats_under_a_sample_cap() {
        let mut p = Predictor::new(PredictorConfig {
            sample_cap: Some(5),
            ..PredictorConfig::default()
        });
        for _ in 0..50 {
            p.observe(&attrs("erin", "etl"), 500.0);
        }
        assert_eq!(p.quick_stats().observations, p.stats().observations);
        assert_eq!(p.quick_stats().bin_merges, p.stats().bin_merges);
    }

    #[test]
    fn restore_rebuilds_quick_stats() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..60 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 31) as f64);
        }
        let snap = p.snapshot();
        let mut fresh = Predictor::new(PredictorConfig::default());
        fresh.restore(snap).unwrap();
        assert_eq!(fresh.quick_stats().observations, p.stats().observations);
        assert_eq!(fresh.quick_stats().bin_merges, p.stats().bin_merges);
        assert_eq!(fresh.quick_stats().tracked_values, p.tracked_values());
    }

    #[test]
    fn lru_cap_bounds_tracked_values() {
        let mut p = Predictor::new(PredictorConfig {
            max_tracked_values: Some(12),
            ..PredictorConfig::default()
        });
        for i in 0..200u32 {
            p.observe(&attrs(&format!("user{i}"), &format!("job{i}")), 50.0);
            assert!(
                p.tracked_values() <= 12,
                "cap exceeded at i={i}: {}",
                p.tracked_values()
            );
        }
        assert!(p.evicted_values() > 0);
        assert_eq!(p.quick_stats().evictions, p.evicted_values());
        // Totals shrank with the evicted history: the O(1) counters still
        // agree with a full scan of what remains.
        assert_eq!(p.quick_stats().observations, p.stats().observations);
        assert_eq!(p.quick_stats().bin_merges, p.stats().bin_merges);
        // The most recent user survived; ancient ones are gone.
        assert!(p.predict(&attrs("user199", "job199")).is_some());
    }

    #[test]
    fn ttl_evicts_stale_values() {
        // Each observe touches 5 features (4 attrs + global). TTL of 40
        // touches ≈ 8 observes: a value untouched for longer expires.
        let mut p = Predictor::new(PredictorConfig {
            value_ttl: Some(40),
            ..PredictorConfig::default()
        });
        p.observe(&attrs("old", "old_job"), 100.0);
        for i in 0..30u32 {
            p.observe(&attrs("fresh", &format!("job{i}")), 50.0);
        }
        assert!(p.evicted_values() > 0);
        // The stale user-specific history is gone; fresh history remains.
        let pred = p.predict(&attrs("old", "old_job")).unwrap();
        assert_ne!(pred.feature, "user", "stale per-user state must expire");
        assert!(p.predict(&attrs("fresh", "job0")).is_some());
    }

    #[test]
    fn snapshot_preserves_lru_order_across_restore() {
        let cfg = || PredictorConfig {
            max_tracked_values: Some(10),
            ..PredictorConfig::default()
        };
        let mut a = Predictor::new(cfg());
        for i in 0..40u32 {
            a.observe(&attrs(&format!("u{i}"), "shared"), 60.0);
        }
        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let mut b = Predictor::new(cfg());
        b.restore(serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(b.tracked_values(), a.tracked_values());
        assert_eq!(b.quick_stats().evictions, a.quick_stats().evictions);
        // Continue both identically: eviction decisions must match because
        // the touch order was persisted, not reconstructed.
        for i in 100..120u32 {
            a.observe(&attrs(&format!("u{i}"), "shared"), 60.0);
            b.observe(&attrs(&format!("u{i}"), "shared"), 60.0);
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap(),
            "restored predictor must evolve byte-identically"
        );
    }

    #[test]
    fn snapshot_carries_censored_count() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("a", "b"), 10.0);
        p.observe_censored(&attrs("a", "b"), 3.0);
        let mut fresh = Predictor::new(PredictorConfig::default());
        fresh.restore(p.snapshot()).unwrap();
        assert_eq!(fresh.censored_observations(), 1);
    }

    #[test]
    fn tracked_values_grow_with_distinct_features() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("a", "x"), 10.0);
        let first = p.tracked_values();
        p.observe(&attrs("b", "y"), 10.0);
        assert!(p.tracked_values() > first);
    }
}
